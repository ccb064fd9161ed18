import csv
import dataclasses
import math
import os
import random
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from conftest import make_event
from idsgate.corpus import (
    HYP_COLUMNS,
    HYP_NUMERIC_FIELDS,
    HYP_TYPES,
    PLACEHOLDER_FEATURES,
    HostGenConfig,
    HypGenConfig,
    MalformedCorpus,
    NetGenConfig,
    gen_hostlogs,
    gen_hypervisor,
    gen_network,
    load_hypervisor_csv,
    split_train_test,
)
from idsgate.events import Event, LayerId, ScoredStream
from idsgate.scoring import (
    EmptyCorpus,
    Scorer,
    SingleClassData,
    TfidfRows,
    TrainConfig,
    extract_features,
    fit_tfidf,
    load_replay_csv,
    score_stream,
    tokenize,
    train_baseline,
)


def test_tokenize_lowercases_and_splits():
    assert tokenize("Dst Port=21, Protocol=6") == ["dst", "port", "21", "protocol", "6"]
    assert tokenize("...") == []


def _vec(text, fx):
    return extract_features([text], fx).dense()[0]


def test_tfidf_idf_matches_hand_formula():
    fx = fit_tfidf(["alpha beta", "alpha gamma"])
    # Oracle: recompute idf for each term from document frequency.
    df = {"alpha": 2, "beta": 1, "gamma": 1}
    for term, idx in fx.vocab.items():
        expected = math.log((1 + 2) / (1 + df[term])) + 1.0
        assert fx.idf[idx] == pytest.approx(expected, abs=1e-12)
    assert sorted(fx.vocab) == ["alpha", "beta", "gamma"]


def test_tfidf_vectors_are_unit_norm():
    fx = fit_tfidf(["alpha beta", "alpha gamma", "beta beta delta"])
    vec = _vec("alpha beta unseen", fx)
    assert vec.shape == (fx.dims,)
    assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)


def test_tfidf_repeated_terms_count():
    fx = fit_tfidf(["alpha beta", "alpha gamma"])
    once = _vec("beta alpha", fx)
    twice = _vec("beta beta alpha", fx)
    # More beta mass tilts the unit vector toward the beta axis.
    assert twice[fx.vocab["beta"]] > once[fx.vocab["beta"]]


def test_tfidf_zero_vector_for_unseen_text():
    fx = fit_tfidf(["alpha beta"])
    vec = _vec("zeta theta", fx)
    assert not vec.any()


def test_tfidf_vocab_cap_keeps_most_frequent():
    corpus = ["common rare1", "common rare2", "common other", "other filler"]
    fx = fit_tfidf(corpus, max_vocab=2)
    # df: common=3, other=2, rest 1; cap keeps the top two by frequency.
    assert sorted(fx.vocab) == ["common", "other"]


def test_tfidf_cap_ties_break_on_term():
    fx = fit_tfidf(["aa bb", "cc dd"], max_vocab=2)
    # All df=1: alphabetical order decides.
    assert sorted(fx.vocab) == ["aa", "bb"]


def test_tfidf_empty_corpus_raises():
    with pytest.raises(EmptyCorpus):
        fit_tfidf([])


def _reference_tfidf_vector(raw, fx):
    # One event at a time: its own zero vector, counts, idf scaling, then
    # division by its norm, the square root of its non-zero squares summed
    # by np.add.reduceat in column order.
    vec = np.zeros(fx.dims, dtype=np.float64)
    for term in tokenize(raw):
        idx = fx.vocab.get(term)
        if idx is not None:
            vec[idx] += 1.0
    if not vec.any():
        return vec
    vec *= fx.idf
    cells = vec[vec != 0.0]
    return vec / np.sqrt(np.add.reduceat(cells * cells, [0])[0])


def test_tfidf_block_matches_per_event_reference():
    events = gen_hostlogs(HostGenConfig(count=3000, seed=2))
    train, test = split_train_test(events, 0.8, 2)
    fx = fit_tfidf([e.raw for e in train])
    raws = [e.raw for e in train + test] + ["", "zeta theta", "pid pid pid"]
    rows = extract_features(raws, fx)
    block = rows.dense()
    assert block.shape == (len(raws), fx.dims)
    assert not block[-2].any()
    # the rows store exactly the non-zero cells, in row-major order
    cells = np.nonzero(block)
    per_row = np.count_nonzero(block, axis=1)
    assert np.array_equal(rows.indptr, np.concatenate(([0], np.cumsum(per_row))))
    assert np.array_equal(rows.indices, cells[1])
    assert rows.data.tobytes() == block[cells].tobytes()
    for raw, row in zip(raws, block):
        assert row.tobytes() == _reference_tfidf_vector(raw, fx).tobytes()


def test_tfidf_row_reads_as_its_row_of_the_dense_block():
    raws = ["alpha beta beta", "", "gamma zeta", "alpha gamma"]
    rows = extract_features(raws, fit_tfidf(raws))
    block = rows.dense()
    views = [rows.row(i) for i in range(len(rows))]
    assert all(len(v) == rows.dims == 4 for v in views)
    for v, expected in zip(views, block):
        vector = np.asarray(v)
        assert vector.dtype == np.float64
        assert vector.tobytes() == expected.tobytes()
        assert np.asarray(v) is not vector  # a fresh vector on each read
        assert np.asarray(v, dtype=np.float32).tobytes() == expected.astype(np.float32).tobytes()
    assert not np.asarray(views[1]).any()  # no vocabulary term: a zero row
    assert np.stack(views).tobytes() == block.tobytes()
    assert np.linalg.norm(views[2]) == np.linalg.norm(block[2])
    with pytest.raises(ValueError, match="without a copy"):
        views[0].__array__(copy=False)


def test_tfidf_rows_hold_every_term_of_text_that_lowercases_longer():
    # "İ" lowercases to "i" and a combining dot, so "İa" (2 characters)
    # holds two terms, and its row keeps both.
    fx = fit_tfidf(["i a", "a"])
    rows = extract_features(["İa", "İa", "z"], fx)
    assert rows.indptr.tolist() == [0, 2, 4, 4]
    assert [sorted(fx.vocab, key=fx.vocab.get)[j] for j in rows.indices] == ["a", "i"] * 2


def _load_one_hyp_row(tmp_path, hv: str, cells: list[str]) -> Event:
    path = os.path.join(tmp_path, "hyp.csv")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(HYP_COLUMNS)
        writer.writerow(["normal", hv] + cells)
    (event,) = load_hypervisor_csv(path)
    return event


def test_numeric_passthrough_nonfinite_to_zero(tmp_path):
    # Numeric cells pass through to the feature vector as floats; the
    # non-finite and unparseable ones become 0.0.
    cells = ["nan", "inf", "bogus"] + ["1.0"] * (len(HYP_NUMERIC_FIELDS) - 3)
    event = _load_one_hyp_row(tmp_path, "KVM", cells)
    assert event.features[len(HYP_TYPES) :].tolist() == [0.0, 0.0, 0.0] + [1.0] * (
        len(HYP_NUMERIC_FIELDS) - 3
    )


def test_categorical_unknown_value_is_all_zero_block(tmp_path):
    event = _load_one_hyp_row(tmp_path, "ESX", ["0.5"] * len(HYP_NUMERIC_FIELDS))
    assert event.features[: len(HYP_TYPES)].tolist() == [0.0] * len(HYP_TYPES)
    assert event.features.shape == (len(HYP_TYPES) + len(HYP_NUMERIC_FIELDS),)


def _labeled_blob(seed: int, n: int, dims: int = 6) -> list[Event]:
    rng = np.random.default_rng(seed)
    events = []
    for i in range(n):
        truth = i % 2
        center = 2.0 if truth else -2.0
        feats = rng.normal(center, 1.0, size=dims)
        events.append(
            Event(
                id=f"network-{i}",
                layer=LayerId.NETWORK,
                text="",
                features=feats,
                truth=truth,
            )
        )
    return events


def test_logistic_matches_brute_force_descent():
    events = _labeled_blob(3, 80)
    cfg = TrainConfig(epochs=50, learning_rate=0.2, l2=1e-3, seed=11)
    scorer = train_baseline(events, _stack(events), cfg)

    # Oracle: independent re-derivation of the same schedule.
    x = np.stack([e.features for e in events])
    y = np.array([e.truth for e in events], dtype=np.float64)
    mu, sigma = x.mean(axis=0), x.std(axis=0)
    sigma[sigma == 0.0] = 1.0
    z = (x - mu) / sigma
    rng = np.random.default_rng(cfg.seed)
    w = rng.normal(0.0, 0.01, size=z.shape[1])
    b = 0.0
    for _ in range(cfg.epochs):
        p = 1.0 / (1.0 + np.exp(-(z @ w + b)))
        w = w - cfg.learning_rate * (z.T @ (p - y) / len(y) + cfg.l2 * w)
        b = b - cfg.learning_rate * float((p - y).mean())
    w_raw = w / sigma
    b_raw = b - float((w * (mu / sigma)).sum())

    assert scorer.weights == pytest.approx(w_raw, abs=1e-9)
    assert scorer.bias == pytest.approx(b_raw, abs=1e-9)


def _stack(events):
    return np.array([e.features for e in events], dtype=np.float64)


def _reference_train(events, cfg):
    # The standardization as first written (astype copy, x.std, one
    # expression for z), then the same schedule, its two products summed
    # by np.einsum as train_baseline sums them, and the same folding.
    x = np.stack([e.features for e in events]).astype(np.float64)
    y = np.array([e.truth for e in events], dtype=np.float64)
    mu = x.mean(axis=0)
    sigma = x.std(axis=0)
    sigma[sigma == 0.0] = 1.0
    z = (x - mu) / sigma
    rng = np.random.default_rng(cfg.seed)
    w = rng.normal(0.0, 0.01, size=z.shape[1])
    b = 0.0
    n = len(y)
    for _ in range(cfg.epochs):
        p = 1.0 / (1.0 + np.exp(-np.clip(np.einsum("ij,j->i", z, w) + b, -500.0, 500.0)))
        err = p - y
        grad_w = np.einsum("ij,i->j", z, err) / n + cfg.l2 * w
        grad_b = float(err.mean())
        w = w - cfg.learning_rate * grad_w
        b = b - cfg.learning_rate * grad_b
    return w / sigma, b - float((w * (mu / sigma)).sum())


def _rows_of(x):
    # The non-zero cells of a matrix as tf-idf rows.
    rows, cols = np.nonzero(x)
    indptr = np.concatenate(([0], np.cumsum(np.count_nonzero(x, axis=1))))
    return TfidfRows(indptr, cols, x[rows, cols], x.shape[1])


def _host_train(seed):
    train, _ = split_train_test(gen_hostlogs(HostGenConfig(count=1500, seed=seed)), 0.8, seed)
    raws = [e.raw for e in train]
    block = extract_features(raws, fit_tfidf(raws)).dense()
    return [dataclasses.replace(e, features=x) for e, x in zip(train, block)]


@pytest.mark.parametrize(
    "train",
    [
        lambda: split_train_test(gen_network(NetGenConfig(count=1500, seed=4)), 0.8, 4)[0],
        lambda: _host_train(4),
        lambda: split_train_test(
            gen_hypervisor(HypGenConfig(class_counts={"normal": 900, "vm_escape": 600}, seed=4)),
            0.8,
            4,
        )[0],
        # 400 rows, fewer than one chunk of the sum of squares.
        lambda: split_train_test(gen_network(NetGenConfig(count=500, seed=5)), 0.8, 5)[0],
        # 3200 rows: three full chunks and a short one.
        lambda: split_train_test(
            gen_hypervisor(HypGenConfig(class_counts={"normal": 2400, "hyper_jacking": 1600}, seed=6)),
            0.8,
            6,
        )[0],
    ],
    ids=["network", "host", "hypervisor", "below-chunk", "several-chunks"],
)
def test_train_baseline_matches_reference(train):
    # A constant column (sigma 0, standardized as 1) rides along.
    events = [dataclasses.replace(e, features=np.append(e.features, 2.5)) for e in train()]
    cfg = TrainConfig(seed=4)
    w_raw, b_raw = _reference_train(events, cfg)
    if events[0].layer is LayerId.HOST:
        # Host events train on their tf-idf rows, as prepare_layer trains
        # them: the same math, summed over the rows' cells in another order.
        scorer = train_baseline(events, _rows_of(_stack(events)), cfg)
        assert scorer.weights == pytest.approx(w_raw, rel=0, abs=1e-9)
        assert scorer.bias == pytest.approx(b_raw, rel=0, abs=1e-9)
    else:
        scorer = train_baseline(events, _stack(events), cfg)
        assert np.array_equal(scorer.weights, w_raw)
        assert scorer.bias == b_raw


def test_train_baseline_one_column_matches_reference():
    # A single column is summed pairwise, not row after row.
    events = _labeled_blob(13, 3000, dims=1)
    cfg = TrainConfig(seed=2)
    w_raw, b_raw = _reference_train(events, cfg)
    scorer = train_baseline(events, _stack(events), cfg)
    assert np.array_equal(scorer.weights, w_raw)
    assert scorer.bias == b_raw


def test_train_baseline_allocates_no_matrix_the_size_of_x():
    # x is standardized in place and its squares are summed a chunk at a
    # time, so training holds no second full-size matrix.
    events = _labeled_blob(12, 16000, dims=64)
    x = _stack(events)
    tracemalloc.start()
    try:
        train_baseline(events, x, TrainConfig(epochs=2))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.3 * x.nbytes


def test_train_baseline_standardizes_x_in_place():
    events = _labeled_blob(14, 300)
    x = _stack(events)
    raw = x.copy()
    train_baseline(events, x, TrainConfig(epochs=2))
    assert np.array_equal(x, (raw - raw.mean(axis=0)) / raw.std(axis=0))


def test_train_baseline_takes_the_labeled_rows_of_x():
    # Unlabeled rows are left out of training, and x is left as it was,
    # given as a matrix or as tf-idf rows.  An all-zero row and an
    # all-zero column make an empty row and an empty column of the rows.
    host = _host_train(15)
    host[5] = dataclasses.replace(host[5], features=np.zeros_like(host[5].features))
    events = [
        dataclasses.replace(
            e, features=np.append(e.features, 0.0), truth=None if i % 7 == 3 else e.truth
        )
        for i, e in enumerate(host)
    ]
    x = _stack(events)
    raw = x.copy()
    rows = _rows_of(x)
    cells = rows.data.copy()
    kept = [e for e in events if e.truth is not None]
    cfg = TrainConfig(seed=3)
    w_raw, b_raw = _reference_train(kept, cfg)

    scorer = train_baseline(events, x, cfg)
    assert np.array_equal(scorer.weights, w_raw)
    assert scorer.bias == b_raw
    assert np.array_equal(x, raw)

    scorer = train_baseline(events, rows, cfg)
    assert scorer.weights == pytest.approx(w_raw, rel=0, abs=1e-9)
    assert scorer.bias == pytest.approx(b_raw, rel=0, abs=1e-9)
    assert np.array_equal(rows.data, cells)


def test_train_baseline_rejects_a_row_count_mismatch():
    events = _labeled_blob(16, 20)
    with pytest.raises(ValueError, match="20 events but 19 feature rows"):
        train_baseline(events, _stack(events)[:19], TrainConfig())


def test_logistic_separates_blobs():
    train = _labeled_blob(5, 400)
    test = _labeled_blob(6, 200)
    scorer = train_baseline(train, _stack(train), TrainConfig())
    scored = score_stream(test, scorer, _stack(test))
    hits = sum(1 for se in scored if se.pred_label == se.event.truth)
    assert hits / len(scored) >= 0.95
    assert all(0.5 <= se.confidence <= 1.0 for se in scored)


def test_logistic_training_is_deterministic():
    events = _labeled_blob(9, 60)
    a = train_baseline(events, _stack(events), TrainConfig())
    b = train_baseline(events, _stack(events), TrainConfig())
    assert np.array_equal(a.weights, b.weights)
    assert a.bias == b.bias


def test_logistic_single_class_raises():
    events = [make_event(event_id=f"network-{i}", truth=1) for i in range(10)]
    with pytest.raises(SingleClassData):
        train_baseline(events, _stack(events), TrainConfig())


def test_logistic_tie_predicts_benign():
    scorer = Scorer(weights=np.zeros(4), bias=0.0)
    events = [make_event()]
    se = score_stream(events, scorer, _stack(events))[0]
    # p is exactly 0.5: the tie stays benign at confidence 0.5.
    assert se.pred_label == 0
    assert se.confidence == 0.5


def test_score_stream_on_tfidf_rows_scores_each_row():
    raws = ["alpha beta", "beta gamma gamma", "zeta", "alpha"]
    rows = extract_features(raws, fit_tfidf(raws[:2]))
    events = [make_event(event_id=f"host-{i}") for i in range(len(raws))]
    scorer = Scorer(weights=np.array([0.5, -2.0, 1.5]), bias=0.25)
    scored = score_stream(events, scorer, rows)
    assert [se.event for se in scored] == events
    for se, x in zip(scored, rows.dense()):
        p = 1.0 / (1.0 + np.exp(-(float(np.dot(scorer.weights, x)) + scorer.bias)))
        assert se.pred_label == (1 if p > 0.5 else 0)
        assert se.confidence == pytest.approx(max(p, 1.0 - p), rel=0, abs=1e-15)
    for x in (rows, rows.dense()):
        with pytest.raises(ValueError, match="3 events but 4 feature rows"):
            score_stream(events[:3], scorer, x)


_THREAD_COUNT_CHILD = """
import hashlib
import sys
import numpy as np
from idsgate.corpus import (
    HostGenConfig, HypGenConfig, gen_hostlogs, gen_hypervisor, split_train_test,
)
from idsgate.scoring import TrainConfig, extract_features, fit_tfidf, score_stream, train_baseline

def digest(a):
    return hashlib.sha256(np.asarray(a).tobytes()).hexdigest()

hyp, _ = split_train_test(gen_hypervisor(HypGenConfig(seed=2)), 0.8, 0)
x = np.array([e.features for e in hyp], dtype=np.float64)
host, _ = split_train_test(gen_hostlogs(HostGenConfig(count=5000, seed=1)), 0.8, 0)
texts = [e.raw for e in host]
rows = extract_features(texts, fit_tfidf(texts))
out = [f"rows {digest(rows.indptr)} {digest(rows.indices)} {digest(rows.data)}"]
for events, features in ((hyp, x), (host, rows)):
    # train_baseline standardizes a matrix in place; score the raw one.
    fit = features.copy() if isinstance(features, np.ndarray) else features
    scorer = train_baseline(events, fit, TrainConfig(epochs=50))
    scored = score_stream(events, scorer, features)
    shape = f"{len(features)}x{len(scorer.weights)}"
    weights = f"{scorer.weights.tobytes().hex()} {scorer.bias.hex()}"
    out.append(f"{shape} {weights} {digest([se.confidence for se in scored])}")
sys.stdout.write("\\n".join(out))
"""


def test_training_does_not_depend_on_the_blas_thread_count():
    # A 20 000 x 26 matrix (the hypervisor layer's shape) and host tf-idf
    # rows: the rows are extracted, and both train and score, to the same
    # bits on one BLAS thread, on two, and on two forced OpenBLAS kernels.
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    outputs = []
    for setting in (
        {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"},
        {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "2"},
        {"OPENBLAS_CORETYPE": "Haswell"},
        {"OPENBLAS_CORETYPE": "Prescott"},
    ):
        env = {k: v for k, v in os.environ.items() if not k.startswith(("OPENBLAS_", "OMP_"))}
        env.update(setting, PYTHONPATH=src + os.pathsep + env.get("PYTHONPATH", ""))
        proc = subprocess.run(
            [sys.executable, "-c", _THREAD_COUNT_CHILD],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout.splitlines())
    assert [line.split(" ")[0].split("x")[0] for line in outputs[0]] == ["rows", "20000", "4000"]
    assert outputs[0][1].startswith("20000x26 ")
    assert outputs[1:] == [outputs[0]] * 3


REPLAY_HEADER = "event_id,layer,pred_label,confidence,truth\n"


def test_replay_scorer_returns_stored_pair(tmp_path):
    path = tmp_path / "replay.csv"
    path.write_text(REPLAY_HEADER + "network-0,network,1,0.5807,1\n")
    [se] = load_replay_csv(str(path), LayerId.NETWORK)
    assert (se.event.id, se.pred_label, se.confidence) == ("network-0", 1, 0.5807)


@pytest.mark.parametrize(
    "generate",
    [
        lambda: gen_network(NetGenConfig(count=3000, seed=0)),
        lambda: gen_hypervisor(
            HypGenConfig(class_counts={"normal": 1500, "vm_escape": 1500})
        ),
    ],
    ids=["network", "hypervisor"],
)
def test_score_stream_matches_per_event_formula(generate):
    train, _ = split_train_test(generate(), 0.8, seed=0)
    scorer = train_baseline(train, _stack(train), TrainConfig())
    scored = score_stream(train, scorer, _stack(train))
    assert len(scored) == len(train)
    # Oracle: the scalar formula, one event at a time.
    for e, se in zip(train, scored):
        z = float(np.einsum("j,j->", scorer.weights, e.features)) + scorer.bias
        p = float(1.0 / (1.0 + np.exp(-np.clip(z, -500.0, 500.0))))
        assert se.event is e
        assert se.pred_label == (1 if p > 0.5 else 0)
        assert se.confidence == max(p, 1.0 - p)


def test_score_stream_columns_are_the_per_row_scores_read_only():
    train, _ = split_train_test(gen_network(NetGenConfig(count=1000, seed=0)), 0.8, seed=0)
    scorer = train_baseline(train, _stack(train), TrainConfig(epochs=20))
    scored = score_stream(train, scorer, _stack(train))
    assert isinstance(scored, ScoredStream) and scored.events is train
    # The columns hold, bit for bit, each row's label and max(p, 1 - p).
    labels, confidences = [], []
    for e in train:
        z = float(np.einsum("j,j->", scorer.weights, e.features)) + scorer.bias
        p = float(1.0 / (1.0 + np.exp(-np.clip(z, -500.0, 500.0))))
        labels.append(1 if p > 0.5 else 0)
        confidences.append(max(p, 1.0 - p))
    assert scored.labels.dtype == np.int8 and scored.labels.tolist() == labels
    assert scored.confidences.tolist() == confidences
    assert 0 < sum(labels) < len(labels)
    # A row holds a Python int and float, as json.dumps and the CSV's repr need.
    for i in (0, len(train) - 1):
        row = scored[i]
        assert type(row.pred_label) is int and type(row.confidence) is float
        assert (row.event, row.pred_label, row.confidence) == (
            train[i], labels[i], confidences[i]
        )
    part = scored.take([5, 2])
    assert [(r.event, r.confidence) for r in part] == [
        (train[i], confidences[i]) for i in (5, 2)
    ]
    # Both columns are read-only, and so are those of a part taken from them.
    for stream in (scored, part):
        with pytest.raises(ValueError, match="read-only"):
            stream.labels[0] = 1 - stream.labels[0]
        with pytest.raises(ValueError, match="read-only"):
            stream.confidences[0] = 0.5
    assert scored.labels.tolist() == labels and scored.confidences.tolist() == confidences


def test_replay_csv_round_trip(tmp_path):
    path = tmp_path / "replay.csv"
    path.write_text(
        REPLAY_HEADER
        + "host-7,host,1,0.5807,1\n"
        + "host-2,host,0,0.9990,\n"
        + "host-5,host,1,1,0\n"
    )
    stream = load_replay_csv(str(path), LayerId.HOST)
    assert [se.event.id for se in stream] == ["host-7", "host-2", "host-5"]
    assert [(se.pred_label, se.confidence) for se in stream] == [(1, 0.5807), (0, 0.999), (1, 1.0)]
    assert [se.event.truth for se in stream] == [1, None, 0]
    assert all(se.event.layer is LayerId.HOST and se.event.raw == "" for se in stream)
    # the shared zero cell stands in for the payload replay rows lack
    assert all(se.event.features is PLACEHOLDER_FEATURES for se in stream)


@pytest.mark.parametrize("layer", [LayerId.NETWORK, LayerId.HYPERVISOR])
def test_replayed_event_of_a_printed_layer_keeps_its_empty_record(tmp_path, layer):
    # A generated event of these layers prints its record from its row;
    # a replayed one read an empty record, and that is what it keeps.
    path = tmp_path / "replay.csv"
    path.write_text(REPLAY_HEADER + f"{layer.value}-3,{layer.value},1,0.6,1\n")
    [se] = load_replay_csv(str(path), layer)
    assert (se.event.text, se.event.raw) == ("", "")


def test_replay_csv_repeated_id_keeps_first_position_and_last_row(tmp_path):
    path = tmp_path / "replay.csv"
    path.write_text(
        REPLAY_HEADER
        + "network-0,network,1,0.6,1\n"
        + "network-1,network,0,0.7,0\n"
        + "network-0,network,0,0.8,\n"
    )
    stream = load_replay_csv(str(path), LayerId.NETWORK)
    assert [se.event.id for se in stream] == ["network-0", "network-1"]
    assert (stream[0].pred_label, stream[0].confidence, stream[0].event.truth) == (0, 0.8, None)


def test_replay_csv_rejects_missing_columns(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("event_id,confidence\nnetwork-0,0.5\n")
    with pytest.raises(MalformedCorpus, match=r"bad\.csv:1: missing columns"):
        load_replay_csv(str(path), LayerId.NETWORK)


@pytest.mark.parametrize(
    "text, where",
    [
        ("", ":1: missing columns"),
        (REPLAY_HEADER, ":1: header without rows"),
        (REPLAY_HEADER + "network-0,network,x,0.6,1\n", ":2: pred_label 'x'"),
        (REPLAY_HEADER + "network-0,network,1,0.6,1\nnetwork-1,network,2,0.6,1\n", ":3: pred_label '2'"),
        (REPLAY_HEADER + "network-0,network,1,0.6,1\nnetwork-1,network,1,0.6,-1\n", ":3: truth '-1'"),
        (REPLAY_HEADER + "network-0,network,1,0.6,yes\n", ":2: truth 'yes'"),
        (REPLAY_HEADER + "network-0,network,1,high,1\n", ":2: confidence 'high'"),
        (REPLAY_HEADER + "network-0,network,1,1.5,1\n", ":2: confidence '1.5'"),
        (REPLAY_HEADER + "network-0,network,1,nan,1\n", ":2: confidence 'nan'"),
        (REPLAY_HEADER + "network-0,network,1,-0.1,1\n", ":2: confidence '-0.1'"),
        (REPLAY_HEADER + "network-0,network,1,0.6,1\nhost-0,host,1,0.6,1\n", ":3: layer 'host'"),
        (REPLAY_HEADER + "network-0,network,1\n", ":2: row length differs from header"),
        (REPLAY_HEADER + "network-0,network,1,0.6,1,surplus,cells\n", ":2: row length differs from header"),
        (REPLAY_HEADER + "network-0,network,1,0.6,1\nnetwork-1,network,0,0.7\n", ":3: row length differs from header"),
        (REPLAY_HEADER + "network-0,network,1,0.6,1\nnet 1,network,1,0.6,1\n", ":3: event_id 'net 1'"),
        (REPLAY_HEADER + '"net,1",network,1,0.6,1\n', ":2: event_id 'net,1'"),
        (REPLAY_HEADER + ",network,1,0.6,1\n", ":2: event_id ''"),
    ],
    ids=[
        "empty-file", "no-rows", "label-not-int", "label-not-binary", "truth-not-binary",
        "truth-not-int", "confidence-not-number", "confidence-above-1", "confidence-nan",
        "confidence-below-0", "other-layer", "short-row", "long-row", "short-row-no-truth",
        "id-space", "id-comma", "id-empty",
    ],
)
def test_replay_csv_malformed_names_path_and_line(tmp_path, text, where):
    path = tmp_path / "scores.csv"
    path.write_text(text)
    with pytest.raises(MalformedCorpus) as exc:
        load_replay_csv(str(path), LayerId.NETWORK)
    assert str(exc.value).startswith(f"{path}{where}")
