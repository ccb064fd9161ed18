import hashlib
import json
import logging
import math
import os
import random
import re
import subprocess
import sys
import weakref

import numpy as np
import pytest

from idsgate import memory
from idsgate.corpus import (
    HostGenConfig,
    HypGenConfig,
    NetGenConfig,
    gen_hostlogs,
    gen_hypervisor,
    gen_network,
)
from idsgate.events import LayerId
from idsgate.memory import (
    DimMismatch,
    EmbeddingConfig,
    MalformedStore,
    MatchConfig,
    MemoryRecord,
    MemorySource,
    MemoryStore,
    embed,
    load_store,
    match_decision,
    rank_margin,
    save_store,
)
from idsgate.scoring import tokenize

ECFG = EmbeddingConfig(dims=32)


def make_record(rid, vector, attack_type="brute_force"):
    return MemoryRecord(
        id=rid,
        layer=LayerId.HOST,
        vector=np.asarray(vector, dtype=np.float64),
        attack_type=attack_type,
        source=MemorySource.LLM_PROMOTED,
        created_at="2000-01-01T00:00:00Z",
    )


def test_embed_is_unit_norm():
    v = embed("proto=tcp port=443 flags=syn", ECFG)
    assert np.linalg.norm(v) == pytest.approx(1.0)


def test_embed_empty_text_is_zero_vector():
    assert not embed("", ECFG).any()
    assert not embed("   \t ", ECFG).any()


def test_embed_counts_repeated_tokens():
    single = embed("alpha beta", ECFG)
    double = embed("alpha alpha beta", ECFG)
    # Same buckets, different weighting: still unit norm but not equal.
    assert np.linalg.norm(double) == pytest.approx(1.0)
    assert not np.allclose(single, double)


def test_embed_is_stable_across_calls():
    a = embed("exec /bin/sh user=www-data", ECFG)
    b = embed("exec /bin/sh user=www-data", ECFG)
    assert np.array_equal(a, b)


def _sha256_embed(text, dims):
    # Oracle: the hashing-trick rule written out, one SHA-256 per token.
    vec = np.zeros(dims)
    for token in tokenize(text):
        digest = hashlib.sha256(token.encode("utf-8")).digest()
        vec[int.from_bytes(digest[:8], "big") % dims] += 1.0
    norm = np.linalg.norm(vec)
    return vec / norm if norm > 0.0 else vec


def test_embed_matches_sha256_formula():
    raws = [e.raw for e in gen_network(NetGenConfig(count=150, seed=3))]
    raws += [e.raw for e in gen_hostlogs(HostGenConfig(count=150, seed=3))]
    raws += [
        e.raw
        for e in gen_hypervisor(
            HypGenConfig(class_counts={"normal": 100, "vm_escape": 50}, seed=3)
        )
    ]
    raws += ["", "  -- ;; ", "alpha alpha alpha beta", "Alpha ALPHA alpha"]
    # Interleaved dims: a bucket remembered for one dims must not be
    # reused for the other.
    for text in raws:
        for dims in (256, 97):
            got = embed(text, EmbeddingConfig(dims=dims))
            assert got.dtype == np.float64 and got.shape == (dims,)
            assert np.array_equal(got, _sha256_embed(text, dims)), (text, dims)


def test_bucket_memos_stay_within_their_size(monkeypatch):
    monkeypatch.setattr(memory, "_BUCKET_MEMO_SIZE", 64)
    monkeypatch.setattr(memory, "_bucket_memos", {})
    texts = [" ".join(f"t{i}x{j}" for j in range(30)) for i in range(6)]
    texts += [" ".join(f"wide{j}" for j in range(100)), "t0x1 t0x1 wide3"]
    for text in texts:
        for dims in (256, 97):
            got = embed(text, EmbeddingConfig(dims=dims))
            assert np.array_equal(got, _sha256_embed(text, dims)), (text, dims)
            assert sum(map(len, memory._bucket_memos.values())) <= 64


def test_embedding_config_rejects_tiny_dims():
    with pytest.raises(ValueError):
        EmbeddingConfig(dims=8)


def fixed_order_distances(rows, q):
    """Reference: the cosine distance of ``q`` to every row of ``rows`` in
    the store's fixed order (row-wise norms, an einsum for the products);
    a zero query or zero row has similarity 0."""
    norms = np.linalg.norm(rows, axis=1)
    qnorm = np.linalg.norm(q[None, :], axis=1)[0]
    if qnorm == 0.0:
        return np.ones(len(rows))
    sims = np.divide(
        np.einsum("ij,j->i", rows, q), norms * qnorm, out=np.zeros(len(rows)), where=norms > 0.0
    )
    return np.clip(1.0 - sims, 0.0, 2.0)


def full_sort(vectors, q, k):
    """Reference scan: every (distance, id) pair, fully sorted."""
    ids = list(vectors)
    dists = fixed_order_distances(np.array([vectors[rid] for rid in ids]), q)
    return sorted(zip(dists.tolist(), ids))[:k]


def scan(store, q, k):
    [found] = store.query(q[None, :], k)
    return [(d, rid) for rid, d in found]


def decide(store, vector, mcfg):
    [neighbors] = store.query(vector[None, :], mcfg.k)
    return match_decision(neighbors, mcfg)


def test_store_insert_and_len():
    store = MemoryStore(dims=4)
    store.insert(make_record("a", [1, 0, 0, 0]))
    store.insert(make_record("b", [0, 1, 0, 0]))
    assert len(store) == 2


def test_store_rejects_wrong_dims():
    store = MemoryStore(dims=4)
    with pytest.raises(DimMismatch):
        store.insert(make_record("a", [1, 0, 0]))
    for bad in (np.zeros((1, 3)), np.zeros((2, 5)), np.zeros(4)):  # a bare vector too
        with pytest.raises(DimMismatch):
            store.query(bad, k=1)


def test_duplicate_id_overwrites_with_warning(caplog):
    store = MemoryStore(dims=4)
    store.insert(make_record("a", [1, 0, 0, 0], attack_type="brute_force"))
    with caplog.at_level(logging.WARNING, logger="idsgate.memory"):
        store.insert(make_record("a", [0, 1, 0, 0], attack_type="webshell"))
    assert "overwritten" in caplog.text
    assert len(store) == 1
    assert store.records[0].attack_type == "webshell"


def test_query_empty_store():
    assert MemoryStore(dims=4).query(np.ones((2, 4)), k=3) == [[], []]
    assert MemoryStore(dims=4).query(np.ones((0, 4)), k=3) == []


def test_query_zero_query_vector_distances_are_one():
    store = MemoryStore(dims=4)
    store.insert(make_record("a", [1, 0, 0, 0]))
    store.insert(make_record("b", [0, 1, 0, 0]))
    [hits] = store.query(np.zeros((1, 4)), k=2)
    assert [d for _, d in hits] == [1.0, 1.0]
    # Distance tie breaks on record id.
    assert [rid for rid, _ in hits] == ["a", "b"]


def test_query_matches_brute_force_scan():
    dims = 32
    rng = random.Random(5)
    store = MemoryStore(dims=dims)
    vectors = {}
    for i in range(60):
        vec = np.array([rng.gauss(0, 1) for _ in range(dims)])
        if i % 9 == 0:
            vec = np.zeros(dims)  # a few degenerate rows
        rid = f"rec-{i:03d}"
        vectors[rid] = vec
        store.insert(make_record(rid, vec))
    queries = np.array([[rng.gauss(0, 1) for _ in range(dims)] for _ in range(20)])
    for q, got in zip(queries, store.query(queries, k=5)):
        expected = full_sort(vectors, q, 5)
        assert [rid for rid, _ in got] == [rid for _, rid in expected]
        for (_, d), (ed, _) in zip(got, expected):
            assert d == pytest.approx(ed, abs=1e-12)


def test_query_cache_invalidates_on_insert():
    store = MemoryStore(dims=4)
    store.insert(make_record("a", [1, 0, 0, 0]))
    store.query(np.array([[1.0, 0, 0, 0]]), k=1)
    store.insert(make_record("b", [1, 0, 0, 0]))
    [hits] = store.query(np.array([[1.0, 0, 0, 0]]), k=2)
    assert {rid for rid, _ in hits} == {"a", "b"}


def int_vector(rng, dims):
    # Small integer entries keep every dot product and squared norm exact,
    # so the store and the reference agree to the last bit.
    return np.array([float(rng.randint(-2, 2)) for _ in range(dims)])


def test_query_keeps_every_tie_at_the_kth_distance():
    rng = random.Random(11)
    patterns = [int_vector(rng, 8) for _ in range(3)] + [np.zeros(8)]
    ids = [f"dup-{i:02d}" for i in range(48)]
    rng.shuffle(ids)  # duplicates arrive out of id order
    store = MemoryStore(dims=8)
    vectors = {}
    for i, rid in enumerate(ids):
        # a doubled duplicate sits at exactly the same distance
        vectors[rid] = patterns[i % 4] * (1 + i % 2)
        store.insert(make_record(rid, vectors[rid]))
    for q in [*patterns, int_vector(rng, 8), int_vector(rng, 8)]:
        for k in (1, 5, 12, 13, 30, 48, 60):
            assert scan(store, q, k) == full_sort(vectors, q, k)


def test_query_tracks_interleaved_inserts_across_growth():
    rng = random.Random(12)
    store = MemoryStore(dims=8)
    vectors = {}
    for i in range(300):  # past ten growths of the row block
        rid = f"r{rng.randrange(10**6):06d}-{i}"
        vectors[rid] = np.zeros(8) if i % 17 == 0 else int_vector(rng, 8)
        store.insert(make_record(rid, vectors[rid]))
        if i % 3 == 0:
            q = int_vector(rng, 8)
            assert scan(store, q, 5) == full_sort(vectors, q, 5)
    assert len(store) == 300


def test_store_keeps_its_vectors_only_in_the_row_block():
    # The store keeps no reference to an inserted vector; its records read
    # their vectors, read-only, from the block, across growth and overwrites.
    store = MemoryStore(dims=4)
    vectors = {f"r{i}": np.array([i, 1.0, 0, -i]) for i in range(40)}  # past two growths
    refs = []
    for rid, v in vectors.items():
        given = v.copy()
        refs.append(weakref.ref(given))
        store.insert(make_record(rid, given))
        del given
    vectors["r3"] = np.array([0, 0, 2.0, 0])
    store.insert(make_record("r3", vectors["r3"].copy()))
    assert all(ref() is None for ref in refs)
    assert [r.id for r in store.records] == list(vectors)
    for r in store.records:
        assert np.array_equal(r.vector, vectors[r.id])
        assert not r.vector.flags.writeable


def test_query_sees_an_overwrite_at_once():
    store = MemoryStore(dims=4)
    vectors = {"a": np.array([1.0, 0, 0, 0]), "b": np.array([0, 1.0, 0, 0])}
    for rid, v in vectors.items():
        store.insert(make_record(rid, v))
    q = np.array([1.0, 0, 0, 0])
    assert scan(store, q, 1) == [(0.0, "a")]
    for new in (np.array([-3.0, 4.0, 0, 0]), np.zeros(4)):  # new norm, then none
        vectors["a"] = new
        store.insert(make_record("a", new))
        assert scan(store, q, 2) == full_sort(vectors, q, 2)
    assert scan(store, q, 2) == [(1.0, "a"), (1.0, "b")]


def test_zero_query_returns_smallest_ids_at_distance_one():
    rng = random.Random(13)
    ids = [f"z{i:02d}" for i in range(20)]
    rng.shuffle(ids)
    store = MemoryStore(dims=4)
    for rid in ids:
        store.insert(make_record(rid, int_vector(rng, 4)))
    assert scan(store, np.zeros(4), 3) == [(1.0, "z00"), (1.0, "z01"), (1.0, "z02")]


def near_tie_store(rng, dims, n):
    """Random rows at three scales, with planted exact duplicates (ties
    broken by id), zero rows, and rows a few ulps apart along one
    direction (near-ties that the BLAS ranking and the fixed order may
    order differently).  Ids are a shuffle of the insertion order."""
    rows = rng.normal(size=(n, dims)) * rng.choice([1e-3, 1.0, 1e3], size=(n, 1))
    base = rng.normal(size=dims)
    rows[10:40] = base * (1.0 + rng.normal(size=(30, dims)) * 1e-15)
    rows[40:46] = rows[3]  # exact duplicates
    rows[46:49] = base
    rows[::17] = 0.0
    ids = [f"r{i:03d}" for i in rng.permutation(n)]
    store = MemoryStore(dims=dims)
    for i, (rid, row) in enumerate(zip(ids, rows)):
        store.insert(make_record(rid, row))
        if i % 50 == 0:
            store.query(rows[:1], 1)  # norms brought up to date in pieces
    queries = np.vstack(
        [
            base,
            base * (1.0 + rng.normal(size=(4, dims)) * 1e-15),
            rows[3],
            np.zeros((2, dims)),
            rng.normal(size=(5, dims)),
            -base,
        ]
    )
    return store, dict(zip(ids, rows)), queries


@pytest.mark.parametrize("dims", [16, 4096])
def test_query_matches_a_fixed_order_reference_bit_for_bit(dims):
    rng = np.random.default_rng(dims)
    n = 120
    store, vectors, queries = near_tie_store(rng, dims, n)
    stored = {r.id: r.vector for r in store.records}
    for k in (1, 3, 5, 12, n + 7):
        found = store.query(queries, k)
        assert len(found) == len(queries)
        for q, hits in zip(queries, found):
            want = full_sort(vectors, q, k)
            assert [(d.hex(), rid) for rid, d in hits] == [(d.hex(), rid) for d, rid in want]
            assert all(np.array_equal(stored[rid], vectors[rid]) for rid, _ in hits)
    # zero queries: every record at 1.0, the smallest ids first
    for hits in store.query(np.zeros((3, dims)), 4):
        assert [(d, rid) for rid, d in hits] == [(1.0, f"r{i:03d}") for i in range(4)]
    # k past the store returns every record
    assert [len(hits) for hits in store.query(queries[:2], n + 7)] == [n, n]


def test_rank_margin_covers_two_dot_products_of_its_length():
    u = np.finfo(np.float64).eps / 2
    for dims in (4, 16, 256, 4096, 1 << 20):
        gamma = dims * u / (1 - dims * u)  # error bound of a length-dims dot product
        assert rank_margin(dims) > 2 * gamma
        assert rank_margin(dims) < 8 * gamma + 32 * u  # and still a rounding margin
    assert rank_margin(4096) > rank_margin(256) > rank_margin(16)


_QUERY_CHILD = """
import sys
import numpy as np
sys.path.insert(0, sys.argv[1])
from test_memory import near_tie_store

out = []
for dims in (256, 1024):
    store, _, queries = near_tie_store(np.random.default_rng(dims), dims, 600)
    for hits in store.query(queries, 5):
        out.append(" ".join(f"{rid}:{d.hex()}" for rid, d in hits))
sys.stdout.write("\\n".join(out))
"""


def test_query_does_not_depend_on_the_blas_kernel_or_thread_count():
    # The same ids and distance bits on one BLAS thread, on two, and on
    # two forced OpenBLAS kernels; only the child processes see the
    # settings.
    tests = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(tests), "src")
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
            [sys.executable, "-c", _QUERY_CHILD, tests],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout.splitlines())
    assert len(outputs[0]) == 2 * 14
    assert all(len(line.split(" ")) == 5 for line in outputs[0])
    assert outputs[1:] == [outputs[0]] * 3


def test_query_rejects_k_below_one():
    store = MemoryStore(dims=4)
    store.insert(make_record("a", [1, 0, 0, 0]))
    for k in (0, -1):
        with pytest.raises(ValueError):
            store.query(np.ones((1, 4)), k)


def test_match_config_rejects_out_of_range_values():
    for bad in (
        {"k": 0},
        {"exact_radius": -0.1},
        {"near_radius": 2.1},
        {"support_radius": 3.0},
        {"min_support": -1},
        {"min_meta": 1.5},
    ):
        with pytest.raises(ValueError):
            MatchConfig(**bad)
    MatchConfig(k=1, exact_radius=0.0, near_radius=2.0, min_support=0, min_meta=1.0)


def test_match_decision_exact_duplicate():
    store = MemoryStore(dims=ECFG.dims)
    raw = "exec /bin/sh user=www-data path=/tmp/x"
    store.insert(make_record("seed", embed(raw, ECFG)))
    result = decide(store, embed(raw, ECFG), MatchConfig())
    assert result.matched is True
    assert result.nearest_distance == pytest.approx(0.0)
    assert result.record_id == "seed"


QUERY_TEXT = "exec /bin/sh user=www-data path=/tmp/payload"


def seeded_store(distances):
    """Store whose records sit at exact cosine distances from the
    embedding of QUERY_TEXT, so match_decision sees controlled inputs."""
    q = embed(QUERY_TEXT, ECFG)
    free = [j for j in range(ECFG.dims) if q[j] == 0.0]
    assert len(free) >= len(distances)
    store = MemoryStore(dims=ECFG.dims)
    for i, d in enumerate(distances):
        v = (1.0 - d) * q
        v[free[i]] = math.sqrt(1.0 - (1.0 - d) ** 2)
        store.insert(make_record(f"n{i}", v))
    return store


def test_match_decision_near_with_support():
    # Nearest at 0.10 (inside near radius), four more at 0.12, all within
    # the support radius: support 5/5, meta = 1 * mean(1-d) = 0.884.
    store = seeded_store([0.10, 0.12, 0.12, 0.12, 0.12])
    result = decide(store, embed(QUERY_TEXT, ECFG), MatchConfig())
    assert result.matched is True
    assert result.support == 5
    assert result.nearest_distance == pytest.approx(0.10, abs=1e-12)
    assert result.meta_confidence == pytest.approx((0.90 + 4 * 0.88) / 5, abs=1e-12)
    assert result.record_id == "n0"


def test_match_decision_weak_support_rejected():
    # Nearest inside the near radius but only two supporting neighbors:
    # below min_support, so no match.
    store = seeded_store([0.10, 0.28, 0.9, 0.9, 0.9])
    result = decide(store, embed(QUERY_TEXT, ECFG), MatchConfig())
    assert result.matched is False
    assert result.support == 2


def test_match_decision_low_meta_rejected():
    # Three supporters but all near the support-radius edge: meta
    # (3/5) * mean(1-d) about 0.46 misses the 0.70 floor.
    store = seeded_store([0.14, 0.28, 0.29])
    result = decide(store, embed(QUERY_TEXT, ECFG), MatchConfig())
    assert result.support == 3
    assert result.meta_confidence == pytest.approx((3 / 5) * (0.86 + 0.72 + 0.71) / 3, abs=1e-12)
    assert result.matched is False


def test_match_decision_empty_store():
    result = decide(MemoryStore(dims=ECFG.dims), embed("anything", ECFG), MatchConfig())
    assert result.matched is False
    assert result.nearest_distance == math.inf
    assert result.record_id is None


def test_persistence_roundtrip(tmp_path):
    path = os.path.join(tmp_path, "mem.jsonl")
    store = load_store(path, dims=4)
    assert len(store) == 0  # missing file is an empty store
    store.insert(make_record("a", [1, 0, 0, 0]))
    store.insert(make_record("b", [0, 1, 0, 0], attack_type="webshell"))
    reloaded = load_store(path, dims=4)
    assert len(reloaded) == 2
    by_id = {rec.id: rec for rec in reloaded.records}
    assert by_id["b"].attack_type == "webshell"
    assert by_id["a"].layer is LayerId.HOST
    assert by_id["a"].source is MemorySource.LLM_PROMOTED
    assert np.array_equal(by_id["a"].vector, np.array([1.0, 0, 0, 0]))


def test_persistence_last_line_wins(tmp_path):
    path = os.path.join(tmp_path, "mem.jsonl")
    store = load_store(path, dims=4)
    store.insert(make_record("a", [1, 0, 0, 0], attack_type="brute_force"))
    store.insert(make_record("a", [0, 1, 0, 0], attack_type="webshell"))
    with open(path, encoding="utf-8") as fh:
        assert len(fh.readlines()) == 2  # append-only log keeps both
    reloaded = load_store(path, dims=4)
    assert len(reloaded) == 1
    assert reloaded.records[0].attack_type == "webshell"


def test_save_store_compacts(tmp_path):
    path = os.path.join(tmp_path, "mem.jsonl")
    store = load_store(path, dims=4)
    store.insert(make_record("a", [1, 0, 0, 0]))
    store.insert(make_record("a", [0, 1, 0, 0]))
    save_store(store, path)
    with open(path, encoding="utf-8") as fh:
        assert len(fh.readlines()) == 1


GOOD_LINE = {
    "id": "a",
    "layer": "host",
    "vector": [1.0, 0, 0, 0],
    "attack_type": "brute_force",
    "source": "llm_promoted",
    "created_at": "2000-01-01T00:00:00Z",
}


@pytest.mark.parametrize(
    "line, message",
    [
        ('{"id": "b", ', "not JSON"),
        ("[1, 2]", "not a JSON object"),
        (json.dumps({"id": "x"}), "missing layer, vector, attack_type, source, created_at"),
        (json.dumps({**GOOD_LINE, "id": 5}), "id must be a string"),
        (json.dumps({**GOOD_LINE, "layer": "cloud"}), "'cloud' is not a valid LayerId"),
        (json.dumps({**GOOD_LINE, "source": "guess"}), "'guess' is not a valid MemorySource"),
        (json.dumps({**GOOD_LINE, "vector": [1.0, "a", 0, 0]}), "not a list of finite numbers"),
        (json.dumps({**GOOD_LINE, "vector": [1.0, math.nan, 0, 0]}), "not a list of finite"),
        (json.dumps({**GOOD_LINE, "vector": [1.0, -math.inf, 0, 0]}), "not a list of finite"),
        (json.dumps({**GOOD_LINE, "vector": [1.0, True, 0, 0]}), "not a list of finite"),
        (json.dumps({**GOOD_LINE, "vector": [1.0, 10**400, 0, 0]}), "not a list of finite"),
        (json.dumps({**GOOD_LINE, "vector": [[1.0, 0], [0, 0]]}), "not a list of finite"),
        (json.dumps({**GOOD_LINE, "vector": 1.0}), "not a list of finite"),
    ],
    ids=[
        "not-json", "not-object", "missing-fields", "id-not-string", "unknown-layer",
        "unknown-source", "string-in-vector", "nan", "infinity", "bool", "int-overflow",
        "nested", "vector-not-list",
    ],
)
def test_load_store_names_file_and_line_of_a_bad_record(tmp_path, line, message):
    path = os.path.join(tmp_path, "mem.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(GOOD_LINE) + "\n\n" + line + "\n")
    with pytest.raises(MalformedStore, match=f"^{re.escape(path)}:3: .*{re.escape(message)}"):
        load_store(path, dims=4)


def test_load_store_rejects_dim_mismatch(tmp_path):
    path = os.path.join(tmp_path, "mem.jsonl")
    store = load_store(path, dims=4)
    store.insert(make_record("a", [1, 0, 0, 0]))
    with pytest.raises(DimMismatch):
        load_store(path, dims=8)


def _store_state(store):
    store.query(np.ones((1, store.dims)), 1)  # brings the norms up to date
    n = len(store)
    return (
        [(r.id, r.layer, r.attack_type, r.source, r.created_at) for r in store.records],
        dict(store._index),
        store._rows[:n].copy(),
        store._norms[:n].copy(),
    )


def _assert_same_store(got, want):
    g, w = _store_state(got), _store_state(want)
    assert g[0] == w[0]
    assert g[1] == w[1]
    assert np.array_equal(g[2], w[2])
    assert np.array_equal(g[3], w[3])
    for a, b in zip(got.records, want.records):
        assert np.array_equal(a.vector, b.vector)


def test_query_norms_equal_the_row_by_row_norms():
    # Inserts leave the norms to the next query, which computes every
    # row from the first stale one on in one block; an overwrite makes
    # its row stale again.
    rng = np.random.default_rng(11)
    store = MemoryStore(dims=8)
    for _ in range(4):
        for _ in range(60):
            rid = f"r{rng.integers(150)}"
            store.insert(make_record(rid, rng.normal(size=8) * rng.choice([1e-3, 1.0, 1e3])))
        store.query(rng.normal(size=(1, 8)), 3)
        n = len(store)
        want = [np.linalg.norm(r.vector[None, :], axis=1)[0] for r in store.records]
        assert store._norms[:n].tobytes() == np.array(want).tobytes()
    assert n < 240  # some inserts overwrote


def test_load_store_matches_insert_by_insert(tmp_path, caplog):
    rng = np.random.default_rng(5)
    ids = [f"r{i}" for i in range(300)] + ["r7", "r150", "r7"]  # three overwrites
    records = [
        make_record(rid, rng.normal(size=8) * rng.choice([1e-3, 1.0, 1e3]))
        for rid in ids
    ]
    records[40] = make_record("r40", np.zeros(8))
    path = os.path.join(tmp_path, "mem.jsonl")
    # The reference: the same records inserted one by one into a store
    # that appends each to the file, with blank lines in between.
    want = MemoryStore(dims=8, path=path)
    for i, record in enumerate(records):
        if i % 50 == 0:
            with open(path, "a", encoding="utf-8") as fh:
                fh.write("\n  \n")
        want.insert(record)
    want.path = None

    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="idsgate.memory"):
        got = load_store(path, dims=8)
    assert [r.getMessage() for r in caplog.records] == [
        "memory record r7 overwritten",
        "memory record r150 overwritten",
        "memory record r7 overwritten",
    ]
    assert len(got) == 300
    _assert_same_store(got, want)

    # The loaded block keeps growing and answering as the inserted one does.
    for record in [make_record(f"n{i}", rng.normal(size=8)) for i in range(40)]:
        got.insert(record)
        want.insert(record)
    _assert_same_store(got, want)
    q = rng.normal(size=(3, 8))
    assert got.query(q, 5) == want.query(q, 5)

    # a record with the wrong dims after good ones fails the whole load
    MemoryStore(dims=8, path=path).insert(make_record("r9", np.ones(8)))
    MemoryStore(dims=3, path=path).insert(make_record("bad", np.ones(3)))
    with open(path, encoding="utf-8") as fh:
        bad_line = len(fh.readlines())
    message = f"{path}:{bad_line}: stored record bad has 3 dims, expected 8"
    with pytest.raises(DimMismatch, match=f"^{re.escape(message)}$"):
        load_store(path, dims=8)


@pytest.mark.parametrize("n", [40, 200, 2000])
def test_insert_into_a_loaded_store_grows_its_block_by_a_quarter(tmp_path, n):
    # A loaded store's block holds exactly its records; the insert that
    # outgrows it adds a quarter of the rows, and at least 16, not n more.
    rng = random.Random(n)
    path = os.path.join(tmp_path, "mem.jsonl")
    writer = MemoryStore(dims=8, path=path)
    vectors = {}
    for i in range(n):
        vectors[f"r{i:04d}"] = int_vector(rng, 8)
        writer.insert(make_record(f"r{i:04d}", vectors[f"r{i:04d}"]))
    store = load_store(path, dims=8)
    assert len(store._rows) == n
    vectors["new"] = int_vector(rng, 8)
    store.insert(make_record("new", vectors["new"]))
    assert n + 1 <= len(store._rows) <= n + max(16, n // 4)
    for q in [int_vector(rng, 8) for _ in range(5)] + [vectors["new"]]:
        assert scan(store, q, 5) == full_sort(vectors, q, 5)
