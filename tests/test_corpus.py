import collections
import csv
import math
import os
import re
import tracemalloc

import numpy as np
import pytest

from idsgate import corpus
from idsgate.corpus import (
    DEFAULT_HYP_COUNTS,
    HYP_COLUMNS,
    HYP_NUMERIC_FIELDS,
    HYP_TYPES,
    HostGenConfig,
    HypGenConfig,
    InvalidSplitRatio,
    MalformedCorpus,
    NetGenConfig,
    gen_hostlogs,
    gen_hypervisor,
    gen_network,
    load_host_jsonl,
    load_hypervisor_csv,
    load_network_csv,
    parse_kv_record,
    split_train_test,
    write_host_jsonl,
    write_hypervisor_csv,
    write_network_csv,
)
from idsgate.events import PLACEHOLDER_FEATURES, Event, LayerId, make_event_id


def test_parse_kv_record():
    rec = parse_kv_record("sshd pid=1003 auth_fail user=root attempts=9")
    assert rec == {"pid": "1003", "user": "root", "attempts": "9"}


def test_hypervisor_default_class_counts():
    events = gen_hypervisor(HypGenConfig())
    assert len(events) == 25000
    counts = collections.Counter(e.truth_class for e in events)
    assert counts == {
        "normal": 12500,
        "vm_lateral_movement": 2541,
        "vm_escape": 2501,
        "snapshot_abuse": 2500,
        "hypervisor_dos": 2488,
        "hyper_jacking": 2470,
    }
    assert sum(1 for e in events if e.truth == 1) == 12500
    assert all(e.truth == (0 if e.truth_class == "normal" else 1) for e in events)


def test_hypervisor_dataset_has_24_columns(tmp_path):
    assert len(HYP_COLUMNS) == 24
    events = gen_hypervisor(HypGenConfig(class_counts={"normal": 20, "vm_escape": 10}))
    path = os.path.join(tmp_path, "hyp.csv")
    write_hypervisor_csv(events, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(HYP_COLUMNS)
    assert all(len(r) == 24 for r in rows)
    assert len(rows) == 31


def test_hypervisor_fraction_fields_bounded():
    events = gen_hypervisor(HypGenConfig(class_counts={"normal": 300, "hypervisor_dos": 300}))
    for e in events:
        fields = dict(p.split("=", 1) for p in e.raw.split(" "))
        assert 0.0 <= float(fields["cpu_util"]) <= 1.0
        assert 0.0 <= float(fields["mem_util"]) <= 1.0
        assert float(fields["disk_io_mbps"]) >= 0.0


def test_hypervisor_generation_is_deterministic():
    cfg = HypGenConfig(class_counts={"normal": 120, "vm_escape": 80}, seed=4)
    a = gen_hypervisor(cfg)
    b = gen_hypervisor(cfg)
    assert [e.raw for e in a] == [e.raw for e in b]
    assert [e.id for e in a] == [e.id for e in b]
    c = gen_hypervisor(HypGenConfig(class_counts={"normal": 120, "vm_escape": 80}, seed=5))
    assert [e.raw for e in a] != [e.raw for e in c]


def test_hypervisor_events_have_onehot_features():
    events = gen_hypervisor(HypGenConfig(class_counts={"normal": 20}))
    for e in events:
        assert e.truth == 0
        # 4 hypervisor types one-hot + 22 numeric fields
        assert len(e.features) == 26
        assert e.features[:4].sum() == 1.0


def test_hypervisor_csv_roundtrip(tmp_path):
    events = gen_hypervisor(HypGenConfig(class_counts={"normal": 30, "hyper_jacking": 20}, seed=9))
    path = os.path.join(tmp_path, "hyp.csv")
    write_hypervisor_csv(events, path)
    loaded = load_hypervisor_csv(path)
    assert len(loaded) == 50
    for orig, back in zip(events, loaded):
        assert back.id == orig.id
        assert back.raw == orig.raw
        assert back.truth == orig.truth
        assert back.truth_class == orig.truth_class
        assert np.array_equal(back.features, orig.features)


def test_hypervisor_features_match_raw(tmp_path):
    events = gen_hypervisor(
        HypGenConfig(class_counts={"normal": 150, "vm_escape": 75, "hyper_jacking": 75}, seed=3)
    )
    path = os.path.join(tmp_path, "hyp.csv")
    write_hypervisor_csv(events, path)
    loaded = load_hypervisor_csv(path)
    # Oracle: read the features back out of the key=value record, one-hot
    # of hv over the types (spaces as underscores), then each numeric field.
    for e in [*events, *loaded]:
        fields = parse_kv_record(e.raw)
        expected = [1.0 if fields["hv"] == t.replace(" ", "_") else 0.0 for t in HYP_TYPES]
        expected += [float(fields[name]) for name in HYP_NUMERIC_FIELDS]
        assert np.array_equal(e.features, np.array(expected))
    assert {e.features[:4].argmax() for e in events} == {0, 1, 2, 3}


def _write_hyp_rows(path, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(HYP_COLUMNS)
        writer.writerows(rows)


def test_hypervisor_loader_cell_rules(tmp_path):
    cells = ["2.5"] * len(HYP_NUMERIC_FIELDS)
    cells[:6] = ["nan", "inf", "bogus", "", " 1.5", "-inf"]
    path = os.path.join(tmp_path, "hyp.csv")
    _write_hyp_rows(
        path,
        [
            ["normal", "ESX"] + cells,
            ["vm_escape", "VMware ESXi"] + cells,
            ["vm_escape", "VMware_ESXi"] + cells,
        ],
    )
    esx, spaced, joined = load_hypervisor_csv(path)
    assert esx.features[:4].tolist() == [0.0, 0.0, 0.0, 0.0]
    assert spaced.features[:4].tolist() == [1.0, 0.0, 0.0, 0.0]
    assert joined.raw == spaced.raw
    numeric = [0.0, 0.0, 0.0, 0.0, 1.5, 0.0] + [2.5] * (len(HYP_NUMERIC_FIELDS) - 6)
    for e in (esx, spaced, joined):
        assert e.features[4:].tolist() == numeric


def test_hypervisor_loader_reads_class_case_and_space_blind(tmp_path):
    cells = ["1"] * len(HYP_NUMERIC_FIELDS)
    classes = ["normal", "Normal", " normal ", "NORMAL", "benign", "vm_escape", "normal_ish"]
    path = os.path.join(tmp_path, "hyp.csv")
    _write_hyp_rows(path, [[cls, "KVM"] + cells for cls in classes])
    assert [e.truth for e in load_hypervisor_csv(path)] == [0, 0, 0, 0, 1, 1, 1]
    _write_hyp_rows(path, [["normal", "KVM"] + cells, [" ", "KVM"] + cells])
    with pytest.raises(MalformedCorpus, match=f"^{re.escape(path)}:3: empty event_class"):
        load_hypervisor_csv(path)


@pytest.mark.parametrize("n_cells", [23, 25])
def test_hypervisor_loader_rejects_ragged_rows(tmp_path, n_cells):
    row = ["normal", "KVM"] + ["1"] * len(HYP_NUMERIC_FIELDS)
    path = os.path.join(tmp_path, "hyp.csv")
    _write_hyp_rows(path, [row, (row + ["1"])[:n_cells]])
    with pytest.raises(MalformedCorpus, match=f"^{re.escape(path)}:3: "):
        load_hypervisor_csv(path)


# The generators as first written, one cell at a time: each draw becomes
# its printed cell and each feature the parsed cell.  ``drawn`` collects
# every value that was printed with four decimals.


def _reference_hyp_row(rng, cls, drawn):
    gauss = dict(corpus._HYP_GAUSS)
    gauss.update(corpus._HYP_CLASS_GAUSS.get(cls, {}))
    poisson = dict(corpus._HYP_POISSON)
    poisson.update(corpus._HYP_CLASS_POISSON.get(cls, {}))
    row = {"event_class": cls, "hv": HYP_TYPES[int(rng.integers(len(HYP_TYPES)))]}
    for name in HYP_NUMERIC_FIELDS:
        if name in poisson:
            row[name] = str(int(rng.poisson(poisson[name])))
        else:
            mean, sd = gauss[name]
            value = float(rng.normal(mean, sd))
            if name in corpus._FRACTION_FIELDS:
                value = min(max(value, 0.0), 1.0)
            else:
                value = max(value, 0.0)
            drawn.append(value)
            row[name] = f"{value:.4f}"
    return row


def _reference_gen_hypervisor(cfg, drawn):
    rng = np.random.default_rng(cfg.seed)
    rows = []
    for cls in sorted(cfg.class_counts):
        for _ in range(cfg.class_counts[cls]):
            rows.append(_reference_hyp_row(rng, cls, drawn))
    order = rng.permutation(len(rows))
    events = []
    for ordinal, i in enumerate(order):
        row = rows[i]
        hv = row["hv"].replace(" ", "_")
        features = [1.0 if hv == t.replace(" ", "_") else 0.0 for t in HYP_TYPES]
        features += [float(row[name]) for name in HYP_NUMERIC_FIELDS]
        events.append(
            Event(
                id=make_event_id(LayerId.HYPERVISOR, ordinal),
                layer=LayerId.HYPERVISOR,
                raw=" ".join(f"{k}={row[k].replace(' ', '_')}" for k in HYP_COLUMNS[1:]),
                features=np.array(features),
                truth=0 if row["event_class"] == "normal" else 1,
                truth_class=row["event_class"],
            )
        )
    return events


def _reference_gen_network(cfg, drawn):
    rng = np.random.default_rng(cfg.seed)
    direction = rng.normal(size=cfg.n_features)
    direction /= np.linalg.norm(direction)
    n_attack = int(round(cfg.count * cfg.attack_fraction))
    labels = np.zeros(cfg.count, dtype=int)
    labels[:n_attack] = 1
    rng.shuffle(labels)
    events = []
    for i in range(cfg.count):
        truth = int(labels[i])
        x = rng.normal(size=cfg.n_features)
        if truth == 1:
            x = x + cfg.separation * direction
        drawn.extend(x.tolist())
        cells = [f"{v:.4f}" for v in x]
        events.append(
            Event(
                id=make_event_id(LayerId.NETWORK, i),
                layer=LayerId.NETWORK,
                raw=",".join(cells),
                features=np.array([float(c) for c in cells]),
                truth=truth,
                truth_class=corpus.NET_ATTACK_TYPES[int(rng.integers(4))] if truth == 1 else None,
            )
        )
    return events


def _assert_same_events(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g.id, g.layer, g.raw, g.truth, g.truth_class) == (
            w.id, w.layer, w.raw, w.truth, w.truth_class
        )
        assert g.features.dtype == w.features.dtype
        assert g.features.shape == w.features.shape
        assert g.features.tobytes() == w.features.tobytes()


def _assert_round_is_printed_value(drawn):
    assert drawn
    for v in drawn:
        printed = float(f"{v:.4f}")
        assert round(v, 4) == printed
        assert math.copysign(1.0, round(v, 4)) == math.copysign(1.0, printed)


_SMALL_HYP_COUNTS = {cls: 40 + 7 * i for i, cls in enumerate(DEFAULT_HYP_COUNTS)}


@pytest.mark.parametrize(
    "seed, counts",
    [pytest.param(seed, _SMALL_HYP_COUNTS, id=str(seed)) for seed in (0, 1, 2)]
    # the sizes that `idsgate compare` generates
    + [pytest.param(2, DEFAULT_HYP_COUNTS, id="default-2")],
)
def test_hypervisor_matches_per_cell_reference(seed, counts):
    cfg = HypGenConfig(class_counts=counts, seed=seed)
    drawn = []
    want = _reference_gen_hypervisor(cfg, drawn)
    got = gen_hypervisor(cfg)
    assert {e.truth_class for e in got} == set(DEFAULT_HYP_COUNTS)
    _assert_same_events(got, want)
    _assert_round_is_printed_value(drawn)


@pytest.mark.parametrize(
    "count, n_features, seed",
    [(count, n_features, seed) for count, n_features in [(2100, 40), (300, 4)] for seed in range(3)]
    # the size that `idsgate compare` generates
    + [(25000, 40, 0)],
)
def test_network_matches_per_cell_reference(count, n_features, seed):
    cfg = NetGenConfig(count=count, n_features=n_features, seed=seed)
    drawn = []
    want = _reference_gen_network(cfg, drawn)
    _assert_same_events(gen_network(cfg), want)
    _assert_round_is_printed_value(drawn)


@pytest.mark.parametrize("separation", [1e12, 1e18])
def test_network_large_cells_print_as_drawn(separation):
    # Attack cells on both sides of 4.5e11, where one ulp passes 1e-4,
    # and far past it: the record printed from the rounded row is still
    # the drawn values' "%.4f" cells.
    cfg = NetGenConfig(count=300, n_features=4, separation=separation, seed=1)
    drawn = []
    want = _reference_gen_network(cfg, drawn)
    magnitudes = np.abs(drawn)
    assert (magnitudes < 4.5e11).any() and (magnitudes > 4.5e11).any()
    _assert_same_events(gen_network(cfg), want)


def test_rounded_cell_prints_as_the_drawn_value_at_every_magnitude():
    # A network record is printed from cells round4 has rounded; each
    # must print as the value it was drawn as: on both sides of 4.5e11
    # and 2**39, where one ulp reaches 1e-4, and far past them, exact
    # halves (k/32) and near-halves included.
    fractions = [0.0, 0.03125, 0.09375, 0.15625, 0.00004, 0.00005, 0.12345, 0.99995, 0.7]
    bases = [0.0, 1.0, 4.4e11, 4.5e11, 4.6e11, 2.0**39 - 1, 2.0**39, 2.0**39 + 1, 2.0**45, 1e20]
    values = [sign * (base + f) for base in bases for f in fractions for sign in (1.0, -1.0)]
    rng = np.random.default_rng(5)
    values += (rng.normal(size=4000) * 10.0 ** rng.integers(0, 20, size=4000)).tolist()
    x = np.array(values)
    corpus.round4(x)
    assert corpus._print_network(x) == ",".join(f"{v:.4f}" for v in values)


def _retained_bytes(generate):
    tracemalloc.start()
    try:
        generated = generate()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return retained, generated


@pytest.mark.parametrize(
    "generate",
    [
        lambda: gen_network(NetGenConfig(count=25000, n_features=40, seed=0)),
        lambda: gen_hypervisor(HypGenConfig(seed=0)),
    ],
    ids=["network", "hypervisor"],
)
def test_generators_keep_no_text(generate):
    # A generated corpus holds its feature block and no formatted record,
    # and builds no event: beyond the block, an event's id and its cells
    # in the id, truth and class columns take under 150 bytes, where a
    # record's text would add about 330 (network) or 490 (hypervisor) more.
    retained, generated = _retained_bytes(generate)
    assert len(generated) == 25000
    assert generated.texts is None
    assert retained - generated.features.nbytes < 150 * len(generated)
    # The rows the records are printed from cannot change under them.
    with pytest.raises(ValueError):
        generated.features[0, 0] = 1.0


@pytest.mark.parametrize(
    "generate, write, load",
    [
        (
            lambda: gen_network(NetGenConfig(count=25000, n_features=40, seed=0)),
            write_network_csv,
            load_network_csv,
        ),
        (lambda: gen_hypervisor(HypGenConfig(seed=0)), write_hypervisor_csv, load_hypervisor_csv),
    ],
    ids=["network", "hypervisor"],
)
def test_loaded_gen_files_keep_no_text(tmp_path, generate, write, load):
    # Every record of a file the generator's corpus was written to
    # reprints from its row, so the loaded corpus is the generated one,
    # printer included, and keeps no text either.
    generated = generate()
    path = os.path.join(tmp_path, "corpus.csv")
    write(generated, path)
    retained, loaded = _retained_bytes(lambda: load(path))
    assert loaded.texts is None and loaded.printer is generated.printer
    assert retained - loaded.features.nbytes < 150 * len(loaded)
    with pytest.raises(ValueError):
        loaded.features[0, 0] = 1.0
    _assert_same_corpus(loaded, generated)


def test_numpy_sized_draws_continue_the_scalar_stream():
    # gen_hypervisor draws each run of a row's fields with one sized call,
    # between the scalar `integers` calls of the row types: the stream must
    # go on from where as many scalar draws would leave it.  The rates
    # cover both of numpy's Poisson methods (below and from 10 on).
    sized, scalar = np.random.default_rng(7), np.random.default_rng(7)
    for step in range(400):
        k = 1 + step % 6
        rate = (None, 0.2, 0.5, 1.0, 4.0, 12.0, 18.0)[step % 7]
        assert int(sized.integers(4)) == int(scalar.integers(4))
        if rate is None:
            assert sized.standard_normal(k).tolist() == [scalar.standard_normal() for _ in range(k)]
        else:
            assert sized.poisson(rate, k).tolist() == [scalar.poisson(rate) for _ in range(k)]
    assert sized.bit_generator.state == scalar.bit_generator.state


def test_numpy_normal_is_mean_plus_sd_times_standard_normal():
    # gen_hypervisor applies each Gaussian field's mean and sd per column
    # to standard normal draws; rng.normal(mean, sd) must be that value
    # bit for bit, scalar and array alike.
    params = list(corpus._HYP_GAUSS.values()) + [
        pair for overrides in corpus._HYP_CLASS_GAUSS.values() for pair in overrides.values()
    ]
    for i, (mean, sd) in enumerate(params):
        normal, standard = np.random.default_rng(i), np.random.default_rng(i)
        want = np.array([normal.normal(mean, sd) for _ in range(500)])
        assert [mean + sd * standard.standard_normal() for _ in range(250)] == want[:250].tolist()
        assert (mean + sd * standard.standard_normal(250)).tobytes() == want[250:].tobytes()


def test_round4_is_the_printed_cell(monkeypatch):
    fallen_back = []

    def spy(value, digits):
        fallen_back.append(value)
        return round(value, digits)

    monkeypatch.setattr(corpus, "round", spy, raising=False)
    ties = [0.03125, 0.15625, -0.03125, -0.15625, 2.71875]  # exact halves at the 4th decimal
    # Near halves: the float product is an exact half, while the value
    # itself lies above or below it, and rint alone gets many wrong.
    near_halves = [(k + 0.5) / 1e4 for k in range(0, 2000, 7)]
    negative_zeros = [-0.00004, -0.00004999, -1e-9, -0.0]  # print as -0.0000
    large = [1e9, -1e9, 1e9 + 0.123456, 2.0**60]  # past the band of the product
    rng = np.random.default_rng(3)
    ordinary = (rng.normal(size=2000) * rng.choice([1e-3, 1.0, 1e3, 1e5], size=2000)).tolist()
    values = ties + negative_zeros + large + near_halves + ordinary + [0.0, 858993.4591]
    x = np.array(values)
    corpus.round4(x)
    want = np.array([float(f"{v:.4f}") for v in values])
    assert x.tobytes() == want.tobytes()  # the sign of every zero too
    assert np.signbit(x[len(ties) : len(ties) + len(negative_zeros)]).all()
    assert set(ties + large + near_halves) <= set(fallen_back)
    assert len(fallen_back) < len(ties + large + near_halves) + 10


def test_network_counts_and_labels():
    events = gen_network(NetGenConfig(count=400, attack_fraction=0.25, seed=1))
    assert len(events) == 400
    assert sum(e.truth for e in events) == 100
    attacks = [e for e in events if e.truth == 1]
    assert all(e.truth_class in ("port_scan", "brute_force", "dos", "infiltration") for e in attacks)
    assert all(e.truth_class is None for e in events if e.truth == 0)


def test_network_features_match_raw():
    events = gen_network(NetGenConfig(count=10, seed=3))
    for e in events:
        assert e.truth in (0, 1)
        assert len(e.features) == 40
        assert np.array_equal(e.features, np.array([float(c) for c in e.raw.split(",")]))


def test_network_separation_moves_attack_mean():
    cfg = NetGenConfig(count=2000, attack_fraction=0.5, separation=3.0, seed=2)
    events = gen_network(cfg)
    attack = np.mean([e.features for e in events if e.truth == 1], axis=0)
    benign = np.mean([e.features for e in events if e.truth == 0], axis=0)
    assert np.linalg.norm(attack - benign) == pytest.approx(3.0, abs=0.2)


def test_network_is_deterministic():
    a = gen_network(NetGenConfig(count=50, seed=8))
    b = gen_network(NetGenConfig(count=50, seed=8))
    assert [e.raw for e in a] == [e.raw for e in b]


def test_network_csv_roundtrip(tmp_path):
    events = gen_network(NetGenConfig(count=30, seed=5))
    path = os.path.join(tmp_path, "net.csv")
    write_network_csv(events, path)
    loaded = load_network_csv(path)
    assert len(loaded) == 30
    for orig, back in zip(events, loaded):
        assert back.id == orig.id
        assert back.raw == orig.raw
        assert back.truth == orig.truth
        assert back.truth_class == orig.truth_class
        assert np.array_equal(back.features, orig.features)


_CSV_LAYERS = {
    LayerId.NETWORK: (
        lambda: gen_network(NetGenConfig(count=30, seed=5)),
        write_network_csv,
        load_network_csv,
    ),
    LayerId.HYPERVISOR: (
        lambda: gen_hypervisor(HypGenConfig(class_counts={"normal": 20, "vm_escape": 10}, seed=9)),
        write_hypervisor_csv,
        load_hypervisor_csv,
    ),
}


def _written(tmp_path, layer):
    """A small generated corpus of ``layer``, the path of the CSV file it
    was written to, and that layer's reader."""
    generate, write, load = _CSV_LAYERS[layer]
    generated = generate()
    path = os.path.join(tmp_path, f"{layer.value}.csv")
    write(generated, path)
    return generated, path, load


def _rewrite_cell(path, row, column, edit):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    at = rows[0].index(column)
    rows[row + 1][at] = edit(rows[row + 1][at])
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _records_as_read(path, layer):
    # The reference: each record as it is written in the file, the way a
    # reader that keeps every text reads it.
    with open(path, newline="") as fh:
        if layer is LayerId.NETWORK:
            return [",".join(row[3:]) for row in list(csv.reader(fh))[1:] if row]
        return [
            " ".join(f"{k}={row[k].replace(' ', '_')}" for k in HYP_COLUMNS[1:])
            for row in csv.DictReader(fh)
        ]


def _assert_same_corpus(got, want):
    assert (got.ids, got.truths, got.classes) == (want.ids, want.truths, want.classes)
    assert got.features.tobytes() == want.features.tobytes()
    assert [got.record(i) for i in range(len(got))] == [want.record(i) for i in range(len(want))]


def test_reprinting_cells_print_back_as_themselves():
    # A loader drops the text of a record whose cells all match these
    # patterns, so each match must be what "%.4f" ("%.0f") prints from
    # the value it reads as.  Cells of up to 17 integer digits are tried;
    # those of up to nine must match.
    rng = np.random.default_rng(11)
    cells = ["0.0000", "-0.0000", "0", "-0", "999999999.9999", "-999999999.9999", "999999999"]
    # float reads these as 1.0, 1.0 and 3.0 too, which print in ASCII digits
    unicode_digits = ["1.\u0660\u0660\u0660\u0660", "\uff11.\uff10\uff10\uff10\uff10", "\u0663"]
    for digits in range(1, 18):
        whole = rng.integers(10 ** (digits - 1), 10**digits, size=100).tolist()
        fraction = rng.integers(0, 10**4, size=100).tolist()
        for sign, w, f in zip(["", "-"] * 50, whole, fraction):
            cells += [f"{sign}{w}.{f:04d}", f"{sign}{w}"]
    fixed4, fixed0 = re.compile(corpus._FIXED4), re.compile(corpus._FIXED0)
    matched = 0
    for cell in cells + unicode_digits:
        if fixed4.fullmatch(cell):
            assert "%.4f" % float(cell) == cell
            matched += 1
        if fixed0.fullmatch(cell):
            assert "%.0f" % float(cell) == cell
            matched += 1
    assert matched == 7 + 9 * 200


@pytest.mark.parametrize("layer", _CSV_LAYERS, ids=["network", "hypervisor"])
def test_csv_loaders_skip_blank_lines(tmp_path, layer):
    # Blank lines after the header, between rows and at the end are
    # skipped, and a fault after them still names its own line.
    generated, path, load = _written(tmp_path, layer)
    with open(path, newline="") as fh:
        lines = fh.readlines()
    lines[1:1] = ["\r\n"]
    lines[5:5] = ["\r\n", "\r\n"]
    lines += ["\r\n", "\n"]
    with open(path, "w", newline="") as fh:
        fh.writelines(lines)
    loaded = load(path)
    assert loaded.texts is None
    _assert_same_corpus(loaded, generated)
    with open(path, "a", newline="") as fh:
        fh.write("x\r\n")
    with pytest.raises(MalformedCorpus, match=f"^{re.escape(path)}:{len(lines) + 1}: "):
        load(path)


@pytest.mark.parametrize("row", [0, 7, 29])
@pytest.mark.parametrize(
    "layer, column, edit",
    [
        (LayerId.NETWORK, "f05", lambda cell: "0.5"),
        (LayerId.NETWORK, "f05", lambda cell: cell + "0"),
        (LayerId.NETWORK, "f05", lambda cell: cell[:-1] + "\u0660"),
        (LayerId.HYPERVISOR, "cpu_util", lambda cell: "nan"),
        (LayerId.HYPERVISOR, "hv", lambda cell: "ESX"),
    ],
    ids=[
        "network-short-cell",
        "network-fifth-decimal",
        "network-unicode-digit",
        "hypervisor-nan",
        "hypervisor-type",
    ],
)
def test_file_with_a_record_that_does_not_reprint_keeps_every_text(
    tmp_path, layer, column, edit, row
):
    # One record that its row does not print back as makes the loader
    # keep every record of the file as written, before and after it.
    generated, path, load = _written(tmp_path, layer)
    _rewrite_cell(path, row, column, edit)
    loaded = load(path)
    want = _records_as_read(path, layer)
    assert want[row] != generated.record(row)
    assert loaded.texts == want
    assert [loaded.record(i) for i in range(len(loaded))] == want
    others = [i for i in range(len(generated)) if i != row]
    assert loaded.take(others).features.tobytes() == generated.take(others).features.tobytes()
    assert (loaded.ids, loaded.truths, loaded.classes) == (
        generated.ids, generated.truths, generated.classes
    )


@pytest.mark.parametrize("cell", ["nan", "-inf", "1e999"])
def test_network_loader_names_the_first_fault_in_file_order(tmp_path, cell):
    # A non-finite feature cell on line 3 is named before a bad id on line 5.
    _, path, load = _written(tmp_path, LayerId.NETWORK)
    _rewrite_cell(path, 1, "f05", lambda _: cell)
    _rewrite_cell(path, 3, "event_id", lambda _: "net 5")
    with pytest.raises(
        MalformedCorpus, match=f"^{re.escape(path)}:3: feature cells must be finite numbers$"
    ):
        load(path)


def test_host_counts_and_attack_types():
    events = gen_hostlogs(HostGenConfig(count=1000, attack_fraction=0.35, seed=6))
    assert len(events) == 1000
    assert sum(e.truth for e in events) == 350
    kinds = {e.truth_class for e in events if e.truth == 1}
    assert kinds == {"brute_force", "priv_escalation", "exfiltration", "webshell"}


def test_host_lines_look_like_syscall_logs():
    events = gen_hostlogs(HostGenConfig(count=200, seed=7))
    assert all("pid=" in e.raw for e in events)
    assert all(e.layer is LayerId.HOST for e in events)


def test_host_ambiguity_blends_vocabulary():
    crisp = gen_hostlogs(HostGenConfig(count=4000, ambiguity=0.0, seed=1))
    fuzzy = gen_hostlogs(HostGenConfig(count=4000, ambiguity=1.0, seed=1))

    def camouflaged(events):
        return sum(
            1 for e in events if e.truth == 1 and "latency_us=" in e.raw
        )

    assert camouflaged(crisp) == 0
    assert camouflaged(fuzzy) == sum(1 for e in fuzzy if e.truth == 1)


def test_host_jsonl_roundtrip(tmp_path):
    events = gen_hostlogs(HostGenConfig(count=40, seed=2))
    path = os.path.join(tmp_path, "host.jsonl")
    write_host_jsonl(events, path)
    loaded = load_host_jsonl(path)
    assert len(loaded) == 40
    for orig, back in zip(events, loaded):
        assert back.id == orig.id
        assert back.raw == orig.raw
        assert back.truth == orig.truth
        assert back.truth_class == orig.truth_class
    # generated and loaded host events share one read-only zero cell
    assert all(e.features is PLACEHOLDER_FEATURES for e in [*events, *loaded])
    assert PLACEHOLDER_FEATURES.tolist() == [0.0]
    assert not PLACEHOLDER_FEATURES.flags.writeable


def test_split_train_test_sizes_and_partition():
    events = gen_network(NetGenConfig(count=25000, n_features=4, seed=0))
    train, test = split_train_test(events, 0.8, seed=0)
    assert len(train) == 20000
    assert len(test) == 5000
    train_ids = {e.id for e in train}
    test_ids = {e.id for e in test}
    assert not train_ids & test_ids
    assert train_ids | test_ids == {e.id for e in events}


def test_split_train_test_is_seeded():
    events = gen_network(NetGenConfig(count=100, n_features=4, seed=0))
    a_train, _ = split_train_test(events, 0.8, seed=1)
    b_train, _ = split_train_test(events, 0.8, seed=1)
    c_train, _ = split_train_test(events, 0.8, seed=2)
    assert [e.id for e in a_train] == [e.id for e in b_train]
    assert [e.id for e in a_train] != [e.id for e in c_train]


def test_split_train_test_rejects_degenerate_ratio():
    events = gen_network(NetGenConfig(count=10, n_features=4, seed=0))
    with pytest.raises(InvalidSplitRatio):
        split_train_test(events, 0.0, seed=0)
    with pytest.raises(InvalidSplitRatio):
        split_train_test(events, 1.0, seed=0)
