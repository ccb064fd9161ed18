import csv
import json
import os
from pathlib import Path

import pytest

from idsgate import experiment
from idsgate.cli import build_parser, main, overrides_from_args


def base_args(tmp_path, *extra):
    return [
        "--seed",
        "0",
        "--out",
        os.path.join(tmp_path, "out"),
        "--layers",
        "network",
        "--eval-count",
        "30",
        *extra,
    ]


def write_cfg(tmp_path, text):
    path = os.path.join(tmp_path, "exp.cfg")
    with open(path, "w") as fh:
        fh.write(text)
    return path


SMALL = "net_count = 300\nhost_count = 300\nepisodes = 2\n"


def test_parser_requires_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_overrides_mapping():
    parser = build_parser()
    args = parser.parse_args(
        [
            "run",
            "--seed",
            "5",
            "--out",
            "results",
            "--layers",
            "host",
            "--mock-llm",
            "echo:0.7",
            "--data",
            "corpora",
            "--memory-dir",
            "mem",
            "--eval-count",
            "10",
            "--c-event",
            "1.5",
            "--wall-clock",
            "--mode",
            "static",
        ]
    )
    kv = overrides_from_args(args)
    assert kv == {
        "seed": "5",
        "out_dir": "results",
        "layers": "host",
        "llm": "echo:0.7",
        "data_dir": "corpora",
        "memory_dir": "mem",
        "eval_count": "10",
        "c_event": "1.5",
        "wall_clock": "true",
        "mode": "static",
    }


def test_mock_llm_bare_path_becomes_table_spec():
    parser = build_parser()
    args = parser.parse_args(["run", "--mock-llm", "responses.jsonl"])
    assert overrides_from_args(args)["llm"] == "table:responses.jsonl"
    args = parser.parse_args(["run", "--mock-llm", "echo"])
    assert overrides_from_args(args)["llm"] == "echo"
    args = parser.parse_args(["run", "--mock-llm", "table:responses.jsonl"])
    assert overrides_from_args(args)["llm"] == "table:responses.jsonl"


def test_llm_url_implies_http():
    parser = build_parser()
    args = parser.parse_args(["run", "--llm-url", "http://box:11434", "--llm-model", "m"])
    kv = overrides_from_args(args)
    assert kv["llm"] == "http"
    assert kv["llm_url"] == "http://box:11434"
    assert kv["llm_model"] == "m"


def test_unknown_config_key_is_usage_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "not_a_key = 1\n")
    assert main(["gen", "--config", cfg]) == 2
    assert "config error" in capsys.readouterr().err


def test_out_of_range_value_is_usage_error(tmp_path, capsys):
    out = os.path.join(tmp_path, "out")
    assert main(["gen", "--out", out, "--c-event", "-1"]) == 2
    assert "config error: bad value for c_event" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize(
    "command, line, key",
    [
        ("calibrate", "window = 0", "window"),
        ("calibrate", "window = -5", "window"),
        ("calibrate", "episodes = -1", "episodes"),
        ("calibrate", "alpha = 5", "alpha"),
        ("calibrate", "epsilon_decay = 2", "epsilon_decay"),
        ("run", "match_k = -1", "match_k"),
        ("run", "min_meta = 1.5", "min_meta"),
    ],
)
def test_out_of_range_calibration_or_match_key_is_usage_error(tmp_path, capsys, command, line, key):
    # rejected while the config is built, before any corpus is generated
    cfg = write_cfg(tmp_path, SMALL + line + "\n")
    assert main([command, "--config", cfg, *base_args(tmp_path)]) == 2
    assert f"config error: bad value for {key}" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(tmp_path, "out"))


@pytest.mark.parametrize(
    "flags, line",
    [
        (["--mock-llm", "echo:abc"], ""),
        (["--mock-llm", "echo:1.5"], ""),
        (["--mock-llm", "echo:nan"], ""),
        ([], "llm = echo:\n"),
        ([], "llm = table:\n"),
        ([], "llm = oracle\n"),
    ],
    ids=["not-a-number", "above-1", "nan", "echo-colon", "table-without-path", "unknown"],
)
def test_bad_llm_spec_is_usage_error(tmp_path, capsys, monkeypatch, flags, line):
    # rejected while the config is built, before any corpus is generated
    def no_corpus(*args):
        raise AssertionError("corpus generated")

    monkeypatch.setattr(experiment, "generate_events", no_corpus)
    cfg = write_cfg(tmp_path, SMALL + line)
    assert main(["compare", "--config", cfg, *base_args(tmp_path), *flags]) == 2
    assert "config error: bad value for llm" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(tmp_path, "out"))


@pytest.mark.parametrize(
    "line, key",
    [
        ("eval_count = -5", "eval_count"),
        ("eval_count = 0", "eval_count"),
        ("train_ratio = 1.5", "train_ratio"),
        ("net_count = 0", "net_count"),
        ("host_count = -3", "host_count"),
        ("net_attack_fraction = -0.5", "net_attack_fraction"),
        ("host_attack_fraction = 2", "host_attack_fraction"),
        ("host_ambiguity = 7", "host_ambiguity"),
    ],
)
def test_out_of_range_run_size_key_is_usage_error(tmp_path, capsys, monkeypatch, line, key):
    assert_rejected_before_corpus(tmp_path, capsys, monkeypatch, line, key)


@pytest.mark.parametrize(
    "line, key",
    [
        ("llm_retries = -1", "llm_retries"),
        ("llm_timeout = -1", "llm_timeout"),
        ("llm_timeout = 0", "llm_timeout"),
        ("static_threshold = 7", "static_threshold"),
        ("scorer_network = bogus", "scorer_network"),
        ("scorer_host = replay:", "scorer_host"),
    ],
)
def test_bad_routing_or_client_key_is_usage_error(tmp_path, capsys, monkeypatch, line, key):
    assert_rejected_before_corpus(tmp_path, capsys, monkeypatch, line, key)


def assert_rejected_before_corpus(tmp_path, capsys, monkeypatch, line, key):
    """``compare --config`` with ``line`` exits 2 naming ``key``, while the
    config is built: no corpus is generated and no out dir is made."""
    def no_corpus(*args):
        raise AssertionError("corpus generated")

    monkeypatch.setattr(experiment, "generate_events", no_corpus)
    cfg = write_cfg(tmp_path, SMALL + line + "\n")
    out = os.path.join(tmp_path, "out")
    assert main(["compare", "--seed", "0", "--config", cfg, "--out", out]) == 2
    assert f"config error: bad value for {key}" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_missing_config_file_is_usage_error(tmp_path, capsys):
    missing = os.path.join(tmp_path, "nope.cfg")
    assert main(["gen", "--config", missing]) == 2
    assert "cannot read config" in capsys.readouterr().err


def test_gen_then_run_then_report(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SMALL)
    out = os.path.join(tmp_path, "out")

    assert main(["gen", "--config", cfg, *base_args(tmp_path)]) == 0
    assert os.path.exists(os.path.join(out, "network.csv"))

    assert (
        main(
            [
                "run",
                "--config",
                cfg,
                *base_args(tmp_path),
                "--mode",
                "static",
                "--data",
                out,
            ]
        )
        == 0
    )
    captured = capsys.readouterr().out
    assert "mode=static" in captured
    assert os.path.exists(os.path.join(out, "summary_static_run0.json"))

    assert main(["report", "--config", cfg, *base_args(tmp_path)]) == 0
    assert os.path.exists(os.path.join(out, "histogram_static_run0.csv"))


def test_run_adaptive_with_saved_calibration(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SMALL)
    out = os.path.join(tmp_path, "out")
    assert main(["calibrate", "--config", cfg, *base_args(tmp_path)]) == 0
    calib = os.path.join(out, "calibration_run0.json")
    assert os.path.exists(calib)
    assert (
        main(
            [
                "run",
                "--config",
                cfg,
                *base_args(tmp_path),
                "--mode",
                "adaptive",
                "--calibration",
                calib,
            ]
        )
        == 0
    )
    assert "mode=adaptive" in capsys.readouterr().out
    summary = json.loads(Path(out, "summary_adaptive_run0.json").read_text())
    learned = json.loads(Path(calib).read_text())["layers"]["network"]["learned_threshold"]
    assert summary["layers"]["network"]["learned_threshold"] == learned


def test_compare_prints_reduction_and_writes_files(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SMALL)
    out = os.path.join(tmp_path, "out")
    assert main(["compare", "--config", cfg, *base_args(tmp_path)]) == 0
    captured = capsys.readouterr().out
    assert "static_uncertain=" in captured
    assert "reduction_pct=" in captured
    assert os.path.exists(os.path.join(out, "compare_run0.json"))
    assert os.path.exists(os.path.join(out, "compare_table_run0.csv"))
    assert os.path.exists(os.path.join(out, "summary_static_run0.json"))
    assert os.path.exists(os.path.join(out, "summary_adaptive_run0.json"))


def test_compare_completes_when_static_escalates_nothing(tmp_path, capsys):
    # At seed 3 no host event of this small config falls below the static
    # threshold, so there is no baseline to reduce: the run still writes
    # all ten artifacts and reports the reduction as null.
    cfg = write_cfg(tmp_path, SMALL)
    out = os.path.join(tmp_path, "out")
    args = ["--config", cfg, "--seed", "3", "--out", out, "--layers", "host", "--eval-count", "30"]
    assert main(["compare", *args]) == 0
    assert "static_uncertain=0 adaptive_uncertain=0 reduction_pct=n/a" in capsys.readouterr().out
    assert len(os.listdir(out)) == 10
    cost = json.loads(Path(out, "compare_run3.json").read_text())["cost"]
    assert (cost["n_static"], cost["reduction_pct"]) == (0, None)


def _set_cells(row_index, **cells):
    def edit(rows):
        for column, value in cells.items():
            rows[row_index][rows[0].index(column)] = value

    return edit


def _drop_column(name):
    def edit(rows):
        i = rows[0].index(name)
        for row in rows:
            del row[i]

    return edit


def _set_line(index, text):
    def edit(lines):
        lines[index] = text

    return edit


def _keep_columns(n):
    def edit(rows):
        rows[:] = [row[:n] for row in rows]

    return edit


def _host_line(**fields):
    return json.dumps({"event_id": "host-x", "truth": 0, "raw": "sshd pid=1", **fields})


@pytest.mark.parametrize(
    "layer, edit, message",
    [
        ("network", _set_cells(1, truth="2"), "{path}:2: truth '2' is not 0 or 1"),
        ("network", _set_cells(2, truth="x"), "{path}:3: truth 'x' is not 0 or 1"),
        ("network", lambda rows: rows[2].pop(), "{path}:3: 42 cells, header has 43"),
        ("network", lambda rows: rows[2].append("0.5"), "{path}:3: 44 cells, header has 43"),
        ("network", _set_cells(2, f05="nan"), "{path}:3: feature cells must be finite numbers"),
        ("network", _set_cells(2, f05="bogus"), "{path}:3: could not convert string to float: 'bogus'"),
        ("network", lambda rows: rows.clear(), "{path}:1: empty file"),
        ("network", _keep_columns(3), "{path}:1: no feature column"),
        ("network", _set_cells(1, event_id="net,50"), "{path}:2: event_id 'net,50' is not a non-empty"),
        ("network", _set_cells(2, event_id="net 51"), "{path}:3: event_id 'net 51' is not a non-empty"),
        ("network", _set_cells(2, event_id=""), "{path}:3: event_id '' is not a non-empty"),
        ("network", _set_cells(3, event_id="network-0"), "{path}:4: event_id 'network-0' repeats line 2"),
        ("hypervisor", _drop_column("uptime_hours"), "{path}:1: missing columns: ['uptime_hours']"),
        ("hypervisor", _set_cells(2, event_class=""), "{path}:3: empty event_class"),
        ("host", _set_line(1, '{"event_id": "host-1", "truth": 0}'), "{path}:2: not an object with"),
        ("host", _set_line(1, '["host-1", 0, "sshd"]'), "{path}:2: not an object with"),
        ("host", _set_line(1, '{"event_id": "host-1" "raw": ""}'), "{path}:2: Expecting ',' delimiter"),
        ("host", _set_line(1, _host_line(truth=True)), "{path}:2: truth 'true' is not 0 or 1"),
        ("host", _set_line(1, _host_line(truth=1.0)), "{path}:2: truth '1.0' is not 0 or 1"),
        ("host", _set_line(1, _host_line(truth=2)), "{path}:2: truth '2' is not 0 or 1"),
        ("host", _set_line(1, _host_line(truth="1")), "{path}:2: truth '\"1\"' is not 0 or 1"),
        ("host", _set_line(1, _host_line(raw=None)), "{path}:2: raw None is not a string"),
        ("host", _set_line(1, _host_line(truth_class=5)), "{path}:2: truth_class 5 is not a string"),
        ("host", _set_line(1, _host_line(truth_class=["x"])), "{path}:2: truth_class ['x'] is not"),
        ("host", _set_line(1, _host_line(event_id=7)), "{path}:2: event_id 7 is not a non-empty"),
        ("host", _set_line(1, _host_line(event_id="host 1")), "{path}:2: event_id 'host 1' is not"),
        ("host", _set_line(2, _host_line(event_id="host-0")), "{path}:3: event_id 'host-0' repeats line 1"),
    ],
    ids=[
        "truth", "truth-not-int", "short-row", "long-row", "nan-cell", "bogus-cell", "empty-file",
        "no-feature-column", "id-comma", "id-space", "id-empty", "id-repeated",
        "missing-column", "empty-class", "host-no-raw", "host-not-object", "host-bad-json",
        "host-truth-bool", "host-truth-float", "host-truth-2", "host-truth-string", "host-raw-null",
        "host-truth-class-number", "host-truth-class-list",
        "host-id-number", "host-id-space", "host-id-repeated",
    ],
)
def test_loaded_corpus_with_bad_truth_label_fails(tmp_path, capsys, layer, edit, message):
    # a malformed corpus file stops the run where it is loaded, naming the line
    cfg = write_cfg(tmp_path, SMALL)
    out = os.path.join(tmp_path, "out")
    assert main(["gen", "--config", cfg, *base_args(tmp_path), "--layers", layer]) == 0
    if layer == "host":
        path = os.path.join(out, "host.jsonl")
        with open(path) as fh:
            lines = fh.read().splitlines()
        edit(lines)
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    else:
        path = os.path.join(out, f"{layer}.csv")
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        edit(rows)
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
    capsys.readouterr()
    code = main(["compare", "--config", cfg, *base_args(tmp_path), "--layers", layer, "--data", out])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert message.format(path=path) in err


@pytest.mark.parametrize(
    "layer, name, keep",
    [("network", "network.csv", 1), ("host", "host.jsonl", 0), ("hypervisor", "hypervisor.csv", 1)],
)
def test_loaded_corpus_without_events_fails(tmp_path, capsys, layer, name, keep):
    # a header-only CSV or an empty JSONL file is named where it is loaded
    cfg = write_cfg(tmp_path, SMALL)
    out = os.path.join(tmp_path, "out")
    assert main(["gen", "--config", cfg, *base_args(tmp_path), "--layers", layer]) == 0
    path = os.path.join(out, name)
    with open(path) as fh:
        head = fh.readlines()[:keep]
    with open(path, "w") as fh:
        fh.writelines(head)
    capsys.readouterr()
    code = main(["compare", "--config", cfg, *base_args(tmp_path), "--layers", layer, "--data", out])
    assert code == 1
    assert capsys.readouterr().err == f"error: {path}: no events\n"


def test_loaded_corpus_of_two_events_routes_an_empty_evaluation_split(tmp_path, capsys):
    # Both events of a one-attack, one-benign corpus go to training, so
    # the evaluation split is empty: the run still writes its four files.
    cfg = write_cfg(tmp_path, SMALL)
    data = os.path.join(tmp_path, "data")
    assert main(["gen", "--config", cfg, *base_args(tmp_path), "--out", data]) == 0
    path = os.path.join(data, "network.csv")
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    truth = header.index("truth")
    pair = [next(r for r in rows if r[truth] == label) for label in ("1", "0")]
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([header, *pair])
    args = [*base_args(tmp_path), "--mode", "static", "--data", data]
    assert main(["run", "--config", cfg, *args]) == 0
    out = os.path.join(tmp_path, "out")
    assert len(os.listdir(out)) == 4
    summary = json.loads(Path(out, "summary_static_run0.json").read_text())
    assert summary["overall"]["total"] == 0
    assert summary["layers"]["network"]["total"] == 0


def _calibration(**layers):
    return {"seed": 0, "episodes": 2, "layers": layers}


NET = {"learned_threshold": 0.6, "action_histogram": {"0.6": 3}}


CALIBRATED_COMMANDS = [["compare"], ["run", "--mode", "adaptive"], ["run", "--mode", "static"]]


@pytest.mark.parametrize("command", CALIBRATED_COMMANDS)
@pytest.mark.parametrize(
    "payload, message",
    [
        (_calibration(host=NET), "no threshold for layer network"),
        (_calibration(network=NET, cloud=NET), "unknown layer 'cloud'"),
        (_calibration(network={"learned_threshold": "0.6"}), "layer network: learned_threshold '0.6'"),
        (_calibration(network={"learned_threshold": 7}), "layer network: learned_threshold 7 "),
        (_calibration(network={"learned_threshold": -1}), "layer network: learned_threshold -1 "),
        (_calibration(network={"learned_threshold": True}), "layer network: learned_threshold True "),
        (_calibration(network={"learned_threshold": float("nan")}), "layer network: learned_threshold nan "),
        (_calibration(network={}), "layer network: learned_threshold None "),
        (_calibration(network=0.6), "layer network: learned_threshold None "),
        ([NET], "no 'layers' object"),
    ],
    ids=[
        "missing-layer", "unknown-layer", "string", "above-1", "below-0", "bool", "nan",
        "absent", "entry-not-object", "file-not-object",
    ],
)
def test_bad_calibration_file_fails_before_routing(tmp_path, capsys, command, payload, message):
    cfg = write_cfg(tmp_path, SMALL)
    calib = os.path.join(tmp_path, "calibration.json")
    with open(calib, "w") as fh:
        json.dump(payload, fh)
    code = main([*command, "--config", cfg, *base_args(tmp_path), "--calibration", calib])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: {calib}: {message}")
    # nothing was routed, so no mode wrote its artifacts
    assert not os.path.exists(os.path.join(tmp_path, "out"))


@pytest.mark.parametrize("command", CALIBRATED_COMMANDS)
def test_missing_calibration_file_fails_before_routing(tmp_path, capsys, command):
    cfg = write_cfg(tmp_path, SMALL)
    calib = os.path.join(tmp_path, "absent.json")
    code = main([*command, "--config", cfg, *base_args(tmp_path), "--calibration", calib])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and calib in err
    assert not os.path.exists(os.path.join(tmp_path, "out"))


def test_run_checks_calibration_file_before_set_up(tmp_path, capsys, monkeypatch):
    set_ups = []

    def no_set_up(xcfg):
        set_ups.append(xcfg)
        raise RuntimeError("set-up must not start")

    monkeypatch.setattr(experiment, "prepare_bundles", no_set_up)
    calib = os.path.join(tmp_path, "absent.json")
    code = main(["run", "--mode", "adaptive", *base_args(tmp_path), "--calibration", calib])
    assert set_ups == []
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and calib in err


def test_calibration_file_is_read_for_its_threshold_only(tmp_path):
    # The histogram and episode count are a record of the calibration run;
    # a key that is not a number must not stop routing with the threshold.
    cfg = write_cfg(tmp_path, SMALL)
    summaries = []
    for name, entry in [
        ("clean", {"learned_threshold": 0.77}),
        ("junk", {"learned_threshold": 0.77, "action_histogram": {"x": 1}}),
    ]:
        calib = os.path.join(tmp_path, f"{name}.json")
        with open(calib, "w") as fh:
            json.dump({"seed": 0, "episodes": "many", "layers": {"network": entry}}, fh)
        out = os.path.join(tmp_path, name)
        args = ["compare", "--config", cfg, *base_args(tmp_path), "--out", out]
        assert main([*args, "--mock-llm", "echo:0.9", "--calibration", calib]) == 0
        summaries.append(json.loads(Path(out, "summary_adaptive_run0.json").read_text()))
    assert summaries[0]["layers"]["network"]["learned_threshold"] == 0.77
    assert summaries[1] == summaries[0]


def test_report_without_runs_fails(tmp_path, capsys):
    assert main(["report", "--out", os.path.join(tmp_path, "empty")]) == 1
    assert "no stored confidence files" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message",
    [
        ("event_id,pred_label,confidence\nnetwork-0,1,0.9\n", "{path}:1: missing columns: ['layer']"),
        ("event_id,layer,confidence\nnetwork-0,network,abc\n", "{path}:2: confidence 'abc' is not"),
        ("event_id,layer,confidence\nnetwork-0,network,-3\n", "{path}:2: confidence '-3' is not"),
        ("event_id,layer,confidence\nnetwork-0,network,nan\n", "{path}:2: confidence 'nan' is not"),
        ("event_id,layer,confidence\nnetwork-0,network,0.9\nnetwork-1,network,7.5\n",
         "{path}:3: confidence '7.5' is not a number in [0, 1]"),
        ("event_id,layer,confidence\nx-0,bogus,0.9\n", "{path}:2: layer 'bogus' names no layer"),
        ("event_id,layer,confidence\nnetwork-0,network,0.9\nhost-0,Host,0.8\n",
         "{path}:3: layer 'Host' names no layer"),
    ],
    ids=["no-layer-column", "not-a-number", "negative", "nan", "above-one", "unknown-layer",
         "layer-case"],
)
def test_report_names_the_bad_line_of_a_confidence_file(tmp_path, capsys, text, message):
    out = os.path.join(tmp_path, "out")
    os.makedirs(out)
    path = os.path.join(out, "confidence_static_run0.csv")
    with open(path, "w") as fh:
        fh.write(text)
    assert main(["report", "--out", out]) == 1
    assert capsys.readouterr().err.startswith(f"error: {message.format(path=path)}")
    assert os.listdir(out) == ["confidence_static_run0.csv"]


def test_run_failure_exits_one(tmp_path, capsys):
    # data dir without corpus files: the loader raises, the CLI reports.
    os.makedirs(os.path.join(tmp_path, "blank"))
    code = main(
        [
            "run",
            *base_args(tmp_path),
            "--mode",
            "static",
            "--data",
            os.path.join(tmp_path, "blank"),
        ]
    )
    assert code == 1
    assert "error:" in capsys.readouterr().err
