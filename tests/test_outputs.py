import json
import os
from pathlib import Path

import pytest

from conftest import make_scored, make_stream
from idsgate.events import LayerId, Sink
from idsgate.llm import MockLlmClient
from idsgate.memory import MemoryStore
from idsgate.outputs import (
    CONFIDENCE_CSV_HEADER,
    AccountingError,
    IoWriteFailure,
    LayerSummary,
    LogicalClock,
    OutputPaths,
    RunSummary,
    WallClock,
    make_clock,
    output_paths,
    rfc3339,
    write_confidence_csv,
    write_histogram_csv,
    write_json,
    write_review_jsonl,
    write_run_summary,
)
from idsgate.pipeline import PipelineConfig, route_stream


def good_summary(**overrides):
    base = dict(
        layer="host",
        total=100,
        known=70,
        uncertain=30,
        memory_matched=5,
        llm_attack=15,
        llm_benign=6,
        llm_unsure=4,
        llm_promoted=12,
        fusion_rejected=3,
        bucket=13,
        learned_threshold=0.64,
        llm_threshold=0.61,
    )
    base.update(overrides)
    return LayerSummary(**base)


def test_layer_summary_identities_hold():
    ls = good_summary().validate()
    assert ls.known + ls.memory_matched + ls.llm_promoted + ls.bucket == ls.total


def test_layer_summary_detects_bad_split():
    with pytest.raises(AccountingError, match="known \\+ uncertain"):
        good_summary(known=71).validate()


def test_layer_summary_detects_uncertain_mismatch():
    with pytest.raises(AccountingError, match="llm labels"):
        good_summary(memory_matched=6).validate()


def test_layer_summary_detects_promotion_mismatch():
    with pytest.raises(AccountingError, match="llm_promoted"):
        good_summary(llm_promoted=13).validate()


def test_layer_summary_detects_bucket_mismatch():
    with pytest.raises(AccountingError, match="bucket"):
        good_summary(bucket=14).validate()


def test_layer_summary_catches_any_single_count_drift():
    # Whichever tally drifts by one, some identity breaks.
    for fld in (
        "total",
        "known",
        "uncertain",
        "memory_matched",
        "llm_attack",
        "llm_benign",
        "llm_unsure",
        "llm_promoted",
        "fusion_rejected",
        "bucket",
    ):
        bad = good_summary(**{fld: getattr(good_summary(), fld) + 1})
        with pytest.raises(AccountingError):
            bad.validate()


def test_rfc3339_uses_z_suffix():
    import datetime

    dt = datetime.datetime(2024, 5, 1, 12, 30, 0, tzinfo=datetime.timezone.utc)
    assert rfc3339(dt) == "2024-05-01T12:30:00Z"


def test_logical_clock_ticks_one_second():
    clock = LogicalClock()
    assert clock.tick() == "2000-01-01T00:00:00Z"
    assert clock.tick() == "2000-01-01T00:00:01Z"
    assert clock.tick() == "2000-01-01T00:00:02Z"


def test_make_clock_defaults_to_logical():
    assert isinstance(make_clock(), LogicalClock)
    assert isinstance(make_clock(wall=True), WallClock)
    assert WallClock().tick().endswith("Z")


def host_scored(event_id="host-1", confidence=0.73, truth=1):
    return make_scored(confidence, pred_label=1, truth=truth, event_id=event_id, layer=LayerId.HOST)


def test_confidence_csv_format(tmp_path):
    path = os.path.join(tmp_path, "conf.csv")
    first = make_stream([host_scored(confidence=0.8500000000000001)])
    second = make_stream([host_scored("host-2", 0.6, 0), host_scored("host-3", 0.7, 1)])
    write_confidence_csv(
        path,
        [(first, [Sink.KNOWN_ACCEPT]), (second, [Sink.REVIEW_BUCKET, Sink.LLM_ATTACK])],
    )
    lines = Path(path).read_text().splitlines()
    assert lines[0] == CONFIDENCE_CSV_HEADER
    # repr() keeps every bit of the float so reruns diff cleanly.
    assert lines[1] == "host-1,host,1,0.8500000000000001,1,known_accept"
    # Runs follow one another, each row with its own sink.
    assert lines[2:] == ["host-2,host,1,0.6,0,review_bucket", "host-3,host,1,0.7,1,llm_attack"]
    with pytest.raises(ValueError):
        write_confidence_csv(path, [(second, [Sink.KNOWN_ACCEPT])])


def test_confidence_csv_blank_truth(tmp_path):
    path = os.path.join(tmp_path, "conf.csv")
    write_confidence_csv(path, [(make_stream([host_scored(truth=None)]), [Sink.REVIEW_BUCKET])])
    lines = Path(path).read_text().splitlines()
    assert lines[1].split(",")[4] == ""


def test_review_jsonl_field_order(tmp_path):
    # the router builds the row; the writer keeps its key order
    cfg = PipelineConfig()
    se = make_scored(0.55, event_id="host-2", layer=LayerId.HOST)
    unsure = MockLlmClient({}, default_response='{"label": "UNSURE", "confidence": 0.0}')
    store = MemoryStore(dims=cfg.embedding.dims)
    run = route_stream(LayerId.HOST, make_stream([se]), 0.85, cfg, store, unsure)
    path = os.path.join(tmp_path, "review.jsonl")
    write_review_jsonl(path, run.reviews)
    line = Path(path).read_text().strip()
    data = json.loads(line)
    assert list(data) == [
        "event_id",
        "layer",
        "model_label",
        "model_confidence",
        "llm_label",
        "llm_confidence",
        "attack_type",
        "explanation",
        "fused_score",
        "gate_trace",
        "created_at",
    ]
    assert data["gate_trace"] == [
        {"gate": "gate1", "decision": "uncertain", "score": 0.55},
        {"gate": "gate2", "decision": "no_match", "score": 2.0},  # the store is empty
        {"gate": "gate3", "decision": "review", "score": 0.0},
    ]


def test_run_summary_file_roundtrip(tmp_path):
    summary = RunSummary(
        mode="static",
        seed=0,
        started_at="2000-01-01T00:00:00Z",
        finished_at="2000-01-01T00:00:01Z",
        layers=(good_summary(),),
    )
    path = os.path.join(tmp_path, "summary.json")
    write_run_summary(path, summary)
    assert Path(path).read_text() == json.dumps(summary.to_dict(), indent=2) + "\n"


def test_histogram_top_bin_includes_one(tmp_path):
    path = os.path.join(tmp_path, "hist.csv")
    rows = [("host", 0.0), ("host", 0.049), ("host", 0.95), ("host", 1.0), ("network", 0.5)]
    write_histogram_csv(path, rows, bins=20)
    lines = Path(path).read_text().splitlines()
    assert lines[0] == "layer,bin_low,bin_high,count"
    assert len(lines) == 1 + 2 * 20  # two layers, twenty bins each
    counts = {}
    for line in lines[1:]:
        layer, low, high, count = line.split(",")
        counts[(layer, low)] = int(count)
    assert counts[("host", "0.00")] == 2
    assert counts[("host", "0.95")] == 2  # 0.95 and 1.0 share the top bin
    assert counts[("network", "0.50")] == 1
    assert counts[("network", "0.95")] == 0


def test_histogram_bin_edges_cover_unit_interval(tmp_path):
    path = os.path.join(tmp_path, "hist.csv")
    write_histogram_csv(path, [("host", 0.5)], bins=4)
    lines = Path(path).read_text().splitlines()[1:]
    edges = [(line.split(",")[1], line.split(",")[2]) for line in lines]
    assert edges == [("0.00", "0.25"), ("0.25", "0.50"), ("0.50", "0.75"), ("0.75", "1.00")]


def test_output_paths_embed_mode_and_run():
    paths = output_paths("/tmp/out", "adaptive", "run7")
    assert paths == OutputPaths(
        confidence="/tmp/out/confidence_adaptive_run7.csv",
        audit="/tmp/out/audit_adaptive_run7.jsonl",
        review="/tmp/out/review_adaptive_run7.jsonl",
        summary="/tmp/out/summary_adaptive_run7.json",
    )


def test_write_failure_raises_io_error(tmp_path):
    bad = os.path.join(tmp_path, "missing_dir", "conf.csv")
    with pytest.raises(IoWriteFailure):
        write_confidence_csv(bad, [])
    with pytest.raises(IoWriteFailure):
        write_histogram_csv(bad, [])
    with pytest.raises(IoWriteFailure):
        write_json(bad, {})
