import json
import random
import re
import threading
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from conftest import dead_endpoint_url, generate_server, make_scored
from idsgate.config import build_experiment_config
from idsgate.events import LayerId, Sink, working_verdict
from idsgate.llm import (
    EchoLlmClient,
    HttpLlmClient,
    LlmThresholds,
    LlmTimeout,
    MockLlmClient,
    calibrate_llm_threshold,
)
from idsgate import memory, pipeline
from idsgate.memory import MemoryStore
from idsgate.pipeline import (
    Comparison,
    Mode,
    NoLabeledEvents,
    PipelineConfig,
    calibrate_gate1,
    compare_modes,
    compute_metrics,
    cost_analysis,
    harvest_llm_samples,
    route_stream,
    run_mode,
)
from idsgate.qcal import CalibConfig


def fresh_store(cfg):
    return MemoryStore(dims=cfg.embedding.dims)


def host_stream(rows, prefix="host"):
    """rows: (confidence, pred_label, truth) or (confidence, pred, truth, raw)."""
    rng = random.Random(17)
    out = []
    for i, row in enumerate(rows):
        conf, pred, truth = row[:3]
        raw = row[3] if len(row) > 3 else " ".join(
            f"w{rng.randrange(1 << 24):06x}" for _ in range(6)
        )
        out.append(
            make_scored(conf, pred_label=pred, truth=truth, event_id=f"{prefix}-{i}", layer=LayerId.HOST, raw=raw)
        )
    return out


def sink_of(run):
    """Each routed event's sink, by event id."""
    return {se.event.id: sink for se, sink in zip(run.scored, run.sinks, strict=True)}


def echo_for(stream, confidence=0.9):
    return EchoLlmClient(
        {se.event.id: se.event.truth for se in stream}, confidence=confidence
    )


def test_compute_metrics_confusion_counts():
    cfg = PipelineConfig()
    stream = host_stream(
        [
            (0.9, 1, 1),   # known, correct attack
            (0.9, 1, 0),   # known, false alarm
            (0.9, 0, 1),   # known, missed attack
            (0.9, 0, 0),   # known, correct benign
        ]
    )
    run = route_stream(LayerId.HOST, stream, 0.85, cfg, fresh_store(cfg), echo_for(stream))
    m = compute_metrics(run.outcomes)
    assert (m.tp, m.fp, m.fn, m.tn) == (1, 1, 1, 1)
    assert m.accuracy == 0.5
    assert m.precision == 0.5
    assert m.recall == 0.5
    assert m.f1 == 0.5
    assert m.deferred == 0


def test_compute_metrics_requires_labels():
    cfg = PipelineConfig()
    stream = host_stream([(0.9, 0, None)])
    run = route_stream(LayerId.HOST, stream, 0.85, cfg, fresh_store(cfg), echo_for(stream))
    with pytest.raises(NoLabeledEvents):
        compute_metrics(run.outcomes)


# Every (sink, model label, truth) key and where compute_metrics scores it:
# promotions are attack verdicts, other sinks keep the model's label, and
# only the review bucket is deferred; unlabeled keys are left out.
OUTCOME_CELLS = [
    (sink, pred, truth, cell, sink is Sink.REVIEW_BUCKET and truth is not None)
    for sink, promoted in [
        (Sink.KNOWN_ACCEPT, False),
        (Sink.MEMORY_ATTACK, True),
        (Sink.LLM_ATTACK, True),
        (Sink.REVIEW_BUCKET, False),
    ]
    for pred in (0, 1)
    for truth, cell in zip(
        (0, 1, None),
        ("fp", "tp", None) if promoted or pred == 1 else ("tn", "fn", None),
    )
]


def test_compute_metrics_scores_every_key_of_the_table():
    # A distinct power of two per key, so each total names its keys.
    outcomes = Counter({(s, p, t): 1 << i for i, (s, p, t, _, _) in enumerate(OUTCOME_CELLS)})
    assert len(outcomes) == 24
    m = compute_metrics(outcomes)
    for name in ("tp", "fp", "fn", "tn"):
        want = sum(1 << i for i, row in enumerate(OUTCOME_CELLS) if row[3] == name)
        assert getattr(m, name) == want, name
    assert m.deferred == sum(1 << i for i, row in enumerate(OUTCOME_CELLS) if row[4])
    # Key i is bit i; keys run sink by sink, then model label, then truth.
    assert (m.tp, m.fp, m.fn, m.tn) == (0x412490, 0x209248, 0x080002, 0x040001)
    assert m.deferred == 0x6C0000
    with pytest.raises(NoLabeledEvents):
        compute_metrics(Counter({key: n for key, n in outcomes.items() if key[2] is None}))


def test_metrics_merge_adds_counts():
    # A mode's overall metrics count every routed event of every layer
    # once, so they add up the layers' confusion counts.
    cfg = PipelineConfig()
    rows = [(0.9, 1, 1), (0.9, 1, 0), (0.9, 0, 1), (0.6, 0, 0), (0.55, 1, 1)]
    scored = {
        LayerId.NETWORK: [
            make_scored(c, pred_label=p, truth=t, event_id=f"network-{i}", layer=LayerId.NETWORK)
            for i, (c, p, t) in enumerate(rows)
        ],
        LayerId.HOST: host_stream(rows[1:] + [(0.9, 0, None)]),  # one unlabeled
    }
    truths = {se.event.id: se.event.truth for stream in scored.values() for se in stream}
    mode_run, summary = run_mode(
        scored,
        {},
        Mode.STATIC,
        cfg,
        make_store=lambda layer, mode: fresh_store(cfg),
        make_client=lambda layer, mode: EchoLlmClient(truths, confidence=0.5),
    )
    keys = ("tp", "fp", "fn", "tn", "deferred")
    per_layer = [ls.metrics for ls in summary.layers]
    overall = summary.overall["metrics"]
    assert [overall[k] for k in keys] == [sum(m[k] for m in per_layer) for k in keys]
    assert overall["tp"] + overall["fp"] + overall["fn"] + overall["tn"] == 9


def test_cost_analysis_simple_numbers():
    report = cost_analysis(200, 80, c_event=2.0)
    assert report.delta == 120
    assert report.reduction_pct == 60.0
    assert report.cost_static == 400.0
    assert report.cost_adaptive == 160.0
    assert report.cost_saving == 240.0


def test_cost_analysis_rounds_only_in_serialized_form():
    report = cost_analysis(3, 1, c_event=1.0)
    assert report.reduction_pct == pytest.approx(200 / 3)
    assert report.to_dict()["reduction_pct"] == 66.67


@pytest.mark.parametrize(
    "n_static, n_adaptive",
    [(3, 1), (7, 0), (3, 5), (1, 10**6), (10**15 + 7, 3), (10**15 + 7, 10**16), (999_983, 1)],
)
def test_cost_analysis_reduction_is_the_exact_ratio_rounded_once(n_static, n_adaptive):
    report = cost_analysis(n_static, n_adaptive, c_event=1.0)
    delta = n_static - n_adaptive
    assert report.reduction_pct == float(Fraction(100 * delta, n_static))


@pytest.mark.parametrize("n_adaptive", [0, 3])
def test_cost_analysis_zero_baseline_has_no_reduction(n_adaptive):
    report = cost_analysis(0, n_adaptive, c_event=1.0)
    assert report.reduction_pct is None
    assert report.to_dict()["reduction_pct"] is None
    assert (report.delta, report.cost_adaptive) == (-n_adaptive, float(n_adaptive))


def test_cost_analysis_rejects_negative_cost():
    with pytest.raises(ValueError):
        cost_analysis(10, 5, c_event=-0.5)


def test_pipeline_config_validation():
    with pytest.raises(ValueError):
        PipelineConfig(c_event=-1.0)
    with pytest.raises(ValueError):
        PipelineConfig(llm_parallelism=0)
    for bad in ({"eval_count": 0}, {"train_ratio": 0.0}, {"train_ratio": 1.0}):
        with pytest.raises(ValueError):
            PipelineConfig(**bad)


def test_confident_stream_never_reaches_the_llm():
    cfg = PipelineConfig()
    stream = host_stream([(0.86 + i * 0.001, i % 2, i % 2) for i in range(20)])
    client = echo_for(stream)
    run = route_stream(LayerId.HOST, stream, 0.85, cfg, fresh_store(cfg), client)
    assert run.summary.known == 20
    assert run.summary.uncertain == 0
    assert run.llm_calls == 0
    assert client.calls == 0
    assert all(sink is Sink.KNOWN_ACCEPT for sink in run.sinks)


def test_layer_run_holds_the_stream_and_a_sink_per_event():
    cfg = PipelineConfig()
    stream = host_stream([(0.90, 1, 1), (0.60, 1, 1), (0.55, 0, 0)])
    run = route_stream(LayerId.HOST, stream, 0.85, cfg, fresh_store(cfg), echo_for(stream))
    assert run.scored is stream
    assert run.sinks == [Sink.KNOWN_ACCEPT, Sink.LLM_ATTACK, Sink.REVIEW_BUCKET]


def test_route_stream_keeps_an_event_at_the_threshold_local():
    cfg = PipelineConfig()
    stream = host_stream([(0.85, 1, 1), (0.8499, 1, 1)])
    run = route_stream(LayerId.HOST, stream, 0.85, cfg, fresh_store(cfg), echo_for(stream))
    assert run.sinks[0] is Sink.KNOWN_ACCEPT
    assert [a["event_id"] for a in run.audits if a["gate"] == "gate2"] == ["host-1"]
    assert (run.summary.known, run.summary.uncertain) == (1, 1)


def test_escalated_attacks_promoted_and_benigns_reviewed():
    cfg = PipelineConfig()
    stream = host_stream(
        [(0.60, 1, 1), (0.55, 0, 1), (0.58, 0, 0), (0.91, 1, 1), (0.62, 1, 0)]
    )
    run = route_stream(LayerId.HOST, stream, 0.85, cfg, fresh_store(cfg), echo_for(stream))
    s = run.summary
    assert s.known == 1
    assert s.uncertain == 4
    assert s.llm_attack == 2  # the two escalated truth-attacks
    assert s.llm_benign == 2
    assert s.llm_promoted == 2
    assert s.fusion_rejected == 0
    assert s.bucket == 2
    assert run.llm_calls == 4
    # Promotion overrides the model's label; review keeps it.
    verdict = {
        se.event.id: working_verdict(sink, se.pred_label) for se, sink in zip(run.scored, run.sinks)
    }
    by_id = sink_of(run)
    assert verdict["host-1"] == (1, False)  # model said benign, echo knew better
    assert by_id["host-1"] is Sink.LLM_ATTACK
    assert by_id["host-2"] is Sink.REVIEW_BUCKET
    assert verdict["host-2"][1] is True
    assert verdict["host-4"] == (1, True)  # deferred keeps the model label


def test_promotions_match_from_the_next_batch_on():
    cfg = PipelineConfig(llm_parallelism=4)
    attack_raw = "sshd pid=1003 auth_fail user=root attempts=30 src=10.0.3.7"
    rows = [(0.60, 1, 1, attack_raw)]
    rows += [(0.55, 0, 0) for _ in range(3)]  # fill the first batch
    rows += [(0.60, 1, 1, attack_raw)]  # same payload, later batch
    stream = host_stream(rows)
    run = route_stream(LayerId.HOST, stream, 0.85, cfg, fresh_store(cfg), echo_for(stream))
    assert run.llm_calls == 4
    assert run.summary.memory_matched == 1
    by_id = sink_of(run)
    assert by_id["host-0"] is Sink.LLM_ATTACK
    assert by_id["host-4"] is Sink.MEMORY_ATTACK
    assert working_verdict(by_id["host-4"], stream[4].pred_label)[0] == 1
    (gate2,) = [a for a in run.audits if a["gate"] == "gate2" and a["event_id"] == "host-4"]
    assert gate2["matched"] is True
    assert gate2["record_id"] == "host-0"
    assert gate2["nearest_distance"] == pytest.approx(0.0, abs=1e-12)


def test_a_promotion_inside_a_gate2_block_reaches_the_rest_of_it():
    # One Gate-2 block holds all four events; each batch is one event, so
    # host-0's promotion is flushed before host-2 is decided.
    cfg = PipelineConfig(llm_parallelism=1)
    attack_raw = "sshd pid=1003 auth_fail user=root attempts=30 src=10.0.3.7"
    rows = [(0.60, 1, 1, attack_raw), (0.55, 0, 0), (0.60, 1, 1, attack_raw), (0.58, 0, 0)]
    stream = host_stream(rows)
    run = route_stream(LayerId.HOST, stream, 0.85, cfg, fresh_store(cfg), echo_for(stream))
    assert run.sinks == [Sink.LLM_ATTACK, Sink.REVIEW_BUCKET, Sink.MEMORY_ATTACK, Sink.REVIEW_BUCKET]
    gate2 = {a["event_id"]: a for a in run.audits if a["gate"] == "gate2"}
    assert gate2["host-0"]["record_id"] is None
    assert (gate2["host-2"]["record_id"], gate2["host-2"]["matched"]) == ("host-0", True)


def test_an_overwrite_inside_a_gate2_block_is_seen_at_once():
    # The store holds a record under host-1's id with another payload.
    # host-1's promotion overwrites it, so in the same block host-2 no
    # longer matches the old payload and host-3 matches the new one.
    cfg = PipelineConfig(llm_parallelism=1)
    old_raw = "exec /bin/sh user=www-data path=/tmp/payload"
    new_raw = "sshd pid=1003 auth_fail user=root attempts=30 src=10.0.3.7"
    store = fresh_store(cfg)
    store.insert(
        memory.MemoryRecord(
            id="host-1",
            layer=LayerId.HOST,
            vector=memory.embed(old_raw, cfg.embedding),
            attack_type="webshell",
            source=memory.MemorySource.MEMORY_SEEDED,
            created_at="2000-01-01T00:00:00Z",
        )
    )
    rows = [(0.60, 1, 1, old_raw), (0.55, 0, 1, new_raw), (0.58, 0, 0, old_raw)]
    rows += [(0.60, 1, 1, new_raw)]
    stream = host_stream(rows)
    run = route_stream(LayerId.HOST, stream, 0.85, cfg, store, echo_for(stream))
    assert run.sinks == [Sink.MEMORY_ATTACK, Sink.LLM_ATTACK, Sink.REVIEW_BUCKET, Sink.MEMORY_ATTACK]
    gate2 = {a["event_id"]: a for a in run.audits if a["gate"] == "gate2"}
    assert [gate2[f"host-{i}"]["record_id"] for i in (0, 2, 3)] == ["host-1"] * 3
    assert gate2["host-2"]["nearest_distance"] > cfg.match.support_radius
    assert gate2["host-3"]["nearest_distance"] == pytest.approx(0.0, abs=1e-12)
    assert len(store) == 1


@pytest.mark.parametrize("parallelism", [1, 3])
def test_gate2_blocks_route_as_one_query_per_event(monkeypatch, parallelism):
    # Payloads drawn from a few attack and benign patterns, so promotions
    # and matches interleave across many blocks; a block of one queries
    # each event after every flush before it.
    rng = random.Random(31)
    patterns = [f"sshd pid={p} auth_fail user=root attempts=30 src=10.0.3.{p}" for p in range(40)]
    rows = []
    for _ in range(200):
        p = rng.randrange(len(patterns))
        truth = int(p < 20)
        rows.append((rng.uniform(0.5, 1.0), rng.randrange(2), truth, patterns[p]))
    stream = host_stream(rows)
    cfg = PipelineConfig(llm_parallelism=parallelism)

    def route():
        queries = []
        store = fresh_store(cfg)
        query = store.query
        monkeypatch.setattr(store, "query", lambda v, k: queries.append(len(v)) or query(v, k))
        run = route_stream(LayerId.HOST, stream, 0.85, cfg, store, echo_for(stream))
        return run, queries

    blocked, block_sizes = route()
    assert max(block_sizes) == pipeline.GATE2_BLOCK == 32
    monkeypatch.setattr(pipeline, "GATE2_BLOCK", 1)
    single, single_sizes = route()
    assert blocked.audits == single.audits
    assert blocked.reviews == single.reviews
    assert blocked.sinks == single.sinks
    s = blocked.summary
    assert s.memory_matched > 0 and s.llm_promoted > 0
    assert single_sizes == [1] * s.uncertain
    assert sum(block_sizes) > s.uncertain > len(block_sizes)


def test_each_escalated_event_is_embedded_once(monkeypatch):
    calls = []

    def counting(fn):
        def wrapper(text, ecfg):
            calls.append((text, fn(text, ecfg)))
            return calls[-1][1]

        return wrapper

    monkeypatch.setattr(memory, "embed", counting(memory.embed))
    monkeypatch.setattr(pipeline, "embed", counting(pipeline.embed))
    cfg = PipelineConfig(llm_parallelism=2)
    attack_raw = "sshd pid=1003 auth_fail user=root attempts=30 src=10.0.3.7"
    rows = [(0.60, 1, 1, attack_raw), (0.55, 0, 0), (0.95, 1, 1), (0.60, 1, 1, attack_raw)]
    rows += [(0.62, 1, 1), (0.58, 0, 1)]
    stream = host_stream(rows)
    store = fresh_store(cfg)
    run = route_stream(LayerId.HOST, stream, 0.85, cfg, store, echo_for(stream))
    s = run.summary
    assert (s.uncertain, s.memory_matched, s.llm_promoted) == (5, 1, 3)
    assert len(calls) == s.uncertain
    escalated = [se for se in stream if se.confidence < 0.85]
    assert [text for text, _ in calls] == [se.event.raw for se in escalated]
    # Each promotion stores the vector its Gate-2 query used.
    vector_of = {se.event.id: v for se, (_, v) in zip(escalated, calls)}
    assert [r.id for r in store.records] == ["host-0", "host-4", "host-5"]
    assert all(np.array_equal(r.vector, vector_of[r.id]) for r in store.records)


def test_gate_trace_is_built_for_review_rows_only():
    cfg = PipelineConfig(llm_parallelism=2)
    attack_raw = "sshd pid=1003 auth_fail user=root attempts=30 src=10.0.3.7"
    rows = [(0.60, 1, 1, attack_raw), (0.55, 0, 0), (0.95, 1, 1), (0.60, 1, 1, attack_raw)]
    rows += [(0.62, 0, 0), (0.91, 0, 0), (0.58, 1, 0)]
    stream = host_stream(rows)
    run = route_stream(LayerId.HOST, stream, 0.85, cfg, fresh_store(cfg), echo_for(stream))
    s = run.summary
    # known, memory-matched, promoted and reviewed events all occur
    assert (s.known, s.memory_matched, s.llm_promoted, s.bucket) == (2, 1, 1, 3)
    # a trace in each review row, and in no audit row
    assert not any("gate_trace" in a for a in run.audits)
    nearest = {
        a["event_id"]: a["nearest_distance"]
        if a["nearest_distance"] is not None
        else pipeline.NO_NEIGHBOR_DISTANCE
        for a in run.audits
        if a["gate"] == "gate2"
    }
    assert [r["gate_trace"] for r in run.reviews] == [
        [
            {"gate": "gate1", "decision": "uncertain", "score": se.confidence},
            {"gate": "gate2", "decision": "no_match", "score": nearest[se.event.id]},
            {"gate": "gate3", "decision": "review", "score": 0.9},
        ]
        for se in (stream[1], stream[4], stream[6])
    ]


def test_same_batch_duplicates_both_reach_the_llm():
    cfg = PipelineConfig(llm_parallelism=4)
    attack_raw = "apache2 pid=1007 syscall=execve path=/var/www/u3.sh parent=apache2"
    stream = host_stream([(0.60, 1, 1, attack_raw), (0.60, 1, 1, attack_raw)])
    run = route_stream(LayerId.HOST, stream, 0.85, cfg, fresh_store(cfg), echo_for(stream))
    assert run.llm_calls == 2
    assert run.summary.memory_matched == 0
    assert run.summary.llm_promoted == 2


class FailingClient:
    def __init__(self):
        self.calls = 0

    def generate(self, prompt):
        self.calls += 1
        raise LlmTimeout("no analyst available")


def test_llm_failure_downgrades_to_review():
    cfg = PipelineConfig()
    stream = host_stream([(0.60, 1, 1), (0.90, 1, 1)])
    run = route_stream(LayerId.HOST, stream, 0.85, cfg, fresh_store(cfg), FailingClient())
    s = run.summary
    assert s.llm_unsure == 1
    assert s.bucket == 1
    assert s.known == 1
    assert sink_of(run)["host-0"] is Sink.REVIEW_BUCKET
    assert run.reviews[0]["llm_label"] == "UNSURE"
    assert run.reviews[0]["llm_confidence"] == 0.0


def test_dead_endpoint_sends_every_escalation_to_review():
    cfg = PipelineConfig(llm_parallelism=2)
    stream = host_stream([(0.60, 1, 1), (0.95, 0, 0), (0.70, 0, 0), (0.55, 1, 1), (0.65, 0, 1)])
    client = HttpLlmClient(dead_endpoint_url(), model="m", retries=1, backoff=0.01)
    run = route_stream(LayerId.HOST, stream, 0.85, cfg, fresh_store(cfg), client)
    s = run.summary.validate()
    assert (s.known, s.uncertain, s.llm_unsure, s.bucket) == (1, 4, 4, 4)
    assert run.llm_calls == 4
    escalated = [sink for se, sink in zip(run.scored, run.sinks) if se.confidence < 0.85]
    assert all(sink is Sink.REVIEW_BUCKET for sink in escalated)
    assert [r["llm_label"] for r in run.reviews] == ["UNSURE"] * 4
    assert [a["llm_label"] for a in run.audits if a["gate"] == "gate3"] == ["UNSURE"] * 4


def test_fusion_rejected_lands_in_bucket():
    cfg = PipelineConfig()
    weak_attack = json.dumps({"label": "ATTACK", "confidence": 0.55})
    client = MockLlmClient({}, default_response=weak_attack)
    stream = host_stream([(0.50, 1, 1)])
    run = route_stream(LayerId.HOST, stream, 0.85, cfg, fresh_store(cfg), client)
    s = run.summary
    # 0.2 * 0.50 + 0.8 * 0.55 = 0.54 misses the 0.61 fusion cutoff.
    assert s.llm_attack == 1
    assert s.llm_promoted == 0
    assert s.fusion_rejected == 1
    assert s.bucket == 1
    assert run.sinks[0] is Sink.REVIEW_BUCKET
    assert run.reviews[0]["fused_score"] == pytest.approx(0.54)


def test_fusion_promotion_records_provenance():
    cfg = PipelineConfig()
    borderline_attack = json.dumps({"label": "ATTACK", "confidence": 0.58})
    client = MockLlmClient({}, default_response=borderline_attack)
    stream = host_stream([(0.90, 1, 1)])
    run = route_stream(LayerId.HOST, stream, 0.95, cfg, fresh_store(cfg), client)
    assert run.summary.llm_promoted == 1
    assert run.summary.fusion_rejected == 0
    (gate3,) = [a for a in run.audits if a["gate"] == "gate3"]
    assert (gate3["sink"], gate3["provenance"]) == ("llm_attack", "fusion")
    assert gate3["fused_score"] == pytest.approx(0.644)


def test_route_stream_audit_trail_shape():
    cfg = PipelineConfig()
    stream = host_stream([(0.60, 1, 1), (0.90, 0, 0)])
    run = route_stream(LayerId.HOST, stream, 0.85, cfg, fresh_store(cfg), echo_for(stream))
    gates = [a["gate"] for a in run.audits]
    assert gates == ["gate2", "gate3"]
    g2, g3 = run.audits
    assert g2["matched"] is False
    assert g2["nearest_distance"] is None  # empty store has no neighbors
    assert len(g3["prompt_sha256"]) == 64
    assert g3["provenance"] == "direct"
    assert g2["created_at"] < g3["created_at"]


class ByEventClient:
    """Answers each prompt with the reply scripted for its event id; a
    missing reply is a timeout."""

    def __init__(self, replies):
        self.replies = replies

    def generate(self, prompt):
        event_id = re.search(r"^event_id: (\S+)$", prompt, re.M).group(1)
        if self.replies[event_id] is None:
            raise LlmTimeout("no analyst available")
        label, confidence = self.replies[event_id]
        return json.dumps({"label": label, "confidence": confidence})


def test_summary_counts_every_outcome_of_one_stream():
    cfg = PipelineConfig()
    attack_raw = "sshd pid=1003 auth_fail user=root attempts=30 src=10.0.3.7"
    stream = host_stream(
        [
            (0.97, 1, 1),  # Gate-1 known
            (0.98, 0, 0),  # Gate-1 known
            (0.60, 1, 1, attack_raw),  # memory match
            (0.60, 1, 1),  # direct ATTACK
            (0.90, 1, 1),  # ATTACK fused to 0.644, promoted
            (0.50, 1, 1),  # ATTACK fused to 0.54, rejected
            (0.70, 0, 0),  # BENIGN
            (0.70, 0, 0),  # UNSURE
            (0.70, 0, 1),  # failed LLM call
        ]
    )
    client = ByEventClient(
        {
            "host-3": ("ATTACK", 0.9),
            "host-4": ("ATTACK", 0.58),
            "host-5": ("ATTACK", 0.55),
            "host-6": ("BENIGN", 0.9),
            "host-7": ("UNSURE", 0.5),
            "host-8": None,
        }
    )
    store = fresh_store(cfg)
    store.insert(
        memory.MemoryRecord(
            id="seeded",
            layer=LayerId.HOST,
            vector=memory.embed(attack_raw, cfg.embedding),
            attack_type="brute_force",
            source=memory.MemorySource.MEMORY_SEEDED,
            created_at="2000-01-01T00:00:00Z",
        )
    )
    run = route_stream(LayerId.HOST, stream, 0.95, cfg, store, client)
    s = run.summary
    assert (s.total, s.known, s.uncertain, s.memory_matched) == (9, 2, 7, 1)
    assert (s.llm_attack, s.llm_benign, s.llm_unsure) == (3, 1, 2)
    assert (s.llm_promoted, s.fusion_rejected, s.bucket) == (2, 1, 4)
    assert run.llm_calls == 6
    assert run.sinks == [Sink.KNOWN_ACCEPT] * 2 + [
        Sink.MEMORY_ATTACK, Sink.LLM_ATTACK, Sink.LLM_ATTACK
    ] + [Sink.REVIEW_BUCKET] * 4
    assert [r["event_id"] for r in run.reviews] == [f"host-{i}" for i in range(5, 9)]
    assert sum(run.outcomes.values()) == s.total
    sinks = {sink: sum(n for (k, _, _), n in run.outcomes.items() if k is sink) for sink in Sink}
    assert sinks == {
        Sink.KNOWN_ACCEPT: s.known,
        Sink.MEMORY_ATTACK: s.memory_matched,
        Sink.LLM_ATTACK: s.llm_promoted,
        Sink.REVIEW_BUCKET: s.bucket,
    }


def test_parallelism_does_not_change_results():
    rows = [(0.5 + (i % 40) * 0.01, i % 2, (i * 3) % 2) for i in range(60)]
    base = None
    for workers in (1, 2, 3, 4):
        cfg = PipelineConfig(llm_parallelism=workers)
        stream = host_stream(rows)
        run = route_stream(LayerId.HOST, stream, 0.85, cfg, fresh_store(cfg), echo_for(stream))
        sinks = run.sinks
        if base is None:
            base = (run.summary, sinks)
        else:
            assert run.summary == base[0]
            assert sinks == base[1]


def test_http_batches_hold_at_most_llm_parallelism_connections():
    rows = [(0.5 + (i % 30) * 0.01, i % 2, (i * 7) % 2) for i in range(40)]
    stream = host_stream(rows)
    cfg = PipelineConfig(llm_parallelism=3)
    with generate_server(echo_for(stream).generate) as (url, accepted):
        client = HttpLlmClient(url, model="m", retries=0)
        run = route_stream(LayerId.HOST, stream, 0.85, cfg, fresh_store(cfg), client)
        client.close()
    reference = route_stream(LayerId.HOST, stream, 0.85, cfg, fresh_store(cfg), echo_for(stream))
    assert run.llm_calls >= 3 * cfg.llm_parallelism
    assert len(accepted) <= cfg.llm_parallelism
    assert run.sinks == reference.sinks
    assert run.summary == reference.summary


def test_one_worker_pool_per_stream():
    class ThreadRecorder(EchoLlmClient):
        def generate(self, prompt):
            threads.append(threading.current_thread())
            return super().generate(prompt)

    stream = host_stream([(0.6, 1, 1)] * 20)
    for workers in (1, 4):
        threads = []
        cfg = PipelineConfig(llm_parallelism=workers)
        client = ThreadRecorder({se.event.id: se.event.truth for se in stream})
        route_stream(LayerId.HOST, stream, 0.85, cfg, fresh_store(cfg), client)
        assert client.calls >= 3 * workers
        pool = {t for t in threads if t is not threading.current_thread()}
        # The routing thread asks the first prompt of every batch; the
        # other asks share at most llm_parallelism - 1 threads across
        # all batches, which have stopped once the stream is routed.
        assert threading.current_thread() in threads
        assert len(pool) <= workers - 1
        assert not any(t.is_alive() for t in pool)


def run_host(stream, thresholds, mode, cfg):
    """run_mode over one host stream; the host layer's run and summary."""
    mode_run, summary = run_mode(
        {LayerId.HOST: stream},
        thresholds,
        mode,
        cfg,
        make_store=lambda layer, mode: fresh_store(cfg),
        make_client=lambda layer, mode: echo_for(stream),
    )
    return mode_run.layer_runs[LayerId.HOST], summary


def test_run_layer_static_uses_config_threshold():
    cfg = PipelineConfig(static_threshold=0.85)
    stream = host_stream([(0.86, 0, 0), (0.84, 0, 0)])
    # a learned threshold does not reach the static run
    run, _ = run_host(stream, {LayerId.HOST: 0.5}, Mode.STATIC, cfg)
    assert run.summary.learned_threshold == 0.85
    assert run.summary.known == 1


def test_run_layer_adaptive_needs_calibration():
    cfg = PipelineConfig()
    stream = host_stream([(0.9, 0, 0)])
    made = []
    with pytest.raises(ValueError, match="threshold for layer host"):
        run_mode(
            {LayerId.HOST: stream},
            {LayerId.NETWORK: 0.6},
            Mode.ADAPTIVE,
            cfg,
            make_store=lambda layer, mode: made.append(layer) or fresh_store(cfg),
            make_client=lambda layer, mode: echo_for(stream),
        )
    assert made == []  # rejected before any layer is routed


def test_run_layer_adaptive_uses_learned_threshold():
    cfg = PipelineConfig()
    stream = host_stream([(0.63, 0, 0), (0.61, 0, 0)])
    run, summary = run_host(stream, {LayerId.HOST: 0.62}, Mode.ADAPTIVE, cfg)
    assert run.mode is Mode.ADAPTIVE
    assert run.summary.known == 1
    assert run.summary.learned_threshold == 0.62
    assert summary.overall["uncertain"] == 1


def test_code_built_config_routes_like_config_file():
    # An ATTACK verdict at 0.65 on a 0.5-confidence event fuses to 0.62,
    # short of a 0.7 host LLM threshold however that threshold was set.
    tau = {**LlmThresholds().tau, LayerId.HOST: 0.7}
    in_code = PipelineConfig(llm_thresholds=LlmThresholds(tau=tau))
    from_file = build_experiment_config({"llm_tau_host": "0.7"}).pipeline
    stream = host_stream([(0.5, 1, 1)])
    outcomes = []
    for cfg in (in_code, from_file):
        client = echo_for(stream, confidence=0.65)
        run = route_stream(LayerId.HOST, stream, 0.85, cfg, fresh_store(cfg), client)
        gate3 = [a for a in run.audits if a["gate"] == "gate3"]
        outcomes.append([(a["sink"], a["provenance"], a["fused_score"]) for a in gate3])
    assert outcomes == [[("review_bucket", "none", 0.62)]] * 2


def test_harvest_llm_samples_covers_exactly_the_escalations():
    cfg = PipelineConfig()
    stream = host_stream([(0.90, 1, 1), (0.60, 1, 1), (0.55, 0, 0), (0.86, 0, 0)])
    samples = harvest_llm_samples(stream, cfg, echo_for(stream, confidence=0.88))
    assert len(samples) == 2
    assert all(s.confidence == 0.88 for s in samples)
    assert [s.truth for s in samples] == [1, 0]


def test_harvest_llm_samples_skips_an_event_at_the_static_threshold():
    # Gate 1's boundary is inclusive: the event at 0.85 stays local and is
    # never asked (its missing truth would raise if it were).
    cfg = PipelineConfig()
    stream = host_stream([(0.85, 1, None), (0.8499, 1, 1)])
    client = echo_for(stream)
    samples = harvest_llm_samples(stream, cfg, client)
    assert [s.truth for s in samples] == [1]
    assert client.calls == 1


def test_harvest_llm_samples_requires_labels():
    cfg = PipelineConfig()
    stream = host_stream([(0.60, 1, None)])
    with pytest.raises(NoLabeledEvents):
        harvest_llm_samples(stream, cfg, echo_for(stream))


def test_calibrate_llm_for_layer_with_perfect_analyst():
    cfg = PipelineConfig()
    stream = host_stream([(0.6, 1, i % 2) for i in range(20)])
    samples = harvest_llm_samples(stream, cfg, echo_for(stream))
    cal = calibrate_llm_threshold(samples, cfg.llm_thresholds.p_min)
    # A perfect analyst is feasible everywhere; ties resolve to the
    # lowest candidate threshold.
    assert cal.feasible is True
    assert cal.threshold == 0.05
    assert cal.precision == 1.0
    assert cal.recall == 1.0


def test_calibrate_gate1_delegates_to_qcal():
    cfg = PipelineConfig(calib=CalibConfig(episodes=3))
    stream = host_stream([(0.5 + (i % 45) * 0.01, i % 2, i % 2) for i in range(400)])
    result = calibrate_gate1(stream, cfg)
    assert result.learned_threshold in cfg.calib.actions.thresholds
    assert result.episodes == 3


def test_run_mode_aggregates_layers():
    cfg = PipelineConfig()
    net = [
        make_scored(c, pred_label=p, truth=t, event_id=f"network-{i}", layer=LayerId.NETWORK)
        for i, (c, p, t) in enumerate([(0.9, 0, 0), (0.6, 1, 1), (0.88, 1, 1)])
    ]
    host = host_stream([(0.9, 0, 0), (0.55, 0, 0)])
    truths = {se.event.id: se.event.truth for se in net + host}
    scored = {LayerId.NETWORK: net, LayerId.HOST: host}
    mode_run, summary = run_mode(
        scored,
        {},
        Mode.STATIC,
        cfg,
        make_store=lambda layer, mode: fresh_store(cfg),
        make_client=lambda layer, mode: EchoLlmClient(truths),
    )
    assert set(mode_run.layer_runs) == {LayerId.NETWORK, LayerId.HOST}
    assert summary.mode == "static"
    assert summary.overall["total"] == 5
    assert summary.overall["known"] == 3
    assert summary.overall["uncertain"] == 2
    assert summary.overall["llm_calls"] == 2
    assert summary.started_at == "2000-01-01T00:00:00Z"
    assert summary.overall["metrics"]["tp"] == 2
    # Layers are summarized in routing order.
    assert [ls.layer for ls in summary.layers] == ["network", "host"]


def test_compare_modes_prices_the_escalation_gap():
    cfg = PipelineConfig()
    rows = [(0.5 + (i % 45) * 0.01, i % 2, i % 2) for i in range(200)]
    stream = host_stream(rows)
    truths = {se.event.id: se.event.truth for se in stream}
    comparison = compare_modes(
        {LayerId.HOST: stream},
        {LayerId.HOST: 0.60},
        cfg,
        make_store=lambda layer, mode: fresh_store(cfg),
        make_client=lambda layer, mode: EchoLlmClient(truths),
    )
    assert isinstance(comparison, Comparison)
    n_static = sum(1 for se in stream if se.confidence < 0.85)
    n_adaptive = sum(1 for se in stream if se.confidence < 0.60)
    assert comparison.cost.n_static == n_static
    assert comparison.cost.n_adaptive == n_adaptive
    assert comparison.cost.delta == n_static - n_adaptive
    assert comparison.static_summary.mode == "static"
    assert comparison.adaptive_summary.mode == "adaptive"
    assert comparison.static_summary.overall["uncertain"] == n_static
    assert comparison.adaptive_summary.overall["uncertain"] == n_adaptive
    assert comparison.adaptive.layer_runs[LayerId.HOST].summary.learned_threshold == 0.60
