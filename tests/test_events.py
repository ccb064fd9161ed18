import numpy as np
import pytest

from conftest import make_event, make_scored
from idsgate.events import (
    GATE_ORDER,
    GateRecord,
    LayerId,
    RoutedEvent,
    ScoredEvent,
    Sink,
    make_event_id,
    validate_trace,
)
from idsgate.memory import MemoryRecord, MemorySource
from idsgate.outputs import ReviewRecord


def test_layer_and_sink_values_round_trip():
    assert LayerId("network") is LayerId.NETWORK
    assert Sink("review_bucket") is Sink.REVIEW_BUCKET
    assert [s.value for s in Sink] == [
        "known_accept",
        "memory_attack",
        "llm_attack",
        "review_bucket",
    ]


@pytest.mark.parametrize(
    "build",
    [
        lambda: make_event(),
        lambda: make_scored(0.9),
        lambda: GateRecord("gate1", "uncertain", 0.6),
        lambda: RoutedEvent(make_scored(0.9), Sink.KNOWN_ACCEPT),
        lambda: MemoryRecord(
            "m-0", LayerId.NETWORK, np.zeros(4), "dos", MemorySource.MEMORY_SEEDED, "2024-01-01"
        ),
    ],
    ids=["Event", "ScoredEvent", "GateRecord", "RoutedEvent", "MemoryRecord"],
)
def test_per_event_records_are_slotted(build):
    # One of each is made per event; a per-instance dict would double its size.
    record = build()
    assert not hasattr(record, "__dict__")
    assert type(record).__slots__


def test_scored_event_rejects_bad_label():
    with pytest.raises(ValueError):
        ScoredEvent(event=make_event(), pred_label=2, confidence=0.5)


def test_scored_event_rejects_out_of_range_confidence():
    with pytest.raises(ValueError):
        ScoredEvent(event=make_event(), pred_label=0, confidence=1.2)
    with pytest.raises(ValueError):
        ScoredEvent(event=make_event(), pred_label=0, confidence=-0.01)


def test_scored_event_accepts_boundaries():
    assert ScoredEvent(event=make_event(), pred_label=1, confidence=0.0).confidence == 0.0
    assert ScoredEvent(event=make_event(), pred_label=0, confidence=1.0).confidence == 1.0


def test_gate_record_rejects_unknown_gate():
    with pytest.raises(ValueError):
        GateRecord(gate="gate9", decision="known", score=0.9)


def test_trace_must_start_at_gate1():
    with pytest.raises(ValueError):
        validate_trace((GateRecord("gate2", "match", 0.1),))


def test_trace_must_not_skip_gates():
    with pytest.raises(ValueError):
        validate_trace(
            (GateRecord("gate1", "uncertain", 0.6), GateRecord("gate3", "attack", 0.9))
        )


def test_trace_prefixes_are_valid():
    g1 = GateRecord("gate1", "uncertain", 0.6)
    g2 = GateRecord("gate2", "no_match", 0.8)
    g3 = GateRecord("gate3", "attack_direct", 0.9)
    for trace in ((g1,), (g1, g2), (g1, g2, g3)):
        validate_trace(trace)


def test_trace_cannot_exceed_gate_order():
    g1 = GateRecord("gate1", "uncertain", 0.6)
    g2 = GateRecord("gate2", "no_match", 0.8)
    g3 = GateRecord("gate3", "review", 0.9)
    with pytest.raises(ValueError):
        validate_trace((g1, g2, g3, g3))
    assert GATE_ORDER == ("gate1", "gate2", "gate3")


def test_trace_must_not_be_empty():
    with pytest.raises(ValueError, match="at least the gate1 record"):
        validate_trace(())
    # the review row, which keeps the trace, checks it
    with pytest.raises(ValueError, match="at least the gate1 record"):
        ReviewRecord(
            event_id="host-2",
            layer="host",
            model_label=0,
            model_confidence=0.55,
            llm_label="UNSURE",
            llm_confidence=0.0,
            attack_type="",
            explanation="",
            fused_score=None,
            gate_trace=(),
            created_at="2000-01-01T00:00:00Z",
        )


def test_final_label_promotes_attack_sinks():
    for sink in (Sink.MEMORY_ATTACK, Sink.LLM_ATTACK):
        routed = RoutedEvent(se=make_scored(0.6, pred_label=0), sink=sink)
        assert routed.final_label == 1
        assert not routed.deferred


def test_review_bucket_defers_and_keeps_model_label():
    routed = RoutedEvent(se=make_scored(0.6, pred_label=0), sink=Sink.REVIEW_BUCKET)
    assert routed.final_label == 0
    assert routed.deferred


def test_known_accept_keeps_model_label():
    routed = RoutedEvent(se=make_scored(0.99, pred_label=1), sink=Sink.KNOWN_ACCEPT)
    assert routed.final_label == 1
    assert not routed.deferred


def test_routed_event_is_a_scored_event_and_its_sink():
    assert RoutedEvent.__slots__ == ("se", "sink")


def test_make_event_id():
    assert make_event_id(LayerId.HYPERVISOR, 17) == "hypervisor-17"
