import numpy as np
import pytest

import idsgate
from conftest import make_event, make_scored
from idsgate.events import (
    LayerId,
    ScoredEvent,
    Sink,
    make_event_id,
    working_verdict,
)
from idsgate.memory import MemoryRecord, MemorySource


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
        lambda: MemoryRecord(
            "m-0", LayerId.NETWORK, np.zeros(4), "dos", MemorySource.MEMORY_SEEDED, "2024-01-01"
        ),
    ],
    ids=["Event", "ScoredEvent", "MemoryRecord"],
)
def test_per_event_records_are_slotted(build):
    # One of each is made per event; a per-instance dict would double its size.
    record = build()
    assert not hasattr(record, "__dict__")
    assert type(record).__slots__


def test_scored_event_accepts_boundaries():
    assert ScoredEvent(event=make_event(), pred_label=1, confidence=0.0).confidence == 0.0
    assert ScoredEvent(event=make_event(), pred_label=0, confidence=1.0).confidence == 1.0


def test_final_label_promotes_attack_sinks():
    for sink in (Sink.MEMORY_ATTACK, Sink.LLM_ATTACK):
        assert working_verdict(sink, 0) == (1, False)
        assert working_verdict(sink, 1) == (1, False)


def test_review_bucket_defers_and_keeps_model_label():
    assert working_verdict(Sink.REVIEW_BUCKET, 0) == (0, True)
    assert working_verdict(Sink.REVIEW_BUCKET, 1) == (1, True)


def test_known_accept_keeps_model_label():
    assert working_verdict(Sink.KNOWN_ACCEPT, 0) == (0, False)
    assert working_verdict(Sink.KNOWN_ACCEPT, 1) == (1, False)


def test_make_event_id():
    assert make_event_id(LayerId.HYPERVISOR, 17) == "hypervisor-17"


def test_every_public_name_resolves():
    assert [name for name in idsgate.__all__ if not hasattr(idsgate, name)] == []
