"""Core event and routing types shared by every stage of the pipeline.

Events flow through three gates per layer.  Gate-1 splits the stream on
model confidence, Gate-2 checks an embedded attack-vector memory, Gate-3
escalates to an LLM analyst.  Every event leaves the pipeline through
exactly one sink; an event parked for review also keeps the gate trace
of the path it took.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np


class LayerId(str, Enum):
    """Detection layer an event belongs to."""

    NETWORK = "network"
    HOST = "host"
    HYPERVISOR = "hypervisor"


class Sink(str, Enum):
    """Terminal destination of a routed event.

    The four sinks partition a stream: an event is either accepted on the
    base model's verdict, matched against stored attack vectors, promoted
    to attack by the LLM stage, or parked for human review.
    """

    KNOWN_ACCEPT = "known_accept"
    MEMORY_ATTACK = "memory_attack"
    LLM_ATTACK = "llm_attack"
    REVIEW_BUCKET = "review_bucket"


class Verdict(str, Enum):
    """Label vocabulary used by the LLM analyst stage."""

    ATTACK = "ATTACK"
    BENIGN = "BENIGN"
    UNSURE = "UNSURE"


# Gate names in routing order.  Traces must follow this order and always
# start at gate1.
GATE_ORDER = ("gate1", "gate2", "gate3")


@dataclass(frozen=True, eq=False, slots=True)
class Event:
    """One observable unit: a flow record, a log line, or a hypervisor event.

    ``features`` is the dense numeric vector the base classifier consumes;
    its length is layer-specific but constant within a run.  ``truth`` is
    the optional binary ground-truth label (1 = attack) and ``truth_class``
    the optional attack-class name used by generators and reports.
    """

    id: str
    layer: LayerId
    raw: str
    features: np.ndarray
    truth: int | None = None
    truth_class: str | None = None


@dataclass(frozen=True, eq=False, slots=True)
class ScoredEvent:
    """An event plus the base model's binary prediction and confidence."""

    event: Event
    pred_label: int
    confidence: float

    def __post_init__(self) -> None:
        if self.pred_label not in (0, 1):
            raise ValueError(f"pred_label must be 0 or 1, got {self.pred_label!r}")
        if not (0.0 <= self.confidence <= 1.0):
            raise ValueError(f"confidence must be in [0, 1], got {self.confidence!r}")


@dataclass(frozen=True, slots=True)
class GateRecord:
    """One hop of an event's route: which gate, what it decided, the score
    the decision was based on (confidence, distance, or fused score)."""

    gate: str
    decision: str
    score: float

    def __post_init__(self) -> None:
        if self.gate not in GATE_ORDER:
            raise ValueError(f"unknown gate {self.gate!r}")


def working_verdict(sink: Sink, pred_label: int) -> tuple[int, bool]:
    """The working (label, deferred) of an event in ``sink``: memory and LLM
    promotions are attacks, every other sink keeps the base model's
    label, and the review bucket defers it to a human."""
    label = 1 if sink in (Sink.MEMORY_ATTACK, Sink.LLM_ATTACK) else pred_label
    return label, sink is Sink.REVIEW_BUCKET


@dataclass(frozen=True, eq=False, slots=True)
class RoutedEvent:
    """A scored event together with the sink it reached; ``final_label``
    and ``deferred`` are its :func:`working_verdict`."""

    se: ScoredEvent
    sink: Sink

    @property
    def final_label(self) -> int:
        return working_verdict(self.sink, self.se.pred_label)[0]

    @property
    def deferred(self) -> bool:
        return working_verdict(self.sink, self.se.pred_label)[1]


def validate_trace(trace: tuple[GateRecord, ...]) -> None:
    """Reject traces that skip gates or run them out of order.

    A valid trace visits a prefix of gate1 -> gate2 -> gate3, one record
    per gate, always starting at gate1.
    """
    if not trace:
        raise ValueError("gate trace must contain at least the gate1 record")
    for rec, expected in zip(trace, GATE_ORDER):
        if rec.gate != expected:
            raise ValueError(
                f"gate trace out of order: expected {expected!r}, got {rec.gate!r}"
            )
    if len(trace) > len(GATE_ORDER):
        raise ValueError("gate trace longer than the gate sequence")


def make_event_id(layer: LayerId, ordinal: int) -> str:
    """Default event id scheme: ``<layer>-<ordinal>``.

    Stable ordinals keep replays and audit joins deterministic.
    """
    return f"{layer.value}-{ordinal}"
