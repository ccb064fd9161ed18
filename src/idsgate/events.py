"""Core event and routing types shared by every stage of the pipeline.

Events flow through three gates per layer.  Gate-1 splits the stream on
model confidence, Gate-2 checks an embedded attack-vector memory, Gate-3
escalates to an LLM analyst.  Every event leaves the pipeline through
exactly one sink; :func:`working_verdict` reads a routed event's label
off its sink and its model label.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Callable

import numpy as np

if TYPE_CHECKING:
    from .scoring import TfidfRow


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


# The printer of each layer whose generator leaves an event's ``text``
# None: it prints the event's raw record from its feature row.  The
# corpus module registers them.
RAW_PRINTERS: dict[LayerId, Callable[[np.ndarray], str]] = {}


@dataclass(frozen=True, eq=False, slots=True)
class Event:
    """One observable unit: a flow record, a log line, or a hypervisor event.

    ``raw`` is the event's record: ``text``, the record as it was read,
    or for a generated event (``text`` None) the record printed from its
    feature row on each read.  ``features`` is the numeric vector the
    base classifier consumes; its length is layer-specific but constant
    within a run.  It is a dense array, except for a host evaluation
    event, whose features are a ``scoring.TfidfRow``: a sparse row that
    ``np.asarray`` reads as its dense vector.  ``truth`` is the optional
    binary ground-truth label (1 = attack) and ``truth_class`` the
    optional attack-class name used by generators and reports.
    """

    id: str
    layer: LayerId
    text: str | None
    features: np.ndarray | TfidfRow
    truth: int | None = None
    truth_class: str | None = None

    @property
    def raw(self) -> str:
        text = self.text
        return RAW_PRINTERS[self.layer](self.features) if text is None else text


@dataclass(frozen=True, eq=False, slots=True)
class ScoredEvent:
    """Row i of a :class:`ScoredStream`: an event, its ``int`` label and ``float`` confidence."""

    event: Event
    pred_label: int
    confidence: float


@dataclass(frozen=True, eq=False, slots=True)
class ScoredStream:
    """Each event's model label (0 or 1, int8) and confidence, in two columns
    made read-only here; ``stream[i]`` builds row i as a ``ScoredEvent``."""

    events: list[Event]
    labels: np.ndarray
    confidences: np.ndarray

    def __post_init__(self) -> None:
        self.labels.flags.writeable = False
        self.confidences.flags.writeable = False

    def __len__(self) -> int:
        return len(self.events)

    def __getitem__(self, i: int) -> ScoredEvent:
        return ScoredEvent(self.events[i], int(self.labels[i]), float(self.confidences[i]))

    def take(self, keep: list[int]) -> ScoredStream:
        """The rows ``keep``, in that order."""
        events = [self.events[i] for i in keep]
        return ScoredStream(events, self.labels[keep], self.confidences[keep])


def working_verdict(sink: Sink, pred_label: int) -> tuple[int, bool]:
    """The working (label, deferred) of an event in ``sink``: memory and LLM
    promotions are attacks, every other sink keeps the base model's
    label, and the review bucket defers it to a human."""
    label = 1 if sink in (Sink.MEMORY_ATTACK, Sink.LLM_ATTACK) else pred_label
    return label, sink is Sink.REVIEW_BUCKET


def make_event_id(layer: LayerId, ordinal: int) -> str:
    """Default event id scheme: ``<layer>-<ordinal>``.

    Stable ordinals keep replays and audit joins deterministic.
    """
    return f"{layer.value}-{ordinal}"
