"""Core event and routing types shared by every stage of the pipeline.

Events flow through three gates per layer.  Gate-1 splits the stream on
model confidence, Gate-2 checks an embedded attack-vector memory, Gate-3
escalates to an LLM analyst.  A layer's events travel as a
:class:`Corpus` of columns, scored into a :class:`ScoredStream`; an
:class:`Event` record is built from them only where one is read whole.
Every event leaves the pipeline through exactly one sink;
:func:`working_verdict` reads a routed event's label off its sink and
its model label.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Callable

import numpy as np

if TYPE_CHECKING:
    from .scoring import TfidfRows


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


# The features of every event of a corpus that holds no feature block: a
# replayed event, or a host event before its split's tf-idf rows are built.
PLACEHOLDER_FEATURES = np.zeros(1)
PLACEHOLDER_FEATURES.flags.writeable = False


@dataclass(frozen=True, eq=False, slots=True)
class Event:
    """One observable unit: a flow record, a log line, or a hypervisor event.

    ``raw`` is the event's record, as it was read or as it was printed
    from its feature row.  ``features`` is the dense numeric vector the
    base classifier consumes; its length is layer-specific but constant
    within a run.  ``truth`` is the optional binary ground-truth label
    (1 = attack) and ``truth_class`` the optional attack-class name used
    by generators and reports.  ``corpus[i]`` builds one.
    """

    id: str
    layer: LayerId
    raw: str
    features: np.ndarray
    truth: int | None = None
    truth_class: str | None = None


@dataclass(frozen=True, eq=False, slots=True)
class Corpus:
    """One layer's events as columns; ``corpus[i]`` builds row i as an
    ``Event``, and iterating a corpus builds each in turn.

    ``features`` is an ``(n, d)`` float64 block, the tf-idf rows of
    ``scoring.extract_features``, or None, when every event has
    ``PLACEHOLDER_FEATURES``.  ``texts`` holds the records as they were
    read; when it is None, ``printer`` prints each record from its feature
    row.
    """

    layer: LayerId
    ids: list[str]
    truths: list[int | None]
    classes: list[str | None]
    features: np.ndarray | TfidfRows | None = None
    texts: list[str] | None = None
    printer: Callable[[np.ndarray], str] | None = None

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, i: int) -> Event:
        features = self.features
        if features is None:
            row = PLACEHOLDER_FEATURES
        elif isinstance(features, np.ndarray):
            row = features[i]
        else:
            row = features.dense_row(i)
        return Event(self.ids[i], self.layer, self.record(i), row, self.truths[i], self.classes[i])

    def record(self, i: int) -> str:
        """Event ``i``'s raw record."""
        return self.printer(self.features[i]) if self.texts is None else self.texts[i]

    def take(self, rows: list[int]) -> Corpus:
        """The events ``rows``, in that order."""
        features, texts = self.features, self.texts
        if features is not None:
            features = features[rows] if isinstance(features, np.ndarray) else features.take(rows)
        columns = [[column[i] for i in rows] for column in (self.ids, self.truths, self.classes)]
        texts = None if texts is None else [texts[i] for i in rows]
        return Corpus(self.layer, *columns, features, texts, self.printer)


@dataclass(frozen=True, eq=False, slots=True)
class ScoredEvent:
    """Row i of a :class:`ScoredStream`: an event, its ``int`` label and ``float`` confidence."""

    event: Event
    pred_label: int
    confidence: float


@dataclass(frozen=True, eq=False, slots=True)
class ScoredStream:
    """A corpus's model labels (0 or 1, int8) and confidences, in two columns
    made read-only here; ``stream[i]`` builds row i as a ``ScoredEvent``."""

    events: Corpus
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
        return ScoredStream(self.events.take(keep), self.labels[keep], self.confidences[keep])


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
