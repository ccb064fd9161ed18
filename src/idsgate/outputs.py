"""Run artifacts: confidence CSV, audit and review JSONL, run summary.

Audit and review rows are plain dicts, built by the router with their
keys in the order they are written; the JSONL writers dump them as they
are.  Timestamps default to a logical clock (a fixed base instant
advancing one second per tick) so a re-run with the same seed writes
byte-identical files; wall-clock time is opt-in.
"""

from __future__ import annotations

import datetime
import json
from dataclasses import asdict, dataclass, field

from .events import ScoredStream, Sink

CONFIDENCE_CSV_HEADER = "event_id,layer,pred_label,confidence,truth,route"

LOGICAL_CLOCK_BASE = datetime.datetime(2000, 1, 1, tzinfo=datetime.timezone.utc)


class IoWriteFailure(OSError):
    """An output file could not be written."""


def rfc3339(dt: datetime.datetime) -> str:
    return dt.astimezone(datetime.timezone.utc).isoformat(timespec="seconds").replace(
        "+00:00", "Z"
    )


class LogicalClock:
    """Deterministic timestamp source: base instant plus one second per
    tick.  Keeps seeded runs reproducible down to the byte."""

    def __init__(self, base: datetime.datetime = LOGICAL_CLOCK_BASE):
        self._current = base

    def tick(self) -> str:
        stamp = rfc3339(self._current)
        self._current += datetime.timedelta(seconds=1)
        return stamp


class WallClock:
    def tick(self) -> str:
        return rfc3339(datetime.datetime.now(datetime.timezone.utc))


def make_clock(wall: bool = False):
    return WallClock() if wall else LogicalClock()


class AccountingError(ValueError):
    """Layer tallies violate the routing arithmetic."""


@dataclass(frozen=True)
class LayerSummary:
    """Per-layer routing tallies, counted after routing from two records.

    The sinks give ``known``, ``memory_matched``, ``llm_promoted`` (the
    attacks accepted, directly or via fusion) and ``bucket``.  The audit
    log gives ``uncertain`` (its gate-2 rows), ``llm_attack`` /
    ``llm_benign`` / ``llm_unsure`` (the LLM labels of its gate-3 rows)
    and ``fusion_rejected`` (its ATTACK rows that went to review).
    """

    layer: str
    total: int
    known: int
    uncertain: int
    memory_matched: int
    llm_attack: int
    llm_benign: int
    llm_unsure: int
    llm_promoted: int
    fusion_rejected: int
    bucket: int
    learned_threshold: float
    llm_threshold: float
    metrics: dict | None = None

    def validate(self) -> "LayerSummary":
        """Check the routing identities; raises AccountingError.

        known + uncertain = total; the uncertain side splits into memory
        matches plus LLM-processed events; attacks split into promoted
        plus fusion-rejected; the bucket collects benign, unsure, and
        fusion-rejected; the four sinks partition the stream.  All but
        the last check the sinks against the audit log.
        """
        checks = [
            ("known + uncertain == total", self.known + self.uncertain == self.total),
            (
                "memory_matched + llm labels == uncertain",
                self.memory_matched + self.llm_attack + self.llm_benign + self.llm_unsure
                == self.uncertain,
            ),
            (
                "llm_attack == llm_promoted + fusion_rejected",
                self.llm_attack == self.llm_promoted + self.fusion_rejected,
            ),
            (
                "bucket == llm_benign + llm_unsure + fusion_rejected",
                self.bucket == self.llm_benign + self.llm_unsure + self.fusion_rejected,
            ),
            (
                "sinks partition the stream",
                self.known + self.memory_matched + self.llm_promoted + self.bucket
                == self.total,
            ),
        ]
        for name, ok in checks:
            if not ok:
                raise AccountingError(f"layer {self.layer}: {name} failed")
        return self

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class RunSummary:
    mode: str
    seed: int
    started_at: str
    finished_at: str
    layers: tuple[LayerSummary, ...]
    overall: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "seed": self.seed,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "layers": {ls.layer: ls.to_dict() for ls in self.layers},
            "overall": self.overall,
        }


def open_w(path: str):
    """``path`` opened for writing text; IoWriteFailure if it cannot be."""
    try:
        return open(path, "w", newline="", encoding="utf-8")
    except OSError as exc:
        raise IoWriteFailure(f"cannot write {path}: {exc}") from exc


def write_confidence_csv(path: str, runs: list[tuple[ScoredStream, list[Sink]]]) -> None:
    """One row per routed event, ``(scored, sinks)`` run after run."""
    with open_w(path) as fh:
        fh.write(CONFIDENCE_CSV_HEADER + "\n")
        for scored, sinks in runs:
            columns = (scored.events, scored.labels.tolist(), scored.confidences.tolist(), sinks)
            for e, label, confidence, sink in zip(*columns, strict=True):
                truth = "" if e.truth is None else str(e.truth)
                fh.write(f"{e.id},{e.layer.value},{label},{confidence!r},{truth},{sink.value}\n")


def write_jsonl(path: str, rows: list[dict]) -> None:
    with open_w(path) as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


def write_review_jsonl(path: str, rows: list[dict]) -> None:
    write_jsonl(path, rows)


def write_json(path: str, payload: dict) -> None:
    """``payload`` as indented JSON with a final newline."""
    with open_w(path) as fh:
        fh.write(json.dumps(payload, indent=2) + "\n")


def write_run_summary(path: str, summary: RunSummary) -> None:
    write_json(path, summary.to_dict())


def write_histogram_csv(
    path: str, rows: list[tuple[str, float]], bins: int = 20
) -> None:
    """Confidence histogram data per layer over [0, 1].

    ``rows`` are (layer, confidence) pairs; the top bin includes 1.0.
    """
    layers = sorted({layer for layer, _ in rows})
    counts = {layer: [0] * bins for layer in layers}
    for layer, conf in rows:
        idx = min(int(conf * bins), bins - 1)
        counts[layer][idx] += 1
    with open_w(path) as fh:
        fh.write("layer,bin_low,bin_high,count\n")
        for layer in layers:
            for i in range(bins):
                fh.write(
                    f"{layer},{i / bins:.2f},{(i + 1) / bins:.2f},{counts[layer][i]}\n"
                )


@dataclass(frozen=True)
class OutputPaths:
    confidence: str
    audit: str
    review: str
    summary: str


def output_paths(out_dir: str, mode: str, run_id: str) -> OutputPaths:
    """File names embed run id and mode so modes sit side by side."""
    stem = f"{mode}_{run_id}"
    return OutputPaths(
        confidence=f"{out_dir}/confidence_{stem}.csv",
        audit=f"{out_dir}/audit_{stem}.jsonl",
        review=f"{out_dir}/review_{stem}.jsonl",
        summary=f"{out_dir}/summary_{stem}.json",
    )
