"""Orchestration: run streams through the three gates and account for
every event.

The router walks a scored stream in order.  Confident events exit at
Gate-1.  The rest consult the attack-vector memory; matches exit at
Gate-2.  Gate-2 embeds its events once each and scans them against the
store in blocks of up to ``GATE2_BLOCK``, one ``MemoryStore.query`` per
block.  Survivors are batched (up to the configured parallelism) and
analyzed by the LLM client: the routing thread asks the first prompt of
a batch itself, and one worker pool per stream, of ``llm_parallelism -
1`` threads, asks the rest.  Verdicts are collected in batch order
before sinks are assigned, so promotions enter the memory store in
stream order and a run is deterministic for a fixed configuration.
Promotions made by a batch become visible to Gate-2 from the next event
on: a batch that promotes makes the rest of its Gate-2 block stale, and
the rest is scanned again.

A failed LLM call downgrades only its own event (to UNSURE, confidence
0); the stream keeps flowing.  A layer run keeps its scored stream and,
aligned with it, the sink each event reached; the audit and review rows
are built here as dicts, keys in file order.
"""

from __future__ import annotations

import itertools
import logging
import math
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from enum import Enum

import numpy as np

from .events import LayerId, ScoredEvent, ScoredStream, Sink, Verdict, working_verdict
from .llm import (
    FusionConfig,
    LlmSample,
    LlmThresholds,
    LlmHttpError,
    LlmTimeout,
    LlmVerdict,
    build_prompt,
    gate3_decide,
    parse_verdict,
    prompt_sha256,
)
from .memory import (
    EmbeddingConfig,
    MatchConfig,
    MatchResult,
    MemoryRecord,
    MemorySource,
    MemoryStore,
    embed,
    match_decision,
)
from .outputs import LayerSummary, RunSummary, make_clock
from .qcal import CalibConfig, CalibrationResult, calibrate, gate1_uncertain

logger = logging.getLogger(__name__)

# Distance recorded in a gate-2 trace when the store had no neighbors at
# all; beyond any real cosine distance.
NO_NEIGHBOR_DISTANCE = 2.0

# Most escalated events that Gate-2 scans against the store in one query.
GATE2_BLOCK = 32


class Mode(str, Enum):
    STATIC = "static"
    ADAPTIVE = "adaptive"


class NoLabeledEvents(ValueError):
    """Metrics requested over a stream with no ground truth."""


@dataclass(frozen=True)
class PipelineConfig:
    mode: Mode = Mode.ADAPTIVE
    static_threshold: float = 0.85
    eval_count: int = 5000
    train_ratio: float = 0.8
    seed: int = 0
    c_event: float = 1.0
    llm_parallelism: int = 4
    wall_clock: bool = False
    calib: CalibConfig = field(default_factory=CalibConfig)
    match: MatchConfig = field(default_factory=MatchConfig)
    embedding: EmbeddingConfig = field(default_factory=EmbeddingConfig)
    llm_thresholds: LlmThresholds = field(default_factory=LlmThresholds)
    fusion: FusionConfig = field(default_factory=FusionConfig)

    def __post_init__(self) -> None:
        if self.c_event < 0:
            raise ValueError(f"c_event must be >= 0, got {self.c_event}")
        if self.llm_parallelism < 1:
            raise ValueError("llm_parallelism must be >= 1")
        if self.eval_count < 1:
            raise ValueError(f"eval_count must be >= 1, got {self.eval_count}")
        if not 0.0 < self.train_ratio < 1.0:  # NaN fails too
            raise ValueError(f"train_ratio must be in (0, 1), got {self.train_ratio}")
        if not 0.0 <= self.static_threshold <= 1.0:
            raise ValueError(f"static_threshold must be in [0, 1], got {self.static_threshold}")


@dataclass
class LayerRun:
    """Everything one layer produced in one mode: ``scored`` is the stream
    it was given, ``sinks[i]`` the sink that its event ``i`` reached, and
    ``outcomes`` counts the events by (sink, model label, truth)."""

    layer: LayerId
    mode: Mode
    scored: ScoredStream
    sinks: list[Sink]
    outcomes: Counter
    summary: LayerSummary
    audits: list[dict]
    reviews: list[dict]

    @property
    def llm_calls(self) -> int:
        s = self.summary
        return s.llm_attack + s.llm_benign + s.llm_unsure


@dataclass(frozen=True)
class Metrics:
    tp: int
    fp: int
    fn: int
    tn: int
    deferred: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn

    @property
    def accuracy(self) -> float:
        return (self.tp + self.tn) / self.total if self.total else 0.0

    @property
    def precision(self) -> float:
        denom = self.tp + self.fp
        return self.tp / denom if denom else 0.0

    @property
    def recall(self) -> float:
        denom = self.tp + self.fn
        return self.tp / denom if denom else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if (p + r) else 0.0

    def to_dict(self) -> dict:
        return {
            **asdict(self),
            "accuracy": self.accuracy,
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
        }


def compute_metrics(outcomes: Counter) -> Metrics:
    """Confusion counts of the working verdicts against ground truth.

    ``outcomes`` counts events by (sink, model label, truth), as
    ``LayerRun.outcomes`` does; each key is scored by its
    :func:`working_verdict`, and keys without truth are left out.

    Raises:
        NoLabeledEvents: no key carries truth.
    """
    cells: Counter = Counter()  # (label, truth) pairs, and "deferred"
    for (sink, pred_label, truth), n in outcomes.items():
        if truth is not None:
            label, deferred = working_verdict(sink, pred_label)
            cells[label, truth] += n
            cells["deferred"] += n * deferred
    if not cells:
        raise NoLabeledEvents("metrics require at least one labeled event")
    tp, fp, fn, tn = cells[1, 1], cells[1, 0], cells[0, 1], cells[0, 0]
    return Metrics(tp=tp, fp=fp, fn=fn, tn=tn, deferred=cells["deferred"])


def _metrics_dict(outcomes: Counter) -> dict | None:
    """``compute_metrics`` as a dict, or None when no key carries truth."""
    if all(truth is None for _, _, truth in outcomes):
        return None
    return compute_metrics(outcomes).to_dict()


@dataclass(frozen=True)
class CostReport:
    """Escalation volumes and the derived cost delta.

    reduction_pct is one correctly rounded int/int division and is
    rendered at two decimals in serialized form; it is None when the
    static run escalated nothing.
    """

    n_static: int
    n_adaptive: int
    delta: int
    reduction_pct: float | None
    c_event: float
    cost_static: float
    cost_adaptive: float
    cost_saving: float

    def to_dict(self) -> dict:
        pct = self.reduction_pct
        return {**asdict(self), "reduction_pct": None if pct is None else round(pct, 2)}


def cost_analysis(n_static: int, n_adaptive: int, c_event: float) -> CostReport:
    """Escalation cost model: total cost is volume times per-event cost.

    Raises:
        ValueError: negative cost per event.
    """
    if c_event < 0:
        raise ValueError(f"c_event must be >= 0, got {c_event}")
    delta = n_static - n_adaptive
    return CostReport(
        n_static=n_static,
        n_adaptive=n_adaptive,
        delta=delta,
        reduction_pct=100 * delta / n_static if n_static else None,
        c_event=c_event,
        cost_static=n_static * c_event,
        cost_adaptive=n_adaptive * c_event,
        cost_saving=delta * c_event,
    )


def route_stream(
    layer: LayerId,
    scored: ScoredStream,
    threshold: float,
    cfg: PipelineConfig,
    store: MemoryStore,
    client,
    clock=None,
    mode: Mode | None = None,
) -> LayerRun:
    """Route one scored stream through the three gates.

    Gate 1 splits the stream with one comparison over its confidence
    column; each event then gets the sink it reached, in a list aligned
    with ``scored``.  Gate 2 reads ``scored.events.record(i)``; only Gate 3
    builds an event, ``scored[i]``.
    The gate trace is built for the review rows, the one record that
    keeps it.  The returned LayerRun's summary is counted after routing,
    from its outcomes table and the audit rows, and validated (the two
    must agree, and the four sinks must partition the stream) before it
    is handed back.
    """
    clock = clock if clock is not None else make_clock(cfg.wall_clock)
    mode = mode if mode is not None else cfg.mode
    llm_tau = cfg.llm_thresholds.tau[layer]
    uncertain = gate1_uncertain(scored.confidences, threshold)
    sinks: list[Sink | None] = [None if u else Sink.KNOWN_ACCEPT for u in uncertain.tolist()]
    audits: list[dict] = []
    reviews: list[dict] = []
    pending: list[tuple[int, ScoredEvent, np.ndarray, MatchResult, str]] = []

    def flush() -> bool:
        """Decide the pending batch; True if it wrote to the store."""
        if not pending:
            return False
        wrote = False
        futures = [pool.submit(ask_llm, client, se, prompt) for _, se, _, _, prompt in pending[1:]]
        _, first, _, _, prompt = pending[0]
        verdicts = [ask_llm(client, first, prompt)] + [f.result() for f in futures]
        for (i, se, vector, match, prompt), verdict in zip(pending, verdicts):
            decision = gate3_decide(se, verdict, layer, cfg.llm_thresholds, cfg.fusion)
            promoted = decision.sink is Sink.LLM_ATTACK
            if promoted:
                wrote = True
                store.insert(
                    MemoryRecord(
                        id=se.event.id,
                        layer=layer,
                        vector=vector,
                        attack_type=verdict.attack_type or "unknown",
                        source=MemorySource.LLM_PROMOTED,
                        created_at=clock.tick(),
                    )
                )
            sinks[i] = decision.sink
            audits.append(
                {
                    "event_id": se.event.id,
                    "layer": layer.value,
                    "gate": "gate3",
                    "prompt_sha256": prompt_sha256(prompt),
                    "llm_label": verdict.decision.value,
                    "llm_confidence": verdict.confidence,
                    "sink": decision.sink.value,
                    "provenance": decision.provenance.value,
                    "fused_score": decision.fused_score,
                    "created_at": clock.tick(),
                }
            )
            if promoted:
                continue
            nearest = match.nearest_distance
            if not math.isfinite(nearest):
                nearest = NO_NEIGHBOR_DISTANCE
            fused = decision.fused_score
            gate3_score = verdict.confidence if fused is None else fused
            reviews.append(
                {
                    "event_id": se.event.id,
                    "layer": layer.value,
                    "model_label": se.pred_label,
                    "model_confidence": se.confidence,
                    "llm_label": verdict.decision.value,
                    "llm_confidence": verdict.confidence,
                    "attack_type": verdict.attack_type,
                    "explanation": verdict.explanation,
                    "fused_score": fused,
                    "gate_trace": [
                        {"gate": "gate1", "decision": "uncertain", "score": se.confidence},
                        {"gate": "gate2", "decision": "no_match", "score": nearest},
                        {"gate": "gate3", "decision": "review", "score": gate3_score},
                    ],
                    "created_at": clock.tick(),
                }
            )
        pending.clear()
        return wrote

    def gate2(i: int, vector: np.ndarray, match: MatchResult) -> bool:
        """Record event ``i``'s Gate-2 decision and match it or queue it
        for Gate 3; True if that flushed a batch that wrote to the store."""
        audits.append(
            {
                "event_id": scored.events.ids[i],
                "layer": layer.value,
                "gate": "gate2",
                "nearest_distance": None
                if not math.isfinite(match.nearest_distance)
                else match.nearest_distance,
                "support": match.support,
                "meta_confidence": match.meta_confidence,
                "matched": match.matched,
                "record_id": match.record_id,
                "created_at": clock.tick(),
            }
        )
        if match.matched:
            sinks[i] = Sink.MEMORY_ATTACK
            return False
        se = scored[i]
        pending.append((i, se, vector, match, build_prompt(se, match)))
        return len(pending) >= cfg.llm_parallelism and flush()

    todo = iter(np.flatnonzero(uncertain).tolist())
    # (stream index, embedded payload) of the events Gate 2 scans next;
    # after a store write, the rest of a block is scanned again.
    block: list[tuple[int, np.ndarray]] = []

    # The routing thread asks the first prompt of a batch and the pool's
    # workers the rest; with llm_parallelism 1 no worker ever starts.
    with ThreadPoolExecutor(max_workers=max(1, cfg.llm_parallelism - 1)) as pool:
        while True:
            block = block or [
                (i, embed(scored.events.record(i), cfg.embedding))
                for i in itertools.islice(todo, GATE2_BLOCK)
            ]
            if not block:
                break
            found = store.query(np.stack([vector for _, vector in block]), cfg.match.k)
            for j, ((i, vector), neighbors) in enumerate(zip(block, found)):
                if gate2(i, vector, match_decision(neighbors, cfg.match)):
                    block = block[j + 1 :]
                    break
            else:
                block = []
        flush()

    assert None not in sinks, "an event reached no sink"
    outcomes = Counter(zip(sinks, scored.labels.tolist(), scored.events.truths))
    tally = Counter(sinks)
    gate3 = [a for a in audits if a["gate"] == "gate3"]
    labels = Counter(a["llm_label"] for a in gate3)
    attack, review = Verdict.ATTACK.value, Sink.REVIEW_BUCKET.value
    summary = LayerSummary(
        layer=layer.value,
        total=len(scored),
        known=tally[Sink.KNOWN_ACCEPT],
        uncertain=sum(a["gate"] == "gate2" for a in audits),
        memory_matched=tally[Sink.MEMORY_ATTACK],
        llm_attack=labels[attack],
        llm_benign=labels[Verdict.BENIGN.value],
        llm_unsure=labels[Verdict.UNSURE.value],
        llm_promoted=tally[Sink.LLM_ATTACK],
        fusion_rejected=sum(a["llm_label"] == attack and a["sink"] == review for a in gate3),
        bucket=tally[Sink.REVIEW_BUCKET],
        learned_threshold=threshold,
        llm_threshold=llm_tau,
        metrics=_metrics_dict(outcomes),
    ).validate()
    return LayerRun(layer, mode, scored, sinks, outcomes, summary, audits, reviews)


def ask_llm(client, se: ScoredEvent, prompt: str) -> LlmVerdict:
    """Ask the analyst about one escalated event.

    A timeout or HTTP failure answers (UNSURE, 0.0), so it downgrades
    only this event.
    """
    try:
        raw = client.generate(prompt)
    except (LlmTimeout, LlmHttpError) as exc:
        logger.warning("llm failure for %s: %s", se.event.id, exc)
        return LlmVerdict(Verdict.UNSURE, 0.0)
    return parse_verdict(raw)


def calibrate_gate1(
    train_scored: ScoredStream, cfg: PipelineConfig
) -> CalibrationResult:
    return calibrate(train_scored, cfg.calib, cfg.seed)


def harvest_llm_samples(
    train_scored: ScoredStream, cfg: PipelineConfig, client
) -> list[LlmSample]:
    """Run the labeled calibration split's escalations through the LLM.

    Escalation is judged at the static default threshold, and prompts
    carry no memory context, so the harvested sample only reflects the
    analyst model, not earlier promotions.
    """
    samples: list[LlmSample] = []
    uncertain = gate1_uncertain(train_scored.confidences, cfg.static_threshold)
    for i in np.flatnonzero(uncertain).tolist():
        se = train_scored[i]
        if se.event.truth is None:
            raise NoLabeledEvents(f"event {se.event.id} lacks truth")
        verdict = ask_llm(client, se, build_prompt(se))
        samples.append(
            LlmSample(
                confidence=verdict.confidence,
                decision=verdict.decision,
                truth=se.event.truth,
            )
        )
    return samples


@dataclass
class ModeRun:
    mode: Mode
    layer_runs: dict[LayerId, LayerRun]


LAYER_ORDER = (LayerId.NETWORK, LayerId.HOST, LayerId.HYPERVISOR)


def run_mode(
    scored_by_layer: dict[LayerId, ScoredStream],
    thresholds: dict[LayerId, float],
    mode: Mode,
    cfg: PipelineConfig,
    make_store,
    make_client,
) -> tuple[ModeRun, RunSummary]:
    """Run every layer once in one mode and summarize.

    The modes differ only in Gate 1's threshold: STATIC routes every
    layer on ``cfg.static_threshold``, ADAPTIVE each layer on its own
    entry of ``thresholds`` (a ValueError names a layer without one).
    One clock spans the whole run, so audit and review timestamps are
    ordered across layers and a seeded run reproduces byte-identical
    artifacts.  The mode's totals are summed here from the layers, into
    the summary's ``overall``, and read from there; its metrics are those
    of the layers' outcome tables added together.
    """
    layers = [layer for layer in LAYER_ORDER if layer in scored_by_layer]
    if mode is Mode.STATIC:
        thresholds = dict.fromkeys(layers, cfg.static_threshold)
    missing = [layer.value for layer in layers if layer not in thresholds]
    if missing:
        raise ValueError(f"adaptive mode has no Gate-1 threshold for layer {', '.join(missing)}")
    clock = make_clock(cfg.wall_clock)
    started = clock.tick()
    layer_runs = {
        layer: route_stream(
            layer,
            scored_by_layer[layer],
            thresholds[layer],
            cfg,
            make_store(layer, mode),
            make_client(layer, mode),
            clock=clock,
            mode=mode,
        )
        for layer in layers
    }
    finished = clock.tick()
    summaries = [lr.summary for lr in layer_runs.values()]
    overall: dict = {
        key: sum(getattr(s, key) for s in summaries)
        for key in ("total", "known", "uncertain", "memory_matched", "llm_promoted", "bucket")
    }
    overall["llm_calls"] = sum(lr.llm_calls for lr in layer_runs.values())
    overall["metrics"] = _metrics_dict(sum((lr.outcomes for lr in layer_runs.values()), Counter()))
    summary = RunSummary(
        mode=mode.value,
        seed=cfg.seed,
        started_at=started,
        finished_at=finished,
        layers=tuple(summaries),
        overall=overall,
    )
    return ModeRun(mode=mode, layer_runs=layer_runs), summary


@dataclass
class Comparison:
    static: ModeRun
    adaptive: ModeRun
    static_summary: RunSummary
    adaptive_summary: RunSummary
    cost: CostReport


def compare_modes(
    scored_by_layer: dict[LayerId, ScoredStream],
    thresholds: dict[LayerId, float],
    cfg: PipelineConfig,
    make_store,
    make_client,
) -> Comparison:
    """Run both modes over identical scored streams and price the gap.

    ``thresholds`` holds each layer's learned Gate-1 threshold for the
    adaptive run.  ``make_store(layer, mode)`` and ``make_client(layer,
    mode)`` supply fresh per-run dependencies so the two modes cannot
    contaminate each other.  Scores are computed once by the caller and
    both modes route the same streams, whose columns are read-only.
    """
    static_run, static_summary = run_mode(
        scored_by_layer, thresholds, Mode.STATIC, cfg, make_store, make_client
    )
    adaptive_run, adaptive_summary = run_mode(
        scored_by_layer, thresholds, Mode.ADAPTIVE, cfg, make_store, make_client
    )

    cost = cost_analysis(
        static_summary.overall["uncertain"],
        adaptive_summary.overall["uncertain"],
        cfg.c_event,
    )
    return Comparison(
        static=static_run,
        adaptive=adaptive_run,
        static_summary=static_summary,
        adaptive_summary=adaptive_summary,
        cost=cost,
    )
