"""End-to-end assembly: corpora, scorers, calibrations, runs, artifacts.

This is the layer between the CLI and the pipeline primitives.  It
knows how to produce events for each layer (generate or load), fit the
layer's extractor and base model on the training split, calibrate the
gates, run the modes, and write every artifact with run id and mode in
the file name.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import os

import numpy as np

from .config import ExperimentConfig
from .corpus import (
    HostGenConfig,
    HypGenConfig,
    MalformedCorpus,
    NetGenConfig,
    confidence_cell,
    csv_rows,
    gen_hostlogs,
    gen_hypervisor,
    gen_network,
    load_host_jsonl,
    load_hypervisor_csv,
    load_network_csv,
    split_train_test,
    write_host_jsonl,
    write_hypervisor_csv,
    write_network_csv,
)
from .events import Event, LayerId, ScoredEvent
from .llm import EchoLlmClient, HttpLlmClient, MockLlmClient, calibrate_llm_threshold
from .memory import MemoryStore, load_store
from .outputs import (
    OutputPaths,
    RunSummary,
    open_w,
    output_paths,
    write_confidence_csv,
    write_histogram_csv,
    write_json,
    write_jsonl,
    write_review_jsonl,
    write_run_summary,
)
from .pipeline import (
    Comparison,
    LAYER_ORDER,
    Mode,
    ModeRun,
    calibrate_gate1,
    compare_modes,
    harvest_llm_samples,
    run_mode,
)
from .scoring import (
    Scorer,
    TrainConfig,
    extract_features,
    fit_tfidf,
    load_replay_csv,
    score_stream,
    train_baseline,
)

logger = logging.getLogger(__name__)


class MalformedCalibration(ValueError):
    """A Gate-1 calibration file misses a routed layer or holds a bad threshold."""


NETWORK_FILE = "network.csv"
HOST_FILE = "host.jsonl"
HYPERVISOR_FILE = "hypervisor.csv"


@dataclasses.dataclass
class LayerBundle:
    """One layer, ready to run: its corpus, the evaluation events with
    their features (for the host layer, each a ``TfidfRow`` of one
    evaluation-sized block of sparse rows), the fitted scorer (``None``
    for replayed scores) and the scores of both splits."""

    layer: LayerId
    events: list[Event]
    eval_events: list[Event]
    scorer: Scorer | None
    train_scored: list[ScoredEvent]
    eval_scored: list[ScoredEvent]


def generate_events(layer: LayerId, xcfg: ExperimentConfig) -> list[Event]:
    seed = xcfg.pipeline.seed
    if layer is LayerId.NETWORK:
        return gen_network(
            NetGenConfig(
                count=xcfg.net_count,
                attack_fraction=xcfg.net_attack_fraction,
                separation=xcfg.net_separation,
                seed=seed,
            )
        )
    if layer is LayerId.HOST:
        return gen_hostlogs(
            HostGenConfig(
                count=xcfg.host_count,
                attack_fraction=xcfg.host_attack_fraction,
                ambiguity=xcfg.host_ambiguity,
                seed=seed + 1,
            )
        )
    return gen_hypervisor(HypGenConfig(seed=seed + 2))


def load_events(layer: LayerId, data_dir: str) -> list[Event]:
    if layer is LayerId.NETWORK:
        return load_network_csv(os.path.join(data_dir, NETWORK_FILE))
    if layer is LayerId.HOST:
        return load_host_jsonl(os.path.join(data_dir, HOST_FILE))
    return load_hypervisor_csv(os.path.join(data_dir, HYPERVISOR_FILE))


def prepare_layer(layer: LayerId, xcfg: ExperimentConfig) -> LayerBundle:
    """Read or generate the layer's input, split it, and score both splits.

    A ``replay:<csv>`` layer's file is its scored stream, split as events
    are.  Otherwise the base model is trained on the training split: a
    loaded corpus was checked by its reader, and a generated one is valid
    as it is made.  One function builds a split's features: its stacked
    event vectors or, for the host layer, its sparse tf-idf rows, fitted
    on the training split only, so evaluation text never leaks into the
    fit.  The model trains on the training split's features, and each
    split is scored from its own by the same call.  Only the host
    evaluation events keep their rows: each event's ``features`` is its
    ``TfidfRow`` of the split's sparse rows, and no dense block is built.
    The host ``train_scored`` holds the split's own events.
    """
    cfg = xcfg.pipeline
    spec = xcfg.scorers[layer]
    if spec.startswith("replay:"):
        stream = load_replay_csv(spec.removeprefix("replay:"), layer)
        train_scored, test = split_train_test(stream, cfg.train_ratio, cfg.seed)
        eval_scored = test[: cfg.eval_count]
        return LayerBundle(
            layer=layer,
            events=[se.event for se in stream],
            eval_events=[se.event for se in eval_scored],
            scorer=None,
            train_scored=train_scored,
            eval_scored=eval_scored,
        )
    events = load_events(layer, xcfg.data_dir) if xcfg.data_dir else generate_events(layer, xcfg)
    train, test = split_train_test(events, cfg.train_ratio, cfg.seed)
    eval_events = test[: cfg.eval_count]
    if layer is LayerId.HOST:
        extractor = fit_tfidf([e.raw for e in train])
        featurize = lambda split: extract_features([e.raw for e in split], extractor)
        x_train = featurize(train)
        scorer = train_baseline(train, x_train, TrainConfig(seed=cfg.seed))
    else:
        # A split stacks to (n, d), even when empty.  train_baseline consumes
        # its matrix, so the training split is stacked again, after, to be
        # scored: one stack at a time, where a copy would hold two.
        d = len(events[0].features)
        featurize = lambda split: np.array([e.features for e in split], np.float64).reshape(-1, d)
        scorer = train_baseline(train, featurize(train), TrainConfig(seed=cfg.seed))
        x_train = featurize(train)
    train_scored = score_stream(train, scorer, x_train)
    x_eval = featurize(eval_events)
    if layer is LayerId.HOST:
        eval_events = [
            dataclasses.replace(e, features=x_eval.row(i)) for i, e in enumerate(eval_events)
        ]
    return LayerBundle(
        layer=layer,
        events=events,
        eval_events=eval_events,
        scorer=scorer,
        train_scored=train_scored,
        eval_scored=score_stream(eval_events, scorer, x_eval),
    )


def prepare_bundles(xcfg: ExperimentConfig) -> dict[LayerId, LayerBundle]:
    return {layer: prepare_layer(layer, xcfg) for layer in LAYER_ORDER if layer in xcfg.layers}


def truth_maps(
    bundles: dict[LayerId, LayerBundle]
) -> tuple[dict[str, int], dict[str, str]]:
    truths: dict[str, int] = {}
    attack_types: dict[str, str] = {}
    for bundle in bundles.values():
        for e in bundle.events:
            if e.truth is not None:
                truths[e.id] = e.truth
            if e.truth_class:
                attack_types[e.id] = e.truth_class
    return truths, attack_types


def client_factory(xcfg: ExperimentConfig, bundles: dict[LayerId, LayerBundle]):
    """Build a fresh LLM client per (layer, mode) run.

    Specs: ``echo[:confidence]`` answers with ground truth (evaluation
    oracle), ``table:<path>`` replays canned responses keyed by prompt
    hash (the file is read once, here), ``http`` talks to the configured
    endpoint.  ``ExperimentConfig`` has checked the spec, so one that is
    neither echo nor table is http.
    """
    spec = xcfg.llm_spec
    if spec.startswith("echo"):
        _, _, conf = spec.partition(":")
        confidence = float(conf) if conf else 0.9
        truths, attack_types = truth_maps(bundles)

        def make(layer: LayerId, mode: Mode):
            return EchoLlmClient(truths, confidence, attack_types)

        return make
    if spec.startswith("table:"):
        table = MockLlmClient.from_jsonl(spec.removeprefix("table:")).table

        def make(layer: LayerId, mode: Mode):
            return MockLlmClient(table)

        return make

    def make(layer: LayerId, mode: Mode):
        return HttpLlmClient(
            xcfg.llm_url,
            xcfg.llm_model,
            timeout=xcfg.llm_timeout,
            retries=xcfg.llm_retries,
        )

    return make


def store_factory(xcfg: ExperimentConfig):
    dims = xcfg.pipeline.embedding.dims

    def make(layer: LayerId, mode: Mode) -> MemoryStore:
        if xcfg.memory_dir:
            os.makedirs(xcfg.memory_dir, exist_ok=True)
            path = os.path.join(
                xcfg.memory_dir, f"memory_{layer.value}_{mode.value}.jsonl"
            )
            return load_store(path, dims)
        return MemoryStore(dims=dims)

    return make


def gate1_calibrations(
    bundles: dict[LayerId, LayerBundle], xcfg: ExperimentConfig
) -> dict[LayerId, float]:
    """Each layer's Gate-1 threshold, learned on its training split."""
    return {
        layer: calibrate_gate1(bundle.train_scored, xcfg.pipeline).learned_threshold
        for layer, bundle in bundles.items()
    }


def run_id_of(xcfg: ExperimentConfig) -> str:
    return f"run{xcfg.pipeline.seed}"


def write_mode_artifacts(
    xcfg: ExperimentConfig, mode_run: ModeRun, summary: RunSummary
) -> OutputPaths:
    os.makedirs(xcfg.out_dir, exist_ok=True)
    paths = output_paths(xcfg.out_dir, mode_run.mode.value, run_id_of(xcfg))
    runs = [mode_run.layer_runs[layer] for layer in LAYER_ORDER if layer in mode_run.layer_runs]
    write_confidence_csv(
        paths.confidence,
        [se for lr in runs for se in lr.scored],
        [sink for lr in runs for sink in lr.sinks],
    )
    write_jsonl(paths.audit, [row for lr in runs for row in lr.audits])
    write_review_jsonl(paths.review, [row for lr in runs for row in lr.reviews])
    write_run_summary(paths.summary, summary)
    return paths


def do_gen(xcfg: ExperimentConfig) -> dict[str, str]:
    """Generate the selected corpora and write them under the out dir."""
    os.makedirs(xcfg.out_dir, exist_ok=True)
    files = {
        LayerId.NETWORK: (NETWORK_FILE, write_network_csv),
        LayerId.HOST: (HOST_FILE, write_host_jsonl),
        LayerId.HYPERVISOR: (HYPERVISOR_FILE, write_hypervisor_csv),
    }
    written: dict[str, str] = {}
    for layer in xcfg.layers:
        name, write = files[layer]
        written[layer.value] = os.path.join(xcfg.out_dir, name)
        write(generate_events(layer, xcfg), written[layer.value])
    return written


def do_calibrate(xcfg: ExperimentConfig) -> str:
    """Calibrate Gate-1 per layer and persist the learned thresholds."""
    bundles = prepare_bundles(xcfg)
    calibs = {
        layer: calibrate_gate1(bundle.train_scored, xcfg.pipeline)
        for layer, bundle in bundles.items()
    }
    os.makedirs(xcfg.out_dir, exist_ok=True)
    path = os.path.join(xcfg.out_dir, f"calibration_{run_id_of(xcfg)}.json")
    payload = {
        "seed": xcfg.pipeline.seed,
        "episodes": xcfg.pipeline.calib.episodes,
        "layers": {
            layer.value: {
                "learned_threshold": calibs[layer].learned_threshold,
                "action_histogram": {
                    f"{t}": n for t, n in sorted(calibs[layer].action_histogram.items())
                },
            }
            for layer in sorted(calibs, key=lambda l: l.value)
        },
    }
    write_json(path, payload)
    return path


def load_calibration(path: str, layers: tuple[LayerId, ...]) -> dict[LayerId, float]:
    """Gate-1 thresholds saved by ``do_calibrate``, checked for the routed ``layers``.

    Raises:
        MalformedCalibration: ``<path>: ...`` for a file without a
            ``layers`` object, a layer of ``layers`` without a threshold,
            a name that is not a layer, or a threshold that is not a
            finite number in [0, 1].
    """
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    entries = payload.get("layers") if isinstance(payload, dict) else None
    if not isinstance(entries, dict):
        raise MalformedCalibration(f"{path}: no 'layers' object")
    out: dict[LayerId, float] = {}
    for name, entry in entries.items():
        if name not in {layer.value for layer in LayerId}:
            raise MalformedCalibration(f"{path}: unknown layer {name!r}")
        tau = entry.get("learned_threshold") if isinstance(entry, dict) else None
        # NaN fails the range test too
        if isinstance(tau, bool) or not isinstance(tau, (int, float)) or not 0 <= tau <= 1:
            raise MalformedCalibration(
                f"{path}: layer {name}: learned_threshold {tau!r} is not a number in [0, 1]"
            )
        # Routing reads only the threshold; the file's histogram and
        # episode count are a record of the run, left unparsed.
        out[LayerId(name)] = float(tau)
    missing = [layer.value for layer in layers if layer not in out]
    if missing:
        raise MalformedCalibration(f"{path}: no threshold for layer {', '.join(missing)}")
    return out


def do_calibrate_llm(xcfg: ExperimentConfig) -> str:
    """Calibrate per-layer LLM thresholds on the training split."""
    bundles = prepare_bundles(xcfg)
    make_client = client_factory(xcfg, bundles)
    os.makedirs(xcfg.out_dir, exist_ok=True)
    results = {}
    p_min = xcfg.pipeline.llm_thresholds.p_min
    for layer, bundle in bundles.items():
        client = make_client(layer, Mode.ADAPTIVE)
        cal = calibrate_llm_threshold(
            harvest_llm_samples(bundle.train_scored, xcfg.pipeline, client), p_min
        )
        if not cal.feasible:
            logger.warning(
                "layer %s: no LLM threshold reaches precision %.2f; calibration failed",
                layer.value,
                p_min,
            )
        results[layer.value] = dataclasses.asdict(cal)
    path = os.path.join(xcfg.out_dir, f"llm_thresholds_{run_id_of(xcfg)}.json")
    write_json(path, {"p_min": p_min, "layers": results})
    return path


def do_run(
    xcfg: ExperimentConfig, calibration_path: str | None = None
) -> tuple[ModeRun, RunSummary, OutputPaths]:
    """One full run in the configured mode; writes all artifacts.

    A calibration file is read and checked in either mode, before any
    set-up; static mode routes on ``static_threshold`` and uses none of
    its thresholds.
    """
    cfg = xcfg.pipeline
    thresholds = load_calibration(calibration_path, xcfg.layers) if calibration_path else {}
    bundles = prepare_bundles(xcfg)
    if not calibration_path and cfg.mode is Mode.ADAPTIVE:
        thresholds = gate1_calibrations(bundles, xcfg)
    scored = {layer: bundle.eval_scored for layer, bundle in bundles.items()}
    mode_run, summary = run_mode(
        scored,
        thresholds,
        cfg.mode,
        cfg,
        store_factory(xcfg),
        client_factory(xcfg, bundles),
    )
    paths = write_mode_artifacts(xcfg, mode_run, summary)
    return mode_run, summary, paths


def do_compare(
    xcfg: ExperimentConfig, calibration_path: str | None = None
) -> tuple[Comparison, dict[str, str]]:
    """Both modes on shared scores; writes artifacts plus the comparison."""
    bundles = prepare_bundles(xcfg)
    if calibration_path:
        thresholds = load_calibration(calibration_path, xcfg.layers)
    else:
        thresholds = gate1_calibrations(bundles, xcfg)
    scored = {layer: bundle.eval_scored for layer, bundle in bundles.items()}
    comp = compare_modes(
        scored,
        thresholds,
        xcfg.pipeline,
        store_factory(xcfg),
        client_factory(xcfg, bundles),
    )
    files: dict[str, str] = {}
    static_paths = write_mode_artifacts(xcfg, comp.static, comp.static_summary)
    adaptive_paths = write_mode_artifacts(xcfg, comp.adaptive, comp.adaptive_summary)
    files["static_summary"] = static_paths.summary
    files["adaptive_summary"] = adaptive_paths.summary

    run_id = run_id_of(xcfg)
    compare_path = os.path.join(xcfg.out_dir, f"compare_{run_id}.json")
    payload = {
        "cost": comp.cost.to_dict(),
        "learned_thresholds": {
            layer.value: thresholds[layer]
            for layer in sorted(thresholds, key=lambda l: l.value)
            if layer in scored
        },
        "static": _mode_digest(comp.static_summary),
        "adaptive": _mode_digest(comp.adaptive_summary),
    }
    write_json(compare_path, payload)
    files["compare"] = compare_path

    table_path = os.path.join(xcfg.out_dir, f"compare_table_{run_id}.csv")
    with open_w(table_path) as fh:
        fh.write(
            "layer,mode,total,known,uncertain,memory_matched,llm_promoted,bucket,threshold\n"
        )
        for mode_run in (comp.static, comp.adaptive):
            runs = mode_run.layer_runs
            for s in (runs[layer].summary for layer in LAYER_ORDER if layer in runs):
                fh.write(
                    f"{s.layer},{mode_run.mode.value},{s.total},{s.known},"
                    f"{s.uncertain},{s.memory_matched},{s.llm_promoted},{s.bucket},"
                    f"{s.learned_threshold}\n"
                )
    files["table"] = table_path
    return comp, files


def _mode_digest(summary: RunSummary) -> dict:
    return {key: summary.overall[key] for key in ("uncertain", "llm_calls", "metrics")}


def do_report(xcfg: ExperimentConfig) -> list[str]:
    """Re-render histogram CSVs from stored confidence files.

    Raises:
        MalformedCorpus: ``<path>:<line>: ...`` for a missing ``layer`` or
            ``confidence`` column, a ragged row, a layer cell that names
            no layer, or a confidence that is not a number in [0, 1].
    """
    run_id = run_id_of(xcfg)
    layer_names = {layer.value for layer in LayerId}
    written: list[str] = []
    for mode in (Mode.STATIC, Mode.ADAPTIVE):
        src = output_paths(xcfg.out_dir, mode.value, run_id).confidence
        if not os.path.exists(src):
            continue
        rows: list[tuple[str, float]] = []
        with open(src, newline="", encoding="utf-8") as fh:
            for line, row in csv_rows(fh, src, ("layer", "confidence")):
                where = f"{src}:{line}"
                if row["layer"] not in layer_names:
                    raise MalformedCorpus(f"{where}: layer {row['layer']!r} names no layer")
                rows.append((row["layer"], confidence_cell(row["confidence"], where)))
        dest = os.path.join(xcfg.out_dir, f"histogram_{mode.value}_{run_id}.csv")
        write_histogram_csv(dest, rows)
        written.append(dest)
    return written
