"""End-to-end acceptance checks for the routing pipeline.

Each test here is one acceptance criterion; the conftest terminal hook
prints one ACCEPTANCE <name>: PASSED/FAILED line per test.  Runs that
route real event streams register their LayerRun objects in
conftest.ACCEPTANCE_RUNS so the sink partition check (last in this
module) can recount every routed stream independently.
"""

import json
import random
import time
from collections import Counter

import numpy as np

from conftest import ACCEPTANCE_RUNS, hidslike_stream, make_stream
from idsgate.cli import main as cli_main
from idsgate.config import build_experiment_config
from idsgate.corpus import HYP_COLUMNS, HypGenConfig, gen_hypervisor
from idsgate.events import Event, LayerId, ScoredEvent, ScoredStream, Sink, Verdict
from idsgate.experiment import (
    gate1_calibrations,
    prepare_bundles,
    store_factory,
    truth_maps,
)
from idsgate.llm import (
    EchoLlmClient,
    FusionConfig,
    LlmSample,
    calibrate_llm_threshold,
    default_threshold_grid,
    fuse,
    prompt_sha256,
)
from idsgate.memory import MemoryStore, load_store
from idsgate.outputs import LayerSummary
from idsgate.pipeline import (
    Mode,
    PipelineConfig,
    compare_modes,
    cost_analysis,
    route_stream,
)
from idsgate.qcal import bellman_update, calibrate


def test_cost_replay():
    t0 = time.perf_counter()
    n_static = 195 + 2335 + 159
    n_adaptive = 178 + 749 + 182
    report = cost_analysis(n_static, n_adaptive, c_event=1.0)
    assert report.delta == 1580
    assert abs(report.reduction_pct - 58.76) <= 0.005
    assert time.perf_counter() - t0 < 1.0


def test_bucket_replay():
    summaries = [
        LayerSummary(
            layer="network", total=5000, known=4822, uncertain=178,
            memory_matched=0, llm_attack=175, llm_benign=0, llm_unsure=3,
            llm_promoted=175, fusion_rejected=0, bucket=3,
            learned_threshold=0.62, llm_threshold=0.69,
        ),
        LayerSummary(
            layer="host", total=5000, known=4251, uncertain=749,
            memory_matched=0, llm_attack=385, llm_benign=236, llm_unsure=128,
            llm_promoted=385, fusion_rejected=0, bucket=364,
            learned_threshold=0.62, llm_threshold=0.61,
        ),
        LayerSummary(
            layer="hypervisor", total=5000, known=4818, uncertain=182,
            memory_matched=0, llm_attack=1, llm_benign=0, llm_unsure=181,
            llm_promoted=1, fusion_rejected=0, bucket=181,
            learned_threshold=0.62, llm_threshold=0.89,
        ),
    ]
    for summary in summaries:
        summary.validate()
    assert [s.bucket for s in summaries] == [3, 364, 181]
    assert sum(s.bucket for s in summaries) == 548


def test_value_update_oracle():
    t0 = time.perf_counter()
    rng = random.Random(20260819)
    for _ in range(10000):
        n_actions = rng.randint(1, 6)
        alpha, gamma = rng.random(), rng.random()
        q = [[0.0] * n_actions for _ in range(250)]
        state, next_state = rng.randrange(250), rng.randrange(250)
        action = rng.randrange(n_actions)
        for a in range(n_actions):
            q[next_state][a] = rng.uniform(-5.0, 5.0)
        if rng.random() < 0.5:
            q[state][action] = rng.uniform(-5.0, 5.0)
        r = rng.uniform(-4.0, 2.0)
        # Read the same pre-update values the implementation reads.
        q0 = q[state][action]
        next_best = max(q[next_state][a] for a in range(n_actions))
        expected = q0 + alpha * (r + gamma * next_best - q0)
        got = bellman_update(q, state, action, r, next_state, alpha, gamma)
        assert abs(got - expected) <= 1e-12
        assert q[state][action] == got
    assert time.perf_counter() - t0 < 5.0


def _sweep_reference(samples, grid, p_min):
    """Exhaustive threshold sweep: (threshold, recall) pairs that clear
    the precision floor."""
    n_attacks = sum(1 for s in samples if s.truth == 1)
    feasible = []
    for t in grid:
        tp = fp = 0
        for s in samples:
            if s.decision is Verdict.ATTACK and s.confidence >= t:
                if s.truth == 1:
                    tp += 1
                else:
                    fp += 1
        precision = tp / (tp + fp) if (tp + fp) else 0.0
        if precision >= p_min:
            feasible.append((t, tp / n_attacks))
    return feasible


def test_llm_threshold_soundness():
    t0 = time.perf_counter()
    grid = default_threshold_grid()
    rng = random.Random(41)
    verdicts = (Verdict.ATTACK, Verdict.ATTACK, Verdict.BENIGN, Verdict.UNSURE)
    for _ in range(50):
        n = rng.randint(5, 60)
        samples = [
            LlmSample(
                confidence=round(rng.random(), 3),
                decision=rng.choice(verdicts),
                truth=1 if rng.random() < 0.45 else 0,
            )
            for _ in range(n)
        ]
        if not any(s.truth == 1 for s in samples):
            samples[0] = LlmSample(
                confidence=samples[0].confidence,
                decision=samples[0].decision,
                truth=1,
            )
        result = calibrate_llm_threshold(samples, p_min=0.80)
        feasible = _sweep_reference(samples, grid, 0.80)
        if feasible:
            assert result.feasible
            assert result.precision >= 0.80
            # No feasible candidate may beat the chosen recall.
            assert not any(recall > result.recall for _, recall in feasible)
            assert result.recall == max(recall for _, recall in feasible)
        else:
            assert not result.feasible
            assert result.threshold == max(grid)
    assert time.perf_counter() - t0 < 10.0


def test_fusion_kernel():
    t0 = time.perf_counter()
    fc = FusionConfig()
    assert (fc.w_model, fc.w_llm) == (0.2, 0.8)
    assert fuse(0.5, 0.7, fc) == 0.66
    rng = random.Random(7)
    for _ in range(1000):
        c_model = round(rng.random(), 6)
        c_llm = round(rng.random(), 6)
        fused = fuse(c_model, c_llm, fc)
        assert min(c_model, c_llm) <= fused <= max(c_model, c_llm)
    assert time.perf_counter() - t0 < 1.0


def test_adaptive_beats_static():
    t0 = time.perf_counter()
    cfg = PipelineConfig(seed=2, static_threshold=0.85)
    calib = calibrate(hidslike_stream(2, 60000, "hcal"), cfg.calib, seed=2)
    assert calib.learned_threshold < cfg.static_threshold

    eval_stream = hidslike_stream(3, 5000, "heval")
    truths = {se.event.id: se.event.truth for se in eval_stream}
    attack_types = {
        se.event.id: se.event.truth_class
        for se in eval_stream
        if se.event.truth_class
    }
    comp = compare_modes(
        {LayerId.HOST: eval_stream},
        {LayerId.HOST: calib.learned_threshold},
        cfg,
        lambda layer, mode: MemoryStore(dims=cfg.embedding.dims),
        lambda layer, mode: EchoLlmClient(truths, 0.9, attack_types),
    )
    ACCEPTANCE_RUNS.append(
        ("escalation_static_host", comp.static.layer_runs[LayerId.HOST])
    )
    ACCEPTANCE_RUNS.append(
        ("escalation_adaptive_host", comp.adaptive.layer_runs[LayerId.HOST])
    )

    static_unc = comp.static.layer_runs[LayerId.HOST].summary.uncertain
    adaptive_unc = comp.adaptive.layer_runs[LayerId.HOST].summary.uncertain
    assert adaptive_unc <= 0.5 * static_unc
    # Same direction as the reference comparison: the adaptive threshold
    # escalates a strictly smaller fraction of the stream.
    assert adaptive_unc / 5000 < static_unc / 5000

    m_static = comp.static_summary.overall["metrics"]
    m_adaptive = comp.adaptive_summary.overall["metrics"]
    assert m_static is not None and m_adaptive is not None
    assert m_static["accuracy"] - m_adaptive["accuracy"] <= 0.02
    assert time.perf_counter() - t0 < 60.0


def test_generator_fidelity():
    t0 = time.perf_counter()
    corpus = gen_hypervisor(HypGenConfig())
    assert len(corpus) == 25000
    counts = Counter(
        cls if truth == 1 else "normal" for truth, cls in zip(corpus.truths, corpus.classes)
    )
    assert counts == {
        "normal": 12500,
        "vm_lateral_movement": 2541,
        "vm_escape": 2501,
        "snapshot_abuse": 2500,
        "hypervisor_dos": 2488,
        "hyper_jacking": 2470,
    }
    assert len(HYP_COLUMNS) == 24
    for i in range(200):
        # The raw line carries every column except the class label.
        assert len(corpus.record(i).split(" ")) == len(HYP_COLUMNS) - 1
    assert time.perf_counter() - t0 < 10.0


def _warmup_stream() -> tuple[ScoredStream, dict[str, int], dict[str, str]]:
    rng = random.Random(11)
    patterns = [
        " ".join(f"atk{p:02d}tok{j:02d}" for j in range(6)) for p in range(25)
    ]
    rows: list[tuple[str, str, int]] = []
    for p, pattern in enumerate(patterns):
        for k in range(8):
            rows.append((f"warm-a{p:02d}-{k}", pattern, 1))
    for i in range(200):
        benign_raw = " ".join(f"ben{i:03d}w{j}" for j in range(6))
        rows.append((f"warm-b{i:03d}", benign_raw, 0))
    rng.shuffle(rows)
    stream = []
    for event_id, raw, truth in rows:
        event = Event(
            id=event_id,
            layer=LayerId.HOST,
            raw=raw,
            features=np.zeros(1),
            truth=truth,
            truth_class="replayed_attack" if truth == 1 else None,
        )
        stream.append(
            ScoredEvent(
                event=event,
                pred_label=rng.randrange(2),
                confidence=round(0.5 + rng.random() * 0.3, 4),
            )
        )
    truths = {se.event.id: se.event.truth for se in stream}
    attack_types = {
        se.event.id: se.event.truth_class
        for se in stream
        if se.event.truth_class
    }
    return make_stream(stream), truths, attack_types


def test_memory_warmup(tmp_path):
    t0 = time.perf_counter()
    stream, truths, attack_types = _warmup_stream()
    cfg = PipelineConfig(seed=7, static_threshold=0.85)
    path = str(tmp_path / "memory_host.jsonl")

    run1 = route_stream(
        LayerId.HOST,
        stream,
        cfg.static_threshold,
        cfg,
        store=load_store(path, cfg.embedding.dims),
        client=EchoLlmClient(truths, 0.9, attack_types),
        mode=Mode.STATIC,
    )
    store2 = load_store(path, cfg.embedding.dims)
    assert len(store2) == 25
    run2 = route_stream(
        LayerId.HOST,
        stream,
        cfg.static_threshold,
        cfg,
        store=store2,
        client=EchoLlmClient(truths, 0.9, attack_types),
        mode=Mode.STATIC,
    )
    ACCEPTANCE_RUNS.append(("warmup_run1", run1))
    ACCEPTANCE_RUNS.append(("warmup_run2", run2))

    assert run2.llm_calls <= run1.llm_calls
    # With every attack pattern remembered, only the 200 distinct benign
    # events still need the analyst.
    assert run2.llm_calls == 200
    assert run2.summary.memory_matched > run1.summary.memory_matched

    matches = 0
    for run in (run1, run2):
        for audit in run.audits:
            if audit["gate"] == "gate2" and audit["matched"]:
                matches += 1
                assert audit["nearest_distance"] is not None
                assert audit["nearest_distance"] <= 0.15
    assert matches > 0
    assert time.perf_counter() - t0 < 60.0


def test_compare_determinism(tmp_path):
    kv = {
        "net_count": "400",
        "host_count": "400",
        "eval_count": "60",
        "episodes": "2",
        "layers": "network,host",
        "seed": "5",
    }
    xcfg = build_experiment_config({**kv, "out_dir": str(tmp_path / "rec")})
    bundles = prepare_bundles(xcfg)
    calibs = gate1_calibrations(bundles, xcfg)
    truths, attack_types = truth_maps(bundles)

    table: dict[str, str] = {}

    class Recording:
        def __init__(self, inner):
            self.inner = inner

        def generate(self, prompt: str) -> str:
            response = self.inner.generate(prompt)
            table[prompt_sha256(prompt)] = response
            return response

    scored = {layer: bundle.eval_scored for layer, bundle in bundles.items()}
    comp = compare_modes(
        scored,
        calibs,
        xcfg.pipeline,
        store_factory(xcfg),
        lambda layer, mode: Recording(EchoLlmClient(truths, 0.9, attack_types)),
    )
    for mode_name, mode_run in (("static", comp.static), ("adaptive", comp.adaptive)):
        for layer, layer_run in mode_run.layer_runs.items():
            ACCEPTANCE_RUNS.append(
                (f"determinism_{mode_name}_{layer.value}", layer_run)
            )
    assert table

    table_path = tmp_path / "responses.jsonl"
    with open(table_path, "w", encoding="utf-8") as fh:
        for digest, response in table.items():
            fh.write(
                json.dumps({"prompt_sha256": digest, "response": response}) + "\n"
            )

    cfg_path = tmp_path / "compare.cfg"
    cfg_path.write_text(
        "net_count = 400\nhost_count = 400\nepisodes = 2\n", encoding="utf-8"
    )
    out_dirs = (tmp_path / "out1", tmp_path / "out2")
    for out_dir in out_dirs:
        rc = cli_main(
            [
                "compare",
                "--config", str(cfg_path),
                "--seed", "5",
                "--out", str(out_dir),
                "--layers", "network,host",
                "--eval-count", "60",
                "--mock-llm", str(table_path),
            ]
        )
        assert rc == 0

    names = (
        "summary_static_run5.json",
        "summary_adaptive_run5.json",
        "compare_run5.json",
        "compare_table_run5.csv",
    )
    for name in names:
        first = (out_dirs[0] / name).read_bytes()
        second = (out_dirs[1] / name).read_bytes()
        assert first == second, f"{name} differs between identical runs"

    # The canned table must actually replay the recorded analyst: the CLI
    # summary matches the recording run byte for byte.
    recorded = (json.dumps(comp.static_summary.to_dict(), indent=2) + "\n").encode("utf-8")
    assert (out_dirs[0] / "summary_static_run5.json").read_bytes() == recorded


def test_sink_partition():
    assert len(ACCEPTANCE_RUNS) >= 8
    for label, layer_run in ACCEPTANCE_RUNS:
        tallies = Counter(layer_run.sinks)
        known = tallies[Sink.KNOWN_ACCEPT]
        memory = tallies[Sink.MEMORY_ATTACK]
        promoted = tallies[Sink.LLM_ATTACK]
        bucket = tallies[Sink.REVIEW_BUCKET]
        total = len(layer_run.scored)
        assert len(layer_run.sinks) == total, label
        assert known + memory + promoted + bucket == total, label
        summary = layer_run.summary
        assert (known, memory, promoted, bucket) == (
            summary.known,
            summary.memory_matched,
            summary.llm_promoted,
            summary.bucket,
        ), label
        ids = [se.event.id for se in layer_run.scored]
        assert len(set(ids)) == total, label
