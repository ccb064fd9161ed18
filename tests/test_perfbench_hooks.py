"""The benchmark's hooks still fit the package.

``perfbench/`` times a run by replacing functions of ``experiment``,
``pipeline`` and ``memory`` under their names and by wrapping the store
and client objects.  Installing its tracer and boundary wrappers here,
in-process, fails as soon as one of those names is deleted or renamed;
routing one small stream through them, and calibrating and scoring one,
checks that the wrappers still see the calls they count and can read the
scored streams they are handed.  A small ``compare`` run under them, and
the correctness checker on its artifacts, check that they can read what
set-up hands them: the corpora, the training splits and the bundles.
"""

import importlib
import os

import numpy as np
import pytest

from conftest import hidslike_stream, make_scored, make_stream
from idsgate import experiment, memory, pipeline
from idsgate.config import build_experiment_config
from idsgate.events import LayerId
from idsgate.llm import EchoLlmClient
from idsgate.memory import MemoryStore
from idsgate.pipeline import Mode, PipelineConfig
from idsgate.qcal import CalibConfig
from idsgate.scoring import Scorer

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    return tuple(importlib.import_module(name) for name in ("tracing", "runner", "checker"))


def test_tracer_and_boundaries_wrap_the_names_they_patch(perfbench, tmp_path):
    tracing, runner, _ = perfbench
    patched = [
        (module, name)
        for module in (experiment, pipeline, memory)
        for name in dir(module)
        if callable(getattr(module, name))
    ]
    originals = {(module, name): getattr(module, name) for module, name in patched}
    tracer = tracing.Tracer(0.0)
    bounds = runner.Boundaries(tracer, setup_only=False)
    try:
        tracer.install()
        bounds.install()
        cfg = PipelineConfig(llm_parallelism=2)
        attack_raw = "sshd pid=1003 auth_fail user=root attempts=30 src=10.0.3.7"
        rows = [(0.60, 1, 1, attack_raw), (0.55, 0, 0), (0.95, 1, 1), (0.60, 1, 1, attack_raw)]
        rows += [(0.62, 0, 0), (0.58, 1, 0)]
        stream = make_stream([
            make_scored(conf, pred, truth, f"host-{i}", LayerId.HOST, *raw)
            for i, (conf, pred, truth, *raw) in enumerate(rows)
        ])
        store = tracing.TimedStore(MemoryStore(dims=cfg.embedding.dims), tracer)
        truths = {se.event.id: se.event.truth for se in stream}
        client = tracing.TimedClient(EchoLlmClient(truths), tracer)
        run = pipeline.route_stream(LayerId.HOST, stream, 0.85, cfg, store, client)
        review = str(tmp_path / "review.jsonl")
        experiment.write_review_jsonl(review, run.reviews)
        # The tracer reads a stream's length and its first row's layer.
        calib_cfg = PipelineConfig(calib=CalibConfig(episodes=2))
        pipeline.calibrate_gate1(hidslike_stream(5, 250, "host-cal"), calib_cfg)
        scored = experiment.score_stream(stream.events, Scorer(np.ones(1), 0.0), np.zeros((6, 1)))
    finally:
        bounds.uninstall()
        tracer.uninstall()

    s = run.summary
    assert (s.known, s.uncertain, s.memory_matched, s.llm_promoted, s.bucket) == (1, 5, 1, 1, 3)
    assert [name for name, *_ in tracer.spans if name.startswith("pipeline.")] == [
        "pipeline.route_stream[host.adaptive]"
    ]
    assert tracer.sums["pipeline.route_s.host.adaptive"] > 0
    assert tracer.sums["memory.embed_s"] > 0
    m = tracer.metrics({Mode.ADAPTIVE.value: {"layers": {"host": s.to_dict()}}}, 2)
    # One query for the block of the five uncertain events, and one more
    # for the rest of it once the first batch promotes host-0.
    assert m["memory.queries"] == 2
    assert m["memory.inserts"] == s.llm_promoted
    assert m["llm.calls"] == run.llm_calls == 4
    assert m["llm.failed"] == 0
    assert m["pipeline.bucket.adaptive"] == s.bucket
    assert m["outputs.bytes"] == os.path.getsize(review) > 0
    # Two episodes and the greedy rollout, each over three slices of 100.
    assert m["qcal.slices.host"] == 9
    assert m["qcal.calibrate_s.host"] > 0
    assert m["scoring.events_scored"] == len(scored) == 6
    assert m["scoring.score_s.host"] > 0
    # every wrapper is gone again
    assert all(getattr(module, name) is fn for (module, name), fn in originals.items())


def test_tracer_and_checker_read_a_small_compare(perfbench, tmp_path):
    tracing, runner, checker = perfbench
    xcfg = build_experiment_config({
        "net_count": "400",
        "host_count": "400",
        "eval_count": "60",
        "episodes": "2",
        "layers": "network,host",
        "out_dir": str(tmp_path),
    })
    tracer = tracing.Tracer(0.0)
    bounds = runner.Boundaries(tracer, setup_only=False)
    try:
        tracer.install()
        bounds.install()
        comp, _ = experiment.do_compare(xcfg)
    finally:
        bounds.uninstall()
        tracer.uninstall()

    summaries = {
        "static": comp.static_summary.to_dict(),
        "adaptive": comp.adaptive_summary.to_dict(),
    }
    m = tracer.metrics(summaries, xcfg.pipeline.llm_parallelism)
    assert m["corpus.events.network"] == m["corpus.events.host"] == 400
    assert m["scoring.train_s.network"] > 0 and m["scoring.train_s.host"] > 0
    # each layer's training split and evaluation split, each mode's calibration
    assert m["scoring.events_scored"] == 2 * (320 + 60)
    assert m["qcal.slices.network"] > 0 and m["qcal.slices.host"] > 0
    bundles = bounds.returned["prepare_bundles"]
    assert checker.check_run(xcfg, bundles, None) == {
        "problems": [], "missing_events": 0, "unsure_verdicts": 0
    }
