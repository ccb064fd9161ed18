"""The benchmark's hooks still fit the package.

``perfbench/`` times a run by replacing functions of ``experiment``,
``pipeline`` and ``memory`` under their names and by wrapping the store
and client objects.  Installing its tracer and boundary wrappers here,
in-process, fails as soon as one of those names is deleted or renamed,
and routing one small stream through them checks that the wrappers still
see the calls they count.
"""

import importlib
import os

import pytest

from conftest import make_scored
from idsgate import experiment, memory, pipeline
from idsgate.events import LayerId
from idsgate.llm import EchoLlmClient
from idsgate.memory import MemoryStore
from idsgate.pipeline import Mode, PipelineConfig

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    return importlib.import_module("tracing"), importlib.import_module("runner")


def test_tracer_and_boundaries_wrap_the_names_they_patch(perfbench, tmp_path):
    tracing, runner = perfbench
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
        stream = [
            make_scored(conf, pred, truth, f"host-{i}", LayerId.HOST, *raw)
            for i, (conf, pred, truth, *raw) in enumerate(rows)
        ]
        store = tracing.TimedStore(MemoryStore(dims=cfg.embedding.dims), tracer)
        truths = {se.event.id: se.event.truth for se in stream}
        client = tracing.TimedClient(EchoLlmClient(truths), tracer)
        run = pipeline.route_stream(LayerId.HOST, stream, 0.85, cfg, store, client)
        review = str(tmp_path / "review.jsonl")
        experiment.write_review_jsonl(review, run.reviews)
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
    assert m["memory.queries"] == s.uncertain
    assert m["memory.inserts"] == s.llm_promoted
    assert m["llm.calls"] == run.llm_calls == 4
    assert m["llm.failed"] == 0
    assert m["pipeline.bucket.adaptive"] == s.bucket
    assert m["outputs.bytes"] == os.path.getsize(review) > 0
    # every wrapper is gone again
    assert all(getattr(module, name) is fn for (module, name), fn in originals.items())
