"""Per-module timing of one ``compare`` run, measured from outside.

A :class:`Tracer` replaces, for the length of one traced run, the public
functions of ``corpus``, ``scoring``, ``qcal``, ``pipeline`` and
``outputs`` by timing wrappers under the names through which
``experiment`` and ``pipeline`` call them, and wraps the ``MemoryStore``
and LLM client objects that ``compare_modes`` receives from its
``make_store`` and ``make_client`` factories (by wrapping
``experiment.store_factory`` and ``experiment.client_factory``).  Spans
are kept in memory and written out once the run is over.

High-frequency kernels (``extract_features``, ``embed``) are summed, not
recorded span by span; every memory query, memory insert and LLM call
gets a span.
"""

from __future__ import annotations

import json
import math
import os
import threading
import time
from collections import defaultdict

import numpy as np

from idsgate import experiment, memory, pipeline
from idsgate.events import LayerId

DETECTORS = tuple(layer.value for layer in LayerId)
MODES = ("static", "adaptive")
SINK_COUNTS = ("known", "uncertain", "memory_matched", "llm_promoted", "bucket")
GEN_FUNCS = {"gen_network": "network", "gen_hostlogs": "host", "gen_hypervisor": "hypervisor"}
LOAD_FUNCS = {
    "load_network_csv": "network",
    "load_host_jsonl": "host",
    "load_hypervisor_csv": "hypervisor",
}
WRITE_FUNCS = ("write_confidence_csv", "write_jsonl", "write_review_jsonl", "write_run_summary")


def _pct(samples: list[float], q: float) -> float:
    return float(np.percentile(samples, q)) if samples else 0.0


def _layer_of(items) -> str:
    first = items[0]
    return getattr(first, "event", first).layer.value


class _Span:
    """Context manager that records one span and keeps its duration."""

    __slots__ = ("tracer", "name", "idx", "start", "seconds")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> "_Span":
        tr = self.tracer
        self.idx = len(tr.spans)
        tr.spans.append(None)
        tr.stack.append(self.idx)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        end = time.perf_counter()
        tr = self.tracer
        tr.stack.pop()
        tr.spans[self.idx] = (self.name, self.start, end, tr.stack[-1])
        self.seconds = end - self.start
        return False


class TimedStore:
    """MemoryStore stand-in that times ``query`` and ``insert``."""

    def __init__(self, inner, tracer: "Tracer"):
        self.inner = inner
        self.tracer = tracer

    def __len__(self) -> int:
        return len(self.inner)

    def query(self, vector, k):
        with _Span(self.tracer, "memory.query") as sp:
            result = self.inner.query(vector, k)
        self.tracer.query_s.append(sp.seconds)
        return result

    def insert(self, record) -> None:
        with _Span(self.tracer, "memory.insert") as sp:
            self.inner.insert(record)
        self.tracer.insert_s.append(sp.seconds)


class TimedClient:
    """LLM client stand-in that records the interval of every call.

    The pipeline sends each batch of prompts through a fresh executor,
    whose threads are named ``ThreadPoolExecutor-<n>_<i>``: the calls of
    one batch share the name up to the last underscore.  A batch of a
    single prompt runs on the calling thread.
    """

    def __init__(self, inner, tracer: "Tracer"):
        self.inner = inner
        self.tracer = tracer

    def generate(self, prompt: str) -> str:
        name = threading.current_thread().name
        parent = self.tracer.stack[-1]
        start = time.perf_counter()
        ok = False
        try:
            text = self.inner.generate(prompt)
            ok = True
            return text
        finally:
            end = time.perf_counter()
            if name.startswith("ThreadPoolExecutor"):
                batch = name.rpartition("_")[0]
            else:
                batch = f"single-{len(self.tracer.calls)}"
            self.tracer.calls.append((start, end, batch, ok, parent))


class Tracer:
    """Spans and counters of one traced run; ``t0`` is the run's start."""

    def __init__(self, t0: float):
        self.t0 = t0
        self.spans: list = []
        self.stack: list[int] = [-1]
        self.sums: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.query_s: list[float] = []
        self.insert_s: list[float] = []
        self.calls: list[tuple[float, float, str, bool, int]] = []
        self.stores: list[tuple[str, TimedStore]] = []
        self._saved: list[tuple[object, str, object]] = []

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    # -- patching ----------------------------------------------------------

    def _patch(self, module, attr: str, wrapper) -> None:
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, wrapper(original))

    def _timed(self, span_name: str, metric, count=None):
        """Wrapper maker: a span per call, seconds added to ``metric(args)``,
        and ``count(args, result) -> (name, n)`` added to the counters."""

        def wrap(fn):
            def wrapper(*args, **kwargs):
                with _Span(self, span_name) as sp:
                    result = fn(*args, **kwargs)
                self.sums[metric(args)] += sp.seconds
                if count is not None:
                    name, n = count(args, result)
                    self.counts[name] += n
                return result

            return wrapper

        return wrap

    def _summed(self, metric: str):
        """Wrapper maker for per-event kernels: seconds summed, no span."""

        def wrap(fn):
            def wrapper(*args, **kwargs):
                start = time.perf_counter()
                result = fn(*args, **kwargs)
                self.sums[metric] += time.perf_counter() - start
                return result

            return wrapper

        return wrap

    def install(self) -> None:
        """Put the timing wrappers in place of the module functions."""
        for table, prefix in ((GEN_FUNCS, "corpus.gen_s"), (LOAD_FUNCS, "corpus.load_s")):
            for fn, det in table.items():
                self._patch(experiment, fn, self._timed(
                    f"corpus.{fn}",
                    lambda a, key=f"{prefix}.{det}": key,
                    lambda a, r, key=f"corpus.events.{det}": (key, len(r)),
                ))
        self._patch(experiment, "split_train_test", self._timed(
            "corpus.split_train_test", lambda a: "corpus.split_s"))
        self._patch(experiment, "fit_tfidf", self._timed(
            "scoring.fit_tfidf", lambda a: "scoring.tfidf_fit_s"))
        self._patch(experiment, "extract_features", self._summed("scoring.extract_s"))
        self._patch(experiment, "train_baseline", self._timed(
            "scoring.train_baseline", lambda a: f"scoring.train_s.{_layer_of(a[0])}"))
        self._patch(experiment, "score_stream", self._timed(
            "scoring.score_stream",
            lambda a: f"scoring.score_s.{_layer_of(a[0])}",
            lambda a, r: ("scoring.events_scored", len(r)),
        ))

        def slices(args, result):
            stream, cfg = args[0], args[1]
            n = (cfg.episodes + 1) * math.ceil(len(stream) / cfg.window)
            return f"qcal.slices.{_layer_of(stream)}", n

        self._patch(pipeline, "calibrate", self._timed(
            "qcal.calibrate", lambda a: f"qcal.calibrate_s.{_layer_of(a[0])}", slices))

        def route(fn):
            def wrapper(layer, scored, threshold, cfg, store, client, clock=None, mode=None):
                key = f"{layer.value}.{(mode or cfg.mode).value}"
                with _Span(self, f"pipeline.route_stream[{key}]") as sp:
                    result = fn(layer, scored, threshold, cfg, store, client,
                                clock=clock, mode=mode)
                self.sums[f"pipeline.route_s.{key}"] += sp.seconds
                return result

            return wrapper

        self._patch(pipeline, "route_stream", route)
        self._patch(memory, "embed", self._summed("memory.embed_s"))
        self._patch(pipeline, "embed", self._summed("memory.embed_s"))
        self._patch(experiment, "store_factory", self._factory(self.wrap_store_factory))
        self._patch(experiment, "client_factory", self._factory(self.wrap_client_factory))
        for fn in WRITE_FUNCS:
            self._patch(experiment, fn, self._timed(
                f"outputs.{fn}",
                lambda a: "outputs.write_s",
                lambda a, r: ("outputs.bytes", os.path.getsize(a[0])),
            ))

    @staticmethod
    def _factory(wrap_made):
        """Wrapper maker for ``store_factory`` and ``client_factory``: the
        factory they return is wrapped by ``wrap_made``."""

        def wrap(fn):
            def wrapper(*args, **kwargs):
                return wrap_made(fn(*args, **kwargs))

            return wrapper

        return wrap

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def wrap_store_factory(self, make_store):
        def make(layer, mode):
            with _Span(self, f"memory.load_store[{layer.value}.{mode.value}]") as sp:
                store = TimedStore(make_store(layer, mode), self)
            self.sums["memory.load_s"] += sp.seconds
            self.stores.append((layer.value, store))
            return store

        return make

    def wrap_client_factory(self, make_client):
        def make(layer, mode):
            return TimedClient(make_client(layer, mode), self)

        return make

    # -- results -----------------------------------------------------------

    def _batches(self) -> list[list[tuple[float, float]]]:
        groups: dict[str, list[tuple[float, float]]] = defaultdict(list)
        for start, end, batch, _, _ in self.calls:
            groups[batch].append((start, end))
        return list(groups.values())

    def metrics(self, summaries: dict[str, dict], llm_parallelism: int) -> dict[str, float]:
        """Per-module metrics of the run; ``summaries`` maps mode to summary JSON."""
        s, c = self.sums, self.counts
        m: dict[str, float] = {}
        for det in DETECTORS:
            for prefix in ("corpus.gen_s", "corpus.load_s", "scoring.train_s",
                           "scoring.score_s", "qcal.calibrate_s"):
                m[f"{prefix}.{det}"] = s.get(f"{prefix}.{det}", 0.0)
            m[f"corpus.events.{det}"] = c.get(f"corpus.events.{det}", 0)
            m[f"qcal.slices.{det}"] = c.get(f"qcal.slices.{det}", 0)
            m[f"memory.records_final.{det}"] = sum(len(st) for d, st in self.stores if d == det)
            for mode in MODES:
                m[f"pipeline.route_s.{det}.{mode}"] = s.get(f"pipeline.route_s.{det}.{mode}", 0.0)
        for key in ("corpus.split_s", "scoring.tfidf_fit_s", "scoring.extract_s",
                    "memory.load_s", "memory.embed_s", "outputs.write_s"):
            m[key] = s.get(key, 0.0)
        m["scoring.events_scored"] = c.get("scoring.events_scored", 0)
        m["outputs.bytes"] = c.get("outputs.bytes", 0)

        query_ms = [x * 1e3 for x in self.query_s]
        matches = sum(layer["memory_matched"] for sm in summaries.values() for layer in sm["layers"].values())
        m["memory.queries"] = len(query_ms)
        m["memory.query_s"] = sum(self.query_s)
        m["memory.query_ms_p50"] = _pct(query_ms, 50)
        m["memory.query_ms_p99"] = _pct(query_ms, 99)
        m["memory.inserts"] = len(self.insert_s)
        m["memory.insert_s"] = sum(self.insert_s)
        m["memory.match_ratio"] = matches / len(query_ms) if query_ms else 0.0

        call_ms = [(end - start) * 1e3 for start, end, *_ in self.calls]
        batches = self._batches()
        batch_wall = sum(max(e for _, e in b) - min(st for st, _ in b) for b in batches)
        m["llm.calls"] = len(call_ms)
        m["llm.call_ms_p50"] = _pct(call_ms, 50)
        m["llm.call_ms_p99"] = _pct(call_ms, 99)
        m["llm.call_s"] = sum(call_ms) / 1e3
        m["llm.batch_wait_s"] = sum(max(e for _, e in b) - end for b in batches for _, end in b)
        m["llm.batch_efficiency"] = (
            m["llm.call_s"] / (llm_parallelism * batch_wall) if batch_wall else 0.0
        )
        m["llm.failed"] = sum(1 for call in self.calls if not call[3])

        route_total = sum(v for k, v in s.items() if k.startswith("pipeline.route_s."))
        m["pipeline.self_s"] = (
            route_total - m["memory.query_s"] - m["memory.insert_s"]
            - m["memory.embed_s"] - batch_wall
        )
        for mode, summary in summaries.items():
            for key in SINK_COUNTS:
                m[f"pipeline.{key}.{mode}"] = sum(layer[key] for layer in summary["layers"].values())
        return m

    def write_spans(self, path: str) -> None:
        """One JSON line per span: id, parent id (-1 for none), name, and
        start and end in milliseconds since the run started."""
        rows = [(name, start, end, parent, None) for name, start, end, parent in self.spans]
        rows += [("llm.generate", start, end, parent, batch)
                 for start, end, batch, _, parent in self.calls]
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, batch) in enumerate(rows):
                row = {
                    "id": i,
                    "parent": parent,
                    "name": name,
                    "start_ms": round((start - self.t0) * 1e3, 3),
                    "end_ms": round((end - self.t0) * 1e3, 3),
                }
                if batch is not None:
                    row["batch"] = batch
                fh.write(json.dumps(row) + "\n")
