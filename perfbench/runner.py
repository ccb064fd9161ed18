"""One ``idsgate compare`` run, timed at the boundaries between its calls.

The runner takes the same arguments as ``idsgate compare`` (after
``--``), builds the configuration through the CLI's own parser and calls
``experiment.do_compare`` itself.  For the length of the run it replaces
the functions that ``do_compare`` calls (``prepare_bundles``,
``load_calibration`` or ``gate1_calibrations``, ``compare_modes`` and
``write_mode_artifacts``) by wrappers under their ``experiment`` names
that read the clock at their entry and exit and keep their results.  An
untraced run thus times the CLI's own code, artifact writing included.

With ``--setup-only`` the run stops at the entry of ``compare_modes``,
before the first event is routed.  With ``--trace`` the module functions
and the per-run store and client objects are timed from outside as well
(see ``tracing.py``), and the spans are written to the given file after
the run.  With ``--check`` the correctness checker runs on the artifacts
after the timed part.

The result, one JSON object, goes to ``--result``.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

from idsgate import cli, experiment  # noqa: E402
from idsgate.config import load_experiment_config  # noqa: E402

BOUNDARY_CALLS = (
    "prepare_bundles",
    "load_calibration",
    "gate1_calibrations",
    "compare_modes",
    "write_mode_artifacts",
)


class SetupDone(Exception):
    """Raised at the entry of ``compare_modes`` in a set-up-only run."""


class Boundaries:
    """Wrappers around the calls ``do_compare`` makes.

    Each call's start and end go to ``calls`` and its last result to
    ``returned``.  Traced, each call is also a span that the module spans
    nest under.
    """

    def __init__(self, tracer, setup_only: bool):
        self.tracer = tracer
        self.setup_only = setup_only
        self.calls: list[tuple[str, float, float]] = []
        self.returned: dict[str, object] = {}
        self._saved: list[tuple[str, object]] = []

    def install(self) -> None:
        for name in BOUNDARY_CALLS:
            original = getattr(experiment, name)
            self._saved.append((name, original))
            setattr(experiment, name, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._saved:
            name, original = self._saved.pop()
            setattr(experiment, name, original)

    def _wrap(self, name: str, fn):
        def wrapper(*args, **kwargs):
            if name == "compare_modes" and self.setup_only:
                self.calls.append((name, time.perf_counter(), None))
                raise SetupDone
            span = self.tracer.span(f"stage.{name}") if self.tracer else contextlib.nullcontext()
            start = time.perf_counter()
            with span:
                result = fn(*args, **kwargs)
            self.calls.append((name, start, time.perf_counter()))
            self.returned[name] = result
            return result

        return wrapper

    def start_of(self, name: str) -> float:
        return next(start for n, start, _ in self.calls if n == name)

    def stages(self, t_config: float, t_compare: float, t_end: float) -> dict[str, float]:
        """Durations between consecutive boundaries; they add up to the
        run's wall time."""
        ends = {name: end for name, _, end in self.calls}
        calibration = "load_calibration" if "load_calibration" in ends else "gate1_calibrations"
        marks = [
            ("import", T0),
            ("config", t_config),
            ("prepare_bundles", t_compare),
            ("calibration", ends["prepare_bundles"]),
            ("factories", ends[calibration]),
            ("compare_modes", self.start_of("compare_modes")),
            ("write_mode_artifacts", ends["compare_modes"]),
            ("compare_files", ends["write_mode_artifacts"]),
        ]
        bounds = [t for _, t in marks[1:]] + [t_end]
        return {name: end - start for (name, start), end in zip(marks, bounds)}


def run(argv: list[str], setup_only: bool, tracer):
    """Time one run; return its result and, unless ``setup_only``, the
    configuration, bundles and summaries that the checks need."""
    t_config = time.perf_counter()
    args = cli.build_parser().parse_args(argv)
    xcfg = load_experiment_config(args.config, cli.overrides_from_args(args))
    bounds = Boundaries(tracer, setup_only)
    bounds.install()
    t_compare = time.perf_counter()
    try:
        comp, _ = experiment.do_compare(xcfg, args.calibration)
    except SetupDone:
        return {"setup_s": bounds.start_of("compare_modes") - T0}, None
    finally:
        bounds.uninstall()
    t_end = time.perf_counter()

    stages = bounds.stages(t_config, t_compare, t_end)
    summaries = {
        "static": comp.static_summary.to_dict(),
        "adaptive": comp.adaptive_summary.to_dict(),
    }
    routed = sum(s["overall"]["total"] for s in summaries.values())
    result = {
        "setup_s": bounds.start_of("compare_modes") - T0,
        "wall_s": t_end - T0,
        "route_events_per_s": routed / stages["compare_modes"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "routed_events": routed,
        "llm_calls": sum(s["overall"]["llm_calls"] for s in summaries.values()),
        "stages": stages,
    }
    return result, (xcfg, bounds.returned["prepare_bundles"], summaries)


def main() -> int:
    parser = argparse.ArgumentParser(description="one timed idsgate compare run")
    parser.add_argument("--result", required=True, help="where to write the result JSON")
    parser.add_argument("--setup-only", action="store_true", help="stop before routing")
    parser.add_argument("--trace", metavar="SPANS", help="time the modules; spans go here")
    parser.add_argument("--check", action="store_true", help="run the correctness checker")
    parser.add_argument("--seeded-memory", help="seeded store dir, for the nearest-distance check")
    parser.add_argument("argv", nargs=argparse.REMAINDER, help="-- idsgate compare arguments")
    opts = parser.parse_args()
    argv = opts.argv[1:] if opts.argv[:1] == ["--"] else opts.argv

    tracer = None
    if opts.trace:
        from tracing import Tracer

        tracer = Tracer(T0)
        tracer.install()
    try:
        result, state = run(argv, opts.setup_only, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    if state is not None:
        xcfg, bundles, summaries = state
        if tracer is not None:
            result["modules"] = tracer.metrics(summaries, xcfg.pipeline.llm_parallelism)
            tracer.write_spans(opts.trace)
        if opts.check:
            from checker import check_run

            result["check"] = check_run(xcfg, bundles, opts.seeded_memory)
    with open(opts.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
