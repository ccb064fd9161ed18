"""idsgate benchmark: two workloads, end-to-end and per-module metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads (see README.md):

- ``route-warm-memory``: corpora generated and Gate 1 calibrated in the
  run, as ``idsgate compare`` does, then a seeded attack memory; Gate-2
  scans dominate routing.
- ``llm-http``: loaded corpora and calibration, Gate 3 over HTTP to a
  stub process; routing waits on Gate 3 and the memory grows by insert.

Each compare run is its own process (``runner.py``).  Full runs repeat
while the next one still fits in ``--seconds``; set-up-only runs follow
until three set-up times are in hand.  The first full run is checked for
correctness (``checker.py``) and every later one must write
byte-identical artifacts.  With ``--trace 1`` the run makes one untraced
and one traced full run, then gives the same arguments to ``idsgate
compare`` itself, whose artifacts must match the runner's byte for byte.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end ones with
``--trace 0``, per-module ones with ``--trace 1``, named and with units
as in BENCHMARK.json).  Artifact digests and the spans file are printed
above it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import urllib.request

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench-work")
SRC = os.path.join(ROOT, "src")

SETUPS_PER_RUN = 3
STUB_DELAY_MS = 2.0
RUN_DEADLINE_S = 175.0
# 5000 evaluation events per layer, three layers, two modes.
EVENTS_PER_RUN = 2 * 3 * 5000
# Traced stage times must cover the traced wall time to within this share.
STAGE_COVERAGE_TOLERANCE = 0.05

# "load": read corpora and calibration from the seed's inputs (--data,
# --calibration) instead of generating and calibrating in the run.  Both
# workloads build the inputs: route-warm-memory copies the seeded memory,
# llm-http loads the corpora and calibration, and its stub reads the
# ground truth from the corpora.
WORKLOADS = {
    "route-warm-memory": {"load": False, "memory": "seeded", "http": False},
    "llm-http": {"load": True, "memory": "empty", "http": True},
}

sys.path.insert(0, HERE)
import inputs  # noqa: E402


class RunFailed(RuntimeError):
    """A child process of the benchmark exited with an error."""


class Stub:
    """The LLM stub process of the llm-http workload."""

    def __init__(self, data_dir: str, env: dict):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "stub.py"), "--data", data_dir,
             "--delay-ms", str(STUB_DELAY_MS)],
            stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True,
        )
        line = self.proc.stdout.readline().split()
        if len(line) != 2 or line[0] != "PORT":
            self.stop()
            raise RunFailed("LLM stub did not start")
        self.url = f"http://127.0.0.1:{line[1]}"

    def stats(self) -> dict:
        opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))
        with opener.open(f"{self.url}/stats", timeout=10) as resp:
            return json.load(resp)

    def stop(self) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def artifact_hashes(it_dir: str) -> dict[str, str]:
    out = {}
    for sub in ("out", "memory"):
        base = os.path.join(it_dir, sub)
        if os.path.isdir(base):
            for name in sorted(os.listdir(base)):
                out[f"{sub}/{name}"] = inputs.sha256_file(os.path.join(base, name))
    return out


class Bench:
    def __init__(self, workload: str, seed: int, env: dict, deadline: float):
        self.name = workload
        self.wl = WORKLOADS[workload]
        self.seed = seed
        self.env = env
        self.deadline = deadline
        self.run_dir = os.path.join(WORK, "runs", f"{workload}-seed{seed}-{os.getpid()}")
        self.inputs_dir = None
        self.stub = None
        self.count = 0

    def prepare(self) -> None:
        os.makedirs(self.run_dir)
        dest = os.path.join(WORK, "inputs", f"seed{self.seed}")
        if not os.path.isdir(dest):
            os.makedirs(os.path.dirname(dest), exist_ok=True)
            self._call([sys.executable, os.path.join(HERE, "inputs.py"),
                        "--seed", str(self.seed), "--dest", dest])
        inputs.verify(dest)
        self.inputs_dir = dest
        if self.wl["http"]:
            self.stub = Stub(self.inputs_dir, self.env)

    def close(self) -> None:
        if self.stub is not None:
            self.stub.stop()
        shutil.rmtree(self.run_dir, ignore_errors=True)

    def _call(self, cmd: list[str]) -> None:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise RunFailed("out of time")
        proc = subprocess.run(cmd, env=self.env, cwd=ROOT, capture_output=True,
                              text=True, timeout=remaining)
        if proc.returncode != 0:
            raise RunFailed(f"{os.path.basename(cmd[1])} failed: {proc.stderr[-2000:]}")

    def compare_argv(self, it_dir: str, echo: bool = False) -> list[str]:
        argv = ["compare", "--config", os.path.join(HERE, "workloads", f"{self.name}.cfg"),
                "--seed", str(self.seed), "--out", os.path.join(it_dir, "out")]
        if self.wl["load"]:
            argv += ["--data", self.inputs_dir,
                     "--calibration", inputs.calibration_file(self.inputs_dir, self.seed)]
        # A fresh memory dir per run: inserts append to the store's files.
        mem = os.path.join(it_dir, "memory")
        if self.wl["memory"] == "seeded":
            shutil.copytree(os.path.join(self.inputs_dir, inputs.MEMORY_SUBDIR), mem)
        else:
            os.makedirs(mem)
        argv += ["--memory-dir", mem]
        if self.stub is not None:
            argv += ["--mock-llm", "echo:0.9"] if echo else ["--llm-url", self.stub.url]
        return argv

    def iteration(self, setup_only=False, check=False, trace=False) -> dict:
        """One runner process; returns its result plus artifact digests."""
        self.count += 1
        it_dir = os.path.join(self.run_dir, f"{self.count:02d}")
        os.makedirs(it_dir)
        result_path = os.path.join(it_dir, "result.json")
        cmd = [sys.executable, os.path.join(HERE, "runner.py"), "--result", result_path]
        if setup_only:
            cmd.append("--setup-only")
        if check:
            cmd.append("--check")
            if self.wl["memory"] == "seeded":
                cmd += ["--seeded-memory", os.path.join(self.inputs_dir, inputs.MEMORY_SUBDIR)]
        if trace:
            cmd += ["--trace", os.path.join(it_dir, "spans.jsonl")]
        before = self.stub.stats() if self.stub else None
        self._call(cmd + ["--"] + self.compare_argv(it_dir))
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
        result["dir"] = it_dir
        if not setup_only:
            result["artifacts"] = artifact_hashes(it_dir)
            if self.stub is not None:
                after = self.stub.stats()
                result["non_200"] = after["non_200"] - before["non_200"]
                result["stub_ms"] = after["service_ms"][before["requests"]:]
        return result

    def cli_artifacts(self) -> dict[str, str]:
        """Artifacts of ``idsgate compare`` itself on the same arguments;
        llm-http uses the in-process echo client instead of the stub."""
        self.count += 1
        it_dir = os.path.join(self.run_dir, f"{self.count:02d}-cli")
        os.makedirs(it_dir)
        argv = self.compare_argv(it_dir, echo=True)
        self._call([sys.executable, "-m", "idsgate.cli"] + argv)
        return artifact_hashes(it_dir)


def module_coverage(traced: dict) -> float:
    """Share of the traced wall time inside timed stages and module calls.

    prepare_bundles and write_mode_artifacts count through the module
    calls they make (corpus, scoring, outputs), not as whole stages, so
    the share shows how much of the run the module metrics explain.
    """
    st, mod = traced["stages"], traced["modules"]
    covered = sum(v for k, v in st.items()
                  if k not in ("prepare_bundles", "write_mode_artifacts"))
    covered += sum(v for k, v in mod.items()
                   if k.startswith(("corpus.", "scoring.")) and k.split(".")[1].endswith("_s"))
    covered += mod["outputs.write_s"]
    return covered / traced["wall_s"]


def main() -> int:
    parser = argparse.ArgumentParser(description="idsgate benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + RUN_DEADLINE_S

    if not os.path.isfile(os.path.join(SRC, "idsgate", "__init__.py")):
        print(f"idsgate sources not found under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # The stub listens on the loopback address; keep any proxy out of it.
    env["NO_PROXY"] = env["no_proxy"] = "127.0.0.1,localhost"

    bench = Bench(args.workload, args.seed, env, deadline)
    problems: list[str] = []
    attempted = failed = 0
    full: list[dict] = []
    setups: list[float] = []
    traced = None
    try:
        bench.prepare()
        start = time.monotonic()
        while True:
            began = time.monotonic()
            full.append(bench.iteration(check=not full))
            now = time.monotonic()
            if args.trace or now - start + (now - began) > args.seconds:
                break
        setups += [r["setup_s"] for r in full]
        while not args.trace and len(setups) < SETUPS_PER_RUN:
            setups.append(bench.iteration(setup_only=True)["setup_s"])
        if args.trace:
            traced = bench.iteration(trace=True)
            full.append(traced)
            os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
            spans = os.path.join(WORK, "traces", f"{args.workload}-seed{args.seed}.spans.jsonl")
            shutil.move(os.path.join(traced["dir"], "spans.jsonl"), spans)
            print(f"spans {os.path.relpath(spans, ROOT)}")
            if bench.cli_artifacts() != full[0]["artifacts"]:
                problems.append("idsgate compare and the runner wrote different artifacts")
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        problems.append(f"run failed: {exc}")
        attempted += EVENTS_PER_RUN
        failed += EVENTS_PER_RUN
    finally:
        bench.close()

    if full:
        check = full[0]["check"]
        problems += check["problems"]
        for i, r in enumerate(full):
            if r["artifacts"] != full[0]["artifacts"]:
                problems.append(f"run {i} wrote other artifacts than run 0 of the same seed")
            attempted += r["routed_events"] + r["llm_calls"]
            failed += check["missing_events"] + check["unsure_verdicts"] + r.get("non_200", 0)
            kind = "traced" if r is traced else "full"
            print(f"run {i} {kind}: wall_s={r['wall_s']:.4f} setup_s={r['setup_s']:.4f} "
                  f"route_events_per_s={r['route_events_per_s']:.1f} "
                  f"peak_rss_mb={r['peak_rss_mb']:.1f}")
        for name, digest in full[0]["artifacts"].items():
            print(f"artifact {name} sha256 {digest}")

    values: dict[str, float] = {}
    untraced = [r for r in full if r is not traced]
    if untraced:
        values = {
            "wall_s": statistics.median(r["wall_s"] for r in untraced),
            "setup_s": statistics.median(setups),
            "route_events_per_s": statistics.median(r["route_events_per_s"] for r in untraced),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
        }
    if traced is not None:
        mod = traced["modules"]
        stub_p50 = statistics.median(traced["stub_ms"]) if traced.get("stub_ms") else 0.0
        mod["llm.stub_ms_p50"] = stub_p50
        mod["llm.transport_ms_p50"] = mod["llm.call_ms_p50"] - stub_p50 if stub_p50 else 0.0
        mod["trace.wall_s"] = traced["wall_s"]
        mod["trace.overhead_s"] = traced["wall_s"] - values["wall_s"]
        mod["trace.stage_coverage"] = module_coverage(traced)
        if abs(1.0 - mod["trace.stage_coverage"]) > STAGE_COVERAGE_TOLERANCE:
            problems.append(f"traced stages cover {mod['trace.stage_coverage']:.3f} of wall time")
        values = mod

    for p in problems:
        print(f"problem: {p}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in values}
    correct = not problems and len(metrics) == len(wanted)
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": min(failed, max(attempted, 1)), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
