"""Command line interface.

Subcommands: gen, calibrate, calibrate-llm, run, compare, report.
Exit codes: 0 success, 1 runtime failure, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import logging
import sys

from . import experiment
from .config import ConfigError, load_experiment_config

logger = logging.getLogger(__name__)

USAGE_EXIT = 2
FAILURE_EXIT = 1


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key = value config file")
    parser.add_argument("--seed", type=int, help="master RNG seed")
    parser.add_argument("--out", help="output directory")
    parser.add_argument(
        "--layers", help="comma separated subset of network,host,hypervisor"
    )
    parser.add_argument(
        "--mock-llm",
        help="LLM stand-in: echo[:conf] or a JSONL response table path",
    )
    parser.add_argument("--llm-url", help="live endpoint base URL (implies http)")
    parser.add_argument("--llm-model", help="model name for the live endpoint")
    parser.add_argument("--data", help="load corpora from this directory")
    parser.add_argument("--memory-dir", help="persist attack memory under this dir")
    parser.add_argument("--eval-count", type=int, help="events evaluated per layer")
    parser.add_argument("--c-event", type=float, help="cost units per escalation")
    parser.add_argument(
        "--wall-clock",
        action="store_true",
        help="stamp records with real time instead of the logical clock",
    )
    parser.add_argument("-v", "--verbose", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="idsgate",
        description="Three-gate escalation pipeline for layered intrusion alerts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate synthetic corpora")
    _add_common(p_gen)

    p_cal = sub.add_parser("calibrate", help="learn per-layer routing thresholds")
    _add_common(p_cal)

    p_cal_llm = sub.add_parser(
        "calibrate-llm", help="fit per-layer LLM acceptance thresholds"
    )
    _add_common(p_cal_llm)

    p_run = sub.add_parser("run", help="run one mode end to end")
    _add_common(p_run)
    p_run.add_argument("--mode", choices=["static", "adaptive"], help="routing mode")
    p_run.add_argument("--calibration", help="thresholds file from 'calibrate'")

    p_cmp = sub.add_parser("compare", help="run static and adaptive side by side")
    _add_common(p_cmp)
    p_cmp.add_argument("--calibration", help="thresholds file from 'calibrate'")

    p_rep = sub.add_parser("report", help="summarize stored run artifacts")
    _add_common(p_rep)

    return parser


def overrides_from_args(args: argparse.Namespace) -> dict[str, str]:
    kv: dict[str, str] = {}
    if args.seed is not None:
        kv["seed"] = str(args.seed)
    if args.out:
        kv["out_dir"] = args.out
    if args.layers:
        kv["layers"] = args.layers
    if args.mock_llm:
        spec = args.mock_llm
        if not (spec == "echo" or spec.startswith(("echo:", "table:"))):
            spec = f"table:{spec}"
        kv["llm"] = spec
    if args.llm_url:
        kv["llm"] = "http"
        kv["llm_url"] = args.llm_url
    if args.llm_model:
        kv["llm_model"] = args.llm_model
    if args.data:
        kv["data_dir"] = args.data
    if args.memory_dir:
        kv["memory_dir"] = args.memory_dir
    if args.eval_count is not None:
        kv["eval_count"] = str(args.eval_count)
    if args.c_event is not None:
        kv["c_event"] = str(args.c_event)
    if args.wall_clock:
        kv["wall_clock"] = "true"
    if getattr(args, "mode", None):
        kv["mode"] = args.mode
    return kv


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        xcfg = load_experiment_config(args.config, overrides_from_args(args))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return USAGE_EXIT

    try:
        if args.command == "gen":
            written = experiment.do_gen(xcfg)
            for layer, path in written.items():
                print(f"wrote {layer} corpus: {path}")
        elif args.command == "calibrate":
            path = experiment.do_calibrate(xcfg)
            print(f"wrote calibration: {path}")
        elif args.command == "calibrate-llm":
            path = experiment.do_calibrate_llm(xcfg)
            print(f"wrote LLM thresholds: {path}")
        elif args.command == "run":
            _, summary, paths = experiment.do_run(xcfg, args.calibration)
            print(f"mode={summary.mode} uncertain={summary.overall['uncertain']}")
            print(f"wrote summary: {paths.summary}")
        elif args.command == "compare":
            comp, files = experiment.do_compare(xcfg, args.calibration)
            cost = comp.cost
            pct = "n/a" if cost.reduction_pct is None else f"{cost.reduction_pct:.2f}"
            print(
                f"static_uncertain={cost.n_static} "
                f"adaptive_uncertain={cost.n_adaptive} "
                f"reduction_pct={pct}"
            )
            print(f"wrote comparison: {files['compare']}")
        elif args.command == "report":
            written = experiment.do_report(xcfg)
            if not written:
                print("no stored confidence files for this run id", file=sys.stderr)
                return FAILURE_EXIT
            for path in written:
                print(f"wrote histogram: {path}")
        else:  # pragma: no cover - argparse enforces the choices
            parser.error(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except Exception as exc:
        logger.debug("command failed", exc_info=True)
        print(f"error: {exc}", file=sys.stderr)
        return FAILURE_EXIT
    return 0


if __name__ == "__main__":
    sys.exit(main())
