"""Command-line interface: threshold and optimization runs over scenario files.

Standard output carries only the headline number (6 decimals) so scripts can
consume it directly; full machine-readable reports go to --out. Exit codes
are a stable contract: 0 success, 1 verification failure, 2 input error,
3 solver error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys
import time

from .probabilities import correlation_tensor
from .reports import (
    ReportError,
    build_optimize_report,
    build_threshold_report,
    load_report,
    verify_report,
    write_report,
)
from .scenario_io import ScenarioFileError, load_scenario_file
from .search import OptimizationConfig, optimize_phases, optimize_state_and_phases
from .simplex import SolverFailure, SolverOptions, dump_lp_text
from .threshold import build_threshold_lp, threshold_from_tensor
# unused here, but perfbench/spans.py patches both names in this module
from .threshold import feasible_at, threshold  # noqa: F401

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_SOLVER_ERROR = 3

_MODE_NAMES = {"phases": "phases_only", "all": "phases_and_state"}


@functools.cache  # parse_args keeps no state, so one parser serves every in-process call
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lrthresh",
        description=(
            "Noise thresholds for local-realistic models of multiparty "
            "phased-multiport correlations."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def scenario_flag(p):
        p.add_argument("--scenario", required=True, metavar="PATH",
                       help="scenario file (YAML)")

    def common_flags(p):
        p.add_argument("--out", metavar="PATH", help="write the full report here")
        p.add_argument("--tol", type=float, default=None, metavar="F",
                       help="feasibility/optimality tolerance for the LP solver")

    p_thr = sub.add_parser("threshold", help="threshold of the file's state and settings")
    scenario_flag(p_thr)
    common_flags(p_thr)

    p_opt = sub.add_parser("optimize", help="maximize the threshold over parameters")
    scenario_flag(p_opt)
    common_flags(p_opt)
    p_opt.add_argument("--mode", choices=sorted(_MODE_NAMES), default="phases",
                       help="optimize phases only, or state and phases")
    p_opt.add_argument("--restarts", type=int, default=None, metavar="N")
    p_opt.add_argument("--seed", type=int, default=0, metavar="N")
    p_opt.add_argument("--max-evals", type=int, default=None, metavar="N",
                       help="objective evaluations per restart")
    p_opt.add_argument("--workers", type=int, default=None, metavar="N",
                       help="parallel restart workers (default: available cores)")

    p_ver = sub.add_parser("verify", help="replay a report's claims")
    p_ver.add_argument("report", metavar="PATH", help="report file to check")

    p_dump = sub.add_parser("dump-lp", help="emit the threshold LP as plain text")
    scenario_flag(p_dump)
    p_dump.add_argument("--out", metavar="PATH", help="write the LP here (default: stdout)")

    return parser


def _solver_options(args) -> SolverOptions | None:
    if getattr(args, "tol", None) is None:
        return None
    return SolverOptions(tol_feas=args.tol, tol_opt=args.tol)


@contextlib.contextmanager
def _writing(path: str):
    """Turn a failed write to an --out path into an input error naming it."""
    try:
        yield
    except OSError as err:
        raise ValueError(f"cannot write {path}: {err}") from None


def _cmd_threshold(args, argv: list[str]) -> int:
    sf = load_scenario_file(args.scenario)
    opts = _solver_options(args)
    start = time.perf_counter()
    tensor = correlation_tensor(sf.state, sf.settings)
    result = threshold_from_tensor(tensor, options=opts)
    wall = time.perf_counter() - start
    print(f"{result.f_thr:.6f}")
    if args.out:
        report = build_threshold_report(sf, result, argv, wall, options=opts)
        with _writing(args.out):
            write_report(report, args.out)
    return EXIT_OK


def _cmd_optimize(args, argv: list[str]) -> int:
    sf = load_scenario_file(args.scenario)
    opts = _solver_options(args)
    fields = {"rng_seed": args.seed, "mode": _MODE_NAMES[args.mode]}
    if args.restarts is not None:
        fields["restarts"] = args.restarts
    if args.max_evals is not None:
        fields["max_evals_per_restart"] = args.max_evals
    config = OptimizationConfig(**fields)
    workers = args.workers if args.workers is not None else _available_cores()

    start = time.perf_counter()
    if config.mode == "phases_only":
        result = optimize_phases(sf.state, config, workers=workers, options=opts)
    else:
        result = optimize_state_and_phases(sf.scenario, config, workers=workers,
                                           options=opts)
    wall = time.perf_counter() - start
    print(f"{result.best_f_thr:.6f}")
    if args.out:
        report = build_optimize_report(sf, result, config, argv, wall, options=opts)
        with _writing(args.out):
            write_report(report, args.out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    report = load_report(args.report)
    problems = verify_report(report)
    if problems:
        for line in problems:
            print(line)
        return EXIT_VERIFY_FAILED
    print("ok")
    return EXIT_OK


def _cmd_dump_lp(args) -> int:
    sf = load_scenario_file(args.scenario)
    tensor = correlation_tensor(sf.state, sf.settings)
    text = dump_lp_text(build_threshold_lp(tensor))
    if args.out:
        with _writing(args.out), open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _available_cores() -> int:
    """The CPUs this process may run on: the default --workers.

    os.process_cpu_count (Python 3.13 on) and os.sched_getaffinity both
    honour the process's CPU affinity; os.cpu_count, the last resort, counts
    every CPU of the host.
    """
    if hasattr(os, "process_cpu_count"):
        count = os.process_cpu_count()
    elif hasattr(os, "sched_getaffinity"):
        count = len(os.sched_getaffinity(0))
    else:
        count = os.cpu_count()
    return max(1, count or 1)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        # argparse exits 2 on bad flags, matching the input-error contract
        return int(err.code or 0)
    try:
        if args.command == "threshold":
            return _cmd_threshold(args, argv)
        if args.command == "optimize":
            return _cmd_optimize(args, argv)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "dump-lp":
            return _cmd_dump_lp(args)
        parser.error(f"unknown command {args.command!r}")
    except (ScenarioFileError, ReportError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except SolverFailure as err:
        print(f"solver error: {err}", file=sys.stderr)
        return EXIT_SOLVER_ERROR
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
