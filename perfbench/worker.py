"""One workload in a fresh process: set-up, then a closed loop of operations.

Started by run.py with PYTHONPATH pointing at the checkout's src/. The
process imports lrthresh, runs one untimed warm-up operation per scenario
(that and the import are the set-up time a CLI user pays), then runs
operations back to back, one client, for the given number of seconds, and
writes what it saw to <workdir>/worker.json. It also times the reference
kernel just before and just after set-up, so that run.py can scale the set-up
time to the nominal machine speed. With --setup-only it stops after set-up
and prints both times.

On the optimize workloads, operations of the first workloads.BEST_OPS that the
window did not reach are run after it, untimed, so that best_f_thr always
covers the same commands.

A traced run executes each operation twice, first with spans on and then
without, so the tracing overhead is measured on identical work.
"""

from __future__ import annotations

import os
from time import perf_counter

_T0 = perf_counter()
# One BLAS thread: on a small shared machine a second pool thread that gets
# preempted stalls every threaded call, which swamps the differences the
# benchmark is meant to show. Must be set before numpy loads OpenBLAS.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402
from reference import ReferenceKernel  # noqa: E402

# Kernel calls timed on each side of set-up. The machine's speed changes
# within a second, so a few calls measure it poorly.
REF_CALLS = 20


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--workdir", required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def _blas() -> dict:
    """BLAS library, version and thread count as this process loaded them."""
    import numpy as np

    info = {"name": "unknown", "version": "unknown", "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name", "unknown"), version=blas.get("version", "unknown"))
    except (KeyError, TypeError):
        pass
    # wheels bundle OpenBLAS next to the package; CDLL returns the loaded copy
    for lib in sorted(Path(np.__file__).parent.parent.glob("numpy.libs/*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                getter = getattr(handle, symbol)
                getter.restype = ctypes.c_int
                info.update(library=lib.name, threads=int(getter()))
                return info
    return info


def _ref_median(reference: ReferenceKernel) -> float:
    """Median kernel time over REF_CALLS calls, after one untimed call."""
    reference()
    return statistics.median(reference.timed() for _ in range(REF_CALLS))


def _window(ops, workdir: Path, tag: str, run_one, seconds=float("inf"), count=None,
            reference=None):
    """Run ops back to back until `seconds` pass or `count` ops are done.

    With a reference kernel, each record also gets `ref_s`: the mean of the
    kernel times measured just before and just after its operation.
    """
    records = []
    ref_before = reference.timed() if reference else None
    start = perf_counter()
    i = 0
    while perf_counter() - start < seconds and (count is None or i < count):
        op = ops[i % len(ops)]
        report = str(workdir / "reports" / f"{tag}-{i:04d}.json")
        t = perf_counter()
        result = run_one(i, op, report)
        record = {"op": op.index, "kind": op.kind, "label": op.label, "scenario": op.scenario,
                  "report": report, "latency_s": perf_counter() - t, **result}
        if reference:
            ref_after = reference.timed()
            record["ref_s"] = (ref_before + ref_after) / 2
            ref_before = ref_after
        records.append(record)
        i += 1
    return records


def main(argv=None) -> int:
    args = _parse(argv)
    workdir = Path(args.workdir)
    root = Path.cwd()

    # the kernel is timed just before and just after set-up; the time spent
    # on it here is left out of the set-up time
    start = perf_counter()
    reference = ReferenceKernel()
    ref_before = _ref_median(reference)
    excluded = perf_counter() - start

    import lrthresh
    from lrthresh.cli import main as cli_main

    if not Path(lrthresh.__file__).resolve().is_relative_to((root / "src").resolve()):
        print(f"error: imported lrthresh from {lrthresh.__file__}, not from this checkout",
              file=sys.stderr)
        return 2

    manifest = json.loads((workdir / "ops.json").read_text())
    ops, warmups = ([workloads.Op(**{**o, "flags": tuple(o["flags"])}) for o in manifest[key]]
                    for key in ("ops", "warmups"))
    (workdir / "reports").mkdir(exist_ok=True)

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()

    def plain(i, op, report):
        return workloads.execute(op, report,
                                 lambda name, argv: workloads.call_cli(cli_main, argv))

    op_ids = itertools.count()

    def traced(i, op, report):
        def call(name, argv):
            return tracer.wrap(name, workloads.call_cli)(cli_main, argv)
        return tracer.root(next(op_ids), workloads.execute, op, report, call)

    warm = _window(warmups, workdir, "warmup", traced if tracer else plain,
                   count=len(warmups))
    setup = {"setup_s": perf_counter() - _T0 - excluded}
    setup["ref_s"] = (ref_before + _ref_median(reference)) / 2
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    out = {"setup": setup, "warmup": warm, "blas": _blas()}
    if tracer is None:
        out["ops"] = _window(ops, workdir, "op", plain, seconds=args.seconds,
                             reference=reference)
        out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        done = len(out["ops"])
        if ops[0].kind == "optimize" and done < workloads.BEST_OPS:
            out["extra"] = _window(ops[done:workloads.BEST_OPS], workdir, "extra", plain,
                                   count=workloads.BEST_OPS - done)
    else:
        from spans import layer_metrics, structure_builds
        builds = structure_builds(tracer.spans)
        tracer.spans.clear()
        tracer.uninstall()
        out["ops"], out["replay"] = [], []
        start = perf_counter()
        while perf_counter() - start < args.seconds:
            # each operation runs traced and then untraced, back to back, so
            # the overhead is measured at one machine speed
            i = len(out["ops"])
            op = ops[i % len(ops)]
            tracer.install()
            out["ops"] += _window([op], workdir, f"op-{i:04d}", traced, count=1)
            tracer.uninstall()
            out["replay"] += _window([op], workdir, f"replay-{i:04d}", plain, count=1)
        untraced = sum(r["latency_s"] for r in out["replay"])
        out["per_layer"] = layer_metrics(tracer.spans, len(out["ops"]),
                                         manifest["restarts_per_op"], untraced, builds)
        tracer.dump(workdir / "spans.json")
    (workdir / "worker.json").write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
