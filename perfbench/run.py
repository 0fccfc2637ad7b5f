"""lrthresh benchmark: one workload, one seed, one window.

Run from the root of a checkout:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

The program is built from the checkout's src/ (byte-compiled here) and each
workload runs in a fresh worker process (worker.py), one client, operations
back to back. With --trace 0 the run reports the end-to-end metrics named in
BENCHMARK.json; with --trace 1 it reports the per-layer metrics of a traced
window (spans.py). Every run ends with the correctness gate (gate.py). The
last line of standard output is the result as one JSON object; the run's
files are kept under .bench_out/. WORKLOADS.md describes the workloads.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path
from time import perf_counter

import workloads
from reference import NOMINAL_S

HERE = Path(__file__).resolve().parent
DEADLINE_S = 170.0    # the whole run, children included, ends before this
# Fresh processes timed for setup_s, the worker included: at least
# SETUP_SAMPLES[0], and more, up to SETUP_SAMPLES[1], while the set-ups timed
# so far took less than SETUP_BUDGET_S.
SETUP_SAMPLES = (3, 5)
SETUP_BUDGET_S = 8.0
# A fixed percentile keeps the tail comparable between runs whose sample
# counts differ; certify runs have 50 to 70 samples, so 10 to 14 lie beyond.
TAIL_PERCENTILE = 80


class BenchError(RuntimeError):
    pass


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


# -- environment -------------------------------------------------------------

def _git_commit(root: Path) -> str:
    """HEAD of the checkout, or "unknown" when it is not a git work tree."""
    # the ceiling keeps git from reporting a repository that encloses the checkout
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(root: Path, seed: int) -> dict:
    """Machine and software the run saw; the worker adds its BLAS."""
    loadavg = list(os.getloadavg())
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": loadavg,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
        "commit": _git_commit(root),
    }


# -- processes ---------------------------------------------------------------

def _child(args: list[str], root: Path, deadline: float) -> str:
    """Run worker.py to completion within the deadline; returns its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    remaining = deadline - perf_counter()
    if remaining <= 1.0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args], cwd=root,
                              env=env, stdout=subprocess.PIPE, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError("worker did not finish in time") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return proc.stdout


# -- metrics -----------------------------------------------------------------

def tail(samples: list[float]) -> tuple[float, int]:
    """The TAIL_PERCENTILE of the samples, and how many samples lie beyond it."""
    if len(samples) == 1:
        return samples[0], 0
    value = statistics.quantiles(samples, n=100, method="inclusive")[TAIL_PERCENTILE - 1]
    return value, sum(x > value for x in samples)


def end_to_end(workload: str, records: list[dict], rows: list[dict],
               setups: list[dict], peak_rss_kb: int) -> tuple[dict, dict]:
    """End-to-end metric values, and the details printed beside them.

    Operation costs are latencies in units of the reference kernel timed
    around each operation (reference.py). Set-up times are scaled to the
    nominal machine speed by the kernel time measured on each side of
    set-up. The raw times go to details.
    """
    latencies = [r["latency_s"] for r in records]
    costs = [r["latency_s"] / r["ref_s"] for r in records]
    cost_tail, beyond = tail(costs)
    # certify: the README anchor's threshold (operation 0); optimize: the
    # median of the best thresholds of the first BEST_OPS commands
    first = {}
    for row in rows:
        first.setdefault(row["op"], row)
    prefix = 1 if workload == "certify" else workloads.BEST_OPS
    certified = [first[i]["f_thr"] for i in range(prefix) if i in first and first[i]["ok"]]
    values = {
        "setup_s": statistics.median(s["setup_s"] * NOMINAL_S / s["ref_s"] for s in setups),
        "ops_per_kref": 1e3 * len(costs) / sum(costs),
        "op_cost_p50": statistics.median(costs),
        "op_cost_tail": cost_tail,
        "best_f_thr": statistics.median(certified) if certified else 0.0,
        "peak_rss_mb": peak_rss_kb / 1024.0,
    }
    details = {
        "setup_raw_s": [s["setup_s"] for s in setups],
        "setup_ref_ms": [1e3 * s["ref_s"] for s in setups],
        "samples": len(records),
        "tail_percentile": TAIL_PERCENTILE,
        "tail_samples_beyond": beyond,
        "ref_ms_p50": 1e3 * statistics.median(r["ref_s"] for r in records),
        "ops_per_s": len(latencies) / sum(latencies),
        "op_ms_p50": 1e3 * statistics.median(latencies),
        "op_ms_tail": 1e3 * tail(latencies)[0],
    }
    return values, details


def check_all(gate, records: list[dict]) -> tuple[list[dict], int]:
    """Gate every operation record; returns (threshold rows, failed count)."""
    rows = [gate.check(r) for r in records]
    return rows, sum(not row["ok"] for row in rows)


def _select(specs: list[dict], values: dict) -> dict:
    missing = [s["name"] for s in specs if s["name"] not in values]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    return {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs}


# -- the run -----------------------------------------------------------------

def run(args, root: Path) -> dict:
    start = perf_counter()
    deadline = start + DEADLINE_S
    spec = json.loads((root / "BENCHMARK.json").read_text())
    env = environment(root, args.seed)
    compileall.compile_dir(str(root / "src"), quiet=1)

    workdir = root / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    ops, warmups = workloads.write_inputs(args.workload, args.seed, workdir, root)
    restarts = workloads.OPTIMIZE_CONFIG.get(args.workload, (0, 0, 0, 0))[2]
    (workdir / "ops.json").write_text(json.dumps(
        {"ops": [asdict(op) for op in ops], "warmups": [asdict(op) for op in warmups],
         "restarts_per_op": restarts}))

    common = ["--workload", args.workload, "--workdir", str(workdir)]
    _child(common + ["--seconds", str(args.seconds), "--trace", str(args.trace)], root, deadline)
    worker = json.loads((workdir / "worker.json").read_text())
    env["blas"] = worker["blas"]
    print("env " + json.dumps(env, sort_keys=True), flush=True)
    setups = [worker["setup"]]
    while not args.trace and len(setups) < SETUP_SAMPLES[1] and (
            len(setups) < SETUP_SAMPLES[0] or sum(s["setup_s"] for s in setups) < SETUP_BUDGET_S):
        out = _child(common + ["--setup-only"], root, deadline)
        setups.append(json.loads(out.strip().splitlines()[-1]))

    sys.path.insert(0, str(root / "src"))
    from gate import Gate

    rows, failed = check_all(Gate(), worker["ops"] + worker.get("extra", []) +
                             worker.get("replay", []))
    (workdir / "thresholds.json").write_text(json.dumps(rows, indent=1))
    for row in rows:
        if not row["ok"]:
            print(f"FAILED op {row['op']} ({row['label']}): {'; '.join(row['problems'])}")

    if args.trace:
        metrics = _select(spec["per_layer"], worker["per_layer"])
        details = {"samples": len(worker["ops"]), "spans": str(workdir / "spans.json")}
    else:
        values, details = end_to_end(args.workload, worker["ops"], rows, setups,
                                     worker["peak_rss_kb"])
        metrics = _select(spec["end_to_end"], values)
    details["fail_ratio"] = failed / len(rows)
    details["run_s"] = perf_counter() - start

    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"fail_ratio {details['fail_ratio']:.6g} ratio ({failed} of {len(rows)} operations)")
    print("details " + json.dumps(details, sort_keys=True))
    result = {"correct": failed == 0, "attempted": len(rows), "failed": failed,
              "metrics": metrics}
    (workdir / "result.json").write_text(json.dumps(
        {"workload": args.workload, "trace": args.trace, "env": env, "details": details,
         **result}, indent=1))
    return result


def main(argv=None) -> int:
    args = _parse(argv)
    root = Path.cwd()
    for need in (root / "src" / "lrthresh" / "__init__.py", root / "BENCHMARK.json"):
        if not need.is_file():
            print(f"error: {need.relative_to(root)} not found; run from the root of an "
                  "lrthresh checkout", file=sys.stderr)
            return 2
    try:
        result = run(args, root)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
