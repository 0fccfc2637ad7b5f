"""Fast self-test of the benchmark harness (a few seconds).

Run from the root of a checkout:

    python3 perfbench/selftest.py

It checks that the metric names the harness emits equal BENCHMARK.json's,
that a traced operation's layer self times add up to its wall time, and that
a report whose f_thr was edited by hand is counted as a failed operation
rather than dropped. Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import workloads
from run import check_all, end_to_end, tail
from spans import Tracer, layer_metrics


def _tamper(record: dict, path: Path) -> dict:
    report = json.loads(Path(record["report"]).read_text())
    report["f_thr"] += 0.01
    if "optimizer" in report:
        report["optimizer"]["best_f_thr"] = report["f_thr"]
    path.write_text(json.dumps(report))
    return {**record, "report": str(path)}


def main() -> int:
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(root / "src"))
    from gate import Gate
    from lrthresh.cli import main as cli_main

    workdir = root / ".bench_out" / "selftest"
    shutil.rmtree(workdir, ignore_errors=True)
    (workdir / "reports").mkdir(parents=True)
    failures = []

    def expect(ok: bool, what: str):
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            failures.append(what)

    certify = workloads.write_inputs("certify", 0, workdir, root)[0][0]
    optimize = workloads.write_inputs("optimize_joint_23", 0, workdir, root)[1][0]

    tracer = Tracer()
    tracer.install()
    records = []
    for i, op in enumerate((certify, optimize)):
        report = str(workdir / "reports" / f"op-{i}.json")

        def call(name, argv):
            return tracer.wrap(name, workloads.call_cli)(cli_main, argv)

        result = tracer.root(i, workloads.execute, op, report, call)
        records.append({"op": op.index, "kind": op.kind, "label": op.label,
                        "scenario": op.scenario, "report": report, "latency_s": 0.1, "ref_s": 0.01,
                        **result})
    tracer.uninstall()

    per_layer = layer_metrics(tracer.spans, len(records), 1, 1.0, {})
    expect(set(per_layer) == {m["name"] for m in spec["per_layer"]},
           "traced metric names equal BENCHMARK.json per_layer")
    layers = sum(v for k, v in per_layer.items() if k.endswith(".self_s"))
    accounted = layers + per_layer["trace.unattributed_s"]
    expect(abs(accounted - per_layer["trace.wall_s"]) <= 1e-9 * per_layer["trace.wall_s"],
           "layer self times plus unattributed time add up to the traced wall time")

    gate = Gate()
    rows, failed = check_all(gate, records)
    expect(failed == 0 and records[0]["stdout"][0] == workloads.ANCHOR_HEADLINE,
           "untouched reports pass the gate and the anchor prints 0.400000")
    values, _ = end_to_end("certify", records, rows, [{"setup_s": 1.0, "ref_s": 0.01}], 1024)
    expect(set(values) == {m["name"] for m in spec["end_to_end"]},
           "end-to-end metric names equal BENCHMARK.json end_to_end")

    tampered = [_tamper(r, workdir / "reports" / f"tampered-{i}.json")
                for i, r in enumerate(records)]
    rows, failed = check_all(gate, records + tampered)
    expect(len(rows) == 4 and failed == 2 and not rows[2]["ok"] and not rows[3]["ok"],
           "hand-edited f_thr in a threshold and an optimize report counts as two failures")

    latencies = [float(i) for i in range(1, 52)]
    expect(tail(latencies) == (41.0, 10), "p80 of 51 samples has ten samples beyond it")

    print("selftest " + ("failed" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
