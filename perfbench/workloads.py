"""Benchmark workloads: seeded inputs and the operations that run them.

Every operation goes through the public CLI entry point, ``lrthresh.cli.main``,
in-process, exactly as a user's ``lrthresh ...`` command would. The seed only
shapes the scenario files and flags written here; the program sees nothing
else. WORKLOADS.md explains why each workload exists.
"""

from __future__ import annotations

import contextlib
import io
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

WORKLOADS = ("certify", "optimize_joint_33", "optimize_joint_23")

ANCHOR_YAML = "parties: 3\ndim: 3\nstate: ghz\nsettings: paper-maxent\n"
ANCHOR_HEADLINE = "0.400000"

# One cycle of the certify stream, by (parties, dim, carries noise). The order
# interleaves the slow kinds so that every prefix of the stream has about the
# same mix; the seed picks only each file's state, phases and noise level.
CERTIFY_CYCLE = (
    (3, 3, False), (3, 3, False), (4, 2, False), (3, 3, True),
    (3, 3, False), (5, 2, False), (4, 2, True), (3, 3, False),
    (3, 3, False), (4, 2, False), (3, 3, True), (3, 3, False),
    (3, 3, False), (5, 2, False), (3, 3, True), (4, 2, False),
)
CERTIFY_STREAM = 6 * len(CERTIFY_CYCLE)  # distinct files; the window wraps around if it runs out
NOISE_RANGE = (0.05, 0.6)

# Fixed optimize budgets: (parties, dim, restarts, max evals per restart).
OPTIMIZE_CONFIG = {
    "optimize_joint_33": (3, 3, 1, 300),
    "optimize_joint_23": (2, 3, 4, 500),
}
OPTIMIZE_STREAM = 64  # distinct --seed values
# best_f_thr is the median over the first BEST_OPS optimize commands of the
# stream, whatever the speed of the run
BEST_OPS = 16


@dataclass(frozen=True)
class Op:
    """One benchmark operation: a certify pair or one optimize command."""

    index: int       # position in the workload's input stream
    kind: str        # "certify" or "optimize"
    label: str       # scenario tag plus variant, e.g. "n3d3", "n4d2-noise", "n3d3-anchor"
    scenario: str    # scenario file, relative to the checkout root
    flags: tuple = ()  # extra optimize flags


def scenario_tag(parties: int, dim: int) -> str:
    return f"n{parties}d{dim}"


def _random_scenario(rng: np.random.Generator, parties: int, dim: int,
                     noise: bool) -> dict:
    doc = {
        "parties": parties,
        "dim": dim,
        "state": [float(c) for c in rng.normal(size=dim ** parties)],
        "settings": [[[float(a) for a in rng.uniform(0.0, 2.0 * np.pi, size=dim)]
                      for _ in range(2)] for _ in range(parties)],
    }
    if noise:
        doc["noise"] = float(rng.uniform(*NOISE_RANGE))
    return doc


def write_inputs(workload: str, seed: int, workdir: Path,
                 root: Path) -> tuple[list[Op], list[Op]]:
    """Write the workload's scenario files under workdir.

    Returns (the op stream, the warm-up ops). There is one warm-up op per
    scenario the workload uses. It pays the per-process structure build,
    marginal matrix and einsum plan, and it does not depend on the seed, so
    every set-up does the same work.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    inputs = workdir / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    rel = inputs.relative_to(root)

    def write(name: str, text: str) -> str:
        (inputs / name).write_text(text)
        return str(rel / name)

    if workload == "certify":
        ops = [Op(0, "certify", "n3d3-anchor", write("certify-000.yaml", ANCHOR_YAML))]
        for i in range(1, CERTIFY_STREAM):
            parties, dim, noise = CERTIFY_CYCLE[i % len(CERTIFY_CYCLE)]
            doc = _random_scenario(np.random.default_rng([seed, i]), parties, dim, noise)
            label = scenario_tag(parties, dim) + ("-noise" if noise else "")
            text = yaml.safe_dump(doc, sort_keys=False, default_flow_style=None)
            ops.append(Op(i, "certify", label, write(f"certify-{i:03d}.yaml", text)))
        warmups = []
        for parties, dim in sorted({kind[:2] for kind in CERTIFY_CYCLE}):
            tag = scenario_tag(parties, dim)
            warmups.append(Op(-1, "certify", tag,
                              write(f"warmup-{tag}.yaml", _ghz_yaml(parties, dim))))
        return ops, warmups

    parties, dim, restarts, max_evals = OPTIMIZE_CONFIG[workload]
    tag = scenario_tag(parties, dim)
    scenario = write(f"{workload}.yaml", _ghz_yaml(parties, dim))

    def flags(restarts, max_evals, op_seed):
        return ("--mode", "all", "--restarts", str(restarts), "--max-evals", str(max_evals),
                "--seed", str(op_seed), "--workers", "1")

    seeds = np.random.default_rng(seed).integers(0, 2**31 - 1, size=OPTIMIZE_STREAM)
    ops = [Op(i, "optimize", tag, scenario, flags(restarts, max_evals, int(s)))
           for i, s in enumerate(seeds)]
    return ops, [Op(-1, "optimize", tag, scenario, flags(1, 10, 0))]


def _ghz_yaml(parties: int, dim: int) -> str:
    return f"parties: {parties}\ndim: {dim}\nstate: ghz\nsettings: zero\n"


def call_cli(main, argv: list[str]) -> tuple[int, str]:
    """Run ``lrthresh <argv>`` in-process; returns (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def execute(op: Op, report: str, call) -> dict:
    """Run one operation; ``call(name, argv)`` performs one CLI command.

    An exception escaping the CLI is recorded as the operation's error, so the
    loop goes on and the gate counts it as a failure.
    """
    out: dict = {"codes": [], "stdout": [], "error": None}
    try:
        if op.kind == "certify":
            steps = [("cli.threshold", ["threshold", "--scenario", op.scenario, "--out", report]),
                     ("cli.verify", ["verify", report])]
        else:
            steps = [("cli.optimize", ["optimize", "--scenario", op.scenario, *op.flags,
                                       "--out", report])]
        for name, argv in steps:
            code, text = call(name, argv)
            out["codes"].append(code)
            out["stdout"].append(text.strip())
            if code != 0:
                break
    except Exception:
        out["error"] = traceback.format_exc(limit=4)
    return out
