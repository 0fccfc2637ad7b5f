"""Traced runs: spans recorded around the public callables of each layer.

Nothing in the package changes. The tracer replaces each name where the
caller looks it up (``lrthresh.cli.threshold``, ``lrthresh.search.nelder_mead``,
``ThresholdSolver.value``, ...) with a wrapper that records one span: name,
start, end, parent span, operation id, and an optional count taken at the
boundary (pivots, evaluations, a rejected update). Spans stay in memory until
the run ends. A span's layer is the part of its name before the first dot;
the benchmark's own root span per operation is named ``op``.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "scenario_io", "reports", "search", "probabilities", "scenario",
          "threshold", "simplex")
STRUCTURE_TAGS = ("n3d3", "n4d2", "n5d2", "n2d3")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op, extra]
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, extra=None, delta=None):
        """A traced stand-in for fn.

        extra(args, result) or delta(args), read before and after the call and
        subtracted, gives the span's count.
        """
        spans, stack, tracer = self.spans, self._stack, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op, None]
            stack.append(len(spans))
            spans.append(span)
            before = delta(args) if delta is not None else 0
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if delta is not None:
                span[5] = delta(args) - before
            elif extra is not None:
                span[5] = extra(args, result)
            return result

        return traced

    def patch(self, owner, attr, name, **counts):
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, **counts))

    def install(self):
        # the package re-exports a function named threshold, which shadows the
        # submodule attribute, so modules are fetched by their full names
        cli, probabilities, reports, search, simplex, threshold = (
            importlib.import_module(f"lrthresh.{name}") for name in
            ("cli", "probabilities", "reports", "search", "simplex", "threshold"))

        for name in ("threshold", "feasible_at", "correlation_tensor", "load_scenario_file",
                     "build_threshold_report", "build_optimize_report", "write_report",
                     "load_report", "verify_report", "optimize_phases",
                     "optimize_state_and_phases"):
            self.patch(cli, name, _SPAN_NAMES[name])
        for name in ("threshold", "correlation_tensor"):
            self.patch(search, name, _SPAN_NAMES[name])
        for name in ("threshold", "feasible_at", "correlation_tensor", "build_threshold_lp",
                     "certified_lower_bound"):
            self.patch(reports, name, _SPAN_NAMES[name])
        # threshold() imports correlation_tensor from here on every call
        self.patch(probabilities, "correlation_tensor", _SPAN_NAMES["correlation_tensor"])
        self.patch(probabilities, "setting_unitaries", "scenario.setting_unitaries")
        for name in ("build_threshold_lp", "independent_rows", "certified_lower_bound"):
            self.patch(threshold, name, _SPAN_NAMES[name])
        self.patch(threshold, "solve_lp", "simplex.solve_lp",
                   extra=lambda args, sol: sol.iterations)
        self.patch(simplex, "independent_rows", "simplex.independent_rows")

        solver = threshold.ThresholdSolver
        self.patch(solver, "__init__", "threshold.solver_init",
                   extra=lambda args, _: f"n{args[1].parties}d{args[1].dim}")
        self.patch(solver, "value", "threshold.value", extra=lambda args, _: args[0].last_pivots)
        self.patch(solver, "solve", "threshold.solve",
                   extra=lambda args, res: [res.solver_stats["iterations"],
                                            bool(res.solver_stats["warm_start"])])
        core = simplex.BoundedSimplex
        pivots = lambda args: args[0].pivots  # noqa: E731
        self.patch(core, "run", "simplex.run", delta=pivots)
        self.patch(core, "dual_run", "simplex.dual_run", delta=pivots)
        self.patch(core, "refactor", "simplex.refactor")
        self.patch(core, "replace_column", "simplex.replace_column",
                   extra=lambda args, ok: int(not ok))

        params = search.ParameterVector
        self.patch(params, "decode_settings", "search.decode")
        self.patch(params, "decode_state", "search.decode")
        self._patch_nelder_mead(search)

    def _patch_nelder_mead(self, search):
        """Count evaluations, and flat ones, by wrapping the objective nelder_mead gets."""
        original = search.nelder_mead
        flat_value = search.FLAT_VALUE
        last = [0, 0]  # [evaluations, flat evaluations] of the latest run

        def counted_nelder_mead(f, start, config):
            tally = [0, 0]

            def counted(params):
                value = f(params)
                tally[0] += 1
                tally[1] += value <= flat_value
                return value

            best = original(counted, start, config)
            last[:] = tally
            return best

        self._patches.append((search, "nelder_mead", original))
        search.nelder_mead = self.wrap("search.nelder_mead", counted_nelder_mead,
                                       extra=lambda args, _: list(last))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def root(self, op_id: int, fn, *args):
        """Run fn as operation op_id under the benchmark's root span."""
        self.op = op_id
        try:
            return self.wrap("op", fn)(*args)
        finally:
            self.op = -1

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "extra"],
                       "spans": self.spans}, fh)


_SPAN_NAMES = {
    "threshold": "threshold.threshold",
    "feasible_at": "threshold.feasible_at",
    "build_threshold_lp": "threshold.build_lp",
    "correlation_tensor": "probabilities.correlation_tensor",
    "load_scenario_file": "scenario_io.load",
    "build_threshold_report": "reports.build",
    "build_optimize_report": "reports.build",
    "write_report": "reports.write",
    "load_report": "reports.load",
    "verify_report": "reports.verify",
    "optimize_phases": "search.optimize",
    "optimize_state_and_phases": "search.optimize",
    "independent_rows": "simplex.independent_rows",
    "certified_lower_bound": "simplex.certified_lower_bound",
}


def structure_builds(spans) -> dict[str, float]:
    """Seconds of the first ThresholdSolver construction per scenario.

    The first construction in a process builds the scenario's cached
    structure (kept rows, starting vertex); later ones reuse it.
    """
    builds: dict[str, float] = {}
    for name, start, end, _, _, extra in spans:
        if name == "threshold.solver_init" and extra not in builds:
            builds[extra] = end - start
    return builds


def layer_metrics(spans, ops: int, restarts_per_op: int, untraced_wall: float,
                  builds: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics of one traced window.

    Counts, totals and self times are per operation; *_ms_per_call values are
    means over the calls made. Self times of the layers plus the root's
    unattributed time add up to trace.wall_s.
    """
    calls = defaultdict(int)
    busy = defaultdict(float)
    extras = defaultdict(list)
    child = [0.0] * len(spans)
    for name, start, end, parent, _, extra in spans:
        if parent >= 0:
            child[parent] += end - start
    self_time = defaultdict(float)
    fallbacks = 0
    for i, (name, start, end, parent, _, extra) in enumerate(spans):
        dur = end - start
        calls[name] += 1
        busy[name] += dur
        if extra is not None:
            extras[name].append(extra)
        self_time[name.split(".")[0]] += dur - child[i]
        if name == "simplex.solve_lp" and parent >= 0 and spans[parent][0] == "threshold.value":
            fallbacks += 1

    def per_op(x):
        return x / ops if ops else 0.0

    def ms_per_call(*names):
        n = sum(calls[k] for k in names)
        return 1e3 * sum(busy[k] for k in names) / n if n else 0.0

    def mean(values):
        return sum(values) / len(values) if values else 0.0

    wall = busy["op"]
    solves = extras["threshold.solve"]
    nm = extras["search.nelder_mead"]
    evals = sum(e for e, _ in nm)
    m = {
        "scenario.unitaries_ms_per_call": ms_per_call("scenario.setting_unitaries"),
        "probabilities.born_calls": per_op(calls["probabilities.correlation_tensor"]),
        "probabilities.born_ms_per_call": ms_per_call("probabilities.correlation_tensor"),
        "probabilities.born_share": busy["probabilities.correlation_tensor"] / wall if wall else 0.0,
    }
    for tag in STRUCTURE_TAGS:
        m[f"threshold.structure_build_s.{tag}"] = builds.get(tag, 0.0)
    m.update({
        "threshold.value_calls": per_op(calls["threshold.value"]),
        "threshold.value_ms_per_call": ms_per_call("threshold.value"),
        "threshold.value_pivots_per_call": mean(extras["threshold.value"]),
        "threshold.value_cold_fallbacks": per_op(fallbacks),
        "threshold.solve_calls": per_op(calls["threshold.solve"]),
        "threshold.solve_ms_per_call": ms_per_call("threshold.solve"),
        "threshold.solve_pivots_per_call": mean([p for p, _ in solves]),
        "threshold.solve_cold_count": per_op(sum(not warm for _, warm in solves)),
        "threshold.build_lp_ms_per_call": ms_per_call("threshold.build_lp"),
        "threshold.feasible_at_calls": per_op(calls["threshold.feasible_at"]),
        "threshold.feasible_at_ms_per_call": ms_per_call("threshold.feasible_at"),
        "simplex.solve_lp_calls": per_op(calls["simplex.solve_lp"]),
        "simplex.solve_lp_ms_per_call": ms_per_call("simplex.solve_lp"),
        "simplex.solve_lp_pivots_per_call": mean(extras["simplex.solve_lp"]),
        "simplex.independent_rows_ms_per_call": ms_per_call("simplex.independent_rows"),
        "simplex.certified_lower_bound_ms_per_call":
            ms_per_call("simplex.certified_lower_bound"),
        "simplex.primal_pivots": per_op(sum(extras["simplex.run"])),
        "simplex.dual_pivots": per_op(sum(extras["simplex.dual_run"])),
        "simplex.primal_run_ms": per_op(1e3 * busy["simplex.run"]),
        "simplex.dual_run_ms": per_op(1e3 * busy["simplex.dual_run"]),
        "simplex.refactors": per_op(calls["simplex.refactor"]),
        "simplex.refactor_ms": per_op(1e3 * busy["simplex.refactor"]),
        "simplex.rank_one_rejects": per_op(sum(extras["simplex.replace_column"])),
        "search.evals": per_op(evals),
        "search.evals_per_s": evals / busy["search.optimize"] if busy["search.optimize"] else 0.0,
        "search.nm_runs": per_op(len(nm)),
        "search.plateau_redraws": per_op(len(nm)) - restarts_per_op if nm else 0.0,
        "search.flat_eval_share": sum(f for _, f in nm) / evals if evals else 0.0,
        "search.decode_ms_per_call": ms_per_call("search.decode"),
        "reports.build_ms_per_call": ms_per_call("reports.build"),
        "reports.write_ms_per_call": ms_per_call("reports.write"),
        "reports.load_ms_per_call": ms_per_call("reports.load"),
        "reports.verify_ms_per_call": ms_per_call("reports.verify"),
        "scenario_io.load_ms_per_call": ms_per_call("scenario_io.load"),
        "cli.threshold_ms_per_call": ms_per_call("cli.threshold"),
        "cli.verify_ms_per_call": ms_per_call("cli.verify"),
        "cli.optimize_ms_per_call": ms_per_call("cli.optimize"),
    })
    for layer in LAYERS:
        m[f"{layer}.self_s"] = per_op(self_time[layer])
    m["trace.unattributed_s"] = per_op(self_time["op"])
    m["trace.wall_s"] = per_op(wall)
    m["trace.ops"] = float(ops)
    m["trace.overhead_share"] = wall / untraced_wall - 1.0 if untraced_wall else 0.0
    return m
