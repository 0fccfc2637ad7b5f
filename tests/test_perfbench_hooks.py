"""The benchmark's tracer patches package names where their callers look them up.

perfbench/spans.py wraps names such as ``lrthresh.cli.feasible_at`` and
``lrthresh.threshold.independent_rows`` in place. Installing and removing the
tracer here makes deleting one of those names fail this suite, instead of
breaking only the benchmark's traced runs. A name can also stay in place but
stop being called, which install() cannot see, so the Born layer's two spans,
the search's spans and the spans of a failed solve are checked on real calls.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

from lrthresh import (OptimizationConfig, PhaseSettings, Scenario, SolverFailure,
                      correlation_tensor, ghz_state)

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "lrthresh"

# (module, name) for every name imported on one of the package's seven
# `noqa: F401` lines: unused where they are imported, they are kept only so
# the tracer can patch them there
TRACER_ONLY_IMPORTS = {
    ("cli", "feasible_at"), ("cli", "threshold"),
    ("reports", "build_threshold_lp"), ("reports", "certified_lower_bound"),
    ("reports", "feasible_at"), ("reports", "threshold"), ("search", "correlation_tensor"),
    ("threshold", "independent_rows"), ("threshold", "solve_lp"),
}


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    cli = importlib.import_module("lrthresh.cli")
    reports = importlib.import_module("lrthresh.reports")
    threshold = importlib.import_module("lrthresh.threshold")
    watched = [(cli, "feasible_at"), (cli, "threshold"), (reports, "feasible_at"),
               (reports, "build_threshold_lp"), (reports, "certified_lower_bound"),
               (reports, "threshold"), (reports, "correlation_tensor"),
               (threshold, "independent_rows"),
               (threshold.ThresholdSolver, "solve")]
    originals = [getattr(owner, name) for owner, name in watched]

    tracer = load_spans().Tracer()
    try:
        tracer.install()  # a name it cannot find raises here
        for (owner, name), original in zip(watched, originals):
            assert getattr(owner, name) is not original, name
            assert getattr(owner, name).__wrapped__ is original, name
    finally:
        tracer.uninstall()
    for (owner, name), original in zip(watched, originals):
        assert getattr(owner, name) is original, name


def test_unused_imports_are_only_the_tracers():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        marked = {n for n, line in enumerate(source.splitlines(), 1) if "noqa: F401" in line}
        imported = set()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    if alias.lineno in marked:
                        imported.add(alias.lineno)
                        found.add((path.stem, alias.asname or alias.name))
        assert imported == marked, f"{path.name}: a noqa: F401 line that imports nothing"
    # a new unused import fails here: drop it, or give it a caller
    assert found == TRACER_ONLY_IMPORTS


def test_born_call_records_unitaries_span():
    probabilities = importlib.import_module("lrthresh.probabilities")
    sc = Scenario(parties=2, dim=3)
    settings = PhaseSettings(sc, [[[0.0, 1.0, 2.0]] * 2] * 2)

    tracer = load_spans().Tracer()
    try:
        tracer.install()
        probabilities.correlation_tensor(ghz_state(sc), settings)
    finally:
        tracer.uninstall()
    names = [span[0] for span in tracer.spans]
    assert names == ["probabilities.correlation_tensor", "scenario.setting_unitaries"]
    assert tracer.spans[1][3] == 0  # the unitaries are built inside the Born call


def test_traced_optimize_records_search_spans():
    search = importlib.import_module("lrthresh.search")
    cfg = OptimizationConfig(restarts=2, rng_seed=7, max_evals_per_restart=200,
                             mode="phases_and_state")
    tracer = load_spans().Tracer()
    try:
        tracer.install()
        result = search.optimize_state_and_phases(Scenario(parties=3, dim=2), cfg)
    finally:
        tracer.uninstall()
    names = [span[0] for span in tracer.spans]
    assert "probabilities.correlation_tensor" in names
    # every evaluation is one ThresholdSolver.value call
    assert names.count("threshold.value") == result.evals


def test_traced_facet_optimize_records_one_born_span_per_evaluation(monkeypatch):
    search = importlib.import_module("lrthresh.search")
    block_rows, born_calls = [], []
    original_block = search._first_off_plateau
    original_born = search.born_probabilities

    def recorded(*args):
        k, value = original_block(*args)
        block_rows.append(k + 1)
        return k, value

    def counted_born(coeffs, unitaries):
        born_calls.append(len(coeffs))
        return original_born(coeffs, unitaries)

    monkeypatch.setattr(search, "_first_off_plateau", recorded)
    monkeypatch.setattr(search, "born_probabilities", counted_born)
    cfg = OptimizationConfig(restarts=2, rng_seed=7, max_evals_per_restart=200,
                             mode="phases_and_state")
    tracer = load_spans().Tracer()
    try:
        tracer.install()
        result = search.optimize_state_and_phases(Scenario(parties=2, dim=3), cfg)
    finally:
        tracer.uninstall()
    names = [span[0] for span in tracer.spans]
    # every search evaluation, draw or ascent step, is contracted by
    # born_probabilities where the tracer does not look: one call per block
    # and one per ascent step; the only correlation_tensor span is the
    # certified solve's
    ascent_steps = result.evals - sum(block_rows)
    assert sum(block_rows) > 0 and ascent_steps > 2
    assert len(born_calls) == len(block_rows) + ascent_steps
    assert names.count("probabilities.correlation_tensor") == 1
    # and the endpoint of each restart is decoded once
    assert names.count("search.decode") == 2 * cfg.restarts


def test_failed_value_closes_its_spans(monkeypatch):
    simplex = importlib.import_module("lrthresh.simplex")
    threshold = importlib.import_module("lrthresh.threshold")
    sc = Scenario(parties=2, dim=3)
    tensor = correlation_tensor(ghz_state(sc), PhaseSettings(sc, [[[0.0, 1.0, 2.0]] * 2] * 2))

    def fail(*args):
        raise SolverFailure("numerical", "injected")

    monkeypatch.setattr(simplex.BoundedSimplex, "dual_run", fail)
    spans = load_spans()
    tracer = spans.Tracer()
    try:
        tracer.install()
        solver = threshold.ThresholdSolver(sc)
        with pytest.raises(SolverFailure, match="injected"):
            solver.value(tensor)
        assert not tracer._stack  # every span the failure crossed was popped
    finally:
        tracer.uninstall()
    names = [span[0] for span in tracer.spans]
    assert names == ["threshold.solver_init", "threshold.value", "simplex.dual_run"]
    value_span, dual_span = tracer.spans[1], tracer.spans[2]
    assert dual_span[3] == 1  # the failed repair ran inside value
    assert value_span[1] <= dual_span[1] <= dual_span[2] <= value_span[2]
    metrics = spans.layer_metrics(tracer.spans, 1, 1, 0.0, {})
    assert metrics["threshold.value_cold_fallbacks"] == 0
    assert metrics["simplex.solve_lp_calls"] == 0
