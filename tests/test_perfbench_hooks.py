"""The benchmark's tracer patches package names where their callers look them up.

perfbench/spans.py wraps names such as ``lrthresh.cli.feasible_at`` and
``lrthresh.threshold.independent_rows`` in place. Installing and removing the
tracer here makes deleting one of those names fail this suite, instead of
breaking only the benchmark's traced runs.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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
               (threshold, "independent_rows"), (threshold.ThresholdSolver, "solve")]
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
