"""Report construction and the verify replay, including tamper detection."""

import json

import jsonschema
import numpy as np
import pytest

from lrthresh import (
    OptimizationConfig,
    ReportError,
    build_optimize_report,
    build_threshold_report,
    ghz_state,
    load_report,
    load_scenario_file,
    optimize_phases,
    parse_scenario_file,
    threshold,
    verify_report,
    write_report,
)
from lrthresh.scenario_io import _validator

GHZ33 = "parties: 3\ndim: 3\nstate: ghz\nsettings: paper-maxent\n"
GHZ23 = "parties: 2\ndim: 3\nstate: ghz\nsettings: zero\n"


@pytest.fixture(scope="module")
def threshold_report():
    sf = parse_scenario_file(GHZ33)
    res = threshold(sf.state, sf.settings)
    return build_threshold_report(sf, res, ["threshold", "--scenario", "x.yaml"], 1.0)


@pytest.fixture(scope="module")
def optimize_report():
    sf = parse_scenario_file(GHZ23)
    cfg = OptimizationConfig(restarts=3, rng_seed=11, max_evals_per_restart=120,
                             mode="phases_only")
    res = optimize_phases(sf.state, cfg)
    return build_optimize_report(sf, res, cfg, ["optimize", "--seed", "11"], 2.0)


def test_threshold_report_clean(threshold_report):
    assert verify_report(threshold_report) == []
    assert abs(threshold_report["f_thr"] - 0.4) < 1e-3
    assert threshold_report["kind"] == "threshold"


def test_threshold_report_round_trips_through_disk(tmp_path, threshold_report):
    path = tmp_path / "report.json"
    write_report(threshold_report, path)
    back = load_report(path)
    assert back == json.loads(json.dumps(threshold_report))
    assert verify_report(back) == []


def test_tampered_f_thr_detected(threshold_report):
    bad = json.loads(json.dumps(threshold_report))
    bad["f_thr"] += 0.01
    problems = verify_report(bad)
    assert any("f_thr mismatch" in p for p in problems)


def test_negated_witness_entry_detected(threshold_report):
    bad = json.loads(json.dumps(threshold_report))
    weights = bad["witness"]["weights"]
    i = int(np.argmax(weights))
    weights[i] = -weights[i]
    problems = verify_report(bad)
    assert any("nonnegativity" in p and str(i) in p for p in problems)


def test_tampered_dual_detected(threshold_report):
    bad = json.loads(json.dumps(threshold_report))
    bad["certificate"]["dual"] = [0.0] * len(bad["certificate"]["dual"])
    problems = verify_report(bad)
    assert any("certificate" in p for p in problems)


def test_optimize_report_clean(optimize_report):
    assert verify_report(optimize_report) == []
    assert optimize_report["rng_seed"] == 11
    log = optimize_report["optimizer"]["per_restart_log"]
    assert len(log) == 3


def test_tampered_best_value_detected(optimize_report):
    bad = json.loads(json.dumps(optimize_report))
    bad["optimizer"]["best_f_thr"] += 0.05
    bad["f_thr"] = bad["optimizer"]["best_f_thr"]
    problems = verify_report(bad)
    assert any("best_f_thr mismatch" in p for p in problems)


def test_load_report_errors(tmp_path):
    with pytest.raises(ReportError):
        load_report(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ReportError):
        load_report(bad)
    incomplete = tmp_path / "incomplete.json"
    incomplete.write_text(json.dumps({"kind": "threshold"}))
    with pytest.raises(ReportError):
        load_report(incomplete)


def test_unknown_kind_reported():
    problems = verify_report({"kind": "mystery"})
    assert any("unknown report kind" in p for p in problems)


def test_schemas_compile_once_per_process(tmp_path, monkeypatch, threshold_report):
    # both bundled schemas declare draft 2020-12
    cls = jsonschema.Draft202012Validator
    original = cls.check_schema
    compiled = []

    def counting_check_schema(klass, schema, *args, **kwargs):
        compiled.append(schema["title"])
        return original(schema, *args, **kwargs)

    monkeypatch.setattr(cls, "check_schema", classmethod(counting_check_schema))
    _validator.cache_clear()
    for i, text in enumerate((GHZ33, GHZ23, GHZ23 + "noise: 0.5\n")):
        scenario = tmp_path / f"s{i}.yaml"
        scenario.write_text(text)
        load_scenario_file(scenario)
        report = tmp_path / f"r{i}.json"
        write_report(threshold_report, report)
        load_report(report)
    assert sorted(compiled) == ["Run report", "Scenario file"]
