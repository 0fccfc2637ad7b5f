"""Report construction and the verify replay, including tamper detection."""

import json

import jsonschema
import numpy as np
import pytest

from lrthresh import (
    OptimizationConfig,
    ReportError,
    Scenario,
    build_optimize_report,
    build_threshold_report,
    ghz_state,
    load_report,
    load_scenario_file,
    optimize_phases,
    paper_settings,
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
def explicit_report():
    """GHZ(3,3) under the bundled phases, with state and phases written out as numbers."""
    sc = Scenario(parties=3, dim=3)
    spec = {"parties": 3, "dim": 3, "state": ghz_state(sc).coeffs.tolist(),
            "settings": paper_settings("maxent_3qutrit").table.tolist()}
    sf = parse_scenario_file(json.dumps(spec))
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


def test_f_thr_raised_past_the_certificate_gap_detected(threshold_report):
    # the witness still passes at f_thr + 1e-7 (its residual grows by at most
    # 1e-7 |P - 1/27|), so only the dual's bound, 1e-7 below, catches this
    bad = json.loads(json.dumps(threshold_report))
    bad["f_thr"] += 1e-7
    bad["witness"]["noise_weight"] += 1e-7
    problems = verify_report(bad)
    assert any("f_thr mismatch" in p for p in problems), problems


@pytest.mark.parametrize("path", [("settings", 1, 0, 2), ("state", 0)])
def test_edited_scenario_detected(explicit_report, path):
    assert verify_report(explicit_report) == []
    bad = json.loads(json.dumps(explicit_report))
    entry = bad["scenario"]
    for key in path[:-1]:
        entry = entry[key]
    entry[path[-1]] += 0.1
    problems = verify_report(bad)
    assert any("witness marginal residual" in p for p in problems), problems


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


@pytest.mark.parametrize("block, field, value", [
    ("certificate", "lower_bound", 5.0),
    ("certificate", "gap", -3.0),
    ("certificate", "marginal_residual", 1.0),
    ("witness", "noise_weight", 0.9),
])
def test_tampered_certificate_field_detected(threshold_report, block, field, value):
    bad = json.loads(json.dumps(threshold_report))
    bad[block][field] = value
    problems = verify_report(bad)
    assert any(field in p for p in problems), problems


def test_optimize_report_clean(optimize_report):
    assert verify_report(optimize_report) == []
    assert optimize_report["rng_seed"] == 11
    log = optimize_report["optimizer"]["per_restart_log"]
    assert len(log) == 3


def test_reports_with_retired_settings_still_verify(tmp_path, threshold_report,
                                                    optimize_report):
    # reports written before these settings became constants carry them
    old_threshold = json.loads(json.dumps(threshold_report))
    old_threshold["tolerances"]["pivot_tol"] = 1e-10
    old_optimize = json.loads(json.dumps(optimize_report))
    old_optimize["optimizer"]["config"].update(simplex_spread=0.3, convergence_tol=1e-4)
    for i, report in enumerate((old_threshold, old_optimize)):
        path = tmp_path / f"old-{i}.json"
        write_report(report, path)
        assert verify_report(load_report(path)) == []


def test_tampered_best_value_detected(optimize_report):
    bad = json.loads(json.dumps(optimize_report))
    bad["optimizer"]["best_f_thr"] += 0.05
    bad["f_thr"] = bad["optimizer"]["best_f_thr"]
    problems = verify_report(bad)
    assert any("best_f_thr mismatch" in p for p in problems)
    bad["optimizer"]["best_f_thr"] = bad["f_thr"] = float("nan")
    assert "field optimizer.best_f_thr holds a non-finite number" in verify_report(bad)


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
