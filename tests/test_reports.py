"""Report construction and the verify replay, including tamper detection."""

import importlib
import json
from importlib import resources

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
from lrthresh import reports
from lrthresh.cli import main
from lrthresh.scenario_io import _schema_error, _validator
from lrthresh.simplex import BoundedSimplex
from lrthresh.threshold import ThresholdSolver

# the package's function named threshold shadows the submodule attribute
threshold_module = importlib.import_module("lrthresh.threshold")

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
    bad["witness"]["noise_weight"] = bad["f_thr"]
    problems = verify_report(bad)
    # the certificate of the best point bounds the threshold 0.05 lower
    assert any("f_thr mismatch" in p for p in problems), problems
    bad["optimizer"]["best_f_thr"] = bad["f_thr"] = float("nan")
    assert "field optimizer.best_f_thr holds a non-finite number" in verify_report(bad)


@pytest.fixture
def no_lp(monkeypatch):
    """Records every solver built and every threshold() call while a test runs."""
    calls = []
    for cls in (ThresholdSolver, BoundedSimplex):
        def spy(self, *args, _original=cls.__init__, **kwargs):
            calls.append(type(self).__name__)
            _original(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", spy)
    for module in (reports, threshold_module):
        def spy_threshold(*args, _original=module.threshold, **kwargs):
            calls.append("threshold")
            return _original(*args, **kwargs)
        monkeypatch.setattr(module, "threshold", spy_threshold)
    return calls


def test_verify_runs_no_lp_for_either_kind(threshold_report, optimize_report, no_lp):
    assert verify_report(threshold_report) == []
    assert verify_report(optimize_report) == []
    assert no_lp == []


@pytest.mark.parametrize("edit", ["settings_entry", "state_swap"])
def test_edited_best_parameters_detected_from_the_file(tmp_path, capsys, optimize_report,
                                                        no_lp, edit):
    bad = json.loads(json.dumps(optimize_report))
    opt = bad["optimizer"]
    if edit == "settings_entry":
        opt["best_settings"][1][0][2] += 0.1
    else:
        # same norm, so the parameters still fit the scenario
        coeffs = np.asarray(opt["best_state"])
        i, j = int(np.argmax(np.abs(coeffs))), int(np.argmin(np.abs(coeffs)))
        opt["best_state"][i], opt["best_state"][j] = opt["best_state"][j], opt["best_state"][i]
    path = tmp_path / "edited.json"
    write_report(bad, path)
    capsys.readouterr()
    assert main(["verify", str(path)]) == 1
    out = capsys.readouterr().out
    assert "witness marginal residual" in out or "f_thr mismatch" in out, out
    assert no_lp == []


def test_version_1_optimize_report_is_rejected(tmp_path, capsys, threshold_report,
                                               optimize_report):
    old_threshold = {**threshold_report, "report_version": 1}
    old_optimize = {k: v for k, v in optimize_report.items()
                    if k not in ("witness", "certificate", "solver", "local_at_noise")}
    old_optimize["report_version"] = 1
    for name, report in (("threshold", old_threshold), ("optimize", old_optimize)):
        write_report(report, tmp_path / f"{name}.json")
    capsys.readouterr()
    assert main(["verify", str(tmp_path / "threshold.json")]) == 0
    assert main(["verify", str(tmp_path / "optimize.json")]) == 2
    assert "'witness' is a required property" in capsys.readouterr().err


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


def _stock_validator(schema_file):
    schema = json.loads(resources.files("lrthresh.schemas").joinpath(schema_file).read_text())
    return jsonschema.validators.validator_for(schema)(schema)


def _all_errors(validator, doc):
    return [(list(e.absolute_path), e.validator, e.message,
             [(list(c.absolute_path), c.message) for c in e.context])
            for e in validator.iter_errors(doc)]


def _mutations(doc, paths):
    """doc with one list under each path broken: a bad item, or a whole new list."""
    items = [True, False, "0.5", None, [0.5], {"x": 1}]
    lists = [[], [1, 0, 2], [True], [1.0, "x"], "not a list", 3]
    for path in paths:
        for index, value in [(0, v) for v in items] + [(-1, v) for v in items[:2]] + [
                (None, v) for v in lists]:
            bad = json.loads(json.dumps(doc))
            parent = bad
            for key in path[:-1]:
                parent = parent[key]
            if index is None:
                parent[path[-1]] = value
            else:
                parent[path[-1]][index] = value
            yield bad


@pytest.fixture(scope="module")
def reports_by_scenario():
    """A threshold and an optimize report, as loaded from disk, per scenario."""
    docs = []
    for parties, dim in ((2, 3), (3, 3), (4, 2)):
        sc = Scenario(parties=parties, dim=dim)
        state = ghz_state(sc)
        spec = {"parties": parties, "dim": dim, "state": state.coeffs.tolist(),
                "settings": "zero", "noise": 0.5}
        sf = parse_scenario_file(json.dumps(spec))
        docs.append(build_threshold_report(sf, threshold(sf.state, sf.settings),
                                           ["threshold"], 1.0))
        cfg = OptimizationConfig(restarts=1, rng_seed=3, max_evals_per_restart=10,
                                 mode="phases_only")
        docs.append(build_optimize_report(sf, optimize_phases(sf.state, cfg, workers=1),
                                          cfg, ["optimize"], 1.0))
    return [json.loads(json.dumps(doc)) for doc in docs]


def test_report_validator_matches_stock_jsonschema(reports_by_scenario):
    stock = _stock_validator("report.schema.json")
    ours = _validator("report.schema.json")
    assert type(ours) is not type(stock)  # the extended class is in use
    paths = {"threshold": [("witness", "weights"), ("certificate", "dual"),
                           ("scenario", "state")],
             "optimize": [("optimizer", "best_state"), ("witness", "weights"),
                          ("certificate", "dual"), ("scenario", "state")]}
    checked = 0
    for doc in reports_by_scenario:
        assert _all_errors(ours, doc) == [] and _schema_error(doc, "report.schema.json") is None
        for bad in _mutations(doc, paths[doc["kind"]]):
            want = jsonschema.exceptions.best_match(stock.iter_errors(bad))
            got = _schema_error(bad, "report.schema.json")
            assert (got is None) == (want is None)
            if want is not None:
                assert (list(got.absolute_path), got.message) == (
                    list(want.absolute_path), want.message)
                checked += 1
            assert _all_errors(ours, bad) == _all_errors(stock, bad)
    assert checked > 50


def test_scenario_validator_matches_stock_jsonschema():
    stock = _stock_validator("scenario.schema.json")
    ours = _validator("scenario.schema.json")
    docs = [
        {"parties": 2, "dim": 3, "state": [1, 0, 0, 0, 1, 0, 0, 0, 1.0],
         "settings": [[[0, "1/2 pi", 0.5], [0, 0, 0]]] * 2, "noise": 0.25},
        {"parties": 3, "dim": 3, "state": ghz_state(Scenario(3, 3)).coeffs.tolist(),
         "settings": "paper-maxent"},
        {"parties": 4, "dim": 2, "state": {"product": [[1, 0], [0, 1.0], [1, 1], [0.5, 0]]},
         "settings": "zero"},
    ]
    for doc in docs:
        assert _all_errors(ours, doc) == []
        paths = [("state",)] if isinstance(doc["state"], list) else [("state", "product", 0)]
        for bad in _mutations(doc, paths):
            want = jsonschema.exceptions.best_match(stock.iter_errors(bad))
            got = _schema_error(bad, "scenario.schema.json")
            assert (got is None) == (want is None)
            if want is not None:
                assert (list(got.absolute_path), got.message) == (
                    list(want.absolute_path), want.message)
            assert _all_errors(ours, bad) == _all_errors(stock, bad)
