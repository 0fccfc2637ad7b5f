"""CLI behavior: headline output, exit codes, reports, dump-lp."""

import inspect
import json
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

import lrthresh
from lrthresh import (
    Scenario,
    SolverOptions,
    ThresholdSolver,
    cli,
    correlation_tensor,
    feasible_at,
    load_scenario_file,
    reports,
    search,
    simplex,
    threshold_from_tensor,
    verify_report,
)
from lrthresh.cli import main

from conftest import parse_lp_text

GHZ33 = "parties: 3\ndim: 3\nstate: ghz\nsettings: paper-maxent\n"
GHZ23 = "parties: 2\ndim: 3\nstate: ghz\nsettings: zero\n"
PRODUCT = """
parties: 2
dim: 2
state:
  product:
    - [1, 0]
    - [1, 0]
settings: zero
"""


@pytest.fixture
def ghz33_file(tmp_path):
    p = tmp_path / "ghz33.yaml"
    p.write_text(GHZ33)
    return str(p)


def test_threshold_headline_output(capsys, ghz33_file):
    code = main(["threshold", "--scenario", ghz33_file])
    out = capsys.readouterr().out
    assert code == 0
    assert out == "0.400000\n"


def test_threshold_product_state(capsys, tmp_path):
    p = tmp_path / "product.yaml"
    p.write_text(PRODUCT)
    code = main(["threshold", "--scenario", str(p)])
    assert code == 0
    assert capsys.readouterr().out == "0.000000\n"


def test_threshold_report_and_verify(capsys, tmp_path, ghz33_file):
    out_path = tmp_path / "report.json"
    argv = ["threshold", "--scenario", ghz33_file, "--out", str(out_path)]
    assert main(argv) == 0
    capsys.readouterr()

    report = json.loads(out_path.read_text())
    assert report["command"] == argv
    assert abs(report["f_thr"] - 0.4) < 1e-3

    assert main(["verify", str(out_path)]) == 0
    assert capsys.readouterr().out == "ok\n"

    report["f_thr"] += 0.01
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(report))
    assert main(["verify", str(tampered)]) == 1
    assert "mismatch" in capsys.readouterr().out


def test_dense_path_scenarios_never_load_scipy(tmp_path):
    # (2,3) and (4,2) price with plain numpy and read the assignment incidence
    # from closed-form index arrays, so a threshold, a joint search and verify
    # import no scipy module at all (importing scipy.sparse adds about 20 MB
    # of RSS); (3,3) still takes the sparse path
    (tmp_path / "ghz23.yaml").write_text(GHZ23)
    (tmp_path / "ghz42.yaml").write_text("parties: 4\ndim: 2\nstate: ghz\nsettings: zero\n")
    (tmp_path / "ghz33.yaml").write_text(GHZ33)
    code = (
        "import sys\n"
        "from lrthresh import Scenario\n"
        "from lrthresh.cli import main\n"
        "from lrthresh.threshold import _kept_pricing\n"
        "assert main(['threshold', '--scenario', 'ghz23.yaml', '--out', 't23.json']) == 0\n"
        "assert main(['optimize', '--scenario', 'ghz23.yaml', '--mode', 'all', '--restarts', '2',\n"
        "             '--max-evals', '40', '--workers', '1', '--out', 'o23.json']) == 0\n"
        "assert main(['verify', 't23.json']) == 0 and main(['verify', 'o23.json']) == 0\n"
        "assert main(['threshold', '--scenario', 'ghz42.yaml', '--out', 't42.json']) == 0\n"
        "assert main(['verify', 't42.json']) == 0\n"
        "print(sorted(name for name in sys.modules if name.startswith('scipy')))\n"
        "assert main(['threshold', '--scenario', 'ghz33.yaml']) == 0\n"
        "print('scipy.sparse' in sys.modules,\n"
        "      _kept_pricing(Scenario(parties=3, dim=3)) is not None)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(lrthresh.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "0.000000" and lines[2:4] == ["ok", "ok"]
    assert lines[4:] == ["0.000000", "ok", "[]", "0.400000", "True True"]


@pytest.mark.parametrize("tol_flag, options", [
    ([], SolverOptions()),
    (["--tol", "1e-7"], SolverOptions(tol_feas=1e-7, tol_opt=1e-7)),
])
def test_verify_replays_report_tolerances(capsys, tmp_path, monkeypatch, tol_flag, options):
    scen = tmp_path / "ghz33.yaml"
    scen.write_text(GHZ33 + "noise: 0.5\n")
    out_path = tmp_path / "report.json"
    assert main(["threshold", "--scenario", str(scen), "--out", str(out_path)] + tol_flag) == 0
    report = json.loads(out_path.read_text())
    assert report["tolerances"]["tol_feas"] == options.tol_feas

    # the witness and the dual bracket the optimum, so verify runs no LP
    built = []
    for cls in (ThresholdSolver, simplex.BoundedSimplex):
        def spy(self, *args, _original=cls.__init__, **kwargs):
            built.append(type(self).__name__)
            _original(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", spy)

    # a noise level 5e-8 below f_thr is local within tol_feas 1e-7, not within 1e-9
    report["scenario"]["noise"] = report["f_thr"] - 5e-8
    report["local_at_noise"] = options.tol_feas > 5e-8
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(report))
    assert main(["verify", str(edited)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "ok"
    report["local_at_noise"] = not report["local_at_noise"]
    edited.write_text(json.dumps(report))
    assert main(["verify", str(edited)]) == 1
    assert "local_at_noise" in capsys.readouterr().out
    assert built == []


def test_verify_detects_flipped_local_at_noise(capsys, tmp_path):
    scen = tmp_path / "ghz33.yaml"
    scen.write_text(GHZ33 + "noise: 0.5\n")
    out_path = tmp_path / "report.json"
    assert main(["threshold", "--scenario", str(scen), "--out", str(out_path)]) == 0
    report = json.loads(out_path.read_text())
    assert report["local_at_noise"] is True  # 0.5 lies above the threshold 0.4
    assert main(["verify", str(out_path)]) == 0

    report["local_at_noise"] = False
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(report))
    assert main(["verify", str(tampered)]) == 1
    assert "local_at_noise" in capsys.readouterr().out


@pytest.mark.parametrize("parties, dim", [(2, 3), (3, 3), (4, 2)])
def test_local_at_noise_matches_feasibility_check(tmp_path, rng, parties, dim):
    sc = Scenario(parties=parties, dim=dim, settings_per_party=2)
    spec = {"parties": parties, "dim": dim,
            "state": rng.normal(size=sc.state_size).tolist(),
            "settings": rng.uniform(0.0, 2.0 * np.pi, size=(parties, 2, dim)).tolist()}
    scen = tmp_path / "random.yaml"
    scen.write_text(yaml.safe_dump(spec))
    sf = load_scenario_file(str(scen))
    tensor = correlation_tensor(sf.state, sf.settings)
    f_thr = threshold_from_tensor(tensor).f_thr

    out_path = tmp_path / "report.json"
    for noise in [f_thr - 1e-6, f_thr + 1e-6] + rng.uniform(0.0, 1.0, size=3).tolist():
        if not 0.0 <= noise <= 1.0:
            continue
        scen.write_text(yaml.safe_dump({**spec, "noise": noise}))
        assert main(["threshold", "--scenario", str(scen), "--out", str(out_path)]) == 0
        report = json.loads(out_path.read_text())
        assert report["local_at_noise"] == feasible_at(tensor, noise), noise
        assert main(["verify", str(out_path)]) == 0


@pytest.mark.parametrize("tol_flag, options", [
    ([], SolverOptions()),
    (["--tol", "1e-7"], SolverOptions(tol_feas=1e-7, tol_opt=1e-7)),
])
def test_optimize_runs_and_replays_report_tolerances(capsys, tmp_path, monkeypatch,
                                                      tol_flag, options):
    seen = {"search": [], "verify": []}

    def spy_on(module, name, where):
        original = getattr(module, name)

        def spy(*args, **kwargs):
            bound = inspect.signature(original).bind(*args, **kwargs)
            seen[where].append(bound.arguments.get("options") or SolverOptions())
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)

    spy_on(search, "ThresholdSolver", "search")
    spy_on(search, "threshold", "search")
    spy_on(reports, "threshold", "verify")
    # at (3,2): at (2,3) the restarts evaluate in closed form and build no solver
    scen = tmp_path / "ghz32.yaml"
    scen.write_text("parties: 3\ndim: 2\nstate: ghz\nsettings: zero\n")
    out_path = tmp_path / "opt.json"
    assert main(["optimize", "--scenario", str(scen), "--restarts", "2", "--max-evals", "20",
                 "--workers", "1", "--out", str(out_path)] + tol_flag) == 0
    assert json.loads(out_path.read_text())["tolerances"]["tol_opt"] == options.tol_opt
    assert main(["verify", str(out_path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "ok"
    # two restart solvers and the final certified solve; verify checks that
    # solve's certificate and makes none
    assert seen == {"search": [options] * 3, "verify": []}


def test_optimize_report_carries_local_at_noise_at_its_best_point(capsys, tmp_path):
    scen = tmp_path / "ghz23.yaml"
    scen.write_text(GHZ23 + "noise: 0.3\n")
    out_path = tmp_path / "opt.json"
    assert main(["optimize", "--scenario", str(scen), "--restarts", "2", "--max-evals", "40",
                 "--workers", "1", "--out", str(out_path)]) == 0
    report = json.loads(out_path.read_text())
    assert report["local_at_noise"] == (0.3 >= report["f_thr"] - SolverOptions().tol_feas)
    assert main(["verify", str(out_path)]) == 0
    report["local_at_noise"] = not report["local_at_noise"]
    out_path.write_text(json.dumps(report))
    capsys.readouterr()
    assert main(["verify", str(out_path)]) == 1
    assert "local_at_noise says" in capsys.readouterr().out


def test_verify_messages_print_plain_floats(capsys, tmp_path):
    scen = tmp_path / "ghz23.yaml"
    scen.write_text(GHZ23)
    out_path = tmp_path / "opt.json"
    assert main(["optimize", "--scenario", str(scen), "--restarts", "1", "--max-evals", "10",
                 "--workers", "1", "--out", str(out_path)]) == 0
    report = json.loads(out_path.read_text())
    report["optimizer"]["best_state"][0] += 0.01
    out_path.write_text(json.dumps(report))
    capsys.readouterr()
    assert main(["verify", str(out_path)]) == 1
    out = capsys.readouterr().out
    assert "best parameters do not fit the scenario: state norm 1.00" in out
    assert "np.float64" not in out


def test_optimize_command(capsys, tmp_path):
    scen = tmp_path / "ghz23.yaml"
    scen.write_text(GHZ23)
    out_path = tmp_path / "opt.json"
    code = main(["optimize", "--scenario", str(scen), "--mode", "phases",
                 "--restarts", "3", "--seed", "5", "--max-evals", "120",
                 "--workers", "1", "--out", str(out_path)])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 1
    float(lines[0])  # plain decimal, nothing else
    report = json.loads(out_path.read_text())
    assert report["kind"] == "optimize"
    assert report["rng_seed"] == 5
    assert main(["verify", str(out_path)]) == 0


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_optimize_rejects_fewer_than_one_worker(capsys, monkeypatch, tmp_path, workers):
    scen = tmp_path / "ghz23.yaml"
    scen.write_text(GHZ23)
    restarts = []
    monkeypatch.setattr(search, "_run_restart", restarts.append)
    assert main(["optimize", "--scenario", str(scen), "--restarts", "2",
                 "--workers", workers]) == 2
    assert not restarts  # rejected before any restart runs
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "workers" in captured.err


def test_default_workers_follow_the_cpu_affinity(monkeypatch):
    # a process pinned to one CPU of a 64-CPU host, on Pythons without
    # os.process_cpu_count; the os functions are stand-ins, so nothing is spawned
    monkeypatch.delattr(os, "process_cpu_count", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {5}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert cli._available_cores() == 1
    # os.process_cpu_count, where there is one, already honours the affinity
    monkeypatch.setattr(os, "process_cpu_count", lambda: 3, raising=False)
    assert cli._available_cores() == 3
    # without an affinity call the host's count is the last resort, and at least 1
    monkeypatch.delattr(os, "process_cpu_count")
    monkeypatch.delattr(os, "sched_getaffinity")
    assert cli._available_cores() == 64
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert cli._available_cores() == 1


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_optimize_rejects_a_seed_outside_the_key_range(capsys, tmp_path, seed):
    scen = tmp_path / "ghz23.yaml"
    scen.write_text(GHZ23)
    assert main(["optimize", "--scenario", str(scen), "--seed", str(seed), "--restarts", "1",
                 "--max-evals", "5", "--workers", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert str(seed) in captured.err


def test_optimize_takes_the_largest_seed_without_a_warning(capsys, tmp_path):
    scen = tmp_path / "ghz23.yaml"
    scen.write_text(GHZ23)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["optimize", "--scenario", str(scen), "--seed", str(2**64 - 1),
                     "--restarts", "1", "--max-evals", "5", "--workers", "1"]) == 0
    float(capsys.readouterr().out)


def test_dump_lp(capsys, ghz33_file):
    assert main(["dump-lp", "--scenario", ghz33_file]) == 0
    text = capsys.readouterr().out
    lp = parse_lp_text(text)
    assert lp.num_vars == 730
    assert lp.num_rows == 217


def test_input_error_exit_codes(capsys, tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("parties: [3\n")
    assert main(["threshold", "--scenario", str(bad)]) == 2
    assert main(["threshold", "--scenario", str(tmp_path / "missing.yaml")]) == 2
    assert main(["verify", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("command", [
    ["threshold"],
    ["optimize", "--mode", "phases", "--restarts", "2", "--max-evals", "50", "--workers", "1"],
], ids=["threshold", "optimize"])
def test_solver_failure_exits_three(capsys, monkeypatch, tmp_path, command):
    scen = tmp_path / "ghz23.yaml"
    scen.write_text(GHZ23)

    def fail(*args):
        raise simplex.SolverFailure("iteration_limit", "injected")

    monkeypatch.setattr(simplex.BoundedSimplex, "dual_run", fail)
    assert main([command[0], "--scenario", str(scen), *command[1:]]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "solver error: LP solve failed with status 'iteration_limit': injected\n"


@pytest.mark.parametrize("command", [
    ["threshold"],
    ["optimize", "--restarts", "2", "--max-evals", "40", "--workers", "1"],
], ids=["threshold", "optimize"])
def test_a_loose_tolerance_is_never_an_input_error(capsys, tmp_path, command):
    # at tol 1e-4 the repair may stop at weights down to -1e-4, which the
    # witness's 1e-9 nonnegativity refuses; the certified solve repairs them
    # once more at the default tolerances, so each file certifies. Each
    # command's certified solve reaches such weights on at least two of these.
    for parties, dim, seed in ((3, 3, 3), (4, 2, 1), (4, 2, 5), (3, 2, 8)):
        rng = np.random.default_rng(seed)
        spec = {"parties": parties, "dim": dim,
                "state": rng.normal(size=dim ** parties).tolist(),
                "settings": rng.uniform(0.0, 2.0 * np.pi, size=(parties, 2, dim)).tolist()}
        scen = tmp_path / f"random{parties}{dim}.yaml"
        scen.write_text(yaml.safe_dump(spec))
        code = main([command[0], "--scenario", str(scen), *command[1:], "--tol", "1e-4"])
        out, err = capsys.readouterr()
        assert (code, err) == (0, "")
        float(out)


# (command, the CLI callee made to run out of memory); verify replays a
# report of the same scenario
@pytest.mark.parametrize("command, callee", [
    (["threshold"], "correlation_tensor"),
    (["optimize", "--restarts", "1", "--max-evals", "10", "--workers", "1"], "optimize_phases"),
    (["dump-lp"], "build_threshold_lp"),
    (["verify"], "verify_report"),
], ids=["threshold", "optimize", "dump-lp", "verify"])
@pytest.mark.parametrize("message", ["Unable to allocate 2.72 TiB for an array with shape "
                                     "(373669453125,) and data type float64", ""],
                         ids=["numpy", "bare"])
def test_an_oversized_scenario_is_an_input_error(capsys, monkeypatch, tmp_path, command,
                                                 callee, message):
    # the allocation is simulated: a real one could exhaust the machine
    scen = tmp_path / "ghz23.yaml"
    scen.write_text(GHZ23)
    if command == ["verify"]:
        report = tmp_path / "report.json"
        assert main(["threshold", "--scenario", str(scen), "--out", str(report)]) == 0
        argv = ["verify", str(report)]
    else:
        argv = [command[0], "--scenario", str(scen), *command[1:]]
    capsys.readouterr()

    def out_of_memory(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli, callee, out_of_memory)
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: out of memory: {message or 'allocation failed'}\n"


def test_bad_flags_exit_two(capsys):
    assert main(["optimize", "--mode", "everything"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("tol", ["0", "-1", "nan"])
def test_unusable_tolerance_is_an_input_error(capsys, ghz33_file, tol):
    start = time.perf_counter()
    assert main(["threshold", "--scenario", ghz33_file, "--tol", tol]) == 2
    assert time.perf_counter() - start < 1.0  # rejected before any pivot
    assert "tol_feas" in capsys.readouterr().err


def test_verify_rejects_report_with_unusable_tolerance(capsys, tmp_path, ghz33_file):
    out_path = tmp_path / "report.json"
    assert main(["threshold", "--scenario", ghz33_file, "--out", str(out_path)]) == 0
    report = json.loads(out_path.read_text())
    report["tolerances"]["tol_feas"] = -1
    out_path.write_text(json.dumps(report))
    capsys.readouterr()
    assert main(["verify", str(out_path)]) == 2
    assert "tol_feas" in capsys.readouterr().err


def test_nonfinite_state_coefficient_is_an_input_error(capsys, tmp_path):
    spec = {"parties": 3, "dim": 3, "state": [1.0] * 26 + [float("nan")],
            "settings": "paper-maxent"}
    scen = tmp_path / "nan.yaml"
    scen.write_text(yaml.safe_dump(spec))
    assert ".nan" in scen.read_text()
    start = time.perf_counter()
    assert main(["threshold", "--scenario", str(scen)]) == 2
    assert time.perf_counter() - start < 1.0  # rejected before any pivot
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [".inf", "-.inf", ".nan"])
def test_nonfinite_state_is_an_input_error_without_a_warning(capsys, tmp_path, bad):
    scen = tmp_path / "bad.yaml"
    scen.write_text(f"parties: 2\ndim: 2\nstate: [{bad}, 0, 0, 1]\nsettings: zero\n")
    assert main(["threshold", "--scenario", str(scen)]) == 2
    assert capsys.readouterr().err == "error: state coefficients must be finite\n"


@pytest.mark.parametrize("tamper", ["witness_weights", "dual_entry"])
def test_verify_rejects_nonfinite_report_numbers(capsys, tmp_path, tamper):
    scen = tmp_path / "ghz23.yaml"
    scen.write_text(GHZ23)
    out_path = tmp_path / "report.json"
    assert main(["threshold", "--scenario", str(scen), "--out", str(out_path)]) == 0
    report = json.loads(out_path.read_text())
    if tamper == "witness_weights":
        report["witness"]["weights"] = [float("nan")] * len(report["witness"]["weights"])
        field = "witness.weights"
    else:
        report["certificate"]["dual"][0] = float("nan")
        field = "certificate.dual"
    # in memory, where load_report's token check does not apply
    assert verify_report(report) == [f"field {field} holds a non-finite number"]
    out_path.write_text(json.dumps(report))  # json writes the bare token NaN
    capsys.readouterr()
    assert main(["verify", str(out_path)]) == 2
    assert "NaN" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["threshold"],
    ["optimize", "--restarts", "1", "--max-evals", "5", "--workers", "1"],
    ["dump-lp"],
])
def test_unwritable_out_path_is_an_input_error(capsys, tmp_path, command):
    scen = tmp_path / "ghz23.yaml"
    scen.write_text(GHZ23)
    out_path = tmp_path / "missing" / "out.txt"
    code = main(command[:1] + ["--scenario", str(scen), "--out", str(out_path)] + command[1:])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out_path}: ")
    assert "Traceback" not in err


def test_non_utf8_files_name_their_path(capsys, tmp_path):
    scen = tmp_path / "latin1.yaml"
    scen.write_bytes("parties: 2 # \xe9\n".encode("latin-1"))
    report = tmp_path / "latin1.json"
    report.write_bytes(b'{"kind": "\xff"}')
    assert main(["threshold", "--scenario", str(scen)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read {scen}: ")
    assert main(["verify", str(report)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read {report}: ")


def test_zero_state_is_an_input_error_without_a_warning(capsys, tmp_path):
    scen = tmp_path / "zero.yaml"
    scen.write_text("parties: 2\ndim: 2\nstate: [0, 0, 0, 0]\nsettings: zero\n")
    assert main(["threshold", "--scenario", str(scen)]) == 2
    assert capsys.readouterr().err == "error: explicit state has zero norm\n"
