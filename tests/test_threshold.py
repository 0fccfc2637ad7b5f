"""Threshold LP construction, solution, certificates, and invariances."""

import functools
import importlib
import itertools
from fractions import Fraction

import numpy as np
import pytest

from lrthresh import (
    CorrelationTensor,
    JointDistribution,
    LinearProgram,
    OptimizationConfig,
    PhaseSettings,
    PureState,
    Scenario,
    ScenarioMismatchError,
    SolverFailure,
    ThresholdSolver,
    build_threshold_lp,
    correlation_tensor,
    feasible_at,
    ghz_state,
    optimize_state_and_phases,
    paper_settings,
    product_state,
    threshold,
    threshold_from_tensor,
)
from lrthresh.simplex import certified_lower_bound, independent_rows
from lrthresh import simplex
from lrthresh.threshold import (
    _FacetThreshold,
    _bell_facet_rows,
    _collins_gisin_basis,
    _collins_gisin_inverse,
    _facet_rows,
    _kept_rows,
    _lower_bound,
    _marginal_supports,
    assignment_marginal_matrix,
    exact_bracket,
    witness_residual,
)

from conftest import highs_lp, lifted_facet_bound, marginal_incidence, noisy_tensor

threshold_module = importlib.import_module("lrthresh.threshold")  # the package's threshold is a function

SC33 = Scenario(parties=3, dim=3, settings_per_party=2)
SC23 = Scenario(parties=2, dim=3, settings_per_party=2)
SC32 = Scenario(parties=3, dim=2, settings_per_party=2)
SC22 = Scenario(parties=2, dim=2, settings_per_party=2)


def random_state(sc, rng):
    c = rng.normal(size=sc.state_size)
    return PureState(sc, c / np.linalg.norm(c))


def random_settings(sc, rng):
    return PhaseSettings(
        sc, rng.uniform(0, 2 * np.pi, size=(sc.parties, sc.settings_per_party, sc.dim))
    )


def ghz_maxent_tensor():
    return correlation_tensor(ghz_state(SC33), paper_settings("maxent_3qutrit"))


def no_solve_lp(*args, **kwargs):
    raise AssertionError("the threshold solver ran solve_lp")


def test_lp_dimensions_three_qutrits():
    lp = build_threshold_lp(ghz_maxent_tensor())
    assert lp.num_vars == 3 ** 6 + 1 == 730
    assert lp.num_rows == 8 * 27 + 1 == 217


def test_lp_dimensions_two_qubits(rng):
    t = correlation_tensor(ghz_state(SC22), random_settings(SC22, rng))
    lp = build_threshold_lp(t)
    # d^(m N) + 1 variables; m^N d^N marginal rows + 1 normalization
    assert lp.num_vars == 2 ** 4 + 1 == 17
    assert lp.num_rows == 4 * 4 + 1 == 17


def test_marginal_row_support():
    lp = build_threshold_lp(ghz_maxent_tensor())
    a = lp.dense_matrix()
    # each marginal row touches d^(N(m-1)) = 27 assignment variables plus F
    row = a[0]
    assert np.count_nonzero(row[:-1]) == 27
    assert np.all(np.isin(row[np.nonzero(row)], [1.0, row[-1]]))


def test_threshold_ghz_maxent():
    res = threshold(ghz_state(SC33), paper_settings("maxent_3qutrit"))
    assert abs(res.f_thr - 0.400) < 0.001
    assert res.certificate["gap"] < 1e-8
    assert res.certificate["marginal_residual"] < 1e-8


def test_threshold_product_state_zero(rng):
    for sc in (SC22, SC33):
        vecs = []
        for _ in range(sc.parties):
            v = rng.normal(size=sc.dim)
            vecs.append(v / np.linalg.norm(v))
        st = product_state(sc, vecs)
        res = threshold(st, random_settings(sc, rng))
        assert res.f_thr < 1e-9


def test_witness_reproduces_noisy_marginals(rng):
    st = random_state(SC23, rng)
    se = random_settings(SC23, rng)
    tensor = correlation_tensor(st, se)
    res = threshold(st, se)
    marg = assignment_marginal_matrix(SC23) @ res.witness.weights
    target = noisy_tensor(tensor, res.f_thr).flat
    assert np.max(np.abs(marg - target)) < 1e-8


def test_certificate_is_independent_lower_bound():
    tensor = ghz_maxent_tensor()
    res = threshold_from_tensor(tensor)
    lp = build_threshold_lp(tensor)
    bound = certified_lower_bound(lp, np.asarray(res.certificate["dual"]))
    assert abs(bound - res.f_thr) < 1e-8


def test_feasibility_monotone_around_threshold():
    tensor = ghz_maxent_tensor()
    f = threshold_from_tensor(tensor).f_thr
    for eps in (1e-3, 1e-2):
        assert not feasible_at(tensor, f - eps)
        assert feasible_at(tensor, f + eps)
    assert feasible_at(tensor, 1.0)


def test_outcome_relabeling_leaves_threshold(rng):
    st = random_state(SC23, rng)
    se = random_settings(SC23, rng)
    t = correlation_tensor(st, se)
    base = threshold_from_tensor(t).f_thr
    perm = np.array([1, 2, 0])
    relabeled = np.take(t.probs, perm, axis=3)  # party 1's outcome axis
    t2 = type(t)(t.scenario, relabeled)
    assert abs(threshold_from_tensor(t2).f_thr - base) < 1e-9


def test_setting_swap_leaves_threshold(rng):
    st = random_state(SC23, rng)
    se = random_settings(SC23, rng)
    base = threshold(st, se).f_thr
    table = se.table.copy()
    table[0] = table[0][::-1]  # swap party 0's two settings
    assert abs(threshold(st, PhaseSettings(SC23, table)).f_thr - base) < 1e-9


def test_party_permutation_leaves_threshold(rng):
    st = random_state(SC23, rng)
    se = random_settings(SC23, rng)
    base = threshold(st, se).f_thr
    swapped_state = PureState(SC23, st.tensor.T.ravel())
    swapped_settings = PhaseSettings(SC23, se.table[::-1])
    assert abs(threshold(swapped_state, swapped_settings).f_thr - base) < 1e-9


def test_threshold_solver_warm_matches_cold(rng):
    solver = ThresholdSolver(SC23)
    st = ghz_state(SC23)
    worst = 0.0
    for k in range(6):
        se = random_settings(SC23, rng)
        t = correlation_tensor(st, se)
        warm = solver.value(t)
        cold = highs_lp(build_threshold_lp(t))
        assert cold.status == 0, cold.message
        worst = max(worst, abs(warm - cold.fun))
    assert worst < 1e-9


def test_failed_warm_solve_restarts_from_cached_vertex(rng, monkeypatch):
    st = ghz_state(SC23)
    t1, t2, t3, t4 = (correlation_tensor(st, random_settings(SC23, rng)) for _ in range(4))
    fresh = ThresholdSolver(SC23)
    want = fresh.value(t2)
    solver = ThresholdSolver(SC23)
    for t in (t1, t3, t4, t1):
        solver.value(t)
    assert solver.last_basis() is not None

    def fail(*args):
        raise SolverFailure("numerical", "injected")

    monkeypatch.setattr(threshold_module, "solve_lp", no_solve_lp)
    monkeypatch.setattr(solver._core, "dual_run", fail)
    with pytest.raises(SolverFailure, match="injected"):  # the closed-form retry fails too
        solver.value(t2)
    monkeypatch.undo()
    assert solver.last_basis() is None
    # the half-repaired basis of the failed call is not reused
    assert solver.value(t2) == want
    assert solver.last_pivots == fresh.last_pivots
    assert not solver.last_warm


@pytest.mark.parametrize("failure", ["raises", "stops short"])
def test_failed_warm_repair_is_retried_from_the_closed_form(rng, monkeypatch, failure):
    st = ghz_state(SC23)
    t1, t2 = (correlation_tensor(st, random_settings(SC23, rng)) for _ in range(2))
    fresh = ThresholdSolver(SC23)
    want = fresh.value(t2)
    solver = ThresholdSolver(SC23)
    solver.value(t1)
    dual_run = solver._core.dual_run
    failed = []

    def fail_once(c):
        if failed:
            return dual_run(c)
        failed.append(c)
        if failure == "raises":
            raise SolverFailure("numerical", "injected")
        return "iteration_limit"

    monkeypatch.setattr(solver._core, "dual_run", fail_once)
    assert solver.value(t2) == want
    assert solver.last_pivots == fresh.last_pivots
    assert not solver.last_warm
    assert solver.last_basis() is not None  # a recovered failure leaves an optimum


@pytest.mark.parametrize("broken", ["dual_run", "refactor"])
def test_failed_certified_solve_raises_and_forgets(rng, monkeypatch, broken):
    # dual_run fails the repair itself, refactor the re-check after it
    st = ghz_state(SC23)
    t1, t2, t3 = (correlation_tensor(st, random_settings(SC23, rng)) for _ in range(3))
    want = ThresholdSolver(SC23).solve(t2)
    solver = ThresholdSolver(SC23)
    for t in (t1, t3, t1):
        solver.solve(t)

    def fail(*args):
        raise SolverFailure("numerical", "injected")

    monkeypatch.setattr(threshold_module, "solve_lp", no_solve_lp)
    monkeypatch.setattr(solver._core, broken, fail)
    with pytest.raises(SolverFailure, match="injected"):
        solver.solve(t2)
    monkeypatch.undo()
    assert solver.last_basis() is None
    assert solver.tensor_gradient() is None
    got = solver.solve(t2)
    assert got.f_thr == want.f_thr
    assert got.solver_stats["iterations"] == want.solver_stats["iterations"]
    assert not got.solver_stats["warm_start"]


def test_solve_reports_whether_it_started_warm(rng):
    settings = paper_settings("maxent_3qutrit")
    assert not threshold(ghz_state(SC33), settings).solver_stats["warm_start"]
    solver = ThresholdSolver(SC33)
    nearby = PhaseSettings(SC33, settings.table + 0.01 * rng.normal(size=settings.table.shape))
    stats = [solver.solve(correlation_tensor(ghz_state(SC33), s)).solver_stats
             for s in (settings, nearby)]
    assert [s["warm_start"] for s in stats] == [False, True]


SC42 = Scenario(parties=4, dim=2, settings_per_party=2)


def ghz_under_random_phases(sc, rng):
    """A seeded tensor off the local plateau, from GHZ under random phases."""
    while True:
        tensor = correlation_tensor(ghz_state(sc), random_settings(sc, rng))
        if ThresholdSolver(sc).value(tensor) > 1e-3:
            return tensor


@pytest.mark.parametrize("sc", [SC33, SC32, SC42], ids=["n3d3", "n3d2", "n4d2"])
def test_solve_from_the_tensors_own_optimal_basis_takes_no_pivot(rng, sc):
    tensor = ghz_under_random_phases(sc, rng)
    solver = ThresholdSolver(sc)
    cold = solver.solve(tensor)
    assert cold.solver_stats["iterations"] > 0 and not cold.solver_stats["warm_start"]
    started = ThresholdSolver(sc).solve(tensor, start=solver.last_basis())
    assert started.solver_stats["iterations"] == 0
    assert started.solver_stats["warm_start"]
    assert abs(started.f_thr - cold.f_thr) <= 1e-12
    oracle = highs_lp(build_threshold_lp(tensor))
    assert oracle.status == 0, oracle.message
    assert abs(started.f_thr - oracle.fun) <= 1e-9


@pytest.mark.parametrize("sc", [SC33, SC32, SC42], ids=["n3d3", "n3d2", "n4d2"])
def test_a_start_whose_repair_fails_falls_back_to_the_closed_form(rng, monkeypatch, sc):
    tensor, other = (ghz_under_random_phases(sc, rng) for _ in range(2))
    held = ThresholdSolver(sc)
    held.value(other)
    cold = ThresholdSolver(sc).solve(tensor)
    solver = ThresholdSolver(sc)
    dual_run = solver._core.dual_run
    failed = []

    def fail_once(c):
        if failed:
            return dual_run(c)
        failed.append(c)
        raise SolverFailure("numerical", "injected")

    monkeypatch.setattr(solver._core, "dual_run", fail_once)
    got = solver.solve(tensor, start=held.last_basis())
    assert failed  # the repair from the start ran, and failed
    assert not got.solver_stats["warm_start"]
    assert got.f_thr == cold.f_thr
    assert got.solver_stats["iterations"] == cold.solver_stats["iterations"]
    assert got.certificate["gap"] <= 1e-8


def test_last_basis_is_none_until_an_optimum_is_held(rng):
    solver = ThresholdSolver(SC32)
    assert solver.last_basis() is None
    solver.value(ghz_under_random_phases(SC32, rng))
    basis, at_upper = solver.last_basis()
    assert basis.shape == (solver._core.r,) and at_upper.shape == (solver._core.n,)
    assert basis is not solver._core.basis and at_upper is not solver._core.at_upper


def revisiting_walk(sc, seed, steps):
    """Tensors along a phase walk that keeps coming back.

    Each step perturbs either the last point or a random earlier one.
    """
    rng = np.random.default_rng(seed)
    coeffs = ghz_state(sc).coeffs.real + 0.2 * rng.normal(size=sc.state_size)
    state = PureState(sc, coeffs / np.linalg.norm(coeffs))
    points = [rng.uniform(0, 2 * np.pi, size=(sc.parties, sc.settings_per_party, sc.dim))]
    for _ in range(steps):
        anchor = points[rng.integers(len(points))] if rng.random() < 0.5 else points[-1]
        points.append(anchor + 0.05 * rng.normal(size=anchor.shape))
    return [correlation_tensor(state, PhaseSettings(sc, p)) for p in points]


@pytest.mark.parametrize("sc, steps", [(SC33, 40), (SC23, 100)], ids=["n3d3", "n2d3"])
def test_warm_value_repairs_from_the_last_optimum(monkeypatch, sc, steps):
    # a walk that jumps back to earlier points still starts each repair from
    # the basis the previous call ended on, whichever earlier optimum is nearer
    solver = ThresholdSolver(sc)
    core = solver._core
    dual_run = core.dual_run
    entered = []

    def recorded(c):
        entered.append((core.basis.copy(), core.at_upper.copy()))
        return dual_run(c)

    monkeypatch.setattr(core, "dual_run", recorded)
    for t in revisiting_walk(sc, 3, steps):
        held = solver.last_basis()
        entered.clear()
        got = solver.value(t)
        assert abs(got - ThresholdSolver(sc).solve(t).f_thr) < 1e-12
        if held is None:
            continue
        assert solver.last_warm
        basis, at_upper = entered[0]
        assert np.array_equal(basis, held[0]) and np.array_equal(at_upper, held[1])


def test_tensor_gradient_after_a_patched_warm_solve(rng, monkeypatch):
    st = random_state(SC23, rng)
    while True:
        table = random_settings(SC23, rng).table
        if ThresholdSolver(SC23).value(correlation_tensor(st, PhaseSettings(SC23, table))) > 0.01:
            break
    solver = ThresholdSolver(SC23)
    solver.value(correlation_tensor(st, PhaseSettings(SC23, table)))
    core = solver._core
    patched = []
    replace_column = core.replace_column

    def checked_replace(j, col):
        basic = bool(core.in_basis[j])
        ok = replace_column(j, col)
        # F is basic at the last optimum, so the rank-one update must keep Binv exact
        patched.append((basic, ok, np.max(np.abs(core.Binv @ core.A[:, core.basis]
                                                 - np.eye(core.r)))))
        return ok

    monkeypatch.setattr(core, "replace_column", checked_replace)
    table = table + 0.01 * rng.normal(size=table.shape)
    solver.value(correlation_tensor(st, PhaseSettings(SC23, table)))
    assert len(patched) == 1 and patched[0][:2] == (True, True) and patched[0][2] < 1e-9
    assert solver.last_warm
    grad = solver.tensor_gradient()
    h = 1e-6
    direction = rng.normal(size=table.shape)
    plus, minus = (correlation_tensor(st, PhaseSettings(SC23, table + s * h * direction))
                   for s in (1, -1))
    fd = (ThresholdSolver(SC23).value(plus) - ThresholdSolver(SC23).value(minus)) / (2 * h)
    assert abs(grad @ (plus.flat - minus.flat) / (2 * h) - fd) < 1e-6


def test_tensor_gradient_needs_a_warm_basis(rng, monkeypatch):
    st = ghz_state(SC23)
    t1, t2 = (correlation_tensor(st, random_settings(SC23, rng)) for _ in range(2))
    solver = ThresholdSolver(SC23)
    assert solver.tensor_gradient() is None  # nothing solved yet
    solver.value(t1)
    grad = solver.tensor_gradient()
    assert grad.shape == (SC23.marginal_rows,)
    dropped = np.setdiff1d(np.arange(SC23.marginal_rows), _kept_rows(SC23)[0])
    assert not np.any(grad[dropped])

    def fail(*args):
        raise SolverFailure("numerical", "injected")

    monkeypatch.setattr(solver._core, "dual_run", fail)
    with pytest.raises(SolverFailure):  # a raised failure leaves no basis
        solver.value(t2)
    assert solver.tensor_gradient() is None


def test_warm_value_checks_the_primal_residual_once(rng):
    solver = ThresholdSolver(SC33)
    st = ghz_state(SC33)
    solver.value(correlation_tensor(st, random_settings(SC33, rng)))
    calls = []
    residual = solver._core.primal_residual

    def counted():
        calls.append(1)
        return residual()

    solver._core.primal_residual = counted
    solver.value(correlation_tensor(st, random_settings(SC33, rng)))
    assert len(calls) == 1


def test_long_lived_solver_keeps_warm_solving():
    # the pivot limit counts per call: a solver that has pivoted 100 * n times
    # over its life still re-solves warm instead of restarting from the closed form
    solver = ThresholdSolver(SC23)
    rng = np.random.default_rng(0)
    st = ghz_state(SC23)
    cold = 0
    for _ in range(600):  # long enough to pass 100 * n pivots, each call from the last optimum
        solver.value(correlation_tensor(st, random_settings(SC23, rng)))
        cold += not solver.last_warm
    assert solver._core.pivots > 100 * solver._core.n
    assert cold == 1  # the first call, with no optimum to start from


def full_feasibility_lp(sc, probs):
    """The local-model feasibility LP over every marginal row and normalization."""
    n = sc.joint_size
    matrix = np.vstack([assignment_marginal_matrix(sc).toarray(), np.ones((1, n))])
    return LinearProgram(np.zeros(n), matrix, np.append(probs, 1.0), np.zeros(n), np.ones(n))


def full_system_verdict(tensor, noise):
    """HiGHS's verdict on the full feasibility LP, at a feasibility tolerance under tol_feas."""
    lp = full_feasibility_lp(tensor.scenario, noisy_tensor(tensor, noise).flat)
    return highs_lp(lp, primal_feasibility_tolerance=1e-10).status == 0


@pytest.mark.parametrize("parties, dim",
                         [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (2, 4), (5, 2)])
def test_kept_rows_are_collins_gisin_set(parties, dim):
    # oracle: row echelon on the full marginal system plus the normalization row
    sc = Scenario(parties=parties, dim=dim, settings_per_party=2)
    full = full_feasibility_lp(sc, np.zeros(sc.marginal_rows)).dense_matrix()
    keep, _, _ = independent_rows(full, np.zeros(full.shape[0]))
    kept, a_keep = _kept_rows(sc)
    assert kept.tolist() == keep
    assert np.array_equal(a_keep, full[keep])


def local_kept_rows(dim):
    """One party's Collins-Gisin rows as (setting, outcome) pairs."""
    return [(0, a) for a in range(dim)] + [(1, a) for a in range(dim - 1)]


def local_basis_block(dim):
    """One party's kept rows against its basis strategies (a at s=0, a at s=1)."""
    strategies = [(k, k) for k in range(dim)] + [(0, a) for a in range(1, dim)]
    return np.array([[float(strategy[s] == a) for strategy in strategies]
                     for s, a in local_kept_rows(dim)])


@pytest.mark.parametrize("parties, dim",
                         [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (2, 4), (5, 2)])
def test_starting_basis_is_kronecker_product_of_local_blocks(parties, dim):
    sc = Scenario(parties=parties, dim=dim, settings_per_party=2)
    keep, a_keep = _kept_rows(sc)
    # the kept rows in tensor-product order: party-major digits of (s, a) pairs
    product_rows = [
        sum(s << (parties - 1 - p) for p, (s, _) in enumerate(combo)) * dim ** parties
        + sum(a * dim ** (parties - 1 - p) for p, (_, a) in enumerate(combo))
        for combo in itertools.product(local_kept_rows(dim), repeat=parties)
    ]
    basis_matrix = a_keep[np.searchsorted(keep, product_rows)][:, _collins_gisin_basis(sc)]
    expected = functools.reduce(np.kron, [local_basis_block(dim)] * parties)
    assert np.array_equal(basis_matrix, expected)
    assert np.linalg.cond(basis_matrix) < 1e3


@pytest.mark.parametrize("parties, dim", [(2, 2), (2, 3), (3, 3), (4, 2), (5, 2)])
def test_cached_starting_inverse_is_exact_and_read_only(parties, dim):
    sc = Scenario(parties=parties, dim=dim, settings_per_party=2)
    _, a_keep = _kept_rows(sc)
    cached = _collins_gisin_inverse(sc)
    fresh = np.linalg.inv(a_keep[:, _collins_gisin_basis(sc)])
    assert cached.tobytes() == fresh.tobytes()
    assert set(np.unique(cached)) <= {-1.0, 0.0, 1.0}
    assert not cached.flags.writeable
    assert _collins_gisin_inverse(sc) is cached


@pytest.mark.parametrize("sc", [SC23, SC33], ids=["n2d3", "n3d3"])
def test_cold_start_installs_the_cached_inverse(sc, rng, monkeypatch):
    tensor = correlation_tensor(random_state(sc, rng), random_settings(sc, rng))
    solver = ThresholdSolver(sc)
    refactors = []
    original = solver._core.refactor
    monkeypatch.setattr(solver._core, "refactor", lambda: refactors.append(1) or original())
    value = solver.value(tensor)
    # none for the start: only run's re-check before it claims the optimum,
    # once more than _REFACTOR_EVERY updates have piled up (no probe finds drift)
    assert len(refactors) == (solver._core.basis_changes > simplex._REFACTOR_EVERY)
    assert solver._core.Binv is not _collins_gisin_inverse(sc)
    # the same solve, bit for bit, as one that inverts the starting basis itself
    monkeypatch.setattr(threshold_module, "_collins_gisin_inverse", lambda sc: None)
    inverted = ThresholdSolver(sc)
    assert inverted.value(tensor) == value
    assert inverted.last_pivots == solver.last_pivots
    assert np.array_equal(inverted._core.x, solver._core.x)
    assert np.array_equal(inverted._core.Binv, solver._core.Binv)


def test_drifted_inverse_is_rebuilt_at_the_next_probe(rng, monkeypatch):
    tensor = correlation_tensor(random_state(SC33, rng), random_settings(SC33, rng))
    solver = ThresholdSolver(SC33)
    core = solver._core
    probes = []  # (basis changes, whether the probe refactored)
    probe = core._refactor_if_drifted
    monkeypatch.setattr(core, "_refactor_if_drifted",
                        lambda: probes.append((core.basis_changes, probe())) or probes[-1][1])
    exchange = core._exchange

    def corrupting(i, j, w):
        if core.basis_changes == 150:  # between the probes at 100 and 200
            core.Binv[0, 0] += 1e-6
        return exchange(i, j, w)

    monkeypatch.setattr(core, "_exchange", corrupting)
    value = solver.value(tensor)
    assert core.basis_changes > 200
    assert probes[:2] == [(100, False), (200, True)]
    assert not any(rebuilt for _, rebuilt in probes[2:])
    assert abs(value - highs_lp(build_threshold_lp(tensor)).fun) < 1e-9


def test_cold_certified_five_qubit_solve_refactors_once(monkeypatch):
    sc = Scenario(parties=5, dim=2, settings_per_party=2)
    rng = np.random.default_rng(7)
    tensor = correlation_tensor(random_state(sc, rng), random_settings(sc, rng))
    solver = ThresholdSolver(sc)
    refactors = []
    original = solver._core.refactor
    monkeypatch.setattr(solver._core, "refactor", lambda: refactors.append(1) or original())
    result = solver.solve(tensor)
    assert solver._core.basis_changes > 5 * simplex._REFACTOR_EVERY
    assert len(refactors) == 1
    assert abs(result.f_thr - highs_lp(build_threshold_lp(tensor)).fun) < 1e-9


SC52 = Scenario(parties=5, dim=2, settings_per_party=2)
SC34 = Scenario(parties=3, dim=4, settings_per_party=2)


@pytest.mark.parametrize("sc", [SC52, SC34], ids=["n5d2", "n3d4"])
def test_steepest_edge_weights_track_the_row_norms(monkeypatch, sc):
    # GHZ with random phases: at (3,4) the basis passes through rows of
    # ||Binv_i||^2 near 1e8 and back, where the plain update loses 1e-7
    solver = ThresholdSolver(sc)
    core = solver._core
    dual_run, note_step = core.dual_run, core._note_step
    inside, errors = [], []

    def watched(c):
        inside.append(c)
        try:
            return dual_run(c)
        finally:
            inside.pop()

    def checked(t):
        if inside:  # the primal cleanup run keeps no weights
            exact = np.einsum("ij,ij->i", core.Binv, core.Binv)
            errors.append(np.max(np.abs(core.edge_weights - exact) / exact))
        note_step(t)

    monkeypatch.setattr(core, "dual_run", watched)
    monkeypatch.setattr(core, "_note_step", checked)
    tensor = correlation_tensor(ghz_state(sc), random_settings(sc, np.random.default_rng(1)))
    result = solver.solve(tensor)
    assert result.solver_stats["cold_start_rule"] == simplex.DUAL_STEEPEST_EDGE
    assert len(errors) > 500
    assert max(errors) < 1e-9


# Cold certified solves of GHZ below the steepest-edge gate, on the rng(7)
# phase draws of test_cold_solves_below_the_gate_keep_their_pivots: (pivots,
# f_thr, a fixed random projection of the dual), pinned from the
# largest-violation rule that the gate keeps there.
BELOW_THE_GATE = {
    "n3d3": [(374, 0.1645406324750328, -0.18581393359407983),
             (358, 0.20822554886956263, -12.628525499268418),
             (222, 0.0, 0.0)],
    "n4d2": [(124, 0.4529480315116175, 4.446628067379532),
             (150, 0.190587172974605, -3.7512360104367586),
             (121, 0.5895604194520778, -0.043272142793898016)],
}


@pytest.mark.parametrize("sc", [SC33, SC42], ids=["n3d3", "n4d2"])
def test_cold_solves_below_the_gate_keep_their_pivots(sc):
    rng = np.random.default_rng(7)
    projection = np.random.default_rng(0).normal(size=sc.marginal_rows + 1)
    for pivots, f_thr, dual in BELOW_THE_GATE[f"n{sc.parties}d{sc.dim}"]:
        result = ThresholdSolver(sc).solve(correlation_tensor(ghz_state(sc),
                                                              random_settings(sc, rng)))
        assert result.solver_stats["cold_start_rule"] == simplex.LARGEST_VIOLATION
        assert result.solver_stats["iterations"] == pivots
        assert abs(result.f_thr - f_thr) < 1e-14
        assert abs(result.certificate["dual"] @ projection - dual) < 1e-12 * max(1.0, abs(dual))


def test_solver_stats_name_the_cold_start_rule(rng):
    # the gate is on the kept rows: 125 at (3,3), 243 at (5,2); a warm solve ran no cold start
    stats = []
    for sc in (SC33, SC52):
        solver = ThresholdSolver(sc)
        st = random_state(sc, rng)
        for _ in range(2):
            tensor = correlation_tensor(st, random_settings(sc, rng))
            stats.append(solver.solve(tensor).solver_stats)
    assert [(s["warm_start"], s["cold_start_rule"]) for s in stats] == [
        (False, simplex.LARGEST_VIOLATION), (True, None),
        (False, simplex.DUAL_STEEPEST_EDGE), (True, None)]


def test_a_warm_repair_stops_at_ten_pivots_per_row(rng, monkeypatch):
    # a warm repair past its cap hands over to the closed-form retry, which
    # gives the cold solve's optimum
    tensors = [correlation_tensor(random_state(SC33, rng), random_settings(SC33, rng))
               for _ in range(2)]
    fresh = ThresholdSolver(SC33)
    want = fresh.value(tensors[1])
    solver = ThresholdSolver(SC33)
    solver.value(tensors[0])
    core = solver._core
    caps = []
    repair = core.repair

    def capped_low(c, leaving_rule=simplex.LARGEST_VIOLATION, max_pivots=None):
        caps.append(max_pivots)
        # a cap of one pivot stands in for a repair that stalls
        return repair(c, leaving_rule, None if max_pivots is None else 1)

    monkeypatch.setattr(core, "repair", capped_low)
    assert solver.value(tensors[1]) == want
    assert caps == [10 * core.r, None]
    assert not solver.last_warm
    assert solver.last_pivots == fresh.last_pivots + 1


def test_solvers_of_one_scenario_share_pricing_indices_only(rng):
    tensors = [correlation_tensor(random_state(SC33, rng), random_settings(SC33, rng))
               for _ in range(6)]
    first, second = ThresholdSolver(SC33), ThresholdSolver(SC33)
    for part in ("indices", "indptr"):
        assert np.shares_memory(getattr(first._core._At, part), getattr(second._core._At, part))
    assert not np.shares_memory(first._core._At.data, second._core._At.data)

    def outcome(solver, tensor, certify):
        if certify:
            res = solver.solve(tensor)
            return res.f_thr, res.certificate["dual"].tobytes(), solver.last_pivots
        return solver.value(tensor), solver._core.x.tobytes(), solver.last_pivots

    calls = [(k % 2, tensor, k >= 4) for k, tensor in enumerate(tensors)]
    interleaved = [outcome(first if who == 0 else second, tensor, certify)
                   for who, tensor, certify in calls]
    alone = {}
    for who in (0, 1):
        fresh = ThresholdSolver(SC33)
        for k, (caller, tensor, certify) in enumerate(calls):
            if caller == who:
                alone[k] = outcome(fresh, tensor, certify)
    assert interleaved == [alone[k] for k in range(len(calls))]


@pytest.mark.parametrize("parties, dim", [(2, 3), (3, 2), (3, 3), (4, 2)])
def test_feasible_at_matches_full_system_solve(parties, dim, rng):
    sc = Scenario(parties=parties, dim=dim, settings_per_party=2)
    for state in (random_state(sc, rng), ghz_state(sc)):
        tensor = correlation_tensor(state, random_settings(sc, rng))
        f = threshold_from_tensor(tensor).f_thr
        assert feasible_at(tensor, f + 1e-6)
        levels = [f + 1e-6] + rng.uniform(0.0, 1.0, size=3).tolist()
        if f > 1e-6:
            assert not feasible_at(tensor, f - 1e-6)
            levels.append(f - 1e-6)
        for noise in levels:
            assert feasible_at(tensor, noise) == full_system_verdict(tensor, noise), noise


def test_feasible_at_rejects_tensor_inconsistent_on_dropped_row():
    # uniform blocks, except that block (s=1, t=1) moves 0.1 from outcome (1, 0)
    # to (0, 1): every block still sums to 1, but party 1's marginal now depends
    # on party 2's setting, and only rows dropped from the kept set see it
    probs = np.full((2, 2, 2, 2), 0.25)
    probs[1, 1, 0, 1] += 0.1
    probs[1, 1, 1, 0] -= 0.1
    tensor = CorrelationTensor(SC22, probs)
    keep, a_keep = _kept_rows(SC22)
    n = SC22.joint_size
    kept_only = LinearProgram(np.zeros(n), a_keep, tensor.flat[keep],
                              np.zeros(n), np.ones(n))
    assert highs_lp(kept_only).status == 0
    for noise in (0.0, 0.5):
        assert not full_system_verdict(tensor, noise)
        assert not feasible_at(tensor, noise)


def test_feasible_at_runs_no_lp_of_its_own(monkeypatch):
    monkeypatch.setattr(threshold_module, "solve_lp", no_solve_lp)
    monkeypatch.setattr(simplex, "solve_lp", no_solve_lp)
    tensor = ghz_maxent_tensor()
    assert not feasible_at(tensor, 0.3)
    assert feasible_at(tensor, 0.5)
    # nor does a certified solve or a search
    assert abs(threshold(ghz_state(SC33), paper_settings("maxent_3qutrit")).f_thr - 0.4) < 1e-9
    cfg = OptimizationConfig(restarts=2, rng_seed=1, max_evals_per_restart=60,
                             mode="phases_and_state")
    assert optimize_state_and_phases(SC23, cfg).best_f_thr > 0.0


def test_witness_residual_scores_certified_witness(rng):
    tensor = correlation_tensor(random_state(SC23, rng), random_settings(SC23, rng))
    res = threshold_from_tensor(tensor)
    weights = np.array(res.witness.weights)
    marginal, normalization = witness_residual(tensor, res.f_thr, weights)
    assert marginal <= 1e-8 and normalization <= 1e-8
    # move 1e-6 from the all-0 assignment to the all-(d-1) one: every setting
    # block misses its all-0 and all-(d-1) outcome rows by 1e-6, the sum holds
    weights[0] -= 1e-6
    weights[-1] += 1e-6
    marginal, normalization = witness_residual(tensor, res.f_thr, weights)
    assert abs(marginal - 1e-6) < 1e-8
    assert normalization <= 1e-12


SUPPORT_SCENARIOS = [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (5, 2)]


@pytest.mark.parametrize("parties, dim", SUPPORT_SCENARIOS)
def test_marginal_supports_are_the_sparse_incidence(parties, dim):
    sc = Scenario(parties=parties, dim=dim, settings_per_party=2)
    rows, cols = _marginal_supports(sc)
    marg = marginal_incidence(sc)
    built = assignment_marginal_matrix(sc)
    for part in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(built, part), getattr(marg, part))
        assert getattr(built, part).dtype == getattr(marg, part).dtype
    csc = marg.tocsc()
    assert rows.shape == (sc.marginal_rows, sc.joint_size // sc.outcome_combos)
    assert cols.shape == (sc.joint_size, sc.setting_combos)
    assert np.array_equal(marg.indptr, np.arange(0, marg.nnz + 1, rows.shape[1]))
    assert np.array_equal(rows.ravel(), marg.indices)
    assert np.array_equal(csc.indptr, np.arange(0, csc.nnz + 1, cols.shape[1]))
    assert np.array_equal(cols.ravel(), csc.indices)
    assert not rows.flags.writeable and not cols.flags.writeable


@pytest.mark.parametrize("parties, dim", SUPPORT_SCENARIOS)
def test_certified_solve_matches_the_sparse_lp_bit_for_bit(parties, dim, rng):
    # the bound and the residual are summed over the supports in the sparse
    # products' order, so they equal the sparse LP's floats exactly
    sc = Scenario(parties=parties, dim=dim, settings_per_party=2)
    solver = ThresholdSolver(sc)
    for _ in range(2):
        tensor = correlation_tensor(random_state(sc, rng), random_settings(sc, rng))
        res = solver.solve(tensor)
        lp = build_threshold_lp(tensor)
        dual = np.asarray(res.certificate["dual"])
        assert res.certificate["lower_bound"] == certified_lower_bound(lp, dual)
        assert (res.solver_stats["rows"], res.solver_stats["variables"]) == (lp.num_rows,
                                                                              lp.num_vars)

        weights = solver._core.x[:-1]  # the solve's weights, before the witness clips them
        target = (1.0 - res.f_thr) * tensor.flat + res.f_thr * (1.0 / sc.outcome_combos)
        marginal = float(np.max(np.abs(assignment_marginal_matrix(sc) @ weights - target)))
        norm = abs(float(np.sum(weights)) - 1.0)
        assert res.certificate["marginal_residual"] == max(marginal, norm)

        # any dual: mixed signs, zeros and a normalization entry
        y = rng.normal(size=lp.num_rows) * (rng.random(lp.num_rows) < 0.5)
        y[-1] = rng.normal()
        assert _lower_bound(tensor, y) == certified_lower_bound(lp, y)
        w = rng.dirichlet(np.ones(sc.joint_size))
        q = float(rng.uniform())
        target = (1.0 - q) * tensor.flat + q * (1.0 / sc.outcome_combos)
        marginal = float(np.max(np.abs(assignment_marginal_matrix(sc) @ w - target)))
        assert witness_residual(tensor, q, w) == (marginal, abs(float(np.sum(w)) - 1.0))


@pytest.mark.parametrize("sc", [SC22, SC23], ids=str)
def test_exact_bracket_equals_rational_arithmetic(sc, rng):
    # the bound and residuals recomputed entry by entry in Fraction over the
    # full LP; the dual mixes ordinary, tiny and subnormal magnitudes
    tensor = correlation_tensor(random_state(sc, rng), random_settings(sc, rng))
    dual = rng.normal(size=sc.marginal_rows + 1) * rng.choice([1.0, 1e-30, 5e-324],
                                                             size=sc.marginal_rows + 1)
    weights = rng.dirichlet(np.ones(sc.joint_size))
    q = 0.3
    bound, marginal, norm = exact_bracket(tensor, dual, weights, q)

    marg = assignment_marginal_matrix(sc).toarray()
    probs = [Fraction(p) for p in tensor.flat]
    y, w = [Fraction(v) for v in dual], [Fraction(v) for v in weights]
    u, q = Fraction(1, sc.outcome_combos), Fraction(q)
    z = [-sum(y[r] for r in np.flatnonzero(marg[:, j])) - y[-1] for j in range(sc.joint_size)]
    z_noise = 1 - sum(y[r] * (probs[r] - u) for r in range(sc.marginal_rows))
    expected = (sum(y[r] * probs[r] for r in range(sc.marginal_rows)) + y[-1]
                + sum(min(0, v) for v in z) + min(0, z_noise))
    assert bound == expected
    misses = [sum(w[j] for j in np.flatnonzero(marg[r])) - (1 - q) * probs[r] - q * u
              for r in range(sc.marginal_rows)]
    assert marginal == max(abs(m) for m in misses)
    assert norm == abs(sum(w) - 1)


def test_threshold_solver_full_result(rng):
    solver = ThresholdSolver(SC23)
    st = ghz_state(SC23)
    se = random_settings(SC23, rng)
    t = correlation_tensor(st, se)
    res = solver.solve(t)
    assert res.certificate["gap"] < 1e-8
    assert abs(res.f_thr - solver.value(t)) < 1e-12
    with pytest.raises(ScenarioMismatchError):
        solver.value(ghz_maxent_tensor())


def test_joint_distribution_validation():
    w = np.zeros(SC22.joint_size)
    w[0] = 1.0
    jd = JointDistribution(SC22, w)
    assert jd.weights.sum() == 1.0
    with pytest.raises(ValueError):
        JointDistribution(SC22, np.zeros(SC22.joint_size))  # sums to 0
    with pytest.raises(ValueError, match="finite"):
        JointDistribution(SC22, np.full(SC22.joint_size, np.nan))
    bad = w.copy()
    bad[1] = -1e-3
    with pytest.raises(ValueError):
        JointDistribution(SC22, bad + 1e-3 / SC22.joint_size)


def test_complex_weights_are_accepted_only_with_a_zero_imaginary_part():
    w = np.full(SC22.joint_size, 1.0 / SC22.joint_size)
    with pytest.raises(ValueError, match="assignment weights must be real"):
        JointDistribution(SC22, w + 0.1j)
    assert JointDistribution(SC22, w + 0j).weights.tobytes() == w.tobytes()


def test_threshold_result_bounds(rng):
    res = threshold(random_state(SC22, rng), random_settings(SC22, rng))
    assert 0.0 <= res.f_thr <= 1.0
    assert res.solver_stats["status"] == "optimal"


def tight_sets(values: np.ndarray, bound: float) -> list[frozenset]:
    """Per inequality (one row of values on the vertices), the vertices where it is tight."""
    return [frozenset(np.flatnonzero(row == bound)) for row in values]


def test_facets_at_two_qutrits_are_valid_tight_and_1116_with_positivity():
    facets = _bell_facet_rows(3)
    rows, _ = _facet_rows(SC23)
    assert facets.shape == rows.shape == (1080, SC23.marginal_rows) and not rows.flags.writeable
    vertices = assignment_marginal_matrix(SC23).toarray()  # one column per assignment
    lifted = np.vstack([vertices, np.ones(SC23.joint_size)])
    assert np.linalg.matrix_rank(lifted) == 25  # the local polytope has dimension 24
    values = facets @ vertices
    assert np.all(values.max(axis=1) == 2.0)
    # a facet is tight on 24 affinely independent vertices, positivity included
    tight = tight_sets(values, 2.0) + tight_sets(vertices, 0.0)
    assert all(np.linalg.matrix_rank(lifted[:, sorted(t)]) == 24 for t in tight)
    assert len(set(tight)) == 1116


def test_facets_at_two_qubits_are_the_convex_hull():
    from scipy.spatial import ConvexHull

    vertices = assignment_marginal_matrix(SC22).toarray()
    points = vertices.T - vertices.T.mean(axis=0)
    _, singular, basis = np.linalg.svd(points)
    points = points @ basis[singular > 1e-9].T  # coordinates in the affine hull
    assert points.shape == (16, 8)
    hull = ConvexHull(points)
    found = {frozenset(np.flatnonzero(np.abs(points @ eq[:-1] + eq[-1]) < 1e-9))
             for eq in hull.equations}
    ours = tight_sets(_bell_facet_rows(2) @ vertices, 2.0) + tight_sets(vertices, 0.0)
    assert len(found) == len(ours) == 24
    assert set(ours) == found


@pytest.mark.parametrize("sc, draws", [(SC33, 50), (SC32, 150)], ids=["n3d3", "n3d2"])
def test_lifted_two_party_facets_bound_the_threshold_from_below(rng, sc, draws):
    solver = ThresholdSolver(sc)
    proved = 0
    for _ in range(draws):
        tensor = correlation_tensor(random_state(sc, rng), random_settings(sc, rng))
        bound = lifted_facet_bound(tensor)
        assert bound <= solver.value(tensor) + 1e-12
        proved += bound > 0.0
    # the bound proves some draws nonlocal, so the check is not vacuous
    assert proved > 0


@pytest.mark.parametrize("sc", [SC22, SC23, SC32, SC33], ids=["n2d2", "n2d3", "n3d2", "n3d3"])
def test_facet_rows_are_the_facets_lowered_on_their_first_block(sc):
    d = sc.dim
    rows, slack = _facet_rows(sc)
    facets = _bell_facet_rows(d)
    # 2 taken off the (0, 0) block of each facet, and (2 - c.u)/d^(N-2)
    want = facets.reshape(len(facets), 4, d * d).copy()
    want[:, 0] -= 2.0
    assert np.array_equal(rows, want.reshape(len(facets), -1))
    assert np.array_equal(slack, (2.0 - facets.sum(axis=1) / d ** 2) / d ** (sc.parties - 2))
    assert not rows.flags.writeable and not slack.flags.writeable
    assert _facet_rows(sc)[0] is rows
    # the builder keeps no copy: each call returns a new, writeable array
    assert not hasattr(_bell_facet_rows, "cache_info")
    again = _bell_facet_rows(d)
    assert again.flags.writeable and not np.shares_memory(again, facets)
    assert np.array_equal(again, facets)


@pytest.mark.parametrize("sc", [Scenario(parties=2, dim=4), Scenario(parties=4, dim=2),
                                Scenario(parties=3, dim=4)], ids=["n2d4", "n4d2", "n3d4"])
def test_facet_rows_cover_two_or_three_parties_and_d_up_to_3(sc):
    assert _facet_rows(sc) is None


def cglmp_tensor():
    """GHZ at (2,3) under the CGLMP settings, criterion 3's optimum (threshold 0.3038)."""
    alpha = np.array([[0.0, 0.5], [0.25, -0.25]])
    settings = PhaseSettings(SC23, 2 * np.pi * alpha[:, :, None] * np.arange(3) / 3)
    return correlation_tensor(ghz_state(SC23), settings)


@pytest.mark.parametrize("which", ["ghz-cglmp", "product", "uniform"])
def test_facet_value_raises_no_floating_point_warning(rng, which):
    tensor = {
        "ghz-cglmp": cglmp_tensor,
        "product": lambda: correlation_tensor(product_state(SC23, [[1, 0, 0], [0, 1, 0]]),
                                              random_settings(SC23, rng)),
        "uniform": lambda: CorrelationTensor(SC23, np.full((2, 2, 3, 3), 1.0 / 9.0)),
    }[which]()
    solver = _FacetThreshold(SC23)
    with np.errstate(all="raise"):
        value = solver.value(tensor)
        grad = solver.tensor_gradient()
    assert abs(value - ThresholdSolver(SC23).value(tensor)) < 1e-12
    assert (value > 0.3) == (which == "ghz-cglmp")
    assert grad.shape == (SC23.marginal_rows,) and np.all(np.isfinite(grad))
    assert grad.any() == (which == "ghz-cglmp")


def test_facet_evaluator_takes_its_own_scenario():
    solver = _FacetThreshold(SC23)
    assert solver.tensor_gradient() is None
    with pytest.raises(ScenarioMismatchError):
        solver.value(ghz_maxent_tensor())
