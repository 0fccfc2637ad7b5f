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
    _collins_gisin_basis,
    _collins_gisin_inverse,
    _kept_rows,
    assignment_marginal_matrix,
    exact_bracket,
    witness_residual,
)

from conftest import highs_lp, noisy_tensor

threshold_module = importlib.import_module("lrthresh.threshold")  # the package's threshold is a function

SC33 = Scenario(parties=3, dim=3, settings_per_party=2)
SC23 = Scenario(parties=2, dim=3, settings_per_party=2)
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
    assert solver._ring.count >= 3  # the ring holds other optimal states

    def fail(*args):
        raise SolverFailure("numerical", "injected")

    monkeypatch.setattr(threshold_module, "solve_lp", no_solve_lp)
    monkeypatch.setattr(solver._core, "dual_run", fail)
    with pytest.raises(SolverFailure, match="injected"):  # the closed-form retry fails too
        solver.value(t2)
    monkeypatch.undo()
    assert solver._ring.count == 0
    # neither the half-repaired basis of the failed call nor a saved state is reused
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
    assert solver._ring.count == 1  # a recovered failure keeps the saved states


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
    assert solver._ring.count == 0
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


def revisiting_walk(sc, seed, steps):
    """Tensors along a phase walk that, like Nelder-Mead, keeps coming back.

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
def test_nearest_saved_basis_start(monkeypatch, sc, steps):
    tensors = revisiting_walk(sc, 3, steps)
    solver = ThresholdSolver(sc)
    for t in tensors:
        assert abs(solver.value(t) - ThresholdSolver(sc).solve(t).f_thr) < 1e-12
    # a ring of one always restarts from the last optimum
    monkeypatch.setattr(threshold_module, "_RING_SIZE", 1)
    last_only = ThresholdSolver(sc)
    for t in tensors:
        last_only.value(t)
    assert solver._core.pivots < last_only._core.pivots


def test_tensor_gradient_after_a_restored_start(rng, monkeypatch):
    st = random_state(SC23, rng)
    while True:
        table = random_settings(SC23, rng).table
        if ThresholdSolver(SC23).value(correlation_tensor(st, PhaseSettings(SC23, table))) > 0.01:
            break
    solver = ThresholdSolver(SC23)
    solver.value(correlation_tensor(st, PhaseSettings(SC23, table)))
    solver.value(correlation_tensor(st, random_settings(SC23, rng)))
    restored = []
    restore = solver._ring.restore

    def checked_restore(k, core):
        restore(k, core)
        # F is basic at the saved optimum, so its column must come back with Binv
        restored.append(np.max(np.abs(core.Binv @ core.A[:, core.basis] - np.eye(core.r))))

    monkeypatch.setattr(solver._ring, "restore", checked_restore)
    table = table + 0.01 * rng.normal(size=table.shape)
    solver.value(correlation_tensor(st, PhaseSettings(SC23, table)))
    assert len(restored) == 1 and restored[0] < 1e-9  # started from the first optimum
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
    for _ in range(600):  # long enough to pass 100 * n pivots from the nearest saved basis
        solver.value(correlation_tensor(st, random_settings(SC23, rng)))
        cold += not solver.last_warm
    assert solver._core.pivots > 100 * solver._core.n
    assert cold == 1  # the first call, with no saved state to start from


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
    # only the periodic refactors of the pivots themselves, none for the start
    assert len(refactors) == solver._core.basis_changes // simplex._REFACTOR_EVERY
    assert solver._core.Binv is not _collins_gisin_inverse(sc)
    # the same solve, bit for bit, as one that inverts the starting basis itself
    monkeypatch.setattr(threshold_module, "_collins_gisin_inverse", lambda sc: None)
    inverted = ThresholdSolver(sc)
    assert inverted.value(tensor) == value
    assert inverted.last_pivots == solver.last_pivots
    assert np.array_equal(inverted._core.x, solver._core.x)
    assert np.array_equal(inverted._core.Binv, solver._core.Binv)


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


def test_threshold_result_bounds(rng):
    res = threshold(random_state(SC22, rng), random_settings(SC22, rng))
    assert 0.0 <= res.f_thr <= 1.0
    assert res.solver_stats["status"] == "optimal"
