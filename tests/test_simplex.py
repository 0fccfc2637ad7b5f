"""In-repo bounded-variable simplex: statuses, oracle agreement, dump format."""

import pickle

import numpy as np
import pytest
import scipy.sparse as sp

from lrthresh import (
    BoundedSimplex,
    LinearProgram,
    SolverFailure,
    SolverOptions,
    certified_lower_bound,
    dump_lp_text,
    independent_rows,
    simplex,
    solve_lp,
)
from lrthresh.simplex import INFEASIBLE, ITERATION_LIMIT, OPTIMAL

from conftest import dual_residual, enumerate_lp_optimum, parse_lp_text, random_bounded_lp


def optimal_core(A, b, c):
    """A core at the optimum of min c.x, A x = b, 0 <= x <= 1, for A = [I | cols].

    The identity columns start as the basis, with duals c_B, and each
    nonbasic starts on the bound its reduced cost favours, so that basis is
    dual feasible and the shared repair solves from it.
    """
    r, n = A.shape
    core = BoundedSimplex(A, b, np.zeros(n), np.ones(n), SolverOptions())
    core.set_basis(np.arange(r), c - c[:r] @ A < 0)
    assert core.repair(c) == OPTIMAL
    return core


def test_bound_only_minimum():
    lp = LinearProgram(objective=[1.0], eq_matrix=np.zeros((0, 1)), eq_rhs=[],
                       lower=[0.3], upper=[1.0])
    sol = solve_lp(lp)
    assert sol.status == OPTIMAL
    assert abs(sol.objective_value - 0.3) < 1e-12
    assert abs(sol.primal[0] - 0.3) < 1e-12


def test_empty_constraint_lp():
    lp = LinearProgram(objective=[2.0, -1.0], eq_matrix=np.zeros((0, 2)), eq_rhs=[],
                       lower=[-1.0, -1.0], upper=[1.0, 1.0])
    sol = solve_lp(lp)
    assert sol.status == OPTIMAL
    assert abs(sol.objective_value - (-3.0)) < 1e-12


def test_simple_equality():
    # min x + y subject to x + y = 1
    lp = LinearProgram(objective=[1.0, 1.0], eq_matrix=[[1.0, 1.0]], eq_rhs=[1.0],
                       lower=[0.0, 0.0], upper=[1.0, 1.0])
    sol = solve_lp(lp)
    assert sol.status == OPTIMAL
    assert abs(sol.objective_value - 1.0) < 1e-12


def test_infeasible_detected():
    lp = LinearProgram(objective=[1.0, 1.0], eq_matrix=[[1.0, 1.0]], eq_rhs=[5.0],
                       lower=[0.0, 0.0], upper=[1.0, 1.0])
    sol = solve_lp(lp)
    assert sol.status == INFEASIBLE


def test_infinite_bound_rejected():
    for lower, upper in (([0.0, 0.0], [np.inf, 1.0]), ([-np.inf, 0.0], [1.0, 1.0])):
        lp = LinearProgram(objective=[-1.0, 0.0], eq_matrix=[[0.0, 1.0]], eq_rhs=[0.5],
                           lower=lower, upper=upper)
        with pytest.raises(ValueError, match="finite"):
            solve_lp(lp)
        with pytest.raises(ValueError, match="finite"):
            BoundedSimplex(lp.dense_matrix(), lp.eq_rhs, lp.lower, lp.upper, SolverOptions())


def test_iteration_limit_reported(rng, monkeypatch):
    lp = random_bounded_lp(np.random.default_rng(5))
    r, n = 20, 60
    A = np.hstack([np.eye(r), rng.uniform(0.5, 2.0, size=(r, n - r))])
    c = rng.normal(size=n)
    core = optimal_core(A, A @ rng.uniform(0.2, 0.8, size=n), c)
    core.b = A @ rng.uniform(0.2, 0.8, size=n)  # the optimal basis is now primal infeasible
    core.recompute_basics()
    assert core.primal_residual() > 1e-3

    monkeypatch.setattr(simplex, "_PIVOTS_PER_COLUMN", 0)
    assert solve_lp(lp).status == ITERATION_LIMIT
    assert core.dual_run(c) == ITERATION_LIMIT


@pytest.mark.parametrize("field", ["tol_feas", "tol_opt"])
@pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf")])
def test_solver_options_reject_unusable_tolerances(field, value):
    with pytest.raises(ValueError, match=field):
        SolverOptions(**{field: value})


def test_validation_errors():
    with pytest.raises(ValueError):
        LinearProgram(objective=[1.0], eq_matrix=[[1.0, 1.0]], eq_rhs=[1.0],
                      lower=[0.0], upper=[1.0])
    with pytest.raises(ValueError):
        LinearProgram(objective=[1.0], eq_matrix=np.zeros((0, 1)), eq_rhs=[],
                      lower=[1.0], upper=[0.0])


def test_against_vertex_enumeration(rng):
    mismatches = []
    for k in range(60):
        lp = random_bounded_lp(rng, feasible=(k % 4 != 3))
        truth_status, truth_val = enumerate_lp_optimum(lp)
        sol = solve_lp(lp)
        if truth_status == "infeasible":
            if sol.status != INFEASIBLE:
                mismatches.append((k, "status", sol.status))
        else:
            if sol.status != OPTIMAL:
                mismatches.append((k, "status", sol.status))
            elif abs(sol.objective_value - truth_val) > 1e-9:
                mismatches.append((k, "value", sol.objective_value - truth_val))
    assert not mismatches


def test_optimal_solution_certificates(rng):
    for _ in range(20):
        dense = random_bounded_lp(rng)
        sparse = LinearProgram(dense.objective, sp.csr_array(dense.eq_matrix), dense.eq_rhs,
                               dense.lower, dense.upper)
        for lp in (dense, sparse):
            sol = solve_lp(lp)
            if sol.status != OPTIMAL:
                continue
            x = sol.primal
            assert np.max(np.abs(lp.dense_matrix() @ x - lp.eq_rhs)) < 1e-9
            assert np.all(x >= lp.lower - 1e-9)
            assert np.all(x <= lp.upper + 1e-9)
            assert dual_residual(lp, x, sol.dual) < 1e-9
            bound = certified_lower_bound(lp, sol.dual)
            assert sol.objective_value - bound < 1e-9
            assert bound - sol.objective_value < 1e-9  # gap closes both ways at optimum


def test_determinism(rng):
    lp = random_bounded_lp(rng)
    a = solve_lp(lp)
    b = solve_lp(lp)
    assert a.status == b.status
    assert a.iterations == b.iterations
    assert np.array_equal(a.primal, b.primal)
    assert np.array_equal(a.dual, b.dual)


def test_redundant_rows_presolved():
    # second row is the first times two; consistent
    lp = LinearProgram(objective=[1.0, 0.0], eq_matrix=[[1.0, 1.0], [2.0, 2.0]],
                       eq_rhs=[1.0, 2.0], lower=[0.0, 0.0], upper=[1.0, 1.0])
    sol = solve_lp(lp)
    assert sol.status == OPTIMAL
    assert abs(sol.objective_value) < 1e-12
    # inconsistent duplicate
    lp_bad = LinearProgram(objective=[1.0, 0.0], eq_matrix=[[1.0, 1.0], [2.0, 2.0]],
                           eq_rhs=[1.0, 2.5], lower=[0.0, 0.0], upper=[1.0, 1.0])
    sol_bad = solve_lp(lp_bad)
    assert sol_bad.status == INFEASIBLE


def test_independent_rows(rng):
    m = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    keep, cols, consistent = independent_rows(m, np.array([1.0, 2.0, 3.0]))
    assert consistent
    assert list(keep) == [0, 1]
    assert list(cols) == [0, 1]
    keep, cols, consistent = independent_rows(m, np.array([1.0, 2.0, 4.0]))
    assert not consistent
    # the pivot columns are a nonsingular basis on the kept rows
    for _ in range(20):
        r, n = int(rng.integers(2, 7)), int(rng.integers(7, 12))
        m = rng.normal(size=(r, n)) * (rng.random((r, n)) < 0.6)
        m = np.vstack([m, rng.normal(size=(2, r)) @ m])  # two dependent rows
        keep, cols, consistent = independent_rows(m, m @ rng.uniform(size=n))
        assert consistent
        assert len(cols) == len(keep) == np.linalg.matrix_rank(m)
        assert len(set(cols)) == len(cols)
        assert np.linalg.cond(m[np.ix_(keep, cols)]) < 1e8


def test_dump_parse_round_trip(rng):
    lp = random_bounded_lp(rng)
    text = dump_lp_text(lp)
    back = parse_lp_text(text)
    assert back.num_vars == lp.num_vars
    assert back.num_rows == lp.num_rows
    assert np.array_equal(back.objective, lp.objective)
    assert np.array_equal(back.dense_matrix(), lp.dense_matrix())
    assert np.array_equal(back.eq_rhs, lp.eq_rhs)
    assert np.array_equal(back.lower, lp.lower)
    assert np.array_equal(back.upper, lp.upper)
    a = solve_lp(lp)
    b = solve_lp(back)
    assert a.status == b.status
    if a.status == OPTIMAL:
        assert a.objective_value == b.objective_value


def test_replace_column_matches_fresh_factorization(rng):
    n, r = 8, 4
    A = rng.normal(size=(r, n))
    lower = np.zeros(n)
    upper = np.ones(n)
    core = BoundedSimplex(A, rng.normal(size=r), lower, upper, SolverOptions())
    core.set_basis(np.arange(r))
    j = 2  # basic column
    new_col = rng.normal(size=r)
    assert core.replace_column(j, new_col)
    fresh = np.linalg.inv(core.A[:, core.basis])
    assert np.max(np.abs(core.Binv - fresh)) < 1e-9
    # nonbasic column: matrix changes, factorization untouched
    before = core.Binv.copy()
    assert core.replace_column(n - 1, rng.normal(size=r))
    assert np.array_equal(core.Binv, before)


def test_singular_basis_raises_solver_failure():
    A = np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 1.0]])
    core = BoundedSimplex(A, np.ones(2), np.zeros(3), np.ones(3), SolverOptions())
    with pytest.raises(SolverFailure) as err:
        core.set_basis(np.array([0, 1]))
    assert err.value.status == "numerical"


def test_solver_failure_carries_status():
    err = SolverFailure(INFEASIBLE, "detail text")
    assert err.status == INFEASIBLE
    assert "detail text" in str(err)
    # a failure in a restart worker reaches the caller pickled; its message is not wrapped again
    back = pickle.loads(pickle.dumps(err))
    assert back.status == INFEASIBLE
    assert str(back) == str(err)


def sparse_problem(rng, r, n, density=0.04):
    """[I | sparse 0/1 columns]: the identity gives a starting basis."""
    cols = (rng.random((r, n - r)) < density).astype(float)
    A = np.hstack([np.eye(r), cols])
    return BoundedSimplex(A, np.ones(r), np.zeros(n), np.ones(n), SolverOptions())


# the size rule: 150 x 600 at 4% density prices sparsely, 20 x 60 densely
@pytest.mark.parametrize("r, n, sparse", [(150, 600, True), (20, 60, False)])
def test_sparse_and_dense_pricing_agree(rng, r, n, sparse):
    core = sparse_problem(rng, r, n)
    assert (core._At is not None) == sparse
    core.set_basis(np.arange(r))
    reference = core.A.copy()

    def check():
        for _ in range(3):
            y = rng.normal(size=r)
            assert np.max(np.abs(core._price(y) - y @ reference)) < 1e-12

    check()
    for j in (r + 5, n // 2, 3):  # nonbasic, nonbasic, basic; none of them the last
        col = rng.normal(size=r)
        assert core.replace_column(j, col)
        reference[:, j] = col
        check()
    with pytest.raises(ValueError):
        core.A[:, 0] = 0.0  # writes go through set_column


def test_sparse_pricing_is_bit_equal_to_scipy_matmul(rng):
    core = sparse_problem(rng, 150, 600)
    core.set_basis(np.arange(150))
    # untouched, then column 200 written once and again, then other columns
    for j in (None, 200, 200, 7, 599, 200):
        if j is not None:
            core.set_column(j, rng.normal(size=150))
        # a contiguous vector, a strided one, and a row of the inverse
        for y in (rng.normal(size=150), rng.normal(size=(150, 2))[:, 1], core.Binv[3]):
            price = core._price(y)
            assert np.array_equal(price, core._At @ y)
            assert np.max(np.abs(price - y @ core.A)) < 1e-12


def test_written_column_keeps_one_full_row(rng):
    core = sparse_problem(rng, 150, 600)
    j = 599
    core.set_column(j, rng.normal(size=150))
    nnz = core._At.nnz
    row = slice(core._At.indptr[j], core._At.indptr[j + 1])
    assert np.array_equal(core._At.indices[row], np.arange(150))
    for col in (np.zeros(150), rng.normal(size=150)):
        core.set_column(j, col)
        assert core._At.nnz == nnz
        assert np.array_equal(core._At.data[row], col)


def test_sparse_refactor_inverts_the_basis(rng):
    core = sparse_problem(rng, 150, 600, density=0.1)
    assert core._getrf is not None
    core.set_basis(np.arange(150))
    while core.stale_updates < 60:  # move well away from the identity
        j = int(rng.choice(np.flatnonzero(~core.in_basis)))
        w = core.Binv @ core.A[:, j]
        i = int(np.argmax(np.abs(w)))
        if abs(w[i]) > 0.5:
            core._exchange(i, j, w)
    core.refactor()
    assert core.stale_updates == 0
    assert core.Binv.flags.c_contiguous  # the in-place update needs C order
    assert np.max(np.abs(core.Binv @ core.A[:, core.basis] - np.eye(150))) < 1e-12


def test_singular_sparse_basis_raises_solver_failure(rng):
    core = sparse_problem(rng, 150, 600)
    core.set_column(0, np.zeros(150))
    with pytest.raises(SolverFailure) as err:
        core.set_basis(np.arange(150))
    assert err.value.status == "numerical"


@pytest.mark.parametrize("r, n", [(150, 600), (20, 60)])
def test_inverse_stays_exact_over_many_updates(rng, r, n):
    core = sparse_problem(rng, r, n, density=0.1)
    assert (core._gemm is not None) == (r * n >= 50_000)  # the in-place BLAS update
    core.set_basis(np.arange(r))
    updates = 0
    while updates < 300:
        if updates % 3 == 2:
            j = int(rng.choice(core.basis))
            ok = core.replace_column(j, core.A[:, j] + 0.1 * rng.normal(size=r))
        else:
            j = int(rng.choice(np.flatnonzero(~core.in_basis)))
            w = core.Binv @ core.A[:, j]
            i = int(np.argmax(np.abs(w)))
            ok = abs(w[i]) > 0.5
            if ok:
                core._exchange(i, j, w)
        updates += ok
    assert core.stale_updates == 300
    assert np.max(np.abs(core.Binv @ core.A[:, core.basis] - np.eye(r))) < 1e-9


@pytest.mark.parametrize("r, n", [(150, 600), (20, 60)])
def test_dual_run_carries_exact_reduced_costs(rng, monkeypatch, r, n):
    A = np.hstack([np.eye(r), (rng.random((r, n - r)) < 0.04) * rng.uniform(0.5, 2, (r, n - r))])
    c = rng.normal(size=n)
    x0 = rng.uniform(0.2, 0.8, size=n)
    monkeypatch.setattr(simplex, "_REFACTOR_EVERY", 7)  # reprice often
    core = optimal_core(A, A @ x0, c)
    dual_pivots = 0
    for _ in range(3):
        # a new rhs: the optimal basis stays dual feasible, not primal
        core.b = A @ np.clip(x0 + rng.normal(scale=0.2, size=n), 0.0, 1.0)
        core.recompute_basics()
        before = core.pivots
        assert core.dual_run(c) == OPTIMAL
        dual_pivots += core.pivots - before
        fresh = c - core.duals(c) @ core.A
        assert np.max(np.abs(core.reduced_costs - fresh)) < 1e-9
        assert core.run(c) == OPTIMAL
    assert dual_pivots > 7


@pytest.mark.parametrize("r, n", [(150, 600), (20, 60)])
def test_dual_run_leaves_consistent_values_at_the_pivot_limit(rng, monkeypatch, r, n):
    A = np.hstack([np.eye(r), (rng.random((r, n - r)) < 0.04) * rng.uniform(0.5, 2, (r, n - r))])
    c = rng.normal(size=n)
    x0 = rng.uniform(0.2, 0.8, size=n)
    core = optimal_core(A, A @ x0, c)
    core.b = A @ rng.uniform(0.2, 0.8, size=n)  # the optimal basis is now primal infeasible
    core.recompute_basics()
    monkeypatch.setattr(simplex, "_PIVOTS_PER_COLUMN", 3.5 / core.n)  # stop after 4 pivots
    before = core.pivots
    assert core.dual_run(c) == ITERATION_LIMIT
    assert core.pivots - before == 4
    nonbasic = np.flatnonzero(~core.in_basis)
    on_bound = np.where(core.at_upper, core.upper, core.lower)
    assert np.array_equal(core.x[nonbasic], on_bound[nonbasic])
    rhs = core.b - core.A[:, nonbasic] @ core.x[nonbasic]
    assert np.max(np.abs(core.x[core.basis] - core.Binv @ rhs)) < 1e-12
