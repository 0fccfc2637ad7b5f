"""In-repo bounded-variable simplex: statuses, oracle agreement, dump format."""

import numpy as np
import pytest

from lrthresh import (
    BoundedSimplex,
    LinearProgram,
    SolverFailure,
    SolverOptions,
    certified_lower_bound,
    dump_lp_text,
    independent_rows,
    parse_lp_text,
    solve_lp,
)
from lrthresh.simplex import INFEASIBLE, ITERATION_LIMIT, OPTIMAL, UNBOUNDED

from conftest import dual_residual, enumerate_lp_optimum, random_bounded_lp


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


def test_unbounded_detected():
    lp = LinearProgram(objective=[-1.0, 0.0], eq_matrix=[[0.0, 1.0]], eq_rhs=[0.5],
                       lower=[0.0, 0.0], upper=[np.inf, 1.0])
    sol = solve_lp(lp)
    assert sol.status == UNBOUNDED


def test_iteration_limit_reported():
    rng = np.random.default_rng(5)
    lp = random_bounded_lp(rng)
    sol = solve_lp(lp, SolverOptions(max_pivots=1))
    assert sol.status in (ITERATION_LIMIT, OPTIMAL)  # tiny LPs may finish in one


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
        lp = random_bounded_lp(rng)
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


def test_independent_rows():
    m = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    keep, consistent = independent_rows(m, np.array([1.0, 2.0, 3.0]))
    assert consistent
    assert list(keep) == [0, 1]
    keep, consistent = independent_rows(m, np.array([1.0, 2.0, 4.0]))
    assert not consistent


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
