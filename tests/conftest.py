"""Shared fixtures and the independent oracles the tests check the package against."""

from __future__ import annotations

from itertools import combinations, product

import numpy as np
import pytest

from lrthresh import (
    LinearProgram,
    PhaseSettings,
    PureState,
    UnsupportedScenarioError,
)


@pytest.fixture
def rng():
    return np.random.default_rng(20250822)


def enumerate_lp_optimum(lp: LinearProgram) -> tuple[str, float | None]:
    """Exhaustive optimum of a small finite-bounded LP via basis enumeration.

    Every vertex of {A x = b, l <= x <= u} has r basic coordinates and the
    rest at a bound, so trying all bases and all bound placements finds the
    exact optimum. Intended for num_vars <= 6 only.
    """
    A = lp.dense_matrix()
    b = np.asarray(lp.eq_rhs, dtype=float)
    c = np.asarray(lp.objective, dtype=float)
    lower = np.asarray(lp.lower, dtype=float)
    upper = np.asarray(lp.upper, dtype=float)
    n, r = lp.num_vars, lp.num_rows
    if not (np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))):
        raise ValueError("oracle needs finite bounds")

    if r == 0:
        x = np.where(c >= 0, lower, upper)
        return "optimal", float(c @ x)

    best = None
    for basis in combinations(range(n), r):
        basis = list(basis)
        B = A[:, basis]
        if abs(np.linalg.det(B)) < 1e-10:
            continue
        nonbasic = [j for j in range(n) if j not in basis]
        for placement in product((False, True), repeat=len(nonbasic)):
            x = np.empty(n)
            for j, hi in zip(nonbasic, placement):
                x[j] = upper[j] if hi else lower[j]
            rhs = b - A[:, nonbasic] @ x[nonbasic] if nonbasic else b
            x[basis] = np.linalg.solve(B, rhs)
            if np.all(x >= lower - 1e-9) and np.all(x <= upper + 1e-9):
                val = float(c @ np.clip(x, lower, upper))
                if best is None or val < best:
                    best = val
    if best is None:
        return "infeasible", None
    return "optimal", best


def random_bounded_lp(rng: np.random.Generator, feasible: bool = True) -> LinearProgram:
    """A small random equality LP with finite box bounds.

    feasible=True plants an interior point; feasible=False shifts the rhs far
    outside the reachable range, which usually (not always) breaks
    feasibility — the oracle supplies the ground truth either way.
    """
    n = int(rng.integers(3, 7))
    r = int(rng.integers(1, min(4, n)))
    A = rng.normal(size=(r, n))
    lower = rng.uniform(-1.0, 0.0, size=n)
    upper = lower + rng.uniform(0.5, 2.0, size=n)
    x0 = lower + rng.uniform(0.1, 0.9, size=n) * (upper - lower)
    b = A @ x0
    if not feasible:
        b = b + rng.choice([-1.0, 1.0], size=r) * rng.uniform(50.0, 100.0, size=r)
    c = rng.normal(size=n)
    return LinearProgram(objective=c, eq_matrix=A, eq_rhs=b, lower=lower, upper=upper)


def dual_residual(lp: LinearProgram, primal: np.ndarray, dual: np.ndarray,
                  tol_active: float = 1e-7) -> float:
    """Largest violation of the dual sign conditions at the given primal point."""
    a = lp.dense_matrix()
    z = lp.objective - np.asarray(dual, float) @ a
    at_low = primal <= lp.lower + tol_active
    at_up = primal >= lp.upper - tol_active
    viol = np.zeros_like(z)
    interior = ~at_low & ~at_up
    viol[interior] = np.abs(z[interior])
    only_low = at_low & ~at_up
    viol[only_low] = np.maximum(-z[only_low], 0.0)
    only_up = at_up & ~at_low
    viol[only_up] = np.maximum(z[only_up], 0.0)
    return float(np.max(viol, initial=0.0))


def closed_form_probability(
    state: PureState,
    settings: PhaseSettings,
    setting_combo: tuple[int, int, int],
    outcomes: tuple[int, int, int],
) -> float:
    """Three-qutrit probability from the explicit cosine double sum.

    Cross-check oracle only: 1/27 plus (1/27) * sum over ordered coefficient
    pairs of d_x d_y cos(angle difference), where the angle collects the
    Fourier term (2*pi/3) * sum_p outcome_p * (label_p - label_p') and the
    phase-setting differences. Equivalent to the real part of the coherent
    double sum because the coefficients are real.
    """
    sc = state.scenario
    if (sc.parties, sc.dim) != (3, 3):
        raise UnsupportedScenarioError(
            f"closed form is defined for 3 qutrits only, got {sc}"
        )
    k, l, mm = setting_combo
    a, b, c = outcomes
    for s in (k, l, mm):
        if not 0 <= s < sc.settings_per_party:
            raise ValueError(f"setting index {s} out of range")
    for o in (a, b, c):
        if not 0 <= o < 3:
            raise ValueError(f"outcome {o} out of range")

    labels = np.arange(3)
    g, i, j = np.meshgrid(labels, labels, labels, indexing="ij")
    g, i, j = g.ravel(), i.ravel(), j.ravel()
    phi = settings.table[0, k]
    chi = settings.table[1, l]
    delta = settings.table[2, mm]
    # total phase of each basis ket's amplitude (up to a row-dependent term
    # that cancels between the pair members)
    theta = (
        (2.0 * np.pi / 3.0) * (a * g + b * i + c * j)
        + phi[g] + chi[i] + delta[j]
    )
    coeffs = state.coeffs
    # full double sum: the diagonal contributes sum(d^2)/27 = 1/27
    val = (np.outer(coeffs, coeffs) * np.cos(np.subtract.outer(theta, theta))).sum() / 27.0
    return float(val)
