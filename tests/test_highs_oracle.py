"""Differential check of the threshold solver against scipy's bundled HiGHS.

Random real states and phase walks drive the warm ThresholdSolver.value()
re-solves (rank-one column patch, dual repair, primal cleanup) and the
certified solve(); fresh solvers check the cold start from the closed-form
basis. Every value must match HiGHS on build_threshold_lp.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import linprog

from lrthresh import (
    PhaseSettings,
    PureState,
    Scenario,
    ThresholdSolver,
    build_threshold_lp,
    correlation_tensor,
    ghz_state,
    paper_settings,
    product_state,
)

TOL = 1e-7
SCENARIOS = [Scenario(parties=n, dim=d, settings_per_party=2)
             for n, d in ((2, 3), (3, 2), (3, 3), (4, 2))]


def highs_threshold(tensor) -> float:
    lp = build_threshold_lp(tensor)
    res = linprog(lp.objective, A_eq=lp.eq_matrix, b_eq=lp.eq_rhs,
                  bounds=np.column_stack([lp.lower, lp.upper]), method="highs")
    assert res.status == 0, res.message
    return float(res.fun)


def check_walk(sc, coeffs, tables):
    """Warm values along the walk, then the certified solve at its end."""
    state = PureState(sc, coeffs / np.linalg.norm(coeffs))
    solver = ThresholdSolver(sc)
    for table in tables:
        tensor = correlation_tensor(state, PhaseSettings(sc, table))
        expected = highs_threshold(tensor)
        assert abs(solver.value(tensor) - expected) < TOL
    assert abs(solver.solve(tensor).f_thr - expected) < TOL


@st.composite
def walks(draw):
    """A scenario, real state coefficients, and a short walk of phase tables."""
    sc = draw(st.sampled_from(SCENARIOS))
    coeffs = draw(arrays(float, sc.state_size, elements=st.floats(-1.0, 1.0))
                  .filter(lambda c: np.linalg.norm(c) > 0.1))
    shape = (sc.parties, sc.settings_per_party, sc.dim)
    start = draw(arrays(float, shape, elements=st.floats(0.0, 2.0 * np.pi)))
    scale = draw(st.sampled_from([0.01, 0.3, 3.0]))
    steps = draw(st.lists(arrays(float, shape, elements=st.floats(-scale, scale)),
                          min_size=1, max_size=3))
    return sc, coeffs, list(start + np.cumsum([np.zeros(shape)] + steps, axis=0))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(walks())
def test_warm_and_certified_values_match_highs(walk):
    check_walk(*walk)


@pytest.mark.parametrize("seed", [0, 1])
def test_five_qubit_values_match_highs(seed):
    sc = Scenario(parties=5, dim=2, settings_per_party=2)
    rng = np.random.default_rng(seed)
    start = rng.uniform(0.0, 2.0 * np.pi, size=(5, 2, 2))
    check_walk(sc, rng.normal(size=sc.state_size), [start, start + 0.05, start + 2.0])


def check_cold(tensor, expected=None):
    """A fresh solver's certified solve, which starts from the closed-form basis."""
    f_thr = ThresholdSolver(tensor.scenario).solve(tensor).f_thr
    assert abs(f_thr - highs_threshold(tensor)) < TOL
    if expected is not None:
        assert abs(f_thr - expected) < TOL


@pytest.mark.parametrize("parties, dim", [(2, 2), (2, 3), (3, 3), (4, 2), (5, 2)])
def test_cold_product_state_matches_highs(parties, dim):
    sc = Scenario(parties=parties, dim=dim, settings_per_party=2)
    rng = np.random.default_rng(parties * 10 + dim)
    vectors = rng.normal(size=(parties, dim))
    state = product_state(sc, vectors / np.linalg.norm(vectors, axis=1, keepdims=True))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(parties, 2, dim))
    check_cold(correlation_tensor(state, PhaseSettings(sc, phases)), expected=0.0)


def test_cold_ghz_maxent_anchor_matches_highs():
    sc = Scenario(parties=3, dim=3, settings_per_party=2)
    check_cold(correlation_tensor(ghz_state(sc), paper_settings("maxent_3qutrit")),
               expected=0.4)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cold_five_qubit_values_match_highs(seed):
    sc = Scenario(parties=5, dim=2, settings_per_party=2)
    rng = np.random.default_rng(100 + seed)
    coeffs = rng.normal(size=sc.state_size)
    state = PureState(sc, coeffs / np.linalg.norm(coeffs))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(5, 2, 2))
    check_cold(correlation_tensor(state, PhaseSettings(sc, phases)))


def test_cold_five_qubit_ghz_on_phase_grid_matches_highs():
    # a highly degenerate LP: GHZ with every phase a multiple of pi/3
    sc = Scenario(parties=5, dim=2, settings_per_party=2)
    grid = np.array([[[3, 3], [1, 0]], [[6, 3], [2, 5]], [[0, 6], [1, 6]],
                     [[2, 5], [0, 1]], [[0, 2], [5, 1]]])
    check_cold(correlation_tensor(ghz_state(sc), PhaseSettings(sc, grid * (np.pi / 3))),
               expected=0.2)
