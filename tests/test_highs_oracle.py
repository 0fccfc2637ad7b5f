"""Differential check of the threshold solver against scipy's bundled HiGHS.

Random real states and phase walks drive the warm ThresholdSolver.value()
re-solves (rank-one column patch, dual repair, primal cleanup) and the
certified solve(); every value must match HiGHS on build_threshold_lp.
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
