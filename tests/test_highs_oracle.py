"""Differential check of the threshold solver against scipy's bundled HiGHS.

Random real states and phase walks drive the warm ThresholdSolver.value()
re-solves (rank-one column patch, dual repair, primal cleanup) and the
certified solve(); fresh solvers check the cold start from the closed-form
basis, and solve_lp, the general LP entry point, runs on the full LP. Every
value must match HiGHS on build_threshold_lp. The exact bracket
that verify checks must agree with the solver's float certificate, and its
bound must stay below HiGHS's optimum for any dual. At (2,3) a second oracle
of another kind, the closed form over the local polytope's facets, checks
the solver's values too.
"""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lrthresh import (
    CorrelationTensor,
    PhaseSettings,
    PureState,
    Scenario,
    ThresholdSolver,
    build_threshold_lp,
    correlation_tensor,
    ghz_state,
    paper_settings,
    product_state,
    solve_lp,
)
from lrthresh.simplex import certified_lower_bound
from lrthresh.threshold import _FacetThreshold, _bell_facet_rows, exact_bracket, witness_residual

from conftest import highs_lp, noisy_tensor

TOL = 1e-7
SCENARIOS = [Scenario(parties=n, dim=d, settings_per_party=2)
             for n, d in ((2, 3), (3, 2), (3, 3), (4, 2))]


def highs_threshold(tensor) -> float:
    res = highs_lp(build_threshold_lp(tensor))
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


@pytest.mark.parametrize("state, seed", [("ghz", 1), ("ghz", 2), ("random", 3)])
def test_cold_three_ququart_solves_match_highs(state, seed):
    # 343 kept rows, so the closed-form start's dual run picks its leaving
    # rows by dual steepest edge; by the largest violation GHZ at seed 1 ran
    # into the 409,700-pivot limit after about 48 s
    sc = Scenario(parties=3, dim=4, settings_per_party=2)
    rng = np.random.default_rng(seed)
    phases = PhaseSettings(sc, rng.uniform(0.0, 2.0 * np.pi, size=(3, 2, 4)))
    if state == "ghz":
        psi = ghz_state(sc)
    else:
        coeffs = rng.normal(size=sc.state_size)
        psi = PureState(sc, coeffs / np.linalg.norm(coeffs))
    tensor = correlation_tensor(psi, phases)
    began = time.perf_counter()
    result = ThresholdSolver(sc).solve(tensor)
    elapsed = time.perf_counter() - began
    assert result.solver_stats["cold_start_rule"] == "dual_steepest_edge"
    assert abs(result.f_thr - highs_threshold(tensor)) < 1e-9
    assert elapsed < 5.0


@pytest.mark.parametrize("parties, dim", [(2, 3), (3, 2), (4, 2), (3, 3), (5, 2)])
def test_solve_lp_matches_highs(parties, dim):
    # every row of the full LP, dependent ones included, and a start from the
    # row elimination's pivot columns instead of the closed-form basis
    sc = Scenario(parties=parties, dim=dim, settings_per_party=2)
    rng = np.random.default_rng(parties * 10 + dim + 1)
    for k in range(5):
        coeffs = rng.normal(size=sc.state_size)
        state = ghz_state(sc) if k % 2 == 0 else PureState(sc, coeffs / np.linalg.norm(coeffs))
        phases = rng.uniform(0.0, 2.0 * np.pi, size=(parties, 2, dim))
        tensor = correlation_tensor(state, PhaseSettings(sc, phases))
        lp = build_threshold_lp(tensor)
        sol = solve_lp(lp)
        assert sol.status == "optimal"
        assert abs(sol.objective_value - highs_threshold(tensor)) < 1e-9
        assert sol.objective_value - certified_lower_bound(lp, sol.dual) < 1e-9


@pytest.mark.parametrize("parties, dim", [(2, 3), (3, 3), (4, 2), (5, 2)])
def test_exact_bracket_matches_float_certificate(parties, dim):
    sc = Scenario(parties=parties, dim=dim, settings_per_party=2)
    rng = np.random.default_rng(parties * 10 + dim)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(parties, 2, dim))
    tensor = correlation_tensor(ghz_state(sc), PhaseSettings(sc, phases))
    res = ThresholdSolver(sc).solve(tensor)
    assert res.f_thr > 0.01  # a dual that is not all zero
    dual = np.asarray(res.certificate["dual"])
    weights = np.asarray(res.witness.weights)
    bound, marginal, norm = exact_bracket(tensor, dual, weights, res.f_thr)
    assert abs(bound - certified_lower_bound(build_threshold_lp(tensor), dual)) < 1e-12
    assert abs(bound - res.certificate["lower_bound"]) < 1e-12
    float_marginal, float_norm = witness_residual(tensor, res.f_thr, weights)
    assert abs(marginal - float_marginal) < 1e-12
    assert abs(norm - float_norm) < 1e-12
    assert res.f_thr - bound <= 1e-8


@pytest.mark.parametrize("sc", SCENARIOS, ids=str)
def test_exact_bound_of_any_dual_stays_below_highs(sc):
    # weak duality holds for every dual vector, including ones with weight on
    # the rows the solver drops and on the normalization row
    rng = np.random.default_rng(sc.parties * 10 + sc.dim)
    coeffs = rng.normal(size=sc.state_size)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(sc.parties, 2, sc.dim))
    tensor = correlation_tensor(PureState(sc, coeffs / np.linalg.norm(coeffs)),
                                PhaseSettings(sc, phases))
    optimum = highs_threshold(tensor)
    certified = np.asarray(ThresholdSolver(sc).solve(tensor).certificate["dual"])
    weights = np.full(sc.joint_size, 1.0 / sc.joint_size)
    for scale in (1e-9, 1e-6, 1e-3, 1.0):
        for _ in range(5):
            dual = certified + scale * rng.normal(size=certified.size)
            bound, _, _ = exact_bracket(tensor, dual, weights, optimum)
            assert bound <= optimum + 1e-12
    bound, _, _ = exact_bracket(tensor, rng.normal(size=certified.size), weights, optimum)
    assert bound <= optimum + 1e-12


SC23 = Scenario(parties=2, dim=3, settings_per_party=2)


def born_tensors(sc, count, key):
    """Seeded Born tensors of random real states under uniformly random phases."""
    rng = np.random.Generator(np.random.Philox(key=np.array(key, dtype=np.uint64)))
    for _ in range(count):
        coeffs = rng.normal(size=sc.state_size)
        phases = rng.uniform(0.0, 2.0 * np.pi, size=(sc.parties, 2, sc.dim))
        yield correlation_tensor(PureState(sc, coeffs / np.linalg.norm(coeffs)),
                                 PhaseSettings(sc, phases))


def test_facet_form_matches_warm_values_at_two_qutrits():
    solver, facets = ThresholdSolver(SC23), _FacetThreshold(SC23)
    values = np.array([(solver.value(t), facets.value(t))
                       for t in born_tensors(SC23, 3000, (11, 0))])
    assert np.max(np.abs(values[:, 0] - values[:, 1])) < 1e-12
    off = values[:, 1] > 0.0
    assert 20 < off.sum() < 300  # most Born tensors at (2,3) are local


def test_facet_form_matches_on_and_beyond_a_facet():
    solver, facets = ThresholdSolver(SC23), _FacetThreshold(SC23)
    nonlocal_tensors = [t for t in born_tensors(SC23, 600, (11, 1)) if facets.value(t) > 1e-3]
    assert len(nonlocal_tensors) >= 5
    for tensor in nonlocal_tensors:
        f_thr = facets.value(tensor)
        # at its threshold the noisy tensor sits on the facet; half way it is still outside
        for noisy in (noisy_tensor(tensor, f_thr), noisy_tensor(tensor, f_thr / 2)):
            assert abs(solver.value(noisy) - facets.value(noisy)) < 1e-12
        assert abs(facets.value(noisy_tensor(tensor, f_thr))) < 1e-12


def test_facet_form_matches_at_a_two_facet_tie():
    # GHZ under the CGLMP settings, mixed evenly with its image under a swap
    # of two of Alice's setting-0 outcomes. The swap leaves the mixture as it
    # is and pairs the facets, so a facet and its image tie there; at least
    # two facets set the threshold
    alpha = np.array([[0.0, 0.5], [0.25, -0.25]])
    settings = PhaseSettings(SC23, 2 * np.pi * alpha[:, :, None] * np.arange(3) / 3)
    probs = correlation_tensor(ghz_state(SC23), settings).probs
    swapped = probs.copy()
    swapped[0] = probs[0][:, [1, 0, 2]]
    tensor = CorrelationTensor(SC23, (probs + swapped) / 2)
    facets = _bell_facet_rows(3)
    cp = facets @ tensor.flat
    noise = facets.sum(axis=1) / 9.0
    violated = cp > 2.0
    ratios = (cp[violated] - 2.0) / (cp[violated] - noise[violated])
    assert np.sum(ratios > ratios.max() - 1e-12) >= 2
    value = _FacetThreshold(SC23).value(tensor)
    assert value > 0.01
    assert abs(value - ThresholdSolver(SC23).value(tensor)) < 1e-12
    assert abs(value - highs_threshold(tensor)) < TOL
