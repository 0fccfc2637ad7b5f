"""Born probabilities: per-party contraction, Kronecker, tensordot and closed-form
cross-checks, the backward pass and its per-scenario plan, noise."""

import numpy as np
import pytest

from lrthresh import (
    CorrelationTensor,
    NegativeProbabilityError,
    PhaseSettings,
    PureState,
    Scenario,
    ScenarioMismatchError,
    correlation_tensor,
    ghz_state,
    paper_settings,
    product_state,
)

from lrthresh.probabilities import (_born_plan, born_probabilities, checked_probabilities,
                                    correlation_tensor_vjp)
from lrthresh.scenario import tritter_unitary

from conftest import (closed_form_probability, kronecker_probabilities, noisy_tensor,
                      tensordot_probabilities, tensordot_vjp)

SCENARIOS = [
    Scenario(parties=2, dim=2, settings_per_party=2),
    Scenario(parties=2, dim=3, settings_per_party=2),
    Scenario(parties=3, dim=2, settings_per_party=2),
    Scenario(parties=3, dim=3, settings_per_party=2),
]
# (parties, dim) pairs the Born layer is checked bit for bit against tensordot
BORN_SIZES = [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (5, 2), (2, 4), (3, 4), (4, 3)]


def random_state(sc, rng):
    c = rng.normal(size=sc.state_size)
    return PureState(sc, c / np.linalg.norm(c))


def random_settings(sc, rng):
    return PhaseSettings(
        sc,
        rng.uniform(0, 2 * np.pi, size=(sc.parties, sc.settings_per_party, sc.dim)),
    )


def test_block_normalization(rng):
    for sc in SCENARIOS:
        for _ in range(5):
            t = correlation_tensor(random_state(sc, rng), random_settings(sc, rng))
            outcome_axes = tuple(range(sc.parties, 2 * sc.parties))
            sums = t.probs.sum(axis=outcome_axes)
            assert np.max(np.abs(sums - 1.0)) < 1e-10


def test_nonnegative_entries(rng):
    sc = SCENARIOS[-1]
    t = correlation_tensor(random_state(sc, rng), random_settings(sc, rng))
    assert t.probs.min() >= 0.0


def test_scenario_mismatch_raises():
    st = ghz_state(SCENARIOS[0])
    se = random_settings(SCENARIOS[1], np.random.default_rng(0))
    with pytest.raises(ScenarioMismatchError):
        correlation_tensor(st, se)


@pytest.mark.parametrize("parties,dim", [(2, 3), (3, 2), (2, 4), (4, 2), (5, 2)])
def test_contraction_matches_kronecker_oracle(parties, dim, rng):
    sc = Scenario(parties=parties, dim=dim, settings_per_party=2)
    for _ in range(5):
        st, se = random_state(sc, rng), random_settings(sc, rng)
        t = correlation_tensor(st, se)
        assert np.max(np.abs(t.probs - kronecker_probabilities(st, se))) < 1e-12


@pytest.mark.parametrize("parties,dim", BORN_SIZES)
def test_contraction_is_bitwise_the_tensordot_contraction(parties, dim, rng):
    sc = Scenario(parties=parties, dim=dim, settings_per_party=2)
    for _ in range(5):
        st, se = random_state(sc, rng), random_settings(sc, rng)
        assert correlation_tensor(st, se).probs.tobytes() == \
            tensordot_probabilities(st, se).tobytes()


@pytest.mark.parametrize("parties,dim", BORN_SIZES)
def test_stacked_contraction_is_bitwise_correlation_tensor(parties, dim, rng):
    sc = Scenario(parties=parties, dim=dim, settings_per_party=2)
    states = [random_state(sc, rng) for _ in range(16)]
    settings = [random_settings(sc, rng) for _ in range(16)]
    coeffs = np.array([st.coeffs for st in states])
    unitaries = tritter_unitary(dim, np.array([se.table for se in settings]))
    stack = checked_probabilities(sc, born_probabilities(coeffs, unitaries))
    for probs, st, se in zip(stack, states, settings):
        assert probs.tobytes() == correlation_tensor(st, se).probs.tobytes()


@pytest.mark.parametrize("parties,dim", [(3, 4), (4, 3)])
def test_vjp_matches_the_tensordot_vjp(parties, dim, rng):
    sc = Scenario(parties=parties, dim=dim, settings_per_party=2)
    for _ in range(3):
        st, se = random_state(sc, rng), random_settings(sc, rng)
        weights = rng.normal(size=sc.marginal_rows)
        table_grad, coeff_grad = correlation_tensor_vjp(st, se, weights)
        want_table, want_coeff = tensordot_vjp(st, se, weights)
        assert table_grad.shape == want_table.shape and coeff_grad.shape == want_coeff.shape
        assert np.max(np.abs(table_grad - want_table)) < 1e-13
        assert np.max(np.abs(coeff_grad - want_coeff)) < 1e-13


@pytest.mark.parametrize("parties,dim", [(2, 3), (3, 3), (4, 2)])
def test_born_plan_is_built_once_and_read_only(parties, dim, rng):
    sc = Scenario(parties=parties, dim=dim, settings_per_party=2)
    plan = _born_plan(sc)
    assert _born_plan(Scenario(parties=parties, dim=dim, settings_per_party=2)) is plan
    for a in plan:
        assert not a.flags.writeable
    n, m, d = sc.parties, sc.settings_per_party, sc.dim
    table = random_settings(sc, rng).table
    total = np.zeros((1,) * (2 * n))
    for p in range(n):  # the phase of ket k_p under setting s_p, on axes (s_1..s_N, k_1..k_N)
        shape = [1] * (2 * n)
        shape[p], shape[n + p] = m, d
        total = total + table[p].reshape(shape)
    summed = plan.incidence @ table.ravel()
    assert summed.shape == (sc.setting_combos * sc.state_size,)
    assert np.max(np.abs(summed - total.ravel())) < 1e-13


@pytest.mark.parametrize("parties,dim", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (2, 4), (5, 2)])
def test_vjp_matches_central_differences(parties, dim, rng):
    sc = Scenario(parties=parties, dim=dim, settings_per_party=2)
    state, settings = random_state(sc, rng), random_settings(sc, rng)
    weights = rng.normal(size=sc.marginal_rows)

    def weighted(table, coeffs):
        return float(weights @ correlation_tensor(PureState(sc, coeffs),
                                                  PhaseSettings(sc, table)).flat)

    table_grad, coeff_grad = correlation_tensor_vjp(state, settings, weights)
    assert table_grad.shape == settings.table.shape
    h = 1e-6
    for idx in np.ndindex(settings.table.shape):
        if idx[2] == 0:
            continue  # the gauge-fixed phase
        step = np.zeros(settings.table.shape)
        step[idx] = h
        fd = (weighted(settings.table + step, state.coeffs)
              - weighted(settings.table - step, state.coeffs)) / (2 * h)
        assert abs(fd - table_grad[idx]) < 1e-7
    # the state moves on the unit sphere: compare along random tangent directions
    psi = state.coeffs
    for _ in range(5):
        tangent = rng.normal(size=psi.size)
        tangent -= psi * (psi @ tangent)
        up, down = psi + h * tangent, psi - h * tangent
        fd = (weighted(settings.table, up / np.linalg.norm(up))
              - weighted(settings.table, down / np.linalg.norm(down))) / (2 * h)
        assert abs(fd - tangent @ coeff_grad) < 1e-7


def test_closed_form_matches_contraction_on_paper_settings():
    sc = Scenario(parties=3, dim=3, settings_per_party=2)
    st = ghz_state(sc)
    se = paper_settings("maxent_3qutrit")
    t = correlation_tensor(st, se)
    for combo in np.ndindex(2, 2, 2):
        for outcomes in np.ndindex(3, 3, 3):
            want = closed_form_probability(st, se, combo, outcomes)
            assert abs(t.probs[combo + outcomes] - want) < 1e-12


def test_closed_form_matches_contraction_randomized(rng):
    sc = Scenario(parties=3, dim=3, settings_per_party=2)
    worst = 0.0
    for _ in range(110):
        st = random_state(sc, rng)
        se = random_settings(sc, rng)
        t = correlation_tensor(st, se)
        combo = tuple(rng.integers(0, 2, size=3))
        for outcomes in np.ndindex(3, 3, 3):
            want = closed_form_probability(st, se, combo, outcomes)
            worst = max(worst, abs(t.probs[combo + outcomes] - want))
    assert worst < 1e-10


def test_closed_form_basic_properties(rng):
    sc = Scenario(parties=3, dim=3, settings_per_party=2)
    st = random_state(sc, rng)
    se = random_settings(sc, rng)
    total = 0.0
    for outcomes in np.ndindex(3, 3, 3):
        v = closed_form_probability(st, se, (0, 1, 0), outcomes)
        assert -1e-12 <= v <= 1.0 + 1e-12
        total += v
    assert abs(total - 1.0) < 1e-10


def test_closed_form_rejects_other_scenarios():
    sc = Scenario(parties=2, dim=3, settings_per_party=2)
    st = ghz_state(sc)
    se = random_settings(sc, np.random.default_rng(1))
    with pytest.raises(ValueError):
        closed_form_probability(st, se, (0, 0, 0), (0, 0, 0))


def test_product_state_probabilities_factor(rng):
    sc = Scenario(parties=2, dim=3, settings_per_party=2)
    v1 = rng.normal(size=3)
    v2 = rng.normal(size=3)
    v1, v2 = v1 / np.linalg.norm(v1), v2 / np.linalg.norm(v2)
    st = product_state(sc, [v1, v2])
    se = random_settings(sc, rng)
    t = correlation_tensor(st, se)

    # per-party single-particle distributions from one-party scenarios
    from lrthresh.scenario import setting_unitaries

    us = setting_unitaries(se)
    for s1 in range(2):
        for s2 in range(2):
            p1 = np.abs(us[0, s1] @ v1) ** 2
            p2 = np.abs(us[1, s2] @ v2) ** 2
            assert np.max(np.abs(t.probs[s1, s2] - np.outer(p1, p2))) < 1e-12


def test_outcome_relabeling_covariance(rng):
    sc = Scenario(parties=3, dim=3, settings_per_party=2)
    st = random_state(sc, rng)
    se = random_settings(sc, rng)
    t = correlation_tensor(st, se)
    perm = np.array([2, 0, 1])
    # permuting party 1's detector rows permutes its outcome axis the same way
    from lrthresh.scenario import setting_unitaries

    us = setting_unitaries(se)
    outcome_axis = sc.parties + 1
    expected = np.take(t.probs, perm, axis=outcome_axis)
    direct = np.empty_like(t.probs)
    psi = st.tensor.astype(complex)
    for combo in np.ndindex(2, 2, 2):
        amp = np.einsum("ag,bi,cj,gij->abc",
                        us[0, combo[0]], us[1, combo[1]][perm], us[2, combo[2]], psi)
        direct[combo] = np.abs(amp) ** 2
    assert np.max(np.abs(expected - direct)) < 1e-12


def test_noisy_tensor_affine(rng):
    sc = Scenario(parties=2, dim=3, settings_per_party=2)
    t = correlation_tensor(random_state(sc, rng), random_settings(sc, rng))
    t0 = noisy_tensor(t, 0.0)
    t1 = noisy_tensor(t, 1.0)
    assert np.array_equal(t0.probs, t.probs)
    assert np.max(np.abs(t1.probs - 1.0 / sc.outcome_combos)) < 1e-15
    for f in (0.2, 0.5, 0.85):
        tf = noisy_tensor(t, f)
        expected = (1 - f) * t0.probs + f * t1.probs
        assert np.max(np.abs(tf.probs - expected)) < 1e-15


def test_noisy_tensor_rejects_bad_fraction(rng):
    sc = Scenario(parties=2, dim=2, settings_per_party=2)
    t = correlation_tensor(ghz_state(sc), random_settings(sc, rng))
    with pytest.raises(ValueError):
        noisy_tensor(t, -0.1)
    with pytest.raises(ValueError):
        noisy_tensor(t, 1.1)


def test_correlation_tensor_clamping():
    sc = Scenario(parties=2, dim=2, settings_per_party=2)
    good = np.full((2, 2, 2, 2), 0.25)
    good[0, 0, 0, 0] = -5e-13
    good[0, 0, 0, 1] = 0.5 + 5e-13
    t = CorrelationTensor(sc, good)
    assert t.probs.min() == 0.0
    bad = np.full((2, 2, 2, 2), 0.25)
    bad[0, 0, 0, 0] = -1e-10
    bad[0, 0, 0, 1] = 0.5 + 1e-10
    with pytest.raises(NegativeProbabilityError):
        CorrelationTensor(sc, bad)


def test_correlation_tensor_shape_and_sum_checks():
    sc = Scenario(parties=2, dim=2, settings_per_party=2)
    with pytest.raises(ValueError):
        CorrelationTensor(sc, np.zeros((2, 2, 2)))
    off = np.full((2, 2, 2, 2), 0.2)
    with pytest.raises(ValueError):
        CorrelationTensor(sc, off)
    for bad in (np.nan, np.inf, -np.inf):
        probs = np.full((2, 2, 2, 2), 0.25)
        probs[1, 0, 1, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            CorrelationTensor(sc, probs)


def test_complex_probabilities_are_accepted_only_with_a_zero_imaginary_part():
    sc = Scenario(parties=2, dim=2, settings_per_party=2)
    probs = np.full((2, 2, 2, 2), 0.25)
    with pytest.raises(ValueError, match="probability entries must be real"):
        CorrelationTensor(sc, probs + 0.1j)
    with pytest.raises(ValueError, match="probability entries must be real"):
        checked_probabilities(sc, np.stack([probs, probs + 0.1j]))
    assert CorrelationTensor(sc, probs + 0j).probs.tobytes() == probs.tobytes()
    stack = np.stack([probs, probs])
    assert checked_probabilities(sc, stack + 0j).tobytes() == stack.tobytes()


# one entry of the middle tensor of a stack of three: below the clamp, a
# setting block off 1, and NaN
FAULTS = {"negative": ((0, 0, 0, 0), -1e-10, NegativeProbabilityError),
          "block-sum": ((1, 0, 0, 0), 0.3, ValueError),
          "nan": ((0, 1, 1, 0), np.nan, ValueError)}


@pytest.mark.parametrize("fault", FAULTS)
def test_stacked_validation_raises_as_correlation_tensor(fault):
    sc = Scenario(parties=2, dim=2, settings_per_party=2)
    index, entry, error = FAULTS[fault]
    stack = np.full((3, 2, 2, 2, 2), 0.25)
    stack[1][index] = entry
    if fault == "negative":
        stack[1][index[:-1] + (1,)] += 1e-10  # the block still sums to 1
    with pytest.raises(error) as stacked:
        checked_probabilities(sc, stack)
    with pytest.raises(error) as single:
        CorrelationTensor(sc, stack[1])
    assert type(stacked.value) is type(single.value) is error
    assert checked_probabilities(sc, stack[[0, 2]]).tobytes() == stack[[0, 2]].tobytes()
