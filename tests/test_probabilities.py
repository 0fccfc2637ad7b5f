"""Born probabilities: contraction path, closed-form cross-check, noise."""

import numpy as np
import pytest

from lrthresh import (
    CorrelationTensor,
    NegativeProbabilityError,
    PhaseSettings,
    PureState,
    Scenario,
    ScenarioMismatchError,
    UnsupportedScenarioError,
    correlation_tensor,
    ghz_state,
    noisy_tensor,
    paper_settings,
    product_state,
)

from conftest import closed_form_probability

SCENARIOS = [
    Scenario(parties=2, dim=2, settings_per_party=2),
    Scenario(parties=2, dim=3, settings_per_party=2),
    Scenario(parties=3, dim=2, settings_per_party=2),
    Scenario(parties=3, dim=3, settings_per_party=2),
]


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
    with pytest.raises(UnsupportedScenarioError):
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
