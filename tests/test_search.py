"""Parameter encoding, Nelder-Mead, and the multi-start threshold maximizer."""

import numpy as np
import pytest

from lrthresh import (
    InvalidParameterError,
    OptimizationConfig,
    ParameterVector,
    PhaseSettings,
    PureState,
    Scenario,
    encode,
    ghz_state,
    nelder_mead,
    optimize_phases,
    optimize_state_and_phases,
    paper_settings,
    product_state,
    threshold,
)

SC33 = Scenario(parties=3, dim=3, settings_per_party=2)
SC23 = Scenario(parties=2, dim=3, settings_per_party=2)

QUICK = OptimizationConfig(restarts=4, rng_seed=7, max_evals_per_restart=80,
                           mode="phases_only")


def test_encode_decode_round_trip(rng):
    se = PhaseSettings(SC33, rng.uniform(0, 2 * np.pi, size=(3, 2, 3)))
    st = PureState(SC33, (lambda c: c / np.linalg.norm(c))(rng.normal(size=27)))
    params = encode(se, st)
    back_se = params.decode_settings()
    back_st = params.decode_state()
    assert np.max(np.abs(back_se.table - se.table)) < 1e-12
    assert np.max(np.abs(back_st.coeffs - st.coeffs)) < 1e-12
    assert abs(np.linalg.norm(back_st.coeffs) - 1.0) < 1e-12


def test_decode_state_normalizes(rng):
    se = PhaseSettings(SC23, np.zeros((2, 2, 3)))
    params = ParameterVector(SC23, encode(se).phase_params,
                             state_params=np.array([3.0, 0, 0, 0, 4.0, 0, 0, 0, 0]))
    st = params.decode_state()
    assert abs(np.linalg.norm(st.coeffs) - 1.0) < 1e-12
    assert abs(st.coeffs[0] - 0.6) < 1e-12


def test_parameter_vector_validation():
    with pytest.raises(InvalidParameterError):
        ParameterVector(SC23, np.zeros(5))  # wrong phase length
    with pytest.raises(InvalidParameterError):
        ParameterVector(SC23, np.zeros(8), state_params=np.zeros(4))
    # a zero coefficient vector survives construction but cannot decode
    with pytest.raises(InvalidParameterError):
        ParameterVector(SC23, np.zeros(8), state_params=np.zeros(9)).decode_state()


def test_objective_benchmarks():
    params = encode(paper_settings("maxent_3qutrit"))
    val = threshold(ghz_state(SC33), params.decode_settings()).f_thr
    assert abs(val - 0.400) < 0.001

    sc = SC33
    st = product_state(sc, [[1, 0, 0]] * 3)
    zero = PhaseSettings(sc, np.zeros((3, 2, 3)))
    assert threshold(st, encode(zero).decode_settings()).f_thr < 1e-9


def test_objective_continuity(rng):
    base = encode(paper_settings("maxent_3qutrit"))
    ref = threshold(ghz_state(SC33), base.decode_settings()).f_thr
    bumped = ParameterVector(
        SC33, base.phase_params + rng.uniform(-1e-6, 1e-6, size=base.phase_params.size)
    )
    assert abs(threshold(ghz_state(SC33), bumped.decode_settings()).f_thr - ref) < 1e-3


def test_gauge_invariance_of_objective(rng):
    se = PhaseSettings(SC23, rng.uniform(0, 2 * np.pi, size=(2, 2, 3)))
    st = ghz_state(SC23)
    ref = threshold(st, encode(se).decode_settings()).f_thr
    table = se.table.copy()
    table[1, 0] = table[1, 0] + 1.234  # uniform pre-gauge shift of one phase vector
    shifted = PhaseSettings(SC23, table)
    assert abs(threshold(st, encode(shifted).decode_settings()).f_thr - ref) < 1e-9


def test_nelder_mead_smooth_unimodal():
    sc = SC23
    start = ParameterVector(sc, np.full(8, 2.0))
    cfg = OptimizationConfig(restarts=1, rng_seed=0, max_evals_per_restart=4000,
                             convergence_tol=1e-10, mode="phases_only")

    def f(p):
        return -float(np.sum(p.phase_params ** 2))

    best, val = nelder_mead(f, start, cfg)
    assert np.max(np.abs(best.phase_params)) < 1e-3
    assert val > -1e-5


def test_nelder_mead_constant_terminates_fast():
    start = ParameterVector(SC23, np.zeros(8))
    cfg = OptimizationConfig(restarts=1, rng_seed=0, max_evals_per_restart=5000,
                             mode="phases_only")
    calls = []

    def f(p):
        calls.append(1)
        return 1.5

    best, val = nelder_mead(f, start, cfg)
    assert val == 1.5
    assert len(calls) <= 20  # spread criterion fires on the first sweep


def test_nelder_mead_monotone_from_paper_start():
    start = encode(paper_settings("maxent_3qutrit"))
    st = ghz_state(SC33)
    cfg = OptimizationConfig(restarts=1, rng_seed=0, max_evals_per_restart=60,
                             mode="phases_only")
    f0 = threshold(st, start.decode_settings()).f_thr
    _, val = nelder_mead(lambda p: threshold(st, p.decode_settings()).f_thr, start, cfg)
    assert val >= f0 - 1e-12


def test_optimize_config_validation():
    with pytest.raises(ValueError):
        OptimizationConfig(restarts=0)
    with pytest.raises(ValueError):
        OptimizationConfig(convergence_tol=2.0)
    with pytest.raises(ValueError):
        OptimizationConfig(mode="nope")


def test_optimize_phases_deterministic_bitwise():
    st = ghz_state(SC23)
    a = optimize_phases(st, QUICK)
    b = optimize_phases(st, QUICK)
    assert a.best_f_thr == b.best_f_thr
    assert a.per_restart_log == b.per_restart_log
    assert np.array_equal(a.best_settings.table, b.best_settings.table)
    assert np.array_equal(a.best_state.coeffs, b.best_state.coeffs)


def test_optimize_workers_match_serial():
    st = ghz_state(SC23)
    serial = optimize_phases(st, QUICK, workers=1)
    pooled = optimize_phases(st, QUICK, workers=2)
    assert serial.best_f_thr == pooled.best_f_thr
    assert serial.per_restart_log == pooled.per_restart_log


def test_restart_aggregation_monotone():
    st = ghz_state(SC23)
    small = optimize_phases(
        st, OptimizationConfig(restarts=2, rng_seed=7, max_evals_per_restart=80,
                               mode="phases_only"))
    large = optimize_phases(
        st, OptimizationConfig(restarts=5, rng_seed=7, max_evals_per_restart=80,
                               mode="phases_only"))
    # restart streams are keyed by index, so the first two logs coincide
    assert large.per_restart_log[:2] == small.per_restart_log[:2]
    assert large.best_f_thr >= small.best_f_thr - 1e-12
    log_best = max(v for _, v in large.per_restart_log)
    assert abs(large.best_f_thr - log_best) < 1e-6


def test_injected_restart_starts_at_paper_phases():
    st = ghz_state(SC33)
    cfg = OptimizationConfig(restarts=1, rng_seed=3, max_evals_per_restart=40,
                             mode="phases_only")
    res = optimize_phases(st, cfg)
    # restart 0 is seeded with the bundled phase table, so it can never fall
    # below that table's threshold
    assert res.per_restart_log[0][1] >= 0.400 - 1e-3


def test_reevaluation_consistency():
    st = ghz_state(SC23)
    res = optimize_phases(st, QUICK)
    fresh = threshold(res.best_state, res.best_settings).f_thr
    assert abs(res.best_f_thr - fresh) < 1e-6


def test_sign_canonicalization(rng):
    cfg = OptimizationConfig(restarts=2, rng_seed=5, max_evals_per_restart=60,
                             mode="phases_and_state")
    res = optimize_state_and_phases(SC23, cfg)
    coeffs = res.best_state.coeffs
    assert coeffs[int(np.argmax(np.abs(coeffs)))] > 0


def test_mode_mismatch_rejected():
    st = ghz_state(SC23)
    with pytest.raises(ValueError):
        optimize_phases(st, OptimizationConfig(mode="phases_and_state"))
    with pytest.raises(ValueError):
        optimize_state_and_phases(SC23, OptimizationConfig(mode="phases_only"))
