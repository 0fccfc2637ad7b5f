"""Parameter encoding, the restart search, and the multi-start threshold maximizer."""

import numpy as np
import pytest

from lrthresh import (
    InvalidParameterError,
    OptimizationConfig,
    ParameterVector,
    PhaseSettings,
    PureState,
    Scenario,
    ThresholdSolver,
    encode,
    ghz_state,
    optimize_phases,
    optimize_state_and_phases,
    paper_settings,
    product_state,
    search,
    threshold,
)
from lrthresh.search import nelder_mead

SC33 = Scenario(parties=3, dim=3, settings_per_party=2)
SC23 = Scenario(parties=2, dim=3, settings_per_party=2)
SC32 = Scenario(parties=3, dim=2, settings_per_party=2)

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


def test_nelder_mead_smooth_unimodal(monkeypatch):
    sc = SC23
    start = ParameterVector(sc, np.full(8, 2.0))
    cfg = OptimizationConfig(restarts=1, rng_seed=0, max_evals_per_restart=4000,
                             mode="phases_only")
    monkeypatch.setattr(search, "CONVERGENCE_TOL", 1e-10)

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
        OptimizationConfig(mode="nope")
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match=str(seed)):
            OptimizationConfig(rng_seed=seed)
    OptimizationConfig(rng_seed=2**64 - 1)


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


def test_joint_optimize_workers_match_serial():
    cfg = OptimizationConfig(restarts=4, rng_seed=7, max_evals_per_restart=120,
                             mode="phases_and_state")
    serial = optimize_state_and_phases(SC23, cfg, workers=1)
    pooled = optimize_state_and_phases(SC23, cfg, workers=2)
    assert serial.best_f_thr == pooled.best_f_thr
    assert serial.per_restart_log == pooled.per_restart_log
    assert serial.best_settings.table.tobytes() == pooled.best_settings.table.tobytes()
    assert serial.best_state.coeffs.tobytes() == pooled.best_state.coeffs.tobytes()


@pytest.mark.parametrize("workers", [0, -1])
def test_optimize_rejects_fewer_than_one_worker(workers):
    with pytest.raises(ValueError, match="workers"):
        optimize_phases(ghz_state(SC23), QUICK, workers=workers)


def test_pool_is_no_larger_than_the_restart_count(monkeypatch):
    sizes = []

    class SerialPool:
        """Stands in for ProcessPoolExecutor: records its size, maps in-process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(search, "ProcessPoolExecutor", SerialPool)
    st = ghz_state(SC23)
    serial = optimize_phases(st, QUICK, workers=1)
    assert sizes == []  # one worker runs in-process
    pooled = optimize_phases(st, QUICK, workers=64)
    assert sizes == [QUICK.restarts]
    assert pooled.per_restart_log == serial.per_restart_log


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


def _point_off_plateau(sc, rng, objective):
    """A seeded random (phases, state) point with threshold above 0.01."""
    for _ in range(50):
        phases = rng.uniform(0, 2 * np.pi, size=sc.parties * sc.settings_per_party * (sc.dim - 1))
        coeffs = ghz_state(sc).coeffs + 0.2 * rng.normal(size=sc.state_size)
        params = ParameterVector(sc, phases, coeffs)
        if objective(params) > 0.01:
            return params
    raise AssertionError("no random point off the plateau")


@pytest.mark.parametrize("sc", [SC33, SC23, SC32], ids=["n3d3", "n2d3", "n3d2"])
def test_polish_gradient_matches_central_differences(rng, sc):
    objective, gradient = search._objectives(ThresholdSolver(sc), None)
    params = _point_off_plateau(sc, rng, objective)
    grad = gradient(params)
    x = params.flat()
    h = 1e-6
    fd = np.empty_like(x)
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = h
        fd[i] = (objective(params.with_flat(x + step))
                 - objective(params.with_flat(x - step))) / (2 * h)
    assert grad.shape == x.shape
    assert np.max(np.abs(grad - fd)) < 1e-6


def test_pinned_state_gradient_is_the_phase_block(rng):
    solver = ThresholdSolver(SC33)
    objective, gradient = search._objectives(solver, None)
    params = _point_off_plateau(SC33, rng, objective)
    joint = gradient(params)
    objective, gradient = search._objectives(solver, params.decode_state())
    phases = ParameterVector(SC33, params.phase_params)
    objective(phases)
    assert np.allclose(gradient(phases), joint[:phases.phase_params.size], rtol=0, atol=1e-9)


def test_polish_keeps_the_endpoint_when_no_step_ascends():
    start = ParameterVector(SC23, np.ones(8))

    def objective(p):
        return -float(np.sum(p.phase_params ** 2))

    def downhill(p):
        return 2.0 * p.phase_params  # points away from the ascent direction

    params, value, evals = search._polish(objective, downhill, start, -8.0, budget=50)
    assert params is start and value == -8.0
    assert evals <= 50


def test_polish_climbs_a_concave_quadratic():
    weights = np.arange(1, 9) / 4.0
    peak = np.linspace(0.5, 2.0, 8)
    start = ParameterVector(SC23, np.zeros(8))

    def objective(p):
        return -float(np.sum(weights * (p.phase_params - peak) ** 2))

    def exact(p):
        return -2.0 * weights * (p.phase_params - peak)

    params, value, evals = search._polish(objective, exact, start, objective(start), budget=200)
    assert value > -1e-6
    assert np.max(np.abs(params.phase_params - peak)) < 1e-3
    assert evals < 200


def test_polish_never_lowers_a_restart(monkeypatch):
    cfg = OptimizationConfig(restarts=4, rng_seed=7, max_evals_per_restart=200,
                             mode="phases_and_state")
    polished = optimize_state_and_phases(SC23, cfg)
    monkeypatch.setattr(search, "_polish",
                        lambda objective, gradient, params, value, budget: (params, value, 0))
    plain = optimize_state_and_phases(SC23, cfg)
    pairs = list(zip(polished.per_restart_log, plain.per_restart_log))
    assert all(a >= b for (_, a), (_, b) in pairs)
    assert any(a > b + 1e-6 for (_, a), (_, b) in pairs)
    assert polished.best_f_thr >= plain.best_f_thr


# at (3,2) with 40 and (3,3) with 90 evaluations the cap cuts the polish short
@pytest.mark.parametrize("sc, cap", [(SC23, 30), (SC32, 40), (SC33, 90), (SC33, 150)],
                         ids=["n2d3-30", "n3d2-40", "n3d3-90", "n3d3-150"])
def test_restart_evaluations_stay_within_the_cap(monkeypatch, sc, cap):
    calls = []
    original = ThresholdSolver.value

    def counted(self, tensor):
        calls.append(1)
        return original(self, tensor)

    monkeypatch.setattr(ThresholdSolver, "value", counted)
    cfg = OptimizationConfig(restarts=3, rng_seed=5, max_evals_per_restart=cap,
                             mode="phases_and_state")
    for index in range(3):
        calls.clear()
        _, _, _, _, spent = search._run_restart((sc, cfg, index, None, None))
        assert spent == len(calls) <= cap


def test_flat_restart_redraws_without_polish(monkeypatch):
    state = product_state(SC23, [[1, 0, 0], [0, 1, 0]])  # threshold 0 under any phases
    values = []
    original = ThresholdSolver.value

    def counted(self, tensor):
        values.append(original(self, tensor))
        return values[-1]

    def never(*args):
        raise AssertionError("a flat restart must neither run Nelder-Mead nor polish")

    monkeypatch.setattr(ThresholdSolver, "value", counted)
    monkeypatch.setattr(search, "nelder_mead", never)
    monkeypatch.setattr(search, "_polish", never)
    cfg = OptimizationConfig(restarts=1, rng_seed=0, max_evals_per_restart=80,
                             mode="phases_only")
    _, value, _, _, spent = search._run_restart((SC23, cfg, 0, state.coeffs.real, None))
    assert value < 1e-9
    assert spent == 80
    # one solve per draw: the start and 79 redraws, each on the plateau
    assert len(values) == 80
    assert max(values) <= search.FLAT_VALUE


# command 13 of the optimize_joint_23 benchmark's seed-1 stream: two of its
# four restarts draw flat starts before they leave the plateau
JOINT23 = OptimizationConfig(restarts=4, rng_seed=1777477784, max_evals_per_restart=500,
                             mode="phases_and_state")


def test_ascent_starts_at_the_first_draw_off_the_plateau(monkeypatch):
    values, draws, ascents = [], [], []
    original_value = ThresholdSolver.value
    original_start = search._restart_start
    original_polish = search._polish

    def counted_value(self, tensor):
        values.append(original_value(self, tensor))
        return values[-1]

    def counted_start(*args):
        draws.append(len(values))
        return original_start(*args)

    def watched(objective, gradient, params, value, budget):
        solves = len(values)
        outcome = original_polish(objective, gradient, params, value, budget)
        exact = threshold(params.decode_state(), params.decode_settings()).f_thr
        ascents.append((solves, value, exact, outcome[2]))
        return outcome

    monkeypatch.setattr(ThresholdSolver, "value", counted_value)
    monkeypatch.setattr(search, "_restart_start", counted_start)
    monkeypatch.setattr(search, "_polish", watched)
    flat_draws = 0
    for index in range(JOINT23.restarts):
        values.clear()
        draws.clear()
        ascents.clear()
        _, _, _, _, spent = search._run_restart((SC23, JOINT23, index, None, None))
        assert len(ascents) == 1
        solves, start_value, exact, ascent_evals = ascents[0]
        # the ascent starts from the last draw, the only one off the plateau
        assert draws == list(range(solves))
        assert start_value == values[solves - 1] > search.FLAT_VALUE
        assert abs(start_value - exact) < 1e-9
        assert max(values[:solves - 1], default=0.0) <= search.FLAT_VALUE
        # that draw is solved once: the ascent's evaluations are its own steps
        assert spent == solves + ascent_evals == len(values)
        flat_draws += solves - 1
    assert flat_draws > 0


def test_joint_search_leaves_the_plateau_on_every_restart():
    result = optimize_state_and_phases(SC23, JOINT23)
    assert result.best_f_thr >= 0.3178
    assert all(value > search.FLAT_VALUE for _, value in result.per_restart_log)
