"""Parameter encoding, the restart search, and the multi-start threshold maximizer."""

import time
import warnings
from collections import Counter

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
    correlation_tensor,
    encode,
    ghz_state,
    optimize_phases,
    optimize_state_and_phases,
    paper_settings,
    probabilities,
    product_state,
    search,
    threshold,
)
from lrthresh.probabilities import correlation_tensor_vjp
from lrthresh.search import nelder_mead
from lrthresh.threshold import _FacetThreshold

from conftest import lifted_facet_bound, noisy_tensor

SC33 = Scenario(parties=3, dim=3, settings_per_party=2)
SC23 = Scenario(parties=2, dim=3, settings_per_party=2)
SC32 = Scenario(parties=3, dim=2, settings_per_party=2)
SC24 = Scenario(parties=2, dim=4, settings_per_party=2)
SC42 = Scenario(parties=4, dim=2, settings_per_party=2)
SC22 = Scenario(parties=2, dim=2, settings_per_party=2)

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


def test_complex_coordinates_are_accepted_only_with_a_zero_imaginary_part():
    with pytest.raises(InvalidParameterError, match="phase parameters must be real"):
        ParameterVector(SC22, np.zeros(4) + 0.5j)
    coeffs = ghz_state(SC22).coeffs
    with pytest.raises(InvalidParameterError, match="state parameters must be real"):
        ParameterVector(SC22, np.zeros(4), coeffs * np.exp(0.3j))
    phases = np.linspace(0.0, 1.0, 4)
    params = ParameterVector(SC22, phases + 0j, coeffs + 0j)
    assert params.phase_params.tobytes() == phases.tobytes()
    assert params.state_params.tobytes() == coeffs.tobytes()
    assert params.with_flat(params.flat() + 0j).flat().tobytes() == params.flat().tobytes()


# (coordinate block, index in it, value): an inf phase, a NaN and an inf state entry
NONFINITE = [("phase", 3, np.inf), ("state", 0, np.nan), ("state", 4, np.inf)]


@pytest.mark.parametrize("block, index, bad", NONFINITE, ids=["inf-phase", "nan-state",
                                                              "inf-state"])
def test_nonfinite_coordinates_are_invalid_parameters(block, index, bad):
    phases, coeffs = np.ones(8), ghz_state(SC23).coeffs.copy()
    (phases if block == "phase" else coeffs)[index] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning on the way
        with pytest.raises(InvalidParameterError, match="finite"):
            ParameterVector(SC23, phases, coeffs)


def on_one_point(f, grad, start):
    """f and its gradient as _polish takes them: a block evaluator, and the gradient it leaves.

    evaluate(rows) values a block of one row by f, and gradient() is grad at
    the latest row valued (start before the first).
    """
    last = [start]

    def evaluate(rows):
        assert rows.shape == (1, start.size)  # every ascent step is a block of one
        last[0] = rows[0]
        return 0, f(rows[0])

    return evaluate, lambda: grad(last[0])


def scalar(evaluate):
    """The value of a restart's evaluator at one point, valued as a block of one."""
    return lambda x: evaluate(x[np.newaxis])[1]


def test_ascent_backtracks_from_a_nonfinite_step(rng):
    evaluate, _ = search._evaluator(_FacetThreshold(SC23), None)
    start = _point_off_plateau(SC23, rng, scalar(evaluate))
    value = scalar(evaluate)(start)
    seen = []

    def watched(rows):
        seen.append(rows)
        return evaluate(rows)

    def infinite():
        grad = np.zeros(start.size)
        grad[0] = np.inf
        return grad

    x, got, evals = search._polish(watched, infinite, start, value, budget=12)
    # no step is formed along a non-finite gradient: the ascent ends at once
    assert x is start and got == value and evals == 0
    assert seen == []


def test_a_nonfinite_trial_point_is_one_evaluation_and_halves_its_step():
    start = np.full(8, 1e308)
    seen = []

    def below_the_start(x):
        seen.append(x)
        return -1.0  # every trial that is evaluated is rejected

    evaluate, gradient = on_one_point(below_the_start, lambda x: np.full(x.size, 1e308), start)
    with np.errstate(over="ignore"):
        x, value, evals = search._polish(evaluate, gradient, start, 0.0, budget=3)
    # the full step overflows: it costs an evaluation and is halved unevaluated,
    # and the two shorter steps are evaluated
    assert x is start and value == 0.0 and evals == 3
    assert len(seen) == 2
    assert np.array_equal(seen[0], start + 0.5 * np.full(8, 1e308))
    assert np.array_equal(seen[1], start + 0.25 * np.full(8, 1e308))


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
    # at (3,3) the bundled starts take restarts 0-2 and restart 3 draws its
    # start, so the pool runs the lifted-facet screen as well as the bundled paths
    for sc, budget in ((SC23, 120), (SC33, 60)):
        cfg = OptimizationConfig(restarts=4, rng_seed=7, max_evals_per_restart=budget,
                                 mode="phases_and_state")
        serial = optimize_state_and_phases(sc, cfg, workers=1)
        pooled = optimize_state_and_phases(sc, cfg, workers=2)
        assert serial.best_f_thr == pooled.best_f_thr
        assert serial.evals == pooled.evals
        assert (np.array(serial.per_restart_log).tobytes()
                == np.array(pooled.per_restart_log).tobytes())
        assert serial.best_settings.table.tobytes() == pooled.best_settings.table.tobytes()
        assert serial.best_state.coeffs.tobytes() == pooled.best_state.coeffs.tobytes()
    # at (3,3) the certified solve starts from the basis the best restart
    # returned, so the pooled certificate must match the serial one byte for byte
    ours, theirs = serial.certified, pooled.certified
    assert ours.solver_stats["warm_start"] and theirs.solver_stats["warm_start"]
    assert ours.f_thr == theirs.f_thr
    assert ours.witness.weights.tobytes() == theirs.witness.weights.tobytes()
    assert ours.certificate["dual"].tobytes() == theirs.certificate["dual"].tobytes()
    assert ours.solver_stats["iterations"] == theirs.solver_stats["iterations"]


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
    """A seeded random flat (phases, state) point with threshold above 0.01, the last one valued."""
    for _ in range(50):
        phases = rng.uniform(0, 2 * np.pi, size=sc.parties * sc.settings_per_party * (sc.dim - 1))
        coeffs = ghz_state(sc).coeffs + 0.2 * rng.normal(size=sc.state_size)
        x = np.concatenate([phases, coeffs])
        if objective(x) > 0.01:
            return x
    raise AssertionError("no random point off the plateau")


def check_gradient(sc, rng, solver):
    """The restart's exact gradient against central differences of its evaluator."""
    evaluate, gradient = search._evaluator(solver, None)
    objective = scalar(evaluate)
    x = _point_off_plateau(sc, rng, objective)
    grad = gradient()
    h = 1e-6
    fd = np.empty_like(x)
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = h
        fd[i] = (objective(x + step) - objective(x - step)) / (2 * h)
    assert grad.shape == x.shape
    assert np.max(np.abs(grad - fd)) < 1e-6


@pytest.mark.parametrize("sc", [SC33, SC23, SC32], ids=["n3d3", "n2d3", "n3d2"])
def test_polish_gradient_matches_central_differences(rng, sc):
    check_gradient(sc, rng, ThresholdSolver(sc))


@pytest.mark.parametrize("sc", [SC23, SC22], ids=["n2d3", "n2d2"])
def test_facet_gradient_matches_central_differences(rng, sc):
    check_gradient(sc, rng, _FacetThreshold(sc))


def test_pinned_state_gradient_is_the_phase_block(rng):
    solver = ThresholdSolver(SC33)
    evaluate, gradient = search._evaluator(solver, None)
    x = _point_off_plateau(SC33, rng, scalar(evaluate))
    joint = gradient()
    size = x.size - SC33.state_size
    pinned = ParameterVector(SC33, x[:size], x[size:]).decode_state()
    evaluate, gradient = search._evaluator(solver, pinned.coeffs)
    evaluate(x[np.newaxis, :size])  # a pinned state's rows are its phases
    assert np.allclose(gradient(), joint[:size], rtol=0, atol=1e-9)


def count_decodes(monkeypatch) -> list:
    """Record the number of rows of every search._decode_rows call."""
    calls = []
    original = search._decode_rows

    def counted(sc, pinned, rows):
        calls.append(len(rows))
        return original(sc, pinned, rows)

    monkeypatch.setattr(search, "_decode_rows", counted)
    return calls


def pulled_back(params, settings, state, weights):
    """dF/dx by the public dataclasses: the VJP at the decoded point, then the decoding's Jacobian.

    The gauge-fixed phases drop out, and the state part passes through the
    normalization s -> s/|s|, whose Jacobian is (I - psi psi^T)/|s|.
    """
    table_grad, coeff_grad = correlation_tensor_vjp(params.scenario, settings.table,
                                                    state.coeffs, weights)
    phase = table_grad[:, :, 1:].ravel()
    if params.state_params is None:
        return phase
    psi = state.coeffs
    norm = float(np.linalg.norm(params.state_params))
    return np.concatenate([phase, (coeff_grad - psi * (psi @ coeff_grad)) / norm])


@pytest.mark.parametrize("kind", [ThresholdSolver, _FacetThreshold], ids=["lp", "facets"])
def test_gradient_reuses_the_evaluations_decode(monkeypatch, rng, kind):
    solver = kind(SC23)
    evaluate, gradient = search._evaluator(solver, None)
    x = _point_off_plateau(SC23, rng, scalar(evaluate))
    decodes = count_decodes(monkeypatch)
    evaluate(x[np.newaxis])
    assert decodes == [1]
    grad = gradient()
    assert decodes == [1]  # the gradient decoded nothing
    params = ParameterVector(SC23, x[:8], x[8:])
    fresh = pulled_back(params, params.decode_settings(), params.decode_state(),
                        solver.tensor_gradient())
    assert grad.tobytes() == fresh.tobytes()

    # in a block, the kept decode is that of the row solved last, not row 0's
    zero = np.concatenate([x[:8], np.zeros(SC23.state_size)])
    decodes.clear()
    assert evaluate(np.stack([zero, x]))[0] == 1
    grad = gradient()
    assert decodes == [2]
    fresh = pulled_back(params, params.decode_settings(), params.decode_state(),
                        solver.tensor_gradient())
    assert grad.tobytes() == fresh.tobytes()


def test_an_undecodable_evaluation_keeps_no_decode(monkeypatch, rng):
    solver = _FacetThreshold(SC23)
    evaluate, gradient = search._evaluator(solver, None)
    x = _point_off_plateau(SC23, rng, scalar(evaluate))
    grad = gradient()
    decodes = count_decodes(monkeypatch)

    zero = np.concatenate([x[:8], np.zeros(SC23.state_size)])
    assert evaluate(zero[np.newaxis]) == (0, -1.0)  # does not decode, and solves nothing
    assert decodes == [1]
    # the gradient is still x's: the solver and the kept decode both hold x
    assert gradient().tobytes() == grad.tobytes()
    assert decodes == [1]


def test_polish_keeps_the_endpoint_when_no_step_ascends():
    start = np.ones(8)
    evaluate, downhill = on_one_point(lambda x: -float(np.sum(x ** 2)),
                                      lambda x: 2.0 * x,  # points away from the ascent direction
                                      start)
    x, value, evals = search._polish(evaluate, downhill, start, -8.0, budget=50)
    assert x is start and value == -8.0
    assert evals <= 50


def test_polish_climbs_a_concave_quadratic():
    weights = np.arange(1, 9) / 4.0
    peak = np.linspace(0.5, 2.0, 8)
    start = np.zeros(8)

    def objective(x):
        return -float(np.sum(weights * (x - peak) ** 2))

    evaluate, exact = on_one_point(objective, lambda x: -2.0 * weights * (x - peak), start)
    x, value, evals = search._polish(evaluate, exact, start, objective(start), budget=200)
    assert value > -1e-6
    assert np.max(np.abs(x - peak)) < 1e-3
    assert evals < 200


def test_polish_never_lowers_a_restart(monkeypatch):
    cfg = OptimizationConfig(restarts=4, rng_seed=7, max_evals_per_restart=200,
                             mode="phases_and_state")
    polished = optimize_state_and_phases(SC23, cfg)
    monkeypatch.setattr(search, "_polish",
                        lambda evaluate, gradient, start, value, budget: (start, value, 0))
    plain = optimize_state_and_phases(SC23, cfg)
    pairs = list(zip(polished.per_restart_log, plain.per_restart_log))
    assert all(a >= b for (_, a), (_, b) in pairs)
    assert any(a > b + 1e-6 for (_, a), (_, b) in pairs)
    assert polished.best_f_thr >= plain.best_f_thr


# at (3,2) with 40 and (3,3) with 90 evaluations the cap cuts the polish short
@pytest.mark.parametrize("sc, cap", [(SC32, 30), (SC32, 40), (SC33, 90), (SC33, 150)],
                         ids=["n3d2-30", "n3d2-40", "n3d3-90", "n3d3-150"])
def test_restart_evaluations_stay_within_the_cap(monkeypatch, sc, cap):
    solved = []
    original = ThresholdSolver.value

    def counted(self, tensor):
        solved.append((tensor, original(self, tensor)))
        return solved[-1][1]

    skipped = []
    original_proofs = search._facet_proofs

    def screened(scenario, tensors):
        proven = original_proofs(scenario, tensors)
        skipped.append(int(np.argmax(proven)))  # the draws before the first proven one
        return proven

    monkeypatch.setattr(ThresholdSolver, "value", counted)
    monkeypatch.setattr(search, "_facet_proofs", screened)
    cfg = OptimizationConfig(restarts=3, rng_seed=5, max_evals_per_restart=cap,
                             mode="phases_and_state")
    for index in range(3):
        solved.clear()
        skipped.clear()
        _, _, _, _, spent, _ = search._run_restart((sc, cfg, index, None, None))
        # every evaluation is one solve, or one draw a block skipped before
        # its first draw the lifted facets prove off the plateau
        assert spent == len(solved) + sum(skipped) <= cap


def test_flat_restart_redraws_without_polish(monkeypatch):
    state = product_state(SC32, [[1, 0], [0, 1], [1, 0]])  # threshold 0 under any phases
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
    _, value, _, _, spent, _ = search._run_restart((SC32, cfg, 0, state.coeffs.real, None))
    # the start and all 79 redraws are solved, and every one is flat
    assert spent == len(values) == 80
    assert max(values) <= search.FLAT_VALUE
    assert value == values[-1] < 1e-9


# command 13 of the optimize_joint_23 benchmark's seed-1 stream: two of its
# four restarts draw flat starts before they leave the plateau
JOINT23 = OptimizationConfig(restarts=4, rng_seed=1777477784, max_evals_per_restart=500,
                             mode="phases_and_state")
# at (3,2), where the lifted facets screen each block of draws before the LP:
# the four restarts leave the plateau on their 3rd, 11th, 8th and 6th draw,
# each the first draw the facets prove off it
JOINT32 = OptimizationConfig(restarts=4, rng_seed=10, max_evals_per_restart=500,
                             mode="phases_and_state")
# (config, restart) pairs at (3,2) whose first block the screen does not
# settle at its first draw off the plateau: under seed 2, restart 3's draws
# 8, 11 and 14 are off it and the facets prove only 14; under seed 37,
# restart 0's draw 5 is off it and the facets prove none
SCREENED32 = [(JOINT32, index) for index in range(JOINT32.restarts)] + [
    (OptimizationConfig(restarts=4, rng_seed=2, max_evals_per_restart=500,
                        mode="phases_and_state"), 3),
    (OptimizationConfig(restarts=4, rng_seed=37, max_evals_per_restart=500,
                        mode="phases_and_state"), 0),
]
# at (3,3), where the bundled starts claim the first restarts: restart 0 (the
# tabulated state, its phases drawn) starts flat and leaves the plateau on its
# 3rd draw, and restart 3, the first drawn start, on its 14th
JOINT33 = OptimizationConfig(restarts=4, rng_seed=11, max_evals_per_restart=20,
                             mode="phases_and_state")


def record_draws(monkeypatch) -> list:
    """Record every start the restarts draw from their streams, as flat rows in stream order."""
    draws = []
    original = search._draws

    def recorded(sc, with_state, count, rng):
        rows = original(sc, with_state, count, rng)
        draws.extend(rows)
        return rows

    monkeypatch.setattr(search, "_draws", recorded)
    return draws


def decoded(sc, row):
    """A joint flat row as (PureState, PhaseSettings), by the public dataclasses."""
    size = sc.parties * sc.settings_per_party * (sc.dim - 1)
    params = ParameterVector(sc, row[:size], row[size:])
    return params.decode_state(), params.decode_settings()


def record_blocks(monkeypatch) -> list:
    """Record (rows, evaluations spent, value) for every block a restart's evaluator values.

    A block spends its rows up to its first off the plateau; each ascent
    step is a block of one.
    """
    blocks = []
    original = search._evaluator

    def recorded(solver, pinned):
        evaluate, gradient = original(solver, pinned)

        def counted(rows):
            k, value = evaluate(rows)
            blocks.append((len(rows), k + 1, value))
            return k, value

        return counted, gradient

    monkeypatch.setattr(search, "_evaluator", recorded)
    return blocks


def draw_blocks(blocks) -> int:
    """How many of a restart's recorded blocks are draws: those up to its first off the plateau."""
    return next((i + 1 for i, (_, _, value) in enumerate(blocks) if value > search.FLAT_VALUE),
                len(blocks))


def test_ascent_starts_at_the_first_draw_off_the_plateau(monkeypatch):
    solved, ascents, blocks = [], [], []
    original_value = ThresholdSolver.value
    original_polish = search._polish
    original_draws = search._draws

    def counted_value(self, tensor):
        solved.append((tensor, original_value(self, tensor)))
        return solved[-1][1]

    def watched(evaluate, gradient, start, value, budget):
        solves = len(solved)
        outcome = original_polish(evaluate, gradient, start, value, budget)
        ascents.append((start, solves, value, outcome[2]))
        return outcome

    def recorded(sc, with_state, count, rng):
        blocks.append(original_draws(sc, with_state, count, rng))
        return blocks[-1]

    monkeypatch.setattr(ThresholdSolver, "value", counted_value)
    monkeypatch.setattr(search, "_draws", recorded)
    monkeypatch.setattr(search, "_polish", watched)
    skipped = later_proof = unproven = 0
    for cfg, index in SCREENED32:
        solved.clear()
        blocks.clear()
        ascents.clear()
        _, _, _, _, spent, _ = search._run_restart((SC32, cfg, index, None, None))
        assert len(ascents) == 1
        start, solves, start_value, ascent_evals = ascents[0]
        # the ascent starts in the last block drawn; every earlier block is flat
        *flat_blocks, rows = blocks
        accepted = next(k for k, row in enumerate(rows) if row.tobytes() == start.tobytes())
        for row in [row for block in flat_blocks for row in block]:
            assert threshold(*decoded(SC32, row)).f_thr <= search.FLAT_VALUE
        exact = [threshold(*decoded(SC32, row)).f_thr for row in rows[:accepted + 1]]
        proven = [k for k, row in enumerate(rows)
                  if lifted_bound_of(SC32, row, None) > search.FLAT_VALUE]
        # it starts at the block's first draw the lifted facets prove off the
        # plateau, and otherwise at its first draw off the plateau by LP
        off = [k for k, value in enumerate(exact) if value > search.FLAT_VALUE]
        assert accepted == (proven[0] if proven else off[0])
        assert start_value == solved[solves - 1][1] > search.FLAT_VALUE
        assert abs(start_value - exact[-1]) < 1e-9
        # the flat blocks' draws are solved one by one, and in the last block
        # the draws from the first proven one (the first one when none is)
        # up to the start; each is solved once, of its own tensor and in
        # stream order, and the ascent's evaluations are its own steps
        first = proven[0] if proven else 0
        expected = [row for block in flat_blocks for row in block] + list(rows[first:accepted + 1])
        assert solves == len(expected)
        for (tensor, _), row in zip(solved[:solves], expected):
            born = correlation_tensor(*decoded(SC32, row))
            assert tensor.probs.tobytes() == born.probs.tobytes()
        drawn = sum(len(block) for block in flat_blocks) + accepted + 1
        assert spent == drawn + ascent_evals == solves + first + ascent_evals
        assert len(solved) == solves + ascent_evals
        skipped += first
        later_proof += bool(proven) and off[0] < accepted
        unproven += not proven
    assert skipped > 0 and later_proof > 0 and unproven > 0


def test_a_proven_draw_on_the_plateau_is_passed_over(monkeypatch):
    # every draw is local, but the screen claims each block's draw 3 proven:
    # value() puts it on the plateau, so the block goes on from the next draw
    state = product_state(SC32, [[1, 0], [0, 1], [1, 0]])
    solved = []
    original_value = ThresholdSolver.value

    def counted(self, tensor):
        solved.append((tensor, original_value(self, tensor)))
        return solved[-1][1]

    def draw_3_proven(sc, tensors):
        proven = np.zeros(len(tensors), dtype=bool)
        proven[3] = True
        return proven

    def never(*args):
        raise AssertionError("a draw on the plateau must not start an ascent")

    monkeypatch.setattr(ThresholdSolver, "value", counted)
    monkeypatch.setattr(search, "_facet_proofs", draw_3_proven)
    monkeypatch.setattr(search, "_polish", never)
    draws = record_draws(monkeypatch)
    cfg = OptimizationConfig(restarts=1, rng_seed=0, max_evals_per_restart=20,
                             mode="phases_only")
    _, value, table, _, spent, _ = search._run_restart((SC32, cfg, 0, state.coeffs.real, None))
    # blocks of 16 and 4: the draws from 3 up are solved in each, all flat,
    # and the restart ends on its last draw with every draw spent
    expected = draws[3:16] + draws[19:]
    assert len(solved) == len(expected) == 14
    for (tensor, _), row in zip(solved, expected):
        settings = ParameterVector(SC32, row[:6]).decode_settings()
        assert tensor.probs.tobytes() == correlation_tensor(state, settings).probs.tobytes()
    assert max(v for _, v in solved) <= search.FLAT_VALUE
    assert spent == 20 and value == solved[-1][1]
    assert np.array_equal(table, ParameterVector(SC32, draws[-1][:6]).decode_settings().table)


@pytest.mark.parametrize("sc, cfg", [(SC32, JOINT32), (SC23, JOINT23), (SC33, JOINT33)],
                         ids=["n3d2-lp", "n2d3-facets", "n3d3-bundled"])
def test_every_evaluation_before_the_ascent_is_a_block_row(monkeypatch, sc, cfg):
    blocks = record_blocks(monkeypatch)
    ascents = []
    original_polish = search._polish

    def watched(evaluate, gradient, start, value, budget):
        ascents.append((len(blocks), budget))
        return original_polish(evaluate, gradient, start, value, budget)

    monkeypatch.setattr(search, "_polish", watched)
    for index in range(cfg.restarts):
        blocks.clear()
        ascents.clear()
        _, _, _, _, spent, _ = search._run_restart((sc, cfg, index, None, None))
        (before, budget), = ascents
        drawn = sum(used for _, used, _ in blocks[:before])
        steps = blocks[before:]
        # the start and every redraw were rows of the blocks before the
        # ascent, every block flat but the last; the ascent began on the
        # budget they left and valued each of its steps as a block of one
        flat = [value <= search.FLAT_VALUE for _, _, value in blocks[:before]]
        assert flat == [True] * (before - 1) + [False]
        assert budget == cfg.max_evals_per_restart - drawn
        assert 0 < len(steps) <= spent - drawn
        assert all(rows == used == 1 for rows, used, _ in steps)


def record_builds(monkeypatch) -> list:
    """Record each ParameterVector, PhaseSettings and PureState built, and each value() call."""
    events = []
    for cls in (ParameterVector, PhaseSettings, PureState):
        def built(self, _name=cls.__name__, _original=cls.__post_init__):
            events.append(_name)
            _original(self)

        monkeypatch.setattr(cls, "__post_init__", built)
    for kind in (ThresholdSolver, _FacetThreshold):
        def valued(self, tensor, _original=kind.value):
            events.append(("value", tensor.probs.tobytes()))
            return _original(self, tensor)

        monkeypatch.setattr(kind, "value", valued)
    return events


def record_validation(monkeypatch) -> tuple[list, Counter]:
    """Record the stack size of every Born contraction, and every tensor validated."""
    contracted, validated = [], Counter()
    for module in (search, probabilities):
        def contract(coeffs, unitaries, _original=module.born_probabilities):
            contracted.append(len(coeffs))
            return _original(coeffs, unitaries)

        def check(sc, probs, _original=module.checked_probabilities):
            stack = _original(sc, probs)
            validated.update(p.tobytes() for p in stack)
            return stack

        monkeypatch.setattr(module, "born_probabilities", contract)
        monkeypatch.setattr(module, "checked_probabilities", check)
    return contracted, validated


@pytest.mark.parametrize("sc, cfg", [
    (SC23, JOINT23),
    (SC33, OptimizationConfig(restarts=4, rng_seed=JOINT33.rng_seed, max_evals_per_restart=60,
                              mode="phases_and_state")),
], ids=["n2d3-facets", "n3d3-lp"])
def test_ascent_steps_build_no_dataclass_and_validate_each_tensor_once(monkeypatch, sc, cfg):
    blocks = record_blocks(monkeypatch)
    events = record_builds(monkeypatch)
    contracted, validated = record_validation(monkeypatch)
    for index in range(cfg.restarts):
        drawn = search._restart_start(sc, cfg.mode, index, np.random.default_rng()) is None
        blocks.clear()
        events.clear()
        contracted.clear()
        validated.clear()
        _, value, _, _, spent, _ = search._run_restart((sc, cfg, index, None, None))
        # the restart ascended
        assert value > search.FLAT_VALUE and len(blocks) > draw_blocks(blocks)
        solves = [k for k, event in enumerate(events) if isinstance(event, tuple)]
        # a bundled start's constants are built before its first evaluation,
        # a drawn start builds nothing; from the first evaluation on, no
        # dataclass is built, the endpoint's decode included
        if drawn:
            assert solves[0] == 0
        assert solves == list(range(solves[0], len(events)))
        # every block is one contraction, every contracted tensor is validated
        # once, and nothing else is; each solved tensor is one of them
        assert contracted == [rows for rows, _, _ in blocks]
        assert sum(validated.values()) == sum(contracted)
        assert spent == sum(used for _, used, _ in blocks)
        assert all(validated[events[k][1]] == 1 for k in solves)


def reference_objectives(sc, solver, pinned):
    """The scalar oracle, shaped as _polish takes it: each point through the public dataclasses.

    evaluate(rows) values a block of one row: it builds a ParameterVector,
    decodes it into PhaseSettings and a PureState (or takes the pinned one),
    contracts them with correlation_tensor and solves with value(); -1 when
    the point does not decode. gradient() decodes the point last solved
    afresh and pulls the solver's tensor gradient back (pulled_back).
    """
    size = sc.parties * sc.settings_per_party * (sc.dim - 1)
    solved = [None]

    def decode(x):
        params = ParameterVector(sc, x[:size], None if pinned is not None else x[size:])
        state = pinned if pinned is not None else params.decode_state()
        return params, params.decode_settings(), state

    def evaluate(rows):
        (x,) = rows
        try:
            _, settings, state = decode(x)
        except InvalidParameterError:
            return 0, -1.0
        solved[0] = x
        return 0, solver.value(correlation_tensor(state, settings))

    def gradient():
        return pulled_back(*decode(solved[0]), solver.tensor_gradient())

    return evaluate, gradient


def lifted_bound_of(sc, row, pinned):
    """The oracle's lifted-facet bound (conftest.lifted_facet_bound) at a flat row, or None.

    The row is decoded by the public dataclasses; None when its state does
    not decode.
    """
    size = sc.parties * sc.settings_per_party * (sc.dim - 1)
    params = ParameterVector(sc, row[:size], None if pinned is not None else row[size:])
    try:
        state = pinned if pinned is not None else params.decode_state()
    except InvalidParameterError:
        return None
    return lifted_facet_bound(correlation_tensor(state, params.decode_settings()))


def reference_restart(sc, config, index, solver=None, fixed_coeffs=None):
    """A restart that evaluates one draw at a time, by LP unless given a solver.

    The same stream, the same ascent: the start is the bundled row when the
    restart has one, every other block is min(REDRAW_BLOCK, budget left)
    _draws draws, and every draw and ascent point is evaluated by the scalar
    oracle (reference_objectives), in row order, until one is off the
    plateau. By LP at three parties and d <= 3, a block of two or more draws
    is evaluated from its first draw whose oracle bound (lifted_bound_of) is
    above FLAT_VALUE, from its first draw when none is; the draws before it
    are spent unevaluated. Returns the accepted start as a flat array, the
    endpoint's table and state coefficients, its value and the evaluations
    spent.
    """
    key = np.array([config.rng_seed, index], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    with_state = config.mode == "phases_and_state"
    bundled = search._restart_start(sc, config.mode, index, rng)
    if bundled is not None and fixed_coeffs is None:
        fixed_coeffs = bundled[1]
    pinned = None if fixed_coeffs is None else PureState(sc, fixed_coeffs)
    solver = solver or ThresholdSolver(sc)
    screened = isinstance(solver, ThresholdSolver) and sc.parties == 3 and sc.dim <= 3
    evaluate, gradient = reference_objectives(sc, solver, pinned)
    size = sc.parties * sc.settings_per_party * (sc.dim - 1)
    budget = config.max_evals_per_restart
    value, spent = -1.0, 0
    while value <= search.FLAT_VALUE and spent < budget:
        if spent == 0 and bundled is not None:
            rows = bundled[0]
        else:
            rows = search._draws(sc, with_state, min(search.REDRAW_BLOCK, budget - spent), rng)
        if pinned is not None:
            rows = rows[:, :size]
        first = 0
        if screened and len(rows) > 1:
            bounds = [lifted_bound_of(sc, row, pinned) for row in rows]
            first = next((k for k, b in enumerate(bounds)
                          if b is not None and b > search.FLAT_VALUE), 0)
        for k in range(first, len(rows)):
            _, value = evaluate(rows[k][np.newaxis])
            if value > search.FLAT_VALUE:
                break
        x = rows[k]
        spent += k + 1
    accepted = x
    if value > search.FLAT_VALUE and spent < budget:
        x, value, steps = search._polish(evaluate, gradient, x, value, budget - spent)
        spent += steps
    params = ParameterVector(sc, x[:size], None if pinned is not None else x[size:])
    state = pinned if pinned is not None else params.decode_state()
    return accepted, params.decode_settings().table, state.coeffs.real, value, spent


# with 10 evaluations, restart 1 of the (3,2) config stays flat; at (2,4) with
# 80, restart 2 stays flat and the others leave the plateau on their 79th,
# 74th and 72nd draw; at (4,2) with 40, every restart climbs. On the facets,
# restarts 0 and 1 of the (2,3) config stay flat with 60 evaluations, and
# restarts 0 and 2 of the (3,2) config at (2,2) with 45. Every budget but 500
# ends inside a block of draws. At (3,3) joint restarts 1 and 2 start at the
# maxent and near-optimal tables with GHZ; with phases alone at GHZ, restarts
# 0 and 1 start at those tables, and restart 2 is drawn.
@pytest.mark.parametrize("sc, mode, budget, flat", [
    pytest.param(SC32, "phases_and_state", 500, 0, id="500"),
    pytest.param(SC32, "phases_and_state", 10, 1, id="10"),
    pytest.param(SC24, "phases_and_state", 80, 1, id="n2d4-80"),
    pytest.param(SC42, "phases_and_state", 40, 0, id="n4d2-40"),
    pytest.param(SC23, "phases_and_state", 500, 0, id="n2d3-facets-500"),
    pytest.param(SC23, "phases_and_state", 60, 2, id="n2d3-facets-60"),
    pytest.param(SC22, "phases_and_state", 45, 2, id="n2d2-facets-45"),
    pytest.param(SC33, "phases_and_state", 20, 0, id="n3d3-bundled-20"),
    pytest.param(SC33, "phases_only", 20, 0, id="n3d3-phases-20"),
])
def test_restart_matches_solving_every_draw(sc, mode, budget, flat):
    base = {SC23: JOINT23, SC33: JOINT33}.get(sc, JOINT32)
    restarts = 3 if mode == "phases_only" else base.restarts
    cfg = OptimizationConfig(restarts=restarts, rng_seed=base.rng_seed,
                             max_evals_per_restart=budget, mode=mode)
    fixed = ghz_state(sc).coeffs if mode == "phases_only" else None
    solver = _FacetThreshold if sc in (SC22, SC23) else ThresholdSolver
    flat_restarts = 0
    for index in range(cfg.restarts):
        _, value, table, coeffs, spent, _ = search._run_restart((sc, cfg, index, fixed, None))
        _, ref_table, ref_coeffs, ref_value, ref_spent = reference_restart(
            sc, cfg, index, solver(sc), fixed)
        assert (value, spent) == (ref_value, ref_spent)
        assert table.tobytes() == ref_table.tobytes()
        assert coeffs.tobytes() == ref_coeffs.tobytes()
        flat_restarts += value <= search.FLAT_VALUE
    assert flat_restarts == flat


@pytest.mark.parametrize("sc", [SC23, SC32], ids=["n2d3-facets", "n3d2-lp"])
def test_an_undecodable_draw_in_a_block_is_one_evaluation_worth_minus_one(monkeypatch, sc):
    # the 2nd redraw of every restart gets a zero state, which does not decode
    drawn = []
    original = search._draws

    def with_a_zero_state(scenario, with_state, count, rng):
        rows = original(scenario, with_state, count, rng)
        for row in rows:
            drawn.append(row)
            if len(drawn) == 3:
                row[-scenario.state_size:] = 0.0
        return rows

    monkeypatch.setattr(search, "_draws", with_a_zero_state)
    cfg = OptimizationConfig(restarts=JOINT32.restarts, rng_seed=JOINT32.rng_seed,
                             max_evals_per_restart=40, mode="phases_and_state")
    solver = _FacetThreshold if sc in (SC22, SC23) else ThresholdSolver
    injected = 0
    for index in range(cfg.restarts):
        drawn.clear()
        outcome = search._run_restart((sc, cfg, index, None, None))
        drawn.clear()
        accepted, ref_table, ref_coeffs, ref_value, ref_spent = reference_restart(
            sc, cfg, index, solver(sc))
        # the zero state was one of the draws spent, up to the start
        start = next(k for k, row in enumerate(drawn) if row.tobytes() == accepted.tobytes())
        injected += start >= 2
        assert outcome[1] == ref_value and outcome[4] == ref_spent
        assert outcome[2].tobytes() == ref_table.tobytes()
        assert outcome[3].tobytes() == ref_coeffs.tobytes()
    assert injected > 0

    # a block of undecodable draws is worth -1 at its last draw
    rows = search._draws(sc, True, 3, np.random.default_rng(3))
    rows[:, -sc.state_size:] = 0.0
    evaluate, _ = search._evaluator(solver(sc), None)
    assert evaluate(rows) == (2, -1.0)


def record_lp_calls(monkeypatch) -> list:
    """Record every ThresholdSolver.value call."""
    calls = []
    original = ThresholdSolver.value

    def recorded(self, tensor):
        calls.append(tensor)
        return original(self, tensor)

    monkeypatch.setattr(ThresholdSolver, "value", recorded)
    return calls


@pytest.mark.parametrize("sc", [SC23, SC22], ids=["n2d3", "n2d2"])
def test_two_party_restarts_evaluate_through_the_facets_alone(monkeypatch, sc):
    lp_calls = record_lp_calls(monkeypatch)
    blocks = record_blocks(monkeypatch)
    born_calls, screens = [], []
    original_born = search.born_probabilities
    original_proofs = search._facet_proofs

    def counted_born(coeffs, unitaries):
        born_calls.append(len(coeffs))
        return original_born(coeffs, unitaries)

    def counted_proofs(scenario, tensors):
        screens.append(len(tensors))
        return original_proofs(scenario, tensors)

    monkeypatch.setattr(search, "born_probabilities", counted_born)
    monkeypatch.setattr(search, "_facet_proofs", counted_proofs)
    cfg = OptimizationConfig(restarts=3, rng_seed=5, max_evals_per_restart=30,
                             mode="phases_and_state")
    ascents = 0
    for index in range(cfg.restarts):
        blocks.clear()
        born_calls.clear()
        screens.clear()
        _, _, _, _, spent, _ = search._run_restart((sc, cfg, index, None, None))
        drawn = draw_blocks(blocks)
        # one contraction per block, and each ascent step is a block of one;
        # one evaluation per block draw up to the first off the plateau, and
        # one per ascent step, and no LP
        assert born_calls == [rows for rows, _, _ in blocks]
        assert all(rows == 1 for rows, _, _ in blocks[drawn:])
        assert spent == sum(used for _, used, _ in blocks) <= cfg.max_evals_per_restart
        # every block of draws was screened by one product against the
        # facets, and no ascent step was
        assert screens == [rows for rows, _, _ in blocks[:drawn]]
        ascents += len(blocks) > drawn
    assert ascents > 0
    assert not lp_calls


# its restarts leave the plateau on their 150th, 112th, 29th and 56th draw,
# so with 60 evaluations restarts 0 and 1 stay flat and 3 has 4 ascent steps
@pytest.mark.parametrize("budget", [500, 60])
def test_facet_restart_matches_solving_every_draw_by_lp(monkeypatch, budget):
    accepted = []
    original_polish = search._polish

    def watched(evaluate, gradient, start, value, budget):
        accepted.append(start)
        return original_polish(evaluate, gradient, start, value, budget)

    monkeypatch.setattr(search, "_polish", watched)
    lp_calls = record_lp_calls(monkeypatch)
    cfg = OptimizationConfig(restarts=JOINT23.restarts, rng_seed=JOINT23.rng_seed,
                             max_evals_per_restart=budget, mode=JOINT23.mode)
    flat = 0
    for index in range(cfg.restarts):
        accepted.clear()
        _, value, table, coeffs, spent, _ = search._run_restart((SC23, cfg, index, None, None))
        assert not lp_calls
        ref_start, ref_table, ref_coeffs, ref_value, ref_spent = reference_restart(
            SC23, cfg, index)
        lp_calls.clear()
        assert spent == ref_spent
        assert abs(value - ref_value) < 1e-12
        if accepted:
            # the same draw starts the ascent; the facet gradient and the LP's
            # duals agree up to rounding, and so may the endpoints
            assert np.array_equal(accepted[0], ref_start)
            assert np.allclose(table, ref_table, rtol=0, atol=1e-9)
            assert np.allclose(coeffs, ref_coeffs, rtol=0, atol=1e-9)
        else:
            flat += 1
            assert ref_spent == budget and ref_value <= search.FLAT_VALUE
            assert np.array_equal(table, ref_table)
            assert np.array_equal(coeffs, ref_coeffs)
    assert flat == (2 if budget == 60 else 0)


def test_a_draw_just_off_the_local_set_is_solved_and_stays_flat(monkeypatch):
    # GHZ under the Mermin settings (threshold 0.5), mixed with white noise
    # down to a threshold of 5e-7: above 0, at most FLAT_VALUE
    table = np.zeros((3, 2, 2))
    table[:, 1, 1] = np.pi / 2
    settings = PhaseSettings(SC32, table)
    tensor = correlation_tensor(ghz_state(SC32), settings)
    f_thr = threshold(ghz_state(SC32), settings).f_thr
    q = 1.0 - (1.0 - f_thr) / (1.0 - 5e-7)
    edge = noisy_tensor(tensor, q)
    state = product_state(SC32, [[1, 0], [0, 1], [1, 0]])  # every other draw is local
    solved = []
    original_value = ThresholdSolver.value
    original_born = search.born_probabilities
    blocks = []

    def first_redraw_is_the_edge(coeffs, unitaries):
        probs = original_born(coeffs, unitaries)
        blocks.append(len(probs))
        if len(blocks) == 1:
            probs[1] = edge.probs  # row 0 is the start
        return probs

    def counted(self, tensor):
        solved.append((tensor, original_value(self, tensor)))
        return solved[-1][1]

    def never(*args):
        raise AssertionError("a draw on the plateau must not start an ascent")

    monkeypatch.setattr(search, "born_probabilities", first_redraw_is_the_edge)
    monkeypatch.setattr(ThresholdSolver, "value", counted)
    monkeypatch.setattr(search, "_polish", never)
    cfg = OptimizationConfig(restarts=1, rng_seed=0, max_evals_per_restart=20,
                             mode="phases_only")
    _, value, table, _, spent, _ = search._run_restart((SC32, cfg, 0, state.coeffs.real, None))
    # the edge, the first redraw, is solved once, and being flat it is redrawn
    is_edge = [t.probs.tobytes() == edge.probs.tobytes() for t, _ in solved]
    assert is_edge.count(True) == 1 and is_edge[1]
    assert 0.0 < solved[is_edge.index(True)][1] <= search.FLAT_VALUE
    assert spent == 20 == len(solved) and value <= search.FLAT_VALUE
    assert not is_edge[-1]
    # and no draw was skipped: the start and 19 redraws in two blocks, and
    # the restart ends on the stream's 20th draw
    assert blocks == [16, 4]
    rng = np.random.Generator(np.random.Philox(key=np.array([0, 0], dtype=np.uint64)))
    rows = search._draws(SC32, False, 20, rng)
    assert np.array_equal(table, ParameterVector(SC32, rows[-1]).decode_settings().table)


def test_a_facet_draw_just_above_the_plateau_passes_the_screen(monkeypatch):
    # GHZ under CHSH settings at (2,2), mixed with white noise down to a
    # threshold of 1.5e-6: above FLAT_VALUE, so the block's facet screen must
    # hand it to value(), and the restart must start its ascent there
    settings = PhaseSettings(SC22, [[[0, 0], [0, np.pi / 2]], [[0, np.pi / 4], [0, -np.pi / 4]]])
    tensor = correlation_tensor(ghz_state(SC22), settings)
    f_thr = _FacetThreshold(SC22).value(tensor)
    edge = noisy_tensor(tensor, 1.0 - (1.0 - f_thr) / (1.0 - 1.5e-6))
    edge_value = _FacetThreshold(SC22).value(edge)
    assert search.FLAT_VALUE < edge_value < 2 * search.FLAT_VALUE
    original_born = search.born_probabilities
    blocks, ascents = [], []

    def first_redraw_is_the_edge(coeffs, unitaries):
        probs = original_born(coeffs, unitaries)
        blocks.append(len(probs))
        if len(blocks) == 1:
            probs[1] = edge.probs  # row 0 is the start
        return probs

    def recorded(evaluate, gradient, start, value, budget):
        ascents.append(value)
        return start, value, 0

    monkeypatch.setattr(search, "born_probabilities", first_redraw_is_the_edge)
    monkeypatch.setattr(search, "_polish", recorded)
    state = product_state(SC22, [[1, 0], [1, 0]])  # every other draw is local
    cfg = OptimizationConfig(restarts=1, rng_seed=0, max_evals_per_restart=20,
                             mode="phases_only")
    _, value, _, _, spent, _ = search._run_restart((SC22, cfg, 0, state.coeffs.real, None))
    assert ascents == [edge_value] and value == edge_value
    assert blocks == [16] and spent == 2  # the start and the first redraw


# about a quarter of the draws at three parties are off the plateau, and one
# in forty at two
@pytest.mark.parametrize("sc, draws, share", [(SC33, 48, 5), (SC32, 96, 5), (SC22, 400, 50),
                                              (SC23, 400, 50)],
                         ids=["n3d3", "n3d2", "n2d2", "n2d3"])
def test_lifted_screen_proves_only_what_the_oracle_bounds_off_the_plateau(sc, draws, share):
    rng = np.random.default_rng(29)
    tensors = []
    for _ in range(draws):
        coeffs = rng.normal(size=sc.state_size)
        table = rng.uniform(0, 2 * np.pi, size=(sc.parties, sc.settings_per_party, sc.dim))
        tensors.append(correlation_tensor(PureState(sc, coeffs / np.linalg.norm(coeffs)),
                                          PhaseSettings(sc, table)))
    bounds = [lifted_facet_bound(tensor) for tensor in tensors]
    # the strongest draw mixed with white noise q has the bound (B - q)/(1 - q):
    # put one mixture just above FLAT_VALUE and one just below
    strongest = tensors[int(np.argmax(bounds))]
    for target in (1.5 * search.FLAT_VALUE, search.FLAT_VALUE / 1.5):
        tensors.append(noisy_tensor(strongest, 1.0 - (1.0 - max(bounds)) / (1.0 - target)))
        bounds.append(lifted_facet_bound(tensors[-1]))
    assert bounds[-2] > search.FLAT_VALUE >= bounds[-1]
    proven = search._facet_proofs(sc, np.stack([tensor.probs for tensor in tensors]))
    solver = ThresholdSolver(sc)
    values = [solver.value(tensor) for tensor in tensors]
    if sc.parties == 2:  # the facets are complete: the bound is the threshold
        assert np.allclose(bounds, values, rtol=0, atol=1e-12)
    # a proven tensor has an oracle bound and an LP value above FLAT_VALUE
    for is_proven, bound, value in zip(proven, bounds, values):
        assert not is_proven or (bound > search.FLAT_VALUE and value > search.FLAT_VALUE)
    # and, no bound lying within rounding of the bar, the screen proves
    # exactly the tensors whose oracle bound is above it: a good share of them
    assert proven.tolist() == [bound > search.FLAT_VALUE for bound in bounds]
    assert proven.sum() >= len(tensors) // share


def test_joint_search_leaves_the_plateau_on_every_restart():
    result = optimize_state_and_phases(SC23, JOINT23)
    assert result.best_f_thr >= 0.3178
    assert all(value > search.FLAT_VALUE for _, value in result.per_restart_log)


def test_a_stalling_warm_repair_hands_over_to_the_closed_form(monkeypatch):
    # phases-only GHZ(3,4): this search's first warm repair runs for over
    # 400,000 pivots when left alone; capped at 10 pivots per kept row it
    # hands over to the closed-form retry
    sc = Scenario(parties=3, dim=4, settings_per_party=2)
    config = OptimizationConfig(restarts=1, rng_seed=0, max_evals_per_restart=12,
                                mode="phases_only")
    calls = []
    value = ThresholdSolver.value

    def recorded(self, tensor):
        got = value(self, tensor)
        calls.append((self.last_warm, self.last_pivots, self._core.r))
        return got

    monkeypatch.setattr(ThresholdSolver, "value", recorded)
    began = time.perf_counter()
    result = optimize_phases(ghz_state(sc), config)
    assert time.perf_counter() - began < 10.0
    assert result.evals == 12
    assert result.certified.certificate["gap"] < 1e-8
    # a cold call after the first one is a warm repair that hit the cap
    retried = [pivots > 10 * rows for warm, pivots, rows in calls[1:] if not warm]
    assert retried and all(retried)
