"""Maximization of the noise threshold over phases and states.

The objective is an LP value function of the phase tables (and optionally the
state coefficients): continuous and piecewise smooth, but non-convex, and
exactly zero on the full-dimensional region where the correlations already
admit a local model. Many restarts handle the non-convexity. The zero plateau
is handled inside each restart: each drawn start costs one evaluation, and a
start on the plateau is redrawn from the restart's own random stream for as
long as budget remains.

From the first start off the plateau, the rest of the restart's budget goes
to a quasi-Newton gradient ascent with Armijo backtracking. The gradient is
exact and costs no extra LP solve. With y the optimal duals of the solve on
the kept rows, the envelope theorem gives dF/dtheta = (1 - F) y .
dP_keep/dtheta, because the tensor enters both the right-hand side and the F
column. The Born layer pulls that weight vector back to the phases and state
in one backward pass (correlation_tensor_vjp). At a degenerate optimum the
gradient is one subgradient of several, so the restart keeps its start unless
a step ascends.

Restart streams use counter-based keys (base seed, restart index), so results
do not depend on scheduling order and any subset of restarts can be
reproduced in isolation.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .probabilities import correlation_tensor, correlation_tensor_vjp
from .scenario import PhaseSettings, PureState, Scenario, ghz_state, paper_optimal_state, \
    paper_settings
from .simplex import SolverOptions
from .threshold import ThresholdResult, ThresholdSolver, threshold

STATE_NORM_FLOOR = 1e-8
FLAT_VALUE = 1e-6  # objective values at or below this count as the local plateau
SIMPLEX_SPREAD = 0.3  # step from the start to each other initial Nelder-Mead vertex
CONVERGENCE_TOL = 1e-4  # Nelder-Mead stops once its simplex's objective spread is below this
ARMIJO = 1e-4  # an ascent step t*Hg must gain at least ARMIJO * t * g.Hg
POLISH_MIN_GAIN = 1e-6  # the ascent stops after an accepted step that gains less
POLISH_MIN_STEP = 1e-7  # ... or once a trial step is shorter than this

MODES = ("phases_only", "phases_and_state")


class InvalidParameterError(ValueError):
    """Parameter vector cannot be decoded into a state or settings."""


@dataclass(frozen=True)
class ParameterVector:
    """Flat search coordinates: gauge-fixed phases, optionally state coefficients.

    phase_params holds parties x settings x (d-1) entries in that order; the
    first phase of every setting is gauge-fixed to zero and omitted.
    state_params, when present, are unnormalized real coefficients projected
    to the unit sphere on decode.
    """

    scenario: Scenario
    phase_params: np.ndarray
    state_params: np.ndarray | None = None

    def __post_init__(self):
        sc = self.scenario
        want = sc.parties * sc.settings_per_party * (sc.dim - 1)
        pp = np.asarray(self.phase_params, dtype=float).ravel()
        if pp.size != want:
            raise InvalidParameterError(f"expected {want} phase parameters, got {pp.size}")
        object.__setattr__(self, "phase_params", pp)
        if self.state_params is not None:
            sp = np.asarray(self.state_params, dtype=float).ravel()
            if sp.size != sc.state_size:
                raise InvalidParameterError(
                    f"expected {sc.state_size} state parameters, got {sp.size}"
                )
            object.__setattr__(self, "state_params", sp)

    def decode_settings(self) -> PhaseSettings:
        sc = self.scenario
        table = np.zeros((sc.parties, sc.settings_per_party, sc.dim))
        table[:, :, 1:] = self.phase_params.reshape(
            sc.parties, sc.settings_per_party, sc.dim - 1
        )
        return PhaseSettings(sc, table)

    def decode_state(self) -> PureState:
        if self.state_params is None:
            raise InvalidParameterError("parameter vector carries no state coefficients")
        norm = float(np.linalg.norm(self.state_params))
        if norm < STATE_NORM_FLOOR:
            raise InvalidParameterError(f"state coefficients have norm {norm:.3e}")
        return PureState(self.scenario, self.state_params / norm)

    def flat(self) -> np.ndarray:
        if self.state_params is None:
            return self.phase_params.copy()
        return np.concatenate([self.phase_params, self.state_params])

    def with_flat(self, values: np.ndarray) -> "ParameterVector":
        values = np.asarray(values, dtype=float).ravel()
        npp = self.phase_params.size
        if self.state_params is None:
            return ParameterVector(self.scenario, values[:npp])
        return ParameterVector(self.scenario, values[:npp], values[npp:])

    def pullback(self, table_grad: np.ndarray, coeff_grad: np.ndarray) -> np.ndarray:
        """A gradient on the decoded phase table and state, in flat() coordinates.

        The gauge-fixed phases drop out. The state part passes through the
        decode normalization s -> s/|s|, whose Jacobian is (I - psi psi^T)/|s|.
        """
        phase = table_grad[:, :, 1:].ravel()
        if self.state_params is None:
            return phase
        norm = float(np.linalg.norm(self.state_params))
        psi = self.state_params / norm
        return np.concatenate([phase, (coeff_grad - psi * (psi @ coeff_grad)) / norm])


def encode(settings: PhaseSettings, state: PureState | None = None) -> ParameterVector:
    """Inverse of decoding: strip the gauge-fixed leading phase of each setting."""
    pp = settings.table[:, :, 1:].ravel()
    sp = None
    if state is not None:
        coeffs = state.coeffs
        if np.max(np.abs(coeffs.imag)) > 1e-12:
            raise InvalidParameterError("search coordinates cover real states only")
        sp = coeffs.real.copy()
    return ParameterVector(settings.scenario, pp, sp)


@dataclass(frozen=True)
class OptimizationConfig:
    restarts: int = 64
    rng_seed: int = 0
    max_evals_per_restart: int = 2000
    mode: str = "phases_only"

    def __post_init__(self):
        if self.restarts <= 0 or self.max_evals_per_restart <= 0:
            raise ValueError("restarts and max_evals_per_restart must be positive")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if not 0 <= self.rng_seed < 2**64:
            raise ValueError(f"rng_seed must be in [0, 2**64), got {self.rng_seed}")


@dataclass(frozen=True)
class OptimizationResult:
    """Best parameters found, and the certified solve there, witness and dual included."""

    certified: ThresholdResult
    best_settings: PhaseSettings
    best_state: PureState
    evals: int
    per_restart_log: tuple

    @property
    def best_f_thr(self) -> float:
        return self.certified.f_thr


def nelder_mead(f, start: ParameterVector, config: OptimizationConfig):
    """Maximize f by the reflect/expand/contract/shrink simplex iteration.

    No restart calls it: a restart goes from its drawn start straight into the
    gradient ascent (_polish), which reached the same bests with a fraction of
    the evaluations. It stays because the benchmark's tracer
    (perfbench/spans.py) looks this name up when it installs.

    Coefficients (1, 2, 0.5, 0.5). Terminates when the objective spread over
    the simplex drops below CONVERGENCE_TOL, when the best value is above
    FLAT_VALUE and rose by less than CONVERGENCE_TOL over the last n + 1
    evaluations (the search has stalled off the plateau), or when the
    evaluation cap is reached. Returns (best parameter vector, best value).
    """
    alpha, gamma, beta, delta = 1.0, 2.0, 0.5, 0.5
    x0 = start.flat()
    n = x0.size
    budget = config.max_evals_per_restart
    evals = 0
    best_so_far = []  # the best value after each evaluation

    def call(x):
        nonlocal evals
        evals += 1
        value = f(start.with_flat(x))
        best_so_far.append(max(best_so_far[-1], value) if best_so_far else value)
        return value

    def stalled():
        if len(best_so_far) < n + 2 or best_so_far[-1] <= FLAT_VALUE:
            return False
        return best_so_far[-1] - best_so_far[-n - 2] < CONVERGENCE_TOL

    points = np.tile(x0, (n + 1, 1))
    for i in range(n):
        points[i + 1, i] += SIMPLEX_SPREAD
    values = np.empty(n + 1)
    for i in range(n + 1):
        if evals >= budget:
            points = points[:i]
            values = values[:i]
            break
        values[i] = call(points[i])
    if len(values) == 0:
        values = np.array([call(points[0])])
        points = points[:1]

    while True:
        order = np.argsort(-values, kind="stable")
        points = points[order]
        values = values[order]
        if values[0] - values[-1] < CONVERGENCE_TOL or evals >= budget or stalled():
            break
        centroid = points[:-1].mean(axis=0)
        reflected = centroid + alpha * (centroid - points[-1])
        f_r = call(reflected)
        if f_r > values[0]:
            expanded = centroid + gamma * (reflected - centroid)
            if evals < budget:
                f_e = call(expanded)
                if f_e > f_r:
                    points[-1], values[-1] = expanded, f_e
                    continue
            points[-1], values[-1] = reflected, f_r
            continue
        if f_r > values[-2]:
            points[-1], values[-1] = reflected, f_r
            continue
        if evals >= budget:
            break
        if f_r > values[-1]:
            contracted = centroid + beta * (reflected - centroid)
        else:
            contracted = centroid + beta * (points[-1] - centroid)
        f_c = call(contracted)
        if f_c > max(f_r, values[-1]):
            points[-1], values[-1] = contracted, f_c
            continue
        # shrink toward the best point
        for i in range(1, len(points)):
            if evals >= budget:
                break
            points[i] = points[0] + delta * (points[i] - points[0])
            values[i] = call(points[i])

    i_best = int(np.argmax(values))
    return start.with_flat(points[i_best]), float(values[i_best])


def _polish(objective, gradient, params: ParameterVector, value: float, budget: int):
    """Quasi-Newton gradient ascent with Armijo backtracking from a restart's start.

    value is objective(params), and the caller's latest objective call must
    have been the one at params: gradient(p) reads the exact gradient at p off
    the solver state that the last objective(p) left, so the ascent starts
    without re-solving its start. Each step goes along H g, where H is the
    BFGS inverse-curvature estimate built from the gradients of the accepted
    points (the identity at first, so the first step is plain steepest
    ascent). A step that does not gain its Armijo share ARMIJO * t * g.Hg is
    halved; an accepted one updates H and the next step starts at full
    length. The ascent stops after an accepted step that gains less than
    POLISH_MIN_GAIN, when a trial step is shorter than POLISH_MIN_STEP, or
    when the budget of evaluations is spent. At a degenerate optimum the
    gradient is one subgradient of several and may ascend nowhere; the start
    then comes back unchanged. Returns (params, value, evaluations), the
    evaluations counting trial steps only.
    """
    point, current = params, value
    evals = 0
    grad = gradient(params)
    inverse = np.eye(grad.size)
    step = 1.0
    while evals < budget:
        direction = inverse @ grad
        if step * float(np.linalg.norm(direction)) < POLISH_MIN_STEP:
            break
        trial = point.with_flat(point.flat() + step * direction)
        trial_value = objective(trial)
        evals += 1
        if trial_value < current + ARMIJO * step * float(grad @ direction):
            step *= 0.5
            continue
        gain = trial_value - current
        point, current = trial, trial_value
        if gain < POLISH_MIN_GAIN:
            break
        new_grad = gradient(trial)
        s, y = step * direction, grad - new_grad  # y: the change in the gradient of -F
        sy = float(s @ y)
        if sy > 0.0:  # the update keeps H positive definite only under this curvature condition
            left = np.eye(s.size) - np.outer(s, y) / sy
            inverse = left @ inverse @ left.T + np.outer(s, s) / sy
        grad, step = new_grad, 1.0
    if point is params or current <= value:
        return params, value, evals
    return point, current, evals


def _restart_start(
    sc: Scenario,
    mode: str,
    index: int,
    rng: np.random.Generator,
) -> tuple[ParameterVector, np.ndarray | None]:
    """Starting point for one restart; returns (params, pinned state coeffs).

    The bundled three-qutrit tables claim the first restart indices whenever
    the scenario matches, so published optima are recovered deterministically
    rather than by sampling luck. The tabulated-state restart pins its state
    and searches phases alone; the phase-list restarts start joint search
    from the maximally entangled state.
    """
    three_qutrit = sc.parties == 3 and sc.dim == 3 and sc.settings_per_party == 2
    with_state = mode == "phases_and_state"

    def random_phases():
        return rng.uniform(0.0, 2.0 * np.pi,
                           size=sc.parties * sc.settings_per_party * (sc.dim - 1))

    if three_qutrit:
        if with_state:
            if index == 0:
                return (ParameterVector(sc, random_phases()),
                        paper_optimal_state().coeffs.real)
            if index == 1:
                return ParameterVector(sc, encode(paper_settings("maxent_3qutrit")).phase_params,
                                       ghz_state(sc).coeffs.real), None
            if index == 2:
                return ParameterVector(sc,
                                       encode(paper_settings("near_optimal_3qutrit")).phase_params,
                                       ghz_state(sc).coeffs.real), None
        else:
            if index == 0:
                return ParameterVector(
                    sc, encode(paper_settings("maxent_3qutrit")).phase_params), None
            if index == 1:
                return ParameterVector(
                    sc, encode(paper_settings("near_optimal_3qutrit")).phase_params), None
    if with_state:
        return ParameterVector(sc, random_phases(), rng.normal(size=sc.state_size)), None
    return ParameterVector(sc, random_phases()), None


def _objectives(solver: ThresholdSolver, pinned_state: PureState | None):
    """A restart's objective over parameter vectors, and its exact gradient.

    objective(params) is the threshold at the decoded state and settings
    (-1 when they do not decode). gradient(params) reads dF/dparams off the
    solve that objective just made at params: the solver's tensor gradient
    pulled back through the Born rule and the decoding. Call it only after
    objective(params) returned a threshold; a failed solve raises instead.
    """
    def decode(params: ParameterVector) -> tuple[PhaseSettings, PureState]:
        settings = params.decode_settings()
        state = pinned_state if pinned_state is not None else params.decode_state()
        return settings, state

    def objective(params: ParameterVector) -> float:
        try:
            settings, state = decode(params)
        except InvalidParameterError:
            return -1.0
        return solver.value(correlation_tensor(state, settings))

    def gradient(params: ParameterVector) -> np.ndarray:
        weights = solver.tensor_gradient()
        settings, state = decode(params)
        return params.pullback(*correlation_tensor_vjp(state, settings, weights))

    return objective, gradient


def _run_restart(args):
    """One restart: flat draws redrawn, then the exact-gradient ascent.

    Each drawn start costs one evaluation. While its value is on the plateau
    and budget remains, the start is redrawn from the restart's own stream (a
    pinned state stays pinned). The ascent (_polish) then climbs from the
    first start off the plateau with the budget that is left, taking that
    start's value and gradient from the evaluation that accepted it. A
    restart whose every draw is flat returns its last draw. Draws and ascent
    share max_evals_per_restart.
    """
    sc, config, index, fixed_coeffs, options = args
    key = np.array([config.rng_seed, index], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    solver = ThresholdSolver(sc, options)

    start, pinned_coeffs = _restart_start(sc, config.mode, index, rng)
    if fixed_coeffs is not None:
        pinned_coeffs = fixed_coeffs
    pinned_state = PureState(sc, pinned_coeffs) if pinned_coeffs is not None else None

    objective, gradient = _objectives(solver, pinned_state)
    budget = config.max_evals_per_restart
    spent = 0

    def counted(params):
        nonlocal spent
        spent += 1
        return objective(params)

    params, value = start, counted(start)
    while value <= FLAT_VALUE and spent < budget:
        params, _ = _restart_start(sc, config.mode, -1, rng)
        if pinned_state is not None and config.mode == "phases_and_state":
            params = ParameterVector(sc, params.phase_params)
        value = counted(params)
    if value > FLAT_VALUE and spent < budget:
        params, value, _ = _polish(counted, gradient, params, value, budget - spent)
    table = params.decode_settings().table
    if pinned_state is not None:
        coeffs = pinned_state.coeffs.real
    else:
        coeffs = params.decode_state().coeffs.real
    return index, value, table, coeffs, spent


def _optimize(
    sc: Scenario,
    config: OptimizationConfig,
    fixed_state: PureState | None,
    workers: int,
    options: SolverOptions | None,
) -> OptimizationResult:
    """Run every restart, then certify the best point with one cold solve."""
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    fixed_coeffs = fixed_state.coeffs.real if fixed_state is not None else None
    tasks = [(sc, config, i, fixed_coeffs, options) for i in range(config.restarts)]
    pool_size = min(workers, config.restarts)
    if pool_size > 1:
        with ProcessPoolExecutor(max_workers=pool_size) as pool:
            outcomes = list(pool.map(_run_restart, tasks))
    else:
        outcomes = [_run_restart(t) for t in tasks]

    outcomes.sort(key=lambda o: o[0])
    log = tuple((index, value) for index, value, _, _, _ in outcomes)
    total_evals = sum(spent for _, _, _, _, spent in outcomes)
    # max-reduction with the smallest restart index breaking exact ties
    best_index = max(range(len(outcomes)), key=lambda i: (outcomes[i][1], -i))
    _, best_value, table, coeffs, _ = outcomes[best_index]

    settings = PhaseSettings(sc, table)
    state = fixed_state if fixed_state is not None else _canonical_sign(PureState(sc, coeffs))
    certified = threshold(state, settings, options)
    return OptimizationResult(certified, settings, state, total_evals, log)


def _canonical_sign(state: PureState) -> PureState:
    coeffs = state.coeffs.real
    if coeffs[int(np.argmax(np.abs(coeffs)))] < 0:
        coeffs = -coeffs
    return PureState(state.scenario, coeffs)


def optimize_phases(
    state: PureState,
    config: OptimizationConfig,
    workers: int = 1,
    options: SolverOptions | None = None,
) -> OptimizationResult:
    """Best threshold over phase tables for a fixed state."""
    if config.mode != "phases_only":
        raise ValueError("optimize_phases requires mode='phases_only'")
    return _optimize(state.scenario, config, state, workers, options)


def optimize_state_and_phases(
    scenario: Scenario,
    config: OptimizationConfig,
    workers: int = 1,
    options: SolverOptions | None = None,
) -> OptimizationResult:
    """Best threshold over real states and phase tables jointly."""
    if config.mode != "phases_and_state":
        raise ValueError("optimize_state_and_phases requires mode='phases_and_state'")
    return _optimize(scenario, config, None, workers, options)
