"""Maximization of the noise threshold over phases and states.

The objective is an LP value function of the phase tables (and optionally the
state coefficients): continuous and piecewise smooth, but non-convex, and
exactly zero on the full-dimensional region where the correlations already
admit a local model. Many restarts handle the non-convexity. The zero plateau
is handled inside each restart: it draws starts from its own random stream,
each costing one evaluation, until one is off the plateau or the budget is
spent. Most draws land on the plateau, so draws come in blocks of
REDRAW_BLOCK; the draws after the first one off the plateau are dropped
unevaluated, which leaves every result as drawing one start at a time would.
Every point, a draw or an ascent step, is a flat coordinate row, and one path
evaluates a whole block of rows (a bundled start or an ascent step is a block
of one): canonical phases, one Born contraction and one validation, then the
threshold. With two parties and at most three outcomes the threshold has a
closed form over the local polytope's facets, with no LP (a block of draws is
screened with one product against the facets); elsewhere every point is one
warm LP solve.

From the first start off the plateau, the rest of the restart's budget goes
to a quasi-Newton gradient ascent with Armijo backtracking. The gradient is
exact and costs no extra LP solve. With y the optimal duals of the solve on
the kept rows, the envelope theorem gives dF/dtheta = (1 - F) y .
dP_keep/dtheta, because the tensor enters both the right-hand side and the F
column; the closed form differentiates the facet that sets the threshold.
The Born layer pulls that weight vector back to the phases and state in one
backward pass (correlation_tensor_vjp). At a degenerate optimum the
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

from .probabilities import _checked_tensor, born_probabilities, checked_probabilities, \
    correlation_tensor_vjp
from .probabilities import correlation_tensor  # noqa: F401  unused; perfbench/spans.py patches it here
from .scenario import PhaseSettings, PureState, Scenario, _real, canonical_phases, ghz_state, \
    paper_optimal_state, paper_settings, tritter_unitary
from .simplex import SolverOptions
from .threshold import ThresholdResult, ThresholdSolver, _FacetThreshold, _has_facet_form, \
    threshold

STATE_NORM_FLOOR = 1e-8
FLAT_VALUE = 1e-6  # objective values at or below this count as the local plateau
SIMPLEX_SPREAD = 0.3  # step from the start to each other initial Nelder-Mead vertex
CONVERGENCE_TOL = 1e-4  # Nelder-Mead stops once its simplex's objective spread is below this
ARMIJO = 1e-4  # an ascent step t*Hg must gain at least ARMIJO * t * g.Hg
POLISH_MIN_GAIN = 1e-6  # the ascent stops after an accepted step that gains less
POLISH_MIN_STEP = 1e-7  # ... or once a trial step is shorter than this
REDRAW_BLOCK = 16  # redraws a restart draws, contracts and screens together

MODES = ("phases_only", "phases_and_state")


class InvalidParameterError(ValueError):
    """Parameter vector cannot be decoded into a state or settings."""


def _coordinates(values, field: str, size: int) -> np.ndarray:
    """values as a new flat float array of size finite entries; raises InvalidParameterError."""
    try:
        a = _real(values, field).ravel()
    except ValueError as exc:
        raise InvalidParameterError(str(exc)) from None
    if a.size != size:
        raise InvalidParameterError(f"expected {size} {field}, got {a.size}")
    if not np.all(np.isfinite(a)):
        raise InvalidParameterError(f"{field} must be finite")
    return a


@dataclass(frozen=True)
class ParameterVector:
    """Flat search coordinates: gauge-fixed phases, optionally state coefficients.

    phase_params holds parties x settings x (d-1) entries in that order; the
    first phase of every setting is gauge-fixed to zero and omitted.
    state_params, when present, are unnormalized real coefficients projected
    to the unit sphere on decode. Every entry must be finite and real (complex
    input with a zero imaginary part is taken as real).
    """

    scenario: Scenario
    phase_params: np.ndarray
    state_params: np.ndarray | None = None

    def __post_init__(self):
        sc = self.scenario
        want = sc.parties * sc.settings_per_party * (sc.dim - 1)
        object.__setattr__(self, "phase_params",
                           _coordinates(self.phase_params, "phase parameters", want))
        if self.state_params is not None:
            object.__setattr__(self, "state_params",
                               _coordinates(self.state_params, "state parameters", sc.state_size))

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
        values = np.ravel(values)
        npp = self.phase_params.size
        if self.state_params is None:
            return ParameterVector(self.scenario, values[:npp])
        return ParameterVector(self.scenario, values[:npp], values[npp:])


def encode(settings: PhaseSettings, state: PureState | None = None) -> ParameterVector:
    """Inverse of decoding: strip the gauge-fixed leading phase of each setting."""
    return ParameterVector(settings.scenario, settings.table[:, :, 1:],
                           None if state is None else state.coeffs)


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


def _polish(objective, gradient, start: np.ndarray, value: float, budget: int):
    """Quasi-Newton gradient ascent with Armijo backtracking from a restart's start.

    Points are flat coordinate arrays (ParameterVector.flat()'s layout).
    value is objective(start), and the solver's latest evaluation must have
    been the one at start (the block that accepted start, or an objective
    call): gradient(x) reads the exact gradient at x off the solver state
    that evaluation left, so the ascent starts without re-solving its start.
    Each step goes along H g, where H is the BFGS inverse-curvature estimate
    built from the gradients of the accepted points (the identity at first,
    so the first step is plain steepest ascent). A step that does not gain
    its Armijo share ARMIJO * t * g.Hg is halved; an accepted one updates H
    and the next step starts at full length. Each trial point is checked for
    finiteness here, once: a non-finite one counts as an evaluation worth -1,
    like a point whose state does not decode, and its step is halved. The
    ascent stops after an accepted step that gains less than POLISH_MIN_GAIN,
    when a trial step is shorter than POLISH_MIN_STEP, when the budget of
    evaluations is spent, or at a gradient with a non-finite entry, before
    any step along it. At a degenerate optimum the gradient is one
    subgradient of several and may ascend nowhere; the start then comes back
    unchanged. Returns (point, value, evaluations), the evaluations counting
    trial steps only.
    """
    point, current = start, value
    evals = 0
    grad = gradient(start)
    if not np.isfinite(grad).all():
        return start, value, evals
    identity = np.eye(grad.size)
    inverse, step = identity, 1.0
    while evals < budget:
        direction = inverse @ grad
        if step * float(np.linalg.norm(direction)) < POLISH_MIN_STEP:
            break
        evals += 1
        trial = point + step * direction
        if not np.isfinite(trial).all():
            step *= 0.5
            continue
        trial_value = objective(trial)
        if trial_value < current + ARMIJO * step * float(grad @ direction):
            step *= 0.5
            continue
        gain = trial_value - current
        point, current = trial, trial_value
        if gain < POLISH_MIN_GAIN:
            break
        new_grad = gradient(trial)
        if not np.isfinite(new_grad).all():
            break
        s, y = step * direction, grad - new_grad  # y: the change in the gradient of -F
        sy = float(s @ y)
        if sy > 0.0:  # the update keeps H positive definite only under this curvature condition
            left = identity - s[:, np.newaxis] * y / sy
            inverse = left @ inverse @ left.T + s[:, np.newaxis] * s / sy
        grad, step = new_grad, 1.0
    if point is start or current <= value:
        return start, value, evals
    return point, current, evals


def _draws(sc: Scenario, with_state: bool, count: int,
           rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray | None]:
    """count random starts, stacked: (phases, state coefficients or None).

    Each start takes its phases, then (with_state) its state coefficients,
    from the stream, so count draws at once read the stream exactly as count
    draws one at a time do.
    """
    phases = np.empty((count, sc.parties * sc.settings_per_party * (sc.dim - 1)))
    coeffs = np.empty((count, sc.state_size)) if with_state else None
    for k in range(count):
        phases[k] = rng.uniform(0.0, 2.0 * np.pi, size=phases.shape[1])
        if with_state:
            coeffs[k] = rng.normal(size=sc.state_size)
    return phases, coeffs


def _restart_start(sc: Scenario, mode: str, index: int, rng: np.random.Generator
                   ) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None] | None:
    """A restart's bundled start as one stacked row, or None when its start is drawn.

    Returns (phases[1, .], state coefficients[1, .] or None, pinned state
    coefficients or None). The bundled three-qutrit tables claim the first
    restart indices whenever the scenario matches, so published optima are
    recovered deterministically rather than by sampling luck. The
    tabulated-state restart pins its state and draws its phases alone, here,
    as the first draw of its stream; the phase-list restarts start joint
    search from the maximally entangled state. Every other restart returns
    None, and its start is the first row of its first block of draws.
    """
    if sc != Scenario(parties=3, dim=3, settings_per_party=2):
        return None
    joint = mode == "phases_and_state"
    if joint:
        if index == 0:
            return _draws(sc, False, 1, rng) + (paper_optimal_state().coeffs.real,)
        index -= 1
    if index not in (0, 1):
        return None
    table = paper_settings(("maxent_3qutrit", "near_optimal_3qutrit")[index])
    ghz = ghz_state(sc).coeffs.real[np.newaxis] if joint else None
    return encode(table).phase_params[np.newaxis], ghz, None


def _decode_rows(sc: Scenario, pinned: np.ndarray | None, phases: np.ndarray,
                 coeffs: np.ndarray | None):
    """Stacked coordinate rows as canonical phase tables and unit states.

    phases holds one row of gauge-fixed phases per point, and coeffs their
    unnormalized state coefficients, ignored when every point takes the unit
    state pinned. Returns (tables, decoded, states, norms): every row's table,
    the rows whose state has norm at least STATE_NORM_FLOOR, and their unit
    states and norms (norms None when pinned), as ParameterVector decodes them.
    """
    count = len(phases)
    tables = np.zeros((count, sc.parties, sc.settings_per_party, sc.dim))
    tables[..., 1:] = phases.reshape(count, sc.parties, sc.settings_per_party, sc.dim - 1)
    tables = canonical_phases(tables)
    if pinned is not None:
        return tables, np.arange(count), np.broadcast_to(pinned, (count, sc.state_size)), None
    norms = np.sqrt([c.dot(c) for c in coeffs])  # np.linalg.norm's arithmetic, row by row
    decoded = (norms >= STATE_NORM_FLOOR).nonzero()[0]
    return tables, decoded, coeffs[decoded] / norms[decoded, np.newaxis], norms[decoded]


def _born_rows(sc: Scenario, tables: np.ndarray, states: np.ndarray) -> np.ndarray:
    """The Born tensors of stacked tables and unit states: one contraction, one validation."""
    return checked_probabilities(sc, born_probabilities(states, tritter_unitary(sc.dim, tables)))


def _objectives(solver: ThresholdSolver | _FacetThreshold, pinned: np.ndarray | None):
    """A restart's objective over flat coordinate arrays, and its exact gradient.

    objective(x) is the threshold at x by the blocks' path (_decode_rows,
    _born_rows, one value()), or -1 when x's state does not decode; only the
    ascent (_polish) calls it. gradient(x) reads dF/dx off the solver's
    latest evaluation, which must have been at x, pulling the solver's tensor
    gradient back through the Born rule (correlation_tensor_vjp) and the
    state's normalization s -> s/|s| (Jacobian (I - psi psi^T)/|s|). Call it
    only after the block that accepted x, or objective(x), returned a
    threshold; a failed solve raises instead. It reuses the table and unit
    state objective(x) built when x is that evaluation's array, and decodes
    x afresh otherwise (a block's accepted draw).
    """
    sc = solver.scenario
    size = sc.parties * sc.settings_per_party * (sc.dim - 1)
    kept = (None, None)  # (x, decode(x)) of the latest evaluation

    def decode(x: np.ndarray):
        return _decode_rows(sc, pinned, x[np.newaxis, :size], x[np.newaxis, size:])

    def objective(x: np.ndarray) -> float:
        nonlocal kept
        kept = (x, decode(x))
        tables, decoded, states, _ = kept[1]
        if not decoded.size:
            return -1.0
        return solver.value(_checked_tensor(sc, _born_rows(sc, tables, states)[0]))

    def gradient(x: np.ndarray) -> np.ndarray:
        tables, _, states, norms = kept[1] if kept[0] is x else decode(x)
        psi = states[0]
        table_grad, coeff_grad = correlation_tensor_vjp(sc, tables[0], psi,
                                                        solver.tensor_gradient())
        phase = table_grad[:, :, 1:].ravel()
        if norms is None:
            return phase
        return np.concatenate([phase, (coeff_grad - psi * (psi @ coeff_grad)) / norms[0]])

    return objective, gradient


def _first_off_plateau(solver: ThresholdSolver | _FacetThreshold, pinned: np.ndarray | None,
                       phases: np.ndarray, coeffs: np.ndarray | None) -> tuple[int, float]:
    """The first of a block of draws whose threshold is above FLAT_VALUE, in stream order.

    Every draw of a restart is evaluated here, its start included: phases and
    coeffs are stacked as _draws gives them, or as the one row of a bundled
    start (_restart_start); coeffs is ignored (and may be None) when the
    state is pinned. Returns (k, value) for that draw, or for the block's
    last draw when every draw is flat, with value exactly what objective()
    gives at the draw. The block is decoded at once (_decode_rows); a draw
    whose state does not decode is worth -1, and the rest are contracted and
    validated together (_born_rows). ThresholdSolver then solves them one
    value() at a time, in stream order, up to the first draw off the
    plateau. _FacetThreshold first values the whole block with one product
    (values()); since that differs from value() by rounding alone, a draw it
    puts at or below FLAT_VALUE / 2 is flat, and only the others, and the
    last draw, are valued by value().
    """
    sc = solver.scenario
    count = len(phases)
    tables, decoded, states, _ = _decode_rows(sc, pinned, phases, coeffs)
    values = np.full(count, -1.0)
    if decoded.size:
        tensors = _born_rows(sc, tables[decoded], states)
        facets = isinstance(solver, _FacetThreshold)
        screen = solver.values(tensors.reshape(decoded.size, -1)) if facets else None
        for j, k in enumerate(decoded):
            if screen is not None and screen[j] <= FLAT_VALUE / 2 and k < count - 1:
                continue
            values[k] = solver.value(_checked_tensor(sc, tensors[j]))
            if values[k] > FLAT_VALUE:
                return int(k), float(values[k])
    return count - 1, float(values[-1])


def _run_restart(args):
    """One restart: draws until one is off the plateau, then the exact-gradient ascent.

    Every draw is evaluated in a block (_first_off_plateau). The first block
    is the restart's bundled start when it has one (_restart_start), a block
    of one row; otherwise it is min(REDRAW_BLOCK, budget) draws from the
    restart's own stream, whose row 0 is its start. While the value is on the
    plateau and budget remains, the next block is min(REDRAW_BLOCK, budget
    left) further draws; the draws of a pinned state's coefficients are
    drawn and ignored, so the stream stays in step. Each block costs one
    evaluation per draw up to and including the first draw off the plateau,
    and the draws after it are never used: the restart reads its stream only
    here, so it ends exactly as drawing and evaluating one start at a time
    would. The ascent (_polish) then climbs from that draw with the budget
    that is left, from the value and solver state the block left at it. A
    restart whose every draw is flat returns its last draw. Draws and ascent
    share max_evals_per_restart.

    Every point is evaluated through the facets where the threshold has a
    closed form (_has_facet_form), and by ThresholdSolver.value elsewhere.
    """
    sc, config, index, pinned, options = args
    key = np.array([config.rng_seed, index], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    solver = _FacetThreshold(sc) if _has_facet_form(sc) else ThresholdSolver(sc, options)

    start = _restart_start(sc, config.mode, index, rng)
    if start is not None and pinned is None:
        pinned = start[2]
    with_state = config.mode == "phases_and_state"

    objective, gradient = _objectives(solver, pinned)
    budget = config.max_evals_per_restart
    value, spent = -1.0, 0  # nothing evaluated yet
    while value <= FLAT_VALUE and spent < budget:
        if spent == 0 and start is not None:
            phases, coeffs, _ = start
        else:
            phases, coeffs = _draws(sc, with_state, min(REDRAW_BLOCK, budget - spent), rng)
        k, value = _first_off_plateau(solver, pinned, phases, coeffs)
        point = phases[k] if pinned is not None else np.concatenate([phases[k], coeffs[k]])
        spent += k + 1
    if value > FLAT_VALUE and spent < budget:
        point, value, evals = _polish(objective, gradient, point, value, budget - spent)
        spent += evals
    size = phases.shape[1]
    params = ParameterVector(sc, point[:size], None if pinned is not None else point[size:])
    state = PureState(sc, pinned) if pinned is not None else params.decode_state()
    return index, value, params.decode_settings().table, state.coeffs.real, spent


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
