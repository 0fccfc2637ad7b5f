"""Maximization of the noise threshold over phases and states.

The objective is an LP value function of the phase tables (and optionally the
state coefficients): continuous and piecewise smooth, but non-convex, and
exactly zero on the full-dimensional region where the correlations already
admit a local model. Many restarts handle the non-convexity. The zero plateau
is handled inside each restart: it draws starts from its own random stream,
each costing one evaluation, until one is off the plateau or the budget is
spent. Most draws land on the plateau, so draws come in blocks of
REDRAW_BLOCK, and a block costs one evaluation per draw up to the one that
starts the ascent; the draws after it are dropped unevaluated. Every point,
a draw or an ascent step, is a flat coordinate row (gauge-fixed phases, then
state coefficients unless the state is pinned), and one evaluator takes
every block of rows (a bundled start or an ascent step is a block of one):
canonical phases, one Born contraction and one validation, then the
threshold. With two settings and at most three outcomes, at two or three
parties, a block of draws is screened first: the two-party facets, read on
every pair of parties with the other party's setting and outcome fixed,
bound each draw's threshold from below in one product per pair, and the
start is the block's first draw they prove off the plateau, with no value
of the draws before it. At two parties the largest bound is the threshold
itself, so every point is valued by it, with no LP, and a block with no
proven draw is flat. Elsewhere every point is one warm LP solve, and at
three parties a block with no proven draw is solved draw by draw, up to its
first draw off the plateau.

From the first start off the plateau, the rest of the restart's budget goes
to a quasi-Newton gradient ascent with Armijo backtracking. The gradient is
exact and costs no extra LP solve. With y the optimal duals of the solve on
the kept rows, the envelope theorem gives dF/dtheta = (1 - F) y .
dP_keep/dtheta, because the tensor enters both the right-hand side and the F
column; the closed form differentiates the facet that sets the threshold.
The Born layer pulls that weight vector back to the phases and state in one
backward pass (correlation_tensor_vjp), at the table and unit state the
evaluator kept for the row it last solved. At a degenerate optimum the
gradient is one subgradient of several, so the restart keeps its start unless
a step ascends.

Restart streams use counter-based keys (base seed, restart index), so results
do not depend on scheduling order and any subset of restarts can be
reproduced in isolation.

The best point of all restarts is certified by one LP solve (witness and
dual certificate). A restart valued by LP returns the basis its solver last
held optimal, at the point it returns or at a trial a short step from it,
and the certified solve repairs from the best restart's basis, so it takes
few pivots, often none. The basis travels with the restart's outcome, so the
certificate is the same for any worker count. Restarts valued through the
facets hold no basis, and their certified solve starts cold.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .probabilities import _checked_tensor, born_probabilities, checked_probabilities, \
    correlation_tensor_vjp
from .probabilities import correlation_tensor  # noqa: F401  unused; perfbench/spans.py patches it here
from .scenario import PhaseSettings, PureState, Scenario, _real, canonical_phases, ghz_state, \
    paper_optimal_state, paper_settings, tritter_unitary
from .simplex import SolverOptions
from .threshold import ThresholdResult, ThresholdSolver, _FacetThreshold, _facet_rows, threshold

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


def _polish(evaluate, gradient, start: np.ndarray, value: float, budget: int):
    """Quasi-Newton gradient ascent with Armijo backtracking from a restart's start.

    Points are flat coordinate rows, and each trial point is evaluated as a
    block of one by the restart's evaluator (_evaluator). value is the
    start's, and the row the evaluator last solved must be start (the block
    that accepted it did): gradient() reads the exact gradient at the row
    last solved, so the ascent starts without re-solving its start, and
    after an accepted step it reads the gradient at that step's point. Each
    step goes along H g, where H is the BFGS inverse-curvature estimate
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
    grad = gradient()
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
        _, trial_value = evaluate(trial[np.newaxis])
        if trial_value < current + ARMIJO * step * float(grad @ direction):
            step *= 0.5
            continue
        gain = trial_value - current
        point, current = trial, trial_value
        if gain < POLISH_MIN_GAIN:
            break
        new_grad = gradient()
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


def _draws(sc: Scenario, with_state: bool, count: int, rng: np.random.Generator) -> np.ndarray:
    """count random starts as flat coordinate rows: phases, then (with_state) state coefficients.

    Each row takes its phases, then its coefficients, from the stream, so
    count draws at once read the stream exactly as count draws one at a time
    do.
    """
    size = sc.parties * sc.settings_per_party * (sc.dim - 1)
    rows = np.empty((count, size + (sc.state_size if with_state else 0)))
    for row in rows:
        row[:size] = rng.uniform(0.0, 2.0 * np.pi, size=size)
        if with_state:
            row[size:] = rng.normal(size=sc.state_size)
    return rows


def _restart_start(sc: Scenario, mode: str, index: int, rng: np.random.Generator
                   ) -> tuple[np.ndarray, np.ndarray | None] | None:
    """A restart's bundled start as a block of one flat row, or None when its start is drawn.

    Returns (row[1, .], pinned state coefficients or None). The bundled
    three-qutrit tables claim the first restart indices whenever the
    scenario matches, so published optima are recovered deterministically
    rather than by sampling luck. The tabulated-state restart pins its state
    and draws its phases alone, here, as the first draw of its stream; the
    phase-list restarts start joint search from the maximally entangled
    state. Every other restart returns None, and its start is the first row
    of its first block of draws.
    """
    if sc != Scenario(parties=3, dim=3, settings_per_party=2):
        return None
    joint = mode == "phases_and_state"
    if joint:
        if index == 0:
            return _draws(sc, False, 1, rng), paper_optimal_state().coeffs.real
        index -= 1
    if index not in (0, 1):
        return None
    table = paper_settings(("maxent_3qutrit", "near_optimal_3qutrit")[index]).table
    row = table[:, :, 1:].ravel()
    if joint:
        row = np.concatenate([row, ghz_state(sc).coeffs.real])
    return row[np.newaxis], None


def _decode_rows(sc: Scenario, pinned: np.ndarray | None, rows: np.ndarray):
    """Flat coordinate rows as canonical phase tables and unit states.

    Each row holds gauge-fixed phases, then unnormalized state coefficients,
    which are absent when every row takes the unit state pinned. Returns
    (tables, decoded, states, norms): every row's table, the rows whose state
    has norm at least STATE_NORM_FLOOR, and their unit states and norms
    (norms None when pinned), as ParameterVector decodes them.
    """
    count = len(rows)
    size = sc.parties * sc.settings_per_party * (sc.dim - 1)
    tables = np.zeros((count, sc.parties, sc.settings_per_party, sc.dim))
    tables[..., 1:] = rows[:, :size].reshape(count, sc.parties, sc.settings_per_party, sc.dim - 1)
    tables = canonical_phases(tables)
    if pinned is not None:
        return tables, np.arange(count), np.broadcast_to(pinned, (count, sc.state_size)), None
    coeffs = rows[:, size:]
    norms = np.sqrt([c.dot(c) for c in coeffs])  # np.linalg.norm's arithmetic, row by row
    decoded = (norms >= STATE_NORM_FLOOR).nonzero()[0]
    return tables, decoded, coeffs[decoded] / norms[decoded, np.newaxis], norms[decoded]


def _born_rows(sc: Scenario, tables: np.ndarray, states: np.ndarray) -> np.ndarray:
    """The Born tensors of stacked tables and unit states: one contraction, one validation."""
    return checked_probabilities(sc, born_probabilities(states, tritter_unitary(sc.dim, tables)))


def _facet_proofs(sc: Scenario, tensors: np.ndarray) -> np.ndarray:
    """Which tensors of a stack the two-party facets prove off the plateau.

    tensors is indexed [stack, x_1, ..., x_N, a_1, ..., a_N], at a scenario
    _facet_rows covers. For each pair of parties, one product of the facet
    rows against every tensor's (x, y, a, b) columns, one per other party's
    (z, k) where there is one, reads each row's excess X. A tensor is proven
    where some excess is above its row's bar, FLAT_VALUE slack /
    (1 - FLAT_VALUE): there its bound X/(X + slack) on the threshold is
    above FLAT_VALUE.
    """
    rows, slack = _facet_rows(sc)
    bars = (FLAT_VALUE / (1.0 - FLAT_VALUE)) * slack[:, np.newaxis]
    count, n = len(tensors), sc.parties
    margin = np.full(count, -np.inf)  # each tensor's largest excess over its bar
    for pair in itertools.combinations(range(n), 2):
        rest = [p for p in range(n) if p not in pair]
        axes = [1 + p for p in pair] + [1 + n + p for p in pair] + [0] \
            + [1 + p for p in rest] + [1 + n + p for p in rest]
        over = rows @ tensors.transpose(axes).reshape(rows.shape[1], -1)
        over -= bars  # above 0 exactly where the excess is above the bar
        np.maximum(margin, over.max(axis=0).reshape(count, -1).max(axis=1), out=margin)
    return margin > 0.0


def _evaluator(solver: ThresholdSolver | _FacetThreshold, pinned: np.ndarray | None):
    """A restart's one evaluator of flat coordinate rows, and the exact gradient it leaves.

    evaluate(rows) takes a block of rows as _draws gives them (a bundled
    start or an ascent step is a block of one; phase columns alone when the
    state is pinned) and returns (k, value) for the first row it values
    above FLAT_VALUE, in row order, or for the block's last row when every
    row is flat. The block is decoded at once (_decode_rows); a row whose
    state does not decode is worth -1, and the rest are contracted and
    validated together (_born_rows). The solver then values them one
    value() at a time, in row order, up to the first row off the plateau.
    Where the two-party facets are known (_facet_rows) a block of two or
    more rows is screened first (_facet_proofs): a row they prove is off the
    plateau, so the values start at the block's first proven row, and the
    rows before it are skipped unvalued. A proven row that value() still
    puts at or below FLAT_VALUE (rounding alone) is passed over like any
    flat row. With no proven row, ThresholdSolver starts at row 0, since at
    three parties the facets only bound the threshold from below, and
    _FacetThreshold values the last row alone, since at two parties they
    give the threshold itself.

    gradient() is dF/dx at the row that value() last solved: the solver's
    tensor gradient pulled back through the Born rule
    (correlation_tensor_vjp) and the state's normalization s -> s/|s|
    (Jacobian (I - psi psi^T)/|s|), from the table, unit state and norm that
    evaluate() kept for that row. Call it only after evaluate() returned
    that row's threshold; a failed solve raises instead.
    """
    sc = solver.scenario
    screened = _facet_rows(sc) is not None
    exact = isinstance(solver, _FacetThreshold)
    kept = None  # (table, unit state, norm) of the row value() last solved

    def evaluate(rows: np.ndarray) -> tuple[int, float]:
        nonlocal kept
        count = len(rows)
        tables, decoded, states, norms = _decode_rows(sc, pinned, rows)
        values = np.full(count, -1.0)
        if decoded.size:
            tensors = _born_rows(sc, tables[decoded], states)
            first = 0
            if screened and count > 1:
                proven = _facet_proofs(sc, tensors)
                if proven.any():
                    first = int(proven.argmax())
                elif exact:  # the last row, or none when it does not decode
                    first = int(np.searchsorted(decoded, count - 1))
            for j in range(first, decoded.size):
                k = decoded[j]
                kept = tables[k], states[j], None if norms is None else norms[j]
                values[k] = solver.value(_checked_tensor(sc, tensors[j]))
                if values[k] > FLAT_VALUE:
                    return int(k), float(values[k])
        return count - 1, float(values[-1])

    def gradient() -> np.ndarray:
        table, psi, norm = kept
        table_grad, coeff_grad = correlation_tensor_vjp(sc, table, psi, solver.tensor_gradient())
        phase = table_grad[:, :, 1:].ravel()
        if norm is None:
            return phase
        return np.concatenate([phase, (coeff_grad - psi * (psi @ coeff_grad)) / norm])

    return evaluate, gradient


def _run_restart(args):
    """One restart: draws until one is off the plateau, then the exact-gradient ascent.

    Every point is a flat coordinate row, valued by the restart's one
    evaluator (_evaluator). The first block is the restart's bundled start
    when it has one (_restart_start), a block of one row; otherwise it is
    min(REDRAW_BLOCK, budget) draws from the restart's own stream, whose row
    0 is its start. While the value is on the plateau and budget remains,
    the next block is min(REDRAW_BLOCK, budget left) further draws. Under a
    pinned state the draws still take their coefficients from the stream,
    which keeps it in step, and the rows are cut to their phase columns.
    Each block costs one evaluation per draw up to and including the draw
    the evaluator accepts off the plateau (the block's first draw the
    two-party facets prove, where they are known and prove one; otherwise
    its first draw off the plateau), and the draws after it are never used: the
    restart reads its stream only here. The ascent (_polish) then climbs
    from that draw with the budget that is left, from the value and solver
    state the block left at it. A restart whose every draw is flat returns
    its last draw. Draws and ascent share max_evals_per_restart. The
    endpoint is decoded as a row too (_decode_rows).

    Every point is valued through the facets at two parties, where they give
    the threshold (_FacetThreshold), and by ThresholdSolver.value elsewhere.
    Returns (index, value, table, unit state, evaluations, basis): basis is
    the LP solver's last optimum as ThresholdSolver.last_basis() gives it,
    the one the certified solve starts from, and None under the facets.
    """
    sc, config, index, pinned, options = args
    key = np.array([config.rng_seed, index], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    exact = sc.parties == 2 and _facet_rows(sc) is not None
    solver = _FacetThreshold(sc) if exact else ThresholdSolver(sc, options)

    start = _restart_start(sc, config.mode, index, rng)
    if start is not None and pinned is None:
        pinned = start[1]
    with_state = config.mode == "phases_and_state"
    width = sc.parties * sc.settings_per_party * (sc.dim - 1) \
        + (sc.state_size if pinned is None else 0)

    evaluate, gradient = _evaluator(solver, pinned)
    budget = config.max_evals_per_restart
    value, spent = -1.0, 0  # nothing evaluated yet
    while value <= FLAT_VALUE and spent < budget:
        if spent == 0 and start is not None:
            rows = start[0]
        else:
            rows = _draws(sc, with_state, min(REDRAW_BLOCK, budget - spent), rng)[:, :width]
        k, value = evaluate(rows)
        point = rows[k]
        spent += k + 1
    if value > FLAT_VALUE and spent < budget:
        point, value, evals = _polish(evaluate, gradient, point, value, budget - spent)
        spent += evals
    tables, _, states, _ = _decode_rows(sc, pinned, point[np.newaxis])
    basis = None if exact else solver.last_basis()
    return index, value, tables[0], states[0], spent, basis


def _optimize(
    sc: Scenario,
    config: OptimizationConfig,
    fixed_state: PureState | None,
    workers: int,
    options: SolverOptions | None,
) -> OptimizationResult:
    """Run every restart, then certify the best point with one solve.

    The certified solve starts from the basis the best restart's LP solver
    ended on, which is optimal at the best point or at a trial a short step
    from it, so it takes few pivots, often none; under the facets, or when
    that basis fails, it starts cold. The basis travels with the restart's
    outcome, so the certificate does not depend on the worker count.
    """
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
    log = tuple((index, value) for index, value, *_ in outcomes)
    total_evals = sum(outcome[4] for outcome in outcomes)
    # max-reduction with the smallest restart index breaking exact ties
    best_index = max(range(len(outcomes)), key=lambda i: (outcomes[i][1], -i))
    _, best_value, table, coeffs, _, basis = outcomes[best_index]

    settings = PhaseSettings(sc, table)
    state = fixed_state if fixed_state is not None else _canonical_sign(PureState(sc, coeffs))
    certified = threshold(state, settings, options, start=basis)
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
