"""Critical noise fractions for local-realistic models of correlation tensors.

The feasibility question: which fraction F of white noise makes the noisy
tensor (1-F) P + F/d^N reproducible by a joint distribution over local
deterministic assignments (one outcome per party and setting)? The smallest
such F is the threshold; it is the optimum of a linear program whose variables
are the d^(N m) assignment weights plus F itself, with one equality row per
(setting combination, outcome combination) pair and one normalization row.

The per-scenario structure of that program (the Collins-Gisin rows, which
span the equality system and are written down in closed form, and a starting
basis reached from the uniform assignment distribution at F = 1, which is
feasible for every tensor) does not depend on the tensor, so it is built once
and cached; each solve then runs only warm-started simplex pivots.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .probabilities import CorrelationTensor, ScenarioMismatchError
from .scenario import PhaseSettings, PureState, Scenario, _frozen
from .simplex import (
    INFEASIBLE,
    OPTIMAL,
    BoundedSimplex,
    LinearProgram,
    LPSolution,
    SolverFailure,
    SolverOptions,
    certified_lower_bound,
    solve_full_rank,
    solve_lp,
)
from .simplex import independent_rows  # noqa: F401  unused; perfbench/spans.py patches it here

WITNESS_MARGINAL_TOL = 1e-8
CERTIFICATE_GAP_TOL = 1e-8


@dataclass(frozen=True)
class JointDistribution:
    """Probability weights over local deterministic assignments.

    Assignment index digits are base d with coordinate p*m + s (party-major,
    setting fastest), so assignment 0 answers outcome 0 everywhere and the
    last assignment answers d-1 everywhere.
    """

    scenario: Scenario
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (self.scenario.joint_size,):
            raise ValueError(
                f"expected {self.scenario.joint_size} assignment weights, got shape {w.shape}"
            )
        if w.min(initial=0.0) < -1e-9:
            raise ValueError(f"assignment weights must be nonnegative (min {w.min()})")
        if abs(w.sum() - 1.0) > 1e-8:
            raise ValueError(f"assignment weights must sum to 1 (sum {w.sum()})")
        object.__setattr__(self, "weights", _frozen(np.maximum(w, 0.0)))


@dataclass(frozen=True)
class ThresholdResult:
    """Certified threshold: the optimum, its local model, and a dual bound."""

    f_thr: float
    witness: JointDistribution
    certificate: dict
    solver_stats: dict


_TABLES: dict[tuple[int, int, int], np.ndarray] = {}
_MARGINAL: dict[tuple[int, int, int], sp.csr_array] = {}
_WARM: dict[tuple[int, int, int], "_WarmStart"] = {}


def _key(sc: Scenario) -> tuple[int, int, int]:
    return (sc.parties, sc.dim, sc.settings_per_party)


def _assignment_tables(sc: Scenario) -> np.ndarray:
    """All assignments as an (assignments, parties, settings) outcome array."""
    key = _key(sc)
    if key not in _TABLES:
        coords = sc.parties * sc.settings_per_party
        digits = np.unravel_index(np.arange(sc.joint_size), (sc.dim,) * coords)
        _TABLES[key] = np.stack(digits, axis=1).reshape(sc.joint_size, sc.parties,
                                                        sc.settings_per_party)
    return _TABLES[key]


def assignment_marginal_matrix(sc: Scenario) -> sp.csr_array:
    """0/1 matrix taking assignment weights to stacked per-setting marginals.

    Row order matches the flattened correlation tensor: setting combinations
    party-major, then outcome combinations party-major within each block.
    """
    key = _key(sc)
    if key not in _MARGINAL:
        tables = _assignment_tables(sc)
        n_atoms = sc.joint_size
        d, parties = sc.dim, sc.parties
        out_size = d ** parties
        rows = []
        for block, combo in enumerate(np.ndindex((sc.settings_per_party,) * parties)):
            ridx = np.zeros(n_atoms, dtype=np.intp)
            for p, s in enumerate(combo):
                ridx = ridx * d + tables[:, p, s]
            rows.append(block * out_size + ridx)
        row_idx = np.concatenate(rows)
        col_idx = np.tile(np.arange(n_atoms), sc.setting_combos)
        data = np.ones(row_idx.size)
        mat = sp.coo_array((data, (row_idx, col_idx)),
                           shape=(sc.marginal_rows, n_atoms)).tocsr()
        _MARGINAL[key] = mat
    return _MARGINAL[key]


def build_threshold_lp(tensor: CorrelationTensor) -> LinearProgram:
    """The threshold LP for one tensor: variables are assignment weights then F.

    Equality rows: for every setting and outcome combination,
    (model marginal) + F (P - 1/d^N) = P, followed by a final row fixing the
    total assignment weight to 1. All variables live in [0, 1]; the objective
    is F alone, so the optimum is the threshold.
    """
    sc = tensor.scenario
    n_atoms = sc.joint_size
    probs = tensor.flat
    mixing = probs - 1.0 / sc.dim ** sc.parties
    marg = assignment_marginal_matrix(sc)
    top = sp.hstack([marg, sp.csr_array(mixing.reshape(-1, 1))], format="csr")
    norm_row = sp.csr_array(
        (np.ones(n_atoms), (np.zeros(n_atoms, dtype=np.intp), np.arange(n_atoms))),
        shape=(1, n_atoms + 1),
    )
    matrix = sp.vstack([top, norm_row], format="csr")
    objective = np.zeros(n_atoms + 1)
    objective[-1] = 1.0
    rhs = np.concatenate([probs, [1.0]])
    lower = np.zeros(n_atoms + 1)
    upper = np.ones(n_atoms + 1)
    return LinearProgram(objective, matrix, rhs, lower, upper)


def _collins_gisin_rows(sc: Scenario) -> np.ndarray:
    """Sorted indices of the marginal rows that span the whole equality system.

    Per party the rows (s=0, every a) and (s=1, a < d-1) (Collins & Gisin,
    J. Phys. A 37, 1775 (2004)); the kept rows are their tensor products,
    (2d-1)^N of them. The normalization row is their block-0 sum.
    """
    d = sc.dim
    local_setting = np.repeat([0, 1], [d, d - 1])
    local_outcome = np.concatenate([np.arange(d), np.arange(d - 1)])
    block = outcome = np.zeros(1, dtype=np.intp)
    for _ in range(sc.parties):
        block = np.add.outer(block * sc.settings_per_party, local_setting).ravel()
        outcome = np.add.outer(outcome * d, local_outcome).ravel()
    return np.sort(block * d ** sc.parties + outcome)


class _WarmStart:
    """Tensor-independent solve structure: kept rows and a starting vertex.

    The kept rows are the Collins-Gisin set. At F = 1 the equality system
    reads (model marginal) = 1/d^N for every row, which the uniform assignment
    distribution satisfies regardless of the tensor. Walking that interior
    point to a vertex of the F = 1 face, along null directions of the kept
    marginal rows, yields a starting basis whose basic values the simplex core
    recomputes from any tensor's rhs.
    """

    def __init__(self, sc: Scenario):
        n_atoms = sc.joint_size
        self.keep = _collins_gisin_rows(sc)
        self.a_keep = assignment_marginal_matrix(sc)[self.keep].toarray()
        basis, at_upper = _crossover_vertex(self.a_keep, np.full(n_atoms, 1.0 / n_atoms))
        self.basis = basis
        self.at_upper = np.append(at_upper, True)  # F starts nonbasic at its upper bound


def _crossover_vertex(a: np.ndarray, x0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Push an interior point of {a x = a x0, 0 <= x <= 1} onto a vertex.

    Each step moves along one null-space direction until a coordinate reaches
    a bound, fixes that coordinate, and eliminates it from the remaining
    directions. The free coordinates that survive form a nonsingular basis.
    """
    rows, n = a.shape
    u, s, vt = np.linalg.svd(a)
    rank = int(np.sum(s > s[0] * max(a.shape) * np.finfo(float).eps))
    if rank != rows:
        raise SolverFailure("numerical", f"kept rows not independent (rank {rank} of {rows})")
    null = vt[rank:].copy()
    x = x0.astype(float).copy()
    fixed = np.zeros(n, dtype=bool)
    at_upper = np.zeros(n, dtype=bool)
    while null.shape[0]:
        step = null[0]
        peak = np.abs(step).max()
        if peak < 1e-12:
            raise SolverFailure("numerical", "degenerate null direction during crossover")
        step = step / peak
        with np.errstate(divide="ignore", invalid="ignore"):
            t_up = np.where(step > 1e-12, (1.0 - x) / step, np.inf)
            t_dn = np.where(step < -1e-12, -x / step, np.inf)
        t_all = np.minimum(t_up, t_dn)
        t_all[fixed] = np.inf
        k = int(np.argmin(t_all))
        t = max(float(t_all[k]), 0.0)
        x += t * step
        hit_upper = step[k] > 0
        x[k] = 1.0 if hit_upper else 0.0
        at_upper[k] = hit_upper
        fixed[k] = True
        rest = null[1:]
        if rest.shape[0]:
            rest = rest - np.outer(rest[:, k] / step[k], step)
            rest[:, k] = 0.0
        null = rest
    basis = np.flatnonzero(~fixed)
    if basis.size != rows:
        raise SolverFailure("numerical", f"crossover left {basis.size} free coordinates, "
                                          f"expected {rows}")
    return basis, at_upper


def _warm_start(sc: Scenario) -> _WarmStart:
    key = _key(sc)
    if key not in _WARM:
        _WARM[key] = _WarmStart(sc)
    return _WARM[key]


def _package(
    lp: LinearProgram,
    sc: Scenario,
    primal: np.ndarray,
    dual_full: np.ndarray,
    iterations: int,
    runtime: float,
    warm: bool,
) -> ThresholdResult:
    f_thr = float(primal[-1])
    witness = JointDistribution(sc, primal[:-1])
    a = lp.eq_matrix
    residual = float(np.max(np.abs(a @ primal - lp.eq_rhs)))
    bound = certified_lower_bound(lp, dual_full)
    gap = f_thr - bound
    if residual > WITNESS_MARGINAL_TOL:
        raise SolverFailure("numerical", f"witness marginal residual {residual:.3e}")
    if gap > CERTIFICATE_GAP_TOL:
        raise SolverFailure("numerical", f"certificate gap {gap:.3e}")
    certificate = {
        "dual": dual_full,
        "lower_bound": bound,
        "gap": gap,
        "marginal_residual": residual,
    }
    stats = {
        "status": OPTIMAL,
        "iterations": iterations,
        "runtime_s": runtime,
        "warm_start": warm,
        "rows": lp.num_rows,
        "variables": lp.num_vars,
    }
    return ThresholdResult(f_thr, witness, certificate, stats)


class ThresholdSolver:
    """Repeated-solve engine for one scenario, reusing structure between calls.

    Besides the tensor-independent starting vertex, consecutive solves reuse
    the previous optimal basis. The objective never changes, so that basis
    stays dual feasible when the tensor moves, and a short dual-simplex repair
    followed by a primal cleanup usually finishes in a handful of pivots.
    value() returns just the optimum for tight optimization loops; solve()
    adds the witness and certificate.
    """

    def __init__(self, sc: Scenario, options: SolverOptions | None = None):
        self.scenario = sc
        self.options = options or SolverOptions()
        self._ws = _warm_start(sc)
        n = sc.joint_size + 1
        a0 = np.hstack([self._ws.a_keep, np.zeros((self._ws.keep.size, 1))])
        self._core = BoundedSimplex(a0, np.zeros(self._ws.keep.size),
                                    np.zeros(n), np.ones(n), self.options)
        self._objective = np.zeros(n)
        self._objective[-1] = 1.0
        self._max_pivots = (self.options.max_pivots if self.options.max_pivots is not None
                            else 100 * n)
        self._have_last = False
        self.last_pivots = 0

    def _solve_core(self, tensor: CorrelationTensor) -> BoundedSimplex:
        """Bring the shared core to a verified optimum for this tensor."""
        sc = self.scenario
        if tensor.scenario != sc:
            raise ScenarioMismatchError("tensor does not belong to this solver's scenario")
        ws = self._ws
        core = self._core
        probs = tensor.flat
        rhs_full = np.concatenate([probs, [1.0]])
        mixing_full = np.append(probs - 1.0 / sc.dim ** sc.parties, 0.0)
        core.b = rhs_full[ws.keep]
        pivots_before = core.pivots

        status = None
        if self._have_last:
            # patch the one changed column into the factorization, then repair
            # feasibility; the objective is fixed so the basis stays dual feasible
            if core.replace_column(core.n - 1, mixing_full[ws.keep]):
                core.recompute_basics()
                status = core.dual_run(self._objective, self._max_pivots)
                if status == OPTIMAL:
                    status = core.run(self._objective, self._max_pivots)
                if status != OPTIMAL or core.primal_residual() > self.options.tol_feas:
                    status = None
        else:
            core.A[:, -1] = mixing_full[ws.keep]
        if status is None:
            core.set_basis(ws.basis, ws.at_upper)
            status = core.run(self._objective, self._max_pivots)
        self.last_pivots = core.pivots - pivots_before
        if status != OPTIMAL or core.primal_residual() > self.options.tol_feas:
            raise SolverFailure(status if status != OPTIMAL else "numerical",
                                "warm-started threshold solve did not reach an optimum")
        self._have_last = True
        return core

    def _cold_solve(self, lp: LinearProgram) -> LPSolution:
        """Fallback after a failed warm solve: two-phase from scratch, or raise.

        The core's basis and inverse may be half-updated after a failure, so
        the next call starts again from the cached vertex.
        """
        self._have_last = False
        sol = solve_lp(lp, self.options)
        if sol.status != OPTIMAL:
            raise SolverFailure(sol.status, "threshold solve did not reach an optimum")
        return sol

    def value(self, tensor: CorrelationTensor) -> float:
        """The threshold alone, without witness or certificate packaging."""
        try:
            core = self._solve_core(tensor)
        except SolverFailure:
            return float(self._cold_solve(build_threshold_lp(tensor)).primal[-1])
        return float(core.x[-1])

    def solve(self, tensor: CorrelationTensor) -> ThresholdResult:
        start = time.perf_counter()
        lp = build_threshold_lp(tensor)
        try:
            core = self._solve_core(tensor)
            # certificates come from exact factors, not accumulated updates
            core.refactor()
            if core.run(self._objective, self._max_pivots) != OPTIMAL:
                raise SolverFailure("numerical", "re-verification after refactor failed")
        except SolverFailure:
            sol = self._cold_solve(lp)
            return _package(lp, self.scenario, sol.primal, sol.dual, sol.iterations,
                            time.perf_counter() - start, warm=False)
        dual_full = np.zeros(lp.num_rows)
        dual_full[self._ws.keep] = core.duals(self._objective)
        return _package(lp, self.scenario, core.x.copy(), dual_full, self.last_pivots,
                        time.perf_counter() - start, warm=True)


def threshold_from_tensor(
    tensor: CorrelationTensor,
    options: SolverOptions | None = None,
) -> ThresholdResult:
    """Threshold of one correlation tensor, with witness and dual certificate."""
    return ThresholdSolver(tensor.scenario, options).solve(tensor)


def threshold(
    state: PureState,
    settings: PhaseSettings,
    options: SolverOptions | None = None,
) -> ThresholdResult:
    """Threshold of the tensor a state produces under phased-multiport readout."""
    from .probabilities import correlation_tensor

    if state.scenario != settings.scenario:
        raise ScenarioMismatchError("state and settings describe different scenarios")
    tensor = correlation_tensor(state, settings)
    return threshold_from_tensor(tensor, options=options)


def feasible_at(
    tensor: CorrelationTensor,
    noise_fraction: float,
    options: SolverOptions | None = None,
) -> bool:
    """Whether the tensor mixed with the given noise fraction admits a local model.

    The LP runs over the cached kept rows only. Its point is then checked
    against every marginal row and the normalization row: a tensor that is
    inconsistent on a dropped row (one that signals) has no local model even
    when the kept rows alone are feasible.
    """
    from .probabilities import noisy_tensor

    sc = tensor.scenario
    opts = options or SolverOptions()
    ws = _warm_start(sc)
    probs = noisy_tensor(tensor, noise_fraction).flat
    n = sc.joint_size
    lp = LinearProgram(np.zeros(n), ws.a_keep, probs[ws.keep], np.zeros(n), np.ones(n))
    sol = solve_full_rank(lp, opts)
    if sol.status == INFEASIBLE:
        return False
    if sol.status != OPTIMAL:
        raise SolverFailure(sol.status, "feasibility check did not finish")
    x = sol.primal
    residual = max(float(np.max(np.abs(assignment_marginal_matrix(sc) @ x - probs))),
                   abs(float(x.sum()) - 1.0))
    return residual <= opts.tol_feas
