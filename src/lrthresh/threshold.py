"""Critical noise fractions for local-realistic models of correlation tensors.

The feasibility question: which fraction F of white noise makes the noisy
tensor (1-F) P + F/d^N reproducible by a joint distribution over local
deterministic assignments (one outcome per party and setting)? The smallest
such F is the threshold; it is the optimum of a linear program whose variables
are the d^(N m) assignment weights plus F itself, with one equality row per
(setting combination, outcome combination) pair and one normalization row.

The per-scenario structure of that program does not depend on the tensor and
is written down in closed form: the Collins-Gisin rows, which span the
equality system, and a starting basis of assignment columns whose matrix on
those rows is a Kronecker product of one small block per party. With F at 0
that basis is dual feasible for every tensor, so each solve runs only dual
and primal simplex pivots, from it or from the previous optimum.
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
_KEPT: dict[tuple[int, int, int], tuple[np.ndarray, np.ndarray]] = {}


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


def _kept_rows(sc: Scenario) -> tuple[np.ndarray, np.ndarray]:
    """The Collins-Gisin row indices and their dense marginal rows, cached."""
    key = _key(sc)
    if key not in _KEPT:
        keep = _collins_gisin_rows(sc)
        _KEPT[key] = keep, assignment_marginal_matrix(sc)[keep].toarray()
    return _KEPT[key]


def _collins_gisin_basis(sc: Scenario) -> np.ndarray:
    """Assignment columns of the closed-form starting basis, one per kept row.

    Per party the 2d-1 local strategies (a at s=0, a at s=1) = (k, k) for
    every k and (0, a) for a >= 1, combined as tensor products in
    _collins_gisin_rows' digit order. On the kept rows these columns form the
    Kronecker product of one nonsingular (2d-1) x (2d-1) block per party.
    """
    d = sc.dim
    local = np.concatenate([np.arange(d) * (d + 1), np.arange(1, d)])  # digits k,k then 0,a
    basis = np.zeros(1, dtype=np.intp)
    for _ in range(sc.parties):
        basis = np.add.outer(basis * d ** sc.settings_per_party, local).ravel()
    return basis


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

    The objective never changes, so any basis stays dual feasible when the
    tensor moves. A cold solve starts from the closed-form Collins-Gisin
    basis; later solves start from the previous optimal basis. Either way a
    dual-simplex repair followed by a primal cleanup finishes the solve, after
    a small tensor step usually in a handful of pivots.
    value() returns just the optimum for tight optimization loops; solve()
    adds the witness and certificate.
    """

    def __init__(self, sc: Scenario, options: SolverOptions | None = None):
        self.scenario = sc
        self.options = options or SolverOptions()
        self._keep, a_keep = _kept_rows(sc)
        self._basis = _collins_gisin_basis(sc)
        n = sc.joint_size + 1
        a0 = np.hstack([a_keep, np.zeros((self._keep.size, 1))])
        self._core = BoundedSimplex(a0, np.zeros(self._keep.size),
                                    np.zeros(n), np.ones(n), self.options)
        self._objective = np.zeros(n)
        self._objective[-1] = 1.0
        self._max_pivots = (self.options.max_pivots if self.options.max_pivots is not None
                            else 100 * n)
        self._have_last = False
        self.last_pivots = 0

    def _repair(self) -> str:
        """Dual pivots to primal feasibility, then a primal cleanup run."""
        status = self._core.dual_run(self._objective, self._max_pivots)
        if status == OPTIMAL:
            status = self._core.run(self._objective, self._max_pivots)
        return status

    def _solve_core(self, tensor: CorrelationTensor) -> BoundedSimplex:
        """Bring the shared core to a verified optimum for this tensor."""
        sc = self.scenario
        if tensor.scenario != sc:
            raise ScenarioMismatchError("tensor does not belong to this solver's scenario")
        core = self._core
        core.b = tensor.flat[self._keep]  # kept rows are marginal rows, never normalization
        mixing = core.b - 1.0 / sc.dim ** sc.parties
        pivots_before = core.pivots

        status = None
        if self._have_last:
            # patch the one changed column into the factorization of the last basis
            if core.replace_column(core.n - 1, mixing):
                core.recompute_basics()
                status = self._repair()
                if status != OPTIMAL or core.primal_residual() > self.options.tol_feas:
                    status = None
        else:
            core.set_column(core.n - 1, mixing)
        if status is None:
            # with F nonbasic at 0 every basic variable is a weight, so the
            # duals are 0, the reduced costs equal the objective, and any basis
            # of assignment columns is dual feasible for min F
            core.set_basis(self._basis, np.zeros(core.n, dtype=bool))
            status = self._repair()
        self.last_pivots = core.pivots - pivots_before
        if status != OPTIMAL or core.primal_residual() > self.options.tol_feas:
            raise SolverFailure(status if status != OPTIMAL else "numerical",
                                "warm-started threshold solve did not reach an optimum")
        self._have_last = True
        return core

    def _cold_solve(self, lp: LinearProgram) -> LPSolution:
        """Fallback after a failed warm solve: two-phase from scratch, or raise.

        The core's basis and inverse may be half-updated after a failure, so
        the next call starts again from the closed-form basis.
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
        dual_full[self._keep] = core.duals(self._objective)
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
    keep, a_keep = _kept_rows(sc)
    probs = noisy_tensor(tensor, noise_fraction).flat
    n = sc.joint_size
    lp = LinearProgram(np.zeros(n), a_keep, probs[keep], np.zeros(n), np.ones(n))
    sol = solve_full_rank(lp, opts)
    if sol.status == INFEASIBLE:
        return False
    if sol.status != OPTIMAL:
        raise SolverFailure(sol.status, "feasibility check did not finish")
    x = sol.primal
    residual = max(float(np.max(np.abs(assignment_marginal_matrix(sc) @ x - probs))),
                   abs(float(x.sum()) - 1.0))
    return residual <= opts.tol_feas
