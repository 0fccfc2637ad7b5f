"""Revised simplex for equality-constrained LPs with finite variable bounds.

Solves min c.x subject to A x = b, lower <= x <= upper, with a certified
primal/dual pair on success. Every variable is boxed, so any nonsingular
basis is dual feasible once each nonbasic sits on the bound its reduced cost
favours, and every solve runs the same way: dual_run restores primal
feasibility from such a basis and run finishes (BoundedSimplex.repair).
solve_lp takes its starting basis from the row elimination that drops
dependent equality rows; callers that know a dual feasible basis, or a
recent optimum, drive BoundedSimplex directly.

The basis inverse is a dense matrix kept current by product-form rank-one
updates. On large sparse matrices (the 0/1 assignment columns of the
threshold LP from (3,3) up) row pricing y @ A runs through a CSR copy of A^T,
each rank-one update is one in-place BLAS call, and a refactor inverts
through a LAPACK LU factorization; small or dense matrices keep plain
numpy, which is faster there. The choice is made once per
matrix from its shape and nonzero count and does not change pivot rules.

Determinism: identical inputs take identical pivot sequences. Entering
variables are picked by most-negative reduced cost (ties to the smallest
index) until a run of degenerate pivots trips Bland's smallest-index rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
ITERATION_LIMIT = "iteration_limit"


# Sparse pricing and the BLAS/LAPACK routines pay off from about this many matrix
# entries on (measured: dense wins up to r*n = 21k, sparse from 91k), and only
# on matrices at most this dense.
_SPARSE_MIN_ENTRIES = 50_000
_SPARSE_MAX_DENSITY = 0.1

_PIVOT_TOL = 1e-10       # smallest |entry| accepted as a pivot
_DEGEN_TOL = 1e-11       # steps this short count as degenerate
_BLAND_STREAK = 50       # degenerate pivots before the smallest-index rule kicks in
_REFACTOR_EVERY = 100    # basis changes between full refactorizations
_PIVOTS_PER_COLUMN = 100  # each run or dual_run call stops after this many pivots per column


class SolverFailure(RuntimeError):
    """Solve ended in a non-optimal status that the caller cannot continue from."""

    def __init__(self, status: str, detail: str = ""):
        self.status = status
        self.detail = detail
        super().__init__(f"LP solve failed with status {status!r}" + (f": {detail}" if detail else ""))

    def __reduce__(self):
        # unpickling (a worker process's failure) calls __init__ with these,
        # not with the formatted message
        return type(self), (self.status, self.detail)


@dataclass
class SolverOptions:
    """Feasibility and optimality tolerances; each must be finite and positive."""

    tol_feas: float = 1e-9
    tol_opt: float = 1e-9

    def __post_init__(self):
        for name in ("tol_feas", "tol_opt"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be a positive finite number, got {value!r}")


@dataclass
class LinearProgram:
    """Standard-form LP: min objective.x with eq_matrix x = eq_rhs, lower <= x <= upper."""

    objective: np.ndarray
    eq_matrix: sp.spmatrix | sp.sparray | np.ndarray
    eq_rhs: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        self.objective = np.asarray(self.objective, dtype=float).ravel()
        self.eq_rhs = np.asarray(self.eq_rhs, dtype=float).ravel()
        self.lower = np.asarray(self.lower, dtype=float).ravel()
        self.upper = np.asarray(self.upper, dtype=float).ravel()
        if not sp.issparse(self.eq_matrix):
            self.eq_matrix = np.asarray(self.eq_matrix, dtype=float)
        n = self.objective.size
        r = self.eq_rhs.size
        if self.eq_matrix.shape != (r, n):
            raise ValueError(
                f"eq_matrix shape {self.eq_matrix.shape} inconsistent with "
                f"{r} rhs entries and {n} objective entries"
            )
        if self.lower.size != n or self.upper.size != n:
            raise ValueError("bounds must have one [lower, upper] pair per variable")
        if np.any(self.lower > self.upper):
            raise ValueError("every lower bound must be <= its upper bound")

    @property
    def num_vars(self) -> int:
        return self.objective.size

    @property
    def num_rows(self) -> int:
        return self.eq_rhs.size

    def dense_matrix(self) -> np.ndarray:
        a = self.eq_matrix
        return a.toarray() if sp.issparse(a) else np.asarray(a, dtype=float)


@dataclass
class LPSolution:
    status: str
    primal: np.ndarray | None
    dual: np.ndarray | None
    objective_value: float | None
    iterations: int


def independent_rows(
    matrix: np.ndarray,
    rhs: np.ndarray,
    pivot_tol: float = _PIVOT_TOL,
    rhs_tol: float = 1e-9,
) -> tuple[list[int], list[int], bool]:
    """Select a maximal independent subset of equality rows by row echelon.

    Returns (kept row indices in ascending order, the pivot column of each
    kept row, consistent). The pivot columns form a nonsingular basis on the
    kept rows. A dependent row whose eliminated rhs residual exceeds rhs_tol
    marks the system inconsistent (infeasible); dependent consistent rows are
    safe to drop, with their duals set to 0.
    """
    work = np.hstack([np.asarray(matrix, dtype=float), np.asarray(rhs, float).reshape(-1, 1)])
    r, n1 = work.shape
    active = np.ones(r, dtype=bool)
    pivot_col: dict[int, int] = {}  # kept row -> its pivot column
    for col in range(n1 - 1):
        if not active.any():
            break
        rows = np.flatnonzero(active)
        local = np.argmax(np.abs(work[rows, col]))
        piv_row = rows[local]
        piv = work[piv_row, col]
        if abs(piv) <= pivot_tol:
            continue
        pivot_col[int(piv_row)] = col
        active[piv_row] = False
        rows = np.flatnonzero(active)
        if rows.size:
            ratios = work[rows, col] / piv
            work[rows] -= np.outer(ratios, work[piv_row])
    consistent = True
    for row in np.flatnonzero(active):
        if abs(work[row, -1]) > rhs_tol:
            consistent = False
            break
    keep = sorted(pivot_col)
    return keep, [pivot_col[row] for row in keep], consistent


class BoundedSimplex:
    """Revised simplex core over boxed variables; callers pick the starting basis.

    The basis inverse is maintained by product-form updates and rebuilt from
    scratch every ``_REFACTOR_EVERY`` basis changes (and before an optimality
    claim), which also resets accumulated drift in the basic values. Each
    ``run`` or ``dual_run`` call stops after ``_PIVOTS_PER_COLUMN`` pivots
    per column of its own; ``pivots`` counts over the core's life.

    ``A`` is read-only: every write goes through ``set_column``, which keeps
    the sparse pricing copy in step with it.
    """

    def __init__(self, A: np.ndarray, b: np.ndarray, lower: np.ndarray,
                 upper: np.ndarray, opts: SolverOptions):
        self._A = np.array(A, dtype=float, order="C")
        self.A = self._A.view()
        self.A.flags.writeable = False
        self.b = np.asarray(b, dtype=float).ravel()
        self.lower = np.asarray(lower, dtype=float).ravel()
        self.upper = np.asarray(upper, dtype=float).ravel()
        if not (np.all(np.isfinite(self.lower)) and np.all(np.isfinite(self.upper))):
            raise ValueError("every variable needs a finite lower and upper bound")
        self.opts = opts
        self.r, self.n = self.A.shape
        self.basis = np.empty(0, dtype=int)
        self.in_basis = np.zeros(self.n, dtype=bool)
        self.at_upper = np.zeros(self.n, dtype=bool)
        self.x = np.zeros(self.n)
        self.Binv = np.empty((self.r, self.r))
        self.reduced_costs = np.zeros(self.n)  # carried by the last dual_run
        self.pivots = 0
        self.basis_changes = 0
        self.stale_updates = 0  # eta/rank-1 updates applied since the last true refactor
        self._degen_streak = 0
        self._bland = False
        entries = self.r * self.n
        self._At = None      # CSR copy of A^T for pricing, on the sparse path only
        self._gemm = None
        self._getrf = self._getri = None
        self._matvec = None
        if (entries >= _SPARSE_MIN_ENTRIES
                and np.count_nonzero(self._A) <= _SPARSE_MAX_DENSITY * entries):
            # scipy.linalg.blas loads scipy.linalg, and with it the lapack module
            from scipy.linalg.blas import dgemm
            from scipy.linalg.lapack import dgetrf, dgetri
            from scipy.sparse._sparsetools import csr_matvec

            self._At = sp.csr_array(self._A.T)
            self._gemm = dgemm
            self._getrf, self._getri = dgetrf, dgetri
            self._matvec = csr_matvec

    # -- basis bookkeeping -------------------------------------------------

    def set_basis(self, basis: np.ndarray, at_upper: np.ndarray | None = None,
                  binv: np.ndarray | None = None) -> None:
        """Install a basis and put every nonbasic on its bound.

        ``binv``, when the caller knows the basis matrix's inverse, is copied
        in instead of refactoring.
        """
        self.basis = np.asarray(basis, dtype=int).copy()
        if self.basis.size != self.r:
            raise ValueError(f"basis needs {self.r} columns, got {self.basis.size}")
        self.in_basis[:] = False
        self.in_basis[self.basis] = True
        if at_upper is not None:
            self.at_upper = np.asarray(at_upper, dtype=bool).copy()
        nonbasic = ~self.in_basis
        self.x[nonbasic] = np.where(
            self.at_upper[nonbasic], self.upper[nonbasic], self.lower[nonbasic]
        )
        if binv is None:
            self.refactor()
        else:
            self.Binv = binv.copy()  # C order, as the in-place update needs
            self.stale_updates = 0
            self.recompute_basics()

    def refactor(self) -> None:
        if self.r == 0:
            return
        basis_matrix = self.A[:, self.basis]
        if self._getrf is None:
            try:
                self.Binv = np.linalg.inv(basis_matrix)
            except np.linalg.LinAlgError:
                raise SolverFailure("numerical", "singular basis matrix") from None
        else:
            # getrf + getri inverts in about 2/3 of the flops np.linalg.inv
            # spends solving against the identity. The transpose of the
            # C-ordered copy is the Fortran array LAPACK factors in place, and
            # the transpose of its Fortran-ordered inverse is a C-ordered Binv.
            lu, piv, info = self._getrf(basis_matrix.T, overwrite_a=True)
            if info == 0:
                inv, info = self._getri(lu, piv, overwrite_lu=True)
            if info != 0:
                raise SolverFailure("numerical", "singular basis matrix")
            self.Binv = inv.T
        self.stale_updates = 0
        self.recompute_basics()

    def recompute_basics(self) -> None:
        if self.r == 0:
            return
        # only nonbasics sitting away from zero contribute to the rhs
        live = np.flatnonzero(~self.in_basis & (self.x != 0.0))
        rhs = self.b if live.size == 0 else self.b - self.A[:, live] @ self.x[live]
        self.x[self.basis] = self.Binv @ rhs

    def set_column(self, j: int, col: np.ndarray) -> None:
        """Overwrite A[:, j], leaving the factorization alone.

        On the sparse path the first write gives column j a full row of r
        stored entries in the CSR copy of A^T, zeros included, so that every
        later write only overwrites that row's values.
        """
        self._A[:, j] = col
        At = self._At
        if At is None:
            return
        start, end = At.indptr[j], At.indptr[j + 1]
        if end - start != self.r:
            indptr = At.indptr.copy()
            indptr[j + 1:] += self.r - (end - start)
            indices = np.concatenate([At.indices[:start],
                                      np.arange(self.r, dtype=At.indices.dtype),
                                      At.indices[end:]])
            data = np.concatenate([At.data[:start], np.zeros(self.r), At.data[end:]])
            self._At = At = sp.csr_array((data, indices, indptr), shape=At.shape)
            end = start + self.r
        At.data[start:end] = self._A[:, j]

    def replace_column(self, j: int, col: np.ndarray) -> bool:
        """Overwrite A[:, j] and patch the factorization in place.

        Uses a rank-one (Sherman-Morrison) update when column j is basic, so a
        re-solve after a single-column change avoids a fresh inversion. Returns
        False when the update would be numerically unsafe; the matrix is still
        overwritten and the caller must refactor from scratch.
        """
        col = np.asarray(col, dtype=float).ravel()
        delta = col - self.A[:, j]
        self.set_column(j, col)
        if self.r == 0 or not self.in_basis[j]:
            return True
        q = int(np.flatnonzero(self.basis == j)[0])
        w = self.Binv @ delta
        denom = 1.0 + w[q]
        if abs(denom) < 1e-8:
            return False
        w /= denom
        self._rank_one(w, self.Binv[q].copy())
        self.stale_updates += 1
        return True

    def _rank_one(self, x: np.ndarray, y: np.ndarray) -> None:
        """Binv -= outer(x, y) in place; y must not be a view into Binv."""
        if self._gemm is None:
            self.Binv -= np.outer(x, y)
        else:
            # A rank-one dgemm, not dger: OpenBLAS threads dger at these
            # sizes, and a threaded dger at r = 125 took 2.3 ms instead of
            # 5 us on a busy 2-core machine; dgemm stayed serial at r = 125
            # and 243.
            # The transpose of a C-ordered Binv is the Fortran array BLAS
            # updates in place; any other layout comes back as an updated copy.
            self.Binv = self._gemm(-1.0, y[:, None], x[None, :], beta=1.0,
                                   c=self.Binv.T, overwrite_c=True).T

    def _price(self, y: np.ndarray) -> np.ndarray:
        """The row product y @ A."""
        if self._At is None:
            return y @ self.A
        # the kernel At @ y reaches, without scipy's dispatch and checks
        At = self._At
        out = np.zeros(self.n)
        self._matvec(self.n, self.r, At.indptr, At.indices, At.data, y, out)
        return out

    def duals(self, c: np.ndarray) -> np.ndarray:
        if self.r == 0:
            return np.empty(0)
        return c[self.basis] @ self.Binv

    def primal_residual(self) -> float:
        bound_low = float(np.max(self.lower - self.x, initial=0.0))
        bound_up = float(np.max(self.x - self.upper, initial=0.0))
        if self.r == 0:
            return max(bound_low, bound_up)
        eq = float(np.max(np.abs(self.A @ self.x - self.b)))
        return max(eq, bound_low, bound_up)

    # -- the simplex loop --------------------------------------------------

    def _entering(self, z: np.ndarray, fixed: np.ndarray) -> tuple[int, int] | None:
        """Pick the entering column; returns (index, direction) or None at optimality.

        ``fixed`` (lower == upper) is an index array from the bounds, which
        stay put for a whole run.
        """
        gain = np.where(self.at_upper, z, -z)  # cost decrease per unit step off the bound
        gain[self.in_basis] = -1.0
        gain[fixed] = -1.0
        tol = self.opts.tol_opt
        if self._bland:
            cand = np.flatnonzero(gain > tol)
            if cand.size == 0:
                return None
            j = int(cand[0])
        else:
            j = int(np.argmax(gain))
            if gain[j] <= tol:
                return None
        return j, (-1 if self.at_upper[j] else +1)

    def run(self, c: np.ndarray) -> str:
        """Minimize c.x from the current basic feasible point."""
        limit = self.pivots + _PIVOTS_PER_COLUMN * self.n
        fixed = np.flatnonzero(~(self.lower < self.upper))
        verified = False  # has optimality been re-checked after a clean refactor
        while True:
            z = c - self._price(self.duals(c))
            pick = self._entering(z, fixed)
            if pick is None:
                # a recent factorization is trusted; only re-check after enough
                # rank-one updates have accumulated to matter
                if verified or self.r == 0 or self.stale_updates <= _REFACTOR_EVERY:
                    return OPTIMAL
                self.refactor()
                verified = True
                continue
            verified = False
            if self.pivots >= limit:
                return ITERATION_LIMIT
            j, sigma = pick
            w = self.Binv @ self.A[:, j] if self.r else np.empty(0)
            d = -sigma * w  # change of basic values per unit step of x_j

            xB = self.x[self.basis]
            lB = self.lower[self.basis]
            uB = self.upper[self.basis]
            with np.errstate(divide="ignore", invalid="ignore"):
                t_down = np.where(d < -_PIVOT_TOL, (xB - lB) / -d, np.inf)
                t_up = np.where(d > _PIVOT_TOL, (uB - xB) / d, np.inf)
            t_rows = np.minimum(t_down, t_up)
            np.maximum(t_rows, 0.0, out=t_rows)  # drift can make a ratio slightly negative
            t_row_min = float(np.min(t_rows)) if self.r else np.inf

            t_bound = self.upper[j] - self.lower[j]
            if t_bound < t_row_min:
                # entering variable reaches its opposite bound: no basis change
                self.x[j] += sigma * t_bound
                self.at_upper[j] = not self.at_upper[j]
                if self.r:
                    self.x[self.basis] = xB + t_bound * d
                self.pivots += 1
                self._note_step(t_bound)
                continue

            ties = np.flatnonzero(t_rows <= t_row_min + 1e-15)
            if self._bland:
                i_star = int(ties[np.argmin(self.basis[ties])])
            else:
                i_star = int(ties[np.argmax(np.abs(d[ties]))])
            t = float(t_rows[i_star])

            self.x[j] += sigma * t
            self.x[self.basis] = xB + t * d
            leaving = self._exchange(i_star, j, w)
            if d[i_star] < 0:
                self.x[leaving] = lB[i_star]
                self.at_upper[leaving] = False
            else:
                self.x[leaving] = uB[i_star]
                self.at_upper[leaving] = True

            self.pivots += 1
            self.basis_changes += 1
            if self.basis_changes % _REFACTOR_EVERY == 0:
                self.refactor()
            self._note_step(t)

    def _exchange(self, i: int, j: int, w: np.ndarray) -> int:
        """Swap column j into basis position i; returns the leaving column.

        ``w`` is Binv @ A[:, j] and is overwritten. The inverse gets the
        product-form update; callers own the values and the pivot counters.
        """
        leaving = int(self.basis[i])
        self.basis[i] = j
        self.in_basis[leaving] = False
        self.in_basis[j] = True
        self.Binv[i] /= w[i]
        w[i] = 0.0
        self._rank_one(w, self.Binv[i].copy())
        self.stale_updates += 1
        return leaving

    def _note_step(self, t: float) -> None:
        if t <= _DEGEN_TOL:
            self._degen_streak += 1
            if self._degen_streak >= _BLAND_STREAK:
                self._bland = True
        else:
            self._degen_streak = 0
            self._bland = False

    def dual_run(self, c: np.ndarray) -> str:
        """Restore primal feasibility by dual pivots, keeping reduced costs sane.

        Starts from a dual feasible basis, such as one that was optimal
        before a small rhs or matrix change: each pivot drives one
        out-of-bounds basic variable to its violated bound. Returns OPTIMAL
        once the basics are within bounds (the caller should confirm with a
        primal run), INFEASIBLE if a violated row has no admissible column.

        The reduced costs are priced on entry and after every refactor, and in
        between carried across pivots by z <- z - (z_j / alpha_j) alpha, so a
        pivot prices only its pivot row alpha. They stay in reduced_costs.
        The basics' bounds, the mask of columns that may enter and the side
        each nonbasic sits on are built once per call and updated for the two
        exchanged columns only. The basic values live in a local vector, in
        basis order, and go back into x on every exit and before each
        refactor.
        """
        if self.r == 0:
            return OPTIMAL
        limit = self.pivots + _PIVOTS_PER_COLUMN * self.n
        tol = self.opts.tol_feas
        movable = self.lower < self.upper
        lB = self.lower[self.basis]
        uB = self.upper[self.basis]
        eligible = movable & ~self.in_basis
        side = np.where(self.at_upper, -1.0, 1.0)  # moving off the bound: +1 up, -1 down
        scratch = np.empty(self.n)
        ok = np.empty(self.n, dtype=bool)
        below = np.empty(self.r)
        above = np.empty(self.r)
        viol = np.empty(self.r)
        xB = self.x[self.basis]
        z = self.reduced_costs = c - self._price(self.duals(c))
        while True:
            np.subtract(lB, xB, out=below)
            np.subtract(xB, uB, out=above)
            np.maximum(below, above, out=viol)
            i_star = int(viol.argmax())
            if viol[i_star] <= tol:
                status = OPTIMAL
                break
            if self.pivots >= limit:
                status = ITERATION_LIMIT
                break
            over_upper = above[i_star] > below[i_star]

            # admissible: moving the column off its bound moves the violated
            # basic toward that bound
            alpha = self._price(self.Binv[i_star])
            np.multiply(alpha, side, out=scratch)
            if over_upper:
                np.greater(scratch, _PIVOT_TOL, out=ok)
            else:
                np.less(scratch, -_PIVOT_TOL, out=ok)
            ok &= eligible
            cand = ok.nonzero()[0]
            if cand.size == 0:
                status = INFEASIBLE
                break
            ratios = np.abs(z[cand] / alpha[cand])
            best = float(ratios.min())
            ties = cand[ratios <= best + 1e-12]
            if self._bland:
                j = int(ties.min())
            else:
                j = int(ties[np.abs(alpha[ties]).argmax()])

            bound = uB[i_star] if over_upper else lB[i_star]
            t = (xB[i_star] - bound) / alpha[j]
            if z[j] != 0.0:  # almost every warm pivot is dual degenerate
                np.multiply(alpha, z[j] / alpha[j], out=scratch)
                z -= scratch
            w = self.Binv @ self.A[:, j]
            xB -= t * w
            xB[i_star] = self.x[j] + t  # j takes the leaving column's slot
            leaving = self._exchange(i_star, j, w)
            self.x[leaving] = bound
            self.at_upper[leaving] = over_upper
            lB[i_star] = self.lower[j]
            uB[i_star] = self.upper[j]
            eligible[j] = False
            eligible[leaving] = movable[leaving]
            side[leaving] = -1.0 if over_upper else 1.0
            self.pivots += 1
            self.basis_changes += 1
            if self.basis_changes % _REFACTOR_EVERY == 0:
                self.x[self.basis] = xB
                self.refactor()
                xB = self.x[self.basis]
                z = self.reduced_costs = c - self._price(self.duals(c))
            self._note_step(abs(t))
        self.x[self.basis] = xB
        return status

    def repair(self, c: np.ndarray) -> str:
        """Minimize c.x from a dual feasible basis: dual pivots, then a primal cleanup run.

        An optimum whose values miss the equality rows or the bounds by more
        than tol_feas comes back as "numerical".
        """
        status = self.dual_run(c)
        if status == OPTIMAL:
            status = self.run(c)
        if status == OPTIMAL and self.primal_residual() > self.opts.tol_feas:
            status = "numerical"
        return status


def certified_lower_bound(lp: LinearProgram, dual: np.ndarray) -> float:
    """Weak-duality bound on the optimum implied by an arbitrary dual vector.

    For any y: min c.x >= y.b + sum_j min(z_j l_j, z_j u_j) with z = c - A^T y.
    At an optimal basic pair the bound meets the primal objective.
    """
    y = np.asarray(dual, dtype=float)
    z = lp.objective - lp.eq_matrix.T @ y
    per_var = np.zeros_like(z)
    pos = z > 0
    neg = z < 0
    per_var[pos] = z[pos] * lp.lower[pos]  # -inf when the bound is open: no certificate
    per_var[neg] = z[neg] * lp.upper[neg]
    return float(y @ lp.eq_rhs + per_var.sum())


def solve_lp(lp: LinearProgram, options: SolverOptions | None = None) -> LPSolution:
    """Solve a boxed LP to a certified optimum, or report a definite failure status.

    Dependent equality rows are dropped first (their duals are 0). The pivot
    columns of that elimination are the starting basis, and each nonbasic
    starts on the bound its reduced cost favours, which makes the basis dual
    feasible; BoundedSimplex.repair finishes. A non-finite bound raises
    ValueError, a singular basis matrix SolverFailure with status "numerical".
    """
    opts = options or SolverOptions()
    a_full = lp.dense_matrix()
    c = lp.objective
    keep, cols, consistent = independent_rows(a_full, lp.eq_rhs)
    # built before the consistency check, so a non-finite bound always raises
    core = BoundedSimplex(a_full[keep], lp.eq_rhs[keep], lp.lower, lp.upper, opts)
    if not consistent:
        return LPSolution(INFEASIBLE, None, None, None, 0)
    core.set_basis(cols)
    z = c - core._price(core.duals(c))
    core.set_basis(cols, z < 0, core.Binv)
    status = core.repair(c)
    if status != OPTIMAL:
        return LPSolution(status, None, None, None, core.pivots)
    dual = np.zeros(lp.num_rows)
    dual[keep] = core.duals(c)
    return LPSolution(status, core.x.copy(), dual, float(c @ core.x), core.pivots)


# -- plain-text LP interchange --------------------------------------------
#
# Line 1: "<num_vars> <num_rows>"; line 2: the objective (num_vars floats);
# line 3: "<nnz>"; then nnz lines "row col value"; then one line with the rhs
# (num_rows floats); then num_vars lines "lower upper". Infinities are the
# tokens "inf" / "-inf". Whitespace-separated, any float precision.

def dump_lp_text(lp: LinearProgram) -> str:
    a = sp.coo_array(lp.eq_matrix)
    fmt = "%.17g"
    lines = [f"{lp.num_vars} {lp.num_rows}"]
    lines.append(" ".join(fmt % v for v in lp.objective))
    order = np.lexsort((a.col, a.row))
    lines.append(str(a.nnz))
    for i in order:
        lines.append(f"{a.row[i]} {a.col[i]} " + fmt % a.data[i])
    lines.append(" ".join(fmt % v for v in lp.eq_rhs))
    for lo, up in zip(lp.lower, lp.upper):
        lines.append((fmt % lo) + " " + (fmt % up))
    return "\n".join(lines) + "\n"

