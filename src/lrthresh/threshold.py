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
and primal simplex pivots, from it or from a recent optimum.

With two parties, two settings and d <= 3 the local polytope's facets are
known, and the threshold is the largest noise fraction any violated facet
needs (_FacetThreshold). The search evaluates those scenarios through it;
every certified solve, there too, is the LP's.
"""

from __future__ import annotations

import functools
import itertools
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.sparse as sp

from .probabilities import CorrelationTensor, ScenarioMismatchError
from .scenario import PhaseSettings, PureState, Scenario, _frozen
from .simplex import (
    OPTIMAL,
    BoundedSimplex,
    LinearProgram,
    SolverFailure,
    SolverOptions,
    certified_lower_bound,
    pricing_copy,
)
from .simplex import independent_rows, solve_lp  # noqa: F401  perfbench/spans.py patches these

WITNESS_MARGINAL_TOL = 1e-8
CERTIFICATE_GAP_TOL = 1e-8
_RING_SIZE = 16  # optimal states a ThresholdSolver keeps to start warm solves from


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
        if not np.all(np.isfinite(w)):
            raise ValueError("assignment weights must be finite")
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


@functools.cache
def assignment_marginal_matrix(sc: Scenario) -> sp.csr_array:
    """0/1 matrix taking assignment weights to stacked per-setting marginals.

    Row order matches the flattened correlation tensor: setting combinations
    party-major, then outcome combinations party-major within each block.
    Built once per scenario.
    """
    n_atoms = sc.joint_size
    d, parties, m = sc.dim, sc.parties, sc.settings_per_party
    # every assignment as an (assignments, parties, settings) outcome array
    digits = np.unravel_index(np.arange(n_atoms), (d,) * (parties * m))
    tables = np.stack(digits, axis=1).reshape(n_atoms, parties, m)
    out_size = d ** parties
    rows = []
    for block, combo in enumerate(np.ndindex((m,) * parties)):
        ridx = np.zeros(n_atoms, dtype=np.intp)
        for p, s in enumerate(combo):
            ridx = ridx * d + tables[:, p, s]
        rows.append(block * out_size + ridx)
    row_idx = np.concatenate(rows)
    col_idx = np.tile(np.arange(n_atoms), sc.setting_combos)
    data = np.ones(row_idx.size)
    return sp.coo_array((data, (row_idx, col_idx)),
                        shape=(sc.marginal_rows, n_atoms)).tocsr()


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


@functools.cache
def _kept_rows(sc: Scenario) -> tuple[np.ndarray, np.ndarray]:
    """The Collins-Gisin row indices and their dense marginal rows, per scenario."""
    keep = _collins_gisin_rows(sc)
    return _frozen(keep), _frozen(assignment_marginal_matrix(sc)[keep].toarray())


def _with_f_column(a_keep: np.ndarray) -> np.ndarray:
    """The kept rows with a zero F column appended: a new solver's matrix."""
    return np.hstack([a_keep, np.zeros((a_keep.shape[0], 1))])


@functools.cache
def _kept_pricing(sc: Scenario) -> sp.csr_array | None:
    """The pricing copy of a new solver's matrix, the F column's row full, per scenario.

    Its arrays are read-only: each solver copies the values, the only part
    it writes, and shares the index arrays. None where the solver prices
    with plain numpy.
    """
    _, a_keep = _kept_rows(sc)
    At = pricing_copy(_with_f_column(a_keep), full_rows=[sc.joint_size])
    if At is not None:
        for part in (At.data, At.indices, At.indptr):
            part.flags.writeable = False
    return At


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


@functools.cache
def _collins_gisin_inverse(sc: Scenario) -> np.ndarray:
    """The inverse of the starting basis's matrix on the kept rows, read-only.

    The matrix does not depend on the tensor, so every cold start installs a
    copy of this instead of inverting it again. Its entries are exactly
    -1, 0 and 1.
    """
    _, a_keep = _kept_rows(sc)
    return _frozen(np.linalg.inv(a_keep[:, _collins_gisin_basis(sc)]))


def _has_facet_form(sc: Scenario) -> bool:
    """Whether _FacetThreshold covers the scenario: two parties, two settings, d <= 3."""
    return sc.parties == 2 and sc.settings_per_party == 2 and sc.dim <= 3


@functools.cache
def _bell_facets(sc: Scenario) -> np.ndarray:
    """The nontrivial facets c . P <= 2 of the local polytope, one row per facet, read-only.

    Two parties with two settings and d <= 3 outcomes, where the CGLMP class
    (Collins, Gisin, Linden, Massar & Popescu, PRL 88, 040404 (2002)) and the
    CHSH liftings are the only classes besides positivity (Collins & Gisin,
    J. Phys. A 37, 1775 (2004)). Columns follow the flattened tensor.
    - CGLMP: block (x, y) weighs each outcome pair by g of its difference,
      g(k) = 1 - 2k/(d-1) and g(-k-1) = -(1 - 2k/(d-1)) for k < d/2, under
      every relabeling of the outcomes of each party and setting. A common
      cyclic shift of all outcomes leaves the differences as they are, so
      only relabelings that keep the first party's setting-0 outcome 0 in
      place are applied: 432 rows at d = 3.
    - CHSH liftings: sigma_xy s_x(a) t_y(b), with each outcome map s_x, t_y
      a non-constant +-1 grouping that sends outcome 0 to +1, and sigma one
      of the 8 sign patterns whose product is -1: 81 x 8 = 648 rows at
      d = 3. At d = 2 the CGLMP rows are already the 8 CHSH rows.
    The tests check that the rows are distinct facets.
    """
    d = sc.dim
    g = np.zeros(d)
    for k in range(d // 2):
        g[k] += 1.0 - 2.0 * k / (d - 1)
        g[-k - 1] -= 1.0 - 2.0 * k / (d - 1)
    diff = np.subtract.outer(np.arange(d), np.arange(d))  # a - b
    cglmp = np.stack([g[diff % d], g[-diff % d], g[(-diff - 1) % d], g[diff % d]])
    perms = np.array(list(itertools.permutations(range(d))))
    # one permutation per (party, setting): block (x, y) relabels a by the
    # first party's x-th and b by the second party's y-th
    fixing = perms[perms[:, 0] == 0]
    pick = np.indices((len(fixing),) + (len(perms),) * 3).reshape(4, -1)
    first = [fixing[pick[0]], perms[pick[1]]]
    second = [perms[pick[2]], perms[pick[3]]]
    rows = [np.stack([cglmp[2 * x + y][first[x][:, :, None], second[y][:, None, :]]
                      for x in range(2) for y in range(2)], axis=1)]
    if d > 2:
        codes = np.arange(1, 2 ** (d - 1))
        groupings = np.ones((codes.size, d))
        groupings[:, 1:] = 1 - 2 * ((codes[:, None] >> np.arange(d - 1)) & 1)
        patterns = np.array([s for s in itertools.product((1.0, -1.0), repeat=4)
                             if np.prod(s) < 0]).reshape(-1, 1, 2, 2, 1, 1)
        # (combination, party and setting, outcome): every choice of the four maps
        maps = groupings[np.indices((codes.size,) * 4).reshape(4, -1)].transpose(1, 0, 2)
        rows.append(patterns * (maps[:, :2, None, :, None] * maps[:, None, 2:, None, :]))
    return _frozen(np.concatenate([r.reshape(-1, sc.marginal_rows) for r in rows]))


class _FacetThreshold:
    """The threshold from the facets of the local polytope, where they are known in closed form.

    A facet c . P <= 2 that the tensor violates needs the noise fraction
    (c.P - 2)/(c.P - c.u), where u is the uniform tensor, and the threshold
    is the largest of these, or 0 when no facet is violated (a Born tensor
    never violates positivity). Only violated rows are divided: there
    c.P > 2 > c.u. It stands in for ThresholdSolver's value() and
    tensor_gradient() in the search; the certified solve stays an LP.
    """

    def __init__(self, sc: Scenario):
        self.scenario = sc
        self._facets = _bell_facets(sc)
        self._at_uniform = self._facets.sum(axis=1) / sc.outcome_combos  # c . u per facet
        self._active: tuple[int, float] | None = None  # (facet, c.P) of the last value()

    def value(self, tensor: CorrelationTensor) -> float:
        """The threshold at the tensor."""
        if tensor.scenario != self.scenario:
            raise ScenarioMismatchError("tensor does not belong to this solver's scenario")
        cp = self._facets @ tensor.flat
        violated = np.flatnonzero(cp > 2.0)
        if not violated.size:
            self._active = (-1, 0.0)
            return 0.0
        ratios = (cp[violated] - 2.0) / (cp[violated] - self._at_uniform[violated])
        k = int(ratios.argmax())
        self._active = (int(violated[k]), float(cp[violated[k]]))
        return float(ratios[k])

    def values(self, probs: np.ndarray) -> np.ndarray:
        """The threshold at each row of a (stack, flat tensor) array, by value()'s rule.

        One product against the facets serves the whole stack. Its rounding
        may differ from value()'s in the last bits, and it leaves
        tensor_gradient() as it was.
        """
        cp = probs @ self._facets.T
        rows, facets = np.nonzero(cp > 2.0)
        excess = cp[rows, facets]
        out = np.zeros(len(probs))
        np.maximum.at(out, rows, (excess - 2.0) / (excess - self._at_uniform[facets]))
        return out

    def tensor_gradient(self) -> np.ndarray | None:
        """dF/dP at the tensor of the last value() call: c (2 - c.u)/(c.P - c.u)^2.

        c is the facet that set the threshold, the first of them at a tie, so
        at a tie this is one subgradient of several; 0 where no facet is
        violated. None before the first value().
        """
        if self._active is None:
            return None
        k, cp = self._active
        if k < 0:
            return np.zeros(self.scenario.marginal_rows)
        cu = self._at_uniform[k]
        return self._facets[k] * ((2.0 - cu) / (cp - cu) ** 2)


def witness_residual(
    tensor: CorrelationTensor,
    noise_fraction: float,
    weights: np.ndarray,
) -> tuple[float, float]:
    """How far assignment weights are from a local model of the noisy tensor.

    Returns (the largest miss of the weights' marginals against
    (1-q) P + q/d^N over every marginal row, |sum of weights - 1|). Both are 0
    exactly when the weights reproduce the tensor mixed with noise fraction q.
    """
    sc = tensor.scenario
    q = float(noise_fraction)
    target = (1.0 - q) * tensor.flat + q * (1.0 / sc.outcome_combos)
    marginals = assignment_marginal_matrix(sc) @ weights
    return (float(np.max(np.abs(marginals - target))),
            abs(float(np.sum(weights)) - 1.0))


@functools.cache
def _marginal_supports(sc: Scenario) -> tuple[np.ndarray, np.ndarray]:
    """Per marginal row, the assignments it sums; per assignment, the rows it enters.

    Every row of assignment_marginal_matrix has d^(N(m-1)) ones and every
    column m^N, so both fit in rectangular index arrays.
    """
    marg = assignment_marginal_matrix(sc)
    rows = marg.indices.reshape(sc.marginal_rows, -1)
    cols = marg.tocsc().indices.reshape(sc.joint_size, -1)
    return _frozen(rows), _frozen(cols)


def exact_bracket(
    tensor: CorrelationTensor,
    dual: np.ndarray,
    weights: np.ndarray,
    noise_fraction: float,
) -> tuple[Fraction, Fraction, Fraction]:
    """The certificate's bound and the witness's residuals, in exact arithmetic.

    Returns, as exact rationals over the float inputs:
    - the weak-duality bound y.b + sum_j min(0, z_j), z = c - A^T y, of the
      dual on the full threshold LP (build_threshold_lp; every variable in
      [0, 1]), which no feasible point beats;
    - the largest miss of the weights' marginals against (1-q) P + q/d^N;
    - |sum of weights - 1|.
    A float is an integer times a power of two, so every input is scaled to a
    Python integer by one common 2^s, and the 1/d^N terms by d^N as well.
    Each assignment column is 0/1 with m^N ones plus the normalization
    entry, so the sums run over gathered integers with no rounding at all.
    """
    sc = tensor.scenario
    rows, cols = _marginal_supports(sc)
    mant, exp = np.frexp(np.concatenate([tensor.flat, dual, weights, [noise_fraction]]))
    s = int(np.max(53 - exp[mant != 0], initial=0))  # 2^s times each input is an integer
    ints = ((mant * 2.0 ** 53).astype(np.int64).astype(object)
            << np.maximum(exp - 53 + s, 0).astype(object))
    p, y, w = np.split(ints[:-1], [sc.marginal_rows, 2 * sc.marginal_rows + 1])
    q = int(ints[-1])
    one, combos = 1 << s, sc.outcome_combos
    y_rows, y_norm = y[:-1], int(y[-1])

    # numerators over combos * 2^2s
    y_dot_p = int(y_rows.dot(p))
    z_weights = -(y_rows[cols].sum(axis=1) + y_norm)  # over 2^s
    z_noise = combos * (one * one - y_dot_p) + int(y_rows.sum()) * one
    bound = (combos * (y_dot_p + y_norm * one + int(np.minimum(z_weights, 0).sum()) * one)
             + min(z_noise, 0))
    misses = combos * (w[rows].sum(axis=1) * one - (one - q) * p) - q * one
    scale = combos * one * one
    return (Fraction(bound, scale),
            Fraction(int(np.max(np.abs(misses))), scale),
            Fraction(abs(int(w.sum()) - one), one))


class _BasisRing:
    """The last few optimal states of a BoundedSimplex, keyed by their rhs.

    A state is what a warm re-solve starts from: basis, at-upper flags,
    basis inverse and stale-update count. The rest follows from these: the
    last column (the one each re-solve patches) is the key less the uniform
    shift, the nonbasic values sit on the bounds the flags name, and the
    caller recomputes the basic values after patching the column. Slots are
    filled round-robin and restored by in-place copies.
    """

    def __init__(self, size: int, core: BoundedSimplex, shift: float):
        r, n = core.r, core.n
        self.shift = shift
        self.count = 0
        self.keys = np.empty((size, r))
        self.basis = np.empty((size, r), dtype=core.basis.dtype)
        self.at_upper = np.empty((size, n), dtype=bool)
        self.binv = np.empty((size, r, r))
        self.stale = np.empty(size, dtype=int)

    def save(self, core: BoundedSimplex) -> int:
        k = self.count % self.keys.shape[0]
        self.count += 1
        self.keys[k] = core.b
        self.basis[k] = core.basis
        self.at_upper[k] = core.at_upper
        self.binv[k] = core.Binv
        self.stale[k] = core.stale_updates
        return k

    def nearest(self, key: np.ndarray) -> int:
        """The filled slot whose key is closest to key in L1."""
        filled = min(self.count, self.keys.shape[0])
        return int(np.argmin(np.abs(self.keys[:filled] - key).sum(axis=1)))

    def restore(self, k: int, core: BoundedSimplex) -> None:
        """Put slot k back into the core; its basic values are left stale."""
        core.basis[:] = self.basis[k]
        core.in_basis[:] = False
        core.in_basis[core.basis] = True
        core.at_upper[:] = self.at_upper[k]
        np.copyto(core.x, np.where(core.at_upper, core.upper, core.lower))
        core.Binv[...] = self.binv[k]
        core.set_column(core.n - 1, self.keys[k] - self.shift)
        core.stale_updates = int(self.stale[k])


class ThresholdSolver:
    """Repeated-solve engine for one scenario, reusing structure between calls.

    The objective never changes, so any basis stays dual feasible when the
    tensor moves. A cold solve starts from the closed-form Collins-Gisin
    basis. A warm solve starts from whichever of the solver's last
    _RING_SIZE optimal states has the nearest tensor (L1 over the kept
    rows). Either way a dual-simplex repair followed by a primal cleanup
    finishes the solve. A failed warm repair is retried once from the
    closed-form basis; a failed retry raises SolverFailure.
    value() returns just the optimum for tight optimization loops; solve()
    adds the witness and certificate.
    """

    def __init__(self, sc: Scenario, options: SolverOptions | None = None):
        self.scenario = sc
        self.options = options or SolverOptions()
        self._keep, a_keep = _kept_rows(sc)
        self._basis = _collins_gisin_basis(sc)
        n = sc.joint_size + 1
        self._core = BoundedSimplex(_with_f_column(a_keep), np.zeros(self._keep.size),
                                    np.zeros(n), np.ones(n), self.options,
                                    pricing=_kept_pricing(sc))
        self._objective = np.zeros(n)
        self._objective[-1] = 1.0
        self._have_last = False
        self._shift = 1.0 / sc.dim ** sc.parties  # each kept row's uniform-noise entry
        self._ring: _BasisRing | None = None  # allocated by the first warm solve
        self.last_pivots = 0
        self.last_warm = False  # whether the last solve finished from a saved state

    def _restore_nearest(self, b: np.ndarray) -> None:
        """Move the core to the ring's optimal state nearest to rhs b.

        The core's current state, the last optimum, joins the ring first.
        """
        if self._ring is None:
            self._ring = _BasisRing(_RING_SIZE, self._core, self._shift)
        last = self._ring.save(self._core)
        k = self._ring.nearest(b)
        if k != last:
            self._ring.restore(k, self._core)

    def _forget(self) -> None:
        """After a failure the core may be half updated: start the next call cold."""
        self._have_last = False
        if self._ring is not None:
            self._ring.count = 0

    def _solve_core(self, tensor: CorrelationTensor) -> BoundedSimplex:
        """Bring the shared core to a verified optimum for this tensor.

        A warm repair that stops short of an optimum, or raises, is retried
        from the closed-form basis. If the retry fails as well, the solver
        forgets its saved states and SolverFailure is raised.
        """
        if tensor.scenario != self.scenario:
            raise ScenarioMismatchError("tensor does not belong to this solver's scenario")
        core = self._core
        b = tensor.flat[self._keep]  # kept rows are marginal rows, never normalization
        if self._have_last:
            self._restore_nearest(b)
        core.b = b
        mixing = b - self._shift
        pivots_before = core.pivots

        warm = False
        if self._have_last:
            # patch the one changed column into the factorization of the last basis
            if core.replace_column(core.n - 1, mixing):
                core.recompute_basics()
                try:
                    warm = core.repair(self._objective) == OPTIMAL
                except SolverFailure:
                    pass  # a singular refactor mid-repair; the retry below starts afresh
        else:
            core.set_column(core.n - 1, mixing)
        if not warm:
            # with F nonbasic at 0 every basic variable is a weight, so the
            # duals are 0, the reduced costs equal the objective, and any basis
            # of assignment columns is dual feasible for min F
            try:
                core.set_basis(self._basis, np.zeros(core.n, dtype=bool),
                               _collins_gisin_inverse(self.scenario))
                status = core.repair(self._objective)
                if status != OPTIMAL:
                    raise SolverFailure(status, "threshold solve did not reach an optimum")
            except SolverFailure:
                self._forget()
                raise
        self.last_pivots = core.pivots - pivots_before
        self.last_warm = warm
        self._have_last = True
        return core

    def value(self, tensor: CorrelationTensor) -> float:
        """The threshold alone, without witness or certificate packaging."""
        return float(self._solve_core(tensor).x[-1])

    def tensor_gradient(self) -> np.ndarray | None:
        """dF/dP at the tensor of the last value() call, one entry per flat-tensor entry.

        With y the optimal duals on the kept rows, the tensor enters both the
        right-hand side and the F column, so by the envelope theorem
        dF = (1 - F) y . dP_keep; the dropped rows get 0. At a degenerate
        optimum the duals are not unique and this is one subgradient of
        several. None before the first solve and after a solve that raised
        SolverFailure; every call that returns leaves an optimal basis.
        """
        if not self._have_last:
            return None
        core = self._core
        grad = np.zeros(self.scenario.marginal_rows)
        grad[self._keep] = (1.0 - core.x[-1]) * core.duals(self._objective)
        return grad

    def solve(self, tensor: CorrelationTensor) -> ThresholdResult:
        """The threshold with its witness and dual certificate.

        The optimum is refactored and re-checked first, so the certificate
        comes from exact factors, not accumulated updates; an optimum whose
        inverse is already fresh (run's re-check before its claim has just
        refactored) is not refactored again. The weights must
        be a local model of the tensor at noise f_thr on every marginal row
        (witness_residual), and the dual must bound the optimum from below to
        within CERTIFICATE_GAP_TOL; otherwise SolverFailure.
        """
        start = time.perf_counter()
        lp = build_threshold_lp(tensor)
        core = self._solve_core(tensor)
        try:
            if core.stale_updates:
                core.refactor()
            if core.run(self._objective) != OPTIMAL:
                raise SolverFailure("numerical", "re-verification after refactor failed")
        except SolverFailure:
            self._forget()
            raise
        dual = np.zeros(lp.num_rows)
        dual[self._keep] = core.duals(self._objective)
        f_thr = float(core.x[-1])
        witness = JointDistribution(tensor.scenario, core.x[:-1])  # copies the weights
        residual = max(witness_residual(tensor, f_thr, core.x[:-1]))
        bound = certified_lower_bound(lp, dual)
        gap = f_thr - bound
        if residual > WITNESS_MARGINAL_TOL:
            raise SolverFailure("numerical", f"witness marginal residual {residual:.3e}")
        if gap > CERTIFICATE_GAP_TOL:
            raise SolverFailure("numerical", f"certificate gap {gap:.3e}")
        certificate = {
            "dual": dual,
            "lower_bound": bound,
            "gap": gap,
            "marginal_residual": residual,
        }
        stats = {
            "status": OPTIMAL,
            "iterations": self.last_pivots,
            "runtime_s": time.perf_counter() - start,
            "warm_start": self.last_warm,
            "rows": lp.num_rows,
            "variables": lp.num_vars,
        }
        return ThresholdResult(f_thr, witness, certificate, stats)


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

    Read off the threshold solve, with no LP of its own. Below its optimum F
    there is no local model. From F up, the optimal weights w mixed as
    k w + (1-k) uniform, k = (1-q)/(1-F), reproduce the noisy tensor on the
    kept rows, since the uniform distribution over assignments gives 1/d^N
    on every row. The mixture is then checked on every marginal row and the
    normalization row, so a tensor that is inconsistent on a dropped row
    (one that signals) still has no local model.
    """
    q = float(noise_fraction)
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"noise fraction must lie in [0, 1], got {q}")
    opts = options or SolverOptions()
    core = ThresholdSolver(tensor.scenario, opts)._solve_core(tensor)
    f_thr = float(core.x[-1])
    if q < f_thr - opts.tol_feas:
        return False
    k = min(1.0, (1.0 - q) / (1.0 - f_thr)) if f_thr < 1.0 else 0.0
    weights = k * core.x[:-1] + (1.0 - k) / tensor.scenario.joint_size
    return max(witness_residual(tensor, q, weights)) <= opts.tol_feas
