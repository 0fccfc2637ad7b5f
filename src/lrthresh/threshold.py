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
and primal simplex pivots, from it or from the last optimum.

With two settings and d <= 3 the facets of two parties' local polytope are
known. Read on a pair of parties, with the other party's setting and outcome
fixed, each one bounds the noise fraction a tensor needs from below, with no
LP (_facet_rows). At two parties the facets are complete and the largest
bound is the threshold (_FacetThreshold), through which the search evaluates
those scenarios; at three parties the bounds screen the search's draws.
Every certified solve, there too, is the LP's.

Which assignments each marginal row sums is read from closed-form index
arrays (_marginal_supports): the kept rows, the witness residual and the
certificate's weak-duality bound all come from them, with no sparse matrix.
scipy.sparse is loaded only by build_threshold_lp and
assignment_marginal_matrix (dump-lp and the tests' oracles), and by the
solver's sparse pricing path from (3,3) up.
"""

from __future__ import annotations

import functools
import itertools
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

import numpy as np

from .probabilities import CorrelationTensor, ScenarioMismatchError
from .scenario import PhaseSettings, PureState, Scenario, _frozen, _real
from .simplex import (
    OPTIMAL,
    BoundedSimplex,
    LinearProgram,
    SolverFailure,
    SolverOptions,
    degenerate_start_rule,
    pricing_copy,
)
from .simplex import independent_rows, solve_lp  # noqa: F401  perfbench/spans.py patches these
from .simplex import certified_lower_bound  # noqa: F401  perfbench/spans.py patches it here

if TYPE_CHECKING:
    import scipy.sparse as sp

WITNESS_MARGINAL_TOL = 1e-8
CERTIFICATE_GAP_TOL = 1e-8
# A warm repair that has not finished after this many pivots per kept row
# hands over to the closed-form retry.
_WARM_PIVOTS_PER_ROW = 10


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
        w = _real(self.weights, "assignment weights")
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
        object.__setattr__(self, "weights", _frozen(np.maximum(w, 0.0, out=w)))


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
    Built once per scenario, as the CSR form of _marginal_supports' rows:
    every row holds the same number of assignments, in ascending order.
    This sparse form serves build_threshold_lp.
    """
    import scipy.sparse as sp

    rows, _ = _marginal_supports(sc)
    indptr = np.arange(0, rows.size + 1, rows.shape[1])
    return sp.csr_array((np.ones(rows.size), rows.ravel(), indptr),
                        shape=(sc.marginal_rows, sc.joint_size))


def build_threshold_lp(tensor: CorrelationTensor) -> LinearProgram:
    """The threshold LP for one tensor: variables are assignment weights then F.

    Equality rows: for every setting and outcome combination,
    (model marginal) + F (P - 1/d^N) = P, followed by a final row fixing the
    total assignment weight to 1. All variables live in [0, 1]; the objective
    is F alone, so the optimum is the threshold.
    """
    import scipy.sparse as sp

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
def _marginal_supports(sc: Scenario) -> tuple[np.ndarray, np.ndarray]:
    """Per marginal row, the assignments it sums; per assignment, the rows it enters.

    The incidence of assignment_marginal_matrix, ascending and read-only, in
    closed form. In setting block (s_1, ..., s_N) assignment j enters the
    row of the outcomes it answers there, its base-d digits at coordinates
    p*m + s_p; a row sums the assignments that answer its outcomes, in index
    order. Every row sums d^(N(m-1)) assignments and every assignment enters
    m^N rows, so both fit in rectangular index arrays.
    """
    d, parties, m = sc.dim, sc.parties, sc.settings_per_party
    digits = np.indices((d,) * (parties * m)).reshape(parties, m, -1)  # [party, setting, j]
    combos = np.indices((m,) * parties).reshape(parties, -1)  # [party, block]
    outcomes = digits[np.arange(parties)[:, None], combos]  # [party, block, j]
    place = d ** np.arange(parties - 1, -1, -1)
    entered = np.tensordot(place, outcomes, axes=1)  # [block, j]: outcome index in the block
    entered += d ** parties * np.arange(sc.setting_combos)[:, None]
    rows = np.argsort(entered, axis=1, kind="stable").reshape(sc.marginal_rows, -1)
    return _frozen(rows), _frozen(np.ascontiguousarray(entered.T))


@functools.cache
def _kept_rows(sc: Scenario) -> tuple[np.ndarray, np.ndarray]:
    """The Collins-Gisin row indices and their dense marginal rows, per scenario."""
    keep = _collins_gisin_rows(sc)
    a_keep = np.zeros((keep.size, sc.joint_size))
    np.put_along_axis(a_keep, _marginal_supports(sc)[0][keep], 1.0, axis=1)
    return _frozen(keep), _frozen(a_keep)


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


def _bell_facet_rows(d: int) -> np.ndarray:
    """The nontrivial facets c . P <= 2 of two parties' local polytope, as a new array.

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
    return np.concatenate([r.reshape(-1, 4 * d * d) for r in rows])


@functools.cache
def _facet_rows(sc: Scenario) -> tuple[np.ndarray, np.ndarray] | None:
    """The two-party facets as noise bounds on a pair of parties, and each one's slack, read-only.

    Two or three parties (with two settings, as every scenario has) and
    d <= 3; None elsewhere. A facet c . P_AB <= 2 of two parties
    (_bell_facet_rows), with the other party's setting z and outcome k held
    fixed where there is one, gives sum c . P(a, b, k | x, y, z) <= 2 P(k | z)
    on every local tensor (Pironio, J. Math. Phys. 46, 062112 (2005)).
    P(k | z) is read at the pair's settings (0, 0), so each row is c with 2
    taken off its (0, 0) block: one linear functional on a pair's
    (x, y, a, b) column at one (z, k). It sends the uniform tensor to
    -slack, slack = (2 - c . u)/d^(N-2) > 0 with u the two-party uniform
    tensor, so a tensor on which it reads X > 0 needs the noise fraction
    X/(X + slack) at least. At two parties the (0, 0) block sums to 1,
    X/(X + slack) is (c.P - 2)/(c.P - c.u), and since the facets are
    complete the largest of these is the threshold. The rows come from the
    uncached builder and are edited in place, so a process holds one copy
    of the facets.
    """
    if sc.parties not in (2, 3) or sc.dim > 3:
        return None
    d = sc.dim
    rows = _bell_facet_rows(d)
    slack = (2.0 - rows.sum(axis=1) / d ** 2) / d ** (sc.parties - 2)
    rows[:, :d * d] -= 2.0  # the (0, 0) block
    return _frozen(rows), _frozen(slack)


class _FacetThreshold:
    """The two-party threshold from the facets of the local polytope (_facet_rows).

    A row that reads X > 0 on the tensor needs the noise fraction
    X/(X + slack), and the threshold is the largest of these, or 0 when no
    row does (a Born tensor never violates positivity). Only rows with
    X > 0 are divided, and there X + slack > 0. It stands in for
    ThresholdSolver's value() and tensor_gradient() in the search; the
    certified solve stays an LP.
    """

    def __init__(self, sc: Scenario):
        self.scenario = sc
        self._rows, self._slack = _facet_rows(sc)
        self._active: tuple[int, float] | None = None  # (row, X) of the last value()

    def value(self, tensor: CorrelationTensor) -> float:
        """The threshold at the tensor."""
        if tensor.scenario != self.scenario:
            raise ScenarioMismatchError("tensor does not belong to this solver's scenario")
        excess = self._rows @ tensor.flat
        violated = np.flatnonzero(excess > 0.0)
        if not violated.size:
            self._active = (-1, 0.0)
            return 0.0
        x = excess[violated]
        ratios = x / (x + self._slack[violated])
        k = int(ratios.argmax())
        self._active = (int(violated[k]), float(x[k]))
        return float(ratios[k])

    def tensor_gradient(self) -> np.ndarray | None:
        """dF/dP at the tensor of the last value() call: the row times slack/(X + slack)^2.

        The row is the one that set the threshold, the first of them at a
        tie, so at a tie this is one subgradient of several; 0 where no row
        reads X > 0. None before the first value().
        """
        if self._active is None:
            return None
        k, x = self._active
        if k < 0:
            return np.zeros(self.scenario.marginal_rows)
        slack = self._slack[k]
        return self._rows[k] * (slack / (x + slack) ** 2)


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
    rows, _ = _marginal_supports(sc)
    marginals = _sums_in_order(np.asarray(weights, dtype=float)[rows])
    return (float(np.max(np.abs(marginals - target))),
            abs(float(np.sum(weights)) - 1.0))


def _sums_in_order(parts: np.ndarray) -> np.ndarray:
    """Each row of parts summed left to right, one column at a time.

    Over rows of _marginal_supports' ascending index arrays that is the order
    in which scipy's sparse matrix-vector products add, so the sums equal
    products with assignment_marginal_matrix bit for bit; np.sum would pair
    the terms up.
    """
    acc = parts[:, 0].copy()
    for t in range(1, parts.shape[1]):
        acc += parts[:, t]
    return acc


def _lower_bound(tensor: CorrelationTensor, dual: np.ndarray) -> float:
    """certified_lower_bound(build_threshold_lp(tensor), dual), without building the LP.

    z = c - A^T y is summed over each column's support in row order, as the
    sparse product sums it, so the bound is the same float bit for bit:
    z_j = -(sum of y over the rows assignment j enters, then y_norm) and
    z_F = 1 - sum_r (P_r - 1/d^N) y_r. Every variable lies in [0, 1], so
    only z_j < 0 lowers the bound.
    """
    sc = tensor.scenario
    _, cols = _marginal_supports(sc)
    y_rows = dual[:-1]
    z = np.empty(sc.joint_size + 1)
    z[:-1] = -(_sums_in_order(y_rows[cols]) + dual[-1])
    mixing = tensor.flat - 1.0 / sc.dim ** sc.parties
    z[-1] = 1.0 - np.cumsum(mixing * y_rows)[-1]  # cumsum adds in row order too
    per_var = np.where(z < 0, z, 0.0)
    return float(dual @ np.append(tensor.flat, 1.0) + per_var.sum())


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


class ThresholdSolver:
    """Repeated-solve engine for one scenario, reusing structure between calls.

    The objective never changes, so any basis stays dual feasible when the
    tensor moves. A cold solve starts from the closed-form Collins-Gisin
    basis. A warm solve starts from the last optimum, with the tensor's F
    column patched into its factorization by a rank-one update. Either way
    a dual-simplex repair followed by a primal cleanup finishes the solve.
    solve() can instead start from a basis another solver of the scenario
    held optimal (last_basis()), as the search's certified solve does from
    its best restart's. A warm repair that fails, or runs past
    _WARM_PIVOTS_PER_ROW pivots per kept row, is retried once from the
    closed-form basis; a failed retry raises SolverFailure. value() returns
    just the optimum for tight optimization loops; solve() adds the witness
    and certificate.

    The closed-form start is fully dual degenerate: every weight's reduced
    cost is 0. From 200 kept rows up ((5,2), (3,4), (4,3)) its dual run
    picks the leaving row by dual steepest edge, which halves the cold
    pivots at (5,2) and brings (3,4) within reach; below that, and on
    every warm repair, it takes the largest violation
    (simplex.degenerate_start_rule). last_cold_rule, and solver_stats'
    "cold_start_rule", name the rule the last solve's cold start used, or
    None when the solve finished warm.
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
        self.last_pivots = 0
        self.last_warm = False  # whether the last solve repaired from the prior optimum or a start
        self.last_cold_rule = None  # the leaving-row rule of the last closed-form start, if any

    def _forget(self) -> None:
        """After a failure the core may be half updated: start the next call cold."""
        self._have_last = False

    def last_basis(self) -> tuple[np.ndarray, np.ndarray] | None:
        """Copies of the basis and at-upper flags of the last optimum, or None when none is held.

        Another solver of the scenario starts a solve from them (the start
        argument of solve()).
        """
        if not self._have_last:
            return None
        return self._core.basis.copy(), self._core.at_upper.copy()

    def _solve_core(self, tensor: CorrelationTensor,
                    start: tuple[np.ndarray, np.ndarray] | None = None) -> BoundedSimplex:
        """Bring the shared core to a verified optimum for this tensor.

        A warm call patches the F column into the last optimum's
        factorization and repairs from there. start, a (basis, at-upper
        flags) pair from last_basis(), is installed with one refactor and
        repaired from instead. A warm repair that stops short of an optimum,
        or raises, is retried from the closed-form basis. If the retry fails
        as well, the solver forgets its last optimum, so the next call starts
        cold, and SolverFailure is raised.
        """
        if tensor.scenario != self.scenario:
            raise ScenarioMismatchError("tensor does not belong to this solver's scenario")
        core = self._core
        b = tensor.flat[self._keep]  # kept rows are marginal rows, never normalization
        core.b = b
        mixing = b - self._shift
        pivots_before = core.pivots
        warm_cap = _WARM_PIVOTS_PER_ROW * core.r

        warm = False
        cold_rule = None
        if start is not None:
            core.set_column(core.n - 1, mixing)
            try:
                core.set_basis(*start)  # refactors, so a singular basis raises here
                warm = core.repair(self._objective, max_pivots=warm_cap) == OPTIMAL
            except SolverFailure:
                pass  # the retry below starts afresh
        elif self._have_last:
            # patch the one changed column into the factorization of the last basis
            if core.replace_column(core.n - 1, mixing):
                core.recompute_basics()
                try:
                    warm = core.repair(self._objective, max_pivots=warm_cap) == OPTIMAL
                except SolverFailure:
                    pass  # a singular refactor mid-repair; the retry below starts afresh
        else:
            core.set_column(core.n - 1, mixing)
        if not warm:
            # with F nonbasic at 0 every basic variable is a weight, so the
            # duals are 0, the reduced costs equal the objective, and any basis
            # of assignment columns is dual feasible for min F
            cold_rule = degenerate_start_rule(core.r)
            try:
                core.set_basis(self._basis, np.zeros(core.n, dtype=bool),
                               _collins_gisin_inverse(self.scenario))
                status = core.repair(self._objective, cold_rule)
                if status != OPTIMAL:
                    raise SolverFailure(status, "threshold solve did not reach an optimum")
            except SolverFailure:
                self._forget()
                raise
        self.last_pivots = core.pivots - pivots_before
        self.last_warm = warm
        self.last_cold_rule = cold_rule
        self._have_last = True
        return core

    def _recheck(self, core: BoundedSimplex) -> None:
        """Refactor an optimum built on rank-one updates, then confirm it by a primal run."""
        if core.stale_updates:
            core.refactor()
        if core.run(self._objective) != OPTIMAL:
            raise SolverFailure("numerical", "re-verification after refactor failed")

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

    def solve(self, tensor: CorrelationTensor,
              start: tuple[np.ndarray, np.ndarray] | None = None) -> ThresholdResult:
        """The threshold with its witness and dual certificate.

        The optimum is refactored and re-checked first, so the certificate
        comes from exact factors, not accumulated updates; an optimum whose
        inverse is already fresh (run's re-check before its claim has just
        refactored) is not refactored again. The weights must be nonnegative
        to within JointDistribution's 1e-9 and a local model of the tensor at
        noise f_thr on every marginal row (witness_residual), and the dual
        must bound the optimum from below to within CERTIFICATE_GAP_TOL;
        otherwise SolverFailure.

        start, a (basis, at-upper flags) pair from some solver's last_basis(),
        is the vertex the solve repairs from instead of the last optimum or
        the closed-form basis. Only the starting vertex depends on it, and a
        repair from it that fails falls back to the closed-form basis.
        solver_stats' "warm_start" says whether the solve finished from the
        last optimum or from start, "cold_start_rule" which leaving-row rule
        a cold start used (None when there was none), and "iterations"
        counts its pivots.

        Optimal weights below -1e-9, which a tol_feas looser than the
        witness's lets the repair stop at, are repaired once more at the
        default SolverOptions() tolerances before they are refused.
        """
        began = time.perf_counter()
        core = self._solve_core(tensor, start)
        try:
            self._recheck(core)
            if core.x[:-1].min() < -1e-9:
                # a loose tol_feas let the repair stop at weights down to -tol_feas
                pivots_before = core.pivots
                core.opts = SolverOptions()
                try:
                    status = core.repair(self._objective)
                finally:
                    core.opts = self.options
                if status != OPTIMAL:
                    raise SolverFailure(status, "repair at the default tolerances failed")
                self.last_pivots += core.pivots - pivots_before
                self._recheck(core)
        except SolverFailure:
            self._forget()
            raise
        sc = self.scenario
        dual = np.zeros(sc.marginal_rows + 1)  # the normalization row's dual is 0
        dual[self._keep] = core.duals(self._objective)
        f_thr = float(core.x[-1])
        weights = core.x[:-1]
        residual = max(witness_residual(tensor, f_thr, weights))
        bound = _lower_bound(tensor, dual)
        gap = f_thr - bound
        if weights.min() < -1e-9:
            raise SolverFailure("numerical", f"negative witness weight {weights.min():.3e}")
        if residual > WITNESS_MARGINAL_TOL:
            raise SolverFailure("numerical", f"witness marginal residual {residual:.3e}")
        if gap > CERTIFICATE_GAP_TOL:
            raise SolverFailure("numerical", f"certificate gap {gap:.3e}")
        witness = JointDistribution(sc, weights)  # copies the weights
        certificate = {
            "dual": dual,
            "lower_bound": bound,
            "gap": gap,
            "marginal_residual": residual,
        }
        stats = {
            "status": OPTIMAL,
            "iterations": self.last_pivots,
            "runtime_s": time.perf_counter() - began,
            "warm_start": self.last_warm,
            "cold_start_rule": self.last_cold_rule,
            "rows": dual.size,
            "variables": sc.joint_size + 1,
        }
        return ThresholdResult(f_thr, witness, certificate, stats)


def threshold_from_tensor(
    tensor: CorrelationTensor,
    options: SolverOptions | None = None,
    start: tuple[np.ndarray, np.ndarray] | None = None,
) -> ThresholdResult:
    """Threshold of one correlation tensor, with witness and dual certificate.

    A new solver runs it, cold from the closed-form basis, or from start, a
    (basis, at-upper flags) pair from ThresholdSolver.last_basis().
    """
    return ThresholdSolver(tensor.scenario, options).solve(tensor, start)


def threshold(
    state: PureState,
    settings: PhaseSettings,
    options: SolverOptions | None = None,
    start: tuple[np.ndarray, np.ndarray] | None = None,
) -> ThresholdResult:
    """Threshold of the tensor a state produces under phased-multiport readout.

    start is passed to threshold_from_tensor: the search hands it the basis
    its best restart ended on.
    """
    from .probabilities import correlation_tensor

    if state.scenario != settings.scenario:
        raise ScenarioMismatchError("state and settings describe different scenarios")
    tensor = correlation_tensor(state, settings)
    return threshold_from_tensor(tensor, options=options, start=start)


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
