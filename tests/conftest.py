"""Shared fixtures and the independent oracles the tests check the package against."""

from __future__ import annotations

from itertools import combinations, product

import numpy as np
import pytest
import scipy.sparse as sp
import yaml
from scipy.optimize import linprog

from lrthresh import (
    CorrelationTensor,
    LinearProgram,
    PhaseSettings,
    PureState,
    Scenario,
    ScenarioFile,
)
from lrthresh.scenario import setting_unitaries
from lrthresh.threshold import _bell_facet_rows


@pytest.fixture
def rng():
    return np.random.default_rng(20250822)


def is_unitary(u: np.ndarray, tol: float = 1e-12) -> bool:
    return bool(np.max(np.abs(u @ u.conj().T - np.eye(u.shape[0]))) <= tol)


def is_unbiased(u: np.ndarray, tol: float = 1e-12) -> bool:
    d = u.shape[0]
    return bool(np.max(np.abs(np.abs(u) ** 2 - 1.0 / d)) <= tol)


def enumerate_lp_optimum(lp: LinearProgram) -> tuple[str, float | None]:
    """Exhaustive optimum of a small finite-bounded LP via basis enumeration.

    Every vertex of {A x = b, l <= x <= u} has r basic coordinates and the
    rest at a bound, so trying all bases and all bound placements finds the
    exact optimum. Intended for num_vars <= 6 only.
    """
    A = lp.dense_matrix()
    b = np.asarray(lp.eq_rhs, dtype=float)
    c = np.asarray(lp.objective, dtype=float)
    lower = np.asarray(lp.lower, dtype=float)
    upper = np.asarray(lp.upper, dtype=float)
    n, r = lp.num_vars, lp.num_rows
    if not (np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))):
        raise ValueError("oracle needs finite bounds")

    if r == 0:
        x = np.where(c >= 0, lower, upper)
        return "optimal", float(c @ x)

    best = None
    for basis in combinations(range(n), r):
        basis = list(basis)
        B = A[:, basis]
        if abs(np.linalg.det(B)) < 1e-10:
            continue
        nonbasic = [j for j in range(n) if j not in basis]
        for placement in product((False, True), repeat=len(nonbasic)):
            x = np.empty(n)
            for j, hi in zip(nonbasic, placement):
                x[j] = upper[j] if hi else lower[j]
            rhs = b - A[:, nonbasic] @ x[nonbasic] if nonbasic else b
            x[basis] = np.linalg.solve(B, rhs)
            if np.all(x >= lower - 1e-9) and np.all(x <= upper + 1e-9):
                val = float(c @ np.clip(x, lower, upper))
                if best is None or val < best:
                    best = val
    if best is None:
        return "infeasible", None
    return "optimal", best


def random_bounded_lp(rng: np.random.Generator, feasible: bool = True) -> LinearProgram:
    """A small random equality LP with finite box bounds.

    feasible=True plants an interior point; feasible=False shifts the rhs far
    outside the reachable range, which usually (not always) breaks
    feasibility — the oracle supplies the ground truth either way.
    """
    n = int(rng.integers(3, 7))
    r = int(rng.integers(1, min(4, n)))
    A = rng.normal(size=(r, n))
    lower = rng.uniform(-1.0, 0.0, size=n)
    upper = lower + rng.uniform(0.5, 2.0, size=n)
    x0 = lower + rng.uniform(0.1, 0.9, size=n) * (upper - lower)
    b = A @ x0
    if not feasible:
        b = b + rng.choice([-1.0, 1.0], size=r) * rng.uniform(50.0, 100.0, size=r)
    c = rng.normal(size=n)
    return LinearProgram(objective=c, eq_matrix=A, eq_rhs=b, lower=lower, upper=upper)


def highs_lp(lp: LinearProgram, **options):
    """scipy's bundled HiGHS on the same LP, as an independent oracle.

    Returns scipy's OptimizeResult: status 0 is an optimum, 2 infeasible.
    """
    return linprog(lp.objective, A_eq=lp.eq_matrix, b_eq=lp.eq_rhs,
                   bounds=np.column_stack([lp.lower, lp.upper]), method="highs",
                   options=options)


def dual_residual(lp: LinearProgram, primal: np.ndarray, dual: np.ndarray,
                  tol_active: float = 1e-7) -> float:
    """Largest violation of the dual sign conditions at the given primal point."""
    a = lp.dense_matrix()
    z = lp.objective - np.asarray(dual, float) @ a
    at_low = primal <= lp.lower + tol_active
    at_up = primal >= lp.upper - tol_active
    viol = np.zeros_like(z)
    interior = ~at_low & ~at_up
    viol[interior] = np.abs(z[interior])
    only_low = at_low & ~at_up
    viol[only_low] = np.maximum(-z[only_low], 0.0)
    only_up = at_up & ~at_low
    viol[only_up] = np.maximum(z[only_up], 0.0)
    return float(np.max(viol, initial=0.0))


def kronecker_probabilities(state: PureState, settings: PhaseSettings) -> np.ndarray:
    """Born probabilities indexed [s_1..s_N, a_1..a_N], one setting combination at a time.

    Cross-check oracle only: each party's multiport is written out from its
    definition, U[j', j] = exp(2i*pi*j'*j/d) exp(i*phase_j) / sqrt(d), and each
    combination's amplitudes are kron(U_1[s_1], ..., U_N[s_N]) @ psi.
    """
    sc = state.scenario
    n, m, d = sc.parties, sc.settings_per_party, sc.dim
    j = np.arange(d)
    fourier = np.exp(2j * np.pi * np.outer(j, j) / d) / np.sqrt(d)
    probs = np.empty((m,) * n + (d,) * n)
    for combo in np.ndindex((m,) * n):
        u = np.ones((1, 1))
        for p, s in enumerate(combo):
            u = np.kron(u, fourier @ np.diag(np.exp(1j * settings.table[p, s])))
        probs[combo] = (np.abs(u @ state.coeffs) ** 2).reshape((d,) * n)
    return probs


def tensordot_probabilities(state: PureState, settings: PhaseSettings) -> np.ndarray:
    """Born probabilities by one np.tensordot per party, in the same float operations.

    Bit-level oracle for correlation_tensor: the same per-party contraction
    written with tensordot (its leading ket axis against the unitary stack's
    ket axis), then the transpose to settings-then-outcomes order.
    """
    n = state.scenario.parties
    unitaries = setting_unitaries(settings)
    amp = state.tensor.astype(complex)
    for p in range(n):
        amp = np.tensordot(amp, unitaries[p], axes=([0], [2]))
    amp = amp.transpose(tuple(range(0, 2 * n, 2)) + tuple(range(1, 2 * n, 2)))
    return np.abs(amp) ** 2


def tensordot_vjp(state: PureState, settings: PhaseSettings,
                  weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gradient of sum(weights * P) by per-party tensordot transforms (oracle for the VJP).

    The phased state keeps one axis per setting and per ket; the d-point
    Fourier matrix is applied to one ket axis at a time, and its conjugate
    carries 2 weights A back the same way. Each phase sums Im(Gamma conj(Psi))
    over every axis but its own setting and ket.
    """
    sc = state.scenario
    n, m, d = sc.parties, sc.settings_per_party, sc.dim
    j = np.arange(d)
    fourier = np.exp(2j * np.pi * np.outer(j, j) / d) / np.sqrt(d)
    total = np.zeros((1,) * (2 * n))
    for p in range(n):
        shape = [1] * (2 * n)
        shape[p], shape[n + p] = m, d
        total = total + settings.table[p].reshape(shape)
    phase = np.exp(1j * total)  # axes (s_1..s_N, k_1..k_N)
    psi = phase * state.tensor
    amp = psi
    for _ in range(n):
        amp = np.tensordot(amp, fourier, axes=([n], [1]))
    grad = 2.0 * np.asarray(weights, dtype=float).reshape(amp.shape) * amp
    for _ in range(n):
        grad = np.tensordot(grad, fourier.conj(), axes=([n], [0]))
    per_entry = (grad * psi.conj()).imag
    table_grad = np.stack([
        per_entry.sum(axis=tuple(i for i in range(2 * n) if i not in (p, n + p)))
        for p in range(n)
    ])
    coeff_grad = (grad.conj() * phase).real.sum(axis=tuple(range(n)))
    return table_grad, coeff_grad.ravel()


def closed_form_probability(
    state: PureState,
    settings: PhaseSettings,
    setting_combo: tuple[int, int, int],
    outcomes: tuple[int, int, int],
) -> float:
    """Three-qutrit probability from the explicit cosine double sum.

    Cross-check oracle only: 1/27 plus (1/27) * sum over ordered coefficient
    pairs of d_x d_y cos(angle difference), where the angle collects the
    Fourier term (2*pi/3) * sum_p outcome_p * (label_p - label_p') and the
    phase-setting differences. Equivalent to the real part of the coherent
    double sum because the coefficients are real.
    """
    sc = state.scenario
    if (sc.parties, sc.dim) != (3, 3):
        raise ValueError(f"closed form is defined for 3 qutrits only, got {sc}")
    k, l, mm = setting_combo
    a, b, c = outcomes
    for s in (k, l, mm):
        if not 0 <= s < sc.settings_per_party:
            raise ValueError(f"setting index {s} out of range")
    for o in (a, b, c):
        if not 0 <= o < 3:
            raise ValueError(f"outcome {o} out of range")

    labels = np.arange(3)
    g, i, j = np.meshgrid(labels, labels, labels, indexing="ij")
    g, i, j = g.ravel(), i.ravel(), j.ravel()
    phi = settings.table[0, k]
    chi = settings.table[1, l]
    delta = settings.table[2, mm]
    # total phase of each basis ket's amplitude (up to a row-dependent term
    # that cancels between the pair members)
    theta = (
        (2.0 * np.pi / 3.0) * (a * g + b * i + c * j)
        + phi[g] + chi[i] + delta[j]
    )
    coeffs = state.coeffs
    # full double sum: the diagonal contributes sum(d^2)/27 = 1/27
    val = (np.outer(coeffs, coeffs) * np.cos(np.subtract.outer(theta, theta))).sum() / 27.0
    return float(val)


def lifted_facet_bound(tensor: CorrelationTensor) -> float:
    """A lower bound on a tensor's threshold from the two-party facets, lifted to the other parties.

    Test oracle only: it solves no LP. Each facet c . P_AB <= 2 of two
    parties with the same outcome count (threshold._bell_facet_rows), on
    every pair of parties with the other parties' settings z and outcomes k
    held fixed, gives sum c . P(a, b, k | x, y, z) <= 2 P(k | z) on every
    local tensor (Pironio, J. Math. Phys. 46, 062112 (2005)); P(k | z) is
    read at the pair's settings (0, 0), so each row is one linear
    functional. A tensor that violates a row by X > 0 needs the noise
    fraction X / (X + (2 - c . u) / d^(N-2)) at least, u the two-party
    uniform tensor. Returns the largest over every pair and every row, or
    0. At two parties there is no z or k, and the facets being complete,
    this is the threshold itself.
    """
    sc = tensor.scenario
    n, d = sc.parties, sc.dim
    facets = _bell_facet_rows(d).reshape(-1, 2, 2, d, d)  # [row, x, y, a, b]
    slack = (2.0 - facets.sum(axis=(1, 2, 3, 4)) / d**2) / d ** (n - 2)
    best = 0.0
    for pair in combinations(range(n), 2):
        rest = [p for p in range(n) if p not in pair]
        order = [*pair, *rest]
        # [x, y, z, a, b, k], the other parties' settings and outcomes each on one axis
        probs = tensor.probs.transpose(order + [n + p for p in order]).reshape(
            2, 2, 2 ** (n - 2), d, d, d ** (n - 2))
        lifted = np.einsum("rxyab,xyzabk->rzk", facets, probs)
        excess = lifted - 2.0 * probs[0, 0].sum(axis=(1, 2))  # P(k | z) at x = y = 0
        violated = excess > 0.0
        if violated.any():
            x = excess[violated]
            slacks = np.broadcast_to(slack[:, None, None], excess.shape)[violated]
            best = max(best, float((x / (x + slacks)).max()))
    return best


def marginal_incidence(sc: Scenario) -> sp.csr_array:
    """The 0/1 matrix taking assignment weights to stacked marginals, built digit by digit.

    Test oracle for threshold.assignment_marginal_matrix and _marginal_supports:
    each assignment is unpacked into its (party, setting) outcome table, and
    in every setting block its row is the outcome combination the table
    answers there, read party-major.
    """
    n_atoms = sc.joint_size
    d, parties, m = sc.dim, sc.parties, sc.settings_per_party
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
    return sp.coo_array((np.ones(row_idx.size), (row_idx, col_idx)),
                        shape=(sc.marginal_rows, n_atoms)).tocsr()


def noisy_tensor(tensor: CorrelationTensor, noise_fraction: float) -> CorrelationTensor:
    """Admix white noise: entrywise (1-F) p + F / d^N."""
    f = float(noise_fraction)
    if not 0.0 <= f <= 1.0:
        raise ValueError(f"noise fraction must lie in [0, 1], got {f}")
    uniform = 1.0 / tensor.scenario.outcome_combos
    return CorrelationTensor(tensor.scenario, (1.0 - f) * tensor.probs + f * uniform)


def serialize_scenario_file(sf: ScenarioFile) -> str:
    """A scenario file's YAML text, the inverse of parse_scenario_file."""
    doc: dict = {
        "parties": sf.scenario.parties,
        "dim": sf.scenario.dim,
        "settings_per_party": sf.scenario.settings_per_party,
        "state": sf.state_spec,
        "settings": sf.settings_spec,
    }
    if sf.noise is not None:
        doc["noise"] = sf.noise
    return yaml.safe_dump(doc, sort_keys=False, default_flow_style=None)


def parse_lp_text(text: str) -> LinearProgram:
    """Read the plain-text LP format that dump_lp_text writes."""
    toks = [line for line in text.split("\n") if line.strip()]
    n, r = (int(v) for v in toks[0].split())
    objective = np.array([float(v) for v in toks[1].split()])
    nnz = int(toks[2])
    rows = np.empty(nnz, dtype=int)
    cols = np.empty(nnz, dtype=int)
    vals = np.empty(nnz)
    for i in range(nnz):
        a, b, v = toks[3 + i].split()
        rows[i], cols[i], vals[i] = int(a), int(b), float(v)
    rhs = np.array([float(v) for v in toks[3 + nnz].split()])
    lower = np.empty(n)
    upper = np.empty(n)
    for j in range(n):
        lo, up = toks[4 + nnz + j].split()
        lower[j], upper[j] = float(lo), float(up)
    matrix = sp.csr_array((vals, (rows, cols)), shape=(r, n))
    return LinearProgram(objective, matrix, rhs, lower, upper)
