"""Quantum outcome probabilities for all setting combinations, plus noise.

The forward pass (born_probabilities) contracts the state coefficient tensor
with one party's stack of multiport unitaries at a time, one matrix product
per party, and works for any (parties, dim). It takes a leading stack axis,
so the search contracts a block of draws, each with its own state and
settings, in one call; correlation_tensor is a stack of one, and every stack
entry is bit for bit its own correlation_tensor. checked_probabilities
validates a stack the way CorrelationTensor validates one tensor. The tests
cross-check the forward pass against an explicit Kronecker product of the
unitaries applied to the state, at several (parties, dim), and against the
three-qutrit cosine expansion. A backward
pass, correlation_tensor_vjp, gives the gradient of any weighted sum of the
probabilities with respect to a raw phase table and state coefficients; the
search uses it with the LP duals as weights, on the arrays its own
evaluation built, and applies the state normalization's Jacobian itself. It
runs through a per-scenario plan (_born_plan): the d^N-point Fourier
transform and the map from the phase table to each setting combination's
phases, both built once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, reduce
from typing import NamedTuple

import numpy as np

from .scenario import PhaseSettings, PureState, Scenario, _fourier, _frozen, _real, \
    setting_unitaries

# Entries are clamped to 0 down to this excursion; anything more negative is a bug.
CLAMP_TOL = 1e-12
BLOCK_SUM_TOL = 1e-10


class ScenarioMismatchError(ValueError):
    """State and settings belong to different scenarios."""


class NegativeProbabilityError(RuntimeError):
    """Internal consistency failure: probability below the clamping threshold."""


@dataclass(frozen=True)
class CorrelationTensor:
    """Probabilities indexed [s_1..s_N, a_1..a_N] (settings first, party-major)."""

    scenario: Scenario
    probs: np.ndarray = field(repr=False)

    def __post_init__(self):
        p = checked_probabilities(self.scenario, np.asarray(self.probs)[np.newaxis])[0]
        object.__setattr__(self, "probs", _frozen(p))

    @property
    def flat(self) -> np.ndarray:
        return self.probs.reshape(-1)


def _checked_tensor(sc: Scenario, probs: np.ndarray) -> CorrelationTensor:
    """A CorrelationTensor around one entry of a stack that checked_probabilities returned.

    The entry was validated with its stack, so it is not validated again.
    """
    tensor = object.__new__(CorrelationTensor)
    object.__setattr__(tensor, "scenario", sc)
    object.__setattr__(tensor, "probs", _frozen(probs))
    return tensor


def checked_probabilities(sc: Scenario, probs: np.ndarray) -> np.ndarray:
    """A stack of probability tensors, validated, clamped and copied (C order).

    probs is indexed [stack, s_1..s_N, a_1..a_N]; CorrelationTensor checks
    its tensor as a stack of one. Raises ValueError for a wrong shape, an
    entry with a nonzero imaginary part, a non-finite entry, or a setting
    block that does not sum to 1 within BLOCK_SUM_TOL, and
    NegativeProbabilityError for an entry below -CLAMP_TOL; the entries
    between -CLAMP_TOL and 0 are clamped to 0.
    """
    shape = (sc.settings_per_party,) * sc.parties + (sc.dim,) * sc.parties
    p = _real(probs, "probability entries")
    if p.shape[1:] != shape:
        raise ValueError(f"probability tensor must have shape {shape}, got {p.shape[1:]}")
    if not np.isfinite(p).all():
        raise ValueError("probability entries must be finite")
    low = p.min()
    if low < -CLAMP_TOL:
        raise NegativeProbabilityError(
            f"probability entry {float(low)!r} below clamping threshold -{CLAMP_TOL}"
        )
    np.clip(p, 0.0, None, out=p)
    sums = p.sum(axis=tuple(range(1 + sc.parties, 1 + 2 * sc.parties)))
    if np.abs(sums - 1.0).max() > BLOCK_SUM_TOL:
        raise ValueError(
            "outcome probabilities do not sum to 1 for every setting combination"
        )
    return p


def born_probabilities(coeffs: np.ndarray, unitaries: np.ndarray) -> np.ndarray:
    """Unvalidated Born probabilities for a stack of states, each with its own settings.

    coeffs is (stack, d^N) real state coefficients and unitaries the matching
    (stack, parties, settings, d, d) unitary stacks; the result is indexed
    [stack, s_1..s_N, a_1..a_N]. Each step multiplies the amplitudes, leading
    ket axis last, by party p's unitary stack laid out as one (ket, setting x
    outcome) matrix, which appends that party's setting and outcome axes;
    one transpose then orders them settings first. Every stack entry goes
    through the floating-point operations of a stack of one, so its
    probabilities do not depend on the rest of the stack.
    """
    size, n, m, d = unitaries.shape[:4]
    right = unitaries.transpose(0, 1, 4, 2, 3).reshape(size, n, d, m * d)
    amp = coeffs.astype(complex)
    for p in range(n):
        amp = np.ascontiguousarray(amp.reshape(size, d, -1).transpose(0, 2, 1)) @ right[:, p]
    amp = amp.reshape((size,) + (m, d) * n)
    amp = amp.transpose((0,) + tuple(range(1, 2 * n, 2)) + tuple(range(2, 2 * n + 1, 2)))
    return np.abs(amp) ** 2


def correlation_tensor(state: PureState, settings: PhaseSettings) -> CorrelationTensor:
    """Born probabilities |<a_1..a_N| U_1 x...x U_N |psi>|^2 for every setting combo.

    All setting combinations come out of one born_probabilities pass, as a
    stack of one.
    """
    if state.scenario != settings.scenario:
        raise ScenarioMismatchError(
            f"state scenario {state.scenario} != settings scenario {settings.scenario}"
        )
    unitaries = setting_unitaries(settings)
    probs = born_probabilities(state.coeffs[np.newaxis], unitaries[np.newaxis])
    return CorrelationTensor(state.scenario, probs[0])


class _BornPlan(NamedTuple):
    """The fixed parts of a scenario's backward pass (read-only arrays).

    kron is the d^N x d^N Fourier transform over all parties, the first party
    slowest. incidence is 0/1, one row per (setting combination, ket) and one
    column per entry of the flat phase table; row (s, k) holds a 1 at
    (p, s_p, k_p) for every party p, so incidence @ table.ravel() is the
    summed phase of ket k under setting combination s.
    """

    kron: np.ndarray
    incidence: np.ndarray


@cache
def _born_plan(sc: Scenario) -> _BornPlan:
    n, m, d = sc.parties, sc.settings_per_party, sc.dim
    kron = reduce(np.kron, [_fourier(d)] * n)
    labels = np.indices((m,) * n + (d,) * n).reshape(2 * n, -1)  # s_1..s_N, k_1..k_N
    rows = np.arange(labels.shape[1])
    incidence = np.zeros((rows.size, n * m * d))
    for p in range(n):
        incidence[rows, (p * m + labels[p]) * d + labels[n + p]] = 1.0
    return _BornPlan(_frozen(kron), _frozen(incidence))


def correlation_tensor_vjp(
    sc: Scenario,
    table: np.ndarray,
    coeffs: np.ndarray,
    weights: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Gradient of sum(weights * P) with respect to the phase table and the state.

    ``table`` is a (parties, settings, d) phase table and ``coeffs`` the d^N
    real state coefficients, taken as they are: neither is validated or
    normalized here. ``weights`` is one real weight per entry of the flat
    tensor. Returns (an array shaped like ``table``, one entry per state
    coefficient); the full Jacobian is never formed.

    Each multiport is the Fourier matrix times the diagonal exp(i phases), so
    setting combination s reads out the phased state
    Psi_s[k] = psi[k] exp(i sum_p phi_p[s_p, k_p]) through one fixed
    d^N-point Fourier transform K, A_s = K Psi_s. With L = sum(weights * |A|^2),
    dL = Re sum conj(G) dA for G = 2 weights A, and the transform's adjoint
    carries G back to Gamma_s = K^H G_s, so dL = Re sum conj(Gamma) dPsi. A
    phase phi_p[s_p, k_p] then collects Im(Gamma conj(Psi)) over every entry
    with that setting and ket (the transposed incidence of the plan), and
    psi[k] collects Re(conj(Gamma) exp(i ...)) over the setting combinations.
    With one row per setting combination, each step is one numpy call.
    """
    kron, incidence = _born_plan(sc)
    phase = np.exp(1j * (incidence @ table.ravel())).reshape(-1, kron.shape[0])
    psi = phase * coeffs
    amp = psi @ kron.T
    gamma = (2.0 * np.asarray(weights, dtype=float).reshape(amp.shape) * amp) @ kron.conj()
    table_grad = incidence.T @ (gamma * psi.conj()).imag.ravel()
    coeff_grad = (gamma.conj() * phase).real.sum(axis=0)
    return table_grad.reshape(table.shape), coeff_grad
