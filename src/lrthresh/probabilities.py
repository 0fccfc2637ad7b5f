"""Quantum outcome probabilities for all setting combinations, plus noise.

The production path contracts the state coefficient tensor with one party's
stack of multiport unitaries at a time and works for any (parties, dim). The
tests cross-check it against an explicit Kronecker product of the unitaries
applied to the state, at several (parties, dim), and against the three-qutrit
cosine expansion. A backward pass, correlation_tensor_vjp, gives the gradient
of any weighted sum of the probabilities with respect to the phases and the
state; the search uses it with the LP duals as weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .scenario import PhaseSettings, PureState, Scenario, _frozen, setting_unitaries, \
    tritter_unitary

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
        sc = self.scenario
        shape = (sc.settings_per_party,) * sc.parties + (sc.dim,) * sc.parties
        p = np.array(self.probs, dtype=float)
        if p.shape != shape:
            raise ValueError(f"probability tensor must have shape {shape}, got {p.shape}")
        low = p.min()
        if low < -CLAMP_TOL:
            raise NegativeProbabilityError(
                f"probability entry {float(low)!r} below clamping threshold -{CLAMP_TOL}"
            )
        np.clip(p, 0.0, None, out=p)
        outcome_axes = tuple(range(sc.parties, 2 * sc.parties))
        sums = p.sum(axis=outcome_axes)
        if np.max(np.abs(sums - 1.0)) > BLOCK_SUM_TOL:
            raise ValueError(
                "outcome probabilities do not sum to 1 for every setting combination"
            )
        object.__setattr__(self, "probs", _frozen(p))

    @property
    def flat(self) -> np.ndarray:
        return self.probs.reshape(-1)


def correlation_tensor(state: PureState, settings: PhaseSettings) -> CorrelationTensor:
    """Born probabilities |<a_1..a_N| U_1 x...x U_N |psi>|^2 for every setting combo.

    All setting combinations come out of one pass over the parties: each step
    contracts the leading ket axis of the amplitudes with party p's
    (settings, outcome, ket) unitary stack and appends that party's setting and
    outcome axes. The axes then alternate (s_1, a_1, s_2, a_2, ...), and one
    transpose orders them settings first.
    """
    if state.scenario != settings.scenario:
        raise ScenarioMismatchError(
            f"state scenario {state.scenario} != settings scenario {settings.scenario}"
        )
    sc = state.scenario
    n = sc.parties
    unitaries = setting_unitaries(settings)
    amp = state.tensor.astype(complex)
    for p in range(n):
        amp = np.tensordot(amp, unitaries[p], axes=([0], [2]))
    amp = amp.transpose(tuple(range(0, 2 * n, 2)) + tuple(range(1, 2 * n, 2)))
    return CorrelationTensor(sc, np.abs(amp) ** 2)


def correlation_tensor_vjp(
    state: PureState,
    settings: PhaseSettings,
    weights: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Gradient of sum(weights * P) with respect to the phase table and the state.

    ``weights`` is one real weight per entry of the flat tensor. Returns
    (an array shaped like ``settings.table``, one entry per state
    coefficient); the full Jacobian is never formed.

    Each multiport is the Fourier matrix times the diagonal exp(i phases), so
    setting combination s reads out the phased state
    Psi_s[k] = psi[k] exp(i sum_p phi_p[s_p, k_p]) through one fixed
    d^N-point Fourier transform, A_s = F Psi_s. With L = sum(weights * |A|^2),
    dL = Re sum conj(G) dA for G = 2 weights A, and the transform's adjoint
    carries G back to Gamma_s = F^H G_s, so dL = Re sum conj(Gamma) dPsi. A
    phase phi_p[s_p, k_p] then collects Im(Gamma conj(Psi)) over every entry
    with that setting and ket, and psi[k] collects Re(conj(Gamma) exp(i ...))
    over the setting combinations.
    """
    if state.scenario != settings.scenario:
        raise ScenarioMismatchError(
            f"state scenario {state.scenario} != settings scenario {settings.scenario}"
        )
    sc = state.scenario
    n, m, d = sc.parties, sc.settings_per_party, sc.dim
    fourier = tritter_unitary(d, np.zeros(d))
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

