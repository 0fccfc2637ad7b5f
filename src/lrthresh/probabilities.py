"""Quantum outcome probabilities for all setting combinations, plus noise.

The production path contracts the state coefficient tensor with one party's
stack of multiport unitaries at a time and works for any (parties, dim). The
tests cross-check it against an explicit Kronecker product of the unitaries
applied to the state, at several (parties, dim), and against the three-qutrit
cosine expansion.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .scenario import PhaseSettings, PureState, Scenario, _frozen, setting_unitaries

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
                f"probability entry {low!r} below clamping threshold -{CLAMP_TOL}"
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


def noisy_tensor(tensor: CorrelationTensor, noise_fraction: float) -> CorrelationTensor:
    """Admix white noise: entrywise (1-F) p + F / d^N."""
    f = float(noise_fraction)
    if not 0.0 <= f <= 1.0:
        raise ValueError(f"noise fraction must lie in [0, 1], got {f}")
    uniform = 1.0 / tensor.scenario.outcome_combos
    return CorrelationTensor(tensor.scenario, (1.0 - f) * tensor.probs + f * uniform)
