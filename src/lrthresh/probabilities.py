"""Quantum outcome probabilities for all setting combinations, plus noise.

The production path contracts each party's multiport unitary into the state
coefficient tensor and works for any (parties, dim). The tests cross-check it
against the explicit three-qutrit cosine expansion.
"""

from __future__ import annotations

import string
from dataclasses import dataclass, field

import numpy as np

from .scenario import PhaseSettings, PureState, Scenario, _frozen, setting_unitaries

# Entries are clamped to 0 down to this excursion; anything more negative is a bug.
CLAMP_TOL = 1e-12
BLOCK_SUM_TOL = 1e-10


class ScenarioMismatchError(ValueError):
    """State and settings belong to different scenarios."""


class UnsupportedScenarioError(ValueError):
    """Operation is only defined for a specific scenario."""


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


# cached einsum expression and contraction path per scenario shape
_CONTRACTION_PLANS: dict[tuple[int, int, int], tuple[str, list]] = {}


def _contraction_plan(n: int, m: int, d: int) -> tuple[str, list]:
    key = (n, m, d)
    plan = _CONTRACTION_PLANS.get(key)
    if plan is None:
        letters = string.ascii_letters
        if 3 * n > len(letters):
            raise UnsupportedScenarioError(f"too many parties for one contraction: {n}")
        set_ax, out_ax, ket_ax = letters[:n], letters[n:2 * n], letters[2 * n:3 * n]
        expr = (
            ",".join(set_ax[p] + out_ax[p] + ket_ax[p] for p in range(n))
            + f",{ket_ax}->{set_ax}{out_ax}"
        )
        shapes = [np.empty((m, d, d), complex)] * n + [np.empty((d,) * n, complex)]
        path = np.einsum_path(expr, *shapes, optimize="greedy")[0]
        plan = (expr, path)
        _CONTRACTION_PLANS[key] = plan
    return plan


def correlation_tensor(state: PureState, settings: PhaseSettings) -> CorrelationTensor:
    """Born probabilities |<a_1..a_N| U_1 x...x U_N |psi>|^2 for every setting combo.

    All setting combinations are contracted in one einsum: party p contributes
    its (settings, outcome, ket) unitary stack, the state supplies the ket
    axes, and the result carries setting axes then outcome axes.
    """
    if state.scenario != settings.scenario:
        raise ScenarioMismatchError(
            f"state scenario {state.scenario} != settings scenario {settings.scenario}"
        )
    sc = state.scenario
    n, m, d = sc.parties, sc.settings_per_party, sc.dim
    unitaries = setting_unitaries(settings)
    expr, path = _contraction_plan(n, m, d)
    amp = np.einsum(expr, *unitaries, state.tensor.astype(complex), optimize=path)
    return CorrelationTensor(sc, np.abs(amp) ** 2)


def noisy_tensor(tensor: CorrelationTensor, noise_fraction: float) -> CorrelationTensor:
    """Admix white noise: entrywise (1-F) p + F / d^N."""
    f = float(noise_fraction)
    if not 0.0 <= f <= 1.0:
        raise ValueError(f"noise fraction must lie in [0, 1], got {f}")
    uniform = 1.0 / tensor.scenario.outcome_combos
    return CorrelationTensor(tensor.scenario, (1.0 - f) * tensor.probs + f * uniform)
