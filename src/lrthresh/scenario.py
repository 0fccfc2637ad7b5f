"""Measurement scenarios, pure states, and phased multiport observables.

Conventions used throughout the package: every label is 0-based (kets
|0>..|d-1>, outcomes 0..d-1, settings 0..m-1), state coefficients are stored
party-major (first party slowest), and phase vectors are kept in canonical
gauge (first component 0, all components reduced to [0, 2*pi)).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from typing import Sequence

import numpy as np

TWO_PI = 2.0 * np.pi

NORM_TOL = 1e-12


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _real(values, field: str) -> np.ndarray:
    """values as a new float array (C order); complex input must have a zero imaginary part."""
    a = np.asarray(values)
    if np.iscomplexobj(a):
        if a.size and np.max(np.abs(a.imag)) > 1e-12:
            raise ValueError(f"{field} must be real")
        a = a.real
    return np.array(a, dtype=float, order="C")


@dataclass(frozen=True)
class Scenario:
    """N parties, each measuring one of m d-outcome observables."""

    parties: int
    dim: int
    settings_per_party: int = 2

    def __post_init__(self):
        if self.parties < 2:
            raise ValueError(f"need at least 2 parties, got {self.parties}")
        if self.dim < 2:
            raise ValueError(f"need local dimension >= 2, got {self.dim}")
        if self.settings_per_party != 2:
            raise ValueError("only 2 settings per party are supported")

    @property
    def state_size(self) -> int:
        return self.dim**self.parties

    @property
    def joint_size(self) -> int:
        """Atoms of a hidden joint distribution: one outcome per party per setting."""
        return self.dim ** (self.settings_per_party * self.parties)

    @property
    def marginal_rows(self) -> int:
        """Number of marginal conditions: one per (setting combo, outcome combo)."""
        return (self.settings_per_party**self.parties) * (self.dim**self.parties)

    @property
    def setting_combos(self) -> int:
        return self.settings_per_party**self.parties

    @property
    def outcome_combos(self) -> int:
        return self.dim**self.parties


@dataclass(frozen=True)
class PureState:
    """Real-coefficient pure state over the party-major product basis."""

    scenario: Scenario
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        c = _real(self.coeffs, "state coefficients").ravel()
        if c.size != self.scenario.state_size:
            raise ValueError(
                f"state needs {self.scenario.state_size} coefficients, got {c.size}"
            )
        if not np.all(np.isfinite(c)):
            raise ValueError("state coefficients must be finite")
        norm = np.linalg.norm(c)
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"state norm {float(norm)!r} is not 1 within {NORM_TOL}")
        object.__setattr__(self, "coeffs", _frozen(c))

    @property
    def tensor(self) -> np.ndarray:
        """Coefficients reshaped to one axis per party."""
        d, n = self.scenario.dim, self.scenario.parties
        return self.coeffs.reshape((d,) * n)


def canonical_phases(phases: Sequence[float] | np.ndarray) -> np.ndarray:
    """Reduce phase vectors to canonical gauge: first entry 0, all in [0, 2*pi).

    Works along the last axis, so a whole (parties, settings, d) table is
    reduced in one call. A uniform shift of one vector's entries is a global
    phase on its multiport unitary, so it is fixed to zero; the map is
    idempotent.
    """
    p = np.array(phases, dtype=float, ndmin=1)
    if not np.isfinite(p).all():
        raise ValueError("phases must be finite")
    p = np.mod(p - p[..., :1], TWO_PI)
    p[p >= TWO_PI] = 0.0  # mod can round a tiny negative up to exactly 2*pi
    return p


@dataclass(frozen=True)
class PhaseSettings:
    """Per party and per setting, one length-d phase vector (canonical gauge)."""

    scenario: Scenario
    table: np.ndarray = field(repr=False)

    def __post_init__(self):
        n, m, d = (
            self.scenario.parties,
            self.scenario.settings_per_party,
            self.scenario.dim,
        )
        t = _real(self.table, "settings table")
        if t.shape != (n, m, d):
            raise ValueError(f"settings table must have shape {(n, m, d)}, got {t.shape}")
        object.__setattr__(self, "table", _frozen(canonical_phases(t)))


def tritter_unitary(dim: int, phases: Sequence[float] | np.ndarray) -> np.ndarray:
    """Unbiased d-port unitary with input-beam phases, broadcast over leading axes.

    U[j', j] = exp(2i*pi*j'*j/d) / sqrt(d) * exp(i*phases[j]); every element has
    modulus 1/sqrt(d), so the measurement basis is unbiased with respect to the
    computational one for any choice of phases. Phases of shape (..., d) give
    unitaries of shape (..., d, d).
    """
    if dim < 2:
        raise ValueError(f"need dim >= 2, got {dim}")
    p = np.asarray(phases, dtype=float)
    if p.ndim == 0 or p.shape[-1] != dim:
        raise ValueError(f"need {dim} phases along the last axis, got shape {p.shape}")
    if not np.isfinite(p).all():
        raise ValueError("phases must be finite")
    return _fourier(dim) * np.exp(1j * p)[..., np.newaxis, :]


@cache
def _fourier(dim: int) -> np.ndarray:
    """The d-point Fourier matrix exp(2i*pi*j'*j/d) / sqrt(d), built once per d (read-only)."""
    j = np.arange(dim)
    return _frozen(np.exp(2j * np.pi * np.outer(j, j) / dim) / np.sqrt(dim))


def setting_unitaries(settings: PhaseSettings) -> np.ndarray:
    """Stack of observables' unitaries, shape (parties, settings, d, d)."""
    return tritter_unitary(settings.scenario.dim, settings.table)


def ghz_state(scenario: Scenario) -> PureState:
    """Maximally entangled state: amplitude 1/sqrt(d) on |k...k> for each k."""
    d, n = scenario.dim, scenario.parties
    c = np.zeros((d,) * n)
    for k in range(d):
        c[(k,) * n] = 1.0
    return PureState(scenario, c.ravel() / np.sqrt(d))


def product_state(scenario: Scenario, local_vectors: Sequence[Sequence[float]]) -> PureState:
    """Separable state: outer product of per-party real unit vectors."""
    d, n = scenario.dim, scenario.parties
    if len(local_vectors) != n:
        raise ValueError(f"need {n} local vectors, got {len(local_vectors)}")
    vecs = []
    for i, v in enumerate(local_vectors):
        a = _real(v, f"local vector {i}").ravel()
        if a.size != d:
            raise ValueError(f"local vector {i} must have length {d}, got {a.size}")
        if abs(np.linalg.norm(a) - 1.0) > NORM_TOL:
            raise ValueError(f"local vector {i} is not unit norm")
        vecs.append(a)
    c = vecs[0]
    for a in vecs[1:]:
        c = np.multiply.outer(c, a)
    return PureState(scenario, c.ravel())


# Bundled three-qutrit constants: the tabulated optimal-state coefficients
# (party-major, |000> first) and the two published phase tables.

_TABLE_COEFFS = np.array(
    [
        +0.186, +0.076, +0.230, +0.218, +0.046, +0.112, +0.172, +0.033, +0.247,
        +0.216, +0.050, +0.110, +0.160, +0.049, +0.236, +0.204, +0.055, +0.235,
        -0.078, +0.406, -0.029, -0.023, +0.385, +0.035, -0.123, +0.393, -0.128,
    ]
)

_MAXENT_3QUTRIT = [
    [(0, 0, 2 / 3), (0, 0, 0)],          # party A, settings 0 and 1
    [(0, 0, 1), (0, 0, 5 / 3)],          # party B
    [(0, 1 / 3, 0), (0, 1, 0)],          # party C
]

_NEAR_OPTIMAL_3QUTRIT = [
    [(0, 2 / 3, -5 / 9), (0, 2 / 3, 0)],
    [(0, 17 / 18, -1 / 18), (0, 0, 0)],
    [(0, 1, 23 / 36), (0, 7 / 36, -2 / 3)],
]

PAPER_SETTINGS_NAMES = ("maxent_3qutrit", "near_optimal_3qutrit")


def paper_optimal_state() -> PureState:
    """The bundled three-qutrit state with the strongest known noise resistance.

    The published 3-decimal coefficients are renormalized to unit norm; the
    applied factor is available from paper_table_normalization().
    """
    return PureState(
        Scenario(3, 3), _TABLE_COEFFS / np.linalg.norm(_TABLE_COEFFS)
    )


def paper_table_normalization() -> float:
    """Norm of the raw tabulated coefficients (divided out by paper_optimal_state)."""
    return float(np.linalg.norm(_TABLE_COEFFS))


def paper_settings(which: str) -> PhaseSettings:
    """Bundled three-qutrit phase tables, keyed by PAPER_SETTINGS_NAMES."""
    if which == "maxent_3qutrit":
        raw = _MAXENT_3QUTRIT
    elif which == "near_optimal_3qutrit":
        raw = _NEAR_OPTIMAL_3QUTRIT
    else:
        raise ValueError(
            f"unknown settings name {which!r}; expected one of {PAPER_SETTINGS_NAMES}"
        )
    table = np.array(raw, dtype=float) * np.pi
    return PhaseSettings(Scenario(3, 3), table)
