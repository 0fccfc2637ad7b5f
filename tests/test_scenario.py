"""Scenario, state, and multiport-unitary construction."""

import numpy as np
import pytest

from lrthresh import (
    PhaseSettings,
    PureState,
    Scenario,
    canonical_phases,
    ghz_state,
    paper_optimal_state,
    paper_settings,
    paper_table_normalization,
    product_state,
    tritter_unitary,
)
from lrthresh.scenario import _fourier

from conftest import is_unbiased, is_unitary


def test_scenario_validation():
    sc = Scenario(parties=3, dim=3, settings_per_party=2)
    assert sc.state_size == 27
    assert sc.joint_size == 3 ** 6
    assert sc.marginal_rows == 8 * 27
    with pytest.raises(ValueError):
        Scenario(parties=0, dim=3, settings_per_party=2)
    with pytest.raises(ValueError):
        Scenario(parties=2, dim=1, settings_per_party=2)
    with pytest.raises(ValueError):
        Scenario(parties=2, dim=2, settings_per_party=0)


def test_derived_sizes_consistent():
    for n, d, m in [(2, 2, 2), (2, 3, 2), (3, 2, 2), (3, 3, 2), (4, 2, 2)]:
        sc = Scenario(parties=n, dim=d, settings_per_party=m)
        assert sc.state_size == d ** n
        assert sc.joint_size == d ** (m * n)
        assert sc.marginal_rows == m ** n * d ** n
    # only two settings per party in this version
    with pytest.raises(ValueError):
        Scenario(parties=2, dim=2, settings_per_party=3)


def test_tritter_zero_phase_is_fourier():
    u = tritter_unitary(3, [0.0, 0.0, 0.0])
    w = np.exp(2j * np.pi / 3)
    expected = np.array([[w ** (jp * j) for j in range(3)] for jp in range(3)]) / np.sqrt(3)
    assert np.max(np.abs(u - expected)) < 1e-12


def test_tritter_qubit_case():
    u = tritter_unitary(2, [0.0, 0.0])
    expected = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
    assert np.max(np.abs(u - expected)) < 1e-12


def test_tritter_phase_multiplies_column():
    base = tritter_unitary(3, [0.0, 0.0, 0.0])
    u = tritter_unitary(3, [0.0, 2 * np.pi / 3, 0.0])
    expected = base.copy()
    expected[:, 1] = expected[:, 1] * np.exp(2j * np.pi / 3)
    assert np.max(np.abs(u - expected)) < 1e-12
    assert is_unitary(u)
    assert is_unbiased(u)


def test_tritter_unitary_and_unbiased_random(rng):
    for _ in range(50):
        d = int(rng.integers(2, 6))
        u = tritter_unitary(d, rng.uniform(0, 2 * np.pi, size=d))
        assert is_unitary(u, tol=1e-12)
        assert is_unbiased(u, tol=1e-12)


def test_tritter_length_mismatch():
    with pytest.raises(ValueError):
        tritter_unitary(3, [0.0, 0.0])


def test_fourier_matrix_is_shared_and_unitaries_are_fresh():
    assert _fourier(3) is _fourier(3)
    assert not _fourier(3).flags.writeable
    u, v = tritter_unitary(3, [0.0, 1.0, 2.0]), tritter_unitary(3, [0.0, 1.0, 2.0])
    assert u is not v and u.flags.writeable
    u[0, 0] = 0.0  # the caller owns its copy; the shared matrix is untouched
    assert np.array_equal(tritter_unitary(3, np.zeros(3)), _fourier(3))
    with pytest.raises(ValueError, match="finite"):
        tritter_unitary(3, [0.0, np.inf, 0.0])


def test_uniform_phase_shift_is_global_phase(rng):
    for _ in range(20):
        d = int(rng.integers(2, 5))
        phases = rng.uniform(0, 2 * np.pi, size=d)
        shift = rng.uniform(-10, 10)
        u = tritter_unitary(d, phases)
        u_shifted = tritter_unitary(d, phases + shift)
        assert np.max(np.abs(u_shifted - np.exp(1j * shift) * u)) < 1e-12


def test_canonical_phases_idempotent(rng):
    vectors = [rng.uniform(-20, 20, size=int(rng.integers(2, 6))) for _ in range(30)]
    table = rng.uniform(-20, 20, size=(4, 2, 3))  # one whole (N, 2, d) table
    for p in vectors + [table]:
        once = canonical_phases(p)
        twice = canonical_phases(once)
        assert once.shape == p.shape
        assert np.all(once[..., 0] == 0.0)
        assert np.all((once >= 0) & (once < 2 * np.pi))
        assert np.array_equal(once, twice)
    rows = np.array([canonical_phases(row) for row in table.reshape(-1, 3)])
    assert np.array_equal(canonical_phases(table), rows.reshape(table.shape))


def test_canonical_phases_rejects_nonfinite():
    with pytest.raises(ValueError):
        canonical_phases([0.0, np.inf, 1.0])


def test_ghz_state_three_qutrits():
    sc = Scenario(parties=3, dim=3, settings_per_party=2)
    st = ghz_state(sc)
    coeffs = st.coeffs
    hits = {0, 13, 26}  # |000>, |111>, |222> in party-major order
    for i, c in enumerate(coeffs):
        if i in hits:
            assert abs(c - 1 / np.sqrt(3)) < 1e-12
        else:
            assert c == 0.0
    assert abs(np.linalg.norm(coeffs) - 1.0) < 1e-12


def test_ghz_state_other_scenarios():
    st = ghz_state(Scenario(parties=3, dim=2, settings_per_party=2))
    assert abs(st.coeffs[0] - 1 / np.sqrt(2)) < 1e-12
    assert abs(st.coeffs[7] - 1 / np.sqrt(2)) < 1e-12
    st = ghz_state(Scenario(parties=2, dim=3, settings_per_party=2))
    for i in (0, 4, 8):
        assert abs(st.coeffs[i] - 1 / np.sqrt(3)) < 1e-12


def test_product_state_basis_vectors():
    sc = Scenario(parties=3, dim=3, settings_per_party=2)
    st = product_state(sc, [[1, 0, 0]] * 3)
    assert st.coeffs[0] == 1.0
    assert np.all(st.coeffs[1:] == 0.0)

    sc2 = Scenario(parties=2, dim=2, settings_per_party=2)
    st2 = product_state(sc2, [[1, 0], [0, 1]])
    assert st2.coeffs[1] == 1.0  # |01>

    uniform = np.ones(3) / np.sqrt(3)
    st3 = product_state(sc, [uniform] * 3)
    assert np.max(np.abs(st3.coeffs - 1 / (3 * np.sqrt(3)))) < 1e-12
    assert abs(np.linalg.norm(st3.coeffs) - 1.0) < 1e-12


def test_product_state_rejects_bad_vectors():
    sc = Scenario(parties=2, dim=2, settings_per_party=2)
    with pytest.raises(ValueError):
        product_state(sc, [[1, 0]])  # wrong count
    with pytest.raises(ValueError):
        product_state(sc, [[1, 1], [1, 0]])  # not unit norm
    with pytest.raises(ValueError):
        product_state(sc, [[0.6 + 0.8j, 0], [1, 0]])  # complex component


def test_pure_state_validation():
    sc = Scenario(parties=2, dim=2, settings_per_party=2)
    with pytest.raises(ValueError):
        PureState(sc, np.array([1.0, 0.0, 0.0]))  # wrong length
    with pytest.raises(ValueError):
        PureState(sc, np.array([1.0, 1.0, 0.0, 0.0]))  # not normalized
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            PureState(sc, np.array([bad, 0.0, 0.0, 0.0]))
        with pytest.raises(ValueError):
            product_state(sc, [[bad, 0.0], [1.0, 0.0]])


def test_paper_state_table_values():
    st = paper_optimal_state()
    scale = paper_table_normalization()
    raw = st.coeffs * scale
    assert abs(raw[0] - 0.186) < 1e-12   # |000>
    assert abs(raw[19] - 0.406) < 1e-12  # |201>
    assert abs(raw[26] - (-0.128)) < 1e-12  # |222>
    assert abs(np.linalg.norm(st.coeffs) - 1.0) < 1e-12


def test_paper_settings_values():
    se = paper_settings("maxent_3qutrit")
    assert np.max(np.abs(se.table[0, 0] - [0, 0, 2 * np.pi / 3])) < 1e-12
    assert np.max(np.abs(se.table[2, 1] - [0, np.pi, 0])) < 1e-12
    near = paper_settings("near_optimal_3qutrit")
    expected = canonical_phases([0, 17 * np.pi / 18, -np.pi / 18])
    assert np.max(np.abs(near.table[1, 0] - expected)) < 1e-12
    with pytest.raises(ValueError):
        paper_settings("unknown")


def test_phase_settings_shape_and_gauge():
    sc = Scenario(parties=2, dim=3, settings_per_party=2)
    with pytest.raises(ValueError):
        PhaseSettings(sc, np.zeros((2, 2, 2)))
    table = np.full((2, 2, 3), 1.5)
    se = PhaseSettings(sc, table)
    # uniform rows collapse to the zero gauge
    assert np.max(np.abs(se.table)) == 0.0
