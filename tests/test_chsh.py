import numpy as np
import pytest

from diqkd.chsh import (
    BELL_LABELS,
    chsh_measurement,
    chsh_povm,
    positive_lift,
    povm_equals_local_mixture,
    t_sign,
)
from diqkd.linalg import identity, min_eigenvalue, pauli, tensor
from helpers import random_density

SQRT2 = np.sqrt(2.0)


def grid_angles(size):
    return 2.0 * np.pi * np.arange(size) / size


def test_aligned_case_coefficients():
    m = chsh_measurement(-1j, -1j)
    assert m.abs_mu == pytest.approx(1 / SQRT2, abs=1e-14)
    assert m.abs_nu == pytest.approx(0.0, abs=1e-14)
    assert m.phi == pytest.approx(np.pi / 4, abs=1e-12)


def test_degenerate_x_equals_z_case():
    m = chsh_measurement(1.0, 1.0)
    assert np.allclose(m.operator, 0.5 * tensor(pauli("z"), pauli("z")), atol=1e-14)
    assert m.abs_mu == pytest.approx(0.5, abs=1e-14)
    assert m.abs_nu == pytest.approx(0.5, abs=1e-14)
    assert m.phi == pytest.approx(0.0, abs=1e-14)


def test_rejects_non_unit_modulus():
    with pytest.raises(ValueError):
        chsh_measurement(0.9, 1.0)
    with pytest.raises(ValueError):
        chsh_measurement(1.0, 1.1j)


def test_normalization_on_grid():
    for ta in grid_angles(64):
        for tb in grid_angles(64):
            m = chsh_measurement(np.exp(1j * ta), np.exp(1j * tb))
            assert abs(m.abs_mu**2 + m.abs_nu**2 - 0.5) <= 1e-12


def test_spectral_reconstruction_and_tsirelson_on_grid():
    worst = 0.0
    for ta in grid_angles(32):
        for tb in grid_angles(32):
            m = chsh_measurement(np.exp(1j * ta), np.exp(1j * tb))
            rec = (m.bell_basis * m.bell_values) @ m.bell_basis.conj().T
            worst = max(worst, np.max(np.abs(rec - m.operator)))
            evals = np.linalg.eigvalsh(m.operator)
            assert np.max(np.abs(evals)) <= 1 / SQRT2 + 1e-12
    assert worst <= 1e-10


def test_bell_basis_orthonormal():
    rng = np.random.default_rng(0)
    for _ in range(100):
        ta, tb = rng.uniform(0, 2 * np.pi, 2)
        m = chsh_measurement(np.exp(1j * ta), np.exp(1j * tb))
        gram = m.bell_basis.conj().T @ m.bell_basis
        assert np.max(np.abs(gram - identity(4))) <= 1e-12


def test_bell_labels_order_matches_values():
    m = chsh_measurement(np.exp(0.3j), np.exp(-1.1j))
    assert BELL_LABELS == ("psi_plus", "psi_minus", "phi_plus", "phi_minus")
    for k, lbl in enumerate(BELL_LABELS):
        v = m.bell_basis[:, k]
        assert np.allclose(m.operator @ v, m.bell_values[k] * v, atol=1e-12)


def test_povm_sums_to_identity_exactly():
    m = chsh_measurement(np.exp(0.7j), np.exp(2.2j))
    e_plus, e_minus = chsh_povm(m)
    assert np.array_equal(e_plus + e_minus, identity(4))


def test_povm_elements_psd_and_min_eig_value():
    m = chsh_measurement(-1j, -1j)
    e_plus, e_minus = chsh_povm(m)
    assert min_eigenvalue(e_plus) == pytest.approx(0.14644660940672627, abs=1e-12)
    assert min_eigenvalue(e_minus) >= -1e-10


def test_povm_probabilities_sum_to_one():
    rng = np.random.default_rng(1)
    m = chsh_measurement(np.exp(1.9j), np.exp(-0.4j))
    e_plus, e_minus = chsh_povm(m)
    for _ in range(20):
        rho = random_density(4, rng)
        total = np.trace(e_plus @ rho).real + np.trace(e_minus @ rho).real
        assert total == pytest.approx(1.0, abs=1e-12)


def test_t_sign_convention():
    assert t_sign("x", "x") == 1
    assert t_sign("z", "z") == 0
    assert t_sign("z", "x") == 0
    assert t_sign("x", "z") == 0


def test_mixture_equivalence_maximally_mixed():
    m = chsh_measurement(np.exp(0.2j), np.exp(1.4j))
    rep = povm_equals_local_mixture(m, identity(4) / 4.0)
    assert rep.povm_prob == pytest.approx(0.5, abs=1e-12)
    assert rep.mixture_prob == pytest.approx(0.5, abs=1e-12)
    assert rep.difference <= 1e-12


def test_mixture_equivalence_ideal_state():
    # top Bell eigenvector at aligned detectors: success probability (1 + 1/sqrt2)/2
    m = chsh_measurement(-1j, -1j)
    rho = m.projector("psi_plus")
    rep = povm_equals_local_mixture(m, rho)
    expected = 0.8535533905932737
    assert rep.povm_prob == pytest.approx(expected, abs=1e-12)
    assert rep.mixture_prob == pytest.approx(expected, abs=1e-12)


def test_mixture_equivalence_random_inputs():
    rng = np.random.default_rng(2)
    for _ in range(100):
        ta, tb = rng.uniform(0, 2 * np.pi, 2)
        m = chsh_measurement(np.exp(1j * ta), np.exp(1j * tb))
        rep = povm_equals_local_mixture(m, random_density(4, rng))
        assert rep.difference <= 1e-12


def test_positive_lift_aligned_and_degenerate():
    assert chsh_measurement(-1j, -1j).phi == pytest.approx(np.pi / 4, abs=1e-12)
    m = chsh_measurement(1.0, 1.0)
    assert m.phi == pytest.approx(0.0, abs=1e-14)
    assert np.allclose(positive_lift(m), identity(4) / 2.0, atol=1e-12)


def test_positive_lift_dominates_and_closed_form():
    yy = tensor(pauli("y"), pauli("y"))
    for ta in grid_angles(16):
        for tb in grid_angles(16):
            m = chsh_measurement(np.exp(1j * ta), np.exp(1j * tb))
            lifted, phi = positive_lift(m), m.phi
            assert abs(phi) <= np.pi / 4 + 1e-12
            assert min_eigenvalue(lifted - m.operator) >= -1e-10
            closed = 0.5 * (np.cos(phi) * identity(4) + np.sin(phi) * yy)
            assert np.max(np.abs(lifted - closed)) <= 1e-10


def test_phi_trig_components():
    rng = np.random.default_rng(3)
    for _ in range(200):
        ta, tb = rng.uniform(0, 2 * np.pi, 2)
        m = chsh_measurement(np.exp(1j * ta), np.exp(1j * tb))
        assert np.cos(m.phi) == pytest.approx(m.abs_mu + m.abs_nu, abs=1e-12)
        assert np.sin(m.phi) == pytest.approx(m.abs_mu - m.abs_nu, abs=1e-12)
