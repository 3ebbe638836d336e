import numpy as np
import pytest

from diqkd.linalg import (
    QuantumChannel,
    adjoint_apply,
    apply_channel,
    generalized_x,
    identity,
    min_eigenvalue,
    pauli,
    tensor,
)
from helpers import identity_channel, random_channel, random_density, random_hermitian

SQRT2 = np.sqrt(2.0)


def test_pauli_matrices_match_convention():
    assert np.array_equal(pauli("z"), np.array([[0, 1], [1, 0]], dtype=complex))
    assert np.array_equal(pauli("y"), np.diag([1.0, -1.0]).astype(complex))
    assert np.array_equal(pauli("x"), np.array([[0, -1j], [1j, 0]]))


def test_pauli_algebra_exact():
    x, y, z = pauli("x"), pauli("y"), pauli("z")
    eye = identity(2)
    for s in (x, y, z):
        assert np.max(np.abs(s @ s - eye)) <= 1e-14
    for a, b in ((x, y), (y, z), (z, x)):
        assert np.max(np.abs(a @ b + b @ a)) <= 1e-14


def test_pauli_rejects_unknown_axis():
    with pytest.raises(ValueError):
        pauli("w")


def test_generalized_x_endpoints():
    assert np.array_equal(generalized_x(-1j), pauli("x"))
    assert np.array_equal(generalized_x(1.0), pauli("z"))


def test_generalized_x_unit_eigenvalues():
    w = np.linalg.eigvalsh(generalized_x(np.exp(1j * np.pi / 7)))
    assert np.allclose(w, [-1.0, 1.0], atol=1e-14)


def test_generalized_x_rejects_bad_modulus():
    with pytest.raises(ValueError):
        generalized_x(0.5)
    with pytest.raises(ValueError):
        generalized_x(complex(np.nan, 0.0))


def test_tensor_identity_and_traceless():
    assert np.array_equal(tensor(identity(2), identity(2)), identity(4))
    assert abs(np.trace(tensor(pauli("z"), pauli("z")))) == 0.0


def test_tensor_mixed_product():
    z, eye = pauli("z"), identity(2)
    lhs = tensor(z, eye) @ tensor(eye, z)
    assert np.allclose(lhs, tensor(z, z), atol=1e-14)


def test_min_eigenvalue_basics():
    assert min_eigenvalue(identity(4)) == pytest.approx(1.0, abs=1e-14)
    assert min_eigenvalue(tensor(pauli("x"), pauli("x"))) == pytest.approx(-1.0, abs=1e-13)


def test_hermitian_eig_chsh_aligned_spectrum():
    # spectrum of the CHSH observable at alpha = beta = -i is {1/sqrt2, 0, 0, -1/sqrt2}
    from diqkd.chsh import chsh_measurement

    values = np.linalg.eigvalsh(chsh_measurement(-1j, -1j).operator)
    assert np.allclose(values, [-1 / SQRT2, 0.0, 0.0, 1 / SQRT2], atol=1e-12)


def test_min_eigenvalue_squash_condition_at_alignment():
    # the squash adjoint sends X(x)X to Y(x)Y at aligned detectors; the
    # resulting condition operator is PSD with a zero mode
    from diqkd.chsh import chsh_measurement

    m = chsh_measurement(-1j, -1j).operator
    yy = tensor(pauli("y"), pauli("y"))
    op = identity(4) + (SQRT2 - 1.0) * yy - 2.0 * m
    assert min_eigenvalue(op) >= -1e-9


def test_identity_channel_fixes_states():
    rng = np.random.default_rng(3)
    rho = random_density(2, rng)
    assert np.allclose(apply_channel(identity_channel(2), rho), rho, atol=1e-14)


def test_channel_outputs_are_states():
    rng = np.random.default_rng(4)
    for _ in range(50):
        ch = random_channel(4, 4, 3, rng)
        rho = random_density(4, rng)
        out = apply_channel(ch, rho)
        assert abs(np.trace(out).real - 1.0) <= 1e-10
        assert min_eigenvalue(out) >= -1e-10


def test_channel_rejects_incomplete_kraus():
    with pytest.raises(ValueError):
        QuantumChannel(2, 2, [0.5 * identity(2)])


def test_apply_channel_dimension_mismatch():
    ch = identity_channel(2)
    with pytest.raises(ValueError):
        apply_channel(ch, identity(4) / 4.0)
    with pytest.raises(ValueError):
        adjoint_apply(ch, identity(4))


def test_adjoint_identity_and_unitality():
    zi = tensor(pauli("z"), identity(2))
    assert np.allclose(adjoint_apply(identity_channel(4), zi), zi, atol=1e-14)
    rng = np.random.default_rng(5)
    for _ in range(50):
        ch = random_channel(4, 4, 2, rng)
        assert np.max(np.abs(adjoint_apply(ch, identity(4)) - identity(4))) <= 1e-10


def test_channel_duality_bulk():
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(1000):
        ch = random_channel(2, 2, 2, rng)
        rho = random_density(2, rng)
        obs = random_hermitian(2, rng)
        lhs = np.trace(obs @ apply_channel(ch, rho))
        rhs = np.trace(adjoint_apply(ch, obs) @ rho)
        worst = max(worst, abs(lhs - rhs))
    assert worst <= 1e-10
