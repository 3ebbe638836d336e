"""Dense complex linear algebra for small observables and channels.

Operators are plain ``numpy`` arrays of complex dtype.  All matrices in this
package are stored in the y eigenbasis, in which the single-qubit
observables read ::

    X = [[0, -i], [i, 0]],   Y = [[1, 0], [0, -1]],   Z = [[0, 1], [1, 0]]

so ``Y`` is diagonal and ``Z`` permutes the basis kets.  The generalized x
observable ``X_alpha = [[0, alpha], [conj(alpha), 0]]`` (``|alpha| = 1``)
interpolates between the two: ``X_{-i} = X`` and ``X_1 = Z``.

Tolerances follow a two-level scheme: ``ATOL_INPUT`` validates caller
supplied matrices, ``ATOL_POST`` checks quantities produced by floating
point computation (eigensolves, channel actions).  Everything here is pure
and safe to share across threads.

Functions broadcast over leading axes: a stack of matrices (or of Kraus
operators) has shape ``(..., d, d)`` and a stack of detector parameters
shape ``(...)``.  A single matrix or parameter is the 0-d case of the
same code, and its scalar results (a modulus-checked parameter, a minimum
eigenvalue) come back as numpy scalars.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ATOL_INPUT = 1e-12
ATOL_POST = 1e-10

SQRT2 = float(np.sqrt(2.0))

_PAULI = {
    "x": np.array([[0.0, -1.0j], [1.0j, 0.0]]),
    "y": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
    "z": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
}


def pauli(axis: str) -> np.ndarray:
    """Return the Pauli matrix for ``axis`` in {"x", "y", "z"}."""
    try:
        return _PAULI[axis].copy()
    except KeyError:
        raise ValueError(f"unknown Pauli axis {axis!r}") from None


def identity(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=complex)


def require_unit_modulus(value, name: str = "value"):
    """Validate that every entry of ``value`` is a finite complex number on the unit circle."""
    value = np.asarray(value, dtype=complex)
    if not np.all(np.isfinite(value)):
        raise ValueError(f"{name} must be finite, got {value!r}")
    if np.any(np.abs(np.abs(value) - 1.0) > ATOL_INPUT):
        raise ValueError(f"{name} must have unit modulus, got |{name}| = {np.abs(value)!r}")
    return value[()]


def generalized_x(alpha) -> np.ndarray:
    """Generalized x observable ``[[0, alpha], [conj(alpha), 0]]``, |alpha| = 1."""
    alpha = require_unit_modulus(alpha, "alpha")
    x = np.zeros(np.shape(alpha) + (2, 2), dtype=complex)
    x[..., 0, 1], x[..., 1, 0] = alpha, np.conj(alpha)
    return x


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two square operators (the broadcasting of ``np.kron``)."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or b.ndim < 2 or b.shape[-1] != b.shape[-2]:
        raise ValueError("tensor expects square matrices")
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (a.shape[-1] * b.shape[-1],) * 2)


def require_hermitian(m: np.ndarray, atol: float = ATOL_INPUT) -> np.ndarray:
    """``m`` as a complex array; ValueError unless each matrix is Hermitian within ``atol``."""
    m = np.asarray(m, dtype=complex)
    square = m.ndim >= 2 and m.shape[-1] == m.shape[-2]
    if not (square and np.all(np.abs(m - m.conj().swapaxes(-1, -2)) <= atol)):
        raise ValueError("matrix is not Hermitian within tolerance")
    return m


def min_eigenvalue(m: np.ndarray):
    """Smallest eigenvalue of a Hermitian matrix; PSD check is ``>= -tol``."""
    m = require_hermitian(m)
    return np.linalg.eigvalsh(m)[..., 0][()]


def validate_density(rho: np.ndarray) -> np.ndarray:
    """Check Hermiticity, unit trace and positivity of a density matrix, or of each in a stack."""
    rho = require_hermitian(rho)
    tr = np.trace(rho, axis1=-2, axis2=-1)
    if np.any(np.abs(tr.real - 1.0) > ATOL_POST) or np.any(np.abs(tr.imag) > ATOL_POST):
        raise ValueError("rho must have unit trace")
    if np.any(min_eigenvalue(rho) < -ATOL_POST):
        raise ValueError("rho must be positive semidefinite")
    return rho


@dataclass
class QuantumChannel:
    """Trace-preserving completely positive map given by a finite Kraus set.

    The Kraus operators are ``out_dim x in_dim`` matrices satisfying the
    completeness relation ``sum_k K_k^dag K_k = identity(in_dim)`` within
    ``ATOL_POST``; complete positivity then holds by construction.
    """

    in_dim: int
    out_dim: int
    kraus: list

    def __post_init__(self) -> None:
        self.kraus = [np.asarray(k, dtype=complex) for k in self.kraus]
        for k in self.kraus:
            if k.shape[-2:] != (self.out_dim, self.in_dim):
                raise ValueError("Kraus operator has wrong shape")
        comp = sum(k.conj().swapaxes(-1, -2) @ k for k in self.kraus)
        if np.max(np.abs(comp - identity(self.in_dim))) > ATOL_POST:
            raise ValueError("Kraus set is not trace preserving")


def apply_channel(ch: QuantumChannel, rho: np.ndarray) -> np.ndarray:
    """Schroedinger action ``sum_k K_k rho K_k^dag``."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (ch.in_dim, ch.in_dim):
        raise ValueError("state dimension does not match channel input")
    return sum(k @ rho @ k.conj().swapaxes(-1, -2) for k in ch.kraus)


def adjoint_apply(ch: QuantumChannel, obs: np.ndarray) -> np.ndarray:
    """Heisenberg action ``sum_k K_k^dag obs K_k`` on an observable.

    Satisfies the duality ``tr[obs . apply_channel(ch, rho)] = tr[adjoint_apply(ch, obs) . rho]``
    for every state ``rho``; for a trace-preserving channel it is unital.
    """
    obs = np.asarray(obs, dtype=complex)
    if obs.shape[-2:] != (ch.out_dim, ch.out_dim):
        raise ValueError("observable dimension does not match channel output")
    return sum(k.conj().swapaxes(-1, -2) @ obs @ k for k in ch.kraus)
