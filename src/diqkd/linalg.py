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


def require_unit_modulus(value: complex, name: str = "value") -> complex:
    """Validate that ``value`` is a finite complex number on the unit circle."""
    value = complex(value)
    if not (np.isfinite(value.real) and np.isfinite(value.imag)):
        raise ValueError(f"{name} must be finite, got {value!r}")
    if abs(abs(value) - 1.0) > ATOL_INPUT:
        raise ValueError(f"{name} must have unit modulus, got |{name}| = {abs(value)!r}")
    return value


def generalized_x(alpha: complex) -> np.ndarray:
    """Generalized x observable ``[[0, alpha], [conj(alpha), 0]]``, |alpha| = 1."""
    alpha = require_unit_modulus(alpha, "alpha")
    return np.array([[0.0, alpha], [np.conj(alpha), 0.0]])


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two square operators."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or b.ndim != 2 or b.shape[0] != b.shape[1]:
        raise ValueError("tensor expects square matrices")
    return np.kron(a, b)


def is_hermitian(m: np.ndarray, atol: float = ATOL_INPUT) -> bool:
    m = np.asarray(m)
    return m.ndim == 2 and m.shape[0] == m.shape[1] and bool(
        np.max(np.abs(m - m.conj().T)) <= atol
    )


def require_hermitian(m: np.ndarray, atol: float = ATOL_INPUT) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if not is_hermitian(m, atol):
        raise ValueError("matrix is not Hermitian within tolerance")
    return m


def min_eigenvalue(m: np.ndarray, atol: float = ATOL_INPUT) -> float:
    """Smallest eigenvalue of a Hermitian matrix; PSD check is ``>= -tol``."""
    m = require_hermitian(m, atol)
    return float(np.linalg.eigvalsh(m)[0])


def validate_density(rho: np.ndarray, name: str = "rho") -> np.ndarray:
    """Check Hermiticity, unit trace, and positivity of a density matrix."""
    rho = require_hermitian(rho, ATOL_INPUT)
    if abs(np.trace(rho).real - 1.0) > ATOL_POST or abs(np.trace(rho).imag) > ATOL_POST:
        raise ValueError(f"{name} must have unit trace")
    if min_eigenvalue(rho) < -ATOL_POST:
        raise ValueError(f"{name} must be positive semidefinite")
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
            if k.shape != (self.out_dim, self.in_dim):
                raise ValueError("Kraus operator has wrong shape")
        comp = sum(k.conj().T @ k for k in self.kraus)
        if np.max(np.abs(comp - identity(self.in_dim))) > ATOL_POST:
            raise ValueError("Kraus set is not trace preserving")

    def __call__(self, rho: np.ndarray) -> np.ndarray:
        return apply_channel(self, rho)


def apply_channel(ch: QuantumChannel, rho: np.ndarray) -> np.ndarray:
    """Schroedinger action ``sum_k K_k rho K_k^dag``."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (ch.in_dim, ch.in_dim):
        raise ValueError("state dimension does not match channel input")
    out = np.zeros((ch.out_dim, ch.out_dim), dtype=complex)
    for k in ch.kraus:
        out += k @ rho @ k.conj().T
    return out


def adjoint_apply(ch: QuantumChannel, obs: np.ndarray) -> np.ndarray:
    """Heisenberg action ``sum_k K_k^dag obs K_k`` on an observable.

    Satisfies the duality ``tr[obs . ch(rho)] = tr[adjoint_apply(ch, obs) . rho]``
    for every state ``rho``; for a trace-preserving channel it is unital.
    """
    obs = np.asarray(obs, dtype=complex)
    if obs.shape != (ch.out_dim, ch.out_dim):
        raise ValueError("observable dimension does not match channel output")
    out = np.zeros((ch.in_dim, ch.in_dim), dtype=complex)
    for k in ch.kraus:
        out += k.conj().T @ obs @ k
    return out
