"""Random and trivial quantum objects that the tests feed to the library."""

import numpy as np

from diqkd.linalg import QuantumChannel, identity


def identity_channel(dim: int) -> QuantumChannel:
    return QuantumChannel(dim, dim, [identity(dim)])


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (g + g.conj().T) / 2.0


def random_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_channel(
    in_dim: int, out_dim: int, n_kraus: int, rng: np.random.Generator
) -> QuantumChannel:
    """Random channel from a Haar-ish isometry split into ``n_kraus`` blocks."""
    g = rng.normal(size=(n_kraus * out_dim, in_dim)) + 1j * rng.normal(
        size=(n_kraus * out_dim, in_dim)
    )
    q, _ = np.linalg.qr(g)
    kraus = [q[i * out_dim : (i + 1) * out_dim, :] for i in range(n_kraus)]
    return QuantumChannel(in_dim, out_dim, kraus)
