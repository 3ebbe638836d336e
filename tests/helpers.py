"""Objects and maps that only the tests use.

Random and trivial quantum objects to feed the library, and the inverse
maps that check its outputs: Choi matrix, partial trace, hash regrowth from
its JSON description, bit unpacking; and the protocol's pulse stage drawn
whole-array, as the reference of the chunked one.
"""

import numpy as np

from diqkd.hashing import ToeplitzHash
from diqkd.linalg import QuantumChannel, identity
from diqkd.protocol import ALICE_BASES, BOB_BASES, joint_outcome_pmf, outcomes_from_uniforms
from diqkd.squash import ChoiMatrix


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


def choi_of_channel(ch: QuantumChannel) -> ChoiMatrix:
    d = ch.in_dim * ch.out_dim
    j = np.zeros((d, d), dtype=complex)
    for k in ch.kraus:
        w = k.T.reshape(-1)
        j += np.outer(w, w.conj())
    return ChoiMatrix(in_dim=ch.in_dim, out_dim=ch.out_dim, matrix=j)


def partial_trace_out(matrix: np.ndarray, in_dim: int, out_dim: int) -> np.ndarray:
    """Trace out the output factor of a Choi matrix."""
    t = matrix.reshape(in_dim, out_dim, in_dim, out_dim)
    return np.trace(t, axis1=1, axis2=3)


def toeplitz_from_json(data: dict) -> ToeplitzHash:
    """Regrow a hash from its ``ToeplitzHash.to_json`` description."""
    return ToeplitzHash.sample(data["in_len"], data["out_len"], data["seed"])


def unpack_bits(data: bytes, n_bits: int) -> np.ndarray:
    """Inverse of ``diqkd.hashing.pack_bits``."""
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8), bitorder="little")
    if n_bits > len(bits):
        raise ValueError("byte string too short for requested bit count")
    return bits[:n_bits].copy()


def unchunked_pulse_stage(params, source, seed: int) -> dict:
    """Pulse arrays of ``run_protocol`` from five whole-array draws, and the generator after them.

    The draws come in stream order (Alice's and Bob's labels, their basis
    coins, the outcome uniforms), each ``rng.random(N)`` in one piece, and
    one ``outcomes_from_uniforms`` call maps all N pulses.
    """
    rng = np.random.default_rng(seed)
    big_n = params.pulse_pairs
    labels_a = rng.random(big_n) < params.q
    labels_b = rng.random(big_n) < params.q
    bases_a = (labels_a & (rng.random(big_n) < 0.5)).view(np.int8)
    bases_b = labels_b.view(np.int8) + (labels_b & (rng.random(big_n) < 0.5)).view(np.int8)
    uniforms = rng.random(big_n)
    ops_a = np.stack(np.broadcast_arrays(*(source.alice_ops[c] for c in ALICE_BASES)))
    ops_b = np.stack(np.broadcast_arrays(*(source.bob_ops[c] for c in BOB_BASES)))
    table = joint_outcome_pmf(source.rho, ops_a[:, None], ops_b[None, :]).reshape(-1, 4)
    rows = bases_a * len(BOB_BASES) + bases_b
    if source.rho.ndim == 3:
        rows = rows * np.int64(big_n) + np.arange(big_n)
    codes = outcomes_from_uniforms(table, uniforms, rows=rows)
    return {
        "labels_a": labels_a,
        "labels_b": labels_b,
        "bases_a": bases_a,
        "bases_b": bases_b,
        "outcomes_a": np.where(codes < 2, np.int8(1), np.int8(-1)),
        "outcomes_b": np.where(codes & 1, np.int8(-1), np.int8(1)),
        "rng": rng,
    }
