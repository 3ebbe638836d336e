"""Objects and maps that only the tests use.

Random and trivial quantum objects to feed the library, and the inverse
maps that check its outputs: Choi matrix, partial trace, hash regrowth from
its JSON description, bit unpacking.  Reference forms of fast kernels: the
hash diagonals through ``Generator.integers``, the raw-byte draw's; the
protocol's pulse stage drawn whole-array, the chunked one's reference; the
transcript document through one ``json.dumps``, the numpy encoder's; and
the noise-gap experiment on +-1 arrays, the counting kernel's.
"""

import json
from dataclasses import fields

import numpy as np

from diqkd.hashing import ToeplitzHash
from diqkd.linalg import QuantumChannel, identity
from diqkd.protocol import (
    ALICE_BASES,
    BOB_BASES,
    NoiseGapReport,
    Transcript,
    joint_outcome_pmf,
    outcomes_from_uniforms,
)
from diqkd.rates import ProtocolParams, azuma_tail
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


def reference_diagonals(size: int, seed: int) -> np.ndarray:
    """``ToeplitzHash`` diagonals drawn through ``Generator.integers``."""
    return np.random.default_rng(seed).integers(0, 2, size, dtype=np.uint8)


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


def reference_to_json(t: Transcript) -> str:
    """``Transcript.to_json`` as one ``json.dumps`` of the field document."""
    labels = {
        "bases_a": np.array(ALICE_BASES, dtype=object),
        "bases_b": np.array(BOB_BASES, dtype=object),
    }
    doc = {}
    for f in fields(t):
        value = getattr(t, f.name)
        if f.name in labels:
            value = labels[f.name][value]
        elif isinstance(value, ProtocolParams):
            value = value.as_dict()
        if isinstance(value, np.ndarray):
            value = (value.view(np.int8) if value.dtype == bool else value).tolist()
        doc[f.name] = value
    return json.dumps(doc)


def reference_noise_gap_core(
    probs: np.ndarray,
    values: np.ndarray,
    trials: int,
    batch_size: int,
    deviation: float,
    rng: np.random.Generator,
) -> NoiseGapReport:
    """``protocol._noise_gap_core`` with a searchsorted outcome and +-1 arrays averaged."""
    cum = np.cumsum(probs)
    exceed = 0
    abs_gap_total = 0.0
    s2_total = 0.0
    s3_total = 0.0
    chunk = max(1, min(trials, 2_000_000 // batch_size))
    done = 0
    while done < trials:
        t = min(chunk, trials - done)
        draws = rng.random((t, batch_size))
        idx = np.searchsorted(cum, draws, side="right").clip(max=3)
        s3 = values[idx]
        coin = rng.random((t, batch_size))
        s2 = np.where(coin < (1.0 + s3) / 2.0, 1.0, -1.0)
        g2 = s2.mean(axis=1)
        g3 = s3.mean(axis=1)
        gap = np.abs(g2 - g3)
        exceed += int(np.sum(gap >= deviation))
        abs_gap_total += float(gap.sum())
        s2_total += float(g2.sum())
        s3_total += float(g3.sum())
        done += t
    return NoiseGapReport(
        trials=trials,
        batch_size=batch_size,
        deviation=deviation,
        empirical_tail=exceed / trials,
        bound=azuma_tail(batch_size, deviation),
        mean_abs_gap=abs_gap_total / trials,
        mean_s_randomized=s2_total / trials,
        mean_s_projective=s3_total / trials,
    )
