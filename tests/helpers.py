"""Objects and maps that only the tests use.

Random and trivial quantum objects to feed the library, and the inverse
maps that check its outputs: Choi matrix, partial trace, bit packing and
unpacking, pulse arrays packed into a transcript's bit planes and its
planes unpacked to pulse values.  A counter of the bit generators a call
builds, and where a document parts from the one expected.  Reference forms
of fast kernels: the ``verify-squash`` document from one stacked call per
alpha row, and the Dykstra loop through ``einsum`` projections.  The
definition of a protocol run is ``spec.py``.
"""

import numpy as np

from diqkd import squash
from diqkd.linalg import QuantumChannel, identity, require_hermitian
from diqkd.protocol import _PLANES, BOB_BASES, Transcript
from diqkd.squash import (
    ChoiMatrix,
    FeasibilityReport,
    squash_channel,
    verify_squash_conditions,
)


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


def pack_bits(bits: np.ndarray) -> bytes:
    """Pack a 0/1 vector into bytes, little-endian bit order within each byte."""
    return np.packbits(np.asarray(bits, dtype=np.uint8), bitorder="little").tobytes()


def unpack_bits(data: bytes, n_bits: int) -> np.ndarray:
    """Inverse of ``pack_bits``."""
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8), bitorder="little")
    if n_bits > len(bits):
        raise ValueError("byte string too short for requested bit count")
    return bits[:n_bits].copy()


def pulses(t: Transcript) -> dict:
    """A transcript's six bit planes unpacked, one value per pulse, by field name.

    Labels come as bool; basis codes (indices into ``ALICE_BASES`` and
    ``BOB_BASES``; Bob's is his label plus his plane's bit) and +-1
    outcomes as int8.
    """
    bits = {
        name: np.unpackbits(getattr(t, name), count=t.params.pulse_pairs, bitorder="little")
        for name in _PLANES
    }
    bits["bases_b"] += bits["labels_b"]
    return {
        "labels_a": bits["labels_a"].view(bool),
        "labels_b": bits["labels_b"].view(bool),
        "bases_a": bits["bases_a"].view(np.int8),
        "bases_b": bits["bases_b"].view(np.int8),
        "outcomes_a": 1 - 2 * bits["outcomes_a"].view(np.int8),
        "outcomes_b": 1 - 2 * bits["outcomes_b"].view(np.int8),
    }


def count_bit_generators(monkeypatch) -> list:
    """The seed arguments of every ``np.random.PCG64`` built from now on, in order."""
    built, real = [], np.random.PCG64

    def counting(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(np.random, "PCG64", counting)
    return built


def pack_pulses(labels_a, labels_b, bases_a, bases_b, outcomes_a, outcomes_b) -> dict:
    """The ``Transcript`` bit planes of pulse arrays in ``pulses`` form.

    Labels are 0/1, basis codes index ``ALICE_BASES`` and ``BOB_BASES``, and
    outcomes are +-1; Bob's plane holds whether he measured x.
    """

    def pack(bits) -> np.ndarray:
        return np.packbits(np.asarray(bits), bitorder="little")

    return {
        "labels_a": pack(labels_a),
        "labels_b": pack(labels_b),
        "bases_a": pack(bases_a),
        "bases_b": pack(np.asarray(bases_b) == BOB_BASES.index("x")),
        "outcomes_a": pack(np.asarray(outcomes_a) < 0),
        "outcomes_b": pack(np.asarray(outcomes_b) < 0),
    }


def parting(text: str, expected: str, doc: dict) -> str:
    """The key of ``doc`` and the characters where a document ``text`` parts from ``expected``.

    The tests compare megabyte documents through a flag and report this, since
    pytest's diff of two such strings ran for minutes.
    """
    at = next(i for i, (a, b) in enumerate(zip(text + "\0", expected + "\1")) if a != b)
    key = max(doc, key=lambda name: text.rfind(f'"{name}": ', 0, at + 1))
    return f"{key} at {at}: {text[at - 30 : at + 30]!r}, expected {expected[at - 30 : at + 30]!r}"


def reference_verify_squash_doc(grid: int, tol: float = 1e-9) -> dict:
    """The ``verify-squash`` document built from one stacked call per alpha row."""
    angles = 2.0 * np.pi * np.arange(grid) / grid
    betas = np.exp(1j * angles)
    reps = [verify_squash_conditions(squash_channel(np.exp(1j * t), betas), tol) for t in angles]
    fields = ("cond1_residual", "cond2_min_eig", "n_min_eig", "lift_gap_min_eig")
    table = {f: np.stack([getattr(rep, f) for rep in reps]) for f in fields + ("passed",)}
    all_pass = bool(table["passed"].all())
    worst = {f: float(table[f].max() if f == "cond1_residual" else table[f].min()) for f in fields}
    table = {f: v.tolist() for f, v in table.items()}
    cells = [
        {"alpha_angle": ta, "beta_angle": tb}
        | {f: table[f][i][j] for f in fields}
        | {"pass": table["passed"][i][j]}
        for i, ta in enumerate(angles.tolist())
        for j, tb in enumerate(angles.tolist())
    ]
    return {
        "config": {"subcommand": "verify-squash", "grid": grid, "tol": tol},
        "all_pass": all_pass,
        "worst": worst,
        "cells": cells,
    }


def reference_project_affine(j: np.ndarray, targets: list) -> np.ndarray:
    t = j.reshape(2, 2, 2, 2).copy()
    for obs, tgt in zip(squash._CONSTRAINT_OBS, targets):
        coeff = np.einsum("ab,jbka->jk", obs, t)
        t += np.einsum("jk,ab->jakb", (tgt - coeff) / 2.0, obs)
    return t.reshape(4, 4)


def _reference_project_psd(j: np.ndarray) -> np.ndarray:
    h = (j + j.conj().T) / 2.0
    w, v = np.linalg.eigh(h)
    w = np.clip(w, 0.0, None)
    return (v * w) @ v.conj().T


def reference_affine_residual(j: np.ndarray, targets: list) -> float:
    """``squash._affine_residual`` through one ``einsum`` per observable."""
    t = j.reshape(2, 2, 2, 2)
    res = 0.0
    for obs, tgt in zip(squash._CONSTRAINT_OBS, targets):
        coeff = np.einsum("ab,jbka->jk", obs, t)
        res = max(res, float(np.max(np.abs(coeff - tgt))))
    return res


def reference_feasibility(mx: np.ndarray, mz: np.ndarray) -> FeasibilityReport:
    """``single_party_squash_feasibility`` with ``einsum`` projections, residual every iteration."""
    mx = require_hermitian(mx)
    mz = require_hermitian(mz)
    targets = [identity(2).T, mx.T.copy(), mz.T.copy()]
    x = reference_project_affine(np.zeros((4, 4), dtype=complex), targets)
    correction = np.zeros((4, 4), dtype=complex)
    best_gap = np.inf
    stalled = 0
    gap = np.inf
    for it in range(1, squash._MAX_ITERS + 1):
        y = _reference_project_psd(x + correction)
        correction = x + correction - y
        x = reference_project_affine(y, targets)
        gap = float(np.linalg.norm(x - y))
        y_residual = reference_affine_residual(y, targets)
        x_min_eig = float(np.linalg.eigvalsh((x + x.conj().T) / 2.0)[0])
        if y_residual <= squash._FEASIBLE_TOL or x_min_eig >= -squash._FEASIBLE_TOL:
            witness = _reference_project_psd(x) if x_min_eig >= -squash._FEASIBLE_TOL else y
            residual = max(
                reference_affine_residual(witness, targets),
                max(0.0, -float(np.linalg.eigvalsh(witness)[0])),
            )
            if residual <= squash._FEASIBLE_TOL:
                return FeasibilityReport(
                    status="feasible",
                    residual=residual,
                    iterations=it,
                    witness=ChoiMatrix(in_dim=2, out_dim=2, matrix=witness),
                )
        if gap < best_gap - 1e-12:
            best_gap = gap
            stalled = 0
        else:
            stalled += 1
            if stalled >= squash._STALL_ITERS and gap > squash._INFEASIBLE_FLOOR:
                return FeasibilityReport(
                    status="infeasible", residual=gap, iterations=it, witness=None
                )
    return FeasibilityReport(
        status="inconclusive", residual=gap, iterations=squash._MAX_ITERS, witness=None
    )
