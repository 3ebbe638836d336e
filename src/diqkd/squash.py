"""Bipartite squash channel construction, verification, and the one-party no-go.

The two-party squash channel for detector parameters ``(alpha, beta)`` is a
mixture of local z-axis rotations: rotate both qubits by 90 degrees about z
(which maps X to Y in the Heisenberg picture and leaves Z fixed), then with
probability ``(1 - a)/2`` rotate the second qubit by a further 180 degrees
(which flips Y).  The mixing amplitude ``a`` depends only on the angle
``phi`` of the lifted CHSH observable.  The resulting channel F satisfies

* ``F_adj(Z (x) I) = Z (x) I`` exactly (only z rotations are used), and
* ``F_adj(I + (sqrt(2) - 1) X (x) X) >= 2 M(alpha, beta)`` as an operator
  inequality, which lets a CHSH test be replaced by a two-party phase-error
  test without weakening it.

Sign convention: ``a = sign(sin phi) * min(1, (1 + sqrt(2)) |sin phi|)``.
With this sign the Y(x)Y terms cancel against the lifted observable and the
slack operator ``(1 + sqrt(2))(I - 2 M_lift) + F_adj(X (x) X)`` is PSD; the
opposite sign violates the inequality already at perfectly aligned
detectors (minimum eigenvalue ``2 - 2 sqrt(2)``).

The one-party question (does a qubit-to-qubit channel exist whose adjoint
maps X, Z to two prescribed observables?) is decided numerically as a Choi
matrix feasibility problem, by Dykstra alternating projections between the
PSD cone and the affine set encoding trace preservation and the two adjoint
constraints.

``flip_amplitude``, ``squash_channel`` and ``verify_squash_conditions``
broadcast over leading axes like ``chsh.chsh_measurement``: a row of
detector pairs gives a stacked channel and a report of arrays, and a single
pair is the 0-d case of the same code, with numpy scalars in the report.
A channel keeps the ``chsh_measurement`` it was built from as
``SquashChannel.measurement``, which ``verify_squash_conditions`` reads
instead of building it again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chsh import CHSHMeasurement, chsh_measurement, positive_lift
from .linalg import (
    ATOL_INPUT,
    SQRT2,
    QuantumChannel,
    adjoint_apply,
    identity,
    min_eigenvalue,
    pauli,
    require_hermitian,
    tensor,
)

# 90 degree rotation about z: maps X -> Y, Y -> -X, fixes Z under conjugation.
# The 180 degree rotation equals Z itself up to a global phase.
ROT90 = (identity(2) + 1.0j * pauli("z")) / SQRT2
ROT180 = pauli("z")


def flip_amplitude(phi):
    """Mixing amplitude of the squash channel as a function of ``phi``.

    ``a = sign(sin phi) * min(1, (1 + sqrt(2)) |sin phi|)``, always in
    [-1, 1] and with the same sign as ``sin phi``.
    """
    phi = np.asarray(phi, dtype=float)
    if np.any(np.abs(phi) > np.pi / 4 + ATOL_INPUT):
        raise ValueError("phi must satisfy |phi| <= pi/4")
    s = np.sin(phi)
    return np.sign(s) * np.minimum(1.0, (1.0 + SQRT2) * np.abs(s))


@dataclass
class SquashChannel:
    """Squash channel for one detector-parameter pair or a stack of them.

    ``measurement`` is the CHSH measurement the channel was built from (its
    ``alpha``, ``beta`` and ``phi``); ``channel`` is trace preserving and
    completely positive by construction; its adjoint maps ``X (x) X`` to
    ``flip * Y (x) Y`` and fixes ``Z (x) I``.
    """

    measurement: CHSHMeasurement
    flip: float
    channel: QuantumChannel


def squash_channel(alpha, beta) -> SquashChannel:
    """Construct the two-party squash channel for ``(alpha, beta)``."""
    m = chsh_measurement(alpha, beta)
    a = flip_amplitude(m.phi)
    k_keep = np.sqrt((1.0 + a) / 2.0)[..., None, None] * tensor(ROT90, ROT90)
    k_flip = np.sqrt((1.0 - a) / 2.0)[..., None, None] * tensor(ROT90, ROT180 @ ROT90)
    ch = QuantumChannel(4, 4, [k_keep, k_flip])
    return SquashChannel(measurement=m, flip=a, channel=ch)


@dataclass
class SquashConditionReport:
    """Residuals of the two squash conditions plus the supporting inequalities.

    ``cond1_residual``: max-norm error of ``F_adj(Z (x) I) = Z (x) I``.
    ``cond2_min_eig``: smallest eigenvalue of
    ``F_adj(I + (sqrt(2)-1) X (x) X) - 2 M``; nonnegative up to tolerance.
    ``n_min_eig``: smallest eigenvalue of the slack operator built from the
    lifted observable; ``lift_gap_min_eig``: smallest eigenvalue of
    ``M_lift - M``.  ``passed``: all four are within ``tol``.
    """

    cond1_residual: float
    cond2_min_eig: float
    n_min_eig: float
    lift_gap_min_eig: float
    tol: float
    passed: bool


def verify_squash_conditions(sq: SquashChannel, tol: float = 1e-9) -> SquashConditionReport:
    """Numerically verify both squash conditions for a constructed channel."""
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and non-negative, got {tol!r}")
    m = sq.measurement
    zi = tensor(pauli("z"), identity(2))
    xx = tensor(pauli("x"), pauli("x"))

    cond1_residual = np.max(np.abs(adjoint_apply(sq.channel, zi) - zi), axis=(-2, -1))

    adj_xx = adjoint_apply(sq.channel, xx)
    cond2_op = identity(4) + (SQRT2 - 1.0) * adj_xx - 2.0 * m.operator
    cond2_min = min_eigenvalue(cond2_op)

    lifted, _ = positive_lift(m)
    lift_gap_min = min_eigenvalue(lifted - m.operator)
    slack = (1.0 + SQRT2) * (identity(4) - 2.0 * lifted) + adj_xx
    n_min = min_eigenvalue(slack)

    return SquashConditionReport(
        cond1_residual=cond1_residual,
        cond2_min_eig=cond2_min,
        n_min_eig=n_min,
        lift_gap_min_eig=lift_gap_min,
        tol=tol,
        passed=(cond1_residual <= tol) & (np.min([cond2_min, n_min, lift_gap_min], axis=0) >= -tol),
    )


@dataclass
class ChoiMatrix:
    """Choi matrix of a channel, input factor first.

    ``matrix`` is ``(in_dim * out_dim)`` square with block ``(j, k)`` equal to
    the channel applied to ``|j><k|``.  The channel is completely positive
    iff the matrix is PSD, and trace preserving iff the partial trace over
    the output factor is the identity.
    """

    in_dim: int
    out_dim: int
    matrix: np.ndarray


def channel_from_choi(choi: ChoiMatrix, atol: float = 1e-9) -> QuantumChannel:
    """Recover a Kraus set from a (nearly) PSD, trace-preserving Choi matrix.

    Eigenvalues below ``atol`` are dropped and the Kraus set is polished to
    exact trace preservation with a ``C^(-1/2)`` correction, so witnesses
    that satisfy the constraints only to solver tolerance still convert.
    """
    m = require_hermitian(choi.matrix, atol=1e-6)
    w, v = np.linalg.eigh((m + m.conj().T) / 2.0)
    kraus = []
    for wi, vi in zip(w, v.T):
        if wi > atol:
            kraus.append(np.sqrt(wi) * vi.reshape(choi.in_dim, choi.out_dim).T)
    comp = sum(k.conj().T @ k for k in kraus)
    cw, cv = np.linalg.eigh(comp)
    if cw[0] < 0.5:
        raise ValueError("Choi matrix is too far from trace preserving to normalize")
    inv_sqrt = (cv * (1.0 / np.sqrt(cw))) @ cv.conj().T
    kraus = [k @ inv_sqrt for k in kraus]
    return QuantumChannel(choi.in_dim, choi.out_dim, kraus)


@dataclass
class FeasibilityReport:
    """Outcome of the one-party squash feasibility search.

    ``status`` is "feasible" (witness Choi matrix provided, all residuals at
    most ``1e-7``), "infeasible" (the distance between the constraint set and
    the PSD cone stalled above ``1e-4``), or "inconclusive".
    ``residual`` is the witness residual when feasible and the stalled gap
    when infeasible.
    """

    status: str
    residual: float
    iterations: int
    witness: ChoiMatrix | None


_CONSTRAINT_OBS = (identity(2), pauli("x"), pauli("z"))

# Dykstra stopping rules of single_party_squash_feasibility.
_FEASIBLE_TOL = 1e-7
_INFEASIBLE_FLOOR = 1e-4
_STALL_ITERS = 500
_MAX_ITERS = 100_000


def _project_affine(j: np.ndarray, targets: list) -> np.ndarray:
    """Orthogonal projection onto the TP + adjoint-constraint affine set.

    The constraints fix the I, X and Z Pauli components of every 2x2 block
    of the Choi matrix and leave the Y components free, so the projection is
    a closed-form per-block component replacement.
    """
    t = j.reshape(2, 2, 2, 2).copy()
    for obs, tgt in zip(_CONSTRAINT_OBS, targets):
        coeff = np.einsum("ab,jbka->jk", obs, t)
        t += np.einsum("jk,ab->jakb", (tgt - coeff) / 2.0, obs)
    return t.reshape(4, 4)


def _project_psd(j: np.ndarray) -> np.ndarray:
    h = (j + j.conj().T) / 2.0
    w, v = np.linalg.eigh(h)
    w = np.clip(w, 0.0, None)
    return (v * w) @ v.conj().T


def _affine_residual(j: np.ndarray, targets: list) -> float:
    t = j.reshape(2, 2, 2, 2)
    res = 0.0
    for obs, tgt in zip(_CONSTRAINT_OBS, targets):
        coeff = np.einsum("ab,jbka->jk", obs, t)
        res = max(res, float(np.max(np.abs(coeff - tgt))))
    return res


def single_party_squash_feasibility(mx: np.ndarray, mz: np.ndarray) -> FeasibilityReport:
    """Decide whether a qubit channel F with F_adj(X) = mx, F_adj(Z) = mz exists.

    Runs Dykstra alternating projections between the PSD cone and the affine
    set of Choi matrices satisfying trace preservation plus the two adjoint
    constraints.  Feasible means a point was found satisfying every
    constraint within ``_FEASIBLE_TOL`` (returned as a witness after clipping
    to the cone); infeasible means the inter-set distance stalled above
    ``_INFEASIBLE_FLOOR`` for ``_STALL_ITERS`` consecutive iterations, which
    at this problem size is a reliable positive-gap certificate.  Anything
    else is reported as inconclusive rather than guessed.
    """
    mx = require_hermitian(mx)
    mz = require_hermitian(mz)
    for name, m in (("mx", mx), ("mz", mz)):
        w = np.linalg.eigvalsh(m)
        if w[0] < -1.0 - 1e-9 or w[-1] > 1.0 + 1e-9:
            raise ValueError(f"{name} must have spectrum within [-1, 1]")

    # Tr[O . block(j, k)] must equal adjoint(O)[k, j]; as a block-coefficient
    # array that is the transpose of the target observable.
    targets = [identity(2).T, mx.T.copy(), mz.T.copy()]
    x = _project_affine(np.zeros((4, 4), dtype=complex), targets)
    correction = np.zeros((4, 4), dtype=complex)
    best_gap = np.inf
    stalled = 0
    gap = np.inf

    for it in range(1, _MAX_ITERS + 1):
        y = _project_psd(x + correction)
        correction = x + correction - y
        x = _project_affine(y, targets)
        gap = float(np.linalg.norm(x - y))

        # y is exactly PSD; x satisfies the constraints exactly.
        y_residual = _affine_residual(y, targets)
        x_min_eig = float(np.linalg.eigvalsh((x + x.conj().T) / 2.0)[0])
        if y_residual <= _FEASIBLE_TOL or x_min_eig >= -_FEASIBLE_TOL:
            witness = _project_psd(x) if x_min_eig >= -_FEASIBLE_TOL else y
            residual = max(
                _affine_residual(witness, targets),
                max(0.0, -float(np.linalg.eigvalsh(witness)[0])),
            )
            if residual <= _FEASIBLE_TOL:
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
            if stalled >= _STALL_ITERS and gap > _INFEASIBLE_FLOOR:
                return FeasibilityReport(
                    status="infeasible", residual=gap, iterations=it, witness=None
                )

    return FeasibilityReport(
        status="inconclusive", residual=gap, iterations=_MAX_ITERS, witness=None
    )


__all__ = [
    "ChoiMatrix",
    "FeasibilityReport",
    "ROT180",
    "ROT90",
    "SquashChannel",
    "SquashConditionReport",
    "channel_from_choi",
    "flip_amplitude",
    "single_party_squash_feasibility",
    "squash_channel",
    "verify_squash_conditions",
]
