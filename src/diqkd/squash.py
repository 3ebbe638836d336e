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
constraints.  The affine projection sets the I, X and Z coefficients
``Tr[O . block]`` of each of the four 2x2 blocks of the Choi matrix to
their targets.  The three observables are orthogonal with ``||O||_F^2 = 2``,
so moving every coefficient by at most ``r`` moves the matrix by at most
``sqrt(12 r^2 / 2) = sqrt(6) r`` in Frobenius norm: the distance between a
PSD iterate and its projection is at most ``sqrt(6)`` times the iterate's
affine residual.  The solver therefore computes that residual only while
the distance is at most ``2 sqrt(6)`` times the feasibility tolerance
(twice the bound, for rounding); beyond it the residual cannot be within
the tolerance.  It also skips the eigensolve of an affine iterate ``x``
when the Rayleigh bound ``lambda_min(H) <= Re(u^H x u) / |u|^2``, for
``H = (x + x^H)/2`` and any ``u`` (the solver takes the least eigenvector of
the PSD projection just before), puts that eigenvalue below ``-tol``, where
it is not needed.
With ``eps = 2^-52``, rounding moves the computed ``Re(u^H x u)`` by at most
``20 eps ||x||_F |u|^2``, ``|u|^2`` is within ``20 eps`` of 1, forming ``H``
moves its eigenvalues by at most ``eps ||x||_F / 2`` and ``zheevd``'s
backward error by at most ``p(4) eps ||H||_2``, assuming ``p(4) <= 64``
(LAPACK Users' Guide, section 4.7): in all, less than
``100 eps (||x||_F + tol)``.  So a computed ``Re(u^H x u)`` below
``-tol - 1e-11 (1 + ||x||_F^2)``, a margin at least 400 times larger,
certifies that the computed eigenvalue is below ``-tol``.

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
    if not np.all(np.abs(phi) <= np.pi / 4 + ATOL_INPUT):  # NaN fails this test
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

    lifted = positive_lift(m)
    lift_gap_min = min_eigenvalue(lifted - m.operator)
    slack = (1.0 + SQRT2) * (identity(4) - 2.0 * lifted) + adj_xx
    n_min = min_eigenvalue(slack)

    return SquashConditionReport(
        cond1_residual=cond1_residual,
        cond2_min_eig=cond2_min,
        n_min_eig=n_min,
        lift_gap_min_eig=lift_gap_min,
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
# The affine step on the row-major list t of the 16 Choi matrix entries, which
# holds entry (a, b) of block (r, c) at 8r + 4a + 2c + b.  Each observable O has
# two nonzero entries (a, b, v = O[a, b]): I is diagonal and, in the y eigenbasis
# of this package, X = [[0, -i], [i, 0]] and Z = [[0, 1], [1, 0]] are
# off-diagonal.  Per block, Tr[O . block(r, c)] = v0 * t[i0] + v1 * t[i1], and
# the update adds step * v0 at o0 and step * v1 at o1.
_AFFINE_PLAN = tuple(
    tuple(
        (r, c, 8 * r + 4 * b0 + 2 * c + a0, v0, 8 * r + 4 * b1 + 2 * c + a1, v1,
         8 * r + 4 * a0 + 2 * c + b0, 8 * r + 4 * a1 + 2 * c + b1)
        for r in range(2) for c in range(2)
    )
    for (a0, b0, v0), (a1, b1, v1) in (
        [(a, b, complex(o[a, b])) for a in range(2) for b in range(2) if o[a, b] != 0]
        for o in _CONSTRAINT_OBS
    )
)

# Dykstra stopping rules of single_party_squash_feasibility.
_FEASIBLE_TOL = 1e-7
_INFEASIBLE_FLOOR = 1e-4
_STALL_ITERS = 500
_MAX_ITERS = 100_000
# gap <= sqrt(6) * (affine residual of y), so above this gap (twice the
# bound, for rounding) the residual of y cannot be within _FEASIBLE_TOL.
_RESIDUAL_SKIP_GAP = 2.0 * math.sqrt(6.0) * _FEASIBLE_TOL


def _project_affine(j: np.ndarray, targets: list) -> np.ndarray:
    """Orthogonal projection onto the TP + adjoint-constraint affine set.

    The constraints fix the I, X and Z Pauli components of every 2x2 block
    of the Choi matrix and leave the Y components free, so the projection is
    a closed-form per-block component replacement, one observable after the
    other.  Each coefficient and each update is a two-term sum over the
    observable's nonzero entries, in Python complex arithmetic on the 16
    entries (multiplying by 1 or +-i is exact, so this rounds like the
    ``einsum`` contraction it replaces).  ``targets`` are nested lists.
    """
    t = j.ravel().tolist()
    for plan, tgt in zip(_AFFINE_PLAN, targets):
        for r, c, i0, v0, i1, v1, o0, o1 in plan:
            step = (tgt[r][c] - (v0 * t[i0] + v1 * t[i1])) / 2.0
            t[o0] += step * v0
            t[o1] += step * v1
    return np.array(t).reshape(4, 4)


def _project_psd(j: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """PSD projection of the Hermitian part of ``j``, and its least eigenvector."""
    h = (j + j.conj().T) / 2.0
    w, v = np.linalg.eigh(h)
    return (v * np.maximum(w, 0.0)) @ v.conj().T, v[:, 0]


def _affine_residual(j: np.ndarray, targets: list) -> float:
    """Largest deviation of a block coefficient of ``j`` from its target."""
    t = j.ravel().tolist()
    gaps = [
        v0 * t[i0] + v1 * t[i1] - tgt[r][c]
        for plan, tgt in zip(_AFFINE_PLAN, targets)
        for r, c, i0, v0, i1, v1, _, _ in plan
    ]
    return float(np.max(np.abs(gaps)))


def _rayleigh_skip(x: np.ndarray, u: np.ndarray) -> bool:
    """Whether ``u`` certifies ``eigvalsh((x + x^H)/2)[0] < -_FEASIBLE_TOL`` (module docstring)."""
    return np.vdot(u, x @ u).real < -_FEASIBLE_TOL - 1e-11 * (1.0 + np.vdot(x, x).real)


def single_party_squash_feasibility(mx: np.ndarray, mz: np.ndarray) -> FeasibilityReport:
    """Decide whether a qubit channel F with F_adj(X) = mx, F_adj(Z) = mz exists.

    Runs Dykstra alternating projections between the PSD cone and the affine
    set of Choi matrices satisfying trace preservation plus the two adjoint
    constraints.  Feasible means a point was found satisfying every
    constraint within ``_FEASIBLE_TOL`` (returned as a witness after clipping
    to the cone).  The affine residual of the PSD iterate is computed only
    while the gap to its projection is at most ``_RESIDUAL_SKIP_GAP``, since
    ``gap <= sqrt(6) * residual``, and the least eigenvalue of the affine
    iterate only where ``_rayleigh_skip`` cannot put it below the tolerance
    (see the module docstring).  Infeasible means the inter-set distance
    stalled above ``_INFEASIBLE_FLOOR`` for ``_STALL_ITERS`` consecutive
    iterations, which at this problem size is a reliable positive-gap
    certificate.  Anything else is reported as inconclusive, not guessed.
    """
    mx = require_hermitian(mx)
    mz = require_hermitian(mz)
    for name, m in (("mx", mx), ("mz", mz)):
        w = np.linalg.eigvalsh(m)
        if w[0] < -1.0 - 1e-9 or w[-1] > 1.0 + 1e-9:
            raise ValueError(f"{name} must have spectrum within [-1, 1]")

    # Tr[O . block(j, k)] must equal adjoint(O)[k, j]; as a block-coefficient
    # array that is the transpose of the target observable.
    targets = [m.T.tolist() for m in (identity(2), mx, mz)]
    x = _project_affine(np.zeros((4, 4), dtype=complex), targets)
    correction = np.zeros((4, 4), dtype=complex)
    best_gap = np.inf
    stalled = 0
    gap = np.inf

    for it in range(1, _MAX_ITERS + 1):
        shifted = x + correction
        y, u = _project_psd(shifted)
        correction = shifted - y
        x = _project_affine(y, targets)
        d = (x - y).ravel()
        gap = math.sqrt(d.real.dot(d.real) + d.imag.dot(d.imag))  # np.linalg.norm's sum

        # y is exactly PSD; x satisfies the constraints exactly.
        y_feasible = gap <= _RESIDUAL_SKIP_GAP and _affine_residual(y, targets) <= _FEASIBLE_TOL
        skip = not y_feasible and _rayleigh_skip(x, u)  # x_min_eig < -_FEASIBLE_TOL
        x_min_eig = -math.inf if skip else float(np.linalg.eigvalsh((x + x.conj().T) / 2.0)[0])
        if y_feasible or x_min_eig >= -_FEASIBLE_TOL:
            witness = _project_psd(x)[0] if x_min_eig >= -_FEASIBLE_TOL else y
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
