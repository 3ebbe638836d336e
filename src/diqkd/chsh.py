"""CHSH observable for uncharacterized qubit detectors and its spectral data.

For detector parameters ``alpha, beta`` on the unit circle, the two-party
CHSH observable is ::

    M(alpha, beta) = (Z (x) Z + Z (x) X_beta + X_alpha (x) Z - X_alpha (x) X_beta) / 4

with eigenvalues ``+-|mu|, +-|nu|`` where ``mu = (1 + a + b - ab)/4`` and
``nu = (1 + a + b* - ab*)/4`` satisfy ``|mu|^2 + |nu|^2 = 1/2``, so every
eigenvalue is bounded by ``1/sqrt(2)`` (the Tsirelson bound at this
normalization).  The eigenvectors are Bell-type states split between the
even sector span{|00>, |11>} and the odd sector span{|01>, |10>}.

Note the eigenvector phase: in the stored basis ``<00|M|11> = mu``, so the
``+|mu|`` eigenvector is ``(|00> + (mu*/|mu|)|11>)/sqrt(2)`` with the
conjugated phase, and likewise for ``nu``.  When a coefficient vanishes the
phase is fixed to 1, which keeps the basis total and deterministic (the
corresponding eigenvalue is zero, so any orthonormal completion is valid).

``chsh_measurement`` broadcasts ``alpha`` against ``beta``: every field of
the result carries their broadcast shape as leading axes, and a single
pair is the 0-d case of the same code, with numpy scalars for ``abs_mu``,
``abs_nu`` and ``phi``.  All objects here are immutable by convention and
thread-safe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    SQRT2,
    generalized_x,
    identity,
    min_eigenvalue,
    pauli,
    require_unit_modulus,
    tensor,
)

BELL_LABELS = ("psi_plus", "psi_minus", "phi_plus", "phi_minus")


def t_sign(basis_a: str, basis_b: str) -> int:
    """Sign exponent of a CHSH round: 1 when both parties measured x, else 0.

    This single definition is shared by the operator construction (the minus
    sign on the x-x term) and the classical estimator of the protocol
    simulator, so the two cannot drift apart.
    """
    return 1 if basis_a == "x" and basis_b == "x" else 0


@dataclass
class CHSHMeasurement:
    """CHSH observable bundle for one detector-parameter pair or a stack of them.

    Attributes
    ----------
    alpha, beta : complex
        Unit-modulus detector parameters.
    operator : ndarray
        The 4x4 CHSH observable.
    mu, nu : complex
        Bell-sector coefficients; ``|mu|^2 + |nu|^2 = 1/2``.
    phi : float
        Angle with ``cos(phi) = |mu| + |nu|`` and ``sin(phi) = |mu| - |nu|``,
        always within ``[-pi/4, pi/4]``.
    bell_basis : ndarray
        Columns are the eigenvectors, ordered ``psi+, psi-, phi+, phi-`` with
        eigenvalues ``+|mu|, -|mu|, +|nu|, -|nu|``.
    """

    alpha: complex
    beta: complex
    operator: np.ndarray
    mu: complex
    nu: complex
    abs_mu: float
    abs_nu: float
    phi: float
    bell_basis: np.ndarray

    @property
    def bell_values(self) -> np.ndarray:
        """Eigenvalues matching the ``bell_basis`` columns."""
        return np.stack([self.abs_mu, -self.abs_mu, self.abs_nu, -self.abs_nu], axis=-1)

    def projector(self, label: str) -> np.ndarray:
        v = self.bell_basis[..., BELL_LABELS.index(label)]
        return v[..., :, None] * v.conj()[..., None, :]


def _product(a, b):
    # rounded like Python's complex product; numpy's complex multiply may use FMA
    return (a.real * b.real - a.imag * b.imag) + 1j * (a.real * b.imag + a.imag * b.real)


def chsh_measurement(alpha, beta) -> CHSHMeasurement:
    """Build the CHSH observable and its full eigensystem for ``(alpha, beta)``."""
    alpha = require_unit_modulus(alpha, "alpha")
    beta = require_unit_modulus(beta, "beta")
    z = pauli("z")
    xa = generalized_x(alpha)
    xb = generalized_x(beta)
    op = 0.25 * (tensor(z, z) + tensor(z, xb) + tensor(xa, z) - tensor(xa, xb))

    mu, nu = ((1.0 + alpha + b - _product(alpha, b)) / 4.0 for b in (beta, np.conj(beta)))
    abs_mu, abs_nu = np.hypot(mu.real, mu.imag), np.hypot(nu.real, nu.imag)

    mu_phase = np.divide(np.conj(mu), abs_mu, out=np.ones_like(mu), where=abs_mu > 1e-14)
    nu_phase = np.divide(np.conj(nu), abs_nu, out=np.ones_like(nu), where=abs_nu > 1e-14)
    e = identity(4)
    mu_col, nu_col = mu_phase[..., None] * e[:, 3], nu_phase[..., None] * e[:, 2]
    columns = [e[:, 0] + mu_col, e[:, 0] - mu_col, e[:, 1] + nu_col, e[:, 1] - nu_col]
    basis = np.stack(columns, axis=-1) / SQRT2
    phi = np.arctan2(abs_mu - abs_nu, abs_mu + abs_nu)
    return CHSHMeasurement(
        alpha=alpha,
        beta=beta,
        operator=op,
        mu=mu,
        nu=nu,
        abs_mu=abs_mu,
        abs_nu=abs_nu,
        phi=phi,
        bell_basis=basis,
    )


def chsh_povm(m: CHSHMeasurement) -> tuple[np.ndarray, np.ndarray]:
    """Two-outcome POVM ``E+- = (I +- M)/2`` of the coherent CHSH test.

    ``E_plus + E_minus`` equals the identity exactly by construction, and both
    elements are PSD because the eigenvalues of M are bounded by 1/sqrt(2).
    """
    e_plus = (identity(4) + m.operator) / 2.0
    e_minus = identity(4) - e_plus
    return e_plus, e_minus


@dataclass
class MixtureAgreement:
    """Comparison of the POVM success probability with the basis-mixture one."""

    povm_prob: float
    mixture_prob: float
    difference: float


def povm_equals_local_mixture(m: CHSHMeasurement, rho: np.ndarray) -> MixtureAgreement:
    """Check the POVM form against the uniform mixture of projective rounds.

    Computes ``Pr[s = +1]`` two ways: (a) ``tr[E+ rho]``; (b) choosing one of
    the four basis pairs uniformly, measuring the product observable
    projectively, and mapping the outcome pair through the shared CHSH sign
    rule.  The two agree as an operator identity, so the reported difference
    is floating point noise.
    """
    rho = np.asarray(rho, dtype=complex)
    e_plus, _ = chsh_povm(m)
    povm_prob = float(np.trace(e_plus @ rho).real)

    ops_a = {"z": pauli("z"), "x": generalized_x(m.alpha)}
    ops_b = {"z": pauli("z"), "x": generalized_x(m.beta)}
    mixture_prob = 0.0
    for ca in ("z", "x"):
        for cb in ("z", "x"):
            corr = float(np.trace(tensor(ops_a[ca], ops_b[cb]) @ rho).real)
            sign = (-1.0) ** t_sign(ca, cb)
            mixture_prob += 0.25 * 0.5 * (1.0 + sign * corr)
    return MixtureAgreement(
        povm_prob=povm_prob,
        mixture_prob=mixture_prob,
        difference=abs(povm_prob - mixture_prob),
    )


def positive_lift(m: CHSHMeasurement) -> tuple[np.ndarray, float]:
    """CHSH observable with its negative eigenvalues flipped positive.

    Adding ``2|mu| P(psi-) + 2|nu| P(phi-)`` to M gives an operator that
    dominates M and has the closed form
    ``(cos(phi) I + sin(phi) Y (x) Y) / 2`` with ``|phi| <= pi/4``.
    Returns the lifted operator together with ``phi``.
    """
    lifted = (
        m.operator
        + (2.0 * m.abs_mu)[..., None, None] * m.projector("psi_minus")
        + (2.0 * m.abs_nu)[..., None, None] * m.projector("phi_minus")
    )
    return lifted, m.phi


def max_chsh_eigenvalue_magnitude(m: CHSHMeasurement) -> float:
    """Largest eigenvalue magnitude; at most ``1/sqrt(2) + tol`` always."""
    return max(abs(min_eigenvalue(m.operator)), float(np.linalg.eigvalsh(m.operator)[-1]))


__all__ = [
    "BELL_LABELS",
    "CHSHMeasurement",
    "MixtureAgreement",
    "chsh_measurement",
    "chsh_povm",
    "max_chsh_eigenvalue_magnitude",
    "positive_lift",
    "povm_equals_local_mixture",
    "t_sign",
]
