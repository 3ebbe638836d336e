"""Key-rate and finite-size security formulas for the CHSH-certified protocol.

Asymptotically the protocol distills secret key at rate ::

    R(p) = 1 - h((2 + sqrt(2)) p) - f_ec h(p)

where ``p`` is the QBER, ``h`` the binary entropy, and ``f_ec`` the error
correction efficiency; at ``f_ec = 1`` the rate stays positive up to a QBER
of about 5.4%.

The finite-size key length for ``n`` sifted bits, ``l_smp`` sample pairs,
and a CHSH threshold ``s0`` is ::

    l = n (1 - h((1 + sqrt(2)) (1/sqrt(2) - s0) + mu')) - 2 l_smp - l_syn
        - log2(1/eps_cor) - 2 log2(3/eps)

The total deviation ``mu'`` decomposes exactly as
``(1 + sqrt(2)) * delta_S + mu`` with the statistical terms evaluated at
``eps' = eps/3``; together with the leftover hashing bound
``2 eps' + 2^{-(hmin - l)/2}`` this assembles to trace distance at most
``eps``.  The phase-error argument of ``h`` must stay within [0, 1/2]; past
that point the bound is vacuous and the key length is reported as zero with
a reason instead of evaluating ``h`` on its decreasing branch.

All functions are pure scalar maps and trivially thread-safe.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass

from .linalg import SQRT2

# Zero of the device-independent rate moves past this only for f_ec < 1,
# which is outside the contract; used as the bisection bracket end.
_RATE_BRACKET_MAX = 0.15


def binary_entropy(p: float) -> float:
    """Binary entropy ``h(p) = -p log2 p - (1-p) log2(1-p)``, with h(0) = h(1) = 0."""
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"binary entropy argument must be in [0, 1], got {p!r}")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def _require_f_ec(f_ec: float) -> None:
    if not 1.0 <= f_ec < math.inf:
        raise ValueError(f"f_ec must be finite and at least 1, got {f_ec!r}")


def asymptotic_rate(p: float, f_ec: float) -> float:
    """Asymptotic key rate ``1 - h((2 + sqrt2) p) - f_ec h(p)``; may be negative."""
    p = float(p)
    _require_f_ec(f_ec)
    if p < 0.0 or (2.0 + SQRT2) * p > 1.0:
        raise ValueError("p must be in [0, 1/(2 + sqrt2)]")
    return 1.0 - binary_entropy((2.0 + SQRT2) * p) - f_ec * binary_entropy(p)


def qber_threshold(f_ec: float) -> float:
    """QBER at which the asymptotic rate crosses zero, by bisection to 1e-10."""
    lo, hi = 0.0, _RATE_BRACKET_MAX
    f_lo, f_hi = asymptotic_rate(lo, f_ec), asymptotic_rate(hi, f_ec)
    if f_lo <= 0.0 or f_hi >= 0.0:
        raise ValueError("no sign change on the bracket; pathological f_ec")
    while hi - lo > 1e-10:
        mid = (lo + hi) / 2.0
        if asymptotic_rate(mid, f_ec) > 0.0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def device_dependent_rate(p: float, f_ec: float) -> float:
    """Reference curve ``1 - h(p) - f_ec h(p)`` for trusted Pauli detectors."""
    p = float(p)
    _require_f_ec(f_ec)
    if p < 0.0 or p > 0.5:
        raise ValueError("p must be in [0, 1/2]")
    return 1.0 - (1.0 + f_ec) * binary_entropy(p)


def chsh_test_deviation(l_smp: int, eps_prime: float) -> float:
    """Concentration allowance ``sqrt((48 / l_smp) ln(2 / eps'))`` for the CHSH test."""
    if l_smp < 1:
        raise ValueError("l_smp must be at least 1")
    if not 0.0 < eps_prime <= 1.0:
        raise ValueError("eps_prime must be in (0, 1]")
    return math.sqrt(48.0 / l_smp * math.log(2.0 / eps_prime))


def sampling_deviation(n: int, l_smp: int, eps_prime: float) -> float:
    """Random-sampling allowance for estimating the phase-error rate.

    ``sqrt(((n + l_smp) / (n l_smp)) ((l_smp + 1) / l_smp) ln(2 / eps'))``.
    """
    if n < 1 or l_smp < 1:
        raise ValueError("n and l_smp must be at least 1")
    if not 0.0 < eps_prime <= 1.0:
        raise ValueError("eps_prime must be in (0, 1]")
    return math.sqrt(
        (n + l_smp) / (n * l_smp) * (l_smp + 1) / l_smp * math.log(2.0 / eps_prime)
    )


def total_deviation(n: int, l_smp: int, eps: float) -> float:
    """Combined finite-size allowance entering the key-length formula.

    ``(4 sqrt(3)(1 + sqrt(2)) + sqrt((n + l_smp)(l_smp + 1)/(n l_smp)))
    * sqrt(ln(6/eps) / l_smp)``; identical to
    ``(1 + sqrt2) * chsh_test_deviation(l_smp, eps/3)
    + sampling_deviation(n, l_smp, eps/3)``.
    """
    if n < 1 or l_smp < 1:
        raise ValueError("n and l_smp must be at least 1")
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must be in (0, 1)")
    coeff = 4.0 * math.sqrt(3.0) * (1.0 + SQRT2) + math.sqrt(
        (n + l_smp) * (l_smp + 1) / (n * l_smp)
    )
    return coeff * math.sqrt(math.log(6.0 / eps) / l_smp)


def _ceil_tol(x: float, name: str) -> int:
    """Ceiling that forgives float noise up to 1e-9 below an integer.

    A count whose float formula overflows is a bad configuration: ``name``
    labels the ValueError raised for a non-finite ``x``.
    """
    if not math.isfinite(x):
        raise ValueError(f"{name} must fit in a float, got {x!r}")
    return int(math.ceil(x - 1e-9))


def check_count(name: str, value: int) -> None:
    """Raise ValueError unless ``value`` is from 1 to 2**53, where float64 holds every count."""
    if not 1 <= value <= 2**53:
        raise ValueError(f"{name} must be from 1 to 2**53, got {value!r}")


def syndrome_budget(n: int, p_est: float, f_ec: float) -> int:
    """Conventional syndrome length ``ceil(f_ec n h(p_est))``."""
    _require_f_ec(f_ec)
    if not 0.0 <= float(p_est) <= 1.0:
        raise ValueError(f"p_est must be in [0, 1], got {p_est!r}")
    return _ceil_tol(f_ec * n * binary_entropy(p_est), "l_syn")


@dataclass
class ProtocolParams:
    """All scalar parameters of one protocol configuration.

    ``n`` target sifted bits, ``q`` per-pulse sampling probability,
    ``delta`` pulse-count margin, ``s0`` CHSH abort threshold, ``eps``
    secrecy parameter, ``eps_cor`` correctness parameter, ``f_ec`` error
    correction efficiency, ``l_syn`` syndrome bit budget.  The pulse-pair
    count and sample count are derived: ``N = ceil(n / ((1-delta)(1-q)^2))``
    and ``l_smp = ceil(n (q / (1-q))^2)``, both rounded up (more pulses and
    more samples never weaken the preconditions of the bounds).  They are
    computed in float64 from the values of ``q`` and ``delta`` whatever
    their real type, so a float32 ``q`` derives the counts of its own value;
    the fields keep the values given, a ``Fraction`` ``q`` exactly.
    """

    n: int
    q: float
    delta: float
    s0: float
    eps: float
    eps_cor: float
    f_ec: float = 1.0
    l_syn: int = 0

    def __post_init__(self) -> None:
        for name in ("n", "l_syn"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {v!r}")
            try:
                float(v)
            except OverflowError:
                raise ValueError(f"{name} must fit in a float, got {v.bit_length()} bits") from None
        for name in ("q", "delta", "s0", "eps", "eps_cor", "f_ec"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, numbers.Real):
                raise ValueError(f"{name} must be a real number, got {v!r}")
        if self.n < 1:
            raise ValueError(f"n must be positive, got {self.n!r}")
        if not 0.0 < self.q <= 0.5:
            raise ValueError("q must be in (0, 1/2]")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must be in (0, 1)")
        if not -math.inf < self.s0 <= 1.0 / SQRT2 + 1e-12:
            raise ValueError(f"s0 must be finite and at most 1/sqrt(2), got {self.s0!r}")
        for name in ("eps", "eps_cor"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise ValueError(f"{name} must be in (0, 1)")
        _require_f_ec(self.f_ec)
        if self.l_syn < 0:
            raise ValueError(f"l_syn must be nonnegative, got {self.l_syn!r}")

    def as_dict(self) -> dict:
        """The fields as ints or floats, then ``pulse_pairs`` and ``l_smp``: every record's order."""
        fields = asdict(self).items()
        native = {k: int(v) if isinstance(v, numbers.Integral) else float(v) for k, v in fields}
        return {**native, "pulse_pairs": self.pulse_pairs, "l_smp": self.l_smp}

    @property
    def pulse_pairs(self) -> int:
        """Number of pulse pairs N the source must emit."""
        q, delta = float(self.q), float(self.delta)
        return _ceil_tol(self.n / (1.0 - delta) / (1.0 - q) ** 2, "pulse_pairs")

    @property
    def l_smp(self) -> int:
        """Number of sample pairs consumed by the CHSH test."""
        q = float(self.q)
        return _ceil_tol(self.n * (q / (1.0 - q)) ** 2, "l_smp")


@dataclass
class KeyLengthReport:
    """Secret key length with its deviation parameters and cost breakdown."""

    l: int
    mu_prime: float
    delta_s: float
    mu: float
    hmin_bound: float
    components: dict
    reason: str | None


def _entropy_term(n: int, s0: float, mu: float) -> float | None:
    """``n (1 - h((1 + sqrt2)(1/sqrt2 - s0) + mu))``, or None when the argument leaves [0, 1/2]."""
    arg = (1.0 + SQRT2) * (1.0 / SQRT2 - s0) + mu
    if arg < 0.0 or arg > 0.5:
        return None
    return n * (1.0 - binary_entropy(arg))


def smooth_min_entropy_bound(params: ProtocolParams, eps_prime: float) -> float:
    """Lower bound on the smooth min-entropy of the sifted key.

    ``n (1 - h((1 + sqrt2)(1/sqrt2 - (s0 - delta_S)) + mu)) - 2 l_smp - l_syn
    - log2(1/eps_cor)`` with the deviations at smoothing ``eps_prime``.
    Reported as 0 when the entropy argument leaves [0, 1/2].
    """
    ds = chsh_test_deviation(params.l_smp, eps_prime)
    mu = sampling_deviation(params.n, params.l_smp, eps_prime)
    entropy_term = _entropy_term(params.n, params.s0 - ds, mu)
    if entropy_term is None:
        return 0.0
    return entropy_term - 2.0 * params.l_smp - params.l_syn - math.log2(1.0 / params.eps_cor)


def finite_key_length(params: ProtocolParams) -> KeyLengthReport:
    """Secret key length extractable at security ``eps``, floored at zero.

    Degenerate inputs (entropy argument past 1/2, or costs exceeding the
    entropy term) yield ``l = 0`` with a reason rather than an error.
    """
    n, l_smp = params.n, params.l_smp
    mu_p = total_deviation(n, l_smp, params.eps)
    ds = chsh_test_deviation(l_smp, params.eps / 3.0)
    mu = sampling_deviation(n, l_smp, params.eps / 3.0)
    hmin = smooth_min_entropy_bound(params, params.eps / 3.0)

    components = {
        "sampling_cost": 2.0 * l_smp,
        "syndrome_cost": float(params.l_syn),
        "correctness_cost": math.log2(1.0 / params.eps_cor),
        "hashing_cost": 2.0 * math.log2(3.0 / params.eps),
    }
    costs = sum(components.values())
    entropy_term = _entropy_term(n, params.s0, mu_p)
    components["entropy_term"] = 0.0 if entropy_term is None else entropy_term
    l, reason = 0, None
    if entropy_term is None:
        reason = "phase-error argument outside [0, 1/2]; bound is vacuous"
    elif entropy_term - costs <= 0.0:
        reason = "finite-size costs exceed the entropy term"
    else:
        l = int(math.floor(entropy_term - costs))
    return KeyLengthReport(
        l=l,
        mu_prime=mu_p,
        delta_s=ds,
        mu=mu,
        hmin_bound=hmin,
        components=components,
        reason=reason,
    )


def leftover_bound(hmin: float, l: int, eps_prime: float) -> float:
    """Trace-distance bound ``2 eps' + 2^(-(hmin - l)/2)`` from leftover hashing."""
    return 2.0 * eps_prime + 2.0 ** (-(hmin - l) / 2.0)


@dataclass
class AbortBoundReport:
    """Pulse-selection abort probability bounds.

    ``nominal_bound`` is the expression ``2 exp(-(delta q)^2 / 2)``.  It
    carries no dependence on the pulse count, which makes it vacuous for
    small ``delta q``; ``corrected_bound`` is the standard multiplicative
    Chernoff union bound over the two selection steps, parameterized by the
    actual pulse count.  Both are reported; neither silently replaces the
    other.
    """

    nominal_bound: float
    corrected_bound: float
    sif_term: float
    smp_term: float


def chernoff_abort_bound(params: ProtocolParams) -> AbortBoundReport:
    """Bounds on the probability that pulse selection aborts the protocol."""
    q, delta = float(params.q), float(params.delta)
    nominal = 2.0 * math.exp(-((delta * q) ** 2) / 2.0)

    big_n = params.pulse_pairs

    def lower_tail(mean: float, need: float) -> float:
        if mean <= need:
            return 1.0
        gap = 1.0 - need / mean
        return math.exp(-mean * gap * gap / 2.0)

    sif_term = lower_tail(big_n * (1.0 - q) ** 2, params.n)
    smp_term = lower_tail(big_n * q**2, params.l_smp)
    return AbortBoundReport(
        nominal_bound=nominal,
        corrected_bound=min(1.0, sif_term + smp_term),
        sif_term=sif_term,
        smp_term=smp_term,
    )


def azuma_tail(l_smp: int, delta_s: float) -> float:
    """Tail bound ``exp(-l_smp delta_s^2 / 48)`` for the CHSH noise-factor gap."""
    if l_smp < 1:
        raise ValueError("l_smp must be at least 1")
    return math.exp(-l_smp * delta_s * delta_s / 48.0)


__all__ = [
    "AbortBoundReport",
    "KeyLengthReport",
    "ProtocolParams",
    "asymptotic_rate",
    "azuma_tail",
    "binary_entropy",
    "chernoff_abort_bound",
    "check_count",
    "chsh_test_deviation",
    "device_dependent_rate",
    "finite_key_length",
    "leftover_bound",
    "qber_threshold",
    "sampling_deviation",
    "smooth_min_entropy_bound",
    "syndrome_budget",
    "total_deviation",
]
