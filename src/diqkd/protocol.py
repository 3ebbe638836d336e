"""Monte Carlo simulation of the entanglement-based protocol round trip.

One run plays the full protocol against a chosen source/detector strategy:
label every pulse pair as sample or sifted-key candidate (sample with
probability ``q``), pick bases, sample measurement outcomes pulse by pulse
from the Born rule, select the sample and sifted index sets, estimate the
CHSH parameter, abort or continue, then error-correct, verify with a short
universal hash, and compress with privacy amplification.

The adversary model is observational: strategies fix the per-pulse two-qubit
state and the detector operators, detectors are memoryless by construction
(every pulse's outcome depends only on that pulse's state, operators, and
its own uniform draw), and no quantum side information is tracked.  Error
correction is an accounting model: Bob's corrected key is Alice's key by
construction while the syndrome cost is charged against the budget, since
only the syndrome length enters the security formulas.

Outcomes are recorded as +-1; the per-round CHSH contribution is
``r_A r_B`` negated when both parties measured x.  Runs are deterministic
given (params, strategy, seed) and independent runs are embarrassingly
parallel.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .chsh import CHSHMeasurement, chsh_measurement, t_sign
from .hashing import ToeplitzHash
from .linalg import SQRT2, generalized_x, identity, pauli, tensor, validate_density
from .rates import ProtocolParams, azuma_tail, finite_key_length, syndrome_budget

# Basis codes used in transcript arrays.
ALICE_BASES = ("z", "x")  # sifting uses z
BOB_BASES = ("zp", "z", "x")  # sifting uses zp
# Object arrays: indexing them by basis codes yields the label strings
# themselves, not one new string per pulse.
_BASIS_LABELS = {
    "bases_a": np.array(ALICE_BASES, dtype=object),
    "bases_b": np.array(BOB_BASES, dtype=object),
}

ABORT_INSUFFICIENT = "insufficient_pulses"
ABORT_CHSH = "chsh_failed"
ABORT_VERIFY = "verify_failed"


def ideal_pair_state() -> np.ndarray:
    """Maximally correlated two-qubit source state, perfectly keyed in z/z'."""
    psi = np.zeros(4, dtype=complex)
    psi[0] = psi[3] = 1.0 / SQRT2
    return np.outer(psi, psi.conj())


def depolarized_pair_state(p: float) -> np.ndarray:
    """Source state ``(1 - 2p) |psi><psi| + 2p I/4``.

    With the calibrated detector frames this single parameter produces a
    sifted-key error rate of exactly ``p`` and a CHSH average of exactly
    ``(1 - 2p)/sqrt(2)``: the correlators of the pure state all scale by
    ``(1 - 2p)`` and the maximally mixed part contributes nothing.
    """
    if not 0.0 <= p <= 0.5:
        raise ValueError("error rate must be in [0, 1/2]")
    lam = 2.0 * p
    return (1.0 - lam) * ideal_pair_state() + lam * identity(4) / 4.0


class DepolarizingSource:
    """I.i.d. depolarizing source measured in the calibrated frames.

    Alice samples with ``{Z, X}``; Bob's sampling bases are rotated 45
    degrees (``(Z - X)/sqrt2`` and ``(Z + X)/sqrt2``) so the ideal state
    reaches the CHSH maximum ``1/sqrt(2)``, while his key basis ``z'`` is
    aligned with Alice's z so the sifted keys agree up to the error rate.
    """

    def __init__(self, p: float):
        self.p = float(p)
        self.rho = depolarized_pair_state(self.p)
        z, x = pauli("z"), pauli("x")
        self.alice_ops = {"z": z, "x": x}
        self.bob_ops = {"zp": z, "z": (z - x) / SQRT2, "x": (z + x) / SQRT2}

    def describe(self) -> dict:
        return {"kind": "depolarizing", "p": self.p}

    is_iid = True

    def pulse_state(self, i: int) -> np.ndarray:
        return self.rho

    def pulse_ops(self, i: int) -> tuple[dict, dict]:
        return self.alice_ops, self.bob_ops


class MisalignedSource:
    """Constant detector misalignment in the reduced qubit picture.

    Alice measures ``{Z, X_alpha}``, Bob ``{Z, X_beta}`` for sampling and
    ``Z`` for his key.  The source emits the top eigenvector of the CHSH
    observable for ``(alpha, beta)``, depolarized by ``p``, which is the
    best i.i.d. state against this detector pair.
    """

    def __init__(self, alpha: complex, beta: complex, p: float = 0.0):
        if not 0.0 <= p <= 0.5:
            raise ValueError("error rate must be in [0, 1/2]")
        self.p = float(p)
        self.measurement = chsh_measurement(alpha, beta)
        self.alpha, self.beta = self.measurement.alpha, self.measurement.beta
        label = "psi_plus" if self.measurement.abs_mu >= self.measurement.abs_nu else "phi_plus"
        top = self.measurement.projector(label)
        self.rho = (1.0 - 2.0 * self.p) * top + 2.0 * self.p * identity(4) / 4.0
        z = pauli("z")
        self.alice_ops = {"z": z, "x": generalized_x(self.alpha)}
        self.bob_ops = {"zp": z, "z": z, "x": generalized_x(self.beta)}

    def describe(self) -> dict:
        return {
            "kind": "misaligned",
            "alpha": [self.alpha.real, self.alpha.imag],
            "beta": [self.beta.real, self.beta.imag],
            "p": self.p,
        }

    is_iid = True

    def pulse_state(self, i: int) -> np.ndarray:
        return self.rho

    def pulse_ops(self, i: int) -> tuple[dict, dict]:
        return self.alice_ops, self.bob_ops


class CustomSource:
    """Fully general per-pulse states and detector parameters."""

    is_iid = False

    def __init__(self, states: list, alphas: list, betas: list):
        if not len(states) == len(alphas) == len(betas):
            raise ValueError("states, alphas, betas must have equal length")
        self.states = [validate_density(np.asarray(s, dtype=complex)) for s in states]
        self.alphas = [complex(a) for a in alphas]
        self.betas = [complex(b) for b in betas]
        z = pauli("z")
        self._alice = [{"z": z, "x": generalized_x(a)} for a in self.alphas]
        self._bob = [{"zp": z, "z": z, "x": generalized_x(b)} for b in self.betas]

    def describe(self) -> dict:
        return {"kind": "custom", "pulses": len(self.states)}

    def pulse_state(self, i: int) -> np.ndarray:
        return self.states[i]

    def pulse_ops(self, i: int) -> tuple[dict, dict]:
        return self._alice[i], self._bob[i]


def joint_outcome_pmf(rho: np.ndarray, op_a: np.ndarray, op_b: np.ndarray) -> np.ndarray:
    """Born probabilities of the four (+-1, +-1) outcome pairs.

    Outcome order: (+,+), (+,-), (-,+), (-,-).  Uses the identity
    ``P(ra, rb) = (1 + ra <A> + rb <B> + ra rb <AB>) / 4``.
    """
    ea = float(np.trace(tensor(op_a, identity(2)) @ rho).real)
    eb = float(np.trace(tensor(identity(2), op_b) @ rho).real)
    eab = float(np.trace(tensor(op_a, op_b) @ rho).real)
    pmf = np.array(
        [
            (1.0 + ea + eb + eab),
            (1.0 + ea - eb - eab),
            (1.0 - ea + eb - eab),
            (1.0 - ea - eb + eab),
        ]
    ) / 4.0
    return np.clip(pmf, 0.0, 1.0)


def outcomes_from_uniforms(
    pmfs: np.ndarray, uniforms: np.ndarray, *, rows: np.ndarray | None = None
) -> np.ndarray:
    """Map per-pulse uniforms through per-pulse outcome distributions.

    Pulse ``i`` uses the distribution ``pmfs[rows[i]]`` (``pmfs[i]`` when
    ``rows`` is None) and gets the int8 outcome code of its uniform draw.
    Pure kernel of the measurement step: the row alone fully determines
    outcome ``i`` given ``uniforms[i]``, so permuting rows and uniforms
    together permutes the outcomes identically.  This is the memorylessness
    of the detectors, by construction.
    """
    cum = np.cumsum(pmfs, axis=1)
    codes = np.zeros(len(uniforms), dtype=np.int8)
    for k in range(3):
        codes += uniforms >= (cum[:, k] if rows is None else cum[rows, k])
    return codes


@dataclass
class Transcript:
    """Complete record of one protocol run; immutable once returned.

    Outcome arrays cover all N pulses.  ``abort`` is None for a completed
    run, otherwise one of the abort reason codes.  Bit arrays use 0/1 with
    the mapping ``r = (-1)^bit``.
    """

    schema_version: int
    params: ProtocolParams
    strategy: dict
    seed: int
    labels_a: np.ndarray  # True = sample candidate
    labels_b: np.ndarray
    bases_a: np.ndarray  # int8 indices into ALICE_BASES
    bases_b: np.ndarray  # int8 indices into BOB_BASES
    outcomes_a: np.ndarray  # +-1
    outcomes_b: np.ndarray
    i_smp: np.ndarray
    i_sif: np.ndarray
    s_est: float | None
    abort: str | None
    p_est: float | None = None
    sifted_key: np.ndarray | None = None
    bob_raw: np.ndarray | None = None
    corrected_key: np.ndarray | None = None
    syndrome_bits_used: int = 0
    syndrome_within_budget: bool = True
    fcor: dict | None = None
    fcor_match: bool | None = None
    fpa: dict | None = None
    secret_key_a: np.ndarray | None = None
    secret_key_b: np.ndarray | None = None
    key_report: dict = field(default_factory=dict)

    def to_json(self) -> str:
        """JSON object with one key per field, in field order.

        Arrays become lists (bools as 0/1) and basis codes become their labels.
        """
        doc = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name in _BASIS_LABELS:
                value = _BASIS_LABELS[f.name][value]
            elif isinstance(value, ProtocolParams):
                value = value.as_dict()
            if isinstance(value, np.ndarray):
                value = (value.view(np.int8) if value.dtype == bool else value).tolist()
            doc[f.name] = value
        return json.dumps(doc)


def qber(u: np.ndarray, u_ref: np.ndarray) -> float:
    """Fraction of positions where two bit strings disagree."""
    u = np.asarray(u)
    u_ref = np.asarray(u_ref)
    if u.shape != u_ref.shape:
        raise ValueError("bit strings must have equal length")
    if len(u) == 0:
        raise ValueError("bit strings must be nonempty")
    return float(np.mean(u != u_ref))


# Sign lookup indexed by basis codes, generated from the shared convention so
# the estimator cannot drift from the operator construction.
_SIGN_TABLE = np.array(
    [[(-1.0) ** t_sign(ca, cb) for cb in BOB_BASES] for ca in ALICE_BASES]
)


def _chsh_signs(bases_a: np.ndarray, bases_b: np.ndarray) -> np.ndarray:
    """Per-round sign (-1)^t: -1 when both parties measured x."""
    return _SIGN_TABLE[bases_a, bases_b]


def estimate_chsh(transcript: Transcript) -> float:
    """Recompute the CHSH average of a transcript's sample rounds."""
    idx = transcript.i_smp
    if len(idx) == 0:
        raise ValueError("transcript has no sample rounds")
    ra = transcript.outcomes_a[idx]
    rb = transcript.outcomes_b[idx]
    signs = _chsh_signs(transcript.bases_a[idx], transcript.bases_b[idx])
    return float(np.mean(ra * rb * signs))


def _pmf_table(strategy, bases_a, bases_b, pulse_count) -> tuple[np.ndarray, np.ndarray | None]:
    """Outcome distributions and the per-pulse row index into them.

    I.i.d. strategies get one row per pair of bases, indexed by
    ``bases_a * len(BOB_BASES) + bases_b``; other strategies get one row per
    pulse and no index.
    """
    if strategy.is_iid:
        ops_a, ops_b = strategy.pulse_ops(0)
        rho = strategy.pulse_state(0)
        table = np.array(
            [joint_outcome_pmf(rho, ops_a[ca], ops_b[cb]) for ca in ALICE_BASES for cb in BOB_BASES]
        )
        return table, bases_a * len(BOB_BASES) + bases_b
    pmfs = np.empty((pulse_count, 4))
    for i in range(pulse_count):
        ops_a, ops_b = strategy.pulse_ops(i)
        pmfs[i] = joint_outcome_pmf(
            strategy.pulse_state(i), ops_a[ALICE_BASES[bases_a[i]]], ops_b[BOB_BASES[bases_b[i]]]
        )
    return pmfs, None


def run_protocol(
    params: ProtocolParams, strategy, seed: int, p_est: float | None = None
) -> Transcript:
    """Execute one full protocol run and return its transcript.

    ``p_est`` is the error-rate estimate used to size the syndrome; by
    default it is derived from the measured CHSH average by inverting
    ``S = (1 - 2p)/sqrt(2)`` and clipping to [0, 1/2].  Aborts are recorded
    outcomes, not errors.
    """
    rng = np.random.default_rng(seed)
    big_n = params.pulse_pairs
    if not strategy.is_iid and len(strategy.states) != big_n:
        raise ValueError(f"custom strategy must supply exactly {big_n} pulses")

    labels_a = rng.random(big_n) < params.q
    labels_b = rng.random(big_n) < params.q
    # One basis draw per pulse regardless of label keeps the stream aligned.
    bases_a = (labels_a & (rng.random(big_n) < 0.5)).view(np.int8)
    bases_b = labels_b.view(np.int8) + (labels_b & (rng.random(big_n) < 0.5)).view(np.int8)
    uniforms = rng.random(big_n)

    table, rows = _pmf_table(strategy, bases_a, bases_b, big_n)
    codes = outcomes_from_uniforms(table, uniforms, rows=rows)
    outcomes_a = np.where(codes < 2, np.int8(1), np.int8(-1))
    outcomes_b = np.where(codes & 1, np.int8(-1), np.int8(1))

    common = dict(
        schema_version=1,
        params=params,
        strategy=strategy.describe(),
        seed=seed,
        labels_a=labels_a,
        labels_b=labels_b,
        bases_a=bases_a,
        bases_b=bases_b,
        outcomes_a=outcomes_a,
        outcomes_b=outcomes_b,
    )

    both_smp = np.flatnonzero(labels_a & labels_b)
    both_sif = np.flatnonzero(~labels_a & ~labels_b)
    if len(both_smp) < params.l_smp or len(both_sif) < params.n:
        return Transcript(
            **common,
            i_smp=np.empty(0, dtype=np.int64),
            i_sif=np.empty(0, dtype=np.int64),
            s_est=None,
            abort=ABORT_INSUFFICIENT,
        )

    i_smp = np.sort(rng.choice(both_smp, size=params.l_smp, replace=False))
    i_sif = np.sort(rng.choice(both_sif, size=params.n, replace=False))

    signs = _chsh_signs(bases_a[i_smp], bases_b[i_smp])
    s_est = float(np.mean(outcomes_a[i_smp] * outcomes_b[i_smp] * signs))

    if s_est < params.s0:
        return Transcript(**common, i_smp=i_smp, i_sif=i_sif, s_est=s_est, abort=ABORT_CHSH)

    sifted = ((1 - outcomes_a[i_sif]) // 2).astype(np.uint8)
    bob_raw = ((1 - outcomes_b[i_sif]) // 2).astype(np.uint8)

    if p_est is None:
        p_est = float(np.clip((1.0 - SQRT2 * s_est) / 2.0, 0.0, 0.5))
    syndrome_bits = syndrome_budget(params.n, p_est, params.f_ec)

    # Oracle error correction: Bob adopts Alice's string, the syndrome cost
    # is charged; the budget is what the security formulas consume.
    corrected = sifted.copy()

    fcor_len = min(params.n, max(1, math.ceil(math.log2(1.0 / params.eps_cor))))
    fcor = ToeplitzHash.sample(params.n, fcor_len, seed=int(rng.integers(2**63)))
    fcor_match = bool(np.array_equal(fcor(sifted), fcor(corrected)))
    if not fcor_match:
        return Transcript(
            **common,
            i_smp=i_smp,
            i_sif=i_sif,
            s_est=s_est,
            abort=ABORT_VERIFY,
            p_est=p_est,
            sifted_key=sifted,
            bob_raw=bob_raw,
            corrected_key=corrected,
            syndrome_bits_used=syndrome_bits,
            syndrome_within_budget=syndrome_bits <= params.l_syn,
            fcor=fcor.to_json(),
            fcor_match=fcor_match,
        )

    report = finite_key_length(params)
    if report.l > 0:
        fpa = ToeplitzHash.sample(params.n, report.l, seed=int(rng.integers(2**63)))
        key_a = fpa(sifted)
        key_b = fpa(corrected)
        fpa_doc = fpa.to_json()
    else:
        key_a = np.empty(0, dtype=np.uint8)
        key_b = np.empty(0, dtype=np.uint8)
        fpa_doc = None

    return Transcript(
        **common,
        i_smp=i_smp,
        i_sif=i_sif,
        s_est=s_est,
        abort=None,
        p_est=p_est,
        sifted_key=sifted,
        bob_raw=bob_raw,
        corrected_key=corrected,
        syndrome_bits_used=syndrome_bits,
        syndrome_within_budget=syndrome_bits <= params.l_syn,
        fcor=fcor.to_json(),
        fcor_match=fcor_match,
        fpa=fpa_doc,
        secret_key_a=key_a,
        secret_key_b=key_b,
        key_report={"l": report.l, "reason": report.reason},
    )


@dataclass
class NoiseGapReport:
    """Monte Carlo comparison of the randomized and projective CHSH tests.

    Per pulse, the projective test outputs the Bell eigenvalue
    (``+-|mu|`` or ``+-|nu|``); the randomized test flips a +-1 coin whose
    bias reproduces that eigenvalue in expectation.  Batches of
    ``batch_size`` pulses give one sample of the gap ``|S_rand - S_proj|``;
    the empirical tail beyond ``deviation`` is compared with the
    Azuma-Hoeffding bound.
    """

    trials: int
    batch_size: int
    deviation: float
    empirical_tail: float
    bound: float
    mean_abs_gap: float
    mean_s_randomized: float
    mean_s_projective: float


def _noise_gap_core(
    probs: np.ndarray,
    values: np.ndarray,
    trials: int,
    batch_size: int,
    deviation: float,
    rng: np.random.Generator,
) -> NoiseGapReport:
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


def povm_noise_experiment(
    m: CHSHMeasurement,
    rho: np.ndarray,
    trials: int,
    rng: np.random.Generator,
    batch_size: int = 4800,
    deviation: float = 0.1,
) -> NoiseGapReport:
    """Simulate both CHSH test channels on ``rho`` and bound their disagreement."""
    if trials < 1 or batch_size < 1:
        raise ValueError("trials and batch_size must be at least 1")
    rho = np.asarray(rho, dtype=complex)
    basis = m.bell_basis
    probs = np.clip(np.einsum("ij,jk,ki->i", basis.conj().T, rho, basis).real, 0.0, 1.0)
    probs = probs / probs.sum()
    return _noise_gap_core(probs, m.bell_values, trials, batch_size, deviation, rng)


__all__ = [
    "ABORT_CHSH",
    "ABORT_INSUFFICIENT",
    "ABORT_VERIFY",
    "ALICE_BASES",
    "BOB_BASES",
    "CustomSource",
    "DepolarizingSource",
    "MisalignedSource",
    "NoiseGapReport",
    "Transcript",
    "depolarized_pair_state",
    "estimate_chsh",
    "ideal_pair_state",
    "joint_outcome_pmf",
    "outcomes_from_uniforms",
    "povm_noise_experiment",
    "qber",
    "run_protocol",
]
