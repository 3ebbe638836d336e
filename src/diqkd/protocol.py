"""Monte Carlo simulation of the entanglement-based protocol round trip.

One run plays the full protocol against a chosen source/detector strategy:
label every pulse pair as sample or sifted-key candidate (sample with
probability ``q``), pick bases, sample measurement outcomes pulse by pulse
from the Born rule, select the sample and sifted index sets, estimate the
CHSH parameter, abort or continue, then error-correct, verify with a short
universal hash, and compress with privacy amplification.

The adversary model is observational: a strategy (source) fixes the
two-qubit state and the detector operators, and no quantum side information
is tracked.  Every source holds ``rho``, a ``(4, 4)`` density matrix, and
``alice_ops``/``bob_ops``, dicts from each label of ``ALICE_BASES`` and
``BOB_BASES`` to a ``(2, 2)`` +-1-valued observable; a source that changes
from pulse to pulse (``CustomSource``) gives any of them a leading pulse
axis of length N.  The Born-rule table is one broadcasting
``joint_outcome_pmf`` call over the six pairs of bases: once per run for an
i.i.d. source, once per chunk of pulses (below) over the chunk's slice of
the pulse axis otherwise.  A pulse's outcome depends only on its row of
that table and its own uniform draw, so the detectors are memoryless by
construction.  Error correction is an accounting model: Bob's corrected key
is Alice's key by construction while the syndrome cost is charged against
the budget, since only the syndrome length enters the security formulas.

Random stream layout: a run's generator is ``default_rng(seed)`` (PCG64),
and each uniform double takes one 64-bit output.  Outputs ``[s N, (s+1) N)``
form per-pulse stream ``s``: Alice's labels, Bob's labels, Alice's basis
coins, Bob's basis coins and the outcome uniforms, in that order, pulse
``i`` taking output ``i`` of each stream whether or not its label uses it.
The index selection and the two hash seeds read the outputs from ``5 N``
on.  The pulse stage walks the pulses in chunks of ``_CHUNK``, drawing
each stream from a copy of the generator advanced to the stream's start,
and then advances the generator past all five.  Since a pulse's labels,
bases and outcome depend only on its own five draws and its row of the
Born-rule table, the chunked stage writes the same bits as whole-array
draws would, while its temporaries stay O(``_CHUNK``).

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


def _json_tokens(values) -> np.ndarray:
    """Fixed-width byte table of each value's JSON followed by the list separator, NUL-padded."""
    return np.array([json.dumps(v) + ", " for v in values], dtype=bytes)


# Token tables that spell basis codes as their labels in a transcript.
_BASIS_TOKENS = {"bases_a": _json_tokens(ALICE_BASES), "bases_b": _json_tokens(BOB_BASES)}
# Arrays whose max - min is below this are spelled from a token table (uint8 codes).
_TABLE_SPAN = 256

# Pulses per step of the pulse stage: its temporaries stay small and in cache.
_CHUNK = 1 << 16
# Per-pulse uniform streams of a run: two labels, two basis coins, the outcome.
_STREAMS = 5

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

    def pulse_state(self, i: int) -> np.ndarray:
        """The state of pulse ``i``: ``rho``, since the source is i.i.d."""
        return self.rho


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


class CustomSource:
    """Fully general per-pulse states and detector parameters.

    ``rho`` and the x operators carry the pulse axis; the z operators are
    shared by every pulse.
    """

    def __init__(self, states: list, alphas: list, betas: list):
        if not len(states) == len(alphas) == len(betas):
            raise ValueError("states, alphas, betas must have equal length")
        self.rho = validate_density(np.asarray(states, dtype=complex).reshape(len(states), 4, 4))
        z = pauli("z")
        self.alice_ops = {"z": z, "x": generalized_x(alphas)}
        self.bob_ops = {"zp": z, "z": z, "x": generalized_x(betas)}

    def describe(self) -> dict:
        return {"kind": "custom", "pulses": len(self.rho)}


def joint_outcome_pmf(rho: np.ndarray, op_a: np.ndarray, op_b: np.ndarray) -> np.ndarray:
    """Born probabilities of the four (+-1, +-1) outcome pairs.

    Outcome order: (+,+), (+,-), (-,+), (-,-), on the last axis; the leading
    axes of the three arguments broadcast.  Uses the identity
    ``P(ra, rb) = (1 + ra <A> + rb <B> + ra rb <AB>) / 4``.
    """
    ea, eb, eab = (
        np.trace(op @ rho, axis1=-2, axis2=-1).real
        for op in (tensor(op_a, identity(2)), tensor(identity(2), op_b), tensor(op_a, op_b))
    )
    pmf = np.stack(
        [
            (1.0 + ea + eb + eab),
            (1.0 + ea - eb - eab),
            (1.0 - ea + eb - eab),
            (1.0 - ea - eb + eab),
        ],
        axis=-1,
    ) / 4.0
    return np.clip(pmf, 0.0, 1.0)


def outcomes_from_uniforms(
    pmfs: np.ndarray, uniforms: np.ndarray, *, rows: np.ndarray
) -> np.ndarray:
    """Map per-pulse uniforms through per-pulse outcome distributions.

    Pulse ``i`` uses the distribution ``pmfs[rows[i]]`` and gets the int8
    outcome code of its uniform draw.
    Pure kernel of the measurement step: the row alone fully determines
    outcome ``i`` given ``uniforms[i]``, so permuting rows and uniforms
    together permutes the outcomes identically.  This is the memorylessness
    of the detectors, by construction.
    """
    # one contiguous row of thresholds per outcome, gathered by np.take
    cum = np.cumsum(pmfs, axis=1).T.copy()
    codes = np.zeros(len(uniforms), dtype=np.int8)
    for col in cum[:3]:
        codes += uniforms >= col.take(rows)
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
        """``json.dumps`` of the field document, byte for byte.

        The document has one key per field, in field order: ``params`` as
        its ``as_dict()``, arrays as lists (bools as 0/1) and basis codes as
        their labels.  Arrays are spelled by numpy (``_json_list``) and every
        other value by ``json.dumps``, joined with its ``", "`` and ``": "``
        separators.
        """
        parts = []
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, np.ndarray):
                text = _json_list(value, _BASIS_TOKENS.get(f.name))
            else:
                text = json.dumps(value.as_dict() if isinstance(value, ProtocolParams) else value)
            parts.append(f"{json.dumps(f.name)}: {text}")
        return "{" + ", ".join(parts) + "}"


def _json_list(a: np.ndarray, tokens: np.ndarray | None) -> str:
    """``json.dumps(a.tolist())`` of a 1-d bool or integer array, spelled by numpy.

    With ``tokens`` (a ``_json_tokens`` table), value ``c`` is spelled
    ``tokens[c]``.  Otherwise a span below ``_TABLE_SPAN`` is looked up in
    the table of ``min(a)..max(a)``, and a wider one is spelled digit by
    digit (``_digit_rows``).  Each value becomes one NUL-padded row of
    ``"<json>, "``, so dropping the NULs and the last separator of the rows'
    bytes leaves the body of the list.
    """
    if a.ndim != 1 or a.dtype.kind not in "biu":
        raise TypeError(f"expected a 1-d bool or integer array, got {a.dtype} {a.shape}")
    if len(a) == 0:
        return "[]"
    if tokens is None:
        lo, hi = int(a.min()), int(a.max())
        if hi - lo >= _TABLE_SPAN:
            return _join_rows(_digit_rows(a))
        tokens = _json_tokens(range(lo, hi + 1))
        # a - lo, computed mod 256 in uint8: exact since every code is below
        # 256, and free of overflow whatever a's dtype
        a = a.astype(np.uint8)
        a -= np.uint8(lo % 256)
    return _join_rows(tokens.take(a))


def _join_rows(rows: np.ndarray) -> str:
    return "[" + rows.tobytes().translate(None, b"\0")[:-2].decode("ascii") + "]"


def _digit_rows(a: np.ndarray) -> np.ndarray:
    """One NUL-padded row of ``"<decimal>, "`` bytes per value of an integer array.

    The rows are built column by column, units digit first: ``q % 10 + 48``
    while the rest ``q`` of the magnitude is positive, NUL once it is not;
    a negative value then gets a ``-`` in the column before its first digit.
    """
    neg = a < 0
    # two's complement negation in uint64 is exact, |INT64_MIN| = 2**63 included
    q = a.astype(np.uint64)
    np.negative(q, out=q, where=neg)
    width = len(str(int(q.max())))
    # column-major, so that each column is written in one contiguous pass
    cols = np.zeros((width + 3, len(a)), dtype=np.uint8)
    cols[-2:] = np.frombuffer(b", ", dtype=np.uint8)[:, None]
    for col in range(width, 0, -1):
        rest = q // 10  # floor division by a constant is fast, unlike np.remainder
        np.subtract(q, 10 * rest, out=cols[col], casting="unsafe")
        cols[col] += 48
        if col < width:
            cols[col] *= q > 0
        q = rest
    digits = np.count_nonzero(cols[1 : width + 1], axis=0)
    cols[width - digits[neg], neg] = 45
    return np.ascontiguousarray(cols.T)


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


def estimate_chsh(transcript: Transcript) -> float:
    """CHSH average ``mean(r_A r_B (-1)^t)`` of a transcript's sample rounds."""
    idx = transcript.i_smp
    if len(idx) == 0:
        raise ValueError("transcript has no sample rounds")
    ra = transcript.outcomes_a[idx]
    rb = transcript.outcomes_b[idx]
    signs = _SIGN_TABLE[transcript.bases_a[idx], transcript.bases_b[idx]]
    return float(np.mean(ra * rb * signs))


def _pmf_table(source, pulses: slice) -> np.ndarray:
    """Outcome distributions of every pair of bases, in one stacked Born-rule call.

    Row ``bases_a * len(BOB_BASES) + bases_b`` of the ``(6, 4)`` table holds
    a pair's distribution.  A source with a pulse axis gives a ``(P, 6, 4)``
    table for its ``pulses`` (P of them), that block of six rows once per
    pulse; an i.i.d. source ignores ``pulses``.
    """

    def cut(m: np.ndarray) -> np.ndarray:
        return m[pulses] if m.ndim == 3 else m

    ops_a = np.stack(np.broadcast_arrays(*(cut(source.alice_ops[c]) for c in ALICE_BASES)))
    ops_b = np.stack(np.broadcast_arrays(*(cut(source.bob_ops[c]) for c in BOB_BASES)))
    table = joint_outcome_pmf(cut(source.rho), ops_a[:, None], ops_b[None, :])
    pairs = len(ALICE_BASES) * len(BOB_BASES)
    if source.rho.ndim == 3:
        return np.ascontiguousarray(np.moveaxis(table.reshape(pairs, -1, 4), 1, 0))
    return table.reshape(pairs, 4)


def _chunk_rows(table, bases_a, bases_b) -> tuple[np.ndarray, np.ndarray]:
    """The table rows of a chunk of pulses, and each pulse's row in them.

    A pulse's pair row is ``bases_a * len(BOB_BASES) + bases_b``; a table
    with a pulse axis holds the chunk's pulses only, and the row is offset
    by six rows per pulse.
    """
    rows = bases_a.astype(np.intp)
    rows *= len(BOB_BASES)
    rows += bases_b
    if table.ndim == 2:
        return table, rows
    pmfs = table.reshape(-1, 4)
    rows += np.arange(0, len(pmfs), table.shape[1])
    return pmfs, rows


def _sorted_sample(rng: np.random.Generator, pop: np.ndarray, k: int) -> np.ndarray:
    """``np.sort(rng.choice(pop, k, replace=False))`` for a sorted ``pop``, by mask.

    ``choice`` of an array draws the same indices as ``choice`` of its
    length and then gathers them, so the draws and the chosen set are the
    same; selecting by mask keeps ``pop``'s order, so no sort is needed.
    """
    mask = np.zeros(len(pop), dtype=bool)
    mask[rng.choice(len(pop), size=k, replace=False)] = True
    return pop[mask]


def _hash_pair(h: ToeplitzHash, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(h(a), h(b))``, hashing ``b`` only if it differs from ``a`` (hashing is pure)."""
    tag_a = h(a)
    return tag_a, tag_a.copy() if np.array_equal(a, b) else h(b)


def run_protocol(
    params: ProtocolParams, strategy, seed: int, p_est: float | None = None
) -> Transcript:
    """Execute one full protocol run and return its transcript.

    ``p_est`` is the error-rate estimate used to size the syndrome; by
    default it is derived from the measured CHSH average by inverting
    ``S = (1 - 2p)/sqrt(2)`` and clipping to [0, 1/2].  Aborts are recorded
    outcomes, not errors: the transcript is filled in stage by stage and
    every exit returns it with its abort code.
    """
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    rng = np.random.default_rng(seed)
    big_n = params.pulse_pairs
    if strategy.rho.shape[:-2] not in ((), (big_n,)):
        raise ValueError(f"custom strategy must supply exactly {big_n} pulses")

    # Pulse stream s is rng's outputs [s N, (s+1) N): a copy of rng advanced
    # by s N draws it, and rng itself moves on past all five.
    state = rng.bit_generator.state
    streams = []
    for s in range(_STREAMS):
        bit_gen = np.random.PCG64()
        bit_gen.state = state
        streams.append(np.random.Generator(bit_gen.advance(s * big_n)))
    rng.bit_generator.advance(_STREAMS * big_n)

    labels_a = np.empty(big_n, dtype=bool)
    labels_b = np.empty(big_n, dtype=bool)
    bases_a = np.empty(big_n, dtype=np.int8)
    bases_b = np.empty(big_n, dtype=np.int8)
    outcomes_a = np.empty(big_n, dtype=np.int8)
    outcomes_b = np.empty(big_n, dtype=np.int8)
    # an i.i.d. table serves every chunk; a pulse-axis one is built per chunk
    table = _pmf_table(strategy, slice(None)) if strategy.rho.ndim == 2 else None
    buf = np.empty(min(_CHUNK, big_n))
    for start in range(0, big_n, _CHUNK):
        stop = min(start + _CHUNK, big_n)
        u = buf[: stop - start]
        la, lb = labels_a[start:stop], labels_b[start:stop]
        ba, bb = bases_a[start:stop], bases_b[start:stop]
        np.less(streams[0].random(out=u), params.q, out=la)
        np.less(streams[1].random(out=u), params.q, out=lb)
        # One basis draw per pulse regardless of label: pulse i's draws are
        # output i of each stream, whatever the chunk boundaries.
        np.logical_and(la, streams[2].random(out=u) < 0.5, out=ba.view(bool))
        np.add(lb, lb & (streams[3].random(out=u) < 0.5), out=bb, dtype=np.int8)
        chunk_table = _pmf_table(strategy, slice(start, stop)) if table is None else table
        pmfs, rows = _chunk_rows(chunk_table, ba, bb)
        codes = outcomes_from_uniforms(pmfs, streams[4].random(out=u), rows=rows)
        # codes follow joint_outcome_pmf's order (+,+), (+,-), (-,+), (-,-):
        # Alice's sign is the high bit, Bob's the low one
        outcomes_a[start:stop] = 1 - 2 * (codes >> 1)
        outcomes_b[start:stop] = 1 - 2 * (codes & 1)

    t = Transcript(
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
        i_smp=np.empty(0, dtype=np.int64),
        i_sif=np.empty(0, dtype=np.int64),
        s_est=None,
        abort=None,
    )

    both_smp = np.flatnonzero(labels_a & labels_b)
    both_sif = np.flatnonzero(~labels_a & ~labels_b)
    if len(both_smp) < params.l_smp or len(both_sif) < params.n:
        t.abort = ABORT_INSUFFICIENT
        return t

    t.i_smp = _sorted_sample(rng, both_smp, params.l_smp)
    t.i_sif = _sorted_sample(rng, both_sif, params.n)
    del both_smp, both_sif
    t.s_est = estimate_chsh(t)
    if t.s_est < params.s0:
        t.abort = ABORT_CHSH
        return t

    sifted = t.sifted_key = ((1 - t.outcomes_a[t.i_sif]) // 2).astype(np.uint8)
    t.bob_raw = ((1 - t.outcomes_b[t.i_sif]) // 2).astype(np.uint8)

    if p_est is None:
        p_est = float(np.clip((1.0 - SQRT2 * t.s_est) / 2.0, 0.0, 0.5))
    t.p_est = p_est
    t.syndrome_bits_used = syndrome_budget(params.n, p_est, params.f_ec)
    t.syndrome_within_budget = t.syndrome_bits_used <= params.l_syn

    # Oracle error correction: Bob adopts Alice's string, the syndrome cost
    # is charged; the budget is what the security formulas consume.
    corrected = t.corrected_key = sifted.copy()

    fcor_len = min(params.n, max(1, math.ceil(math.log2(1.0 / params.eps_cor))))
    fcor = ToeplitzHash.sample(params.n, fcor_len, seed=int(rng.integers(2**63)))
    t.fcor = fcor.to_json()
    tag_a, tag_b = _hash_pair(fcor, sifted, corrected)
    t.fcor_match = bool(np.array_equal(tag_a, tag_b))
    if not t.fcor_match:
        t.abort = ABORT_VERIFY
        return t

    report = finite_key_length(params)
    t.key_report = {"l": report.l, "reason": report.reason}
    if report.l > 0:
        fpa = ToeplitzHash.sample(params.n, report.l, seed=int(rng.integers(2**63)))
        t.secret_key_a, t.secret_key_b = _hash_pair(fpa, sifted, corrected)
        t.fpa = fpa.to_json()
    else:
        t.secret_key_a = np.empty(0, dtype=np.uint8)
        t.secret_key_b = np.empty(0, dtype=np.uint8)
    return t


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
    thresholds = (1.0 + values) / 2.0
    exceed = 0
    abs_gap_total = 0.0
    s2_total = 0.0
    s3_total = 0.0
    chunk = max(1, min(trials, 2_000_000 // batch_size))
    done = 0
    while done < trials:
        t = min(chunk, trials - done)
        draws = rng.random((t, batch_size))
        # Bell outcome of each pulse: the number of cum[:3] at or below its
        # draw.  cum is non-decreasing, so this is searchsorted(cum, draws,
        # side="right") capped at 3.
        idx = (draws >= cum[0]).astype(np.intp)
        idx += draws >= cum[1]
        idx += draws >= cum[2]
        del draws
        g3 = values.take(idx).mean(axis=1)
        # The randomized test outputs +1 with probability thresholds[idx],
        # else -1.  Its batch mean is counted, not summed: every partial sum
        # of +-1.0 is an exact integer, so the mean of the +-1 array is
        # exactly (2 * plus - batch) / batch.
        plus = np.count_nonzero(rng.random((t, batch_size)) < thresholds.take(idx), axis=1)
        g2 = (2 * plus - batch_size) / batch_size
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
    if not 0.0 <= deviation < math.inf:
        raise ValueError(f"deviation must be finite and non-negative, got {deviation!r}")
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
