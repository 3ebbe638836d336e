"""Monte Carlo simulation of the entanglement-based protocol round trip.

One run plays the full protocol against a chosen source/detector strategy:
label every pulse pair as sample or sifted-key candidate (sample with
probability ``q``), pick bases, sample measurement outcomes pulse by pulse
from the Born rule, select the sample and sifted index sets, estimate the
CHSH parameter, abort or continue, then error-correct, draw the correctness
hash, and compress with privacy amplification.

The adversary model is observational: a strategy (source) fixes the
two-qubit state and the detector operators, and no quantum side information
is tracked.  Every source holds ``rho``, a ``(4, 4)`` density matrix, and
``alice_ops``/``bob_ops``, mappings from each label of ``ALICE_BASES`` and
``BOB_BASES`` to a ``(2, 2)`` +-1-valued observable; a source that changes
from pulse to pulse (``CustomSource``) gives any of them a leading pulse
axis of length N.  Sources are fixed once built; ``CustomSource`` copies
its inputs.  The Born-rule table is six ``joint_outcome_pmf`` calls, one
per pair of bases: at construction for the two i.i.d. sources, which keep
its integer form in ``outcome_tables``; per chunk of pulses (below), over
the pulses whose outcomes are drawn, for the others.  A pulse's outcome
depends only on its row of that table and its own random word, so the
detectors are memoryless by construction.  Error correction is an
accounting model: Bob's corrected key is Alice's key by construction while
the syndrome cost is charged against the budget, since only the syndrome
length enters the security formulas.  The verification tags cannot differ,
so the correctness hash ``fcor`` is recorded (its seed and lengths; no
diagonal is drawn) but not applied, and ``fcor_match`` is the model's
verdict; privacy amplification hashes the one key.  A model of real error
correction would bring the verification apply back.

Random stream layout: every per-pulse draw is one 64-bit word ``w`` of
``PCG64(seed).random_raw``.  Words ``[s N, (s+1) N)`` form per-pulse stream
``s``: Alice's labels, Bob's labels, Alice's basis coins, Bob's basis coins
and the outcome words, pulse ``i`` taking word ``i`` of each stream whether
or not its label uses it.  Three rules read them, in exact integer
arithmetic:

- a label is set (a sample candidate) when ``w < ceil(q 2^53) 2^11``;
- a basis coin picks x when ``w < 2^63``;
- the outcome code is ``#{k : (w >> 11) >= T[row, k]}`` for the threshold
  table ``T = ceil(cumsum(pmf)[:, :3] 2^53)``, clipped at 2^53.

For an integer ``m``, ``m 2^-53 < c`` exactly when ``m < ceil(c 2^53)``, so
these are the float rules ``u < q``, ``u < 1/2`` and ``#{k : u >=
cumsum(pmf)[row, k]}`` on ``Generator.random``'s ``u = (w >> 11) 2^-53``,
bit for bit.  The index selection (``Generator.choice``) and the two hash
seeds (``Generator.integers``) read the generator from word ``5 N`` on.
The label stage (``label_stage``) reads streams 0 and 1 from ``PCG64(seed)``,
``_CHUNK`` words at a time, into Bernoulli planes (``_bernoulli``): the labels,
which alone decide the ``insufficient_pulses`` abort and the index selection.
Streams 2-4 are read in lockstep from a ``PCG64(seed)`` advanced past them, in
one pass over the chunks: each stream's chunk of words is reduced (to coins, or
at chosen offsets) before the next, ``N`` words on, is drawn.  A pulse's bits
depend only on its own five words and its row of the Born-rule table, so the
chunked stages write the bits of whole-array draws with O(``_CHUNK``) temporaries.

A transcript's per-pulse state is six bit planes of ``ceil(N / 8)`` bytes,
``np.packbits`` of one bit per pulse, little-endian within each byte:
``labels_a`` and ``labels_b`` (set for a sample candidate), ``bases_a``
(Alice measured x), ``bases_b`` (Bob measured x; his basis code is his
label plus this bit), and ``outcomes_a`` and ``outcomes_b`` (bit ``b``
standing for the outcome ``r = (-1)^b``).  A run holds the label planes
and regrows the other four when one is first read (``_pulse_stage``).  The
writer spells each plane byte, eight pulses, through a 256-row token table
(for Bob's bases, a label nibble and an x nibble pick four), unpacking none.

The sample and sifted selections are drawn from the candidate planes
(``_candidates``) before the pulse stage (``_select``), and a run holds each
one as two bytes per chosen pulse: per chunk of ``_CHUNK`` pulses, their
uint16 offsets within it.  While ``Generator.choice`` draws, only its own
arrays grow with the candidate count.  The run then reads streams 2-4
(``_rounds``) but looks at a coin only on a sample pulse and draws an
outcome only on a sample or sifted one, all the protocol reads: it counts
the sample rounds' negative CHSH signs and gathers the sifted strings.  The
int64 index lists are built from the offsets last, ``i_sif`` after the
privacy-amplification hash (or at the CHSH abort), so that no 8 bytes per
sifted bit are held beside the hash.  Runs are deterministic given
(params, strategy, seed) and independent runs are embarrassingly parallel.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import InitVar, dataclass, field, fields
from functools import partial
from types import MappingProxyType

import numpy as np

from .chsh import CHSHMeasurement, chsh_measurement
from .hashing import ToeplitzHash
from .linalg import SQRT2, generalized_x, identity, pauli, tensor, validate_density
from .rates import ProtocolParams, azuma_tail, check_count, finite_key_length, syndrome_budget

# Basis codes used in transcript arrays.
ALICE_BASES = ("z", "x")  # sifting uses z
BOB_BASES = ("zp", "z", "x")  # sifting uses zp


def _spelling(values, codes: np.ndarray) -> tuple:
    """``(tokens, codes, rows, ragged)``: the JSON list spelling of the pulse codes ``codes[i]``.

    ``tokens`` holds each value's JSON followed by the list separator, and row
    ``i`` of ``rows`` the tokens of ``codes[i]`` joined, both NUL-padded;
    ``ragged`` when the tokens, and so the rows, differ in width.
    """
    tokens = np.array([json.dumps(v) + ", " for v in values], dtype=bytes)
    rows = np.array([b"".join(row) for row in tokens[codes].tolist()], dtype=bytes)
    return tokens, codes, rows, len(set(map(len, tokens))) > 1


# Pulses per step of the label and pulse stages, and trials per block of the
# noise-gap experiment: their temporaries stay small and in cache.  A multiple
# of 8, so that each chunk of pulses packs into whole bytes of a bit plane, and
# at most 2^16, so that a pulse's offset within its chunk fits in a uint16.
_CHUNK = 1 << 16
# The outcome words are bucketed by their top bits (``outcomes_from_uniforms``).
_BUCKET_BITS = 12
# The bucket-table entry of a bucket that a threshold splits.
_SPLIT = np.uint8(255)
# The per-pulse bit planes of a transcript, in field order.
_PLANES = ("labels_a", "labels_b", "bases_a", "bases_b", "outcomes_a", "outcomes_b")
# The codes of the eight pulses of each byte value of a plane, pulse j its bit j.
_BYTE_CODES = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1, bitorder="little")
# Each plane's spelling (``Transcript.to_json``), eight pulses per byte:
# labels and key bits as 0/1, Alice's basis codes as their labels, outcome
# bits as +-1.  Bob's basis rows are indexed by a nibble of his label plane
# below the same four pulses' nibble of his x plane, each code label plus x.
_BITS, _SIGNS = _spelling((0, 1), _BYTE_CODES), _spelling((1, -1), _BYTE_CODES)
_SPELLINGS = dict.fromkeys(_PLANES[:2], _BITS) | dict.fromkeys(_PLANES[4:], _SIGNS)
_SPELLINGS["bases_a"] = _spelling(ALICE_BASES, _BYTE_CODES)
_SPELLINGS["bases_b"] = _spelling(BOB_BASES, _BYTE_CODES[:, :4] + _BYTE_CODES[:, 4:])
# A basis coin picks x when its word is below this bound: ``u < 1/2``.
_COIN = np.uint64(1 << 63)

ABORT_INSUFFICIENT = "insufficient_pulses"
ABORT_CHSH = "chsh_failed"


def ideal_pair_state() -> np.ndarray:
    """Maximally correlated two-qubit source state, perfectly keyed in z/z'."""
    psi = np.zeros(4, dtype=complex)
    psi[0] = psi[3] = 1.0 / SQRT2
    return np.outer(psi, psi.conj())


def _depolarize(state: np.ndarray, p: float) -> np.ndarray:
    """``(1 - 2p) state + 2p I/4`` for an error rate ``p`` in [0, 1/2]."""
    if not 0.0 <= p <= 0.5:
        raise ValueError(f"p must be in [0, 1/2], got {p!r}")
    return (1.0 - 2.0 * p) * state + 2.0 * p * identity(4) / 4.0


def depolarized_pair_state(p: float) -> np.ndarray:
    """Source state ``(1 - 2p) |psi><psi| + 2p I/4``.

    With the calibrated detector frames this single parameter produces a
    sifted-key error rate of exactly ``p`` and a CHSH average of exactly
    ``(1 - 2p)/sqrt(2)``: the correlators of the pure state all scale by
    ``(1 - 2p)`` and the maximally mixed part contributes nothing.
    """
    return _depolarize(ideal_pair_state(), p)


class _FixedSource:
    """A source, fixed once built: its transcripts regrow their planes from it.

    ``_fix`` makes its arrays read-only and the operator dicts read-only
    views, builds an i.i.d. source's ``outcome_tables`` (None for a source
    with a pulse axis), and from then on no attribute may be rebound.
    """

    def _fix(self) -> None:
        for m in (self.rho, *self.alice_ops.values(), *self.bob_ops.values()):
            m.flags.writeable = False
        self.alice_ops = MappingProxyType(self.alice_ops)
        self.bob_ops = MappingProxyType(self.bob_ops)
        table = _thresholds(_pmf_table(self, slice(None))) if self.rho.ndim == 2 else None
        self.outcome_tables = None if table is None else (table, _bucket_table(table))

    def __setattr__(self, name: str, value) -> None:
        if "outcome_tables" in vars(self):
            raise AttributeError(f"{type(self).__name__} is fixed once built; build a new source")
        super().__setattr__(name, value)


class DepolarizingSource(_FixedSource):
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
        self._fix()

    def describe(self) -> dict:
        return {"kind": "depolarizing", "p": self.p}

    def pulse_state(self, i: int) -> np.ndarray:
        """The state of pulse ``i``: ``rho``, since the source is i.i.d."""
        return self.rho


class MisalignedSource(_FixedSource):
    """Constant detector misalignment in the reduced qubit picture.

    Alice measures ``{Z, X_alpha}``, Bob ``{Z, X_beta}`` for sampling and
    ``Z`` for his key.  The source emits the top eigenvector of the CHSH
    observable for ``(alpha, beta)``, depolarized by ``p``, which is the
    best i.i.d. state against this detector pair.
    """

    def __init__(self, alpha: complex, beta: complex, p: float = 0.0):
        self.p = float(p)
        self.measurement = chsh_measurement(alpha, beta)
        self.alpha, self.beta = self.measurement.alpha, self.measurement.beta
        label = "psi_plus" if self.measurement.abs_mu >= self.measurement.abs_nu else "phi_plus"
        self.rho = _depolarize(self.measurement.projector(label), self.p)
        z = pauli("z")
        self.alice_ops = {"z": z, "x": generalized_x(self.alpha)}
        self.bob_ops = {"zp": z, "z": z, "x": generalized_x(self.beta)}
        self._fix()

    def describe(self) -> dict:
        return {
            "kind": "misaligned",
            "alpha": [self.alpha.real, self.alpha.imag],
            "beta": [self.beta.real, self.beta.imag],
            "p": self.p,
        }


class CustomSource(_FixedSource):
    """Fully general per-pulse states and detector parameters, copied at construction.

    ``rho`` and the x operators carry the pulse axis; the z operators are
    shared by every pulse.
    """

    def __init__(self, states: list, alphas: list, betas: list):
        if not len(states) == len(alphas) == len(betas):
            raise ValueError("states, alphas, betas must have equal length")
        self.rho = validate_density(np.array(states, dtype=complex).reshape(len(states), 4, 4))
        z = pauli("z")
        self.alice_ops = {"z": z, "x": generalized_x(alphas)}
        self.bob_ops = {"zp": z, "z": z, "x": generalized_x(betas)}
        self._fix()

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
    thresholds: np.ndarray, words: np.ndarray, *, rows: np.ndarray, buckets=None
) -> np.ndarray:
    """Map per-pulse random words through per-pulse outcome distributions.

    Pulse ``i`` gets the uint8 outcome code ``#{k : (words[i] >> 11) >= t[k]}``
    of its row ``t`` of a ``_thresholds`` table: ``thresholds[rows[i]]`` of an
    i.i.d. ``(6, 3)`` table, ``thresholds[i, rows[i]]`` of a ``(P, 6, 3)`` one
    with a pulse axis.  The row alone determines outcome ``i`` given
    ``words[i]``, so permuting rows and words together permutes the outcomes
    identically: the detectors are memoryless by construction.

    ``buckets``, the ``_bucket_table`` of an i.i.d. table, short-cuts the
    comparison.  Entry ``[row, w >> (64 - _BUCKET_BITS)]`` covers the 2^41
    values of ``w >> 11`` that share the word's top bits.  The code never
    falls as ``w`` grows, so where both ends of a bucket give the same code
    every word in it does, and the entry is that code.  A bucket that a
    threshold splits holds ``_SPLIT``, and only its pulses (a few per chunk)
    are compared exactly; without ``buckets`` every pulse is.
    """
    if buckets is None:
        codes = np.empty(len(words), dtype=np.uint8)
        exact = np.arange(len(words))
    else:
        # row and top bits in one uint16 key: the top bits from each word's top uint16
        key = words.astype("<u8", copy=False).view("<u2")[3::4] >> (16 - _BUCKET_BITS)
        key |= np.left_shift(rows, _BUCKET_BITS, dtype=np.uint16)
        codes = buckets.take(key)
        exact = np.flatnonzero(codes == _SPLIT)
    row = rows[exact]
    t = thresholds[row] if thresholds.ndim == 2 else thresholds[exact, row]
    codes[exact] = (words[exact, None] >> np.uint64(11) >= t).sum(axis=-1, dtype=np.uint8)
    return codes


def _plane(big_n: int) -> np.ndarray:
    """An unfilled bit plane of ``big_n`` pulses."""
    return np.empty(-(-big_n // 8), dtype=np.uint8)


def _put(plane: np.ndarray, start: int, bits: np.ndarray) -> None:
    """Pack a chunk's 0/1 values into ``plane`` from pulse ``start``, a multiple of 8."""
    packed = np.packbits(bits, bitorder="little")
    plane[start // 8 : start // 8 + len(packed)] = packed


def _chunks(plane: np.ndarray, big_n: int):
    """``(start, bits)`` for each chunk of ``_CHUNK`` of a plane's ``big_n`` pulses, unpacked."""
    for start in range(0, big_n, _CHUNK):
        stop = min(start + _CHUNK, big_n)
        bits = plane[start // 8 : (stop + 7) // 8]
        yield start, np.unpackbits(bits, count=stop - start, bitorder="little")


def _popcount(plane: np.ndarray) -> int:
    # the bits are unpacked _CHUNK bytes at a time, so that they stay small
    chunks = (plane[i : i + _CHUNK] for i in range(0, len(plane), _CHUNK))
    return sum(np.count_nonzero(np.unpackbits(chunk)) for chunk in chunks)


class _Regrown:
    """A basis or outcome plane: held as given, or regrown from the run's source on first read."""

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, t, owner=None):
        if t is not None and self.name not in vars(t):
            vars(t).update(t._regrow())
        return None if t is None else vars(t)[self.name]  # None: the field's default

    def __set__(self, t, plane) -> None:
        if plane is not None:
            vars(t)[self.name] = plane


@dataclass(eq=False)
class Transcript:
    """Complete record of one protocol run; ``==`` is identity, compare ``to_json()`` for content.

    The six per-pulse fields are the bit planes of the module docstring,
    each a uint8 array of ``ceil(N / 8)`` bytes (``ValueError`` otherwise).
    Given a ``source``, as ``run_protocol`` builds it, it holds the label planes
    and regrows the other four from (source, seed, labels) when one is first read.
    ``abort`` is None for a completed run, otherwise one of the abort reason
    codes.  Key bits are 0/1; ``corrected_key`` and ``secret_key_b`` are
    ``sifted_key`` and ``secret_key_a``, and a run's arrays are read-only.
    """

    schema_version: int
    params: ProtocolParams
    strategy: dict
    seed: int
    labels_a: np.ndarray  # set = sample candidate
    labels_b: np.ndarray
    bases_a: np.ndarray = _Regrown()  # set = x
    bases_b: np.ndarray = _Regrown()  # set = x
    outcomes_a: np.ndarray = _Regrown()  # set = -1
    outcomes_b: np.ndarray = _Regrown()
    i_smp: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    i_sif: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    s_est: float | None = None
    abort: str | None = None
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
    source: InitVar[object] = None

    def __post_init__(self, source):
        big_n, size = self.params.pulse_pairs, -(-self.params.pulse_pairs // 8)
        self._regrow = partial(_pulse_stage, source, self.seed, big_n, self.labels_a, self.labels_b)
        for name in (name for name in _PLANES if name in vars(self) or source is None):
            plane = vars(self).get(name)
            if getattr(plane, "dtype", None) != np.uint8 or np.shape(plane) != (size,):
                got = f"{getattr(plane, 'dtype', type(plane).__name__)} {np.shape(plane)}"
                raise ValueError(f"{name} must be a uint8 plane of {size} bytes, got {got}")

    def __getstate__(self) -> dict:
        # a pickle or deep copy holds the planes, not the source they regrow from
        return vars(self) | {name: getattr(self, name) for name in _PLANES} | {"_regrow": None}

    def to_json(self) -> str:
        """``json.dumps`` of the field document, byte for byte.

        One key per field, in field order: ``params`` as its ``as_dict()``,
        the pulse planes as lists of one value per pulse (labels as 0/1,
        basis codes as their labels, outcomes as +-1), other arrays as lists
        of non-negative integers (``TypeError`` if not 1-d bool or integer,
        ``ValueError`` if negative).  A run's transcript regrows its basis
        and outcome planes here unless one was read before.  Each plane is
        spelled through its table in ``_SPELLINGS`` (module docstring), a
        0/1 array (the key strings) packed and through the bit table, any
        other through ``_digit_rows``.  The pulses of a last, partial row are
        spelled through the per-pulse tokens.  The NUL padding is stripped
        only from the lists whose rows differ in width (Bob's bases, the
        outcomes and the indices).  ``json.dumps`` spells the rest, each list
        is decoded on its own, and one join builds the document.
        """
        lab, x = self.labels_b, self.bases_b
        index = {name: getattr(self, name) for name in _PLANES}
        index["bases_b"] = np.stack([lab & 0x0F | x << 4, lab >> 4 | x & 0xF0], axis=-1).ravel()
        parts = []
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name in index:
                pieces = _spell(index[f.name], self.params.pulse_pairs, _SPELLINGS[f.name])
            elif isinstance(value, np.ndarray):
                pieces = _json_naturals(value)
            else:
                value = value.as_dict() if isinstance(value, ProtocolParams) else value
                pieces = [json.dumps(value)]
            parts += [", " if parts else "{", json.dumps(f.name), ": ", *pieces]
        return "".join(parts + ["}"])


def _spell(index: np.ndarray, count: int, spelling: tuple) -> list:
    """The JSON list of ``count`` pulses whose rows of a ``_spelling`` are ``index``, as pieces."""
    tokens, codes, rows, ragged = spelling
    full, rest = divmod(count, codes.shape[1])
    tail = tokens.take(codes[index[full : full + 1], :rest])
    return _join_rows([rows.take(index[:full]), tail], ragged)


def _json_naturals(a: np.ndarray) -> list:
    """``json.dumps(a.tolist())`` of a 1-d bool or non-negative integer array, as pieces."""
    if a.ndim != 1 or a.dtype.kind not in "biu":
        raise TypeError(f"expected a 1-d bool or integer array, got {a.dtype} {a.shape}")
    if a.min(initial=0) < 0:
        raise ValueError(f"expected non-negative integers, got {a.min()}")
    if a.max(initial=0) <= 1:
        return _spell(np.packbits(a, bitorder="little"), len(a), _BITS)
    return _join_rows([_digit_rows(a)])


def _join_rows(rows: list, ragged: bool = True) -> list:
    """``[``, the rows' text joined without their NULs (if ``ragged``) and last separator, ``]``."""
    text = b"".join(rows)
    text = text.translate(None, b"\0") if ragged else text
    return ["[", str(memoryview(text)[:-2], "ascii"), "]"]


def _digit_rows(a: np.ndarray) -> np.ndarray:
    """One NUL-padded row of ``"<decimal>, "`` bytes per value of a non-negative integer array.

    The rows are built column by column, units digit first: ``q % 10 + 48``
    while the rest ``q`` of the value is positive, NUL once it is not.
    """
    width = len(str(int(a.max(initial=0))))
    # column-major, so that each column is written in one contiguous pass
    cols = np.zeros((width + 2, len(a)), dtype=np.uint8)
    cols[-2:] = np.frombuffer(b", ", dtype=np.uint8)[:, None]
    q = a
    for col in range(width - 1, -1, -1):
        rest = q // 10  # floor division by a constant is fast, unlike np.remainder
        np.subtract(q, 10 * rest, out=cols[col], casting="unsafe")
        cols[col] += 48
        if col < width - 1:
            cols[col] *= q > 0
        q = rest
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


def estimate_chsh(transcript: Transcript) -> float:
    """CHSH average ``mean(r_A r_B (-1)^t)`` of a transcript's sample rounds.

    A round is -1 where the sign plane ``outcomes_a ^ outcomes_b ^ (bases_a &
    bases_b)`` is set (``t = chsh.t_sign`` is 1 when both measured x), so
    ``neg`` of ``k`` rounds give the exact ``(k - 2 neg) / k``.
    """
    t, idx = transcript, transcript.i_smp
    if len(idx) == 0:
        raise ValueError("transcript has no sample rounds")
    sign = t.outcomes_a ^ t.outcomes_b ^ (t.bases_a & t.bases_b)
    neg = np.count_nonzero((sign.take(idx >> 3) >> (idx & 7).astype(np.uint8)) & 1)
    return (len(idx) - 2 * int(neg)) / len(idx)


def _pmf_table(source, pulses: slice) -> np.ndarray:
    """Outcome distributions of every pair of bases, one Born-rule call per pair.

    Row ``bases_a * len(BOB_BASES) + bases_b`` of the ``(6, 4)`` table holds
    a pair's distribution.  A source with a pulse axis gives a C-contiguous
    ``(P, 6, 4)`` table for its ``pulses`` (P of them, a slice or indices),
    that block of six rows once per pulse; an i.i.d. source ignores ``pulses``.  Each call
    holds the 4x4 products of its own pair of bases only, so the table's
    peak is about 1.2 KB per pulse.
    """

    def cut(m: np.ndarray) -> np.ndarray:
        return m[pulses] if m.ndim == 3 else m

    rho = cut(source.rho)
    pmfs = [
        joint_outcome_pmf(rho, cut(source.alice_ops[a]), cut(source.bob_ops[b]))
        for a in ALICE_BASES
        for b in BOB_BASES
    ]
    return np.stack(pmfs, axis=-2)


def _thresholds(pmfs: np.ndarray) -> np.ndarray:
    """The uint64 threshold table ``ceil(cumsum(pmf)[..., :3] 2^53)``, clipped at 2^53.

    ``c 2^53`` is exact in float64, so a word's ``m = w >> 11`` reaches a
    threshold exactly when ``m 2^-53 >= c``; ``m`` stays below 2^53, so a
    cumulative sum rounded above 1 is never reached.
    """
    cum = np.cumsum(pmfs, axis=-1)[..., :3]
    return np.minimum(np.ceil(cum * 2.0**53), 2.0**53).astype(np.uint64)


def _bucket_table(thresholds: np.ndarray) -> np.ndarray:
    """The uint8 ``(6, 2^_BUCKET_BITS)`` bucket table of an i.i.d. threshold table.

    Entry ``[row, b]`` is the outcome code of ``m = w >> 11`` at both ends of
    bucket ``b``, ``b 2^41`` and ``(b + 1) 2^41 - 1``, where they agree, and
    ``_SPLIT`` where they differ (``outcomes_from_uniforms``).
    """
    width = 1 << (53 - _BUCKET_BITS)
    lo = np.arange(1 << _BUCKET_BITS, dtype=np.uint64) * np.uint64(width)
    # thresholds on the middle axis, so the sum adds whole contiguous rows
    first, last = (
        (m >= thresholds[:, :, None]).sum(axis=1, dtype=np.uint8)
        for m in (lo, lo + np.uint64(width - 1))
    )
    return np.where(first == last, first, _SPLIT)


def _below(p) -> np.uint64:
    """The word bound ``ceil(p 2^53) 2^11`` of ``u < p``, exact for any real ``p`` in [0, 1/2]."""
    rational = isinstance(p, numbers.Rational)
    num, den = (p.numerator, p.denominator) if rational else p.as_integer_ratio()
    return np.uint64(-((-num << 53) // den) << 11)


def _select(rng: np.random.Generator, cand, count: int, big_n: int, k: int) -> list[np.ndarray]:
    """``k`` pulses drawn without replacement from the ``count`` set in plane ``cand``, chunk-wise.

    The pulses are ``rng.choice(np.flatnonzero(bits), k, replace=False)``
    for ``bits`` the first ``big_n`` bits of ``cand``, by the same single
    draw: ``choice`` of an array draws the same ordinals as ``choice`` of
    its length and then gathers them.  A mask over the candidates marks the
    chosen ordinals, and each chunk of ``_CHUNK`` pulses takes its share, so
    no candidate index array is built and no array of N bytes or more is held
    while ``choice`` runs.  The selection is a list with one array per chunk:
    the uint16 offsets of its chosen pulses within the chunk, ascending.
    """
    chosen = rng.choice(count, size=k, replace=False)
    picks = np.zeros(count, dtype=bool)
    picks[chosen] = True
    del chosen  # 8 bytes per pick, not held beside the offsets
    sel, done = [], 0
    for _, bits in _chunks(cand, big_n):
        here = np.flatnonzero(bits.view(bool))
        sel.append(here[picks[done : done + len(here)]].astype(np.uint16))
        done += len(here)
    return sel


def _indices(sel: list[np.ndarray]) -> np.ndarray:
    """The read-only int64 pulse indices of a ``_select`` selection, ascending."""
    out, done = np.empty(sum(map(len, sel)), dtype=np.int64), 0
    for c, offsets in enumerate(sel):
        np.add(offsets, c * _CHUNK, out=out[done : done + len(offsets)], dtype=np.int64)
        done += len(offsets)
    out.flags.writeable = False
    return out


def _bernoulli(stream: np.random.PCG64, big_n: int, bound: np.uint64) -> np.ndarray:
    """The read-only bit plane of ``stream``'s next ``big_n`` words, set where below ``bound``."""
    plane = _plane(big_n)
    for start in range(0, big_n, _CHUNK):
        _put(plane, start, stream.random_raw(min(_CHUNK, big_n - start)) < bound)
    plane.flags.writeable = False
    return plane


def label_stage(params: ProtocolParams, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Both parties' read-only label planes of run ``seed``, set for a sample candidate.

    Alice's labels are the Bernoulli plane of stream 0, Bob's of stream 1,
    read in order from one ``PCG64(seed)``.
    """
    # a bool is no seed, though numpy would read True as 1
    if isinstance(seed, (bool, np.bool_)) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    stream, bound, big_n = np.random.PCG64(seed), _below(params.q), params.pulse_pairs
    return _bernoulli(stream, big_n, bound), _bernoulli(stream, big_n, bound)


def _candidates(params: ProtocolParams, labels_a: np.ndarray, labels_b: np.ndarray):
    """``[(plane, count)]`` of the sample and of the sifted candidates, or None if too few.

    Sample candidates are sampled by both parties, sifted ones by neither;
    the planes' padding bits are clear.  Too few is ``insufficient_pulses``.
    """
    # inverted in place: freeing a temporary plane here left keygen-3e6's RSS 0.6 MB higher
    smp, sif = labels_a & labels_b, labels_a | labels_b
    np.invert(sif, out=sif)
    sif[-1] &= 0xFF >> (-params.pulse_pairs % 8)
    n_smp, n_sif = _popcount(smp), _popcount(sif)
    if n_smp < params.l_smp or n_sif < params.n:
        return None
    return [(smp, n_smp), (sif, n_sif)]


def insufficient_pulses(params: ProtocolParams, labels_a: np.ndarray, labels_b: np.ndarray) -> bool:
    """Whether fewer than ``l_smp`` pulses are sampled by both parties, or ``n`` by neither."""
    return _candidates(params, labels_a, labels_b) is None


def _outcomes(source, words: np.ndarray, rows: np.ndarray, pulses) -> np.ndarray:
    """Outcome codes of ``words`` at ``rows`` of ``outcome_tables``, or of ``pulses``' own rows."""
    thresholds, buckets = source.outcome_tables or (_thresholds(_pmf_table(source, pulses)), None)
    return outcomes_from_uniforms(thresholds, words, rows=rows, buckets=buckets)


def _pulse_stage(source, seed: int, big_n: int, labels_a, labels_b) -> dict:
    """The read-only basis and outcome planes of run ``seed`` by field name.

    Streams 2-4 are read in lockstep as ``_rounds`` reads them.  A basis bit is a
    party's coin and label bit: a party measures x only on a pulse it labelled.
    """
    stream, planes = np.random.PCG64(seed).advance(2 * big_n), [_plane(big_n) for _ in range(4)]
    for (start, la), (_, lb) in zip(_chunks(labels_a, big_n), _chunks(labels_b, big_n)):
        hop, pulses = big_n - len(la), slice(start, start + len(la))
        xa = (stream.random_raw(len(la)) < _COIN) & la
        xb = (stream.advance(hop).random_raw(len(la)) < _COIN) & lb
        rows = xa * np.uint8(len(BOB_BASES)) + lb + xb
        codes = _outcomes(source, stream.advance(hop).random_raw(len(la)), rows, pulses)
        stream.advance(-2 * big_n % 2**128)  # modulo the period: to stream 2's next chunk
        # codes are (+,+), (+,-), (-,+), (-,-): Alice's -1 is the high bit, Bob's the low one
        for plane, bits in zip(planes, (xa, xb, codes >= 2, codes & 1)):
            _put(plane, start, bits)
    for plane in planes:
        plane.flags.writeable = False
    return dict(zip(_PLANES[2:], planes))


def _rounds(source, seed: int, big_n: int, sel_smp: list, sel_sif: list) -> tuple:
    """``neg``, the sample rounds' negative CHSH signs, and the two read-only n-byte sifted strings.

    One pass reads a chunk of stream 2, hops ``N - size`` words to that chunk of stream 3,
    then of stream 4, and ``2 N`` back to stream 2's next, looking at each only at the
    ``_select`` offsets.  A sample pulse is row ``3 coin_a + 1 + coin_b``, a sifted one row 0.
    """
    stream = np.random.PCG64(seed).advance(2 * big_n)
    neg, keys, done = 0, np.empty((2, sum(map(len, sel_sif))), dtype=np.uint8), 0
    for start, smp, sif in zip(range(0, big_n, _CHUNK), sel_smp, sel_sif):
        size, rows = min(_CHUNK, big_n - start), np.zeros(len(smp) + len(sif), dtype=np.uint8)
        rows[: len(smp)] = 1 + (stream.random_raw(size).take(smp) < _COIN) * np.uint8(3)
        rows[: len(smp)] += stream.advance(big_n - size).random_raw(size).take(smp) < _COIN
        here = np.concatenate([smp, sif])
        words = stream.advance(big_n - size).random_raw(size).take(here)
        stream.advance(-2 * big_n % 2**128)  # modulo the period, as hashing._window hops back
        codes = _outcomes(source, words, rows, np.add(here, start, dtype=np.int64))
        # a round is -1 where r_A r_B is, flipped where both measured x (row 5)
        neg += int(np.count_nonzero((codes >> 1 ^ codes ^ (rows == 5))[: len(smp)] & 1))
        keys[:, done : done + len(sif)] = codes[len(smp) :] >> 1, codes[len(smp) :] & 1
        done += len(sif)
    keys.flags.writeable = False
    return neg, keys


def run_protocol(params: ProtocolParams, strategy, seed: int) -> Transcript:
    """Execute one full protocol run and return its transcript.

    The error-rate estimate ``p_est`` that sizes the syndrome is derived
    from the measured CHSH average by inverting ``S = (1 - 2p)/sqrt(2)`` and
    clipping to [0, 1/2].  Aborts are recorded outcomes, not errors: the
    transcript is filled in stage by stage and every exit returns it with
    its abort code.
    """
    big_n = params.pulse_pairs
    if strategy.rho.shape[:-2] not in ((), (big_n,)):
        raise ValueError(f"custom strategy must supply exactly {big_n} pulses")
    labels_a, labels_b = label_stage(params, seed)
    t = Transcript(1, params, strategy.describe(), int(seed), labels_a, labels_b, source=strategy)
    candidates = _candidates(params, labels_a, labels_b)
    if candidates is None:
        t.abort = ABORT_INSUFFICIENT
        return t

    # the selection reads only the labels and the generator past the five pulse streams
    rng = np.random.Generator(np.random.PCG64(seed).advance(5 * big_n))
    # popped, so that the sample plane is not held beside the sifted draw
    sel_smp = _select(rng, *candidates.pop(0), big_n, params.l_smp)
    sel_sif = _select(rng, *candidates.pop(0), big_n, params.n)
    neg, keys = _rounds(strategy, seed, big_n, sel_smp, sel_sif)
    # the int64 index lists are built last, and i_sif (8 bytes per sifted bit) after the hash
    t.i_smp = _indices(sel_smp)
    t.s_est = (len(t.i_smp) - 2 * neg) / len(t.i_smp)  # estimate_chsh's integers
    if t.s_est < params.s0:
        t.abort = ABORT_CHSH
        t.i_sif = _indices(sel_sif)
        return t

    # Oracle error correction: Bob adopts Alice's string, the syndrome cost
    # is charged; the budget is what the security formulas consume.
    t.sifted_key = t.corrected_key = keys[0]
    t.bob_raw = keys[1]

    t.p_est = float(np.clip((1.0 - SQRT2 * t.s_est) / 2.0, 0.0, 0.5))
    t.syndrome_bits_used = syndrome_budget(params.n, t.p_est, params.f_ec)
    t.syndrome_within_budget = bool(t.syndrome_bits_used <= params.l_syn)

    fcor_len = min(params.n, max(1, math.ceil(math.log2(1.0 / params.eps_cor))))
    t.fcor = ToeplitzHash.sample(params.n, fcor_len, seed=rng.integers(2**63)).to_json()
    t.fcor_match = True  # the corrected key is the sifted key: equal tags

    report = finite_key_length(params)
    t.key_report = {"l": report.l, "reason": report.reason}
    if report.l > 0:
        fpa = ToeplitzHash.sample(params.n, report.l, seed=rng.integers(2**63))
        t.secret_key_a = fpa(t.sifted_key)
        t.fpa = fpa.to_json()
    else:
        t.secret_key_a = np.empty(0, dtype=np.uint8)
    t.secret_key_a.flags.writeable = False
    t.secret_key_b = t.secret_key_a
    t.i_sif = _indices(sel_sif)
    return t


@dataclass
class NoiseGapReport:
    """Monte Carlo comparison of the randomized and projective CHSH tests.

    Per pulse, the projective test outputs the Bell eigenvalue
    (``+-|mu|`` or ``+-|nu|``); the randomized test flips a +-1 coin whose
    bias reproduces that eigenvalue in expectation.  Batches of
    ``batch_size`` pulses give one sample of the gap ``|S_rand - S_proj|``,
    drawn from the batch's outcome and coin counts (``_noise_gap_core``);
    the empirical tail beyond ``deviation`` is compared with the
    Azuma-Hoeffding bound.
    """

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
    """The experiment of ``povm_noise_experiment`` on Bell probabilities and eigenvalues.

    A batch's projective mean depends only on its Bell outcome counts, and
    its randomized mean only on its count of +1 coins, so a trial draws
    counts and no pulse: ``multinomial(batch_size, probs)``, the last
    outcome taking the mass the others leave, and given them the sum of
    ``binomial(counts, (1 + values) / 2)``.  That is the joint law of the
    two means under per-pulse draws, at a cost free of ``batch_size``, and
    the one exception to drawing from raw uniform streams.  The trials go
    in blocks of ``_CHUNK``, each drawing all its Bell counts and then all
    its coin counts, so the block size is part of the output contract.
    """
    thresholds = np.clip((1.0 + values) / 2.0, 0.0, 1.0)
    totals = np.zeros(4)  # tail events, |gap|, S_rand and S_proj, summed over the trials
    for start in range(0, trials, _CHUNK):
        counts = rng.multinomial(batch_size, probs, size=min(_CHUNK, trials - start))
        plus = rng.binomial(counts, thresholds).sum(axis=-1)
        g3 = counts @ values / batch_size
        g2 = (2 * plus - batch_size) / batch_size
        gap = np.abs(g2 - g3)
        totals += np.count_nonzero(gap >= deviation), gap.sum(), g2.sum(), g3.sum()
    tail, abs_gap, s2, s3 = (total / trials for total in totals.tolist())
    return NoiseGapReport(
        empirical_tail=tail,
        bound=azuma_tail(batch_size, deviation),
        mean_abs_gap=abs_gap,
        mean_s_randomized=s2,
        mean_s_projective=s3,
    )


def check_noise_experiment(trials: int, batch_size: int, deviation: float) -> None:
    """Raise ValueError unless ``povm_noise_experiment`` accepts these sizes and deviation."""
    check_count("trials", trials)
    # so that a batch's counts stay exact in float64, and twice its +1 count in int64
    check_count("batch", batch_size)
    if not 0.0 <= deviation < math.inf:
        raise ValueError(f"deviation must be finite and non-negative, got {deviation!r}")


def povm_noise_experiment(
    m: CHSHMeasurement,
    rho: np.ndarray,
    trials: int,
    rng: np.random.Generator,
    batch_size: int = 4800,
    deviation: float = 0.1,
) -> NoiseGapReport:
    """Simulate both CHSH test channels on ``rho`` and bound their disagreement.

    ``rho`` must be a density matrix (``ValueError`` otherwise); the draws
    and the working set are those of ``_noise_gap_core``.
    """
    check_noise_experiment(trials, batch_size, deviation)
    rho = validate_density(np.asarray(rho, dtype=complex))
    basis = m.bell_basis
    probs = np.clip(np.einsum("ij,jk,ki->i", basis.conj().T, rho, basis).real, 0.0, 1.0)
    probs = probs / probs.sum()
    return _noise_gap_core(probs, m.bell_values, trials, batch_size, deviation, rng)


__all__ = [
    "ABORT_CHSH",
    "ABORT_INSUFFICIENT",
    "ALICE_BASES",
    "BOB_BASES",
    "CustomSource",
    "DepolarizingSource",
    "MisalignedSource",
    "NoiseGapReport",
    "Transcript",
    "check_noise_experiment",
    "depolarized_pair_state",
    "estimate_chsh",
    "ideal_pair_state",
    "insufficient_pulses",
    "joint_outcome_pmf",
    "label_stage",
    "outcomes_from_uniforms",
    "povm_noise_experiment",
    "qber",
    "run_protocol",
]
