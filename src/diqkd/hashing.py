"""Toeplitz hashing over GF(2) for correctness checks and privacy amplification.

A hash is the binary Toeplitz matrix ``T[i, j] = d[i - j + in_len - 1]``
applied to the input bit vector, where ``d`` is a uniformly random bit
string of length ``in_len + out_len - 1`` drawn from a 64-bit seed.  The
family is universal_2: any two distinct inputs collide with probability at
most ``2^-out_len`` over the choice of ``d``, and hashing is GF(2)-linear.

Diagonals.  ``d[k]`` is the top bit of byte ``k`` of the PCG64 stream of
``numpy.random.default_rng(seed)``: the first ``ceil(len(d) / 8)`` outputs
of ``bit_generator.random_raw``, each read as eight little-endian bytes.
These are the bits ``default_rng(seed).integers(0, 2, len(d),
dtype=np.uint8)`` returns (a range-2 draw takes one byte per value and
keeps its top bit), read straight from the stream.

Two kernels compute the product; ``apply`` picks one from ``out_len``.

Short outputs, ``out_len <= 64`` (the correctness hash): packed words.
With ``r = d[::-1]``, ``y[out_len - 1 - s] = sum_j r[s + j] x[j] mod 2``
for ``0 <= s < out_len``.  ``x`` and ``r`` are packed little-endian into
zero-padded uint64 words, so bit ``b`` of word ``w`` is entry ``64 w + b``,
and the 64 entries of ``r`` from ``64 w + s`` on form the window
``(r_w >> s) | (r_{w+1} << (64 - s))``.  At ``s = 0`` the window is
``r_w`` alone; a 64-bit shift by 64 is undefined in C, so the high part is
shifted by 1 and then by ``63 - s``, which gives 0 there.  ANDing each
window with ``x``'s word and XOR-ing the products over all words leaves,
for each ``s``, one 64-bit word whose parity is the output bit; XOR-folding
the word onto its lowest bit takes that parity.  Everything is integer
arithmetic, so the result is exact.  The words are streamed in groups of
``_GROUP_WORDS``, so one apply holds ``O(out_len * _GROUP_WORDS)`` words
beyond the packed operands and one reversed copy of the diagonals, however
long its input is.

Long outputs (privacy amplification): blocked FFT.  The product
``y[i] = sum_j d[i - j + in_len - 1] x[j] mod 2`` is computed
as an integer convolution with FFTs of bounded size, blocked along the
input (overlap-add; compare Hayashi and Tsurumaru, IEEE TIT 2016).  The
FFT size ``L`` is the next power of two at or above
``out_len + min(in_len, max(out_len, 4096)) - 1`` and the block length is
``B = L - out_len + 1``, so both follow from the input sizes alone.  The
input is cut into ``ceil(in_len / B)`` blocks of ``B`` bits (the last one
zero-padded); block ``b`` meets the length-``L`` window of the diagonals
(zero-padded on the left) that starts ``B (blocks - 1 - b)`` entries in.
The blocks are taken one at a time, last block first: the ``rfft`` of the
window times the ``rfft`` of the block is added into one running spectrum
of ``L/2 + 1`` points.  One ``irfft`` of size ``L`` then gives the
circular convolution summed over all blocks.  An apply therefore holds
``O(L)`` floats plus the bit arrays, however many blocks the input has.

Exactness.  A window of length ``L`` convolved with a block of length ``B``
has linear length ``L + B - 1``; wrapping it into ``L`` points folds only
the indices ``>= L`` back onto ``[0, B - 1)``, so the output window
``[B - 1, L)``, which holds the ``out_len`` wanted entries, is free of
aliasing.  Summing the spectra over blocks is summing these convolutions,
so every entry there is a count of at most ``in_len < 2^53`` ones: an
integer that the FFT reproduces to within its rounding error.  That error is
checked against 1/4 on the final ``irfft``, before rounding, so a rounding
failure raises instead of yielding a wrong hash.

Bit strings are numpy uint8 arrays of 0/1; the serialized byte form packs
bits little-endian within each byte.  Hash objects are frozen, with
read-only diagonals, and hashing is pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


# Words per group of the packed kernel; bounds the memory of one apply.
_GROUP_WORDS = 1 << 12


def _blocking(in_len: int, out_len: int) -> tuple[int, int]:
    """Block length ``B`` and FFT size ``L = out_len + B - 1`` (a power of two)."""
    size = 1 << (out_len + min(in_len, max(out_len, 4096)) - 2).bit_length()
    return size - out_len + 1, size


def _gf2_toeplitz_apply(diagonals: np.ndarray, x: np.ndarray, out_len: int) -> np.ndarray:
    """Toeplitz matrix-vector product over GF(2) by blocked FFT convolution.

    See the module docstring for the blocking and the exactness argument.
    """
    n = len(x)
    block, size = _blocking(n, out_len)
    blocks = -(-n // block)
    padded_d = np.concatenate([np.zeros(blocks * block - n, dtype=np.uint8), diagonals])
    total = np.zeros(size // 2 + 1, dtype=complex)
    for w in range(blocks):
        # window w meets input block blocks - 1 - w; rfft zero-pads each block to size
        start = (blocks - 1 - w) * block
        spectrum = np.fft.rfft(padded_d[w * block : w * block + size], size)
        spectrum *= np.fft.rfft(x[start : start + block], size)
        total += spectrum
    conv = np.fft.irfft(total, size)[block - 1 :]
    counts = np.rint(conv)
    error = float(abs(conv - counts).max())
    if not error < 0.25:
        raise ArithmeticError(f"FFT rounding error {error:.3g} too large for an exact hash")
    return np.fmod(counts, 2).astype(np.uint8)


def _words(bits: np.ndarray, n_words: int) -> np.ndarray:
    """``bits`` packed little-endian into ``n_words`` zero-padded uint64 words."""
    buf = np.zeros(8 * n_words, dtype=np.uint8)
    packed = np.packbits(bits, bitorder="little")
    buf[: len(packed)] = packed
    return buf.view("<u8").astype(np.uint64, copy=False)


def _gf2_toeplitz_apply_packed(diagonals: np.ndarray, x: np.ndarray, out_len: int) -> np.ndarray:
    """Toeplitz matrix-vector product over GF(2) for ``out_len <= 64``, on packed words.

    See the module docstring for the windows and the grouping.
    """
    n_words = -(-len(x) // 64)
    x_words = _words(x, n_words)
    # packbits is several times slower on a reversed view than on a copy
    r_words = _words(diagonals[::-1].copy(), n_words + 1)
    s = np.arange(out_len, dtype=np.uint64)[:, None]
    rest = np.uint64(63) - s
    acc = np.zeros(out_len, dtype=np.uint64)
    for start in range(0, n_words, _GROUP_WORDS):
        stop = min(start + _GROUP_WORDS, n_words)
        windows = r_words[start:stop] >> s
        windows |= (r_words[start + 1 : stop + 1] << np.uint64(1)) << rest
        windows &= x_words[start:stop]
        acc ^= np.bitwise_xor.reduce(windows, axis=1)
    for shift in (32, 16, 8, 4, 2, 1):
        acc ^= acc >> np.uint64(shift)
    return (acc[::-1] & np.uint64(1)).astype(np.uint8)


@dataclass(frozen=True)
class ToeplitzHash:
    """One member of the Toeplitz universal_2 family, reproducible from its seed."""

    in_len: int
    out_len: int
    diagonals: np.ndarray
    seed: int

    def __post_init__(self):
        diagonals = np.asarray(self.diagonals, dtype=np.uint8).view()
        if diagonals.shape != (self.in_len + self.out_len - 1,):
            raise ValueError(f"need in_len + out_len - 1 diagonals, got {diagonals.shape}")
        diagonals.flags.writeable = False
        object.__setattr__(self, "diagonals", diagonals)

    @classmethod
    def sample(cls, in_len: int, out_len: int, seed: int) -> "ToeplitzHash":
        """Draw the diagonals uniformly from a 64-bit seed; deterministic in seed.

        ``diagonals[k]`` is the top bit of byte ``k`` of the PCG64 stream of
        ``np.random.default_rng(seed)``, its 64-bit outputs read as
        little-endian bytes: the bits that ``default_rng(seed).integers(0,
        2, size, dtype=np.uint8)`` returns.
        """
        if out_len <= 0 or out_len > in_len:
            raise ValueError("need 0 < out_len <= in_len")
        seed = int(seed)
        size = in_len + out_len - 1
        raw = np.random.default_rng(seed).bit_generator.random_raw(-(-size // 8))
        stream = raw.astype("<u8", copy=False).view(np.uint8)
        stream >>= 7
        return cls(in_len=in_len, out_len=out_len, diagonals=stream[:size], seed=seed)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Hash a bit vector of length ``in_len`` down to ``out_len`` bits.

        Outputs of at most 64 bits run on packed words, longer ones as
        blocked FFTs; both give the same bits.
        """
        x = np.asarray(x)
        if x.shape != (self.in_len,):
            raise ValueError(f"input must have length {self.in_len}, got {x.shape}")
        bits = x.astype(np.uint8, copy=False)
        # a cast from a wider type can wrap a value to a bit (256 -> 0)
        if bits.max() > 1 or (bits is not x and not np.array_equal(bits, x)):
            raise ValueError("input must hold only the bits 0 and 1")
        if self.out_len <= 64:
            return _gf2_toeplitz_apply_packed(self.diagonals, bits, self.out_len)
        return _gf2_toeplitz_apply(self.diagonals, bits, self.out_len)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.apply(x)

    def to_json(self) -> dict:
        """Serializable description; the diagonals regrow from the seed."""
        return {"seed": self.seed, "in_len": self.in_len, "out_len": self.out_len}


def pack_bits(bits: np.ndarray) -> bytes:
    """Pack a 0/1 vector into bytes, little-endian bit order within each byte."""
    return np.packbits(np.asarray(bits, dtype=np.uint8), bitorder="little").tobytes()


__all__ = ["ToeplitzHash", "pack_bits"]
