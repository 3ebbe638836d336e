"""Toeplitz hashing over GF(2) for correctness checks and privacy amplification.

A hash is the binary Toeplitz matrix ``T[i, j] = d[i - j + in_len - 1]``
applied to the input bit vector, where ``d`` is a uniformly random bit
string of length ``in_len + out_len - 1`` drawn from a 64-bit seed.  The
family is universal_2: any two distinct inputs collide with probability at
most ``2^-out_len`` over the choice of ``d``, and hashing is GF(2)-linear.

Diagonals.  ``d[k]`` is the top bit of byte ``k`` of the PCG64 stream of
``numpy.random.default_rng(seed)``: the outputs of ``random_raw``, each
read as eight little-endian bytes.  These are the bits
``default_rng(seed).integers(0, 2, len(d), dtype=np.uint8)`` returns (a
range-2 draw takes one byte per value and keeps its top bit), read straight
from the stream.  A hash holds only its seed and lengths: ``window`` draws
any stretch of ``d`` from ``PCG64(seed)`` advanced to its first word, and
an apply reads every window from one such generator: no string is held.

One kernel, a tiled, blocked FFT, serves every output length: the
correctness hash and privacy amplification alike.  The product
``y[i] = sum_j d[i - j + in_len - 1] x[j] mod 2`` is computed as integer
convolutions with FFTs of bounded size (overlap-add; compare Hayashi and
Tsurumaru, IEEE TIT 2016).  ``_plan`` fixes three sizes from the input
sizes alone.  The output is cut into tiles of ``t = min(out_len,
_MAX_TILE)`` bits (the last one may be shorter).  The input is cut into
``k = ceil(in_len / (3 max(t, 4096) + 1))`` balanced blocks of
``B = ceil(in_len / k)`` bits, which align with the end of ``x``, so the
first block is the short one and is zero-padded on the left; a shorter
input is one block.  The FFT size ``L`` is the smallest even 5-smooth
integer (``2^a 3^b 5^c``) at or above ``t + B - 1``.  Output tile
``[i0, i0 + t)`` meets input block ``[j0, j0 + B)`` through the window
``w`` of ``t + B - 1`` diagonals that starts at ``d[i0 - j0 + in_len - B]``,
since ``y[i0 + a]`` gains ``sum_b w[a + B - 1 - b] x[j0 + b]``: entry
``a + B - 1`` of the linear convolution of ``w`` with the block.  Windows
that run past the end of ``d`` are cut short; the entries they lose meet
only output bits beyond ``out_len`` or the zero padding of the first
block.  The loop runs over tiles, and within a tile over blocks: the
``rfft`` of each window times the ``rfft`` of its block is added into one
running spectrum of ``L/2 + 1`` points, and one ``irfft`` of size ``L`` per
tile gives the convolution summed over all blocks.  The blocks' spectra are
recomputed for each tile.  An apply therefore holds ``O(L)`` floats, about
``32 L`` bytes, plus a window and the bits, and since ``t <= _MAX_TILE`` and
``B <= 3 max(t, 4096) + 1``, ``L`` stays near ``4 _MAX_TILE`` (2^24 points,
about 0.5 GB) however long the input and output are.

Exactness.  For any even ``L >= t + B - 1``, a window of ``t + B - 1``
entries convolved with a block of ``B`` has linear length ``t + 2B - 2``;
wrapping it into ``L`` points folds only the indices ``>= L`` back onto
``[0, B - 1)``, so the tile's entries ``[B - 1, B - 1 + t)`` are free of
aliasing.  Summing the spectra over blocks is summing these convolutions,
so every entry there is a count of at most ``in_len < 2^53`` ones: an
integer that the FFT reproduces to within its rounding error.  Before
rounding, every entry of each tile of its ``irfft`` must lie within 1/4 of
an integer.  That guards the observed error; it is not a proof, since an
error of 0.8 lands 0.2 from the wrong integer and passes.  An a-priori
error bound is ROADMAP item 4.

Bit strings are numpy uint8 arrays of 0/1; the serialized byte form packs
bits little-endian within each byte.  Hash objects are frozen records of
three ints, windows are read-only, and hashing is pure.
"""

from __future__ import annotations

import operator
from dataclasses import asdict, dataclass
from functools import partial

import numpy as np


# Longest output tile of the FFT kernel; bounds its FFT size and memory.
_MAX_TILE = 1 << 22


def _smooth_size(n: int) -> int:
    """Smallest even 5-smooth integer ``2^a 3^b 5^c >= n`` (``a >= 1``)."""
    odd = [1]
    for prime in (3, 5):
        odd = [p * prime**e for p in odd for e in range(n.bit_length()) if p * prime**e <= n]
    return min(p * max(2, 1 << (-(-n // p) - 1).bit_length()) for p in odd)


def _plan(in_len: int, out_len: int) -> tuple[int, int, int]:
    """Tile length ``t``, block length ``B`` and FFT size ``L`` of the FFT kernel."""
    tile = min(out_len, _MAX_TILE)
    # blocks of at least 3 * 4096 bits spare short outputs thousands of tiny FFTs
    blocks = -(-in_len // (3 * max(tile, 4096) + 1))
    block = -(-in_len // blocks)
    return tile, block, _smooth_size(tile + block - 1)


def _gf2_toeplitz_apply(window, x: np.ndarray, out_len: int) -> np.ndarray:
    """Toeplitz matrix-vector product over GF(2) by tiled, blocked FFT convolution.

    ``window(start, stop)`` gives the diagonals ``[start, stop)`` cut at the end
    of ``d``; the module docstring has the plan and the exactness argument.
    """
    n = len(x)
    tile, block, size = _plan(n, out_len)
    width = tile + block - 1
    y = np.empty(out_len, dtype=np.uint8)
    for first in range(0, out_len, tile):
        total = np.zeros(size // 2 + 1, dtype=complex)
        # blocks end at n, n - B, ...; the first block of x is the short one
        for end in range(n, 0, -block):
            start = n - end + first
            spectrum = np.fft.rfft(window(start, start + width), size)
            bits = x[max(end - block, 0) : end]
            if len(bits) < block:
                bits = np.concatenate([np.zeros(block - len(bits), dtype=np.uint8), bits])
            spectrum *= np.fft.rfft(bits, size)
            total += spectrum
        conv = np.fft.irfft(total, size)[block - 1 : block - 1 + min(tile, out_len - first)]
        counts = np.rint(conv)
        error = float(abs(conv - counts).max())
        if not error < 0.25:
            raise ArithmeticError(
                f"FFT rounding error {error:.3g} in output tile {first // tile} "
                f"(bits {first} to {first + len(conv) - 1}) at FFT size L = {size}: "
                "too large for an exact hash"
            )
        y[first : first + len(conv)] = np.fmod(counts, 2)
        # conv views this tile's whole irfft; free it before the next tile's sums
        del conv, counts
    return y


@dataclass(frozen=True, kw_only=True)
class ToeplitzHash:
    """One member of the Toeplitz universal_2 family, held as its seed and lengths."""

    seed: int
    in_len: int
    out_len: int

    def __post_init__(self):
        # a record read back through ToeplitzHash(**record) is outside input
        for name in ("seed", "in_len", "out_len"):
            value = getattr(self, name)
            if isinstance(value, (bool, np.bool_)):
                raise ValueError(f"{name} must be an integer, not the bool {value!r}")
            object.__setattr__(self, name, operator.index(value))
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be a 64-bit seed in [0, 2^64), got {self.seed}")
        if not 0 < self.out_len <= self.in_len:
            raise ValueError("need 0 < out_len <= in_len")

    @classmethod
    def sample(cls, in_len: int, out_len: int, seed: int) -> "ToeplitzHash":
        """The member of 64-bit seed ``seed``; deterministic in seed, and draws nothing."""
        return cls(seed=seed, in_len=in_len, out_len=out_len)

    def window(self, start: int, stop: int) -> np.ndarray:
        """Read-only diagonals ``[start, min(stop, in_len + out_len - 1))``, drawn from the seed."""
        return self._window(np.random.PCG64(self.seed), start, stop)

    def _window(self, bitgen: np.random.PCG64, start: int, stop: int) -> np.ndarray:
        """``window`` drawn from ``bitgen`` at word 0 of the seed's stream, and moved back there."""
        stop = min(stop, self.in_len + self.out_len - 1)
        first, last = start // 8, -(-stop // 8)
        raw = bitgen.advance(first).random_raw(last - first)
        bitgen.advance(-last % 2**128)  # an advance is modulo the period: back by last words
        stream = raw.astype("<u8", copy=False).view(np.uint8)
        stream >>= 7
        bits = stream[start - 8 * first : stop - 8 * first]
        bits.flags.writeable = False
        return bits

    @property
    def diagonals(self) -> np.ndarray:
        """The whole read-only string of ``in_len + out_len - 1`` diagonals, regrown."""
        return self.window(0, self.in_len + self.out_len - 1)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Hash a bit vector of length ``in_len`` down to ``out_len`` bits by the one FFT kernel."""
        x = np.asarray(x)
        if x.shape != (self.in_len,):
            raise ValueError(f"input must have length {self.in_len}, got {x.shape}")
        bits = x.astype(np.uint8, copy=False)
        # a cast from a wider type can wrap a value to a bit (256 -> 0)
        if bits.max() > 1 or (bits is not x and not np.array_equal(bits, x)):
            raise ValueError("input must hold only the bits 0 and 1")
        window = partial(self._window, np.random.PCG64(self.seed))
        return _gf2_toeplitz_apply(window, bits, self.out_len)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.apply(x)

    def to_json(self) -> dict:
        """The record ``{seed, in_len, out_len}``; ``ToeplitzHash(**record)`` regrows the hash."""
        return asdict(self)


__all__ = ["ToeplitzHash"]
