"""Toeplitz hashing over GF(2) for correctness checks and privacy amplification.

A hash is the binary Toeplitz matrix ``T[i, j] = d[i - j + in_len - 1]``
applied to the input bit vector, where ``d`` is a uniformly random bit
string of length ``in_len + out_len - 1`` drawn from a 64-bit seed.  The
family is universal_2: any two distinct inputs collide with probability at
most ``2^-out_len`` over the choice of ``d``, and hashing is GF(2)-linear.

The product ``y[i] = sum_j d[i - j + in_len - 1] x[j] mod 2`` is computed
as an integer convolution with FFTs of bounded size, blocked along the
input (overlap-add; compare Hayashi and Tsurumaru, IEEE TIT 2016).  The
FFT size ``L`` is the next power of two at or above
``out_len + min(in_len, max(out_len, 4096)) - 1`` and the block length is
``B = L - out_len + 1``, so both follow from the input sizes alone.  The
input is cut into ``ceil(in_len / B)`` blocks of ``B`` bits (the last one
zero-padded); block ``b`` meets the length-``L`` window of the diagonals
(zero-padded on the left) that starts ``B (blocks - 1 - b)`` entries in.
The blocks are streamed in groups of ``max(1, 2^20 // L)``: each group gets
one batched ``rfft`` per operand, and the products are added into one
running spectrum of ``L/2 + 1`` points, one block after another.  One
``irfft`` of size ``L`` then gives the circular convolution summed over
all blocks.  An apply therefore holds ``O(max(2^20, L))`` floats plus the
bit arrays, however many blocks the input has.

Exactness.  A window of length ``L`` convolved with a block of length ``B``
has linear length ``L + B - 1``; wrapping it into ``L`` points folds only
the indices ``>= L`` back onto ``[0, B - 1)``, so the output window
``[B - 1, L)``, which holds the ``out_len`` wanted entries, is free of
aliasing.  Summing the spectra over blocks is summing these convolutions,
and grouping only decides which products are formed together, so every
entry there is still a count of at most ``in_len < 2^53`` ones: an integer
that the FFT reproduces to within its rounding error.  That error is
checked against 1/4 on the final ``irfft``, before rounding, so a rounding
failure raises instead of yielding a wrong hash.

Bit strings are numpy uint8 arrays of 0/1; the serialized byte form packs
bits little-endian within each byte.  Hash objects are immutable after
sampling and hashing is pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


# FFT points per operand transformed together; bounds the memory of one apply.
_GROUP_POINTS = 1 << 20


def _blocking(in_len: int, out_len: int) -> tuple[int, int]:
    """Block length ``B`` and FFT size ``L = out_len + B - 1`` (a power of two)."""
    size = 1 << (out_len + min(in_len, max(out_len, 4096)) - 2).bit_length()
    return size - out_len + 1, size


def _gf2_toeplitz_apply(diagonals: np.ndarray, x: np.ndarray, out_len: int) -> np.ndarray:
    """Toeplitz matrix-vector product over GF(2) by blocked FFT convolution.

    See the module docstring for the blocking, the grouping and the
    exactness argument.
    """
    n = len(x)
    block, size = _blocking(n, out_len)
    blocks = -(-n // block)
    pad = blocks * block - n
    padded_d = np.concatenate([np.zeros(pad, dtype=np.uint8), diagonals])
    # Row w is padded_d[w * block : w * block + size], a view; the last row ends
    # at the array's end (numpy checks that the rows fit in the buffer).
    windows = np.ndarray((blocks, size), np.uint8, padded_d, strides=(block, 1))
    padded_x = np.zeros(blocks * block, dtype=np.uint8)
    padded_x[:n] = x
    x_blocks = padded_x.reshape(blocks, block)[::-1]
    group = max(1, _GROUP_POINTS // size)
    total = 0.0
    for start in range(0, blocks, group):
        rows = slice(start, start + group)
        spectra = np.fft.rfft(windows[rows], size)
        spectra *= np.fft.rfft(x_blocks[rows], size)
        # carry the running sum into the first row, so blocks add in order
        spectra[0] += total
        total = spectra.sum(axis=0)
    conv = np.fft.irfft(total, size)[block - 1 :]
    counts = np.rint(conv)
    error = float(abs(conv - counts).max())
    if not error < 0.25:
        raise ArithmeticError(f"FFT rounding error {error:.3g} too large for an exact hash")
    return np.fmod(counts, 2).astype(np.uint8)


@dataclass
class ToeplitzHash:
    """One member of the Toeplitz universal_2 family, reproducible from its seed."""

    in_len: int
    out_len: int
    diagonals: np.ndarray
    seed: int

    @classmethod
    def sample(cls, in_len: int, out_len: int, seed: int) -> "ToeplitzHash":
        """Draw the diagonals uniformly from a 64-bit seed; deterministic in seed."""
        if out_len <= 0 or out_len > in_len:
            raise ValueError("need 0 < out_len <= in_len")
        seed = int(seed)
        rng = np.random.default_rng(seed)
        diagonals = rng.integers(0, 2, size=in_len + out_len - 1, dtype=np.uint8)
        return cls(in_len=in_len, out_len=out_len, diagonals=diagonals, seed=seed)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Hash a bit vector of length ``in_len`` down to ``out_len`` bits."""
        x = np.asarray(x, dtype=np.uint8)
        if x.shape != (self.in_len,):
            raise ValueError(f"input must have length {self.in_len}, got {x.shape}")
        return _gf2_toeplitz_apply(self.diagonals, x, self.out_len)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.apply(x)

    def to_json(self) -> dict:
        """Serializable description; the diagonals regrow from the seed."""
        return {"seed": self.seed, "in_len": self.in_len, "out_len": self.out_len}


def pack_bits(bits: np.ndarray) -> bytes:
    """Pack a 0/1 vector into bytes, little-endian bit order within each byte."""
    return np.packbits(np.asarray(bits, dtype=np.uint8), bitorder="little").tobytes()


__all__ = ["ToeplitzHash", "pack_bits"]
