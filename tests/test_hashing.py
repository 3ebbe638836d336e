import dataclasses
import tracemalloc

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from diqkd.hashing import (
    _GROUP_WORDS,
    ToeplitzHash,
    _blocking,
    _gf2_toeplitz_apply,
    _gf2_toeplitz_apply_packed,
    pack_bits,
)
from helpers import reference_diagonals, toeplitz_from_json, unpack_bits


def toeplitz_matrix(h: ToeplitzHash) -> np.ndarray:
    """Dense reference T[i, j] = d[i - j + in_len - 1], as a read-only view.

    Row ``i`` is ``d[i + in_len - 1], ..., d[i]``: window ``out_len - 1 - i``
    of the reversed diagonals.
    """
    return sliding_window_view(h.diagonals[::-1], h.in_len)[::-1]


def block_len(out_len: int) -> int:
    """Block length the FFT kernel uses for inputs longer than one block."""
    return _blocking(1 << 40, out_len)[0]


def straddling(block: int) -> tuple[int, ...]:
    return (1, block - 1, block, block + 1, 3 * block + 7)


# Input lengths on both sides of the FFT block boundaries, and a square hash
# of each of those lengths (always one block).  Outputs of 65 and 5000 bits
# run the FFT kernel, the second with a block longer than 4096 bits; outputs
# of 1 and 30 bits run the packed kernel at the same lengths.
EDGE_SHAPES = sorted(
    {(n, out) for out in (1, 30, 65, 5000) for n in straddling(block_len(out)) if n >= out}
    | {(n, n) for n in straddling(block_len(1))}
)


def group_len(out_len: int) -> int:
    """Input bits in ``2^20 // L`` FFT blocks, about 2^20 FFT points."""
    block, size = _blocking(1 << 40, out_len)
    return (1 << 20) // size * block


# Inputs of 128 to 256 FFT blocks (about 2^20 FFT points), a bit either side
# of a block boundary, and twice that plus 7 bits: the FFT kernel at 65
# output bits, the packed one at 1 and 30.
GROUP_SHAPES = [
    (n, out)
    for out in (1, 30, 65)
    for n in (group_len(out) - 1, group_len(out), group_len(out) + 1, 2 * group_len(out) + 7)
]


def around(length: int) -> tuple[int, ...]:
    return (length - 1, length, length + 1)


# Packed kernel: input lengths on both sides of word boundaries and of its
# group boundaries (the last one needing a third, partial group), at outputs
# of 1 to 64 bits, and every square hash up to 64 bits.
PACKED_GROUP_BITS = 64 * _GROUP_WORDS
PACKED_SHAPES = sorted(
    {
        (n, out)
        for out in (1, 2, 30, 63, 64)
        for n in around(64) + around(128) + around(320)
        if n >= out
    }
    | {(n, 64) for n in around(PACKED_GROUP_BITS) + (2 * PACKED_GROUP_BITS + 7,)}
    | {(n, n) for n in range(1, 65)}
)


def test_deterministic_given_seed():
    a = ToeplitzHash.sample(8, 3, seed=12345)
    b = ToeplitzHash.sample(8, 3, seed=12345)
    assert np.array_equal(a.diagonals, b.diagonals)
    c = ToeplitzHash.sample(8, 3, seed=54321)
    assert not np.array_equal(a.diagonals, c.diagonals)


def test_diagonal_length():
    h = ToeplitzHash.sample(100, 40, seed=0)
    assert len(h.diagonals) == 139


def test_square_hash_allowed():
    h = ToeplitzHash.sample(16, 16, seed=1)
    y = h(np.ones(16, dtype=np.uint8))
    assert y.shape == (16,)


def test_rejects_bad_lengths():
    with pytest.raises(ValueError):
        ToeplitzHash.sample(8, 0, seed=0)
    with pytest.raises(ValueError):
        ToeplitzHash.sample(8, 9, seed=0)


def test_rejects_wrong_input_length():
    h = ToeplitzHash.sample(8, 3, seed=0)
    with pytest.raises(ValueError):
        h(np.zeros(7, dtype=np.uint8))


@pytest.mark.parametrize("in_len, out_len", [(64, 16), (200, 65)])
@pytest.mark.parametrize("bad", [np.uint8(2), np.int64(256)])
def test_rejects_non_bit_input(in_len, out_len, bad):
    # one shape per kernel; 256 would wrap to 0 in a cast to uint8
    h = ToeplitzHash.sample(in_len, out_len, seed=2)
    x = np.zeros(in_len, dtype=np.asarray(bad).dtype)
    x[3] = bad
    with pytest.raises(ValueError):
        h(x)


def test_hash_is_immutable():
    h = ToeplitzHash.sample(64, 16, seed=2)
    with pytest.raises(ValueError):
        h.diagonals[:] ^= 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        h.out_len = 8
    built = ToeplitzHash(in_len=64, out_len=16, diagonals=h.diagonals.copy(), seed=2)
    with pytest.raises(ValueError):
        built.diagonals[0] = 1


@pytest.mark.parametrize("seed", [0, 1, 2**63 - 1, 12345678901234])
def test_diagonals_are_the_integers_draw(seed):
    for size in [*range(1, 70), 46_579, 3_000_029, 3_124_287]:
        diagonals = ToeplitzHash.sample(size, 1, seed).diagonals
        assert diagonals.dtype == np.uint8
        assert np.array_equal(diagonals, reference_diagonals(size, seed))


def test_zero_maps_to_zero():
    h = ToeplitzHash.sample(64, 16, seed=2)
    assert np.array_equal(h(np.zeros(64, dtype=np.uint8)), np.zeros(16, dtype=np.uint8))


def test_dense_reference_matches_definition():
    h = ToeplitzHash.sample(9, 4, seed=7)
    t = toeplitz_matrix(h)
    for i in range(4):
        for j in range(9):
            assert t[i, j] == h.diagonals[i - j + 8]


def assert_matches_dense_reference(in_len: int, out_len: int, seeds: int = 20) -> None:
    rng = np.random.default_rng(3)
    for seed in range(seeds):
        h = ToeplitzHash.sample(in_len, out_len, seed=seed)
        t = toeplitz_matrix(h)
        x = rng.integers(0, 2, in_len, dtype=np.uint8)
        # uint8 sums wrap modulo 256, which keeps their parity
        assert np.array_equal(h(x), (t @ x) % 2)


def test_matches_dense_reference():
    assert_matches_dense_reference(37, 11)


@pytest.mark.parametrize("in_len, out_len", EDGE_SHAPES)
def test_matches_dense_reference_at_block_edges(in_len, out_len):
    assert_matches_dense_reference(in_len, out_len)


@pytest.mark.parametrize("in_len, out_len", GROUP_SHAPES)
def test_matches_dense_reference_at_group_edges(in_len, out_len):
    # inputs of a million bits and more: fewer seeds keep the dense products quick
    assert_matches_dense_reference(in_len, out_len, seeds=3)


@pytest.mark.parametrize("in_len, out_len", PACKED_SHAPES)
def test_packed_kernel_matches_dense_reference_and_fft_kernel(in_len, out_len):
    seeds = 20 if in_len < PACKED_GROUP_BITS else 3
    assert_matches_dense_reference(in_len, out_len, seeds)
    rng = np.random.default_rng(in_len)
    for seed in range(seeds):
        h = ToeplitzHash.sample(in_len, out_len, seed=seed)
        x = rng.integers(0, 2, in_len, dtype=np.uint8)
        packed = _gf2_toeplitz_apply_packed(h.diagonals, x, out_len)
        assert np.array_equal(packed, _gf2_toeplitz_apply(h.diagonals, x, out_len))


def test_packed_window_at_offset_zero():
    # A one-bit output reads only the window at offset s = 0, which must take
    # no bit from the next word.  Here y[0] = r[0] x[0] = d[64] = 0, while the
    # next word holds r[64] = d[0] = 1, so a window of r_0 | r_1 would give 1.
    diagonals = np.zeros(65, dtype=np.uint8)
    diagonals[0] = 1
    h = ToeplitzHash(in_len=65, out_len=1, diagonals=diagonals, seed=0)
    x = np.zeros(65, dtype=np.uint8)
    x[0] = 1
    assert np.array_equal(h(x), toeplitz_matrix(h) @ x % 2)
    assert np.array_equal(h(x), [0])


def test_packed_apply_memory_is_bounded_by_the_group():
    # the keygen-3e6 correctness hash shape; windowing all 46,875 words at
    # once peaked at 24 MB, and groups of 4096 words measure 4.1 MB
    in_len, out_len = 3_000_000, 30
    h = ToeplitzHash.sample(in_len, out_len, seed=8)
    x = np.random.default_rng(8).integers(0, 2, in_len, dtype=np.uint8)
    tracemalloc.start()
    try:
        h(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_apply_memory_is_bounded_by_one_block():
    # the keygen-3e6 privacy amplification shape; transforming all 22 blocks
    # at once peaked at 123 MB, groups of 4 blocks at 34 MB, and one block
    # at a time measures 12 MB
    in_len, out_len = 3_000_000, 124_288
    h = ToeplitzHash.sample(in_len, out_len, seed=8)
    x = np.random.default_rng(8).integers(0, 2, in_len, dtype=np.uint8)
    tracemalloc.start()
    try:
        h(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6


def test_rounding_failure_raises(monkeypatch):
    irfft = np.fft.irfft
    monkeypatch.setattr(np.fft, "irfft", lambda *a, **k: irfft(*a, **k) + 0.5)
    h = ToeplitzHash.sample(200, 65, seed=2)
    with pytest.raises(ArithmeticError):
        h(np.ones(200, dtype=np.uint8))


def test_rounding_error_below_guard_is_exact(monkeypatch):
    x = np.random.default_rng(6).integers(0, 2, 200, dtype=np.uint8)
    h = ToeplitzHash.sample(200, 65, seed=2)
    expected = h(x)
    irfft = np.fft.irfft
    monkeypatch.setattr(np.fft, "irfft", lambda *a, **k: irfft(*a, **k) + 0.2)
    assert np.array_equal(h(x), expected)


def test_linearity_exact_bulk():
    rng = np.random.default_rng(4)
    h = ToeplitzHash.sample(128, 32, seed=5)
    for _ in range(1000):
        x = rng.integers(0, 2, 128, dtype=np.uint8)
        y = rng.integers(0, 2, 128, dtype=np.uint8)
        assert np.array_equal(h(x ^ y), h(x) ^ h(y))


def test_linearity_large_input():
    rng = np.random.default_rng(5)
    h = ToeplitzHash.sample(50_000, 20_000, seed=6)
    x = rng.integers(0, 2, 50_000, dtype=np.uint8)
    y = rng.integers(0, 2, 50_000, dtype=np.uint8)
    assert np.array_equal(h(x ^ y), h(x) ^ h(y))


def collision_rate(in_len: int, out_len: int, diff: np.ndarray, samples: int, seed: int) -> float:
    """Fraction of sampled hashes with h(x) = h(x') for fixed x ^ x' = diff.

    By linearity a collision happens iff the hash of the difference vanishes,
    so the rate is estimated by hashing ``diff`` under ``samples`` members.
    """
    collisions = 0
    for s in range(samples):
        h = ToeplitzHash.sample(in_len, out_len, seed=seed + s)
        collisions += not h(diff).any()
    return collisions / samples


@pytest.mark.parametrize("out_len", [4, 8, 12])
def test_universal2_collision_bound(out_len):
    rng = np.random.default_rng(out_len)
    in_len = 32
    diff = rng.integers(0, 2, in_len, dtype=np.uint8)
    if not diff.any():
        diff[0] = 1
    samples = 30_000
    rate = collision_rate(in_len, out_len, diff, samples, seed=1000 * out_len)
    p = 2.0**-out_len
    sigma = np.sqrt(p * (1 - p) / samples)
    assert rate <= p + 3 * sigma


def test_single_bit_difference_collision_bound():
    diff = np.zeros(32, dtype=np.uint8)
    diff[17] = 1
    rate = collision_rate(32, 8, diff, 20_000, seed=77)
    p = 2.0**-8
    sigma = np.sqrt(p * (1 - p) / 20_000)
    assert rate <= p + 3 * sigma


def test_serialization_roundtrip():
    h = ToeplitzHash.sample(40, 10, seed=99)
    h2 = toeplitz_from_json(h.to_json())
    assert np.array_equal(h.diagonals, h2.diagonals)
    assert h.to_json() == {"seed": 99, "in_len": 40, "out_len": 10}


def test_pack_unpack_little_endian():
    bits = np.array([1, 0, 0, 0, 0, 0, 0, 0, 1], dtype=np.uint8)
    data = pack_bits(bits)
    assert data[0] == 1  # least significant bit first within the byte
    assert np.array_equal(unpack_bits(data, 9), bits)
    with pytest.raises(ValueError):
        unpack_bits(data, 99)
