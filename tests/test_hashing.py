import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from diqkd import hashing
from diqkd.hashing import ToeplitzHash, _gf2_toeplitz_apply, _plan, _smooth_size
from helpers import count_bit_generators, pack_bits, unpack_bits
from spec import diagonals, toeplitz_product


def around(length: int) -> tuple[int, ...]:
    return (length - 1, length, length + 1)


def block_len(out_len: int) -> int:
    """Longest block of the FFT plan: the block length for a very long input."""
    return _plan(1 << 60, out_len)[1]


def straddling(block: int) -> tuple[int, ...]:
    return (1, block - 1, block, block + 1, 3 * block + 7)


# Shapes at the block edges of the former power-of-two plan (FFT size the
# power of two at or above out_len + max(out_len, 4096) - 1), with a square
# hash of each length around 4096: fixed regression cases.
FORMER_EDGE_SHAPES = {
    (1, 1), (4095, 1), (4095, 4095), (4096, 1), (4096, 4096), (4097, 1),
    (4097, 4097), (8127, 65), (8128, 65), (8129, 65), (8162, 30), (8163, 30),
    (8164, 30), (11384, 5000), (11385, 5000), (11386, 5000), (12295, 1),
    (12295, 12295), (24391, 65), (24496, 30), (34162, 5000),
}

# Input lengths on both sides of the first FFT block boundary, and past three
# balanced blocks with a short first one.  Outputs of 1, 30 and 65 bits run
# with blocks of at most 3 * 4096 + 1 bits, 5000 bits with blocks of at most
# 3 * 5000 + 1.
EDGE_SHAPES = sorted(
    {(n, out) for out in (1, 30, 65, 5000) for n in straddling(block_len(out)) if n >= out}
    | FORMER_EDGE_SHAPES
)


def long_len(out_len: int) -> int:
    """Input bits in as many whole longest FFT blocks as fit in 2^20 bits."""
    return (1 << 20) // block_len(out_len) * block_len(out_len)


# Inputs of about a million bits: 85 FFT blocks at 65 output bits, a bit
# either side of a block boundary and twice that plus 7 bits; and the shapes
# at the edges of the former groups of about 2^20 FFT points, at 1, 30 and
# 65 output bits.
LONG_SHAPES = sorted(
    {(n, 65) for n in (*around(long_len(65)), 2 * long_len(65) + 7)}
    | {
        (1048575, 1), (1048576, 1), (1048577, 1), (2097159, 1),
        (1044863, 30), (1044864, 30), (1044865, 30), (2089735, 30),
        (1040383, 65), (1040384, 65), (1040385, 65), (2080775, 65),
    }
)

# Tile length in the tile-edge tests, and outputs on both sides of one and of
# two tiles and past three, at one block, two blocks and four blocks of
# input: the FFT kernel with several output tiles and every tile/block pair.
TILE = 256
TILE_SHAPES = sorted(
    (n, out)
    for out in around(TILE) + around(2 * TILE) + (3 * TILE + 7,)
    for n in (out, block_len(out) + 1, 3 * block_len(out) + 7)
)


# Outputs of 1 to 64 bits, the correctness hash's range: input lengths on
# both sides of 64-bit word boundaries, long inputs of about 2^18 and 2^19
# bits at 64 output bits, and every square hash up to 64 bits.
LONG_INPUT_BITS = 1 << 18
PACKED_SHAPES = sorted(
    {
        (n, out)
        for out in (1, 2, 30, 63, 64)
        for n in around(64) + around(128) + around(320)
        if n >= out
    }
    | {(n, 64) for n in around(LONG_INPUT_BITS) + (2 * LONG_INPUT_BITS + 7,)}
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


@pytest.mark.parametrize(
    "field, value",
    [
        ("seed", -1),
        ("seed", 2**64),
        ("seed", True),
        ("seed", np.True_),
        ("in_len", True),
        ("out_len", False),
    ],
    ids=["seed=-1", "seed=2^64", "seed=True", "seed=np.True_", "in_len=True", "out_len=False"],
)
def test_rejects_seeds_it_cannot_draw_from(field, value):
    # a record read back through ToeplitzHash(**record) is outside input: a
    # negative seed would fail only at apply, and True would be seed 1
    record = {"seed": 3, "in_len": 8, "out_len": 1} | {field: value}
    with pytest.raises(ValueError, match=f"^{field} must be"):
        ToeplitzHash(**record)


def test_accepts_every_64_bit_seed():
    for seed in (0, 2**64 - 1):
        h = ToeplitzHash(seed=seed, in_len=8, out_len=3)
        assert h(np.ones(8, dtype=np.uint8)).shape == (3,)


def test_rejects_wrong_input_length():
    h = ToeplitzHash.sample(8, 3, seed=0)
    with pytest.raises(ValueError):
        h(np.zeros(7, dtype=np.uint8))


@pytest.mark.parametrize("in_len, out_len", [(64, 16), (200, 65)])
@pytest.mark.parametrize("bad", [np.uint8(2), np.int64(256)])
def test_rejects_non_bit_input(in_len, out_len, bad):
    # 256 would wrap to 0 in a cast to uint8
    h = ToeplitzHash.sample(in_len, out_len, seed=2)
    x = np.zeros(in_len, dtype=np.asarray(bad).dtype)
    x[3] = bad
    with pytest.raises(ValueError):
        h(x)


def test_hash_is_immutable():
    h = ToeplitzHash.sample(64, 16, seed=2)
    with pytest.raises(ValueError):
        h.diagonals[:] ^= 1
    with pytest.raises(ValueError):
        h.window(3, 20)[0] = 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        h.out_len = 8


def test_hash_is_three_ints():
    h = ToeplitzHash.sample(np.int64(64), np.int32(16), seed=np.uint64(2**63 + 5))
    assert vars(h) == {"seed": 2**63 + 5, "in_len": 64, "out_len": 16}
    assert all(type(v) is int for v in vars(h).values())
    with pytest.raises(TypeError):
        ToeplitzHash(seed=1, in_len=64, out_len=16, diagonals=h.diagonals)
    with pytest.raises(TypeError):
        ToeplitzHash(1, 64, 16)


WINDOW_SIZES = (1, 7, 8, 9, 64, 65, 139, 3_000_029)


@pytest.mark.parametrize("size", WINDOW_SIZES)
def test_windows_are_slices_of_the_diagonals(size):
    # starts and stops on both sides of every byte-of-word boundary near the
    # ends of the string, and stops past its end, where a window is cut short
    h = ToeplitzHash.sample(size, 1, seed=size)
    d = h.diagonals
    edges = sorted({e for k in (0, 8, 16, size - 9, size - 8, size - 1) for e in (k - 1, k, k + 1)})
    for start in (e for e in edges if 0 <= e < size):
        for stop in (start + 1, start + 8, start + 9, size - 1, size, size + 5):
            if stop > start:
                w = h.window(start, stop)
                assert w.dtype == np.uint8 and not w.flags.writeable
                assert np.array_equal(w, d[start:stop]), (start, stop)


def test_hash_holds_no_diagonals():
    # a hash is its seed and lengths: at 1e7 -> 30 bits the diagonal string
    # that a hash held before was 10.0 MB; an apply holds one window of
    # 12,315 diagonals and its FFT arrays at L = 12,500 (0.5 MB traced)
    in_len, out_len = 10**7, 30
    x = np.random.default_rng(10).integers(0, 2, in_len, dtype=np.uint8)
    tracemalloc.start()
    try:
        h = ToeplitzHash.sample(in_len, out_len, seed=10)
        held = tracemalloc.get_traced_memory()[0]
        h(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert held < 1e3, held
    assert peak < 2e6, peak


@pytest.mark.parametrize("seed", [0, 1, 2**63 - 1, 12345678901234])
def test_diagonals_are_the_integers_draw(seed):
    for size in [*range(1, 70), 46_579, 3_000_029, 3_124_287]:
        drawn = ToeplitzHash.sample(size, 1, seed).diagonals
        assert drawn.dtype == np.uint8
        assert np.array_equal(drawn, diagonals(size, seed))


def test_zero_maps_to_zero():
    h = ToeplitzHash.sample(64, 16, seed=2)
    assert np.array_equal(h(np.zeros(64, dtype=np.uint8)), np.zeros(16, dtype=np.uint8))


def test_dense_reference_matches_definition():
    # the product of unit vector j is column j of T[i, j] = d[i - j + in_len - 1]
    d = diagonals(12, seed=7)
    for j, unit in enumerate(np.eye(9, dtype=np.uint8)):
        assert toeplitz_product(d, unit) == [d[i - j + 8] for i in range(4)]


def assert_matches_dense_reference(in_len: int, out_len: int, seeds: int = 20) -> None:
    # the dense GF(2) product of the definition's diagonals
    rng = np.random.default_rng(3)
    for seed in range(seeds):
        h = ToeplitzHash.sample(in_len, out_len, seed=seed)
        x = rng.integers(0, 2, in_len, dtype=np.uint8)
        d = diagonals(in_len + out_len - 1, seed)
        assert np.array_equal(h(x), toeplitz_product(d, x))


def test_matches_dense_reference():
    assert_matches_dense_reference(37, 11)


@pytest.mark.parametrize("in_len, out_len", EDGE_SHAPES)
def test_matches_dense_reference_at_block_edges(in_len, out_len):
    assert_matches_dense_reference(in_len, out_len)


@pytest.mark.parametrize("in_len, out_len", LONG_SHAPES)
def test_matches_dense_reference_at_group_edges(in_len, out_len):
    # inputs of a million bits and more: fewer seeds keep the dense products quick
    assert_matches_dense_reference(in_len, out_len, seeds=3)


@pytest.mark.parametrize("in_len, out_len", TILE_SHAPES)
def test_matches_dense_reference_at_tile_edges(in_len, out_len, monkeypatch):
    monkeypatch.setattr(hashing, "_MAX_TILE", TILE)
    assert_matches_dense_reference(in_len, out_len)


# These two tests are named after the former packed kernel for outputs of at
# most 64 bits; they now check apply at its shapes.
@pytest.mark.parametrize("in_len, out_len", PACKED_SHAPES)
def test_packed_kernel_matches_dense_reference_and_fft_kernel(in_len, out_len):
    assert_matches_dense_reference(in_len, out_len, 20 if in_len < LONG_INPUT_BITS else 3)


def test_packed_window_at_offset_zero():
    # A one-bit output is y[0] = sum_j d[64 - j] x[j] = d[64] x[0] = 0 here,
    # while the one set diagonal, d[0] = 1, meets only x[64] = 0: a kernel
    # that read d[0] in place of d[64] would give 1.  The crafted diagonals
    # reach the kernel through an array-backed window.
    d = np.zeros(65, dtype=np.uint8)
    d[0] = 1
    x = np.zeros(65, dtype=np.uint8)
    x[0] = 1
    y = _gf2_toeplitz_apply(lambda start, stop: d[start:stop], x, 1)
    assert np.array_equal(y, toeplitz_product(d, x))
    assert np.array_equal(y, [0])


def test_apply_seeds_one_bit_generator(monkeypatch):
    # three tiles of five blocks: the apply's 15 windows, the later tiles'
    # starting before the earlier tiles' ends, are drawn from one generator
    monkeypatch.setattr(hashing, "_MAX_TILE", 16)
    in_len, out_len = 50_000, 40
    h = ToeplitzHash.sample(in_len, out_len, seed=9)
    x = np.random.default_rng(9).integers(0, 2, in_len, dtype=np.uint8)
    expected = toeplitz_product(diagonals(in_len + out_len - 1, 9), x)
    built = count_bit_generators(monkeypatch)
    y = h(x)
    assert built == [(9,)]
    assert np.array_equal(y, expected)


def test_short_output_apply_memory_is_bounded():
    # the keygen-3e6 correctness hash shape: 245 blocks at L = 12,288 measure
    # 0.5 MB; the former packed kernel measured 4.1 MB, and 24 MB when it
    # windowed all 46,875 words at once
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
    # of the former power-of-two plan at once peaked at 123 MB, groups of 4
    # blocks at 34 MB, and one block at a time 12 MB; its nine balanced blocks
    # at L = 460,800 measure 15 MB
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


def test_apply_memory_is_bounded_by_one_tile(monkeypatch):
    # 16 tiles of 16,384 bits at L = 64,800 measure 2.5 MB; keeping each
    # tile's irfft alive into the next tile measured 3.1 MB, and one untiled
    # FFT would need L = 2^20 and about 32 MB
    monkeypatch.setattr(hashing, "_MAX_TILE", 1 << 14)
    in_len, out_len = 1_000_000, 250_000
    assert _plan(in_len, out_len) == (1 << 14, 47_620, 64_800)
    h = ToeplitzHash.sample(in_len, out_len, seed=8)
    x = np.random.default_rng(8).integers(0, 2, in_len, dtype=np.uint8)
    tracemalloc.start()
    try:
        h(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.8e6


def is_even_5_smooth(size: int) -> bool:
    if size % 2:
        return False
    for prime in (2, 3, 5):
        while size % prime == 0:
            size //= prime
    return size == 1


def test_smooth_size_is_the_next_even_5_smooth_integer():
    sizes = [size for size in range(1, 5000) if is_even_5_smooth(size)]
    for n in range(1, 4000):
        assert _smooth_size(n) == min(size for size in sizes if size >= n)


@pytest.mark.parametrize(
    "in_len, out_len, tiles, blocks, size",
    [
        # keygen-3e6 privacy amplification: one tile of nine blocks
        (3_000_000, 124_288, 1, 9, 460_800),
        # the n = 1e8 probe run: nine tiles of eight blocks
        (100_000_000, 37_376_533, 9, 8, 1 << 24),
    ],
)
def test_plan_at_probe_shapes(in_len, out_len, tiles, blocks, size):
    tile, block, fft_size = _plan(in_len, out_len)
    assert (-(-out_len // tile), -(-in_len // block), fft_size) == (tiles, blocks, size)
    assert tiles * tile >= out_len and blocks * block >= in_len
    assert is_even_5_smooth(fft_size) and fft_size >= tile + block - 1
    # about 32 bytes per FFT point: the running spectrum, a product, the
    # spectrum it is multiplied by and a float copy of a transform input
    assert 32 * fft_size < 1e9


def test_rounding_failure_raises(monkeypatch):
    irfft = np.fft.irfft
    monkeypatch.setattr(np.fft, "irfft", lambda *a, **k: irfft(*a, **k) + 0.5)
    h = ToeplitzHash.sample(200, 65, seed=2)
    with pytest.raises(ArithmeticError, match=r"error 0\.5 in output tile 0 .* L = 270:"):
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


# The parity of every 16-bit integer (np.bitwise_count needs numpy 2).
PARITY = np.zeros(1, dtype=bool)
for _ in range(16):
    PARITY = np.concatenate([PARITY, ~PARITY])


# every diagonal string tried on every nonzero input, at most 2^24 pairs
@pytest.mark.parametrize("in_len, out_len", [(1, 1), (4, 3), (8, 8), (12, 1), (6, 11)])
def test_universal2_exactly(in_len, out_len):
    # By linearity x and x' collide when the hash of x ^ x' vanishes, which
    # must happen on exactly 2^(in_len - 1) of the strings, a 2^-out_len
    # fraction: the lowest set bit of x ^ x' makes the product triangular.
    # As in spec.toeplitz_product, y[i] is the parity of (d >> i) & x.
    d = np.arange(1 << (in_len + out_len - 1), dtype=np.uint16)
    x = np.arange(1, 1 << in_len, dtype=np.uint16)[:, None]
    vanishes = np.ones((len(x), len(d)), dtype=bool)
    for i in range(out_len):
        vanishes &= ~PARITY[(d >> i) & x]
    assert np.array_equal(vanishes.sum(axis=1), np.full(len(x), 1 << (in_len - 1)))


def test_single_bit_difference_collision_bound():
    diff = np.zeros(32, dtype=np.uint8)
    diff[17] = 1
    rate = collision_rate(32, 8, diff, 20_000, seed=77)
    p = 2.0**-8
    sigma = np.sqrt(p * (1 - p) / 20_000)
    assert rate <= p + 3 * sigma


def test_serialization_roundtrip():
    h = ToeplitzHash.sample(40, 10, seed=99)
    h2 = ToeplitzHash(**h.to_json())
    assert h2 == h and np.array_equal(h.diagonals, h2.diagonals)
    assert h.to_json() == {"seed": 99, "in_len": 40, "out_len": 10}
    assert json.loads(json.dumps(ToeplitzHash.sample(40, 10, np.int64(99)).to_json())) == h.to_json()


def test_pack_unpack_little_endian():
    bits = np.array([1, 0, 0, 0, 0, 0, 0, 0, 1], dtype=np.uint8)
    data = pack_bits(bits)
    assert data[0] == 1  # least significant bit first within the byte
    assert np.array_equal(unpack_bits(data, 9), bits)
    with pytest.raises(ValueError):
        unpack_bits(data, 99)
