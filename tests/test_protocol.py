import json
import tracemalloc

import numpy as np
import pytest

from diqkd.chsh import chsh_measurement
from diqkd.hashing import ToeplitzHash
from diqkd.linalg import identity
from diqkd.protocol import (
    ABORT_CHSH,
    ABORT_INSUFFICIENT,
    ALICE_BASES,
    BOB_BASES,
    CustomSource,
    DepolarizingSource,
    MisalignedSource,
    Transcript,
    _BASIS_TOKENS,
    _CHUNK,
    _chunk_rows,
    _hash_pair,
    _json_list,
    _noise_gap_core,
    _pmf_table,
    _sorted_sample,
    depolarized_pair_state,
    estimate_chsh,
    ideal_pair_state,
    joint_outcome_pmf,
    outcomes_from_uniforms,
    povm_noise_experiment,
    qber,
    run_protocol,
)
from diqkd.rates import ProtocolParams
from helpers import (
    random_density,
    reference_noise_gap_core,
    reference_to_json,
    toeplitz_from_json,
    unchunked_pulse_stage,
)

SQRT2 = np.sqrt(2.0)


# Runs of this configuration leave a key of 4,474 bits.
POSITIVE_KEY = ProtocolParams(
    n=200_000, q=0.1827, delta=0.01, s0=0.70, eps=0.5, eps_cor=0.5, f_ec=1.0, l_syn=0
)


def small_params(**overrides):
    # generous delta so the label-count margin is many sigma at this small n
    base = dict(n=2000, q=0.3, delta=0.25, s0=0.0, eps=1e-9, eps_cor=2**-8, f_ec=1.0, l_syn=2000)
    base.update(overrides)
    return ProtocolParams(**base)


class TestQber:
    def test_identical(self):
        assert qber(np.array([0, 1, 1, 0]), np.array([0, 1, 1, 0])) == 0.0

    def test_complementary(self):
        assert qber(np.array([0, 1]), np.array([1, 0])) == 1.0

    def test_single_flip(self):
        u = np.zeros(100, dtype=np.uint8)
        v = u.copy()
        v[42] ^= 1
        assert qber(u, v) == pytest.approx(0.01)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            qber(np.zeros(3), np.zeros(4))


class TestEstimator:
    def build(self, bases_a, bases_b, ra, rb):
        n = len(ra)
        return Transcript(
            schema_version=1,
            params=small_params(),
            strategy={"kind": "test"},
            seed=0,
            labels_a=np.ones(n, bool),
            labels_b=np.ones(n, bool),
            bases_a=np.array(bases_a),
            bases_b=np.array(bases_b),
            outcomes_a=np.array(ra),
            outcomes_b=np.array(rb),
            i_smp=np.arange(n),
            i_sif=np.empty(0, dtype=int),
            s_est=None,
            abort=None,
        )

    def test_all_agree_zz(self):
        # basis codes: alice z=0, x=1; bob zp=0, z=1, x=2
        t = self.build([0, 0, 0], [1, 1, 1], [1, -1, 1], [1, -1, 1])
        assert estimate_chsh(t) == 1.0

    def test_all_agree_xx(self):
        t = self.build([1, 1], [2, 2], [1, -1], [1, -1])
        assert estimate_chsh(t) == -1.0

    def test_hand_computed_mixed_rounds(self):
        # (z,z,+,+): +1; (x,x,+,+): -1; (z,x,+,-): -1; (x,z,-,-): +1 -> mean 0
        t = self.build([0, 1, 0, 1], [1, 2, 2, 1], [1, 1, 1, -1], [1, 1, -1, -1])
        assert estimate_chsh(t) == 0.0

    def test_missing_outcomes_rejected(self):
        t = self.build([0], [1], [1], [1])
        t.i_smp = np.empty(0, dtype=int)
        with pytest.raises(ValueError):
            estimate_chsh(t)


class TestSources:
    def test_depolarized_state_structure(self):
        rho = depolarized_pair_state(0.05)
        assert abs(np.trace(rho).real - 1.0) < 1e-12
        assert np.min(np.linalg.eigvalsh(rho)) >= -1e-12
        with pytest.raises(ValueError):
            depolarized_pair_state(0.6)

    def test_ideal_state_correlators(self):
        # the calibrated frames give <A_z B_z'> = 1 and CHSH mean 1/sqrt2
        src = DepolarizingSource(0.0)
        rho = src.pulse_state(0)
        pmf_key = joint_outcome_pmf(rho, src.alice_ops["z"], src.bob_ops["zp"])
        assert pmf_key[1] + pmf_key[2] == pytest.approx(0.0, abs=1e-12)
        s = 0.0
        for ca, cb, sign in (("z", "z", 1), ("z", "x", 1), ("x", "z", 1), ("x", "x", -1)):
            pmf = joint_outcome_pmf(rho, src.alice_ops[ca], src.bob_ops[cb])
            corr = pmf[0] - pmf[1] - pmf[2] + pmf[3]
            s += 0.25 * sign * corr
        assert s == pytest.approx(1 / SQRT2, abs=1e-12)

    def test_depolarized_correlators_scale(self):
        p = 0.08
        src = DepolarizingSource(p)
        pmf_key = joint_outcome_pmf(src.pulse_state(0), src.alice_ops["z"], src.bob_ops["zp"])
        assert pmf_key[1] + pmf_key[2] == pytest.approx(p, abs=1e-12)

    def test_misaligned_source_best_state(self):
        src = MisalignedSource(1.0, 1.0, 0.0)
        m = chsh_measurement(1.0, 1.0)
        expect = np.trace(m.operator @ src.rho).real
        assert expect == pytest.approx(0.5, abs=1e-12)

    def test_custom_source_validation(self):
        with pytest.raises(ValueError):
            CustomSource([identity(4) / 4.0], [1.0], [1.0, 1.0])


class TestRunProtocol:
    def test_deterministic_transcripts(self):
        params = small_params()
        a = run_protocol(params, DepolarizingSource(0.03), seed=11)
        b = run_protocol(params, DepolarizingSource(0.03), seed=11)
        assert a.to_json() == b.to_json()
        c = run_protocol(params, DepolarizingSource(0.03), seed=12)
        assert c.to_json() != a.to_json()

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="^seed must be a non-negative integer"):
            run_protocol(small_params(), DepolarizingSource(0.03), seed=-1)

    def test_index_sets_disjoint_and_sized(self):
        params = small_params()
        t = run_protocol(params, DepolarizingSource(0.0), seed=1)
        assert t.abort is None
        assert len(np.intersect1d(t.i_smp, t.i_sif)) == 0
        assert len(t.i_smp) == params.l_smp
        assert len(t.i_sif) == params.n

    def test_transcript_s_matches_estimator(self):
        t = run_protocol(small_params(), DepolarizingSource(0.05), seed=2)
        assert estimate_chsh(t) == t.s_est

    def test_noiseless_statistics(self):
        params = small_params()
        runs = [run_protocol(params, DepolarizingSource(0.0), seed=s) for s in range(40)]
        s_vals = np.array([t.s_est for t in runs])
        sigma = np.sqrt((1 - 0.5) / params.l_smp / len(runs))
        assert abs(s_vals.mean() - 1 / SQRT2) <= 4 * sigma
        assert all(qber(t.sifted_key, t.bob_raw) == 0.0 for t in runs)

    def test_depolarizing_statistics(self):
        p = 0.05
        params = small_params()
        runs = [run_protocol(params, DepolarizingSource(p), seed=100 + s) for s in range(40)]
        target = (1 - 2 * p) / SQRT2
        s_vals = np.array([t.s_est for t in runs])
        sigma_s = np.sqrt((1 - target**2) / params.l_smp / len(runs))
        assert abs(s_vals.mean() - target) <= 4 * sigma_s
        q_vals = np.array([qber(t.sifted_key, t.bob_raw) for t in runs])
        sigma_q = np.sqrt(p * (1 - p) / params.n / len(runs))
        assert abs(q_vals.mean() - p) <= 4 * sigma_q

    def test_misaligned_statistics(self):
        # best i.i.d. state against degenerate detectors reaches only 1/2
        params = small_params()
        runs = [run_protocol(params, MisalignedSource(1.0, 1.0), seed=s) for s in range(40)]
        s_vals = np.array([t.s_est for t in runs])
        sigma = np.sqrt((1 - 0.25) / params.l_smp / len(runs))
        assert abs(s_vals.mean() - 0.5) <= 4 * sigma

    def test_chsh_abort(self):
        params = small_params(s0=0.70)
        t = run_protocol(params, DepolarizingSource(0.3), seed=3)
        assert t.abort == ABORT_CHSH
        assert t.sifted_key is None

    def test_insufficient_pulses_abort(self):
        # q = 1/2 makes both-sample and both-sift counts tight; tiny n aborts often
        params = ProtocolParams(
            n=20, q=0.5, delta=0.01, s0=0.0, eps=1e-9, eps_cor=1e-9, l_syn=100
        )
        aborted = [
            run_protocol(params, DepolarizingSource(0.0), seed=s).abort == ABORT_INSUFFICIENT
            for s in range(40)
        ]
        assert any(aborted)

    def test_oracle_correction_keys_match(self):
        params = small_params()
        for s in range(10):
            t = run_protocol(params, DepolarizingSource(0.05), seed=200 + s)
            assert t.abort is None
            assert t.fcor_match
            assert np.array_equal(t.corrected_key, t.sifted_key)

    def test_positive_key_run(self):
        t = run_protocol(POSITIVE_KEY, DepolarizingSource(0.0), seed=7)
        assert t.abort is None
        assert len(t.secret_key_a) == t.key_report["l"] > 0
        assert np.array_equal(t.secret_key_a, t.secret_key_b)

    def test_syndrome_budget_accounting(self):
        params = small_params(l_syn=50)
        t = run_protocol(params, DepolarizingSource(0.05), seed=5)
        assert t.syndrome_bits_used > 0
        assert not t.syndrome_within_budget  # 50 bits cannot cover 5% errors
        t2 = run_protocol(small_params(l_syn=2000), DepolarizingSource(0.05), seed=5)
        assert t2.syndrome_within_budget

    def test_p_est_default_inverts_chsh(self):
        t = run_protocol(small_params(), DepolarizingSource(0.05), seed=6)
        assert t.p_est == pytest.approx((1 - SQRT2 * t.s_est) / 2, abs=1e-12)
        t2 = run_protocol(small_params(), DepolarizingSource(0.05), seed=6, p_est=0.02)
        assert t2.p_est == 0.02

    def test_json_roundtrip_fields(self):
        import json

        t = run_protocol(small_params(), DepolarizingSource(0.01), seed=8)
        doc = json.loads(t.to_json())
        assert doc["schema_version"] == 1
        assert doc["params"]["n"] == 2000
        assert doc["strategy"]["kind"] == "depolarizing"
        assert len(doc["outcomes_a"]) == small_params().pulse_pairs
        assert doc["fpa"] is None or set(doc["fpa"]) == {"seed", "in_len", "out_len"}


class TestCorrectness:
    def test_keys_agree_and_corruption_detected_at_hash_rate(self):
        # over 1000 completed runs the oracle-corrected keys always agree;
        # flipping bits after correction must be caught by the verification
        # hash except with probability about eps_cor = 2^-8
        params = small_params()
        rng = np.random.default_rng(9)
        missed = 0
        trials = 1000
        for s in range(trials):
            t = run_protocol(params, DepolarizingSource(0.05), seed=3000 + s)
            assert t.abort is None
            assert t.fcor_match
            assert np.array_equal(t.secret_key_a, t.secret_key_b)
            fcor = toeplitz_from_json(t.fcor)
            corrupted = t.corrected_key.copy()
            flips = rng.integers(0, params.n, size=3)
            corrupted[np.unique(flips)] ^= 1
            missed += np.array_equal(fcor(corrupted), fcor(t.sifted_key))
        p = 2.0**-8
        sigma = np.sqrt(p * (1 - p) / trials)
        assert missed / trials <= p + 3 * sigma


class TestHashPair:
    def hashed(self):
        """A 40-bit hash and a wrapper that records each input it hashes."""
        h = ToeplitzHash.sample(500, 40, seed=11)
        calls = []

        def counted(x):
            calls.append(x)
            return h(x)

        return h, calls, counted

    def test_equal_strings_hashed_once(self):
        h, calls, counted = self.hashed()
        a = np.random.default_rng(12).integers(0, 2, 500, dtype=np.uint8)
        tag_a, tag_b = _hash_pair(counted, a, a.copy())
        assert len(calls) == 1
        assert np.array_equal(tag_a, h(a)) and np.array_equal(tag_b, tag_a)
        assert tag_b is not tag_a and not np.shares_memory(tag_a, tag_b)

    def test_differing_string_hashed_on_its_own(self):
        # Bob's tag comes from Bob's string, so a failed verification stays reachable
        h, calls, counted = self.hashed()
        a = np.random.default_rng(13).integers(0, 2, 500, dtype=np.uint8)
        b = a.copy()
        b[123] ^= 1
        tag_a, tag_b = _hash_pair(counted, a, b)
        assert len(calls) == 2
        assert np.array_equal(tag_a, h(a)) and np.array_equal(tag_b, h(b))
        assert not np.array_equal(tag_a, tag_b)


class TestMemorylessness:
    def test_measurement_kernel_commutes_with_permutation(self):
        rng = np.random.default_rng(10)
        pmfs = rng.dirichlet(np.ones(4), size=500)
        uniforms = rng.random(500)
        rows = np.arange(500)
        base = outcomes_from_uniforms(pmfs, uniforms, rows=rows)
        perm = rng.permutation(500)
        permuted = outcomes_from_uniforms(pmfs[perm], uniforms[perm], rows=rows)
        assert np.array_equal(permuted, base[perm])

    def test_row_index_matches_gathered_table(self):
        rng = np.random.default_rng(12)
        table = rng.dirichlet(np.ones(4), size=6)
        r = rng.integers(0, 6, 500)
        u = rng.random(500)
        assert np.array_equal(
            outcomes_from_uniforms(table, u, rows=r),
            outcomes_from_uniforms(table[r], u, rows=np.arange(500)),
        )

    def test_shuffled_custom_source_same_statistics(self):
        rng = np.random.default_rng(11)
        params = ProtocolParams(
            n=200, q=0.4, delta=0.4, s0=-1.0, eps=1e-9, eps_cor=1e-9, l_syn=500
        )
        n_pulses = params.pulse_pairs
        states = [depolarized_pair_state(p) for p in rng.uniform(0, 0.2, n_pulses)]
        alphas = np.exp(1j * rng.uniform(0, 2 * np.pi, n_pulses))
        betas = np.exp(1j * rng.uniform(0, 2 * np.pi, n_pulses))
        perm = rng.permutation(n_pulses)
        runs_a = [
            run_protocol(params, CustomSource(states, alphas, betas), seed=s)
            for s in range(30)
        ]
        runs_b = [
            run_protocol(
                params,
                CustomSource([states[i] for i in perm], alphas[perm], betas[perm]),
                seed=1000 + s,
            )
            for s in range(30)
        ]
        mean_a = np.mean([t.s_est for t in runs_a])
        mean_b = np.mean([t.s_est for t in runs_b])
        # aggregate statistics are permutation invariant up to sampling noise
        sigma = np.sqrt(1.0 / params.l_smp / 30)
        assert abs(mean_a - mean_b) <= 5 * sigma


IID_SOURCES = {
    "depolarizing": lambda: DepolarizingSource(0.05),
    "misaligned": lambda: MisalignedSource(np.exp(0.3j), np.exp(-1.2j), 0.02),
}


@pytest.mark.parametrize("kind", sorted(IID_SOURCES))
def test_six_row_table_equals_per_pair_calls(kind):
    # the stacked Born-rule call runs the same code as its 0-d calls, so every float agrees
    src = IID_SOURCES[kind]()
    bases_a = np.repeat(np.arange(2, dtype=np.int8), 3)
    bases_b = np.tile(np.arange(3, dtype=np.int8), 2)
    table = _pmf_table(src, slice(None))
    assert table.shape == (6, 4)
    # an i.i.d. table ignores the pulse slice and serves every chunk whole
    assert np.array_equal(_pmf_table(src, slice(12345, 20000)), table)
    pmfs, rows = _chunk_rows(table, bases_a, bases_b)
    assert pmfs is table and rows.dtype == np.intp and rows.tolist() == list(range(6))
    for r, (ca, cb) in enumerate((ca, cb) for ca in ALICE_BASES for cb in BOB_BASES):
        pmf = joint_outcome_pmf(src.rho, src.alice_ops[ca], src.bob_ops[cb])
        assert np.array_equal(table[r], pmf), (ca, cb)


def test_custom_table_equals_per_pulse_calls():
    rng = np.random.default_rng(15)
    pulses = 50
    states = [random_density(4, rng) for _ in range(pulses)]
    alphas = np.exp(1j * rng.uniform(0, 2 * np.pi, pulses))
    betas = np.exp(1j * rng.uniform(0, 2 * np.pi, pulses))
    src = CustomSource(states, alphas, betas)
    bases_a = rng.integers(0, 2, pulses).astype(np.int8)
    bases_b = rng.integers(0, 3, pulses).astype(np.int8)
    whole = _pmf_table(src, slice(None))
    assert whole.shape == (pulses, 6, 4)
    # the whole run as one chunk, and chunks that start inside it: a chunk's
    # table is its slice of the whole one, bit for bit
    for start, stop in ((0, pulses), (17, 37), (37, pulses)):
        table = _pmf_table(src, slice(start, stop))
        assert np.array_equal(table, whole[start:stop])
        pmfs, rows = _chunk_rows(table, bases_a[start:stop], bases_b[start:stop])
        assert pmfs.shape == (6 * (stop - start), 4) and rows.dtype == np.intp
        for i in range(start, stop):
            # the z operators are shared by every pulse, the x operators are per pulse
            op_a = np.broadcast_to(src.alice_ops[ALICE_BASES[bases_a[i]]], (pulses, 2, 2))[i]
            op_b = np.broadcast_to(src.bob_ops[BOB_BASES[bases_b[i]]], (pulses, 2, 2))[i]
            pmf = joint_outcome_pmf(states[i], op_a, op_b)
            assert np.array_equal(pmfs[rows[i - start]], pmf), (start, i)


def pulse_params(big_n: int, q: float = 0.2) -> ProtocolParams:
    """Parameters of exactly ``big_n`` pulses with wide label margins; the run completes."""
    n = round(0.7 * big_n * (1 - q) ** 2)
    delta = 1 - n / ((big_n - 0.5) * (1 - q) ** 2)
    params = ProtocolParams(n=n, q=q, delta=delta, s0=-1.0, eps=1e-9, eps_cor=1e-9, l_syn=n)
    assert params.pulse_pairs == big_n
    return params


def pulse_axis_source(big_n: int) -> CustomSource:
    rng = np.random.default_rng(big_n)
    lam = rng.uniform(0, 0.4, big_n)[:, None, None]
    states = (1 - lam) * ideal_pair_state() + lam * identity(4) / 4
    return CustomSource(
        states,
        np.exp(1j * rng.uniform(0, 2 * np.pi, big_n)),
        np.exp(1j * rng.uniform(0, 2 * np.pi, big_n)),
    )


PULSE_SOURCES = {
    "depolarizing": lambda big_n: DepolarizingSource(0.05),
    "misaligned": lambda big_n: MisalignedSource(np.exp(0.3j), np.exp(-1.2j), 0.02),
    "custom": pulse_axis_source,
}


@pytest.mark.parametrize("offset", [(1, -1), (1, 0), (1, 1), (2, 7)], ids=["C-1", "C", "C+1", "2C+7"])
@pytest.mark.parametrize("kind", sorted(PULSE_SOURCES))
def test_chunked_pulse_stage_equals_whole_array_draws(kind, offset):
    big_n = offset[0] * _CHUNK + offset[1]
    params = pulse_params(big_n)
    source = PULSE_SOURCES[kind](big_n)
    t = run_protocol(params, source, seed=7)
    ref = unchunked_pulse_stage(params, source, seed=7)
    for name in ("labels_a", "labels_b", "bases_a", "bases_b", "outcomes_a", "outcomes_b"):
        got = getattr(t, name)
        assert got.dtype == ref[name].dtype and np.array_equal(got, ref[name]), name
    # the run's generator continues past all five streams: the whole-array
    # selection and the next draw, the correctness hash seed, agree with it
    rng = ref["rng"]
    both_smp = np.flatnonzero(ref["labels_a"] & ref["labels_b"])
    both_sif = np.flatnonzero(~ref["labels_a"] & ~ref["labels_b"])
    assert np.array_equal(t.i_smp, np.sort(rng.choice(both_smp, params.l_smp, replace=False)))
    assert np.array_equal(t.i_sif, np.sort(rng.choice(both_sif, params.n, replace=False)))
    assert t.fcor["seed"] == int(rng.integers(2**63))


# numpy's choice without replacement runs Floyd's algorithm for pop <= 10,000
# or k <= pop / 50, and a tail shuffle of arange(pop) otherwise
SELECTIONS = {
    "floyd-small-pop": (10_000, 6_000),
    "floyd-small-k": (200_000, 4_000),
    "floyd-all": (3_000, 3_000),
    "tail-shuffle": (20_000, 5_000),
    "tail-shuffle-most": (300_000, 290_000),
    "tail-shuffle-all": (20_001, 20_001),
}


@pytest.mark.parametrize("case", sorted(SELECTIONS))
def test_masked_selection_equals_sorted_choice(case):
    size, k = SELECTIONS[case]
    pop = np.flatnonzero(np.random.default_rng(size).random(3 * size) < 0.5)[:size]
    assert len(pop) == size
    for seed in range(3):
        rng_ref, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        expected = np.sort(rng_ref.choice(pop, size=k, replace=False))
        got = _sorted_sample(rng, pop, k)
        assert got.dtype == expected.dtype and np.array_equal(got, expected)
        assert rng.bit_generator.state == rng_ref.bit_generator.state


def test_pulse_stage_memory_is_chunk_bounded():
    # N = 2e6 pulses and l = 0 (s0 = 0 makes the entropy bound vacuous).  What
    # stays is the six one-byte pulse arrays (12 MB), the selection's index
    # arrays (about 30 MB at their peak) and the correctness hash's FFT
    # groups, whose size does not grow with N; whole-array float64 draws and
    # per-pulse thresholds (16 MB each) would not fit beside them.
    params = ProtocolParams(
        n=1_216_000, q=0.2, delta=0.05, s0=0.0, eps=1e-9, eps_cor=1e-9, l_syn=10**6
    )
    assert params.pulse_pairs == 2_000_000
    tracemalloc.start()
    try:
        t = run_protocol(params, DepolarizingSource(0.02), seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert t.abort is None and t.key_report["l"] == 0
    assert peak < 70e6, peak


def test_custom_source_memory_is_chunk_bounded():
    # The Born-rule table of a pulse-axis source is built one chunk at a
    # time, and building it costs about 4.8 KB per pulse (4x4 complex
    # products over the six pairs of bases).  Over 2 C + 7 pulses the whole
    # table at once peaks near 636 MB; one chunk at a time near 332 MB.
    big_n = 2 * _CHUNK + 7
    params = pulse_params(big_n)
    source = pulse_axis_source(big_n)
    tracemalloc.start()
    try:
        t = run_protocol(params, source, seed=7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert t.abort is None
    assert peak < 420e6, peak


def custom_run() -> Transcript:
    rng = np.random.default_rng(21)
    params = ProtocolParams(n=200, q=0.4, delta=0.4, s0=-1.0, eps=1e-9, eps_cor=1e-9, l_syn=500)
    pulses = params.pulse_pairs
    source = CustomSource(
        [depolarized_pair_state(p) for p in rng.uniform(0, 0.2, pulses)],
        np.exp(1j * rng.uniform(0, 2 * np.pi, pulses)),
        np.exp(1j * rng.uniform(0, 2 * np.pi, pulses)),
    )
    return run_protocol(params, source, seed=4)


# Transcripts of every exit of run_protocol: (run, abort code, whether l > 0).
ENCODER_RUNS = {
    "completed-depolarizing": (
        lambda: run_protocol(small_params(), DepolarizingSource(0.05), seed=21), None, False
    ),
    "completed-misaligned": (
        lambda: run_protocol(
            small_params(), MisalignedSource(np.exp(0.3j), np.exp(-1.2j), 0.02), seed=22
        ),
        None,
        False,
    ),
    "positive-key": (
        lambda: run_protocol(POSITIVE_KEY, DepolarizingSource(0.0), seed=7), None, True
    ),
    "insufficient-pulses": (
        lambda: run_protocol(
            ProtocolParams(n=2000, q=0.3, delta=0.002, s0=0.0, eps=1e-9, eps_cor=1e-9, l_syn=500),
            DepolarizingSource(0.05),
            seed=1,
        ),
        ABORT_INSUFFICIENT,
        False,
    ),
    "chsh-failed": (
        lambda: run_protocol(small_params(s0=0.70), DepolarizingSource(0.3), seed=3),
        ABORT_CHSH,
        False,
    ),
    "custom": (custom_run, None, False),
}


@pytest.mark.parametrize("case", sorted(ENCODER_RUNS))
def test_to_json_equals_one_json_dumps(case):
    run, abort, keyed = ENCODER_RUNS[case]
    t = run()
    assert t.abort == abort
    if abort is None:
        assert (t.key_report["l"] > 0) == keyed == (t.fpa is not None)
    assert t.to_json() == reference_to_json(t)


INT64 = np.iinfo(np.int64)
POWERS = [10**k for k in range(19)]
JSON_LISTS = {
    "empty": np.array([], dtype=np.int64),
    "empty-bool": np.array([], dtype=bool),
    "single": np.array([7], dtype=np.int64),
    "single-negative": np.array([-12345678901], dtype=np.int64),
    "bool": np.array([True, False, False, True]),
    "plus-minus-one": np.array([1, -1, -1, 1, 1], dtype=np.int8),
    "uint8-0-255": np.array([0, 255, 255, 0, 17], dtype=np.uint8),
    "int8-all": np.arange(-128, 128, dtype=np.int8)[::-1],
    "powers-of-ten": np.array(
        [v for x in POWERS for v in (x - 1, x, x + 1)], dtype=np.int64
    ),
    "negative-powers-of-ten": np.array(
        [v for x in POWERS for v in (1 - x, -x, -x - 1)], dtype=np.int64
    ),
    "small-span-at-ten": np.array([9, 10, 11, -9, -10, -11], dtype=np.int16),
    "int64-min-max": np.array([INT64.max, INT64.min, 0, -1, 1], dtype=np.int64),
    "int64-min": np.array([INT64.min, INT64.min + 3], dtype=np.int64),
    "int64-max": np.array([INT64.max - 3, INT64.max], dtype=np.int64),
    "uint64-max": np.array([0, np.iinfo(np.uint64).max], dtype=np.uint64),
}
# spans max - min either side of the token table's limit, from a negative minimum
for span in (255, 256, 257):
    JSON_LISTS[f"span-{span}"] = np.concatenate(
        [[-37, span - 37], np.random.default_rng(span).integers(-37, span - 37, 500)]
    )


@pytest.mark.parametrize("case", sorted(JSON_LISTS))
def test_json_list_equals_json_dumps(case):
    a = JSON_LISTS[case]
    expected = json.dumps((a.view(np.int8) if a.dtype == bool else a).tolist())
    assert _json_list(a, None) == expected


@pytest.mark.parametrize("dtype", [np.int8, np.int32, np.int64, np.uint16, np.uint64])
def test_json_list_random_values(dtype):
    info = np.iinfo(dtype)
    a = np.random.default_rng(5).integers(info.min, info.max, 2000, dtype=dtype, endpoint=True)
    assert _json_list(a, None) == json.dumps(a.tolist())


def test_json_list_spells_basis_labels():
    codes = np.random.default_rng(6).integers(0, 3, 1000).astype(np.int8)
    assert _json_list(codes, _BASIS_TOKENS["bases_b"]) == json.dumps(
        [BOB_BASES[c] for c in codes]
    )
    assert _json_list(codes[:0], _BASIS_TOKENS["bases_a"]) == "[]"


@pytest.mark.parametrize("a", [np.zeros(3), np.zeros((2, 2), dtype=np.int8)], ids=["float", "2-d"])
def test_json_list_rejects_non_integer_or_multi_dim(a):
    with pytest.raises(TypeError):
        _json_list(a, None)


class TestAbortFrequency:
    def test_chernoff_bound_holds_at_protocol_scale(self):
        from diqkd.rates import chernoff_abort_bound

        params = ProtocolParams(
            n=4410, q=0.3, delta=0.1, s0=0.0, eps=1e-9, eps_cor=1e-9, l_syn=5000
        )
        assert params.pulse_pairs == 10_000
        bound = chernoff_abort_bound(params).corrected_bound
        src = DepolarizingSource(0.0)
        aborts = sum(
            run_protocol(params, src, seed=s).abort == ABORT_INSUFFICIENT for s in range(1000)
        )
        assert aborts / 1000 <= bound


class TestNoiseGapExperiment:
    def test_maximally_mixed_symmetric(self):
        m = chsh_measurement(-1j, -1j)
        rng = np.random.default_rng(12)
        rep = povm_noise_experiment(m, identity(4) / 4.0, trials=400, rng=rng, batch_size=500)
        sigma = 1.0 / np.sqrt(400 * 500)
        assert abs(rep.mean_s_randomized) <= 5 * sigma
        assert abs(rep.mean_s_projective) <= 5 * sigma

    def test_unit_eigenvalue_limit_no_noise(self):
        from diqkd.protocol import _noise_gap_core

        rng = np.random.default_rng(13)
        rep = _noise_gap_core(
            probs=np.array([0.5, 0.5, 0.0, 0.0]),
            values=np.array([1.0, -1.0, 0.0, 0.0]),
            trials=200,
            batch_size=100,
            deviation=0.05,
            rng=rng,
        )
        assert rep.mean_abs_gap == 0.0
        assert rep.empirical_tail == 0.0

    def test_tail_within_azuma_bound(self):
        m = chsh_measurement(-1j, -1j)
        rng = np.random.default_rng(14)
        rep = povm_noise_experiment(
            m, ideal_pair_state(), trials=2000, rng=rng, batch_size=1000, deviation=0.1
        )
        assert rep.empirical_tail <= rep.bound
        assert rep.mean_s_randomized == pytest.approx(rep.mean_s_projective, abs=0.01)

    def test_rejects_bad_trials(self):
        m = chsh_measurement(-1j, -1j)
        with pytest.raises(ValueError):
            povm_noise_experiment(m, identity(4) / 4, trials=0, rng=np.random.default_rng(0))

    @pytest.mark.parametrize("deviation", [-0.5, float("nan"), float("inf")])
    def test_rejects_bad_deviation(self, deviation):
        # a negative deviation makes every gap a tail event, a false Azuma failure
        m = chsh_measurement(-1j, -1j)
        with pytest.raises(ValueError, match="deviation"):
            povm_noise_experiment(
                m, identity(4) / 4, trials=1, rng=np.random.default_rng(0), deviation=deviation
            )


def noise_inputs(monkeypatch, rho) -> tuple[np.ndarray, np.ndarray]:
    """The ``(probs, values)`` that ``povm_noise_experiment`` hands its kernel for ``rho``."""
    from diqkd import protocol

    seen = []

    def record(probs, values, *rest):
        seen.append((probs, values))

    monkeypatch.setattr(protocol, "_noise_gap_core", record)
    povm_noise_experiment(chsh_measurement(-1j, -1j), rho, trials=1, rng=np.random.default_rng(0))
    return seen[0]


# (state or (probs, values), trials, batch_size, deviation, seed)
BELL_VALUES = chsh_measurement(-1j, -1j).bell_values
NOISE_CASES = {
    # the mc-1e5 benchmark and the README bounds-check (p = 0: the ideal state)
    "bench": (depolarized_pair_state(0.0), 2000, 4800, 0.1, 999),
    "bounds-check": (depolarized_pair_state(0.0), 2000, 4800, 0.1, 0),
    "bounds-check-test": (depolarized_pair_state(0.0), 300, 1000, 0.1, 0),
    "depolarized": (depolarized_pair_state(0.05), 500, 4800, 0.02, 1),
    "zero-probs": ((np.array([0.3, 0.0, 0.7, 0.0]), BELL_VALUES), 400, 301, 0.05, 2),
    "zero-probs-leading": ((np.array([0.0, 0.0, 0.5, 0.5]), BELL_VALUES), 400, 300, 0.05, 3),
    "cum-below-one": (
        (np.array([0.2, 0.2, 0.2, 0.2]), np.array([0.3, -0.7, 1.0, -1.0])), 400, 300, 0.05, 4
    ),
    "cum-far-below-one": ((np.full(4, 0.1), BELL_VALUES), 300, 200, 0.05, 5),
    "batch-one": ((np.array([0.4, 0.3, 0.2, 0.1]), BELL_VALUES), 5000, 1, 0.5, 6),
    "batch-odd": ((np.array([0.4, 0.3, 0.2, 0.1]), BELL_VALUES), 900, 7, 0.2, 7),
    # 2e6 // 4801 = 416 trials per chunk: two full chunks and a short one
    "trials-past-chunks": (depolarized_pair_state(0.1), 1000, 4801, 0.05, 8),
}


@pytest.mark.parametrize("case", sorted(NOISE_CASES))
def test_counting_noise_kernel_equals_reference(case, monkeypatch):
    source, trials, batch, deviation, seed = NOISE_CASES[case]
    probs, values = source if isinstance(source, tuple) else noise_inputs(monkeypatch, source)
    rng, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    got = _noise_gap_core(probs, values, trials, batch, deviation, rng)
    expected = reference_noise_gap_core(probs, values, trials, batch, deviation, rng_ref)
    assert got == expected
    assert rng.bit_generator.state == rng_ref.bit_generator.state
