import copy
import itertools
import json
import math
import pickle
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from diqkd import protocol
from diqkd.chsh import chsh_measurement, t_sign
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
    _BUCKET_BITS,
    _CHUNK,
    _PLANES,
    _SPELLINGS,
    _SPLIT,
    _below,
    _bucket_table,
    _candidates,
    _digit_rows,
    _indices,
    _join_rows,
    _json_naturals,
    _noise_gap_core,
    _pmf_table,
    _popcount,
    _select,
    _thresholds,
    depolarized_pair_state,
    estimate_chsh,
    ideal_pair_state,
    insufficient_pulses,
    joint_outcome_pmf,
    label_stage,
    outcomes_from_uniforms,
    povm_noise_experiment,
    qber,
    run_protocol,
)
from diqkd.rates import ProtocolParams, syndrome_budget
from helpers import count_bit_generators, pack_pulses, parting, pulses, random_density
from spec import outcome_codes, spec_run

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
        """A transcript of ``small_params()`` whose first pulses are these sample rounds.

        Bob's label is set unless he measured z'; the other pulses are
        unlabeled, in z and z', with outcome +1.
        """
        n, big_n = len(ra), small_params().pulse_pairs
        rounds = (np.ones(n, bool), np.not_equal(bases_b, 0), bases_a, bases_b, ra, rb)
        padded = [np.concatenate([a, np.zeros(big_n - n, np.asarray(a).dtype)]) for a in rounds]
        return Transcript(
            schema_version=1,
            params=small_params(),
            strategy={"kind": "test"},
            seed=0,
            **pack_pulses(*padded),
            i_smp=np.arange(n),
        )

    def test_plane_of_too_few_pulses_rejected(self):
        # 3 pulses under small_params(), which has 5,443: unpacking would pad them with zeros
        ones = np.ones(3, bool)
        planes = pack_pulses(ones, ones, [0, 1, 0], [1, 2, 0], [1, -1, 1], [1, 1, -1])
        with pytest.raises(ValueError, match="labels_a must be a uint8 plane of 681 bytes"):
            Transcript(1, small_params(), {"kind": "test"}, 0, **planes)

    @pytest.mark.parametrize(
        "name, plane",
        [("bases_b", np.zeros(681, dtype=np.int8)), ("outcomes_a", np.zeros((681, 1), np.uint8))],
        ids=["int8", "2-d"],
    )
    def test_plane_of_other_dtype_or_shape_rejected(self, name, plane):
        t = self.build([0], [1], [1], [1])
        planes = {p: getattr(t, p) for p in _PLANES} | {name: plane}
        with pytest.raises(ValueError, match=f"{name} must be a uint8 plane"):
            Transcript(1, t.params, t.strategy, 0, **planes)

    @pytest.mark.parametrize("ra, rb", [(1, 1), (1, -1), (-1, 1), (-1, -1)])
    @pytest.mark.parametrize("cb", range(len(BOB_BASES)))
    @pytest.mark.parametrize("ca", range(len(ALICE_BASES)))
    def test_one_round_sign_convention(self, ca, cb, ra, rb):
        t = self.build([ca], [cb], [ra], [rb])
        assert [pulses(t)[name][0] for name in _PLANES] == [1, cb > 0, ca, cb, ra, rb]
        assert estimate_chsh(t) == ra * rb * (-1) ** t_sign(ALICE_BASES[ca], BOB_BASES[cb])

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

    def test_pickle_and_deep_copy_hold_the_planes(self):
        # they carry the regrown planes, not the source (whose operator views
        # would not pickle)
        t = run_protocol(small_params(), DepolarizingSource(0.03), seed=11)
        for copied in (pickle.loads(pickle.dumps(t)), copy.deepcopy(t)):
            assert set(_PLANES) <= set(vars(copied)) and copied.to_json() == t.to_json()

    def test_transcripts_compare_by_identity(self):
        # to_json is what compares content; == does not compare arrays
        t = run_protocol(small_params(), DepolarizingSource(0.03), seed=11)
        assert t == t
        assert (t == copy.deepcopy(t)) is False

    @pytest.mark.parametrize("s0", [0.0, 0.7], ids=["completed", "chsh-abort"])
    def test_stored_arrays_and_regrown_planes_are_read_only(self, s0):
        # the bases and outcomes are regrown from the run's own label planes,
        # so a write into those before the first read would change them
        t = run_protocol(small_params(s0=s0), DepolarizingSource(0.03), seed=11)
        assert t.abort == (None if s0 == 0.0 else ABORT_CHSH)
        stored = [*_PLANES, "i_smp", "i_sif"] + ["sifted_key", "bob_raw"] * (t.abort is None)
        for name in stored:
            with pytest.raises(ValueError, match="read-only"):
                getattr(t, name)[:1] = 0xFF
        # planes a caller passes are theirs, and left as they are
        planes = {name: getattr(t, name).copy() for name in _PLANES}
        given = Transcript(1, t.params, t.strategy, t.seed, **planes)
        assert all(getattr(given, name).flags.writeable for name in _PLANES)

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="^seed must be a non-negative integer"):
            run_protocol(small_params(), DepolarizingSource(0.03), seed=-1)

    @pytest.mark.parametrize("seed", [True, np.bool_(False), 2.5, np.float64(3.0), "3"], ids=repr)
    def test_rejects_bool_or_non_integral_seed(self, seed):
        # numpy would run True as seed 1 and die on 2.5 naming no argument
        for stage in (run_protocol, lambda params, source, seed: label_stage(params, seed)):
            with pytest.raises(ValueError, match="^seed must be a non-negative integer"):
                stage(small_params(), DepolarizingSource(0.03), seed=seed)

    @pytest.mark.parametrize("seed", [np.int64(11), np.uint64(11), 2**64 + 11], ids=repr)
    def test_integer_seeds_of_any_type_or_size_run(self, seed):
        t = run_protocol(small_params(), DepolarizingSource(0.03), seed=seed)
        assert t.seed == int(seed) and type(t.seed) is int
        if seed == 11:
            same = run_protocol(small_params(), DepolarizingSource(0.03), seed=11)
            assert t.to_json() == same.to_json()

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
            # the model's verdict; the hash is drawn from the stream and not applied
            assert t.fcor_match is True
            assert (t.fcor["in_len"], t.fcor["out_len"]) == (params.n, 8)  # eps_cor = 2^-8
            # Bob's corrected string is Alice's, shared and read-only, not a copy
            assert t.corrected_key is t.sifted_key and not t.sifted_key.flags.writeable

    def test_positive_key_run(self):
        t = run_protocol(POSITIVE_KEY, DepolarizingSource(0.0), seed=7)
        assert t.abort is None
        assert len(t.secret_key_a) == t.key_report["l"] > 0
        # Bob's key is Alice's, shared and read-only: the sifted key is hashed once
        assert t.secret_key_b is t.secret_key_a and not t.secret_key_a.flags.writeable

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
            fcor = ToeplitzHash(**t.fcor)
            corrupted = t.corrected_key.copy()
            flips = rng.integers(0, params.n, size=3)
            corrupted[np.unique(flips)] ^= 1
            missed += np.array_equal(fcor(corrupted), fcor(t.sifted_key))
        p = 2.0**-8
        sigma = np.sqrt(p * (1 - p) / trials)
        assert missed / trials <= p + 3 * sigma


class TestMemorylessness:
    def test_measurement_kernel_commutes_with_permutation(self):
        rng = np.random.default_rng(10)
        words = np.random.PCG64(10).random_raw(500)
        rows = rng.integers(0, 6, 500).astype(np.uint8)
        perm = rng.permutation(500)
        # a pulse-axis table (every pulse compared exactly), and an i.i.d. one through its buckets
        per_pulse = _thresholds(rng.dirichlet(np.ones(4), size=(500, 6)))
        base = outcomes_from_uniforms(per_pulse, words, rows=rows)
        permuted = outcomes_from_uniforms(per_pulse[perm], words[perm], rows=rows[perm])
        assert np.array_equal(permuted, base[perm])
        iid = _thresholds(rng.dirichlet(np.ones(4), size=6))
        buckets = _bucket_table(iid)
        base = outcomes_from_uniforms(iid, words, rows=rows, buckets=buckets)
        permuted = outcomes_from_uniforms(iid, words[perm], rows=rows[perm], buckets=buckets)
        assert np.array_equal(permuted, base[perm])

    def test_row_index_matches_gathered_table(self):
        rng = np.random.default_rng(12)
        pmfs = rng.dirichlet(np.ones(4), size=6)
        table = _thresholds(pmfs)
        r = rng.integers(0, 6, 500).astype(np.uint8)
        words = np.random.PCG64(12).random_raw(500)
        got = outcomes_from_uniforms(table, words, rows=r, buckets=_bucket_table(table))
        # each pulse's own row gathered into a pulse-axis table of one row per pulse
        gathered = outcomes_from_uniforms(table[r][:, None], words, rows=np.zeros(500, np.uint8))
        assert got.dtype == np.uint8 and np.array_equal(got, gathered)
        assert np.array_equal(got, outcome_codes(pmfs[r], uniforms(words)))

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
    # the table is one Born-rule call per pair of bases, so every float agrees
    src = IID_SOURCES[kind]()
    table = _pmf_table(src, slice(None))
    assert table.shape == (6, 4)
    # an i.i.d. table ignores the pulse slice and serves every chunk whole
    assert np.array_equal(_pmf_table(src, slice(12345, 20000)), table)
    for r, (ca, cb) in enumerate((ca, cb) for ca in ALICE_BASES for cb in BOB_BASES):
        pmf = joint_outcome_pmf(src.rho, src.alice_ops[ca], src.bob_ops[cb])
        assert np.array_equal(table[r], pmf), (ca, cb)
    # the source built its integer tables from that table once, at construction
    thresholds, buckets = src.outcome_tables
    assert thresholds.dtype == np.uint64 and np.array_equal(thresholds, _thresholds(table))
    assert buckets.dtype == np.uint8 and np.array_equal(buckets, _bucket_table(thresholds))
    assert buckets.shape == (6, 1 << _BUCKET_BITS)


@pytest.mark.parametrize("kind", sorted(IID_SOURCES))
def test_iid_source_is_fixed_once_built(kind):
    # its tables are built once from rho and the operators, so none of them may change
    src = IID_SOURCES[kind]()
    for m in (src.rho, *src.alice_ops.values(), *src.bob_ops.values()):
        with pytest.raises(ValueError, match="read-only"):
            m[0, 0] = 0.5
    with pytest.raises(TypeError):
        src.bob_ops["x"] = src.bob_ops["z"]
    with pytest.raises(AttributeError, match="fixed once built"):
        src.rho = depolarized_pair_state(0.5)


def test_custom_table_equals_per_pulse_calls():
    rng = np.random.default_rng(15)
    pulses = 50
    states = [random_density(4, rng) for _ in range(pulses)]
    alphas = np.exp(1j * rng.uniform(0, 2 * np.pi, pulses))
    betas = np.exp(1j * rng.uniform(0, 2 * np.pi, pulses))
    src = CustomSource(states, alphas, betas)
    bases_a = rng.integers(0, 2, pulses).astype(np.int8)
    bases_b = rng.integers(0, 3, pulses).astype(np.int8)
    rows = bases_a * len(BOB_BASES) + bases_b
    whole = _pmf_table(src, slice(None))
    assert whole.shape == (pulses, 6, 4)
    # the whole run as one chunk, and chunks that start inside it: a chunk's
    # table is its slice of the whole one, bit for bit
    for start, stop in ((0, pulses), (17, 37), (37, pulses)):
        table = _pmf_table(src, slice(start, stop))
        assert np.array_equal(table, whole[start:stop])
        for i in range(start, stop):
            # the z operators are shared by every pulse, the x operators are per pulse
            op_a = np.broadcast_to(src.alice_ops[ALICE_BASES[bases_a[i]]], (pulses, 2, 2))[i]
            op_b = np.broadcast_to(src.bob_ops[BOB_BASES[bases_b[i]]], (pulses, 2, 2))[i]
            pmf = joint_outcome_pmf(states[i], op_a, op_b)
            assert np.array_equal(table[i - start, rows[i]], pmf), (start, i)


def test_custom_source_is_fixed_once_built():
    # a run's transcript regrows its planes from its source when read, so the
    # source copies its inputs: changing the caller's arrays after the run
    # (a complex array of states that np.asarray would alias) changes nothing
    rng = np.random.default_rng(16)
    params = ProtocolParams(n=200, q=0.4, delta=0.4, s0=-1.0, eps=1e-9, eps_cor=1e-9, l_syn=500)
    big_n = params.pulse_pairs
    states = np.array([depolarized_pair_state(p) for p in rng.uniform(0, 0.2, big_n)])
    alphas, betas = np.exp(1j * rng.uniform(0, 2 * np.pi, (2, big_n)))
    src = CustomSource(states, alphas, betas)
    t = run_protocol(params, src, seed=3)
    expected = run_protocol(params, CustomSource(states, alphas, betas), seed=3).to_json()
    states[:], alphas[:], betas[:] = identity(4) / 4, 1, 1j
    assert t.to_json() == expected
    assert src.outcome_tables is None  # its Born-rule rows are built per chunk
    for m in (src.rho, *src.alice_ops.values(), *src.bob_ops.values()):
        with pytest.raises(ValueError, match="read-only"):
            m[0, 0] = 0.5
    with pytest.raises(TypeError):
        src.bob_ops["x"] = src.bob_ops["z"]
    with pytest.raises(AttributeError, match="fixed once built"):
        src.rho = states


def uniforms(words: np.ndarray) -> np.ndarray:
    """``Generator.random``'s doubles of raw words, ``(w >> 11) 2^-53``."""
    return (words >> np.uint64(11)) * 2.0**-53


# values of w >> 11 per bucket of the bucket table
BUCKET = 1 << (53 - _BUCKET_BITS)


def pmfs_of(cums) -> np.ndarray:
    """Rows of four probabilities whose cumulative sums are ``cums``, multiples of 2^-53, exactly."""
    cums = np.asarray(cums, dtype=float)
    return np.diff(cums, axis=1, prepend=0.0, append=1.0)


def edge_pmfs() -> np.ndarray:
    """Six rows of thresholds: on bucket edges, a word below and above them,
    at 0 and between two words, past 1, and all three in one bucket."""
    edges = np.array([5, 100, 4000]) * BUCKET
    return np.concatenate(
        [
            pmfs_of([edges * 2.0**-53, (edges - 1) * 2.0**-53, (edges + 1) * 2.0**-53]),
            pmfs_of([[0.0, 0.1, 0.5]]),
            [[0.5, 0.25, 0.25 + 3 * 2.0**-54, 0.0]],  # the last cumulative sum rounds to 1 + 2^-52
            pmfs_of([np.array([7 * BUCKET + 3, 7 * BUCKET + 1000, 8 * BUCKET - 1]) * 2.0**-53]),
        ]
    )


def test_edge_pmfs_have_the_intended_cumulative_sums():
    cum = np.cumsum(edge_pmfs(), axis=1)
    assert np.array_equal(cum[1, :3] * 2.0**53, np.array([5, 100, 4000]) * BUCKET - 1)
    assert cum[3, :3].tolist() == [0.0, 0.1, 0.5] and cum[4, 2] > 1.0 and cum[:, 3].min() >= 1.0
    assert cum[3, 1] * 2.0**53 % 1 != 0  # 0.1 lies between two words
    assert len(set((cum[5, :3] * 2.0**53 // BUCKET).tolist())) == 1  # all three in one bucket
    thresholds = _thresholds(edge_pmfs())
    assert thresholds[4, 2] == 2**53 and thresholds[3, 0] == 0  # clipped, and at 0


def test_word_kernel_on_bucket_edges():
    pmfs = edge_pmfs()
    thresholds = _thresholds(pmfs)
    buckets = _bucket_table(thresholds)
    # the values of w >> 11 next to every threshold and at both ends of its
    # bucket, below 2^53, each under one of every row
    t = thresholds.astype(np.int64).ravel()
    starts = t // BUCKET * BUCKET
    m = np.concatenate([t - 2, t - 1, t, t + 1, starts, starts + BUCKET - 1])
    m = np.unique(np.clip(m, 0, 2**53 - 1))
    rng = np.random.default_rng(16)
    words = (m.astype(np.uint64) << np.uint64(11)) | rng.integers(0, 2**11, len(m), dtype=np.uint64)
    words, rows = np.repeat(words, 6), np.tile(np.arange(6, dtype=np.uint8), len(m))
    expected = outcome_codes(pmfs[rows], uniforms(words))
    # the exact path runs, on words in every split bucket of the table
    top = (words >> np.uint64(64 - _BUCKET_BITS)).astype(np.intp)
    keys = rows.astype(np.intp) * (1 << _BUCKET_BITS) + top
    split = np.flatnonzero(buckets == _SPLIT)
    assert len(split) > 0 and np.array_equal(np.intersect1d(keys, split), split)
    got = outcomes_from_uniforms(thresholds, words, rows=rows, buckets=buckets)
    assert np.array_equal(got, expected)
    assert np.array_equal(outcomes_from_uniforms(thresholds, words, rows=rows), expected)


@pytest.mark.parametrize("kind", ["edges"] + sorted(IID_SOURCES))
def test_bucket_table_exhaustive(kind):
    # every entry is the exact count at both ends of its bucket where they
    # agree, and the sentinel where they differ
    pmfs = edge_pmfs() if kind == "edges" else _pmf_table(IID_SOURCES[kind](), slice(None))
    buckets = _bucket_table(_thresholds(pmfs))
    lo = np.arange(1 << _BUCKET_BITS, dtype=np.uint64) * np.uint64(BUCKET)
    rows = np.repeat(np.arange(6), len(lo))
    first, last = (
        outcome_codes(pmfs[rows], uniforms(np.tile(m << np.uint64(11), 6))).reshape(6, -1)
        for m in (lo, lo + np.uint64(BUCKET - 1))
    )
    assert np.array_equal(buckets == _SPLIT, first != last)
    assert np.array_equal(buckets[first == last], first[first == last])
    assert 0 < (buckets == _SPLIT).sum() <= 18  # three thresholds per row


BELOW_CASES = {
    "float": 0.3,
    "fraction": Fraction(3, 10),
    "float32": np.float32(0.3),
    "half": 0.5,
    "past-a-double": Fraction(2702159776422297, 2**53) + Fraction(1, 10**30),
    "tiny": 5e-324,
}


@pytest.mark.parametrize("case", sorted(BELOW_CASES))
def test_label_bound_is_exact(case):
    # w < bound exactly when (w >> 11) 2^-53 < q, in rational arithmetic, for every real q
    q = BELOW_CASES[case]
    exact = Fraction(*q.as_integer_ratio())
    ceil = math.ceil(exact * 2**53)
    bound = _below(q)
    assert bound.dtype == np.uint64 and int(bound) == ceil << 11
    for m in (ceil - 1, ceil):
        for low in (0, 2**11 - 1):
            w = np.uint64(m << 11 | low)
            assert bool(w < bound) == (Fraction(m, 2**53) < exact), (m, low)


def pulse_params(big_n: int, q: float = 0.2, fill: float = 0.7) -> ProtocolParams:
    """Parameters of exactly ``big_n`` pulses whose n is ``fill`` of the expected sifted count.

    At the default fill the label margins are wide and the run completes.
    """
    n = round(fill * big_n * (1 - float(q)) ** 2)
    delta = 1 - n / ((big_n - 0.5) * (1 - float(q)) ** 2)
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


# The cases that hold each run to its definition, spec_run (tests/spec.py), by
# the test that runs them: a case is the _CHUNK its runs run at and a function
# that gives them, each (params, source, seed, abort code, whether l > 0).
OFFSETS = {"C-1": (1, -1), "C": (1, 0), "C+1": (1, 1), "2C+7": (2, 7)}
SMALL = 64


def edge_case(kind: str, edge: str, q=0.2, fill: float = 0.7, chunk: int = _CHUNK) -> tuple:
    big_n, source = OFFSETS[edge][0] * chunk + OFFSETS[edge][1], PULSE_SOURCES[kind]
    return "edges", chunk, lambda: [(pulse_params(big_n, q, fill), source(big_n), 7, None, False)]


def exit_case(params, source, seed, abort=None, keyed=False) -> tuple:
    return "exits", _CHUNK, lambda: [(params, source, seed, abort, keyed)]


def with_pulse_residue(params: ProtocolParams, r: int) -> ProtocolParams:
    """``params`` at the first n from its own whose pulse count is ``r`` mod 8."""
    bigger = (replace(params, n=n) for n in itertools.count(params.n))
    return next(p for p in bigger if p.pulse_pairs % 8 == r)


def residue_runs(r: int) -> list:
    """Every exit at 8000 + r pulses (1000 plane bytes, 2000 of Bob's nibble rows,
    and r pulses spelled through the per-pulse tokens), and a keyed run at r mod 8,
    except at r = 3, where the keyed run is the "positive-key" case's own."""
    params, short = pulse_params(8000 + r), pulse_params(8000 + r, fill=0.99)
    keyed = with_pulse_residue(POSITIVE_KEY, r)
    runs = [(params, source(8000 + r), r, None, False) for source in PULSE_SOURCES.values()]
    # the first seed whose labels abort, and the first from 7 whose keyed run
    # completes: at POSITIVE_KEY's margins some seeds abort
    runs += [
        (replace(params, s0=0.7), DepolarizingSource(0.3), r, ABORT_CHSH, False),
        (short, DepolarizingSource(0.05), (5, 0, 7, 8, 0, 4, 0, 1)[r], ABORT_INSUFFICIENT, False),
    ]
    if keyed != POSITIVE_KEY:
        runs.append((keyed, DepolarizingSource(0.0), (7, 7, 7, 7, 7, 7, 7, 9)[r], None, True))
    assert [p.pulse_pairs % 8 for p, *_ in runs] == [r] * (5 + (r != 3))
    return runs


RUN_CASES = {
    # the i.i.d. sources at the shipped chunk, where a pulse's offset within its
    # chunk reaches the uint16 edge 2^16, and every source at a chunk of 64 pulses,
    # where q = 0.3 and a sifted fill of 0.5 let runs of 63-135 pulses complete;
    # labels at q = 3/10 given exactly and as a float32
    **{f"{kind}-{edge}": edge_case(kind, edge) for kind in IID_SOURCES for edge in OFFSETS},
    "custom-C+1": edge_case("custom", "C+1"),
    "depolarizing-C+1-q=3/10": edge_case("depolarizing", "C+1", Fraction(3, 10)),
    **{
        f"{kind}-{edge}-C={SMALL}": edge_case(kind, edge, 0.3, 0.5, SMALL)
        for kind in PULSE_SOURCES
        for edge in OFFSETS
    },
    f"custom-2C+7-q=float32-C={SMALL}": edge_case("custom", "2C+7", np.float32(0.3), 0.5, SMALL),
    # every exit of run_protocol, every source kind, and numpy and Fraction inputs
    "completed-depolarizing": exit_case(small_params(), DepolarizingSource(0.05), 21),
    "completed-misaligned": exit_case(small_params(), IID_SOURCES["misaligned"](), 22),
    "positive-key": exit_case(POSITIVE_KEY, DepolarizingSource(0.0), 7, keyed=True),
    "insufficient-pulses": exit_case(
        small_params(delta=0.002, l_syn=500), DepolarizingSource(0.05), 1, ABORT_INSUFFICIENT
    ),
    "chsh-failed": exit_case(small_params(s0=0.70), DepolarizingSource(0.3), 3, ABORT_CHSH),
    "custom": exit_case(pulse_params(1000), pulse_axis_source(1000), 4),
    "numpy-inputs": exit_case(
        small_params(n=np.int64(2000), q=np.float32(0.25), l_syn=np.int64(2000)),
        DepolarizingSource(0.05),
        np.int64(21),
    ),
    "fraction-q": exit_case(small_params(q=Fraction(1, 4)), DepolarizingSource(0.05), 21),
    # every exit at each pulse count mod 8
    **{str(r): ("residues", _CHUNK, partial(residue_runs, r)) for r in range(8)},
}


def check_runs(case: str, monkeypatch) -> list:
    """The documents of the runs of ``RUN_CASES[case]``, each checked against its definition."""
    _, chunk, runs = RUN_CASES[case]
    monkeypatch.setattr(protocol, "_CHUNK", chunk)
    texts = []
    for params, source, seed, abort, keyed in runs():
        t = run_protocol(params, source, seed)
        # the run holds no basis or outcome plane, and its CHSH estimate is
        # the one estimate_chsh reads from the planes regrown on first read
        assert not set(_PLANES[2:]) & set(vars(t))
        if abort != ABORT_INSUFFICIENT:
            assert estimate_chsh(t) == t.s_est and type(t.s_est) is float
        held = {name: getattr(t, name) for name in _PLANES}
        assert all(getattr(t, name) is plane for name, plane in held.items())
        assert not any(plane.flags.writeable for plane in held.values())
        again = Transcript(1, params, t.strategy, t.seed, t.labels_a, t.labels_b, source=source)
        assert all(getattr(again, name).tobytes() == held[name].tobytes() for name in _PLANES)
        text, doc = t.to_json(), spec_run(params, source, seed)
        # a flag, since pytest would diff documents of megabytes for minutes
        same = text == (spec := json.dumps(doc))
        assert same, parting(text, spec, doc)
        assert t.abort == abort
        big_n = params.pulse_pairs
        for name in _PLANES:
            # one bit per pulse: N/8 bytes rounded up, the last byte's padding clear
            plane = getattr(t, name)
            assert plane.dtype == np.uint8 and plane.shape == (-(-big_n // 8),), name
            assert not np.unpackbits(plane, bitorder="little")[big_n:].any(), name
        # the records are JSON-native whatever numeric types the inputs had (doc
        # is what json.loads gives back); an aborted run's secret key is null, a
        # completed run's a list of l bits
        assert doc["seed"] == t.seed and doc["params"]["q"] == float(t.params.q)
        if abort is None:
            assert (t.key_report["l"] > 0) == keyed == (t.fpa is not None)
            assert len(doc["secret_key_a"]) == t.key_report["l"]
            assert t.sifted_key.dtype == t.bob_raw.dtype == np.uint8
        else:
            assert doc["secret_key_a"] is None
        texts.append(text)
    return texts


def cases_of(part: str) -> list:
    return [case for case, (p, _, _) in RUN_CASES.items() if p == part]


@pytest.mark.parametrize("case", cases_of("edges"))
def test_chunked_pulse_stage_equals_whole_array_draws(case, monkeypatch):
    check_runs(case, monkeypatch)


@pytest.mark.parametrize("case", cases_of("exits"))
def test_to_json_equals_one_json_dumps(case, monkeypatch):
    (text,) = check_runs(case, monkeypatch)
    if case in ("numpy-inputs", "fraction-q"):
        # the run given as Python ints and floats
        assert text == run_protocol(small_params(q=0.25), DepolarizingSource(0.05), 21).to_json()


@pytest.mark.parametrize("case", cases_of("residues"))
def test_to_json_at_every_pulse_count_mod_8(case, monkeypatch):
    check_runs(case, monkeypatch)


def test_run_reads_its_streams_in_order_from_three_bit_generators(monkeypatch):
    # one for the labels (streams 0-1), one that reads the coins and outcomes
    # (streams 2-4) in lockstep, hopping between them chunk by chunk, and one
    # for the selection and the hash seeds; a keyed run's privacy
    # amplification apply seeds a fourth
    big_n = 2 * _CHUNK + 7
    built = count_bit_generators(monkeypatch)
    t = run_protocol(pulse_params(big_n), DepolarizingSource(0.02), seed=7)
    assert t.abort is None and t.key_report["l"] == 0
    assert built == [(7,)] * 3
    built.clear()
    t = run_protocol(POSITIVE_KEY, DepolarizingSource(0.0), seed=7)
    assert t.key_report["l"] > 0
    assert built == [(7,)] * 3 + [(t.fpa["seed"],)]


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


# the sifted candidate plane of a run's labels, ~(labels_a | labels_b) with its
# padding bits cleared: N % 8 = 3 in one chunk, and N % 8 = 5 over four chunks
LABEL_SELECTIONS = {"padding": 1003, "four-chunks": 3 * _CHUNK + 5}


def selection_cases():
    for case in sorted(SELECTIONS):
        size, k = SELECTIONS[case]
        pop = np.flatnonzero(np.random.default_rng(size).random(3 * size) < 0.5)[:size]
        assert len(pop) == size
        cand = np.zeros(3 * size, dtype=bool)
        cand[pop] = True
        yield pytest.param(np.packbits(cand, bitorder="little"), size, 3 * size, k, id=case)
    for case, big_n in LABEL_SELECTIONS.items():
        params = pulse_params(big_n)
        _, sifted = _candidates(params, *label_stage(params, seed=big_n))
        yield pytest.param(*sifted, big_n, params.n, id=case)


@pytest.mark.parametrize("cand, count, big_n, k", selection_cases())
def test_masked_selection_equals_sorted_choice(cand, count, big_n, k):
    pop = np.flatnonzero(np.unpackbits(cand, count=big_n, bitorder="little"))
    # the count is the plane's popcount: no padding bit is set
    assert len(pop) == count == np.count_nonzero(np.unpackbits(cand))
    for seed in range(3):
        rng_ref, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        expected = np.sort(rng_ref.choice(pop, size=k, replace=False))
        sel = _select(rng, cand, count, big_n, k)
        # one array of uint16 offsets per chunk of pulses
        assert len(sel) == -(-big_n // _CHUNK) and all(a.dtype == np.uint16 for a in sel)
        got = _indices(sel)
        assert got.dtype == np.int64 and np.array_equal(got, expected)
        assert rng.bit_generator.state == rng_ref.bit_generator.state


def test_pulse_stage_memory_is_chunk_bounded():
    # N = 2e6 pulses and l = 0 (s0 = 0 makes the entropy bound vacuous).  The
    # peak is Generator.choice's own while it draws the sifted pulses (20.0 MB
    # for 1.28e6 candidates), beside the label and candidate planes (0.25 MB
    # each; 20.9 MB traced in all).  An unpacked candidate mask and int64
    # candidate indices beside the draw gave 24.4 MB.  The one-pass walk over
    # streams 2-4, which holds one chunk of words at a time, runs after it,
    # and the run keeps only its two one-bit label planes (0.5 MB).
    # The six one-byte pulse arrays that a run held before (12 MB) would not
    # fit under the bound, nor would whole-array float64 draws or per-pulse
    # thresholds (16 MB each).
    params = ProtocolParams(
        n=1_216_000, q=0.2, delta=0.05, s0=0.0, eps=1e-9, eps_cor=1e-9, l_syn=10**6
    )
    assert params.pulse_pairs == 2_000_000
    run_protocol(small_params(), DepolarizingSource(0.02), seed=0)  # first-call allocations
    tracemalloc.start()
    try:
        t = run_protocol(params, DepolarizingSource(0.02), seed=0)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert t.abort is None and t.key_report["l"] == 0
    assert peak < 23e6, peak
    # What the returned run holds is its label planes, index lists and keys
    # (13.27 MB), and O(_CHUNK) beside them (32 KB, the source's tables among
    # them): the four basis and outcome planes (1 MB) are regrown when read.
    arrays = (t.labels_a, t.labels_b, t.i_smp, t.i_sif, t.sifted_key.base, t.secret_key_a)
    assert t.sifted_key.base is t.bob_raw.base
    assert held < sum(a.nbytes for a in arrays) + 2 * _CHUNK, held


def test_lockstep_walks_hold_one_chunk_of_words():
    # Each walk over streams 2-4 reduces a chunk of one stream's words (to
    # coins, or at the chosen offsets) before it draws the next stream's, so
    # beside what it returns it peaks under four chunks of words (2.7 and 3.3
    # at N = 4 C + 7).  Drawing a chunk of all three streams before reducing
    # any holds three chunks of words at once, and peaked at 4.9 and 5.3.
    big_n, source = 4 * _CHUNK + 7, DepolarizingSource(0.02)
    params = pulse_params(big_n)
    labels = label_stage(params, seed=3)
    rng = np.random.Generator(np.random.PCG64(3).advance(5 * big_n))
    sizes = (params.l_smp, params.n)
    sel = [_select(rng, *cand, big_n, k) for cand, k in zip(_candidates(params, *labels), sizes)]
    walks = {
        "_rounds": partial(protocol._rounds, source, 3, big_n, *sel),
        "_pulse_stage": partial(protocol._pulse_stage, source, 3, big_n, *labels),
    }
    for name, walk in walks.items():
        walk()  # first-call allocations
        tracemalloc.start()
        try:
            out = walk()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        returned = sum(a.nbytes for a in (out[1:] if name == "_rounds" else out.values()))
        assert peak < returned + 4 * 8 * _CHUNK, (name, (peak - returned) / (8 * _CHUNK))


def test_key_run_memory_is_the_sifted_draw():
    # n = 1e6 with a 17,015-bit key.  The traced peak is Generator.choice's
    # own while it draws the sifted pulses: an int64 arange of the candidates
    # and a copy of its chosen tail, at most 16 bytes per candidate (16.2 MB
    # here).  Beside it the run holds the label and candidate planes (0.2 MB
    # each) and the sample selection: 16.8 MB traced in all.  Holding the
    # unpacked candidate mask across the draw, the candidates' int64 indices
    # after it, and the int64 i_sif through both hashes gave 19.6 MB.
    n = 1_000_000
    params = ProtocolParams(
        n=n, q=0.2, delta=0.01, s0=0.69, eps=1e-3, eps_cor=1e-3, l_syn=syndrome_budget(n, 0.005, 1)
    )
    labels_a, labels_b = label_stage(params, seed=0)
    candidates = params.pulse_pairs - _popcount(labels_a | labels_b)
    tracemalloc.start()
    try:
        t = run_protocol(params, DepolarizingSource(0.002), seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert t.abort is None and t.key_report["l"] > 0
    # 2 MB of slack: the planes, the sample selection and the chunk temporaries
    assert peak < 16 * candidates + 2e6, peak


def test_custom_source_memory_is_chunk_bounded():
    # The Born-rule table of a pulse-axis source is built one chunk at a
    # time, one pair of bases per call, over the chunk's pulses whose outcomes
    # the run draws, and a call costs about 1.2 KB per pulse (the 4x4 complex
    # products of one pair): 52 MB traced for the run over 2 C + 7 pulses, and
    # 81 MB for a whole chunk's table, as regrowing the transcript's planes
    # builds it.  One call broadcast over all six pairs cost about 4.8 KB per
    # pulse: 318 MB a chunk, 328 MB the run.
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
    assert peak < 150e6, peak


def test_json_list_spells_basis_labels():
    # random basis codes, Bob's x only where his label is set, spelled from
    # the packed planes with and without a partial last byte
    rng = np.random.default_rng(6)
    for big_n in (8000, 8003):
        labels = rng.random((2, big_n)) < 0.5
        bases_a = rng.integers(0, 2, big_n)
        bases_b = labels[1].astype(int) + (labels[1] & (rng.random(big_n) < 0.5))
        signs = np.ones(big_n)
        planes = pack_pulses(*labels, bases_a, bases_b, signs, signs)
        doc = json.loads(Transcript(1, pulse_params(big_n), {"kind": "test"}, 0, **planes).to_json())
        assert doc["bases_a"] == [ALICE_BASES[c] for c in bases_a]
        assert doc["bases_b"] == [BOB_BASES[c] for c in bases_b]


def test_spelling_rows_join_their_pulse_tokens():
    # row v of a byte table spells the eight pulses of a plane byte v, pulse j its bit j
    values = dict.fromkeys(_PLANES[:2], (0, 1)) | dict.fromkeys(_PLANES[4:], (1, -1))
    for name, vals in (values | {"bases_a": ALICE_BASES}).items():
        rows = _SPELLINGS[name][2]
        for v in range(256):
            tokens = [json.dumps(vals[v >> j & 1]) + ", " for j in range(8)]
            assert rows[v] == "".join(tokens).encode()
    # Bob's row of a label nibble below an x nibble: four pulses, each code
    # label plus x, at every valid (label, x) pair of each pulse
    rows = _SPELLINGS["bases_b"][2]
    for pulses4 in itertools.product([(0, 0), (1, 0), (1, 1)], repeat=4):
        v = sum(label << j | x << (j + 4) for j, (label, x) in enumerate(pulses4))
        assert rows[v] == "".join(json.dumps(BOB_BASES[sum(p)]) + ", " for p in pulses4).encode()
    # the NUL strip runs for the lists whose rows differ in width
    ragged = [name for name in _PLANES if _SPELLINGS[name][3]]
    assert ragged == ["bases_b", "outcomes_a", "outcomes_b"]


def test_to_json_peak_is_bounded_by_the_document():
    # the mc-1e5 benchmark's shape: N = 100,000 pulses and a 3.17 MB document.
    # The traced peak is the lists' text beside the joined document, 2.01
    # times the document's length (6.37 MB); a writer that unpacked all six
    # planes peaked at 2.19 times (6.94 MB).
    params = ProtocolParams(
        n=46550, q=0.3, delta=0.05, s0=0.0, eps=1e-9, eps_cor=1e-9, f_ec=1.0, l_syn=100_000
    )
    t = run_protocol(params, DepolarizingSource(0.02), seed=1)
    assert params.pulse_pairs == 100_000 and t.abort is None
    tracemalloc.start()
    try:
        text = t.to_json()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.15 * len(text), (peak, len(text))


def joined(pieces) -> str:
    """The text of a JSON list given as pieces."""
    return "".join(pieces)


INT64 = np.iinfo(np.int64)
POWERS = [10**k for k in range(19)]
JSON_LISTS = {
    "empty": np.array([], dtype=np.int64),
    "empty-bool": np.array([], dtype=bool),
    "single": np.array([7], dtype=np.int64),
    "bool": np.array([True, False, False, True]),
    "uint8-0-255": np.array([0, 255, 255, 0, 17], dtype=np.uint8),
    "powers-of-ten": np.array(
        [v for x in POWERS for v in (x - 1, x, x + 1)], dtype=np.int64
    ),
    "int64-max": np.array([INT64.max - 3, INT64.max], dtype=np.int64),
    "uint64-max": np.array([0, np.iinfo(np.uint64).max], dtype=np.uint64),
}


@pytest.mark.parametrize("case", sorted(JSON_LISTS))
def test_json_list_equals_json_dumps(case):
    a = JSON_LISTS[case]
    expected = json.dumps((a.view(np.int8) if a.dtype == bool else a).tolist())
    assert joined(_json_naturals(a)) == expected


@pytest.mark.parametrize("dtype", [np.int8, np.int32, np.int64, np.uint16, np.uint64])
def test_json_list_random_values(dtype):
    # from 0: the arrays a transcript holds beside its planes are key bits and indices
    info = np.iinfo(dtype)
    a = np.random.default_rng(5).integers(0, info.max, 2000, dtype=dtype, endpoint=True)
    assert joined(_json_naturals(a)) == json.dumps(a.tolist())


def int64_examples(test):
    """``test`` with the int64 cases above as examples: empty, 0, 10^k +- 1, 2^63 - 1."""
    for a in JSON_LISTS.values():
        test = example(a)(test) if a.dtype == np.int64 else test
    return test


@int64_examples
@settings(deadline=None)
@given(hnp.arrays(np.int64, st.integers(0, 40), elements=st.integers(0, INT64.max)))
def test_digit_rows_equals_json_dumps(a):
    assert joined(_join_rows([_digit_rows(a)])) == json.dumps(a.tolist())


@pytest.mark.parametrize("dtype", [bool, np.uint8, np.int64, np.uint64])
def test_json_list_packs_bit_strings_of_every_length(dtype):
    # a 0/1 array (a key string) is packed and spelled eight bits per row of
    # the bit table, its last partial byte bit by bit: every length mod 8
    bits = np.random.default_rng(6).integers(0, 2, 40).astype(dtype)
    for k in range(len(bits) + 1):
        assert joined(_json_naturals(bits[:k])) == json.dumps(bits[:k].astype(int).tolist())


@pytest.mark.parametrize("a", [np.zeros(3), np.zeros((2, 2), dtype=np.int8)], ids=["float", "2-d"])
def test_json_list_rejects_non_integer_or_multi_dim(a):
    with pytest.raises(TypeError):
        _json_naturals(a)


def test_to_json_rejects_negative_index():
    t = run_protocol(small_params(), DepolarizingSource(0.05), seed=0)
    t.i_sif = np.array([3, -1])
    with pytest.raises(ValueError, match="non-negative"):
        t.to_json()


def test_popcount_counts_every_byte_value():
    # every byte value once, and a plane that spans two chunks of bytes
    long_plane = np.random.default_rng(3).integers(0, 256, _CHUNK + 1001, dtype=np.uint8)
    for plane in (np.arange(256, dtype=np.uint8), long_plane):
        assert _popcount(plane) == int(np.unpackbits(plane).sum())


def label_abort(params, seed: int) -> bool:
    """Whether run ``seed`` aborts with ``insufficient_pulses``, from its label stage alone."""
    return insufficient_pulses(params, *label_stage(params, seed))


class TestAbortFrequency:
    def test_chernoff_bound_holds_at_protocol_scale(self):
        from diqkd.rates import chernoff_abort_bound

        params = ProtocolParams(
            n=4410, q=0.3, delta=0.1, s0=0.0, eps=1e-9, eps_cor=1e-9, l_syn=5000
        )
        assert params.pulse_pairs == 10_000
        bound = chernoff_abort_bound(params).corrected_bound
        aborts = sum(label_abort(params, s) for s in range(1000))
        assert aborts / 1000 <= bound

    def test_label_stage_decides_as_run_protocol(self):
        # a margin this thin makes about half the runs abort
        params = ProtocolParams(
            n=4410, q=0.3, delta=0.01, s0=0.0, eps=1e-9, eps_cor=1e-9, l_syn=5000
        )
        src = DepolarizingSource(0.0)
        decided = [label_abort(params, s) for s in range(400)]
        aborted = [run_protocol(params, src, s).abort == ABORT_INSUFFICIENT for s in range(400)]
        assert decided == aborted
        assert 100 < sum(aborted) < 300


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

    @pytest.mark.parametrize(
        "rho",
        [np.zeros((4, 4)), -identity(4) / 4, np.diag([2.0, -1.0, 0.0, 0.0])],
        ids=["zero", "negative", "unit-trace-not-psd"],
    )
    def test_rejects_non_density_state(self, rho):
        # a zero or negative state would give 0/0 probabilities, a non-PSD one
        # a plausible report
        m = chsh_measurement(-1j, -1j)
        with pytest.raises(ValueError, match="rho"):
            povm_noise_experiment(m, rho, trials=1, rng=np.random.default_rng(0))

    @pytest.mark.parametrize("deviation", [-0.5, float("nan"), float("inf")])
    def test_rejects_bad_deviation(self, deviation):
        # a negative deviation makes every gap a tail event, a false Azuma failure
        m = chsh_measurement(-1j, -1j)
        with pytest.raises(ValueError, match="deviation"):
            povm_noise_experiment(
                m, identity(4) / 4, trials=1, rng=np.random.default_rng(0), deviation=deviation
            )


@pytest.mark.parametrize(
    ("trials", "batch", "bound"),
    # 2000 x 4800 is the README bounds-check and the mc-1e5 size.  Per-pulse
    # float64 draws, index and coin arrays would peak at 50.7 MB there, and at
    # 50.0 MB for one 2,000,001-pulse row.  Counts of all 200,000 trials at
    # once would peak at about 20 MB; blocks of _CHUNK trials keep it near 7 MB.
    [(2000, 4800, 8e6), (2, 2_000_001, 25e6), (200_000, 10, 10e6)],
    ids=["readme", "row-past-chunk", "trials-past-block"],
)
def test_noise_experiment_memory_is_block_bounded(trials, batch, bound):
    m, rho = chsh_measurement(-1j, -1j), depolarized_pair_state(0.0)
    tracemalloc.start()
    try:
        povm_noise_experiment(m, rho, trials=trials, rng=np.random.default_rng(0), batch_size=batch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound, peak


BELL_VALUES = chsh_measurement(-1j, -1j).bell_values
# (probs, values, batch_size): the Bell outcome law of the ideal state, of the
# maximally mixed state, a skewed law whose last outcome takes the mass that
# the others leave (0.4), and single-pulse batches
ORACLE_CASES = {
    "ideal": (np.array([0.5 + SQRT2 / 4, 0.5 - SQRT2 / 4, 0.0, 0.0]), BELL_VALUES, 4800),
    "mixed": (np.full(4, 0.25), BELL_VALUES, 480),
    "skewed": (np.array([0.1, 0.2, 0.3, 0.0]), np.array([0.3, -0.7, 1.0, -0.2]), 301),
    "batch-one": (np.array([0.4, 0.3, 0.2, 0.1]), BELL_VALUES, 1),
}


def oracle_moments(probs, values, batch):
    """Mean of both tests' batch means, their variances, and the variance of their gap.

    Given its Bell outcome c, a pulse's randomized test is a +-1 coin of mean
    v_c and variance 1 - v_c**2, so ``Var(g2 - g3) = (1 - sum p_c v_c**2) / batch``.
    """
    p = np.append(probs[:-1], 1.0 - probs[:-1].sum())
    mean, second = p @ values, p @ values**2
    return mean, (1.0 - mean**2) / batch, (second - mean**2) / batch, (1.0 - second) / batch


def within(x, expected, sigma) -> bool:
    # a zero sigma (one certain outcome) asks for the exact value, up to rounding
    return abs(x - expected) <= 5.0 * sigma + 1e-12


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_noise_gap_matches_the_coin_law(case):
    probs, values, batch = ORACLE_CASES[case]
    mean, var2, var3, var_gap = oracle_moments(probs, values, batch)
    rng = np.random.default_rng(16)
    # one trial per call: each report's two means are that trial's g2 and g3
    reps = [_noise_gap_core(probs, values, 1, batch, 0.1, rng) for _ in range(4000)]
    g2 = np.array([rep.mean_s_randomized for rep in reps])
    g3 = np.array([rep.mean_s_projective for rep in reps])
    gap = g2 - g3
    trials = len(reps)
    assert within(g2.mean(), mean, np.sqrt(var2 / trials))
    assert within(g3.mean(), mean, np.sqrt(var3 / trials))
    assert within(gap.mean(), 0.0, np.sqrt(var_gap / trials))
    # the sample variance against its own standard error
    var = gap.var(ddof=1)
    m4 = np.mean((gap - gap.mean()) ** 4)
    assert within(var, var_gap, np.sqrt((m4 - var**2) / trials))


def test_noise_gap_means_across_blocks():
    probs, values, _ = ORACLE_CASES["skewed"]
    batch, trials = 10, _CHUNK + 1000
    mean, var2, var3, _ = oracle_moments(probs, values, batch)
    rep = _noise_gap_core(probs, values, trials, batch, 0.1, np.random.default_rng(17))
    assert within(rep.mean_s_randomized, mean, np.sqrt(var2 / trials))
    assert within(rep.mean_s_projective, mean, np.sqrt(var3 / trials))
