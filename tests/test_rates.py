import math

import numpy as np
import pytest

from diqkd.rates import (
    ProtocolParams,
    asymptotic_rate,
    azuma_tail,
    binary_entropy,
    chernoff_abort_bound,
    chsh_test_deviation,
    device_dependent_rate,
    finite_key_length,
    leftover_bound,
    qber_threshold,
    sampling_deviation,
    smooth_min_entropy_bound,
    syndrome_budget,
    total_deviation,
)

SQRT2 = math.sqrt(2.0)


class TestBinaryEntropy:
    def test_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_half(self):
        assert binary_entropy(0.5) == 1.0

    def test_golden_value(self):
        assert binary_entropy(0.11) == pytest.approx(0.499915958164528, abs=1e-14)

    def test_symmetry(self):
        for p in np.linspace(0.01, 0.49, 25):
            assert binary_entropy(p) == pytest.approx(binary_entropy(1 - p), abs=1e-14)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            binary_entropy(-0.01)
        with pytest.raises(ValueError):
            binary_entropy(1.01)


class TestAsymptoticRate:
    def test_noiseless(self):
        assert asymptotic_rate(0.0, 1.0) == 1.0

    def test_golden_value(self):
        assert asymptotic_rate(0.02, 1.0) == pytest.approx(0.4990714375718739, abs=1e-12)

    def test_rejects_out_of_domain(self):
        with pytest.raises(ValueError):
            asymptotic_rate(0.3, 1.0)
        with pytest.raises(ValueError):
            asymptotic_rate(0.01, 0.9)

    def test_threshold_location(self):
        thr = qber_threshold(1.0)
        assert thr == pytest.approx(0.054640579896014604, abs=1e-9)
        assert abs(thr - 0.054) <= 0.001
        assert asymptotic_rate(thr, 1.0) == pytest.approx(0.0, abs=1e-9)

    def test_threshold_monotone_in_efficiency(self):
        assert qber_threshold(1.2) < qber_threshold(1.0)

    def test_strictly_decreasing_to_threshold(self):
        for f_ec in (1.0, 1.1, 1.2):
            grid = np.linspace(0.0, qber_threshold(f_ec), 1000)
            vals = [asymptotic_rate(p, f_ec) for p in grid]
            assert all(a > b for a, b in zip(vals, vals[1:]))


class TestDeviceDependentRate:
    def test_noiseless(self):
        assert device_dependent_rate(0.0, 1.0) == 1.0

    def test_root_near_eleven_percent(self):
        lo, hi = 0.05, 0.2
        for _ in range(60):
            mid = (lo + hi) / 2
            if device_dependent_rate(mid, 1.0) > 0:
                lo = mid
            else:
                hi = mid
        assert (lo + hi) / 2 == pytest.approx(0.11002786443835955, abs=1e-6)

    def test_dominates_device_independent_rate(self):
        for p in np.linspace(0.0, 0.14, 100):
            assert device_dependent_rate(p, 1.0) >= asymptotic_rate(p, 1.0) - 1e-14


class TestDeviations:
    def test_chsh_deviation_golden(self):
        assert chsh_test_deviation(4800, 2 / math.e) == pytest.approx(0.1, abs=1e-14)

    def test_chsh_deviation_decreasing(self):
        vals = [chsh_test_deviation(k, 1e-9) for k in (100, 1000, 10_000, 100_000)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_chsh_deviation_inverts_azuma_tail(self):
        # the deviation is exactly the inversion of the concentration tail:
        # exp(-l_smp delta^2 / 48) = eps'/2
        for l_smp, eps_prime in ((4800, 0.5), (1000, 1e-6), (123, 0.9)):
            ds = chsh_test_deviation(l_smp, eps_prime)
            assert azuma_tail(l_smp, ds) == pytest.approx(eps_prime / 2, rel=1e-12)

    def test_sampling_deviation_symmetric_point(self):
        for k in (10, 1000, 12345):
            expected = math.sqrt(2 * (k + 1)) / k
            assert sampling_deviation(k, k, 2 / math.e) == pytest.approx(expected, rel=1e-12)

    def test_sampling_deviation_vanishes(self):
        assert sampling_deviation(10**11, 10**9, 1e-9) < 1e-3
        assert sampling_deviation(100, 100, 1e-9) > 0.0

    def test_total_deviation_golden(self):
        assert total_deviation(10**6, 10**4, 1e-9) == pytest.approx(
            0.8413454462730151, rel=1e-12
        )

    def test_total_deviation_decomposition(self):
        # mu' = (1 + sqrt2) * delta_S(eps/3) + mu(eps/3), exactly
        for n, l_smp, eps in ((10**6, 10**4, 1e-9), (5000, 800, 1e-6), (10**8, 10**6, 1e-12)):
            lhs = total_deviation(n, l_smp, eps)
            rhs = (1 + SQRT2) * chsh_test_deviation(l_smp, eps / 3) + sampling_deviation(
                n, l_smp, eps / 3
            )
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_total_deviation_monotonicity_and_blowup(self):
        vals = [total_deviation(10**8, l, 1e-9) for l in (10**3, 10**4, 10**5, 10**6)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert total_deviation(10**6, 10**4, 1e-15) > total_deviation(10**6, 10**4, 1e-9)

    def test_positive(self):
        assert chsh_test_deviation(10, 0.5) > 0
        assert sampling_deviation(10, 10, 0.5) > 0
        assert total_deviation(10, 10, 0.5) > 0


def make_params(n, q, s0, eps=1e-9, eps_cor=1e-9, f_ec=1.0, l_syn=0, delta=0.01):
    return ProtocolParams(
        n=n, q=q, delta=delta, s0=s0, eps=eps, eps_cor=eps_cor, f_ec=f_ec, l_syn=l_syn
    )


class TestProtocolParams:
    def test_derived_counts(self):
        p = ProtocolParams(n=46550, q=0.3, delta=0.05, s0=0.0, eps=1e-9, eps_cor=1e-9)
        assert p.pulse_pairs == 100_000
        assert p.l_smp == 8550
        # a float32 q or delta gives the counts of its own value, derived in float64
        f32 = np.float32(0.3), np.float32(0.01)
        p32 = make_params(3_000_000, f32[0], 0.69, delta=f32[1])
        p64 = make_params(3_000_000, float(f32[0]), 0.69, delta=float(f32[1]))
        assert (p32.pulse_pairs, p32.l_smp) == (p64.pulse_pairs, p64.l_smp) == (6_184_293, 551_021)
        assert chernoff_abort_bound(p32) == chernoff_abort_bound(p64)
        assert p32.q is f32[0]

    def test_validation(self):
        with pytest.raises(ValueError):
            make_params(1000, 0.6, 0.0)
        with pytest.raises(ValueError):
            make_params(1000, 0.1, 0.8)
        with pytest.raises(ValueError):
            make_params(0, 0.1, 0.0)
        with pytest.raises(ValueError):
            make_params(1000, 0.1, 0.0, eps=1.5)

    @pytest.mark.parametrize(
        "name, value", [("n", 1000.5), ("n", 1000.0), ("n", True), ("l_syn", 2.5), ("l_syn", False)]
    )
    def test_counts_must_be_integers(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            make_params(**{"n": 1000, "q": 0.1, "s0": 0.0} | {name: value})

    @pytest.mark.parametrize(
        "name, value",
        [
            ("q", True),
            ("delta", False),
            ("s0", False),
            ("eps", True),
            ("eps_cor", True),
            ("f_ec", True),
            ("s0", np.False_),
            ("f_ec", "1.0"),
            ("q", 0.1 + 0j),
        ],
    )
    def test_real_fields_reject_bools_and_non_reals(self, name, value):
        # a bool would pass the range checks and be echoed as true/false by as_dict
        with pytest.raises(ValueError, match=f"^{name} must be a real number"):
            make_params(**{"n": 1000, "q": 0.1, "s0": 0.0} | {name: value})

    def test_numpy_reals_accepted(self):
        p = make_params(1000, np.float64(0.1), np.float32(0.5), f_ec=1)
        assert (p.q, p.f_ec) == (0.1, 1)

    def test_numpy_integers_accepted(self):
        p = make_params(np.int64(1000), 0.1, 0.0, l_syn=np.int32(7))
        assert (p.n, p.l_syn) == (1000, 7)

    @pytest.mark.parametrize("name", ["n", "l_syn"])
    def test_counts_must_fit_in_a_float(self, name):
        # the pulse count and the cost terms are computed in float64
        with pytest.raises(ValueError, match=f"^{name} must fit in a float, got 1329 bits$"):
            make_params(**{"n": 1000, "q": 0.1, "s0": 0.0} | {name: 10**400})

    def test_pulse_pairs_must_fit_in_a_float(self):
        # n fits, but n / ((1 - delta)(1 - q)^2) does not
        p = make_params(10**308, 0.5, 0.5, delta=0.5)
        with pytest.raises(ValueError, match="^pulse_pairs must fit in a float, got inf$"):
            p.pulse_pairs


class TestFiniteKeyLength:
    def test_spec_scale_parameters_give_no_key(self):
        # at n = 1e6 the deviation term mu' ~ 0.76 pushes the entropy
        # argument past 1/2; the bound is vacuous and l = 0
        params = make_params(
            10**6, 0.1, 0.69, l_syn=syndrome_budget(10**6, 0.01, 1.0)
        )
        rep = finite_key_length(params)
        assert rep.l == 0
        assert rep.reason is not None
        assert rep.mu_prime == pytest.approx(0.7572504671761461, rel=1e-10)

    def test_positive_key_golden(self):
        # same thresholds at n = 1e8 with q = 1/11: mu' ~ 0.084 and the key is
        # large; golden value from direct formula evaluation
        n = 10**8
        params = make_params(n, 1 / 11, 0.69, l_syn=syndrome_budget(n, 0.01, 1.0))
        assert params.l_smp == 1_000_000
        rep = finite_key_length(params)
        assert rep.l == 35_442_508
        assert rep.reason is None

    def test_monotone_in_threshold(self):
        n = 10**8
        prev = -1
        for s0 in (0.60, 0.64, 0.68, 0.70, 1 / SQRT2):
            rep = finite_key_length(make_params(n, 1 / 11, s0))
            assert rep.l >= prev
            prev = rep.l

    def test_noiseless_limit_leading_term(self):
        # at s0 = 1/sqrt2 the entropy argument is just mu'; the leading term
        # approaches n as the deviation vanishes
        n = 10**13
        params = make_params(n, 0.5, 1 / SQRT2)
        rep = finite_key_length(params)
        assert rep.components["entropy_term"] == pytest.approx(
            n * (1 - binary_entropy(rep.mu_prime)), rel=1e-12
        )
        assert rep.components["entropy_term"] / n > 0.999

    def test_component_accounting(self):
        n = 10**8
        params = make_params(n, 1 / 11, 0.69, l_syn=12345)
        rep = finite_key_length(params)
        total = rep.components["entropy_term"] - (
            rep.components["sampling_cost"]
            + rep.components["syndrome_cost"]
            + rep.components["correctness_cost"]
            + rep.components["hashing_cost"]
        )
        assert rep.l == int(math.floor(total))


class TestBoundAssembly:
    def test_key_length_equals_entropy_bound_minus_hashing_slack(self):
        # assembled key length = min-entropy bound at eps' = eps/3 minus
        # 2 log2(3/eps), up to float round-off from the two evaluation orders
        n = 10**8
        params = make_params(n, 1 / 11, 0.69, l_syn=syndrome_budget(n, 0.01, 1.0))
        rep = finite_key_length(params)
        hmin = smooth_min_entropy_bound(params, params.eps / 3)
        assert rep.hmin_bound == hmin
        expected = hmin - 2 * math.log2(3 / params.eps)
        assert rep.l == pytest.approx(expected, abs=1e-4 * max(1.0, abs(expected)))

    def test_assembled_security_is_epsilon(self):
        # leftover bound at eps' = eps/3 with the assembled hmin - l gap
        eps = 1e-9
        gap = 2 * math.log2(3 / eps)
        assert leftover_bound(1000.0 + gap, 1000, eps / 3) == pytest.approx(eps, rel=1e-12)

    def test_smooth_min_entropy_noiseless_form(self):
        # with the deviations sent to zero by enormous sampling, the bound
        # approaches n - 2 l_smp - l_syn - log2(1/eps_cor)
        n = 10**13
        params = make_params(n, 0.5, 1 / SQRT2, l_syn=777)
        val = smooth_min_entropy_bound(params, 1e-9)
        ideal = n - 2 * params.l_smp - 777 - math.log2(1e9)
        assert val == pytest.approx(ideal, rel=1e-3)

    def test_smooth_min_entropy_decreasing_in_deviation(self):
        n = 10**8
        params = make_params(n, 1 / 11, 0.69)
        assert smooth_min_entropy_bound(params, 1e-6) > smooth_min_entropy_bound(params, 1e-12)

    def test_vacuous_argument_reports_zero(self):
        params = make_params(1000, 0.1, 0.69)
        assert smooth_min_entropy_bound(params, 1e-9) == 0.0


class TestLeftoverBound:
    def test_equal_entropy_and_length(self):
        assert leftover_bound(100.0, 100, 0.01) == pytest.approx(1.02, rel=1e-12)

    def test_decreasing_in_entropy(self):
        assert leftover_bound(200.0, 100, 1e-9) < leftover_bound(150.0, 100, 1e-9)

    def test_six_bit_margin_recipe(self):
        # hmin = l + 2 log2(1/eps) + 6 at eps' = eps/4 certifies eps-security
        eps = 1e-6
        hmin = 500 + 2 * math.log2(1 / eps) + 6
        assert leftover_bound(hmin, 500, eps / 4) <= eps


class TestAbortBounds:
    def test_nominal_expression_is_vacuous(self):
        params = make_params(46550, 0.1, 0.0, delta=0.1)
        rep = chernoff_abort_bound(params)
        assert rep.nominal_bound == pytest.approx(1.9999000024999583, rel=1e-12)
        assert rep.nominal_bound > 1.0  # no pulse-count dependence, hence vacuous

    def test_corrected_bound_decreasing_in_pulse_count(self):
        bounds = []
        for n in (2000, 8000, 32000):
            params = make_params(n, 0.3, 0.0, delta=0.1)
            bounds.append(chernoff_abort_bound(params).corrected_bound)
        assert all(a > b for a, b in zip(bounds, bounds[1:]))

    def test_corrected_bound_in_unit_interval(self):
        params = make_params(4410, 0.3, 0.0, delta=0.1)
        rep = chernoff_abort_bound(params)
        assert 0.0 < rep.corrected_bound <= 1.0
        assert rep.corrected_bound == pytest.approx(rep.sif_term + rep.smp_term, rel=1e-12)


class TestAzumaTail:
    def test_golden_value(self):
        assert azuma_tail(4800, 0.1) == pytest.approx(0.36787944117144233, rel=1e-12)

    def test_decreasing_in_samples(self):
        assert azuma_tail(9600, 0.1) < azuma_tail(4800, 0.1)

    def test_rejects_bad_count(self):
        with pytest.raises(ValueError):
            azuma_tail(0, 0.1)


class TestSyndromeBudget:
    def test_zero_error_rate(self):
        assert syndrome_budget(1000, 0.0, 1.0) == 0

    def test_matches_entropy(self):
        assert syndrome_budget(10**6, 0.01, 1.0) == 80794

    @pytest.mark.parametrize("p_est, value", [(0.05, "inf"), (0.0, "nan")])
    def test_budget_must_fit_in_a_float(self, p_est, value):
        # f_ec * n overflows; times h(0) = 0 it is NaN
        with pytest.raises(ValueError, match=f"^l_syn must fit in a float, got {value}$"):
            syndrome_budget(10**300, p_est, 1e10)
