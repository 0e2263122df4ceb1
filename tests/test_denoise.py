import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftwave.denoise import (
    MAD_SCALE,
    DenoiseConfig,
    _mad_rows,
    bound_report,
    default_lambda,
    denoise_signal,
    dyadic_truncate,
    estimate_latest,
    haar_variational_bound,
    kappa,
    sparsity_bound,
    mad_sigma,
    reflect_fold,
    soft_threshold,
    tv_variational_bound,
)
from driftwave._kernels import wavelet_prefix_estimates
from driftwave.bench import NoiseSpec
from driftwave.errors import DomainError, NonDyadicLength, NonFiniteValue, TooShort
from driftwave.selection import LossSeries, select
from driftwave.tvstudy import TVStudySpec
from driftwave.wavelets import CoefficientVector, cached_matrix, forward, last_column_support


class TestSoftThreshold:
    @pytest.mark.parametrize(
        "x,lam,want", [(0.5, 1.0, 0.0), (2.0, 1.0, 1.0), (-2.0, 1.0, -1.0), (0.0, 0.0, 0.0)]
    )
    def test_values(self, x, lam, want):
        assert soft_threshold(x, lam) == want

    def test_array_input(self):
        out = soft_threshold(np.array([-2.0, 0.5, 3.0]), 1.0)
        np.testing.assert_allclose(out, [-1.0, 0.0, 2.0])

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            soft_threshold(1.0, -0.1)

    @given(
        st.floats(-1e6, 1e6), st.floats(-1e6, 1e6), st.floats(0, 1e6)
    )
    def test_contraction(self, x, y, lam):
        assert abs(soft_threshold(x, lam) - soft_threshold(y, lam)) <= abs(x - y) + 1e-9

    @given(st.floats(-1e6, 1e6), st.floats(0, 1e6))
    def test_shrinkage(self, x, lam):
        tx = soft_threshold(x, lam)
        assert abs(tx) <= abs(x) + 1e-12
        assert abs(x - tx) <= lam + 1e-9 * max(1.0, abs(x))  # |x|-lam rounds at ulp(|x|)

    def test_contraction_on_random_grid(self):
        rng = np.random.default_rng(0)
        x, y = rng.normal(0, 10, 10_000), rng.normal(0, 10, 10_000)
        for lam in (0.0, 0.3, 2.5):
            lhs = np.abs(soft_threshold(x, lam) - soft_threshold(y, lam))
            assert np.all(lhs <= np.abs(x - y) + 1e-12)


class TestDefaultLambda:
    def test_zero_sigma(self):
        assert default_lambda(0.0, 0.5, 4) == 0.0

    def test_frozen_reference_value(self):
        # 2*sqrt(2*ln(ln(256)/0.1)), evaluated independently at high precision
        assert abs(default_lambda(1.0, 0.1, 256) - 5.667813486057717) < 1e-12

    def test_forced_unit_log(self):
        # delta = ln(4)/e makes ln(ln n / delta) = 1, so lambda = 2*sqrt(2)
        delta = math.log(4) / math.e
        assert abs(default_lambda(1.0, delta, 4) - 2.0 * math.sqrt(2.0)) < 1e-12

    def test_domain_error(self):
        with pytest.raises(DomainError):
            default_lambda(1.0, 0.9, 2)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            default_lambda(-1.0, 0.1, 16)
        with pytest.raises(ValueError):
            default_lambda(1.0, 1.5, 16)
        with pytest.raises(ValueError):
            default_lambda(1.0, 0.1, 1)

    def test_monotone_in_sigma_n_and_antitone_in_delta(self):
        base = default_lambda(1.0, 0.1, 256)
        assert default_lambda(2.0, 0.1, 256) > base
        assert default_lambda(1.0, 0.1, 1024) > base
        assert default_lambda(1.0, 0.05, 256) > base
        assert default_lambda(1.0, 0.2, 256) < base


class TestEstimateLatest:
    def test_lambda_zero_returns_newest(self):
        rng = np.random.default_rng(5)
        y = rng.normal(size=37)
        cfg = DenoiseConfig(sigma=1.0, lambda_override=0.0)
        est = estimate_latest(y, cfg)
        assert abs(est.value - y[-1]) <= 1e-9
        assert est.n_used == 32

    def test_huge_lambda_kills_everything(self):
        # +0.0 whatever the signs of the killed coefficients, in the estimate
        # and in the sweep, so JSON output never reads -0.0
        for family, boundary in [("haar", "reflect"), ("db8", "reflect"), ("db8", "periodic")]:
            for y in (np.sin(np.arange(64)), -1.0 - np.arange(64.0)):
                cfg = DenoiseConfig(
                    family=family, sigma=1.0, lambda_override=1e6, boundary=boundary
                )
                value = estimate_latest(y, cfg).value
                assert value == 0.0 and math.copysign(1.0, value) == 1.0
                sweep = wavelet_prefix_estimates(
                    y, family, sigma=1.0, delta=0.1, lam_override=1e6, boundary=boundary
                )
                assert not sweep[1:].any() and not np.signbit(sweep[1:]).any()

    def test_constant_signal_deviation_bound(self):
        n = 8
        lam = 0.5
        y = np.ones(n)
        est = estimate_latest(y, DenoiseConfig(sigma=1.0, lambda_override=lam))
        assert abs(est.value - 1.0) <= lam * (math.log2(n) + 1) / math.sqrt(n)

    def test_truncation_uses_most_recent_window(self):
        y = np.concatenate([np.full(4, 1000.0), np.ones(8)])
        est = estimate_latest(y, DenoiseConfig(sigma=1.0, lambda_override=0.0))
        assert abs(est.value - 1.0) <= 1e-9
        assert est.n_used == 8

    def test_too_short(self):
        with pytest.raises(TooShort):
            estimate_latest(np.array([1.0]), DenoiseConfig())

    def test_periodic_boundary_mode(self):
        rng = np.random.default_rng(6)
        y = rng.normal(size=16)
        est = estimate_latest(y, DenoiseConfig(sigma=1.0, lambda_override=0.0, boundary="periodic"))
        assert abs(est.value - y[-1]) <= 1e-9

    def test_reports_mad_sigma(self):
        rng = np.random.default_rng(7)
        y = rng.normal(0.0, 0.5, 256)
        est = estimate_latest(y, DenoiseConfig(sigma="mad"))
        assert 0.3 <= est.sigma_used <= 0.7

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("sigma", ["mad", 0.1])
    def test_non_finite_rejected(self, bad, sigma):
        y = np.array([0.1] * 7 + [bad])
        with pytest.raises(NonFiniteValue) as info:
            estimate_latest(y, DenoiseConfig(sigma=sigma))
        assert info.value.line is None


class TestDenoiseSignal:
    def test_lambda_zero_identity(self):
        rng = np.random.default_rng(8)
        y = rng.normal(size=64)
        out = denoise_signal(y, DenoiseConfig(sigma=1.0, lambda_override=0.0))
        np.testing.assert_allclose(out, y, atol=1e-9)

    def test_output_aligned_to_recent_window(self):
        y = np.arange(100.0)
        out = denoise_signal(y, DenoiseConfig(sigma=1.0, lambda_override=0.0))
        assert len(out) == 64
        np.testing.assert_allclose(out, y[-64:], atol=1e-9)

    def test_constant_signal_default_lambda(self):
        n = 64
        cfg = DenoiseConfig(sigma=0.1, delta=0.1)
        out = denoise_signal(np.ones(n), cfg)
        lam = default_lambda(0.1, 0.1, n)
        assert np.abs(out - 1.0).max() <= lam / math.sqrt(n)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_rejected(self, bad):
        y = np.ones(16)
        y[3] = bad
        with pytest.raises(NonFiniteValue):
            denoise_signal(y, DenoiseConfig(sigma="mad"))


class TestMadSigma:
    def test_zero_details(self):
        beta = forward(cached_matrix("haar", 8), np.ones(8))
        assert mad_sigma(beta) == 0.0

    def test_alternating_pattern(self):
        values = np.zeros(8)
        values[4:] = [-1.0, 1.0, 1.0, -1.0]
        beta = CoefficientVector(values, cached_matrix("haar", 8).index_map)
        assert abs(mad_sigma(beta) - 1.0 / 0.6745) < 1e-12

    def test_too_short(self):
        beta = CoefficientVector(np.zeros(2), cached_matrix("haar", 2).index_map)
        with pytest.raises(TooShort):
            mad_sigma(beta)

    def test_gaussian_noise_recovery(self):
        W = cached_matrix("haar", 1024)
        estimates = []
        for seed in range(20):
            rng = np.random.default_rng(seed)
            estimates.append(mad_sigma(forward(W, rng.normal(0.0, 1.0, 1024))))
        assert 0.9 <= np.median(estimates) <= 1.1


class TestMadRows:
    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.integers(1, 8),
        half=st.integers(1, 300),
        seed=st.integers(0, 2**32 - 1),
        values=st.sampled_from(["normal", "ties", "zeros", "tiny"]),
    )
    def test_bit_identical_to_np_median(self, rows, half, seed, values):
        # an even count per row, as every finest level has
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(rows, 2 * half))
        if values == "ties":
            x = rng.integers(-3, 4, size=x.shape) * 0.25
        elif values == "zeros":
            x[:, : rng.integers(0, 2 * half + 1)] = 0.0
            x[:, ::3] = -0.0
        elif values == "tiny":
            x = x * 5e-324
        want = np.median(np.abs(x), axis=-1) / MAD_SCALE
        assert _mad_rows(x).tobytes() == want.tobytes()
        assert _mad_rows(x[0]).tobytes() == want[0].tobytes()


class TestSparsityBound:
    def test_zero_lambda(self):
        W = cached_matrix("haar", 16)
        beta = forward(W, np.sin(np.arange(16.0)))
        assert sparsity_bound(beta, last_column_support(W), 0.0) == 0.0

    def test_constant_signal_closed_form(self):
        n, c, lam = 16, 0.4, 0.9
        W = cached_matrix("haar", n)
        beta = forward(W, np.full(n, c))
        got = sparsity_bound(beta, last_column_support(W), lam)
        want = 6.0 * (1.0 / math.sqrt(n)) * min(math.sqrt(n) * c, lam)
        assert abs(got - want) < 1e-9

    def test_constant_signal_saturates_at_lambda(self):
        n, c = 16, 5.0
        lam = 1.0  # sqrt(n)*c = 20 >= lam, so the bound is 6*lam/sqrt(n)
        W = cached_matrix("haar", n)
        beta = forward(W, np.full(n, c))
        got = sparsity_bound(beta, last_column_support(W), lam)
        assert abs(got - 6.0 * lam / math.sqrt(n)) < 1e-9


def brute_force_window_bound(theta, sigma, use_tv):
    """Deliberately naive scan over r and t, recomputed from scratch."""
    n = len(theta)
    newest = theta[-1]
    best_val, best_r = None, None
    for r in range(1, n + 1):
        worst = 0.0
        t = 1
        while t <= 2 ** math.floor(math.log2(r)):
            window = theta[n - t :]
            if use_tv:
                dev = sum(abs(window[j] - window[j - 1]) for j in range(1, t))
            else:
                dev = abs(sum(window) / t - newest)
            worst = max(worst, dev)
            t *= 2
        val = max(worst, sigma / math.sqrt(r))
        if best_val is None or val < best_val:
            best_val, best_r = val, r
    return best_val, best_r


class TestVariationalBounds:
    def test_constant_theta_exact(self):
        n, sigma, delta = 256, 0.3, 0.1
        u, r_star, k, total = haar_variational_bound(np.full(n, 0.7), sigma, delta)
        assert u == sigma / np.sqrt(n)
        assert r_star == n
        assert k == kappa(n, delta)
        assert total == k * u

    def test_constant_theta_zero_sigma(self):
        u, _, _, total = haar_variational_bound(np.full(64, 1.0), 0.0, 0.1)
        assert u == 0.0 and total == 0.0

    def test_step_signal_matches_brute_force(self):
        n = 64
        theta = np.concatenate([np.zeros(n // 2), np.ones(n // 2)])
        u, r_star, _, _ = haar_variational_bound(theta, 0.1, 0.1)
        want_val, want_r = brute_force_window_bound(theta, 0.1, use_tv=False)
        assert abs(u - want_val) < 1e-12
        assert r_star == want_r

    def test_tv_constant_theta(self):
        n, sigma = 128, 0.25
        u, r_star, _, _ = tv_variational_bound(np.full(n, 2.0), sigma, 0.1)
        assert u == sigma / np.sqrt(n)
        assert r_star == n

    def test_tv_monotone_zero_sigma(self):
        theta = np.linspace(0.0, 1.0, 64)
        u, r_star, _, _ = tv_variational_bound(theta, 0.0, 0.1)
        assert u == 0.0
        assert r_star == 1

    def test_tv_step_matches_brute_force(self):
        n = 64
        theta = np.concatenate([np.zeros(n // 2), np.ones(n // 2)])
        u, r_star, _, _ = tv_variational_bound(theta, 0.1, 0.1)
        want_val, want_r = brute_force_window_bound(theta, 0.1, use_tv=True)
        assert abs(u - want_val) < 1e-12
        assert r_star == want_r

    def test_tv_dominates_window_bound_on_step(self):
        theta = np.concatenate([np.zeros(32), np.ones(32)])
        u, _, _, _ = haar_variational_bound(theta, 0.1, 0.1)
        ut, _, _, _ = tv_variational_bound(theta, 0.1, 0.1)
        assert ut >= u

    def test_literal_variant_differs(self):
        theta = np.concatenate([np.zeros(32), np.full(32, 2.0)])
        default = tv_variational_bound(theta, 0.1, 0.1)[0]
        literal = tv_variational_bound(theta, 0.1, 0.1, literal=True)[0]
        assert default != literal

    def test_non_dyadic_rejected(self):
        with pytest.raises(NonDyadicLength):
            haar_variational_bound(np.zeros(100), 0.1, 0.1)
        with pytest.raises(NonDyadicLength):
            tv_variational_bound(np.zeros(100), 0.1, 0.1)

    @pytest.mark.parametrize(
        "bound", [bound_report, haar_variational_bound, tv_variational_bound]
    )
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_truth_rejected(self, bound, bad):
        with pytest.raises(NonFiniteValue):
            bound(np.array([0.1] * 7 + [bad]), 0.3, 0.1)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_dominance_on_random_piecewise_signals(self, seed):
        rng = np.random.default_rng(seed)
        n = 64
        theta = np.repeat(rng.uniform(-1.0, 1.0, 8), n // 8)
        sigma = float(rng.uniform(0.0, 1.0))
        # the window-average deviation never exceeds the window's variation
        rev = theta[::-1]
        means = np.cumsum(rev) / np.arange(1, n + 1)
        tv = np.concatenate(([0.0], np.cumsum(np.abs(np.diff(rev)))))
        assert np.all(np.abs(means - theta[-1]) <= tv + 1e-12)
        u = haar_variational_bound(theta, sigma, 0.1)[0]
        ut = tv_variational_bound(theta, sigma, 0.1)[0]
        assert u <= ut + 1e-12


class TestHelpers:
    def test_dyadic_truncate(self):
        y = np.arange(11.0)
        np.testing.assert_array_equal(dyadic_truncate(y), y[3:])

    def test_reflect_fold(self):
        w = np.array([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(reflect_fold(w), [3.0, 2.0, 1.0, 1.0, 2.0, 3.0])

    def test_bound_report_fields(self):
        theta = np.concatenate([np.zeros(32), np.ones(32)])
        rep = bound_report(theta, 0.2, 0.1, family="haar")
        assert rep.sparsity >= 0
        assert rep.haar_variational <= rep.tv_variational + 1e-12
        assert 1 <= rep.r_star <= 64

    @pytest.mark.parametrize("boundary", ["zero", "Reflect", ""])
    def test_bound_report_rejects_unknown_boundary(self, boundary):
        with pytest.raises(ValueError, match="boundary"):
            bound_report(_THETA, 0.2, 0.1, boundary=boundary)

    def test_bound_report_rejects_unknown_family(self):
        with pytest.raises(ValueError, match="unknown wavelet family 'db9'"):
            bound_report(_THETA, 0.2, 0.1, family="db9")

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DenoiseConfig(delta=1.2)
        with pytest.raises(ValueError):
            DenoiseConfig(sigma=-0.5)
        with pytest.raises(ValueError):
            DenoiseConfig(sigma="median")
        with pytest.raises(ValueError):
            DenoiseConfig(lambda_override=-1.0)
        with pytest.raises(ValueError, match="unknown wavelet family 'db9'"):
            DenoiseConfig(family="db9")
        with pytest.raises(ValueError):
            DenoiseConfig(boundary="zero")
        with pytest.raises(ValueError):
            DenoiseConfig(truncation="pad")


_THETA = np.linspace(0.0, 1.0, 16)
# every place that takes sigma, lambda or delta, called with one of them
# replaced by the drawn value
_PARAMETER_CALLS = {
    "DenoiseConfig sigma": lambda v: DenoiseConfig(sigma=v),
    "DenoiseConfig delta": lambda v: DenoiseConfig(delta=v),
    "DenoiseConfig lambda": lambda v: DenoiseConfig(sigma="mad", lambda_override=v),
    "select": lambda v: select([LossSeries("a", _THETA)], DenoiseConfig(sigma=v)),
    "default_lambda sigma": lambda v: default_lambda(v, 0.1, 16),
    "default_lambda delta": lambda v: default_lambda(1.0, v, 16),
    "prefix sigma": lambda v: wavelet_prefix_estimates(_THETA, "db4", sigma=v, delta=0.1),
    "prefix delta": lambda v: wavelet_prefix_estimates(_THETA, "db4", sigma="mad", delta=v),
    "prefix lambda": lambda v: wavelet_prefix_estimates(
        _THETA, "db4", sigma=0.1, delta=0.1, lam_override=v
    ),
    "bound_report sigma": lambda v: bound_report(_THETA, v, 0.1),
    "bound_report delta": lambda v: bound_report(_THETA, 0.1, v),
    "haar bound sigma": lambda v: haar_variational_bound(_THETA, v, 0.1),
    "haar bound delta": lambda v: haar_variational_bound(_THETA, 0.1, v),
    "tv bound sigma": lambda v: tv_variational_bound(_THETA, v, 0.1),
    "tv bound delta": lambda v: tv_variational_bound(_THETA, 0.1, v),
    "noise level": lambda v: NoiseSpec("uniform", (0.2, v)),
    "tv study sigma": lambda v: TVStudySpec(1.0, v, (64,), 2),
    "tv study radius": lambda v: TVStudySpec(v, 1.0, (64,), 2),
    "tv study delta": lambda v: TVStudySpec(1.0, 1.0, (64,), 2, delta=v),
}


class TestNonFiniteParameters:
    @settings(max_examples=100, deadline=None)
    @given(
        where=st.sampled_from(sorted(_PARAMETER_CALLS)),
        bad=st.sampled_from([math.nan, math.inf, -math.inf, np.float64("nan"), np.float64("inf")]),
    )
    def test_raises_and_never_returns(self, where, bad):
        with pytest.raises(ValueError, match="finite"):
            _PARAMETER_CALLS[where](bad)
