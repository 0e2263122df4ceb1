import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftwave import _kernels, denoise
from driftwave.denoise import (
    MAD_SCALE,
    DenoiseConfig,
    _mad_rows,
    _require_sigma_delta,
    _shrink,
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
from driftwave._kernels import _shrink_in_place, wavelet_prefix_estimates
from driftwave.baselines import adaptive_window_mean, adaptive_window_sweep
from driftwave.bench import NoiseSpec, SignalSpec
from driftwave.errors import DomainError, DriftwaveError, NonDyadicLength, NonFiniteValue, TooShort
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

    def test_killed_values_are_positive_zero(self):
        x = np.array([-0.5, -0.0, 0.0, 0.5, -2.0])
        out = soft_threshold(x, 1.0)
        assert not np.signbit(out[:4]).any()
        assert out.tobytes() == (x - np.clip(x, -1.0, 1.0)).tobytes()
        assert math.copysign(1.0, soft_threshold(-0.5, 1.0)) == 1.0

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            soft_threshold(1.0, -0.1)

    def test_scalar_x_broadcasts_against_an_array_threshold(self):
        lam = np.array([0.1, 0.7])
        out = soft_threshold(0.5, lam)
        assert out.shape == (2,)
        assert out.tobytes() == soft_threshold(np.array([0.5, 0.5]), lam).tobytes()

    @pytest.mark.parametrize("x, lam, want", [
        (-0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (0.5, 0.5, 0.0), (-0.5, 0.5, 0.0),
        (0.7, 0.5, 0.19999999999999996), (-0.7, 0.5, -0.19999999999999996),
        (0.7, np.array(0.5), 0.19999999999999996),
    ])
    def test_scalar_x_with_a_scalar_threshold_is_a_float(self, x, lam, want):
        # ties and -0.0 are killed to +0.0; a 0-d threshold is a scalar one
        out = soft_threshold(x, lam)
        assert type(out) is float
        assert np.float64(out).tobytes() == np.float64(want).tobytes()

    @pytest.mark.parametrize(
        "x, lam",
        [(np.array([1.0, -2.0]), float("nan")), (1.0, float("nan")),
         (np.array([1.0, -2.0]), np.array([0.5, np.nan]))],
        ids=["array", "scalar", "array-threshold"],
    )
    def test_nan_threshold_rejected(self, x, lam):
        with pytest.raises(ValueError, match="nonnegative"):
            soft_threshold(x, lam)

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

    @settings(max_examples=200, deadline=None)
    @given(
        shape=st.sampled_from([(7,), (3, 5), (2, 4, 6), (4, 1), (1, 3, 9)]),
        form=st.sampled_from(["float", "column", "row"]),
        lams=st.lists(st.one_of(st.sampled_from([0.0, 0.5, 1.0, math.inf]), st.floats(0.0, 10.0)),
                      min_size=1, max_size=4),
        data=st.data(),
    )
    def test_shrink_has_the_bits_of_the_clip(self, shape, form, lams, data):
        """The min/max soft threshold against ``x - np.clip(x, -lam, lam)``
        for a float lam, a (B, 1) or (B, count, 1) column, or one lam per
        last-axis entry (the Haar sweep's), on -0.0, ties at +-lam, lam = 0,
        lam = inf and NaN: the same bits, except that a killed -0.0 is +0.0
        where np.clip's array-lam loop keeps it -0.0."""
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        if form == "float":
            lam = data.draw(st.sampled_from(lams))
        else:
            lead = shape[:-1] if form == "column" else shape[:-2] + (1,) * (len(shape) > 1)
            lam = rng.choice(lams, size=lead + ((1,) if form == "column" else shape[-1:]))
        ties = np.broadcast_to(lam, shape) * rng.choice([-1.0, 1.0], size=shape)
        specials = rng.choice([-0.0, 0.0, math.nan, math.inf, -math.inf, 1e-300], size=shape)
        x = np.select([rng.random(shape) < 0.3, rng.random(shape) < 0.3], [ties, specials],
                      rng.normal(0.0, 2.0, shape))
        with np.errstate(invalid="ignore"):
            want = x - np.clip(x, -lam, lam)
            want[want == 0.0] = 0.0
            got = _shrink(x, lam)
            in_place = _shrink_in_place(x.copy(), lam)
            clipped = x - np.clip(x, -lam, lam)
        assert got.tobytes() == want.tobytes()
        assert in_place.tobytes() == want.tobytes()
        if form == "float":  # np.clip's own float-lam loop already gives +0.0
            assert got.tobytes() == clipped.tobytes()

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
        # and in the sweep, so JSON output never reads -0.0; the sweep's
        # threshold is the default one, made huge by a huge sigma
        for y in (np.sin(np.arange(64)), -1.0 - np.arange(64.0)):
            for family, boundary in [("haar", "reflect"), ("db8", "reflect"), ("db8", "periodic")]:
                cfg = DenoiseConfig(
                    family=family, sigma=1.0, lambda_override=1e6, boundary=boundary
                )
                value = estimate_latest(y, cfg).value
                assert value == 0.0 and math.copysign(1.0, value) == 1.0
            for family in ("haar", "db8"):
                sweep = wavelet_prefix_estimates(y, family, sigma=1e6, delta=0.1)
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

    @pytest.mark.parametrize("y, cfg", [
        ([1e308] * 8, DenoiseConfig(family="db4", sigma="mad")),  # the value overflows
        # the MAD sigma overflows, so every coefficient is killed and the value is 0.0
        ([1e308, -1e308] * 4, DenoiseConfig(sigma="mad", boundary="periodic")),
    ], ids=["value", "sigma"])
    def test_overflow_raises(self, y, cfg):
        with np.errstate(all="raise"), pytest.raises(NonFiniteValue, match="overflow"):
            estimate_latest(np.array(y), cfg)


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

    def test_overflow_raises(self):
        with np.errstate(all="raise"), pytest.raises(NonFiniteValue, match="overflow"):
            denoise_signal(np.full(8, 1e308), DenoiseConfig(family="db4", sigma=0.3))

    @pytest.mark.parametrize("y, cfg", [
        ([math.nan], DenoiseConfig()),  # finiteness before length
        ([], DenoiseConfig()),
        ([1.0], DenoiseConfig(sigma=0.1)),
        ([0.5, 0.5, math.inf, 0.5], DenoiseConfig()),
        ([[1.0, 2.0], [3.0, 4.0]], DenoiseConfig()),
        (1.0, DenoiseConfig()),
        # an infinite MAD sigma under an override: the values stay finite
        ([1e308, -1e308] * 4, DenoiseConfig(sigma="mad", lambda_override=0.5, boundary="periodic")),
    ])
    def test_refuses_what_estimate_latest_refuses(self, y, cfg):
        with pytest.raises(DriftwaveError) as want:
            estimate_latest(np.array(y), cfg)
        with np.errstate(all="raise"), pytest.raises(DriftwaveError) as got:
            denoise_signal(np.array(y), cfg)
        assert type(got.value) is type(want.value)
        if "overflow" not in str(want.value):
            assert str(got.value) == str(want.value)


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
        with pytest.raises(ValueError, match="unknown wavelet family 5"):
            DenoiseConfig(family=5)
        with pytest.raises(ValueError):
            DenoiseConfig(boundary="zero")


_THETA = np.linspace(0.0, 1.0, 16)
_STACK = np.stack([_THETA] * 3)
# the places that take a (B, 1) sigma column, called with the given column
_COLUMN_CALLS = {
    "prefix column sigma": lambda c: wavelet_prefix_estimates(_STACK, "db4", sigma=c, delta=0.1),
    "adaptive sweep column sigma": lambda c: adaptive_window_sweep(_STACK, c, 0.1),
}
# every place that takes sigma, lambda or delta, called with one of them
# replaced by the drawn value (the middle entry of a column)
_PARAMETER_CALLS = {
    "DenoiseConfig sigma": lambda v: DenoiseConfig(sigma=v),
    "DenoiseConfig delta": lambda v: DenoiseConfig(delta=v),
    "DenoiseConfig lambda": lambda v: DenoiseConfig(sigma="mad", lambda_override=v),
    "select sigma": lambda v: select([LossSeries("a", _THETA)], DenoiseConfig(sigma=v)),
    "default_lambda sigma": lambda v: default_lambda(v, 0.1, 16),
    "default_lambda delta": lambda v: default_lambda(1.0, v, 16),
    "prefix sigma": lambda v: wavelet_prefix_estimates(_THETA, "db4", sigma=v, delta=0.1),
    "prefix delta": lambda v: wavelet_prefix_estimates(_THETA, "db4", sigma="mad", delta=v),
    **{k: lambda v, call=call: call(np.array([[0.1], [v], [0.1]])) for k, call in _COLUMN_CALLS.items()},
    "adaptive sweep sigma": lambda v: adaptive_window_sweep(_THETA, v, 0.1),
    "bound_report sigma": lambda v: bound_report(_THETA, v, 0.1),
    "bound_report delta": lambda v: bound_report(_THETA, 0.1, v),
    "haar bound sigma": lambda v: haar_variational_bound(_THETA, v, 0.1),
    "haar bound delta": lambda v: haar_variational_bound(_THETA, 0.1, v),
    "tv bound sigma": lambda v: tv_variational_bound(_THETA, v, 0.1),
    "tv bound delta": lambda v: tv_variational_bound(_THETA, 0.1, v),
    "kappa delta": lambda v: kappa(16, v),
    "noise level": lambda v: NoiseSpec("uniform", (0.2, v)),
    "signal amplitude": lambda v: SignalSpec("sine", 16, amplitude=v),
    "signal frequency_warp": lambda v: SignalSpec("doppler", 16, frequency_warp=v),
    "signal cycles": lambda v: SignalSpec("sine", 16, cycles=v),
    "signal tv_radius": lambda v: SignalSpec("piecewise_constant", 16, tv_radius=v),
    "tv study sigma": lambda v: TVStudySpec(1.0, v, (64,), 2),
    "tv study radius": lambda v: TVStudySpec(v, 1.0, (64,), 2),
    "tv study delta": lambda v: TVStudySpec(1.0, 1.0, (64,), 2, delta=v),
    "adaptive window sigma": lambda v: adaptive_window_mean(_THETA, v, 0.1),
    "adaptive window delta": lambda v: adaptive_window_mean(_THETA, 0.1, v),
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


_NOT_NUMBERS = r"^sigma must be a number or an array of numbers, got {} values$"


class TestBoolParameters:
    """A bool is not a number: True is not 1.0, nor a bool column one of
    1.0 and 0.0 (numpy makes True in a float column 1.0, so a column of
    bools is drawn whole)."""

    @pytest.mark.parametrize("where", sorted(k for k in _PARAMETER_CALLS if "column" not in k))
    @pytest.mark.parametrize("bad", [True, np.True_, False])
    def test_refused_and_named(self, where, bad):
        name = where.split()[-1]  # "radius" of tv_radius, "level" of noise_level
        with pytest.raises(ValueError, match=rf"^\w*{name}\w* must be a number, got {re.escape(repr(bad))}$"):
            _PARAMETER_CALLS[where](bad)

    @pytest.mark.parametrize("where", sorted(_COLUMN_CALLS))
    def test_bool_column_refused(self, where):
        with pytest.raises(ValueError, match=_NOT_NUMBERS.format("bool")):
            _COLUMN_CALLS[where](np.array([[True], [False], [True]]))


class TestStringParameters:
    """A number given as a string is not read as that number."""

    @pytest.mark.parametrize("where", sorted(_PARAMETER_CALLS))
    def test_refused_and_named(self, where):
        if "column" in where:  # numpy makes the column an array of strings
            match = _NOT_NUMBERS.format("<U32")
        else:
            match = rf"^\w*{where.split()[-1]}\w* must be a number, got '0\.5'$"
        with pytest.raises(ValueError, match=match):
            _PARAMETER_CALLS[where]("0.5")


class TestNonRealSigma:
    """Every sigma check refuses an array that does not hold integers or
    floats, named as sigma's, before it reads a value of it."""

    @pytest.mark.parametrize("where", sorted(k for k in _PARAMETER_CALLS if k.endswith("sigma")))
    @pytest.mark.parametrize("bad, dtype", [
        (np.array("mad"), "<U3"),
        (np.array([[0.1], [1j], [0.1]]), "complex128"),
        (np.array([[0.1], [None], [0.1]], dtype=object), "object"),
    ], ids=["string-0d", "complex-column", "object-column"])
    def test_refused_and_named(self, where, bad, dtype):
        call = _COLUMN_CALLS.get(where, _PARAMETER_CALLS[where])
        with pytest.raises(ValueError, match=_NOT_NUMBERS.format(re.escape(dtype))):
            call(bad)


class TestConfigSigmaShape:
    """A configuration's sigma is one number: an array of one or more axes is
    refused when the configuration is built, not when an estimate reads it."""

    @pytest.mark.parametrize("sigma", [np.array([0.1, 0.2]), np.array([[0.3]])], ids=["(2,)", "(1, 1)"])
    def test_array_refused_at_construction(self, sigma):
        with pytest.raises(ValueError, match=r"^sigma must be one number or 'mad', got shape \("):
            DenoiseConfig(sigma=sigma)

    def test_zero_dimensional_array_is_a_number(self):
        y = np.linspace(0.0, 1.0, 16)
        want = estimate_latest(y, DenoiseConfig(sigma=0.3))
        assert estimate_latest(y, DenoiseConfig(sigma=np.array(0.3))) == want


class TestOutOfRangeParameters:
    """The same calls with a finite sigma below 0 or delta outside (0, 1)."""

    @pytest.mark.parametrize("where", sorted(k for k in _PARAMETER_CALLS if k.endswith("sigma")))
    def test_negative_sigma(self, where):
        with pytest.raises(ValueError, match="sigma must be nonnegative"):
            _PARAMETER_CALLS[where](-1.0)

    @pytest.mark.parametrize("column, message", [
        ([0.1, -0.1, math.nan], "sigma must be nonnegative, got -0.1"),
        ([0.1, math.nan, -0.1], "sigma must be finite, got nan"),
        ([0.0, -0.0, -math.inf, 2.0], "sigma must be finite, got -inf"),
    ])
    def test_sigma_array_names_its_first_bad_value(self, column, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            _require_sigma_delta(np.array(column)[:, None], 0.1)
        _require_sigma_delta(np.array([[0.0], [-0.0], [3.5]]), 0.1)

    @pytest.mark.parametrize("where", sorted(k for k in _PARAMETER_CALLS if k.endswith("delta")))
    @pytest.mark.parametrize("bad", [-0.1, 0.0, 1.0, 1.5])
    def test_delta_outside_the_unit_interval(self, where, bad):
        with pytest.raises(ValueError, match=r"delta must lie in \(0, 1\)"):
            _PARAMETER_CALLS[where](bad)


_STEP_Y = np.abs(np.random.default_rng(3).normal(size=(2, 40))) + np.linspace(0.0, 1.0, 40)
_STEP_SIGMAS = {"float": 0.3, "mad": "mad", "column": np.array([[0.2], [0.5]])}
_STEP_CALLS = {
    "estimate_latest": lambda s: estimate_latest(_STEP_Y[0], DenoiseConfig("db4", s)),
    "select": lambda s: select([LossSeries(f"m{i}", y) for i, y in enumerate(_STEP_Y)], DenoiseConfig("db4", s)),
    "denoise_signal": lambda s: denoise_signal(_STEP_Y[0], DenoiseConfig("db4", s)),
    "db4 sweep": lambda s: wavelet_prefix_estimates(_STEP_Y, "db4", sigma=s, delta=0.1),
    "haar sweep": lambda s: wavelet_prefix_estimates(_STEP_Y, "haar", sigma=s, delta=0.1),
}


class TestOneThresholdStep:
    """Every estimate path and both sweeps take sigma and lambda from
    ``denoise._noise_threshold``: once per estimate or stack, and once per
    level of a sweep (the stack here is one chunk of rows), so no private
    copy of the step can come back."""

    @pytest.mark.parametrize("where, sigma", [
        *((where, sigma) for where in sorted(_STEP_CALLS) for sigma in ("float", "mad")),
        ("db4 sweep", "column"),
        ("haar sweep", "column"),
    ])
    def test_every_path_reaches_it(self, monkeypatch, where, sigma):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        real = denoise._noise_threshold
        monkeypatch.setattr(denoise, "_noise_threshold", counted)
        monkeypatch.setattr(_kernels, "_noise_threshold", counted)
        _STEP_CALLS[where](_STEP_SIGMAS[sigma])
        assert len(calls) == (len(_kernels._levels(40)) if "sweep" in where else 1)
