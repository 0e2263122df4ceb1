import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftwave import baselines
from driftwave.baselines import (
    adaptive_window_mean,
    adaptive_window_sweep,
    fixed_window_mean,
    fixed_window_sweep,
    range_sigma_proxy,
)
from driftwave.bench import AdaptiveWindowMethod, FixedWindowMethod
from driftwave.errors import BadWindow, NonFiniteValue


class TestFixedWindowMean:
    @pytest.mark.parametrize(
        "y,w,want",
        [([1.0, 2.0, 3.0], 1, 3.0), ([1.0, 2.0, 3.0, 4.0], 4, 2.5), ([0.0, 0.0, 10.0, 10.0], 2, 10.0)],
    )
    def test_values(self, y, w, want):
        est = fixed_window_mean(np.array(y), w)
        assert est.value == want
        assert est.window == w

    @pytest.mark.parametrize("w", [0, 5, -1, 2.5, np.float64(3.0), True])
    def test_bad_window(self, w):
        with pytest.raises(BadWindow):
            fixed_window_mean(np.ones(4), w)


class TestAdaptiveWindowMean:
    def test_constant_input_takes_largest_dyadic_window(self):
        for n in (7, 8, 20, 64):
            est = adaptive_window_mean(np.ones(n), sigma=0.5, delta=0.1)
            assert est.window == 1 << (n.bit_length() - 1)
            assert est.value == 1.0

    def test_zero_sigma_constant_input(self):
        est = adaptive_window_mean(np.ones(32), sigma=0.0, delta=0.1)
        assert est.window == 32
        assert est.value == 1.0

    def test_fresh_jump_shrinks_to_newest(self):
        y = np.concatenate([np.full(31, 50.0), [0.0]])
        est = adaptive_window_mean(y, sigma=0.1, delta=0.1)
        assert est.window == 1
        assert est.value == 0.0

    def test_single_observation(self):
        est = adaptive_window_mean(np.array([3.0]), sigma=1.0, delta=0.1)
        assert est.window == 1 and est.value == 3.0

    def test_value_stays_within_observed_range(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            y = rng.normal(size=rng.integers(1, 100))
            est = adaptive_window_mean(y, sigma=rng.uniform(0, 2), delta=0.1)
            assert y.min() - 1e-12 <= est.value <= y.max() + 1e-12

    def test_window_invariant_under_joint_scaling(self):
        rng = np.random.default_rng(10)
        y = rng.normal(0.0, 1.0, 128)
        for scale in (0.01, 3.0, 250.0):
            base = adaptive_window_mean(y, sigma=0.7, delta=0.1)
            scaled = adaptive_window_mean(scale * y, sigma=scale * 0.7, delta=0.1)
            assert base.window == scaled.window

    def test_changepoint_detection_monte_carlo(self):
        # jump of 1 at the midpoint: the r = n/2 doubling test spans it
        n, sigma = 128, 0.1
        theta = np.concatenate([np.zeros(n // 2), np.ones(n // 2)])
        small = 0
        for trial in range(100):
            rng = np.random.default_rng(3000 + trial)
            y = theta + rng.normal(0.0, sigma, n)
            if adaptive_window_mean(y, sigma, 0.1).window <= n // 2:
                small += 1
        assert small >= 90

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            adaptive_window_mean(np.ones(4), sigma=-1.0, delta=0.1)
        with pytest.raises(ValueError):
            adaptive_window_mean(np.ones(4), sigma=1.0, delta=0.0)
        with pytest.raises(BadWindow):
            adaptive_window_mean(np.empty(0), sigma=1.0, delta=0.1)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf, np.float64("nan")])
    def test_non_finite_sigma_refused(self, sigma):
        # a NaN sigma fails every doubling test's "<=", which used to pick
        # the full window of this step series instead of raising
        y = np.array([0.0] * 4 + [1.0] * 4)
        with pytest.raises(ValueError, match="sigma must be finite"):
            adaptive_window_mean(y, sigma, 0.1)
        with pytest.raises(ValueError, match="sigma must be"):
            adaptive_window_sweep(y, sigma, 0.1)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf, [0.1] * 7 + [math.nan], [0.1, -math.inf] + [0.1] * 6])
    def test_sweep_names_non_finite_sigma(self, sigma):
        # checked before the sign, so NaN is not reported as negative
        y = np.array([0.0] * 4 + [1.0] * 4)
        with pytest.raises(ValueError, match=r"sigma must be finite, got -?(nan|inf)"):
            adaptive_window_sweep(y, sigma, 0.1)


class TestSigmaProxy:
    def test_half_range(self):
        assert range_sigma_proxy(np.array([-1.0, 0.0, 3.0])) == 2.0

    def test_constant(self):
        assert range_sigma_proxy(np.full(5, 2.2)) == 0.0


# --- whole-series sweeps against the scalar scans ----------------------------

TOL = 1e-10


def sweep_series(kind: str, seed: int, T: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if kind == "constant":
        return np.full(T, rng.choice([0.0, 0.1, 1.0 / 3.0, -7.25]))
    if kind == "near_constant":
        return 0.1 + rng.normal(0.0, 1e-12, T)
    drift = np.cumsum(rng.normal(0.0, rng.uniform(0.0, 0.2), T))
    y = drift + rng.normal(0.0, rng.uniform(0.05, 1.0), T)
    return y + rng.uniform(-1e6, 1e6) if kind == "offset" else y


def value_tol(y: np.ndarray) -> float:
    # np.mean itself rounds at the scale of the series
    return TOL * max(1.0, float(np.abs(y).max()))


def grid_decisions(y: np.ndarray, sigma, delta: float) -> tuple[np.ndarray, np.ndarray]:
    """(window, rechecked) of every prefix of y from one (levels x prefixes)
    grid: each doubling level's test on every prefix at once, in the
    sweep's formulas, each prefix stopping at its first unsure, failed or
    untested level."""
    T = len(y)
    sigma = np.broadcast_to(np.asarray(sigma, dtype=np.float64), (T,))
    centered = y - y[0]
    sums = np.concatenate([[0.0], np.cumsum(centered)])
    sums_err = np.cumsum(np.abs(sums)) + np.concatenate([[0.0], np.cumsum(np.abs(centered))])
    abs_y = np.concatenate([[0.0], np.cumsum(np.abs(y))])
    levels = T.bit_length() - 1
    r = (1 << np.arange(levels))[:, None]
    t = np.arange(1, T + 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        deviation = sigma * np.sqrt(2.0 * np.log(2.0 * np.log2(t) / delta))
    older = t - 2 * r  # wraps where 2r > t; never read there
    margin = np.abs((sums[t] - sums[t - r]) / r - (sums[t] - sums[older]) / (2 * r))
    rhs = baselines.ADAPTIVE_TEST_CONSTANT * deviation[t - 1] / np.sqrt(r)
    margin = margin - rhs
    band = (sums_err[t] / r + abs_y[t] - abs_y[older] + 2.0 * rhs) * (8.0 * np.finfo(float).eps)
    tested = older >= 0
    unsure = (np.abs(margin) <= band) & tested
    stop = np.vstack([unsure | ~(margin <= 0.0) | ~tested, np.ones((1, T), dtype=bool)])
    first = stop.argmax(axis=0)
    at_first = unsure[np.minimum(first, max(levels - 1, 0)), t - 1] if levels else np.zeros(T, bool)
    return (1 << first).astype(np.int64), (first < levels) & at_first


series_kinds = st.sampled_from(["drifting", "constant", "near_constant", "offset"])
known_sigmas = st.one_of(st.just(0.0), st.floats(1e-15, 1e-9), st.floats(0.01, 2.0))


class TestAdaptiveWindowSweep:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1), T=st.integers(1, 600), kind=series_kinds,
        sigma=st.one_of(known_sigmas, st.just("proxy")),
        delta=st.sampled_from([0.05, 0.1, 0.3]),
    )
    def test_matches_scalar_scan_on_every_prefix(self, seed, T, kind, sigma, delta):
        y = sweep_series(kind, seed, T)
        if sigma == "proxy":
            sigmas = [range_sigma_proxy(y[:t]) for t in range(1, T + 1)]
            sweep = adaptive_window_sweep(y, np.array(sigmas), delta)
            method = AdaptiveWindowMethod("proxy").prefix_estimates(y, 0.0, delta)
        else:
            sigmas = [sigma] * T
            sweep = adaptive_window_sweep(y, sigma, delta)
            method = AdaptiveWindowMethod("known").prefix_estimates(y, sigma, delta)
        np.testing.assert_array_equal(method, sweep.values)
        tol = value_tol(y)
        for t in range(1, T + 1):
            ref = adaptive_window_mean(y[:t], sigmas[t - 1], delta)
            assert sweep.windows[t - 1] == ref.window, t
            assert abs(sweep.values[t - 1] - ref.value) <= tol, t

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1), T=st.integers(1, 600), kind=series_kinds,
        sigma=st.one_of(known_sigmas, st.just("per-prefix")),
    )
    def test_level_walk_matches_the_whole_grid(self, seed, T, kind, sigma):
        """Testing one level at a time, on the prefixes long enough for it,
        and stopping at the first level no prefix passes, decides every
        prefix as the doubling test of every level on every prefix does."""
        y = sweep_series(kind, seed, T)
        if sigma == "per-prefix":  # zeros among them, whose prefixes are rechecked
            sigma = np.random.default_rng(seed).choice([0.0, 0.05, 0.3, 1.0], T)
        windows, rechecked = grid_decisions(y, sigma, 0.1)
        sweep = adaptive_window_sweep(y, sigma, 0.1)
        assert sweep.rechecked == int(rechecked.sum())
        settled = ~rechecked  # a rechecked prefix takes the scalar scan's window
        assert sweep.windows[settled].tobytes() == windows[settled].tobytes()

    def test_borderline_prefixes_fall_back_to_scalar_scan(self, monkeypatch):
        # With sigma = 0 every doubling test compares a rounding-level
        # difference against 0, so every prefix is re-decided.
        calls = []
        scalar = baselines.adaptive_window_mean

        def counting(y, sigma, delta):
            calls.append(len(y))
            return scalar(y, sigma, delta)

        monkeypatch.setattr(baselines, "adaptive_window_mean", counting)
        y = np.full(100, 0.1)
        sweep = adaptive_window_sweep(y, 0.0, 0.1)
        assert sweep.rechecked == 99
        assert calls == list(range(2, 101))
        for t in range(1, 101):
            ref = scalar(y[:t], 0.0, 0.1)
            assert sweep.windows[t - 1] == ref.window
            assert sweep.values[t - 1] == ref.value

    def test_level_past_the_prefix_is_never_rechecked(self):
        # y[:3] passes its one level (r = 1) clearly; its sigma puts the
        # margin of r = 2, which needs 4 samples, at 0.  Read with the means
        # of the 2 newest samples (1) and of 4 samples wrapping round to the
        # series' zero tail (0), that level would look unsure.
        y = np.array([0.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        unit = math.sqrt(2.0 * math.log(2.0 * math.log2(3) / 0.1))
        sigma = np.full(8, 0.3)
        sigma[2] = math.sqrt(2.0) / baselines.ADAPTIVE_TEST_CONSTANT / unit
        sweep = adaptive_window_sweep(y, sigma, 0.1)
        assert sweep.rechecked == 0
        assert sweep.windows[2] == adaptive_window_mean(y[:3], sigma[2], 0.1).window == 2

    def test_clear_margins_need_no_fallback(self):
        y = np.random.default_rng(4).normal(0.0, 0.5, 500)
        assert adaptive_window_sweep(y, 0.5, 0.1).rechecked == 0

    def test_single_observation(self):
        sweep = adaptive_window_sweep([3.0], 1.0, 0.1)
        assert sweep.values.tolist() == [3.0] and sweep.windows.tolist() == [1]

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            adaptive_window_sweep(np.ones(4), -1.0, 0.1)
        with pytest.raises(ValueError):
            adaptive_window_sweep(np.ones(4), [0.1, 0.1, math.nan, 0.1], 0.1)
        with pytest.raises(ValueError):
            adaptive_window_sweep(np.ones(4), 1.0, 1.0)
        with pytest.raises(BadWindow):
            adaptive_window_sweep(np.empty(0), 1.0, 0.1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(NonFiniteValue):
            adaptive_window_sweep(np.array([0.1] * 7 + [bad]), 0.3, 0.1)


class TestStackedSweeps:
    """A (B, T) stack is swept as B series, each row bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1), T=st.integers(1, 600),
        kinds=st.lists(series_kinds, min_size=1, max_size=7),
        sigma=st.one_of(known_sigmas, st.sampled_from(["per-prefix", "per-row-prefix"])),
        delta=st.sampled_from([0.05, 0.1, 0.3]),
    )
    def test_adaptive_rows_match_single_series(self, seed, T, kinds, sigma, delta):
        Y = np.array([sweep_series(kind, seed + i, T) for i, kind in enumerate(kinds)])
        rng = np.random.default_rng(seed)
        # zeros among the per-prefix scales, whose prefixes are rechecked
        if sigma == "per-prefix":
            sigma = rng.choice([0.0, 0.05, 0.3, 1.0], T)
        elif sigma == "per-row-prefix":
            sigma = rng.choice([0.0, 0.05, 0.3, 1.0], Y.shape)
        stacked = adaptive_window_sweep(Y, sigma, delta)
        assert stacked.values.shape == stacked.windows.shape == Y.shape
        for b, y in enumerate(Y):
            alone = adaptive_window_sweep(y, sigma[b] if np.ndim(sigma) == 2 else sigma, delta)
            assert stacked.values[b].tobytes() == alone.values.tobytes()
            assert stacked.windows[b].tobytes() == alone.windows.tobytes()
            assert stacked.rechecked[b] == alone.rechecked

    def test_zero_sigma_constant_rows_all_rechecked(self):
        Y = np.array([np.full(100, 0.1), np.full(100, -3.0), np.zeros(100)])
        stacked = adaptive_window_sweep(Y, 0.0, 0.1)
        assert stacked.rechecked.tolist() == [99, 99, 99]
        for b, y in enumerate(Y):
            assert stacked.values[b].tobytes() == adaptive_window_sweep(y, 0.0, 0.1).values.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1), T=st.integers(1, 600),
        kinds=st.lists(series_kinds, min_size=1, max_size=7), w=st.integers(1, 70),
    )
    def test_fixed_rows_match_single_series(self, seed, T, kinds, w):
        Y = np.array([sweep_series(kind, seed + i, T) for i, kind in enumerate(kinds)])
        stacked = fixed_window_sweep(Y, w)
        for b, y in enumerate(Y):
            assert stacked.values[b].tobytes() == fixed_window_sweep(y, w).values.tobytes()

    @pytest.mark.parametrize("shape", [(9,), (3, 9)], ids=["series", "stack"])
    def test_fixed_windows_are_a_writable_array(self, shape):
        sweep = fixed_window_sweep(np.ones(shape), 4)
        assert sweep.windows.flags.writeable and sweep.windows.flags.owndata
        assert sweep.windows.tolist() == np.broadcast_to([1, 2, 3, 4, 4, 4, 4, 4, 4], shape).tolist()

    def test_nan_names_the_row(self):
        Y = np.zeros((2, 8))
        Y[1, 3] = math.inf
        for sweep in (lambda: adaptive_window_sweep(Y, 0.3, 0.1), lambda: fixed_window_sweep(Y, 2)):
            with pytest.raises(NonFiniteValue, match="^row 1 observation 3 is inf"):
                sweep()

    def test_empty_or_deep_stack_refused(self):
        for y in (np.empty((0, 4)), np.empty((2, 0)), np.ones((2, 2, 2))):
            with pytest.raises(BadWindow):
                adaptive_window_sweep(y, 0.3, 0.1)
            with pytest.raises(BadWindow):
                fixed_window_sweep(y, 2)


class TestFixedWindowSweep:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1), T=st.integers(1, 600), kind=series_kinds,
        data=st.data(),
    )
    def test_matches_scalar_mean_on_every_prefix(self, seed, T, kind, data):
        w = data.draw(st.integers(1, T + 5))
        y = sweep_series(kind, seed, T)
        sweep = fixed_window_sweep(y, w)
        np.testing.assert_array_equal(
            FixedWindowMethod(w).prefix_estimates(y, 0.0, 0.1), sweep.values
        )
        tol = value_tol(y)
        for t in range(1, T + 1):
            ref = fixed_window_mean(y[:t], min(w, t))
            assert sweep.windows[t - 1] == ref.window, t
            assert abs(sweep.values[t - 1] - ref.value) <= tol, t

    def test_parameter_validation(self):
        with pytest.raises(BadWindow):
            fixed_window_sweep(np.ones(4), 0)
        with pytest.raises(BadWindow):
            fixed_window_sweep(np.empty(0), 2)
        # only an integer is a window: a float is refused, not used as an index
        for w in (2.5, np.float64(3.0), True):
            with pytest.raises(BadWindow, match="window must be an integer"):
                fixed_window_sweep(np.ones(4), w)
        with pytest.raises(NonFiniteValue):
            fixed_window_sweep(np.array([1.0, math.inf]), 2)
