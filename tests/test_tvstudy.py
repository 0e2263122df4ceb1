import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from driftwave import bench, tvstudy
from driftwave.errors import LengthMismatch
from driftwave.tvstudy import ScalingFit, TVStudySpec, risk, run_tv_study


class TestRisk:
    def test_perfect_estimates(self):
        theta = np.arange(5.0)
        assert risk(theta, theta, "sq") == 0.0
        assert risk(theta, theta, "abs") == 0.0

    def test_unit_errors(self):
        est = np.ones(10)
        truth = np.zeros(10)
        assert risk(est, truth, "sq") == 10.0

    def test_abs(self):
        assert risk(np.array([3.0, -4.0]), np.zeros(2), "abs") == 7.0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            risk(np.zeros(3), np.zeros(4), "sq")

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            risk(np.zeros(3), np.zeros(3), "rmse")

    @given(st.floats(-100, 100))
    def test_shift_invariance(self, shift):
        rng = np.random.default_rng(0)
        est, truth = rng.normal(size=16), rng.normal(size=16)
        for kind in ("sq", "abs"):
            a = risk(est, truth, kind)
            b = risk(est + shift, truth + shift, kind)
            assert abs(a - b) <= 1e-9 * max(1.0, a)

    def test_stack_scores_each_row_as_alone(self):
        rng = np.random.default_rng(2)
        for n in (2, 3, 17, 256, 4096):
            for rows in (1, 3, 10):
                est, truth = rng.normal(size=(rows, n)), rng.normal(size=(rows, n))
                for kind in ("sq", "abs"):
                    stacked = risk(est, truth, kind)
                    alone = [risk(e, t, kind) for e, t in zip(est, truth)]
                    assert isinstance(alone[0], float) and stacked.shape == (rows,)
                    assert stacked.tobytes() == np.array(alone).tobytes()

    def test_sq_dominated_by_max_error_times_abs(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            est, truth = rng.normal(size=32), rng.normal(size=32)
            err = np.abs(est - truth)
            assert risk(est, truth, "sq") <= err.max() * risk(est, truth, "abs") + 1e-12


class TestSpecValidation:
    def test_grid_must_be_dyadic(self):
        with pytest.raises(ValueError):
            TVStudySpec(1.0, 1.0, (100, 200), 2)

    def test_grid_must_increase(self):
        with pytest.raises(ValueError):
            TVStudySpec(1.0, 1.0, (512, 256), 2)

    @pytest.mark.parametrize("grid", [(32.5,), (32.0, 64), (32, "64"), (np.float64(64),), (True, 64)])
    def test_grid_entries_must_be_integers(self, grid):
        with pytest.raises(ValueError, match="each n_grid entry must be a positive integer"):
            TVStudySpec(1.0, 1.0, grid, 2)

    @pytest.mark.parametrize("trials", [1.5, 2.0, 0, None, True])
    def test_trials_must_be_a_positive_integer(self, trials):
        with pytest.raises(ValueError, match="trials must be a positive integer"):
            TVStudySpec(1.0, 1.0, (64,), trials)

    def test_trials_default_to_ten(self):
        assert TVStudySpec(1.0, 1.0, (64,)).trials == 10

    def test_numpy_integer_counts_accepted(self):
        spec = TVStudySpec(1.0, 0.5, (np.int64(32), np.int64(64)), np.int64(1))
        fit = run_tv_study(spec, base_seed=0)
        assert fit.to_text("json").count('"n": ') == 2

    def test_nonnegative_params(self):
        with pytest.raises(ValueError):
            TVStudySpec(-1.0, 1.0, (64,), 2)

    @pytest.mark.parametrize("delta", [0.0, 1.0, 5.0, -0.1])
    def test_delta_inside_unit_interval(self, delta):
        with pytest.raises(ValueError, match="delta"):
            TVStudySpec(1.0, 1.0, (64,), 2, delta=delta)


class TestRunStudy:
    def test_zero_noise_passthrough_gives_zero_risk(self):
        spec = TVStudySpec(
            tv_radius=1.0, sigma=0.0, n_grid=(64, 128), trials=2,
            estimator={"kind": "passthrough"},
        )
        fit = run_tv_study(spec, base_seed=0)
        assert np.all(fit.mean_sq == 0.0)
        assert np.all(fit.mean_abs == 0.0)
        assert np.isnan(fit.exponent_sq)  # no line through zero risks

    def test_deterministic_given_seed(self):
        spec = TVStudySpec(
            tv_radius=1.0, sigma=0.5, n_grid=(64, 128), trials=3,
            estimator={"kind": "wavelet", "family": "haar"},
        )
        a = run_tv_study(spec, base_seed=7)
        b = run_tv_study(spec, base_seed=7)
        assert a.to_csv() == b.to_csv()

    def test_constant_truth_risk_grows_slowly(self):
        # zero-variation truth: summed risk should grow at most polylog
        spec = TVStudySpec(
            tv_radius=0.0, sigma=1.0, n_grid=(128, 256, 512, 1024), trials=10,
            estimator={"kind": "wavelet", "family": "haar"},
        )
        fit = run_tv_study(spec, base_seed=11)
        assert fit.exponent_sq <= 0.25

    def test_doubling_radius_does_not_reduce_risk(self):
        grids = (256,)
        fits = []
        for C in (0.5, 1.0, 2.0):
            spec = TVStudySpec(
                tv_radius=C, sigma=1.0, n_grid=grids, trials=10,
                estimator={"kind": "wavelet", "family": "haar"},
            )
            fits.append(float(run_tv_study(spec, base_seed=21).mean_sq[0]))
        assert fits[1] >= fits[0] * 0.95
        assert fits[2] >= fits[1] * 0.95

    @pytest.mark.parametrize("estimator", [
        {"kind": "wavelet", "family": "haar"},
        {"kind": "wavelet", "family": "db4", "sigma": "mad"},
        {"kind": "adaptive_window"},
    ], ids=["haar", "db4_mad", "adaptive"])
    def test_stacked_trials_match_per_series_calls(self, monkeypatch, estimator):
        """The trials of a horizon reach a stacked estimator as one stack; a
        wrapper without ``stacked`` is called once per trial, and the fit's
        bytes are the same."""
        spec = TVStudySpec(tv_radius=1.5, sigma=0.7, n_grid=(16, 64, 256), trials=5, estimator=estimator)
        stacked = run_tv_study(spec, base_seed=4)
        calls = []

        class Forwarding:
            def __init__(self, inner):
                self.inner, self.name = inner, inner.name

            def prefix_estimates(self, y, known_sigma, delta):
                calls.append(len(y))
                return self.inner.prefix_estimates(y, known_sigma, delta)

        original = tvstudy.make_method
        monkeypatch.setattr(tvstudy, "make_method", lambda spec: Forwarding(original(spec)))
        assert run_tv_study(spec, base_seed=4).to_csv() == stacked.to_csv()
        assert calls == [16] * 5 + [64] * 5 + [256] * 5

    def test_trials_are_stacked_in_bounded_chunks(self, monkeypatch):
        spec = TVStudySpec(tv_radius=1.5, sigma=0.7, n_grid=(16, 64), trials=5,
                           estimator={"kind": "wavelet", "family": "db4"})
        whole = run_tv_study(spec, base_seed=6)
        shapes = []
        original = tvstudy.make_method

        def recording(method_spec):
            method = original(method_spec)
            inner = method.prefix_estimates
            method.prefix_estimates = lambda y, s, d: shapes.append(y.shape) or inner(y, s, d)
            return method

        monkeypatch.setattr(tvstudy, "make_method", recording)
        # three 16-sample trials per chunk, one 64-sample trial
        monkeypatch.setattr(bench, "_SCRATCH_BYTES", 3 * 8 * 16)
        assert run_tv_study(spec, base_seed=6).to_csv() == whole.to_csv()
        assert shapes == [(3, 16), (2, 16)] + [(1, 64)] * 5

    def test_peak_memory_does_not_grow_with_trials(self):
        # 128 trials fill a chunk of 1024 samples, and two of 2048 samples
        peaks = []
        for trials in (128, 512):
            spec = TVStudySpec(tv_radius=1.0, sigma=1.0, n_grid=(1024, 2048), trials=trials,
                               estimator={"kind": "wavelet", "family": "haar"})
            tracemalloc.start()
            try:
                run_tv_study(spec, base_seed=0)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < peaks[0] + 2**20

    def test_csv_format(self):
        spec = TVStudySpec(
            tv_radius=0.5, sigma=0.3, n_grid=(32, 64), trials=2,
            estimator={"kind": "wavelet", "family": "haar"},
        )
        fit = run_tv_study(spec, base_seed=1)
        lines = fit.to_csv().strip().splitlines()
        assert lines[0] == "n,mean_r_sq,std_r_sq,mean_r_abs,std_r_abs,exponent_sq,exponent_abs"
        assert len(lines) == 3
        assert lines[1].startswith("32,")
