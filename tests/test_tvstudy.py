import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

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

    def test_deterministic_and_thread_independent(self):
        spec = TVStudySpec(
            tv_radius=1.0, sigma=0.5, n_grid=(64, 128), trials=3,
            estimator={"kind": "wavelet", "family": "haar"},
        )
        a = run_tv_study(spec, base_seed=7, threads=1)
        b = run_tv_study(spec, base_seed=7, threads=4)
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
