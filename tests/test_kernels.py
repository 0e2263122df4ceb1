import numpy as np
import pytest

from driftwave._kernels import prefix_estimates_reference, wavelet_prefix_estimates
from driftwave.errors import DomainError, NonFiniteValue


@pytest.fixture(scope="module")
def noisy_series():
    rng = np.random.default_rng(11)
    return rng.normal(0.4, 0.3, 260)


# The kernel takes any array-like; each parity case feeds the same series as a
# numpy array and as a plain list.
INPUTS = pytest.mark.parametrize("as_input", [np.asarray, list], ids=["numpy", "list"])


class TestBackendParity:
    """The one kernel path against the per-prefix public estimator."""

    @INPUTS
    @pytest.mark.parametrize("family", ["haar", "db8"])
    @pytest.mark.parametrize("sigma", [0.3, "mad", 0.0])
    def test_matches_public_estimator(self, noisy_series, as_input, family, sigma):
        ref = prefix_estimates_reference(noisy_series, family, sigma=sigma, delta=0.1)
        got = wavelet_prefix_estimates(as_input(noisy_series), family, sigma=sigma, delta=0.1)
        np.testing.assert_allclose(got, ref, rtol=1e-10, atol=1e-10)

    @INPUTS
    @pytest.mark.parametrize("boundary", ["reflect", "periodic"])
    def test_boundary_modes(self, noisy_series, as_input, boundary):
        ref = prefix_estimates_reference(
            noisy_series, "db4", sigma=0.3, delta=0.1, boundary=boundary
        )
        got = wavelet_prefix_estimates(
            as_input(noisy_series), "db4", sigma=0.3, delta=0.1, boundary=boundary
        )
        np.testing.assert_allclose(got, ref, rtol=1e-10, atol=1e-10)

    @INPUTS
    def test_lambda_override(self, noisy_series, as_input):
        ref = prefix_estimates_reference(
            noisy_series, "haar", sigma=0.3, delta=0.1, lam_override=0.25
        )
        got = wavelet_prefix_estimates(
            as_input(noisy_series), "haar", sigma=0.3, delta=0.1, lam_override=0.25
        )
        np.testing.assert_allclose(got, ref, rtol=1e-10, atol=1e-10)

    @pytest.mark.parametrize("family", ["haar", "db1", "HAAR"])
    @pytest.mark.parametrize("boundary", ["reflect", "periodic"])
    @pytest.mark.parametrize("sigma, lam", [(0.3, None), ("mad", None), (0.0, None), ("mad", 0.25)])
    def test_haar_block_sums(self, noisy_series, family, boundary, sigma, lam):
        """The Haar path (every spelling of the family) under every sigma mode."""
        ref = prefix_estimates_reference(
            noisy_series, family, sigma=sigma, delta=0.1, lam_override=lam, boundary=boundary
        )
        got = wavelet_prefix_estimates(
            noisy_series, family, sigma=sigma, delta=0.1, lam_override=lam, boundary=boundary
        )
        np.testing.assert_allclose(got, ref, rtol=1e-10, atol=1e-10)

    @INPUTS
    @pytest.mark.parametrize(
        "constant, boundary", [(False, "periodic"), (True, "reflect")],
        ids=["periodic-passthrough", "constant-series"],
    )
    def test_mad_threshold_undefined_only_where_unused(
        self, noisy_series, as_input, constant, boundary
    ):
        """delta = 0.8 leaves the threshold undefined at window 2 (ln 2/0.8 < 1),
        where neither case needs one: periodic MAD passes windows shorter than
        4 through, and every MAD sigma of a constant (zero) series is 0."""
        y = np.zeros(len(noisy_series)) if constant else noisy_series
        ref = prefix_estimates_reference(y, "db4", sigma="mad", delta=0.8, boundary=boundary)
        got = wavelet_prefix_estimates(
            as_input(y), "db4", sigma="mad", delta=0.8, boundary=boundary
        )
        np.testing.assert_allclose(got, ref, rtol=1e-10, atol=1e-10)


class TestEdgeCases:
    def test_first_estimate_is_the_observation(self, noisy_series):
        out = wavelet_prefix_estimates(noisy_series, "haar", sigma=0.3, delta=0.1)
        assert out[0] == noisy_series[0]

    def test_empty_input(self):
        out = wavelet_prefix_estimates(np.empty(0), "haar", sigma=0.3, delta=0.1)
        assert out.size == 0

    def test_single_point(self):
        out = wavelet_prefix_estimates(np.array([2.5]), "haar", sigma=0.3, delta=0.1)
        np.testing.assert_array_equal(out, [2.5])

    def test_degenerate_delta_rejected(self):
        with pytest.raises(DomainError):
            wavelet_prefix_estimates(np.zeros(8), "haar", sigma=0.3, delta=0.8)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("sigma", [0.3, "mad"])
    def test_non_finite_rejected(self, noisy_series, bad, sigma):
        y = noisy_series.copy()
        y[100] = bad
        with pytest.raises(NonFiniteValue):
            wavelet_prefix_estimates(y, "db8", sigma=sigma, delta=0.1)

    def test_bad_sigma_string(self):
        with pytest.raises(ValueError):
            wavelet_prefix_estimates(np.zeros(8), "haar", sigma="median", delta=0.1)

    def test_bad_boundary(self):
        with pytest.raises(ValueError):
            wavelet_prefix_estimates(np.zeros(8), "haar", sigma=0.3, delta=0.1, boundary="pad")
