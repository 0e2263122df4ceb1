import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import driftwave
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

    @pytest.mark.parametrize("family, sigma", [("haar", "mad"), ("db4", 0.3)])
    def test_overflow_raises(self, family, sigma):
        with np.errstate(all="ignore"), pytest.raises(NonFiniteValue, match="overflow"):
            wavelet_prefix_estimates(np.full(8, 1e308), family, sigma=sigma, delta=0.1)

    def test_bad_sigma_string(self):
        with pytest.raises(ValueError):
            wavelet_prefix_estimates(np.zeros(8), "haar", sigma="median", delta=0.1)

    def test_bad_boundary(self):
        with pytest.raises(ValueError):
            wavelet_prefix_estimates(np.zeros(8), "haar", sigma=0.3, delta=0.1, boundary="pad")


class TestScratch:
    """The FFT product, lags and Haar table live in buffers each thread keeps."""

    @pytest.mark.parametrize("family", ["db8", "haar"])
    def test_threads_match_serial(self, family):
        # numpy releases the GIL inside FFTs and ufunc loops: buffers shared
        # between threads would mix one sweep's lags into another's
        rng = np.random.default_rng(21)
        series = [rng.normal(0.4, 0.3, int(T)) for T in rng.integers(200, 1024, 64)]

        def sweep(y):
            return wavelet_prefix_estimates(y, family, sigma=0.3, delta=0.1)

        serial = [sweep(y) for y in series]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often between the numpy calls too
        try:
            with ThreadPoolExecutor(4) as pool:
                threaded = list(pool.map(sweep, series, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        for want, got in zip(serial, threaded):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.skipif(sys.platform != "linux", reason="reads minor faults from getrusage")
    def test_db8_sweeps_fault_no_pages_back_in(self):
        # Freed FFT buffers of a db8 level go back to the operating system
        # once the bound profile has run between the tables, so allocating
        # them per call costs ~120 minor faults per db8 sweep.  A fresh
        # interpreter, because the allocator's thresholds depend on what the
        # process freed before.
        code = """
import resource
import driftwave as dw
methods = [dw.WaveletMethod("db8"), dw.WaveletMethod("haar"),
           dw.AdaptiveWindowMethod(), dw.FixedWindowMethod(16)]
signal = dw.SignalSpec("doppler", 500)
noise = dw.NoiseSpec("uniform", (0.2, 0.3, 0.5, 0.7, 1.0))
theta = dw.generate_signal(signal, 0)
def tables():
    dw.run_online_eval(signal, noise, methods, 5, 0, delta=0.1)
    dw.bound_profile(theta, noise, ("haar", "db8"), delta=0.1)
tables()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(3):
    tables()
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / (3 * 5 * 5))
"""
        env = {**os.environ, "PYTHONPATH": str(Path(driftwave.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert float(done.stdout) < 20
