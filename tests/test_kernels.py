import inspect
import os
import subprocess
import sys
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import driftwave
from driftwave import wavelets
from driftwave._kernels import (
    _levels,
    _mad_sigma,
    _shrink_in_place,
    prefix_estimates_reference,
    wavelet_prefix_estimates,
)
from driftwave.errors import DomainError, LengthMismatch, NonFiniteValue
from driftwave.wavelets import support_basis


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
    @pytest.mark.parametrize("family", ["haar", "db4", "db8"])
    @pytest.mark.parametrize("sigma", [0.3, "mad", 0.0])
    def test_matches_public_estimator(self, noisy_series, as_input, family, sigma):
        ref = prefix_estimates_reference(noisy_series, family, sigma=sigma, delta=0.1)
        got = wavelet_prefix_estimates(as_input(noisy_series), family, sigma=sigma, delta=0.1)
        np.testing.assert_allclose(got, ref, rtol=1e-10, atol=1e-10)

    @pytest.mark.parametrize("family", ["haar", "db1", "HAAR"])
    @pytest.mark.parametrize("sigma", [0.3, "mad", 0.0])
    def test_haar_block_sums(self, noisy_series, family, sigma):
        """The Haar path (every spelling of the family) under every sigma mode."""
        ref = prefix_estimates_reference(noisy_series, family, sigma=sigma, delta=0.1)
        got = wavelet_prefix_estimates(noisy_series, family, sigma=sigma, delta=0.1)
        np.testing.assert_allclose(got, ref, rtol=1e-10, atol=1e-10)

    @INPUTS
    def test_mad_threshold_undefined_only_where_unused(self, as_input):
        """delta = 0.8 leaves the threshold undefined at window 2 (ln 2/0.8 < 1),
        where a constant (zero) series needs none: every MAD sigma is 0."""
        y = np.zeros(260)
        ref = prefix_estimates_reference(y, "db4", sigma="mad", delta=0.8)
        got = wavelet_prefix_estimates(as_input(y), "db4", sigma="mad", delta=0.8)
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
        with np.errstate(all="raise"), pytest.raises(NonFiniteValue, match="overflow"):
            wavelet_prefix_estimates(np.full(8, 1e308), family, sigma=sigma, delta=0.1)

    def test_bad_sigma_string(self):
        with pytest.raises(ValueError):
            wavelet_prefix_estimates(np.zeros(8), "haar", sigma="median", delta=0.1)

    @pytest.mark.parametrize("sweep", [wavelet_prefix_estimates, prefix_estimates_reference])
    def test_surface_is_pinned(self, sweep):
        # One configuration: the reflect boundary and the default threshold.
        # A new option is a new lane to test and document: add it here,
        # where review sees it.
        params = inspect.signature(sweep).parameters.values()
        assert [(p.name, p.kind.name, p.default is p.empty) for p in params] == [
            ("y", "POSITIONAL_OR_KEYWORD", True), ("family", "POSITIONAL_OR_KEYWORD", True),
            ("sigma", "KEYWORD_ONLY", True), ("delta", "KEYWORD_ONLY", True),
        ]


def _minor_faults(code: str, tmp_path: Path) -> list[int]:
    """What ``code`` prints, a count of minor faults, from a fresh
    interpreter at each of three package-root path lengths (symlinks to this
    package's root): a count that follows the heap layout differs between
    them.  A fixed environment, because the length of inherited variables
    such as PYTEST_CURRENT_TEST, PWD and OLDPWD moves the heap too."""
    env = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "PYTHONDONTWRITEBYTECODE") if k in os.environ}
    counts = []
    for name in ("r", "root-" * 3, "package-root-" * 4):
        link = tmp_path / name
        link.symlink_to(Path(driftwave.__file__).parents[1], target_is_directory=True)
        done = subprocess.run([sys.executable, "-c", code], env={**env, "PYTHONPATH": str(link)},
                              capture_output=True, text=True, check=True)
        counts.append(int(done.stdout))
    return counts


def _assert_same_and_below(pages: list[int], units: int, bound: float):
    # A stray page faults in ~7% of children, at any path length: counts a
    # few pages apart are the same count.
    assert max(pages) - min(pages) <= 3, pages
    assert max(pages) / units < bound, pages


class TestScratch:
    """The FFT product, lags and Haar table live in buffers each thread keeps."""

    @pytest.mark.parametrize("family", ["db8", "haar"])
    def test_threads_match_serial(self, family):
        # numpy releases the GIL inside FFTs and ufunc loops: buffers shared
        # between threads would mix one sweep's lags into another's; stacks
        # of 3 to 5 series fill more of each buffer
        rng = np.random.default_rng(21)
        series = [rng.normal(0.4, 0.3, int(T)) for T in rng.integers(200, 1024, 64)]
        series += [rng.normal(0.4, 0.3, (int(B), int(T)))
                   for B, T in zip(rng.integers(3, 6, 16), rng.integers(200, 1024, 16))]

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
    def test_db8_sweeps_fault_no_pages_back_in(self, tmp_path):
        # The paper tables hand the db8 and Haar sweeps (25, 500) stacks,
        # five noise levels of five trials, with a (25, 1) sigma column.
        # Once warm, the sweeps fault no pages in (per row).  Only the
        # sweeps run and are counted: work between them, such as the rest
        # of the tables, moves the heap, and with it the count.
        code = """
import resource
import numpy as np
import driftwave as dw
noise = dw.NoiseSpec("uniform", (0.2, 0.3, 0.5, 0.7, 1.0))
theta = dw.generate_signal(dw.SignalSpec("doppler", 500), 0)
Y = theta + np.random.default_rng(0).uniform(-1.0, 1.0, (25, 500))
sigma = np.repeat([noise.known_sigma(level) for level in noise.levels], 5)[:, None]
methods = [dw.WaveletMethod("db8"), dw.WaveletMethod("haar")]
def sweeps():
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for method in methods:
        method.prefix_estimates(Y, sigma, 0.1)
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
sweeps(), sweeps()
print(sum(sweeps() for _ in range(3)))
"""
        _assert_same_and_below(_minor_faults(code, tmp_path), 3 * 25, 20)

    @pytest.mark.skipif(sys.platform != "linux", reason="reads minor faults from getrusage")
    def test_stacked_tv_study_faults_no_pages_back_in(self, tmp_path):
        # The tvscale flow hands the Haar sweep stacks of 10 series of 256
        # to 2048 samples.  Once warm, the sweeps fault no pages in (per
        # horizon and trial), counted as above; a Haar table allocated per
        # call faults ~9 at some path lengths.
        code = """
import resource
import numpy as np
import driftwave as dw
stacks = [np.random.default_rng(n).normal(0.0, 1.0, (10, n)) for n in (256, 512, 1024, 2048)]
method = dw.WaveletMethod("haar")
def sweeps():
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for Y in stacks:
        method.prefix_estimates(Y, 1.0, 0.1)
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
sweeps(), sweeps()
print(sum(sweeps() for _ in range(3)))
"""
        _assert_same_and_below(_minor_faults(code, tmp_path), 3 * 4 * 10, 2)

    @pytest.mark.parametrize("family, shape", [("db8", (25, 500)), ("haar", (10, 2048))])
    def test_warm_sweep_allocates_no_kept_buffer(self, monkeypatch, family, shape):
        # The fault counts above catch a sweep that allocates its buffers
        # per call only at some path lengths.  The bytes a warm sweep
        # allocates do not depend on the heap: served from the kept
        # buffers, its FFT product, lags or Haar table leave the traced
        # peak well below that of a sweep that allocates every request
        # (0.47 and 0.57 of it, measured).
        Y = np.random.default_rng(0).normal(0.0, 0.3, shape)

        def warm_peak():
            for _ in range(2):
                wavelet_prefix_estimates(Y, family, sigma=0.3, delta=0.1)
            tracemalloc.start()
            try:
                wavelet_prefix_estimates(Y, family, sigma=0.3, delta=0.1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        kept = warm_peak()
        monkeypatch.setattr(wavelets, "_SCRATCH_BYTES", 0)
        assert kept < 0.75 * warm_peak()


def stack_rows(rng, kinds, T: int) -> np.ndarray:
    """One series per kind: noise, a constant, or noise offset by 1e3."""
    rows = {"noisy": lambda: rng.normal(0.4, 0.3, T),
            "constant": lambda: np.full(T, rng.choice([0.0, -2.5, 1.0 / 3.0])),
            "offset": lambda: 1e3 + rng.normal(0.0, 0.3, T)}
    return np.array([rows[kind]() for kind in kinds])


class TestStacked:
    """A (B, T) stack is swept as B series, each row bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(
        family=st.sampled_from(["haar", "db2", "db4", "db8"]),
        sigma=st.sampled_from(["float", "column", "mad"]),
        B=st.integers(1, 8),
        T=st.integers(1, 600),
        seed=st.integers(0, 2**32 - 1),
    )
    # the longer horizons reach the block correlation of a short last level,
    # and at T = 2**k the last level holds one window per row, which MAD's
    # `finest` must round as it rounds the same window among others
    @example(family="db8", sigma="float", B=5, T=1500, seed=1)
    @example(family="db8", sigma="mad", B=2, T=1024, seed=2)
    @example(family="haar", sigma="mad", B=3, T=2048, seed=3)
    @example(family="db2", sigma="column", B=4, T=1023, seed=4)
    def test_rows_match_single_series(self, family, sigma, B, T, seed):
        """Row b of a (B, T) sweep has the bytes of the call with that row
        alone at its own sigma: a float shared by the stack, one entry of a
        (B, 1) column, or "mad".  The rows hold zeros, ties and -0.0."""
        rng = np.random.default_rng(seed)
        Y = stack_rows(rng, rng.choice(["noisy", "constant", "offset"], B), T)
        spots = rng.random((B, T)) < 0.2
        Y[spots] = rng.choice([0.0, -0.0, 0.3, -0.3], spots.sum())
        column = rng.choice([0.0, -0.0, 1e-12, 0.05, 0.3, 1.0], (B, 1))
        if sigma == "float":
            column[:] = column[0]
        stacked = {"float": float(column[0, 0]), "column": column, "mad": "mad"}[sigma]
        got = wavelet_prefix_estimates(Y, family, sigma=stacked, delta=0.1)
        assert got.shape == Y.shape
        for b in range(B):
            alone = "mad" if sigma == "mad" else float(column[b, 0])
            want = wavelet_prefix_estimates(Y[b], family, sigma=alone, delta=0.1)
            assert got[b].tobytes() == want.tobytes(), b

    @pytest.mark.parametrize("B", [1, 2, 5, 25])
    @pytest.mark.parametrize("family", ["db2", "db8"])
    def test_one_product_per_chunk_matches_the_row_products(self, B, family):
        """The chunk's shrunk coefficients reduced against the weights by one
        matmul into the output's strided columns: the bits of one
        (count, |S|) @ weights product per row, at every level."""
        Y = np.random.default_rng(B).normal(0.0, 1.0, (B, 500))
        for m, lo, hi in _levels(500):
            basis = support_basis(family, m, "reflect")
            shrunk = _shrink_in_place(basis.sliding(Y, hi - lo), 0.4)
            out = np.zeros((B, 500))
            np.matmul(shrunk, basis.weights, out=out[:, lo:hi])
            for b in range(B):
                assert out[b, lo:hi].tobytes() == (shrunk[b] @ basis.weights).tobytes(), (b, m)

    # the sweep is reflect-only; the ids keep the boundary they always named
    @pytest.mark.parametrize("family", ["haar", "db4"], ids=lambda f: f"reflect-{f}")
    def test_mad_sigma_rows_match_single_series(self, family):
        # The last level of T = 2**k holds one window per row, which
        # `finest` must round as it rounds the same window among others.
        rng = np.random.default_rng(5)
        for T in (8, 9, 64, 100, 512, 2048):
            Y = rng.normal(0.0, 1.0, (6, T))
            for m, lo, hi in _levels(T):
                if m < 4:
                    continue
                got = _mad_sigma(family, Y, m, hi - lo)
                for y, row in zip(Y, got):
                    assert row.tobytes() == _mad_sigma(family, y[None], m, hi - lo)[0].tobytes(), (T, m)

    def test_empty_stack(self):
        assert wavelet_prefix_estimates(np.zeros((3, 0)), "db4", sigma=0.3, delta=0.1).shape == (3, 0)

    @pytest.mark.parametrize("family", ["haar", "db4"])
    def test_nan_names_the_row(self, family):
        Y = np.zeros((3, 16))
        Y[2, 5] = np.nan
        with pytest.raises(NonFiniteValue, match=r"^row 2 observation 5 is nan; need finite values$"):
            wavelet_prefix_estimates(Y, family, sigma=0.3, delta=0.1)
        with pytest.raises(NonFiniteValue, match=r"^observation 5 is nan; need finite values$"):
            wavelet_prefix_estimates(Y[2], family, sigma=0.3, delta=0.1)

    @pytest.mark.parametrize("family, sigma", [("haar", "mad"), ("db4", 0.3)])
    def test_overflow_names_the_row_and_prefix(self, family, sigma):
        Y = np.zeros((3, 8))
        Y[1] = 1e308
        with np.errstate(all="raise"), pytest.raises(
            NonFiniteValue, match=r"^the estimate from row 1's y\[:\d+\] is not finite: the observations overflow"
        ):
            wavelet_prefix_estimates(Y, family, sigma=sigma, delta=0.1)
        with np.errstate(all="raise"), pytest.raises(
            NonFiniteValue, match=r"^the estimate from y\[:\d+\] is not finite: the observations overflow"
        ):
            wavelet_prefix_estimates(Y[1], family, sigma=sigma, delta=0.1)

    def test_sigma_column_names_the_row_in_the_stack(self):
        # the whole stack is one sweep, so the error names row 1 of the stack
        Y = np.zeros((3, 8))
        Y[1] = 1e308
        column = np.array([[0.3], [0.1], [0.1]])
        with np.errstate(all="raise"), pytest.raises(NonFiniteValue, match=r"^the estimate from row 1's"):
            wavelet_prefix_estimates(Y, "db4", sigma=column, delta=0.1)
        with pytest.raises(LengthMismatch, match="one sigma per row"):
            wavelet_prefix_estimates(Y, "db4", sigma=column[:2], delta=0.1)

    @settings(max_examples=60, deadline=None)
    @given(
        family=st.sampled_from(["haar", "db4", "db8"]),
        T=st.one_of(st.integers(1, 300), st.sampled_from([512, 1025])),
        pool=st.lists(st.sampled_from([0.0, -0.0, 1e-12, 0.05, 0.3, 1.0]), min_size=1, max_size=4),
        B=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_sigma_column_rows_match_one_row_calls(self, family, T, pool, B, seed):
        """A (B, 1) sigma column thresholds each row by its own sigma in one
        sweep: row b has the bytes of the one-row call with sigma[b]."""
        rng = np.random.default_rng(seed)
        Y = stack_rows(rng, rng.choice(["noisy", "constant", "offset"], B), T)
        column = rng.choice(pool, (B, 1))
        got = wavelet_prefix_estimates(Y, family, sigma=column, delta=0.1)
        for b in range(B):
            want = wavelet_prefix_estimates(Y[b], family, sigma=float(column[b, 0]), delta=0.1)
            assert got[b].tobytes() == want.tobytes(), b

    def test_sigma_column_is_one_sweep(self, monkeypatch):
        """Five distinct sigmas in a (25, 500) db8 stack correlate as many
        chunks as one sigma does: the stack is not split by sigma."""
        calls = []
        cls = type(support_basis("db8", 2, "reflect"))
        sliding = cls.sliding
        monkeypatch.setattr(cls, "sliding", lambda self, *a: calls.append(len(a[0])) or sliding(self, *a))
        Y = np.random.default_rng(0).normal(0.0, 0.3, (25, 500))
        counts = []
        for column in (np.full((25, 1), 0.3), np.repeat([0.1, 0.2, 0.3, 0.4, 0.5], 5)[:, None]):
            calls.clear()
            wavelet_prefix_estimates(Y, "db8", sigma=column, delta=0.1)
            counts.append(len(calls))
        assert counts[0] >= len(_levels(500))
        assert counts[1] == counts[0]

    def test_zero_sigma_rows_with_an_undefined_threshold(self):
        """At delta = 0.8, ln(2)/delta < 1 leaves the threshold of the first
        level undefined: a column with any nonzero sigma raises DomainError,
        as a call with that sigma alone does, and an all-zero column needs no
        threshold."""
        Y = np.random.default_rng(1).normal(0.0, 0.3, (4, 32))
        with pytest.raises(DomainError, match=r"^ln\(n\)/delta = 0.866434 <= 1 leaves"):
            wavelet_prefix_estimates(Y, "db4", sigma=np.array([[0.0], [0.3], [0.0], [0.3]]), delta=0.8)
        got = wavelet_prefix_estimates(Y, "db4", sigma=np.zeros((4, 1)), delta=0.8)
        assert got.tobytes() == wavelet_prefix_estimates(Y, "db4", sigma=0.0, delta=0.8).tobytes()

    def test_overflow_warns_nothing(self):
        y = np.array([1e308, -1e308] * 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteValue):
                wavelet_prefix_estimates(y, "haar", sigma="mad", delta=0.1)
