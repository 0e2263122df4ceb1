"""The support basis and every path built on it, pinned to the dense matrix.

The reference computations here use only ``build_matrix`` (the explicit
n x n transform), never the support basis, so a fault in the pyramid
transform cannot hide behind itself.  The one exception is the FFT
correlation ``SupportBasis.sliding``, pinned to the product of the stacked
windows with the support rows, which are themselves pinned to the dense
matrix.  The Haar prefix sweep, which reads its coefficients from a table of
dyadic block sums instead of the correlation, is pinned to the dense matrix
with the other families, to ``prefix_estimates_reference`` and, at
T = 2**16, to ``estimate_latest``.

A basis is keyed by family, window length m and boundary, and its rows act
on the window itself: they are the dense support rows under the periodic
boundary and those rows folded onto the window under the reflect boundary.
The finest-level coefficients behind the MAD noise scale come from the
family's high-pass taps, not from a basis, so the Haar sweep builds none.
"""

import math
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import driftwave
from driftwave import _kernels, bench, cli, denoise, selection, tvstudy, wavelets
from driftwave.denoise import MAD_SCALE, DenoiseConfig, default_lambda, reflect_fold
from driftwave.errors import DriftwaveError, HorizonTooLarge, LengthMismatch, TooShort
from driftwave.wavelets import (
    FAMILY_NAMES,
    SupportBasis,
    build_matrix,
    finest,
    get_family,
    last_column_support,
    pyramid_analysis,
    pyramid_synthesis,
    support_basis,
)

TOL = 1e-10
DENSE_SIZES = [1 << k for k in range(1, 12)]  # 2 .. 2048


@lru_cache(maxsize=16)
def dense(family: str, n: int) -> wavelets.TransformMatrix:
    return build_matrix(get_family(family), n)


def dense_denoise(y, family, sigma, delta, lam_override=None, boundary="reflect"):
    """(reconstruction of the transformed vector, lambda, sigma_used, n_used)
    with the dense matrix: the estimator's contract, written out directly."""
    y = np.asarray(y, dtype=np.float64)
    n_used = 1 << (len(y).bit_length() - 1)
    window = y[len(y) - n_used :]
    vec = np.concatenate([window[::-1], window]) if boundary == "reflect" else window
    W = dense(family, len(vec)).rows
    beta = W @ vec
    if sigma != "mad":
        sig = float(sigma)
    elif lam_override is not None and len(vec) < 4:
        sig = 0.0
    elif len(vec) < 4:
        raise TooShort("MAD needs 4 coefficients")
    else:
        sig = float(np.median(np.abs(beta[len(vec) // 2 :]))) / MAD_SCALE
    lam = default_lambda(sig, delta, n_used) if lam_override is None else lam_override
    shrunk = np.sign(beta) * np.maximum(np.abs(beta) - lam, 0.0)
    return W.T @ shrunk, lam, sig, n_used


def dense_prefix_estimates(y, family, sigma, delta):
    """The prefix sweep's contract: reflect, default threshold, y[:1] as is."""
    return np.array([y[0]] + [dense_denoise(y[:t], family, sigma, delta)[0][-1] for t in range(2, len(y) + 1)])


def drifting_series(seed: int, T: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    t = np.arange(T) / max(T, 1)
    level = rng.uniform(-2.0, 2.0) * np.sin(2 * np.pi * rng.uniform(0.5, 4.0) * t)
    return level + rng.normal(0.0, rng.uniform(0.05, 1.0), T)


sigmas = st.one_of(st.just("mad"), st.just(0.0), st.floats(0.01, 2.0))
lam_overrides = st.one_of(st.none(), st.floats(0.0, 2.0))
boundaries = st.sampled_from(["reflect", "periodic"])
families = st.sampled_from(FAMILY_NAMES)


class TestBasisMatchesDense:
    @pytest.mark.parametrize("family", FAMILY_NAMES)
    def test_support_weights_and_rows(self, family):
        """The periodic basis of windows of n samples and the reflect basis
        of windows of n/2 samples both have transform length n; the periodic
        rows are W's support rows and the reflect rows fold them onto the
        window."""
        rng = np.random.default_rng(3)
        for n in DENSE_SIZES:  # includes n shorter than the filter
            matrix = build_matrix(get_family(family), n)
            W = matrix.rows
            m = n // 2
            periodic = support_basis(family, n, "periodic")
            reflect = support_basis(family, m, "reflect")
            S = [i for i, _ in last_column_support(matrix)]
            for basis in (periodic, reflect):
                assert basis.n == n
                assert list(basis.support) == S, n
                np.testing.assert_allclose(basis.weights, W[S, -1], rtol=0, atol=1e-12)
            np.testing.assert_allclose(periodic.rows, W[S], rtol=0, atol=1e-12)
            np.testing.assert_allclose(
                reflect.rows, W[S, :m][:, ::-1] + W[S, m:], rtol=0, atol=1e-12
            )
            w = rng.normal(size=m)
            np.testing.assert_allclose(
                reflect.coefficients(w), W[S] @ np.r_[w[::-1], w], rtol=0, atol=TOL
            )
            x = rng.normal(size=(2, n))  # stacked windows, periodic
            np.testing.assert_allclose(periodic.coefficients(x), x @ W[S].T, rtol=0, atol=TOL)
            np.testing.assert_allclose(
                finest(get_family(family), x, "periodic"), (x @ W.T)[:, n // 2 :],
                rtol=0, atol=TOL,
            )
            stack = rng.normal(size=(3, m))  # stacked windows, folded
            np.testing.assert_allclose(
                finest(get_family(family), stack, "reflect"),
                (np.concatenate([stack[:, ::-1], stack], axis=1) @ W.T)[:, n // 2 :],
                rtol=0, atol=TOL,
            )

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1), k=st.integers(0, 10), family=families,
        boundary=boundaries, rows=st.integers(1, 8),
    )
    def test_finest_bits_match_the_gathered_windows(self, seed, k, family, boundary, rows):
        """The MAD sigma's input, bit for bit: the periodized vector gathered
        by index, as sliding windows, times the high-pass taps.  One window
        is gathered as row 0 of two: alone, its windows would be one BLAS
        matrix-vector product, which rounds differently from a stack.  A
        transform of length 2 has one finest coefficient, which one product
        alone would hand to a BLAS dot; there the pyramid's finest half is
        the oracle."""
        fold = boundary == "reflect"
        w = 1 << k
        if not fold and w < 2:
            return
        x = drifting_series(seed, rows * w).reshape(rows, w)
        got = finest(get_family(family), x, boundary)
        if (2 * w if fold else w) == 2:
            vec = np.concatenate([x[:, ::-1], x], axis=1) if fold else x
            assert got.tobytes() == pyramid_analysis(get_family(family), vec)[:, 1:].tobytes()
            return
        gathered = np.concatenate([x, x]) if rows == 1 else x
        vec = np.concatenate([gathered[:, ::-1], gathered], axis=1) if fold else gathered
        g = get_family(family).highpass
        m = vec.shape[1]
        ext = vec[:, np.arange(m + len(g) - 2) % m]
        want = (np.lib.stride_tricks.sliding_window_view(ext, len(g), axis=-1)[:, ::2, :] @ g)[:rows]
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("boundary", ["reflect", "periodic"])
    @pytest.mark.parametrize("family", FAMILY_NAMES)
    def test_finest_is_the_pyramids_first_step(self, family, boundary):
        """finest's bits are the finest half of the pyramid analysis of the
        arranged windows: one window alone or 1 to 8 stacked, n = 2 .. 2048."""
        fam = get_family(family)
        rng = np.random.default_rng(5)
        for n in DENSE_SIZES:
            w = n // 2 if boundary == "reflect" else n
            for shape in [(w,)] + [(rows, w) for rows in range(1, 9)]:
                x = rng.normal(size=shape)
                vec = np.concatenate([x[..., ::-1], x], axis=-1) if boundary == "reflect" else x
                want = pyramid_analysis(fam, vec)[..., n // 2 :]
                got = finest(fam, x, boundary)
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), (n, shape)

    @pytest.mark.parametrize("family", FAMILY_NAMES)
    def test_pyramid_rows_do_not_depend_on_the_stack(self, family):
        """Every row of a stack of 1 to 8 transforms to the bytes it gets
        alone, at every position, down to the one-output level m = 2."""
        fam = get_family(family)
        rng = np.random.default_rng(6)
        for n in (2, 4, 16, 256):
            for rows in range(1, 9):
                x = rng.normal(size=(rows, n))
                stacked = pyramid_analysis(fam, x)
                for b in range(rows):
                    assert stacked[b].tobytes() == pyramid_analysis(fam, x[b]).tobytes(), (n, rows, b)

    @pytest.mark.parametrize("family", ["haar", "db2", "db8"])
    @pytest.mark.parametrize("n", [2, 4, 16, 256])
    def test_pyramid_matches_dense_transform(self, family, n):
        W = dense(family, n).rows
        x = np.random.default_rng(n).normal(size=(3, n))
        np.testing.assert_allclose(pyramid_analysis(get_family(family), x), x @ W.T, atol=1e-12)
        np.testing.assert_allclose(pyramid_synthesis(get_family(family), x), x @ W, atol=1e-12)

    def test_support_is_logarithmic(self):
        # one coefficient per level plus the approximation for Haar
        assert len(support_basis("haar", 1024, "reflect").support) == 12
        assert len(support_basis("db8", 2048, "periodic").support) == 101

    def test_unknown_boundary_refused(self):
        with pytest.raises(ValueError, match="boundary must be 'reflect' or 'periodic'"):
            support_basis("db2", 8, "zero")

    def test_one_basis_per_family_whatever_its_spelling(self):
        support_basis.cache_clear()
        assert support_basis("DB8", 256, "reflect") is support_basis("db8", 256, "reflect")
        haar = support_basis("haar", 8, "reflect")
        assert support_basis("db1", 8, "reflect") is haar and support_basis("HAAR", 8, "reflect") is haar
        assert support_basis.cache_info().currsize == 2
        support_basis.cache_clear()

    @pytest.mark.parametrize("boundary", ["reflect", "periodic"])
    @pytest.mark.parametrize("family", FAMILY_NAMES)
    def test_rows_match_the_unit_vector_synthesis(self, family, boundary):
        """Each band's rows, gathered from one synthesized atom, against the
        synthesis of every row's own unit coefficient vector (folded under
        reflect), for windows of 1 to 4096 samples: within 4 eps of the
        basis's largest entry, and the same bytes for Haar, whose bands hold
        one row each.  The support and weights are the impulse's analysis."""
        fam = get_family(family)
        eps = np.finfo(np.float64).eps
        for m in (1 << k for k in range(13)):
            n = 2 * m if boundary == "reflect" else m
            if n < 2:
                continue
            basis = support_basis(family, m, boundary)
            impulse = np.zeros(n)
            impulse[-1] = 1.0
            column = pyramid_analysis(fam, impulse)
            support = np.flatnonzero(np.abs(column) > wavelets.SUPPORT_EPS)
            assert basis.support.tobytes() == support.tobytes(), m
            assert basis.weights.tobytes() == column[support].tobytes(), m
            units = np.zeros((len(support), n))
            units[np.arange(len(support)), support] = 1.0
            want = pyramid_synthesis(fam, units)
            if boundary == "reflect":
                want = want[:, :m][:, ::-1] + want[:, m:]
            assert basis.rows.shape == want.shape, m
            if family == "haar":
                assert basis.rows.tobytes() == want.tobytes(), m
            np.testing.assert_allclose(
                basis.rows, want, rtol=0, atol=4 * eps * np.abs(want).max(), err_msg=str(m)
            )

    @pytest.mark.parametrize(
        "family,m,boundary,bands",
        [("db8", 1024, "reflect", 12), ("db8", 1024, "periodic", 11), ("haar", 1024, "reflect", 12)],
    )
    def test_one_synthesis_row_per_band(self, monkeypatch, family, m, boundary, bands):
        """A cold basis synthesizes one row per band (the approximation row,
        and each level's detail rows), not one per support row: 12 against
        101 for db8 at n = 2048."""
        synthesized = []

        def recording(fam, beta):
            synthesized.append(math.prod(np.shape(beta)[:-1]))
            return pyramid_synthesis(fam, beta)

        monkeypatch.setattr(wavelets, "pyramid_synthesis", recording)
        support_basis.cache_clear()
        basis = support_basis(family, m, boundary)
        support_basis.cache_clear()
        assert sum(synthesized) == bands
        assert len({int(i).bit_length() for i in basis.support}) == bands

    def test_cold_build_peak_is_near_its_rows(self):
        """A cold db8 basis for windows of 4096 samples (n = 8192, 127 rows)
        holds no |S| x n array: its traced peak stays within 2.5 times the
        folded rows it keeps (the unit-vector synthesis peaked at 7 times)."""
        support_basis.cache_clear()
        tracemalloc.start()
        try:
            basis = support_basis("db8", 4096, "reflect")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            support_basis.cache_clear()
        assert basis.rows.shape == (127, 4096)
        assert peak <= 2.5 * basis.rows.nbytes, peak / basis.rows.nbytes

    @pytest.mark.parametrize("family", ["haar", "db8"])
    def test_rows_start_on_a_64_byte_boundary(self, family):
        """The one-window product reads the rows at SIMD width whatever the
        heap did before the basis was built."""
        support_basis.cache_clear()
        for m in (1, 16, 1024):
            for boundary in ("reflect", "periodic"):
                if boundary == "periodic" and m == 1:
                    continue
                rows = support_basis(family, m, boundary).rows
                assert rows.ctypes.data % 64 == 0 and rows.flags.c_contiguous, (m, boundary)
        support_basis.cache_clear()

    def test_horizon_over_the_byte_budget_refused(self, monkeypatch):
        # db8 at n = 2048: 101 support rows of 2048 float64, the bound on
        # the rows a basis is built from
        need = 101 * 2048 * 8
        support_basis.cache_clear()
        monkeypatch.setattr(wavelets, "SUPPORT_BUDGET_BYTES", need)
        assert len(support_basis("db8", 1024, "reflect").support) == 101
        support_basis.cache_clear()
        monkeypatch.setattr(wavelets, "SUPPORT_BUDGET_BYTES", need - 1)
        with pytest.raises(HorizonTooLarge, match="db8 support basis at transform length 2048"):
            support_basis("db8", 1024, "reflect")
        with pytest.raises(HorizonTooLarge, match="db8 support basis at transform length 2048"):
            support_basis("db8", 2048, "periodic")
        # the library boundary: a typed error, not a failed allocation
        with pytest.raises(DriftwaveError):
            denoise.estimate_latest(np.ones(1024), DenoiseConfig(family="db8"))
        with pytest.raises(DriftwaveError):
            _kernels.wavelet_prefix_estimates(np.ones(1500), "db8", sigma=0.1, delta=0.1)
        support_basis.cache_clear()

    def test_row_spectra_over_the_byte_budget_refused(self, monkeypatch):
        # db8 reflect windows of 1024 (n = 2048): one block of 1024, |S| rows
        # of 1025 complex spectra on top of the 101 folded rows of 1024
        rows = 101 * 1024 * 8
        spectra = 101 * 1025 * 16
        y = np.ones(2047)
        support_basis.cache_clear()
        monkeypatch.setattr(wavelets, "SUPPORT_BUDGET_BYTES", rows + spectra - 1)
        basis = support_basis("db8", 1024, "reflect")
        with pytest.raises(HorizonTooLarge, match="db8 row spectra at transform length 2048"):
            basis.sliding(y, 1024)
        assert basis._spectra == {}
        with pytest.raises(DriftwaveError):
            _kernels.wavelet_prefix_estimates(y[:1500], "db8", sigma=0.1, delta=0.1)
        monkeypatch.setattr(wavelets, "SUPPORT_BUDGET_BYTES", rows + spectra)
        assert basis.sliding(y, 1024).shape == (1024, 101)
        # a second block length would add spectra past the budget
        with pytest.raises(HorizonTooLarge):
            basis.sliding(y, 100)
        support_basis.cache_clear()

    def test_haar_sweep_over_the_byte_budget_refused(self, monkeypatch):
        # 10 rows of 1500 detail sums and the one working copy they are shrunk in
        need = 2 * 10 * 1500 * 8
        y = drifting_series(3, 1500)
        monkeypatch.setattr(wavelets, "SUPPORT_BUDGET_BYTES", need)
        assert np.all(np.isfinite(_kernels.wavelet_prefix_estimates(y, "haar", sigma=0.1, delta=0.1)))
        monkeypatch.setattr(wavelets, "SUPPORT_BUDGET_BYTES", need - 1)
        with pytest.raises(HorizonTooLarge, match="Haar sweep of 1500 samples"):
            _kernels.wavelet_prefix_estimates(y, "haar", sigma=0.1, delta=0.1)


class TestSlidingMatchesWindows:
    """The FFT correlation against the product with the stacked windows."""

    @settings(max_examples=80, deadline=None)
    @given(
        data=st.data(), seed=st.integers(0, 2**32 - 1), k=st.integers(1, 11),
        family=families, boundary=boundaries, extra=st.integers(0, 3),
        offset=st.one_of(st.just(0.0), st.floats(-1e6, 1e6)),
    )
    def test_sliding(self, data, seed, k, family, boundary, extra, offset):
        m = 1 << k
        count = data.draw(st.integers(1, m), label="count")
        basis = support_basis(family, m, boundary)
        y = offset + drifting_series(seed, count + m - 1 + extra)
        windows = np.lib.stride_tricks.sliding_window_view(y, m)[:count]
        got = basis.sliding(y, count)
        assert got.shape == (count, len(basis.support))
        ref = basis.coefficients(windows)
        np.testing.assert_allclose(got, ref, rtol=0, atol=TOL * max(1.0, np.abs(y).max()))

    @pytest.mark.parametrize("shape", [(63,), (3, 63)], ids=["series", "stack"])
    def test_returns_a_new_array(self, shape):
        # one block (count <= m = 32): the lags live in this thread's
        # scratch, but the coefficients returned are the caller's own
        basis = support_basis("db8", 32, "reflect")
        y = drifting_series(5, math.prod(shape)).reshape(shape)
        first = basis.sliding(y, 32)
        kept = first.copy()
        basis.sliding(y[..., ::-1].copy(), 32)
        support_basis("db4", 32, "periodic").sliding(-y, 20)
        _kernels.wavelet_prefix_estimates(y, "db8", sigma=0.3, delta=0.1)
        assert first.tobytes() == kept.tobytes()
        assert first.flags.owndata and first.flags.writeable

    @pytest.mark.parametrize("count, samples", [(0, 20), (9, 20), (4, 10)])
    def test_window_count_and_length_checked(self, count, samples):
        with pytest.raises(LengthMismatch):
            support_basis("db2", 8, "reflect").sliding(np.ones(samples), count)


class TestKernelMatchesDense:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1), T=st.integers(1, 600), family=families,
        sigma=sigmas, delta=st.sampled_from([0.05, 0.1, 0.3]),
    )
    def test_prefix_estimates(self, seed, T, family, sigma, delta):
        y = drifting_series(seed, T)
        got = _kernels.wavelet_prefix_estimates(y, family, sigma=sigma, delta=delta)
        ref = dense_prefix_estimates(y, family, sigma, delta)
        np.testing.assert_allclose(got, ref, rtol=0, atol=TOL)


class TestEstimatorMatchesDense:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1), T=st.integers(2, 1023), family=families,
        boundary=boundaries, sigma=sigmas, lam=lam_overrides,
    )
    def test_estimate_latest_and_denoise_signal(self, seed, T, family, boundary, sigma, lam):
        y = drifting_series(seed, T)
        cfg = DenoiseConfig(
            family=family, sigma=sigma, delta=0.1, lambda_override=lam, boundary=boundary
        )
        try:
            recon, lam_ref, sig_ref, n_used = dense_denoise(y, family, sigma, 0.1, lam, boundary)
        except TooShort:
            with pytest.raises(TooShort):
                denoise.estimate_latest(y, cfg)
            with pytest.raises(TooShort):
                denoise.denoise_signal(y, cfg)
            return
        est = denoise.estimate_latest(y, cfg)
        assert abs(est.value - recon[-1]) <= TOL
        assert abs(est.lambda_used - lam_ref) <= TOL
        assert abs(est.sigma_used - sig_ref) <= TOL
        assert est.n_used == n_used
        np.testing.assert_allclose(
            denoise.denoise_signal(y, cfg), recon[len(recon) - n_used :], rtol=0, atol=TOL
        )

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1), k=st.integers(1, 9), family=families,
        boundary=boundaries, sigma=st.floats(0.0, 2.0),
    )
    def test_bound_report_sparsity(self, seed, k, family, boundary, sigma):
        theta = drifting_series(seed, 1 << k)
        vec = reflect_fold(theta) if boundary == "reflect" else theta
        W = dense(family, len(vec))
        lam = default_lambda(sigma, 0.1, len(theta))
        ref = denoise.sparsity_bound(wavelets.forward(W, vec), last_column_support(W), lam)
        got = denoise.bound_report(theta, sigma, 0.1, family, boundary).sparsity
        assert abs(got - ref) <= TOL * max(1.0, abs(ref))


def estimates(y, family, sigma):
    """(prefix-kernel estimates, estimate_latest value or None when y has
    too few points for it)."""
    kernel = _kernels.wavelet_prefix_estimates(y, family, sigma=sigma, delta=0.1)
    if len(y) < 2:
        return kernel, None
    return kernel, denoise.estimate_latest(y, DenoiseConfig(family=family, sigma=sigma, delta=0.1)).value


class TestKernelProperties:
    """Symmetries of the estimator, for the prefix kernel and estimate_latest
    in the kernel's one configuration (reflect, default threshold)."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1), T=st.integers(1, 600), family=families,
        sigma=sigmas, a=st.floats(1e-3, 1e3),
    )
    def test_scale_equivariance(self, seed, T, family, sigma, a):
        y = drifting_series(seed, T)
        scaled_sigma = sigma if sigma == "mad" else a * sigma
        kernel, latest = estimates(y, family, sigma)
        kernel_a, latest_a = estimates(a * y, family, scaled_sigma)
        np.testing.assert_allclose(kernel_a, a * kernel, rtol=0, atol=TOL * a)
        if latest is not None:
            assert abs(latest_a - a * latest) <= TOL * a

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), T=st.integers(1, 600), family=families, sigma=sigmas)
    def test_odd_symmetry(self, seed, T, family, sigma):
        y = drifting_series(seed, T)
        kernel, latest = estimates(y, family, sigma)
        kernel_neg, latest_neg = estimates(-y, family, sigma)
        np.testing.assert_allclose(kernel_neg, -kernel, rtol=0, atol=TOL)
        if latest is not None:
            assert abs(latest_neg + latest) <= TOL

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), T=st.integers(1, 600), family=families)
    def test_zero_lambda_returns_newest_observation(self, seed, T, family):
        # sigma = 0 gives the default threshold lambda = 0
        y = drifting_series(seed, T)
        kernel, latest = estimates(y, family, 0.0)
        np.testing.assert_allclose(kernel, y, rtol=0, atol=TOL)
        if T >= 2:
            assert abs(latest - y[-1]) <= TOL


def test_no_hot_path_builds_a_dense_transform(monkeypatch):
    """Every estimator and bound path runs with the dense builders disabled."""

    def refuse(*args, **kwargs):
        raise AssertionError("a dense n x n transform was built")

    for module in (wavelets, denoise, _kernels, bench, tvstudy, selection, cli, driftwave):
        for name in ("build_matrix", "cached_matrix"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)

    spec = tvstudy.TVStudySpec(tv_radius=1.0, sigma=1.0, n_grid=(64, 128), trials=2)
    assert np.isfinite(tvstudy.run_tv_study(spec, 0).exponent_sq)

    rng = np.random.default_rng(0)
    panel = [selection.LossSeries(f"m{i}", 0.3 + rng.normal(0, 0.02, 300)) for i in range(3)]
    selection.select(panel, DenoiseConfig(family="db8", sigma="mad"))

    noise = bench.NoiseSpec("uniform", (0.2, 0.5))
    methods = [bench.WaveletMethod("db8"), bench.WaveletMethod("haar", "mad")]
    bench.run_online_eval(bench.SignalSpec("doppler", 200), noise, methods, 2, 0)

    theta = bench.generate_signal(bench.SignalSpec("doppler", 128), 0)
    bench.bound_profile(theta, noise, ("haar", "db8"))
    denoise.bound_report(theta, 0.3, 0.1, "db8")
    denoise.denoise_signal(theta + rng.normal(0, 0.1, 128), DenoiseConfig(family="db4"))


def test_sweeps_correlate_without_forming_windows(monkeypatch):
    """The prefix kernel (known sigma, zero sigma) and bound_profile form no
    block of windows: the kernel reads every db8 coefficient from the FFT
    correlation and every Haar coefficient from its block-sum table, and
    bound_profile reads them from the FFT correlation.  The single-window
    paths never compute the correlation."""
    rng = np.random.default_rng(1)
    y = np.cumsum(rng.normal(0.0, 0.1, 700))
    expected = {
        (family, T): _kernels.wavelet_prefix_estimates(y[:T], family, sigma=0.2, delta=0.1)
        for family in ("haar", "db8") for T in (300, 512)
    }

    def refuse(*args, **kwargs):
        raise AssertionError("a block of windows was formed")

    with monkeypatch.context() as patched:
        patched.setattr(np.lib.stride_tricks, "sliding_window_view", refuse)
        patched.setattr(SupportBasis, "coefficients", refuse)
        for (family, T), want in expected.items():
            got = _kernels.wavelet_prefix_estimates(y[:T], family, sigma=0.2, delta=0.1)
            np.testing.assert_array_equal(got, want)
            _kernels.wavelet_prefix_estimates(y[:T], family, sigma=0.0, delta=0.1)
        noise = bench.NoiseSpec("uniform", (0.2, 0.5))
        theta = bench.generate_signal(bench.SignalSpec("doppler", 300), 0)
        for boundary in ("reflect", "periodic"):
            bench.bound_profile(theta, noise, ("haar", "db8"), boundary=boundary)

    monkeypatch.setattr(SupportBasis, "sliding", refuse)
    cfg = DenoiseConfig(family="db8", sigma="mad")
    denoise.estimate_latest(y, cfg)
    panel = [selection.LossSeries(f"m{i}", 0.3 + rng.normal(0, 0.02, 300)) for i in range(3)]
    selection.select(panel, cfg)


def test_haar_sweeps_use_the_block_sums(monkeypatch):
    """Haar prefix sweeps, however the family is spelled, and the TV study
    built on them never run the FFT correlation, and they match the
    one-prefix-at-a-time reference."""
    y = drifting_series(7, 300)

    def refuse(*args, **kwargs):
        raise AssertionError("the FFT correlation ran")

    monkeypatch.setattr(SupportBasis, "sliding", refuse)
    for family in ("haar", "db1", "HAAR"):
        for sigma in (0.3, 0.0):
            got = _kernels.wavelet_prefix_estimates(y, family, sigma=sigma, delta=0.1)
            ref = _kernels.prefix_estimates_reference(y, family, sigma=sigma, delta=0.1)
            np.testing.assert_allclose(got, ref, rtol=0, atol=TOL)
    spec = tvstudy.TVStudySpec(tv_radius=1.0, sigma=1.0, n_grid=(64, 256), trials=2)
    assert np.isfinite(tvstudy.run_tv_study(spec, 0).exponent_sq)


def test_haar_mad_sweeps_build_no_basis(monkeypatch):
    """Haar MAD prefix sweeps take each window's noise scale from the
    high-pass taps alone: they build no support basis, and they match the
    one-prefix-at-a-time reference."""
    y = drifting_series(8, 300)
    want = _kernels.prefix_estimates_reference(y, "haar", sigma="mad", delta=0.1)

    def refuse(*args, **kwargs):
        raise AssertionError("a support basis was built")

    for module in (wavelets, _kernels):
        monkeypatch.setattr(module, "support_basis", refuse)
    got = _kernels.wavelet_prefix_estimates(y, "haar", sigma="mad", delta=0.1)
    np.testing.assert_allclose(got, want, rtol=0, atol=TOL)


def test_haar_sweep_long_horizon():
    """At T = 2**16 the block sums, added pairwise by doubling, keep every
    sampled prefix within 1e-10 of estimate_latest relative to the series'
    magnitude, on a drifting series offset by 1e3."""
    T = 1 << 16
    y = 1e3 + drifting_series(5, T) + np.cumsum(np.random.default_rng(5).normal(0.0, 0.02, T))
    got = _kernels.wavelet_prefix_estimates(y, "haar", sigma=0.5, delta=0.1)
    cfg = DenoiseConfig(family="haar", sigma=0.5, delta=0.1)
    rng = np.random.default_rng(6)
    # both ends of every dyadic level, a few inside, and the last prefix
    prefixes = {t for k in range(1, 17) for t in ((1 << k), min((2 << k) - 1, T))}
    prefixes |= set(rng.integers(2, T + 1, 12).tolist())
    tol = 1e-10 * max(1.0, np.abs(y).max())
    for t in sorted(prefixes):
        assert abs(got[t - 1] - denoise.estimate_latest(y[:t], cfg).value) <= tol, t
