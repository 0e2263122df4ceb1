"""The support basis and every path built on it, pinned to the dense matrix.

The reference computations here use only ``build_matrix`` (the explicit
n x n transform), never the support basis, so a fault in the pyramid
transform cannot hide behind itself.  The one exception is the FFT
correlation ``SupportBasis.sliding``, pinned to the product of the stacked
windows with the support rows, which are themselves pinned to the dense
matrix.
"""

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


def dense_prefix_estimates(y, family, sigma, delta, lam_override=None, boundary="reflect"):
    out = np.empty(len(y))
    for t in range(1, len(y) + 1):
        periodic_mad_passthrough = sigma == "mad" and boundary == "periodic" and t < 4
        if t == 1 or periodic_mad_passthrough:
            out[t - 1] = y[t - 1]
        else:
            out[t - 1] = dense_denoise(y[:t], family, sigma, delta, lam_override, boundary)[0][-1]
    return out


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
        rng = np.random.default_rng(3)
        for n in DENSE_SIZES:  # includes n shorter than the filter
            matrix = build_matrix(get_family(family), n)
            W = matrix.rows
            basis = support_basis(family, n)
            assert list(basis.support) == [i for i, _ in last_column_support(matrix)], n
            np.testing.assert_allclose(basis.weights, W[basis.support, -1], rtol=0, atol=1e-12)
            np.testing.assert_allclose(basis.rows, W[basis.support], rtol=0, atol=1e-12)
            w = rng.normal(size=n // 2)
            np.testing.assert_allclose(
                basis.coefficients(w, fold=True), W[basis.support] @ np.r_[w[::-1], w],
                rtol=0, atol=TOL,
            )
            x = rng.normal(size=(2, n))  # stacked windows, periodic
            np.testing.assert_allclose(
                basis.finest(x, fold=False), (x @ W.T)[:, n // 2 :], rtol=0, atol=TOL
            )
            stack = rng.normal(size=(3, n // 2))  # stacked windows, folded
            np.testing.assert_allclose(
                basis.finest(stack, fold=True),
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
        by index, as sliding windows, times the high-pass taps."""
        fold = boundary == "reflect"
        w = 1 << k
        if not fold and w < 2:
            return
        x = drifting_series(seed, rows * w).reshape(rows, w)
        vec = np.concatenate([x[:, ::-1], x], axis=1) if fold else x
        g = get_family(family).highpass
        m = vec.shape[1]
        ext = vec[:, np.arange(m + len(g) - 2) % m]
        want = np.lib.stride_tricks.sliding_window_view(ext, len(g), axis=-1)[:, ::2, :] @ g
        got = support_basis(family, m).finest(x, fold=fold)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("family", ["haar", "db2", "db8"])
    @pytest.mark.parametrize("n", [2, 4, 16, 256])
    def test_pyramid_matches_dense_transform(self, family, n):
        W = dense(family, n).rows
        x = np.random.default_rng(n).normal(size=(3, n))
        np.testing.assert_allclose(pyramid_analysis(get_family(family), x), x @ W.T, atol=1e-12)
        np.testing.assert_allclose(pyramid_synthesis(get_family(family), x), x @ W, atol=1e-12)

    def test_support_is_logarithmic(self):
        # one coefficient per level plus the approximation for Haar
        assert len(support_basis("haar", 2048).support) == 12
        assert len(support_basis("db8", 2048).support) == 101

    def test_horizon_over_the_byte_budget_refused(self, monkeypatch):
        # db8 at n = 2048: 101 rows of 2048 float64, and half that folded
        need = 101 * 2048 * 8 * 3 // 2
        support_basis.cache_clear()
        monkeypatch.setattr(wavelets, "SUPPORT_BUDGET_BYTES", need)
        assert len(support_basis("db8", 2048).support) == 101
        support_basis.cache_clear()
        monkeypatch.setattr(wavelets, "SUPPORT_BUDGET_BYTES", need - 1)
        with pytest.raises(HorizonTooLarge, match="db8 support basis at transform length 2048"):
            support_basis("db8", 2048)
        # the library boundary: a typed error, not a failed allocation
        with pytest.raises(DriftwaveError):
            denoise.estimate_latest(np.ones(1024), DenoiseConfig(family="db8"))
        with pytest.raises(DriftwaveError):
            _kernels.wavelet_prefix_estimates(np.ones(1500), "db8", sigma=0.1, delta=0.1)
        support_basis.cache_clear()


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
        fold = boundary == "reflect"
        basis = support_basis(family, 2 * m if fold else m)
        y = offset + drifting_series(seed, count + m - 1 + extra)
        windows = np.lib.stride_tricks.sliding_window_view(y, m)[:count]
        got = basis.sliding(y, count, fold=fold)
        assert got.shape == (count, len(basis.support))
        ref = basis.coefficients(windows, fold=fold)
        np.testing.assert_allclose(got, ref, rtol=0, atol=TOL * max(1.0, np.abs(y).max()))

    @pytest.mark.parametrize("count, samples", [(0, 20), (9, 20), (4, 10)])
    def test_window_count_and_length_checked(self, count, samples):
        with pytest.raises(LengthMismatch):
            support_basis("db2", 16).sliding(np.ones(samples), count, fold=True)


class TestKernelMatchesDense:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1), T=st.integers(1, 600), family=families,
        boundary=boundaries, sigma=sigmas, lam=lam_overrides,
        delta=st.sampled_from([0.05, 0.1, 0.3]),
    )
    def test_prefix_estimates(self, seed, T, family, boundary, sigma, lam, delta):
        y = drifting_series(seed, T)
        got = _kernels.wavelet_prefix_estimates(
            y, family, sigma=sigma, delta=delta, lam_override=lam, boundary=boundary
        )
        ref = dense_prefix_estimates(y, family, sigma, delta, lam, boundary)
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


def estimates(y, family, sigma, boundary, lam=None):
    """(prefix-kernel estimates, estimate_latest value or None when y has
    too few points for it or for a MAD sigma)."""
    kernel = _kernels.wavelet_prefix_estimates(
        y, family, sigma=sigma, delta=0.1, lam_override=lam, boundary=boundary
    )
    if len(y) < 2:
        return kernel, None
    cfg = DenoiseConfig(
        family=family, sigma=sigma, delta=0.1, lambda_override=lam, boundary=boundary
    )
    try:
        return kernel, denoise.estimate_latest(y, cfg).value
    except TooShort:
        return kernel, None


class TestKernelProperties:
    """Symmetries of the estimator, for the prefix kernel and estimate_latest."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1), T=st.integers(1, 600), family=families,
        boundary=boundaries, sigma=sigmas, a=st.floats(1e-3, 1e3),
    )
    def test_scale_equivariance(self, seed, T, family, boundary, sigma, a):
        y = drifting_series(seed, T)
        scaled_sigma = sigma if sigma == "mad" else a * sigma
        kernel, latest = estimates(y, family, sigma, boundary)
        kernel_a, latest_a = estimates(a * y, family, scaled_sigma, boundary)
        np.testing.assert_allclose(kernel_a, a * kernel, rtol=0, atol=TOL * a)
        if latest is not None:
            assert abs(latest_a - a * latest) <= TOL * a

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1), T=st.integers(1, 600), family=families,
        boundary=boundaries, sigma=sigmas,
    )
    def test_odd_symmetry(self, seed, T, family, boundary, sigma):
        y = drifting_series(seed, T)
        kernel, latest = estimates(y, family, sigma, boundary)
        kernel_neg, latest_neg = estimates(-y, family, sigma, boundary)
        np.testing.assert_allclose(kernel_neg, -kernel, rtol=0, atol=TOL)
        if latest is not None:
            assert abs(latest_neg + latest) <= TOL

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1), T=st.integers(1, 600), family=families,
        boundary=boundaries, sigma=sigmas,
    )
    def test_zero_lambda_returns_newest_observation(self, seed, T, family, boundary, sigma):
        y = drifting_series(seed, T)
        kernel, latest = estimates(y, family, sigma, boundary, lam=0.0)
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
    """The prefix kernel (known sigma, zero sigma, a lambda override) and
    bound_profile read every coefficient from the FFT correlation; the
    single-window paths never compute it."""
    rng = np.random.default_rng(1)
    y = np.cumsum(rng.normal(0.0, 0.1, 700))
    expected = {
        (family, boundary, T): _kernels.wavelet_prefix_estimates(
            y[:T], family, sigma=0.2, delta=0.1, boundary=boundary
        )
        for family in ("haar", "db8") for boundary in ("reflect", "periodic") for T in (300, 512)
    }

    def refuse(*args, **kwargs):
        raise AssertionError("a block of windows was formed")

    with monkeypatch.context() as patched:
        patched.setattr(np.lib.stride_tricks, "sliding_window_view", refuse)
        patched.setattr(SupportBasis, "coefficients", refuse)
        for (family, boundary, T), want in expected.items():
            got = _kernels.wavelet_prefix_estimates(
                y[:T], family, sigma=0.2, delta=0.1, boundary=boundary
            )
            np.testing.assert_array_equal(got, want)
            for sigma, lam in ((0.0, None), (0.2, 0.5), ("mad", 0.5)):
                _kernels.wavelet_prefix_estimates(
                    y[:T], family, sigma=sigma, delta=0.1, lam_override=lam, boundary=boundary
                )
        noise = bench.NoiseSpec("uniform", (0.2, 0.5))
        theta = bench.generate_signal(bench.SignalSpec("doppler", 300), 0)
        for boundary in ("reflect", "periodic"):
            bench.bound_profile(theta, noise, ("haar", "db8"), boundary=boundary)

    monkeypatch.setattr(SupportBasis, "sliding", refuse)
    cfg = DenoiseConfig(family="db8", sigma="mad")
    denoise.estimate_latest(y, cfg)
    panel = [selection.LossSeries(f"m{i}", 0.3 + rng.normal(0, 0.02, 300)) for i in range(3)]
    selection.select(panel, cfg)
