"""Per-prefix estimation kernel.

The benchmark harnesses evaluate the wavelet estimator on every prefix of an
observation sequence, which dominates their runtime.  Prefixes sharing a
dyadic window size m are evaluated together against the cached
:class:`~driftwave.wavelets.SupportBasis` of that size: one FFT correlation
of the series with the |S| support rows (reflect-folded rows under the
reflect boundary) gives the support coefficients of all (at most m) windows
of the level, then a soft threshold and a dot with the newest-sample
weights.  That is O(|S| m log m) work per level with |S| = O(L log m), and
neither a transform of size m x m nor the block of sliding windows is
formed.  Only ``sigma="mad"`` reads the windows themselves, for their
finest-level coefficients, a bounded block of windows at a time.
:func:`prefix_estimates_reference` is the one-prefix-at-a-time contract the
kernel is pinned to.
"""

from __future__ import annotations

import numpy as np

from .denoise import (
    DenoiseConfig,
    _mad_rows,
    _noise_scale,
    _require_finite,
    _shrink,
    _threshold,
    estimate_latest,
)
from .wavelets import SupportBasis, support_basis

# Samples per block of windows in the MAD noise scale: the block's reflect
# fold and filter copies stay near 1 MB at any horizon (and in cache, which
# made 2**16 faster than larger blocks on a db8 sweep of T = 4096).
_MAD_BLOCK = 1 << 16


def _floor_log2(t: int) -> int:
    return t.bit_length() - 1


def _mad_sigma(basis: SupportBasis, y, m: int, count: int, fold: bool) -> np.ndarray:
    """MAD noise scale of each of the ``count`` windows y[j : j + m]."""
    windows = np.lib.stride_tricks.sliding_window_view(y, m)[:count]
    rows = max(1, _MAD_BLOCK // m)
    sig = np.empty(count)
    for start in range(0, count, rows):
        sig[start : start + rows] = _mad_rows(basis.finest(windows[start : start + rows], fold=fold))
    return sig


def _prefix_kernel(y: np.ndarray, cfg: DenoiseConfig, out: np.ndarray) -> np.ndarray:
    """out[t - 1] = the estimate from y[:t], one dyadic window size at a
    time, thresholded by the estimator's own noise-scale and threshold rule."""
    T = y.shape[0]
    fold = cfg.boundary == "reflect"
    out[0] = y[0]
    for k in range(1, _floor_log2(T) + 1):
        m = 1 << k
        lo_t, hi_t = m, min(2 * m - 1, T)
        if isinstance(cfg.sigma, str) and not fold and m < 4:
            out[lo_t - 1 : hi_t] = y[lo_t - 1 : hi_t]
            continue
        basis = support_basis(cfg.family, 2 * m if fold else m)
        count = hi_t - m + 1
        B = basis.sliding(y, count, fold=fold)
        lam = _threshold(
            cfg, m, lambda: _noise_scale(cfg, basis.n, lambda: _mad_sigma(basis, y, m, count, fold))
        )
        out[lo_t - 1 : hi_t] = _shrink(B, lam) @ basis.weights
    return out


def wavelet_prefix_estimates(
    y: np.ndarray,
    family: str,
    *,
    sigma: float | str,
    delta: float,
    lam_override: float | None = None,
    boundary: str = "reflect",
) -> np.ndarray:
    """Latest-value estimates over every prefix y[:1], y[:2], ..., y[:T].

    Each prefix is truncated to its most recent dyadic window, arranged per
    the boundary policy, and denoised; the estimate at t = 1 is the lone
    observation.  With ``sigma="mad"`` the noise scale is re-estimated per
    prefix; under the periodic boundary the raw observation is passed through
    while the window is too short (fewer than 4 points) to carry
    finest-level coefficients worth a median.  NaN or infinite observations
    raise :class:`NonFiniteValue`; the parameters are checked as
    :class:`DenoiseConfig` checks them (``ValueError``).
    """
    cfg = DenoiseConfig(
        family=family, sigma=sigma, delta=delta, lambda_override=lam_override, boundary=boundary
    )
    y = np.ascontiguousarray(y, dtype=np.float64)
    T = len(y)
    if T == 0:
        return np.empty(0)
    _require_finite(y)
    return _prefix_kernel(y, cfg, np.empty(T))


def prefix_estimates_reference(
    y: np.ndarray, family: str, *, sigma: float | str, delta: float,
    lam_override: float | None = None, boundary: str = "reflect",
) -> np.ndarray:
    """Same contract as :func:`wavelet_prefix_estimates` via the public
    estimator, one prefix at a time.  Slow; used to pin the kernel down."""
    y = np.asarray(y, dtype=np.float64)
    out = np.empty(len(y))
    if len(y) == 0:
        return out
    cfg = DenoiseConfig(
        family=family, sigma=sigma, delta=delta,
        lambda_override=lam_override, boundary=boundary,
    )
    out[0] = y[0]
    for t in range(2, len(y) + 1):
        n_used = 1 << _floor_log2(t)
        if isinstance(sigma, str) and boundary == "periodic" and n_used < 4:
            out[t - 1] = y[t - 1]
            continue
        out[t - 1] = estimate_latest(y[:t], cfg).value
    return out
