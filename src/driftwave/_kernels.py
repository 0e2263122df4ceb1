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

import math

import numpy as np

from .denoise import (
    DenoiseConfig,
    _lambda_root,
    _mad_rows,
    _require_finite,
    _shrink,
    estimate_latest,
)
from .errors import DomainError
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


def _prefix_kernel(y, family, sigma, delta, lam_override, use_mad, fold, out):
    T = y.shape[0]
    out[0] = y[0]
    for k in range(1, _floor_log2(T) + 1):
        m = 1 << k
        lo_t, hi_t = m, min(2 * m - 1, T)
        if use_mad and not fold and m < 4:
            out[lo_t - 1 : hi_t] = y[lo_t - 1 : hi_t]
            continue
        basis = support_basis(family, 2 * m if fold else m)
        count = hi_t - m + 1
        B = basis.sliding(y, count, fold=fold)
        if lam_override >= 0.0:
            lam = lam_override
        elif use_mad:
            sig = _mad_sigma(basis, y, m, count, fold)
            lam = (2.0 * _lambda_root(delta, m) * sig)[:, None]
        elif sigma == 0.0:
            lam = 0.0
        else:
            lam = 2.0 * sigma * _lambda_root(delta, m)
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
    DenoiseConfig(
        family=family, sigma=sigma, delta=delta, lambda_override=lam_override, boundary=boundary
    )
    y = np.ascontiguousarray(y, dtype=np.float64)
    T = len(y)
    if T == 0:
        return np.empty(0)
    _require_finite(y)
    fold = boundary == "reflect"
    use_mad = isinstance(sigma, str)
    sig = 0.0 if use_mad else float(sigma)
    lam = -1.0 if lam_override is None else float(lam_override)
    if lam < 0.0 and T >= 2 and (use_mad or sig > 0.0):
        if math.log(2) / delta <= 1.0:
            raise DomainError(
                f"delta = {delta} leaves the threshold undefined at window size 2"
            )
    return _prefix_kernel(y, family, sig, delta, lam, use_mad, fold, np.empty(T))


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
