"""Window-averaging comparison estimators.

The computation is a whole-series sweep that estimates every prefix
y[:1], y[:2], ..., y[:T] at once.  ``fixed_window_sweep`` averages the w
most recent observations of each prefix (all of them while t < w).
``adaptive_window_sweep`` grows each prefix's window by doubling for as
long as consecutive window means agree to within a noise-scale deviation
term, mirroring the classic bias-variance scan (Mazzetto & Upfal 2023): the
test constant pairs a union bound over the log2(n) doubling comparisons
with failure probability delta.

Both sweeps read every window mean off one cumulative sum, so a series
costs O(T) for the fixed window and O(T log T) for the doubling test, which
runs for all prefixes as one array operation per level.  The scalar
``fixed_window_mean`` and ``adaptive_window_mean`` compute one prefix at a
time with ``np.mean`` and are the reference the sweeps are tested against.
Prefix sums round differently from ``np.mean``, so a doubling test whose
margin lies within a rounding-error band derived from the magnitude of the
cumulative sums is re-decided by the scalar scan on that prefix: the sweep
chooses the scalar scan's window on every prefix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .denoise import _require_finite, _require_sigma_delta
from .errors import BadWindow

ADAPTIVE_TEST_CONSTANT = 2.0

_EPS = float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class WindowEstimate:
    value: float
    window: int


@dataclass(frozen=True)
class WindowSweep:
    """Per-prefix estimates: ``values[t-1]`` and ``windows[t-1]`` belong to
    the prefix y[:t].  ``rechecked`` counts the prefixes whose doubling test
    fell inside the rounding-error band and was re-decided by the scalar
    scan (always 0 for the fixed window)."""

    values: np.ndarray
    windows: np.ndarray
    rechecked: int = 0


def fixed_window_mean(y: np.ndarray, w: int) -> WindowEstimate:
    """Mean of the w most recent observations."""
    y = np.asarray(y, dtype=np.float64)
    if not 1 <= w <= len(y):
        raise BadWindow(f"window {w} outside [1, {len(y)}]")
    return WindowEstimate(float(np.mean(y[len(y) - w :])), w)


def adaptive_window_mean(y: np.ndarray, sigma: float, delta: float) -> WindowEstimate:
    """Mean over the largest doubling window whose halves agree.

    Starting from the single newest observation, the window doubles while
    |mean(last r) - mean(last 2r)| <= c * sigma * sqrt(2 ln(2 log2(n)/delta)) / sqrt(r)
    with c = 2.  The test ratio is invariant under jointly scaling y and
    sigma, so the selected window is too.
    """
    y = np.asarray(y, dtype=np.float64)
    n = len(y)
    if n < 1:
        raise BadWindow("need at least one observation")
    _require_sigma_delta(sigma, delta)
    if n == 1:
        return WindowEstimate(float(y[0]), 1)

    deviation = sigma * math.sqrt(2.0 * math.log(2.0 * math.log2(n) / delta))
    r = 1
    while 2 * r <= n:
        mean_r = float(np.mean(y[n - r :]))
        mean_2r = float(np.mean(y[n - 2 * r :]))
        if abs(mean_r - mean_2r) > ADAPTIVE_TEST_CONSTANT * deviation / math.sqrt(r):
            break
        r *= 2
    return WindowEstimate(float(np.mean(y[n - r :])), r)


def range_sigma_proxy(y: np.ndarray) -> float:
    """Half the observed range, the no-prior-knowledge stand-in for sigma."""
    y = np.asarray(y, dtype=np.float64)
    return float(np.max(y) - np.min(y)) / 2.0


def _series(y) -> np.ndarray:
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 1 or len(y) < 1:
        raise BadWindow(f"need a series of at least one observation, got shape {y.shape}")
    _require_finite(y)
    return y


def _centered_sums(y: np.ndarray) -> np.ndarray:
    """Cumulative sums of y - y[0] with a leading zero.

    Centering on the first observation keeps the sums, and so their
    rounding error, at the scale of the series' variation, not its offset.
    """
    return np.concatenate(([0.0], np.cumsum(y - y[0])))


def _window_means(y: np.ndarray, sums: np.ndarray, windows: np.ndarray) -> np.ndarray:
    ends = np.arange(1, len(y) + 1)
    return y[0] + (sums[ends] - sums[ends - windows]) / windows


def fixed_window_sweep(y: np.ndarray, w: int) -> WindowSweep:
    """Mean of the min(w, t) most recent observations of every prefix y[:t]."""
    y = _series(y)
    if w < 1:
        raise BadWindow(f"window {w} must be at least 1")
    windows = np.minimum(np.arange(1, len(y) + 1), w)
    return WindowSweep(_window_means(y, _centered_sums(y), windows), windows)


def adaptive_window_sweep(y: np.ndarray, sigma, delta: float) -> WindowSweep:
    """``adaptive_window_mean`` of every prefix y[:t], in one sweep.

    ``sigma`` is one noise scale for all prefixes or an array holding one
    per prefix.  Level r of the doubling test runs for every prefix still
    doubling with 2r <= t.  A test margin |lhs - rhs| inside the band
    that bounds the rounding error of both the sweep's and the scalar
    scan's arithmetic sends that prefix to ``adaptive_window_mean``.
    """
    y = _series(y)
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    T = len(y)
    sigma = np.broadcast_to(np.asarray(sigma, dtype=np.float64), (T,))
    if not np.all(sigma >= 0):
        raise ValueError(f"sigma must be nonnegative, got {sigma[~(sigma >= 0)][0]}")

    sums = _centered_sums(y)
    # Rounding bounds in units of eps: the cumulative sum of y - y[0] errs by
    # at most sum_j |partial sum j| + sum_i |y_i - y[0]|, np.mean over a
    # window by at most sum |y| there, and numpy's logs differ from math's
    # by a few ulps of the threshold; the band is 8 times their total.
    sums_err =np.cumsum(np.abs(sums)) + np.concatenate(([0.0], np.cumsum(np.abs(y - y[0]))))
    abs_y = np.concatenate(([0.0], np.cumsum(np.abs(y))))
    ends = np.arange(1, T + 1)
    with np.errstate(divide="ignore", invalid="ignore"):  # t = 1 never tests
        deviation = sigma * np.sqrt(2.0 * np.log(2.0 * np.log2(ends) / delta))

    windows = np.ones(T, dtype=np.int64)
    rechecked = np.zeros(T, dtype=bool)
    active = ends[1:]  # prefix lengths still doubling
    r = 1
    while 2 * r <= T:
        active = active[active >= 2 * r]
        mean_r = (sums[active] - sums[active - r]) / r
        mean_2r = (sums[active] - sums[active - 2 * r]) / (2 * r)
        rhs = ADAPTIVE_TEST_CONSTANT * deviation[active - 1] / math.sqrt(r)
        margin = np.abs(mean_r - mean_2r) - rhs
        band = 8.0 * _EPS * (
            sums_err[active] / r + abs_y[active] - abs_y[active - 2 * r] + 2.0 * rhs
        )
        unsure = np.abs(margin) <= band
        rechecked[active[unsure] - 1] = True
        active = active[~unsure & (margin <= 0.0)]
        windows[active - 1] = 2 * r
        r *= 2

    values = _window_means(y, sums, windows)
    for t in np.flatnonzero(rechecked) + 1:
        ref = adaptive_window_mean(y[:t], float(sigma[t - 1]), delta)
        values[t - 1], windows[t - 1] = ref.value, ref.window
    return WindowSweep(values, windows, int(rechecked.sum()))
