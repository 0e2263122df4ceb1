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
decides every level of every prefix in one pass over (levels x prefixes)
arrays, a bounded block of prefixes at a time.  The scalar
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

from .denoise import _require_finite, _require_finite_params, _require_sigma_delta
from .errors import BadWindow
from .wavelets import _SCRATCH_BYTES

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


def _require_integer_window(w) -> None:
    """BadWindow unless w is an int or numpy integer; a bool or a float such
    as 3.0 is refused, not used as a count."""
    if isinstance(w, bool) or not isinstance(w, (int, np.integer)):
        raise BadWindow(f"window must be an integer, got {w!r}")


def fixed_window_mean(y: np.ndarray, w: int) -> WindowEstimate:
    """Mean of the w most recent observations."""
    y = np.asarray(y, dtype=np.float64)
    _require_integer_window(w)
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
    _require_integer_window(w)
    if w < 1:
        raise BadWindow(f"window {w} must be at least 1")
    windows = np.minimum(np.arange(1, len(y) + 1), w)
    return WindowSweep(_window_means(y, _centered_sums(y), windows), windows)


def adaptive_window_sweep(y: np.ndarray, sigma, delta: float) -> WindowSweep:
    """``adaptive_window_mean`` of every prefix y[:t], in one sweep.

    ``sigma`` is one noise scale for all prefixes or an array holding one
    per prefix.  Every doubling level r = 1, 2, 4, ... is tested for every
    prefix at once, as one (levels x prefixes) array per quantity, a block
    of prefixes at a time so that each array stays within
    ``_SCRATCH_BYTES``; a prefix keeps the window of the first level whose
    test fails, falls inside the band below, or has 2r > t.  A test margin
    |lhs - rhs| inside the band that bounds the rounding error of both the
    sweep's and the scalar scan's arithmetic sends that prefix to
    ``adaptive_window_mean``.
    """
    y = _series(y)
    T = len(y)
    sigma = np.broadcast_to(np.asarray(sigma, dtype=np.float64), (T,))
    _require_finite_params(sigma=sigma, delta=delta)
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    if not np.all(sigma >= 0):
        raise ValueError(f"sigma must be nonnegative, got {sigma[~(sigma >= 0)][0]}")

    sums = _centered_sums(y)
    # Rounding bounds in units of eps: the cumulative sum of y - y[0] errs by
    # at most sum_j |partial sum j| + sum_i |y_i - y[0]|, np.mean over a
    # window by at most sum |y| there, and numpy's logs differ from math's
    # by a few ulps of the threshold; the band is 8 times their total.
    sums_err = np.cumsum(np.abs(sums)) + np.concatenate(([0.0], np.cumsum(np.abs(y - y[0]))))
    abs_y = np.concatenate(([0.0], np.cumsum(np.abs(y))))
    ends = np.arange(1, T + 1)
    with np.errstate(divide="ignore", invalid="ignore"):  # t = 1 never tests
        deviation = sigma * np.sqrt(2.0 * np.log(2.0 * np.log2(ends) / delta))

    windows = np.ones(T, dtype=np.int64)
    rechecked = np.zeros(T, dtype=bool)
    levels = T.bit_length() - 1  # r = 1, 2, ..., 2**(levels - 1): every r with 2r <= T
    r = (1 << np.arange(levels))[:, None]
    root_r = np.sqrt(r)
    width = max(1, _SCRATCH_BYTES // (8 * max(levels, 1)))
    for start in range(2, T + 1, width):
        t = np.arange(start, min(start + width, T + 1))
        # where 2r > t the indices wrap to the end of the sums; those
        # entries are never read as a decision
        older = t - 2 * r
        mean_r = (sums[t] - sums[t - r]) / r
        mean_2r = (sums[t] - sums[older]) / (2 * r)
        rhs = ADAPTIVE_TEST_CONSTANT * deviation[t - 1] / root_r
        margin = np.abs(mean_r - mean_2r) - rhs
        band = 8.0 * _EPS * (sums_err[t] / r + abs_y[t] - abs_y[older] + 2.0 * rhs)
        tested = older >= 0
        unsure = (np.abs(margin) <= band) & tested
        # each prefix stops at its first unsure, failed or untested level;
        # the last row stands for passing every level
        stop = np.ones((levels + 1, len(t)), dtype=bool)
        stop[:-1] = unsure | ~(margin <= 0.0) | ~tested
        first = stop.argmax(axis=0)
        windows[t - 1] = 1 << first
        rechecked[t - 1] = (first < levels) & unsure[np.minimum(first, levels - 1), np.arange(len(t))]

    values = _window_means(y, sums, windows)
    for t in np.flatnonzero(rechecked) + 1:
        ref = adaptive_window_mean(y[:t], float(sigma[t - 1]), delta)
        values[t - 1], windows[t - 1] = ref.value, ref.window
    return WindowSweep(values, windows, int(rechecked.sum()))
