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
tests one doubling level at a time on every prefix long enough for it.
Both take a (B, T) stack of series as well, swept together with a leading
row axis; every step is elementwise along the rows, so a row's result does
not depend on the others.  The scalar ``fixed_window_mean`` and
``adaptive_window_mean`` compute one prefix at a time with ``np.mean`` and
are the reference the sweeps are tested against.
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
    the prefix y[:t] (``[b, t-1]`` for row b of a stack).  ``rechecked``
    counts the prefixes whose doubling test fell inside the rounding-error
    band and was re-decided by the scalar scan (always 0 for the fixed
    window): an int, or one count per row of a stack."""

    values: np.ndarray
    windows: np.ndarray
    rechecked: int | np.ndarray = 0


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
    """y as a float array: a series of at least one finite observation, or
    a (B, T) stack of B >= 1 such series."""
    y = np.asarray(y, dtype=np.float64)
    if y.ndim not in (1, 2) or y.size == 0:
        raise BadWindow(
            f"need a series of at least one observation or a (B, T) stack of them, got shape {y.shape}"
        )
    _require_finite(y)
    return y


def _cumsum0(x: np.ndarray) -> np.ndarray:
    """Cumulative sums along the last axis with a leading zero."""
    sums = np.zeros(x.shape[:-1] + (x.shape[-1] + 1,))
    np.cumsum(x, axis=-1, out=sums[..., 1:])
    return sums


def _window_means(y: np.ndarray, sums: np.ndarray, windows: np.ndarray) -> np.ndarray:
    """Mean of the ``windows[..., t - 1]`` newest samples of every prefix
    y[..., :t], off the centered sums of y (:func:`_cumsum0` of y - y[..., :1]).

    Centering on the first observation keeps the sums, and so their
    rounding error, at the scale of the series' variation, not its offset.
    """
    ends = np.arange(1, y.shape[-1] + 1)
    older = np.take_along_axis(sums, np.broadcast_to(ends - windows, y.shape), axis=-1)
    return y[..., :1] + (sums[..., ends] - older) / windows


def fixed_window_sweep(y: np.ndarray, w: int) -> WindowSweep:
    """Mean of the min(w, t) most recent observations of every prefix y[:t]
    of a series, or of each row of a (B, T) stack."""
    y = _series(y)
    _require_integer_window(w)
    if w < 1:
        raise BadWindow(f"window {w} must be at least 1")
    windows = np.broadcast_to(np.minimum(np.arange(1, y.shape[-1] + 1), w), y.shape).copy()
    return WindowSweep(_window_means(y, _cumsum0(y - y[..., :1]), windows), windows)


def adaptive_window_sweep(y: np.ndarray, sigma, delta: float) -> WindowSweep:
    """``adaptive_window_mean`` of every prefix y[:t], in one sweep, of a
    series or of each row of a (B, T) stack.

    ``sigma`` is one noise scale for all prefixes, a (B, 1) column with one
    per row of a stack, or an array holding one per prefix: (T,) for every
    row alike, or (B, T).  The doubling levels r = 1, 2, 4, ... are tested
    one at a time, each on every prefix y[:t] with t >= 2r at once, as
    slices of the cumulative sums; a prefix keeps the window of the first
    level whose test fails, falls inside the band below, or has 2r > t, and
    the sweep ends at the first level no prefix passes.  A test margin
    |lhs - rhs| inside the band that bounds the rounding error of both the
    sweep's and the scalar scan's arithmetic sends that prefix to
    ``adaptive_window_mean``.  Every step is elementwise along the rows, so
    each row's sweep is bit-identical to a call with that row alone;
    ``rechecked`` is then one count per row.
    """
    y = _series(y)
    Y = y.reshape(-1, y.shape[-1])
    T = Y.shape[1]
    # checked as given, before the float64 conversion turns True into 1.0
    _require_sigma_delta(np.asarray(sigma) if np.ndim(sigma) else sigma, delta)
    sigma = np.broadcast_to(np.asarray(sigma, dtype=np.float64), y.shape).reshape(Y.shape)

    centered = Y - Y[:, :1]
    sums = _cumsum0(centered)
    # Rounding bounds in units of eps: the cumulative sum of y - y[0] errs by
    # at most sum_j |partial sum j| + sum_i |y_i - y[0]|, np.mean over a
    # window by at most sum |y| there, and numpy's logs differ from math's
    # by a few ulps of the threshold; the band is 8 times their total.
    sums_err = np.cumsum(np.abs(sums), axis=-1) + _cumsum0(np.abs(centered))
    abs_y = _cumsum0(np.abs(Y))
    ends = np.arange(1, T + 1)
    with np.errstate(divide="ignore", invalid="ignore"):  # t = 1 never tests
        deviation = sigma * np.sqrt(2.0 * np.log(2.0 * np.log2(ends) / delta))

    windows = np.ones(Y.shape, dtype=np.int64)
    rechecked = np.zeros(Y.shape, dtype=bool)
    for k in range(T.bit_length() - 1):  # r = 2**k, tested on the prefixes t = 2r .. T
        r = 1 << k
        new, older, win = slice(2 * r, None), slice(0, T + 1 - 2 * r), windows[:, 2 * r - 1 :]
        # margin = |(s_t - s_{t-r}) / r - (s_t - s_{t-2r}) / 2r| - rhs and
        # band = 8 eps (err_t / r + |y|_t - |y|_{t-2r} + 2 rhs)
        rhs = ADAPTIVE_TEST_CONSTANT * deviation[:, 2 * r - 1 :] / math.sqrt(r)
        mean_r = (sums[:, new] - sums[:, r : T + 1 - r]) / r
        margin = np.abs(mean_r - (sums[:, new] - sums[:, older]) / (2 * r)) - rhs
        band = (sums_err[:, new] / r + abs_y[:, new] - abs_y[:, older] + rhs * 2.0) * (8.0 * _EPS)
        # a prefix is open while its window is r (it passed every smaller
        # level); it closes at its first unsure, failed or untested level
        is_open = win == r
        unsure = np.abs(margin) <= band
        rechecked[:, 2 * r - 1 :] |= is_open & unsure
        passed = is_open & ~unsure & (margin <= 0.0)
        if not passed.any():
            break
        np.copyto(win, 2 * r, where=passed)

    values = _window_means(Y, sums, windows)
    for b, i in np.argwhere(rechecked):
        ref = adaptive_window_mean(Y[b, : i + 1], float(sigma[b, i]), delta)
        values[b, i], windows[b, i] = ref.value, ref.window
    counts = rechecked.sum(axis=-1)
    return WindowSweep(
        values.reshape(y.shape), windows.reshape(y.shape), int(counts[0]) if y.ndim == 1 else counts
    )
