"""Per-prefix estimation kernel.

The benchmark harnesses evaluate the wavelet estimator on every prefix of an
observation sequence, which dominates their runtime.  Prefixes sharing a
dyadic window size m are evaluated together against the cached reflect
:class:`~driftwave.wavelets.SupportBasis` of that size: one FFT
correlation of the series with its |S| support rows gives the support
coefficients of all (at most m) windows of the level, then a soft threshold
and a dot with the newest-sample weights.  That is O(|S| m log m) work per
level with |S| = O(L log m), and neither a transform of size m x m nor the
block of sliding windows is formed.  Only ``sigma="mad"`` reads the windows
themselves, for their finest-level coefficients (high-pass taps only, no
basis), a bounded block of windows at a time.

A sweep has one configuration, the one the harnesses run: the reflect
boundary and the default threshold 2 sigma sqrt(2 ln(ln m / delta)) of the
known or the MAD noise scale, each level's from ``denoise._noise_threshold``
as every estimate's is.  A reflect window of m >= 2 samples is
transformed at length 2m >= 4, so every window has finest-level
coefficients for a median, and only the first prefix y[:1] passes its
observation through.

Haar (``haar``, ``db1``, any case) skips the basis and the correlation.  Its
support rows are constant on dyadic blocks ending at the newest sample, so
the detail of width 2**s is 2**(-s/2) times the older-half minus the
newer-half sum of the newest 2**s samples, shared by every window of at
least 2**s samples ending there, and the approximation is twice the
window sum over sqrt(2m).
The block sums of every width come from doubling, S_j(t) = S_{j-1}(t) +
S_{j-1}(t - 2**(j-1)), which adds pairwise; one table of the details of
every prefix is then thresholded per prefix and reduced against the weights
with a fixed number of array operations: O(T log T) work for the sweep.  The
other families' rows are not constant on dyadic blocks, so only Haar has
this path.

Both sweeps take a (B, T) stack of series too, so the harnesses sweep
every noise level's trials, or one horizon's, together; a single series is
the B = 1 case.  A known noise scale may be a (B, 1) column, which becomes
a per-row threshold of each level, so a stack of noise levels is still one
sweep.  A level runs on a chunk of rows whose FFT product (or Haar
table) fits a quarter of ``_SCRATCH_BYTES``, in this thread's scratch.
Every step transforms, shrinks and reduces each row on its own, so a row's
estimates are bit-identical to a call with that row alone.

:func:`prefix_estimates_reference` is the one-prefix-at-a-time contract the
kernel is pinned to.
"""

from __future__ import annotations

import numpy as np

from .denoise import (
    DenoiseConfig,
    _mad_rows,
    _noise_threshold,
    _require_finite,
    _require_finite_output,
    _require_sigma_delta,
    _require_transform,
    estimate_latest,
)
from .errors import LengthMismatch
from .wavelets import _SCRATCH_BYTES, _require_budget, _scratch, finest, get_family, support_basis


def _floor_log2(t: int) -> int:
    return t.bit_length() - 1


def _levels(T: int) -> list[tuple[int, int, int]]:
    """(m, lo, hi) for each dyadic window size m = 2, 4, ... <= T: the
    prefixes y[:t] with m <= t < 2m, whose newest dyadic window holds m
    samples, are prefix indices lo .. hi - 1 (lo = m - 1).  The one level
    walk of both sweeps and of ``bench.bound_profile``."""
    sizes = [1 << k for k in range(1, _floor_log2(T) + 1)]
    return [(m, m - 1, min(2 * m - 1, T)) for m in sizes]


def _mad_sigma(family: str, Y, m: int, count: int) -> np.ndarray:
    """MAD noise scale of each of the ``count`` reflect-folded windows
    Y[b, j : j + m] of each row, (B, count).  Each row is its own series, a
    block of windows at a time: a fold of 16 m bytes per window keeps a
    block near ``_SCRATCH_BYTES`` at any horizon (and in cache, which made
    1 MiB faster than larger blocks on a db8 sweep of T = 4096)."""
    taps = get_family(family)
    per = max(1, _SCRATCH_BYTES // (16 * m))
    sigma = np.empty((len(Y), count))
    for b, y in enumerate(Y):
        windows = np.lib.stride_tricks.sliding_window_view(y, m)[:count]
        for j in range(0, count, per):
            sigma[b, j : j + per] = _mad_rows(finest(taps, windows[j : j + per], "reflect"))
    return sigma


def _rows_per_chunk(row_bytes: int) -> int:
    """Rows of a stack swept together when a level's largest array (the
    FFT product, or the Haar table) takes ``row_bytes`` per row: as many as
    fit in a quarter of ``_SCRATCH_BYTES``, at least one.  Stacking saves
    the per-call cost of the small levels, which such a chunk already
    spreads over many rows; chunks filling all of ``_SCRATCH_BYTES`` were
    no faster on the benchmark's passes and only grew the kept buffers and
    the peak RSS."""
    return max(1, _SCRATCH_BYTES // (4 * row_bytes))


def _shrink_in_place(coeffs: np.ndarray, lam) -> np.ndarray:
    """``_shrink(coeffs, lam)`` written over ``coeffs``, the clip in this
    thread's scratch slot 1: the same bits without a temporary."""
    clipped = np.maximum(-lam, coeffs, out=_scratch(1, coeffs.shape))
    np.minimum(lam, clipped, out=clipped)
    return np.subtract(coeffs, clipped, out=coeffs)


def _prefix_kernel(Y: np.ndarray, family: str, delta: float, out: np.ndarray, sigma) -> np.ndarray:
    """out[b, t - 1] = the estimate from Y[b, :t] for a (B, T) stack, one
    dyadic window size at a time, thresholded at the λ that
    :func:`~driftwave.denoise._noise_threshold` gives each level's windows
    for the known noise scale ``sigma``: a float, a (B, 1) column (passed
    on as a (chunk, 1, 1) one), or None for each window's MAD noise scale.

    Each level runs on a chunk of rows (:func:`_rows_per_chunk` of its FFT
    product; the lags and the coefficients are smaller), so the
    correlation's buffers stay in this thread's scratch; one matmul, which
    numpy runs as one (count, |S|) @ weights product per row, then gives
    estimates that do not depend on the rows stacked with it."""
    if get_family(family).name == "haar":
        return _haar_prefix_kernel(Y, family, delta, out, sigma)
    out[:, :1] = Y[:, :1]
    for m, lo, hi in _levels(Y.shape[1]):
        basis = support_basis(family, m, "reflect")
        step = _rows_per_chunk(16 * len(basis.rows) * (m + 1))
        for b in range(0, len(Y), step):
            rows = Y[b : b + step]
            known = sigma[b : b + step, :, None] if isinstance(sigma, np.ndarray) else sigma
            coeffs = basis.sliding(rows, hi - lo)
            _, lam = _noise_threshold(known, delta, m, lambda: _mad_sigma(family, rows, m, hi - lo))
            np.matmul(_shrink_in_place(coeffs, lam), basis.weights, out=out[b : b + step, lo:hi])
    return out


def _haar_prefix_kernel(Y: np.ndarray, family: str, delta: float, out: np.ndarray, sigma) -> np.ndarray:
    """:func:`_prefix_kernel` for Haar, every prefix in one pass over a table
    of dyadic block sums, a chunk of rows (:func:`_rows_per_chunk` of the
    table) at a time.

    Row s - 1 of a series' ``details`` holds, at prefix index i, the
    older-half sum minus the newer-half sum of the 2**s samples ending at
    y[i] (0 where the prefix is shorter); scaled by 2**(-s/2) it is the
    detail coefficient of width 2**s, weight -2**(-s/2), of every window of
    2**s or more samples ending there.  ``approx`` holds the window's
    approximation coefficient and ``weight`` its weight 1/sqrt(n) for the
    transform length n = 2m of a window of m samples: the approximation of
    the fold is twice the window sum over sqrt(n), and its coarsest detail
    is 0, so it is left out.
    """
    T = Y.shape[1]
    levels = _floor_log2(T)
    # the table and its one working copy (this thread's scratch when they fit)
    _require_budget(f"the Haar sweep of {T} samples", 2 * levels * T * 8)
    scale = 2.0 ** (-0.5 * np.arange(1, levels + 1))
    weight = np.zeros(T)
    step = _rows_per_chunk(8 * max(levels, 1) * T)
    for b in range(0, len(Y), step):
        rows = Y[b : b + step]
        known = sigma[b : b + step, :, None] if isinstance(sigma, np.ndarray) else sigma
        details = _scratch(0, (len(rows), levels, T))
        approx, lam = np.zeros(rows.shape), np.zeros(rows.shape)
        sums = rows  # after level m, sums[:, i - m + 1]: the m samples ending at y[i]
        for j, (m, lo, hi) in enumerate(_levels(T)):
            half, row = m // 2, details[:, j]
            row[:, :lo] = 0.0
            np.subtract(sums[:, :-half], sums[:, half:], out=row[:, lo:])
            row *= scale[j]
            sums = sums[:, half:] + sums[:, :-half]
            root = (2 * m) ** -0.5
            np.multiply(sums[:, : hi - lo], 2.0 * root, out=approx[:, lo:hi])
            weight[lo:hi] = root
            # a float for the level, or a column with one value per row or per window
            _, lam[:, lo:hi, None] = _noise_threshold(known, delta, m,
                                                      lambda: _mad_sigma(family, rows, m, hi - lo))
        detail_sum = scale @ _shrink_in_place(details, lam[:, None, :])
        # weight * _shrink(approx, lam) - detail_sum, written over approx
        np.multiply(_shrink_in_place(approx, lam), weight, out=approx)
        np.subtract(approx, detail_sum, out=out[b : b + step])
    out[:, :1] = Y[:, :1]
    return out


def wavelet_prefix_estimates(y: np.ndarray, family: str, *, sigma, delta: float) -> np.ndarray:
    """Latest-value estimates over every prefix y[:1], y[:2], ..., y[:T] of
    a series, or of each row of a (B, T) stack of series (shape of y).
    ``sigma`` is a float, ``"mad"``, or a (B, 1) column with one float per
    row; the whole stack is swept at once, a column giving each row its own
    threshold per level.

    Each prefix is truncated to its most recent dyadic window, reflect-folded
    and soft-thresholded at the default threshold; the estimate at t = 1 is
    the lone observation.  With ``sigma="mad"`` the noise scale is
    re-estimated per prefix.  NaN or infinite observations or estimates
    raise :class:`NonFiniteValue`, naming the row of a stack; the parameters
    are checked as :class:`DenoiseConfig` checks them (``ValueError``).
    Each row's estimates are bit-identical to a call with that row alone.
    """
    mad = isinstance(sigma, str) and sigma == "mad"
    column = np.reshape(sigma, (-1, 1)) if np.ndim(sigma) else None
    _require_sigma_delta(0.0 if mad else sigma if column is None else column, delta)
    _require_transform("reflect", family)
    y = np.ascontiguousarray(y, dtype=np.float64)
    if y.ndim not in (1, 2):
        raise LengthMismatch(f"need a series or a (B, T) stack of series, got shape {y.shape}")
    if y.size == 0:
        return np.empty(y.shape)
    _require_finite(y)
    Y = y.reshape(-1, y.shape[-1])
    T = Y.shape[1]
    if column is not None and len(column) != len(Y):
        raise LengthMismatch(f"need one sigma per row, got {len(column)} for {len(Y)} rows")
    known = None if mad else float(sigma) if column is None else column
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises below
        out = _prefix_kernel(Y, family, delta, np.empty(Y.shape), known)
    if y.ndim == 1:
        _require_finite_output(out[0], lambda i: f"the estimate from y[:{i + 1}]")
    else:
        _require_finite_output(out, lambda i: f"the estimate from row {i // T}'s y[:{i % T + 1}]")
    return out.reshape(y.shape)


def prefix_estimates_reference(y: np.ndarray, family: str, *, sigma: float | str, delta: float) -> np.ndarray:
    """Same contract as :func:`wavelet_prefix_estimates` for one series, via
    the public estimator under its default reflect boundary and threshold,
    one prefix at a time.  Slow; used to pin the kernel down."""
    y = np.asarray(y, dtype=np.float64)
    out = np.empty(len(y))
    if len(y) == 0:
        return out
    cfg = DenoiseConfig(family=family, sigma=sigma, delta=delta)
    out[0] = y[0]
    for t in range(2, len(y) + 1):
        out[t - 1] = estimate_latest(y[:t], cfg).value
    return out
