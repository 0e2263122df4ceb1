"""Soft-thresholding estimation of the latest value of a drifting sequence.

The estimator transforms the most recent dyadic window of observations,
shrinks every coefficient toward zero by the threshold, reconstructs, and
reads off the newest coordinate.  It works on a stack of equally long
windows at once: one support-basis lookup, one MAD pass, one threshold and
one reconstruction per stack.  :func:`estimate_latest` is the one-row case,
and :func:`driftwave.selection.select` stacks a whole panel.  Alongside it
live the default threshold, the MAD noise-scale estimator, and the three
error-bound calculators (coefficient-sparsity bound, dyadic-window
variational bound, and its total-variation variant).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, asdict

import numpy as np

from .errors import DomainError, NonDyadicLength, NonFiniteValue, TooShort
from .wavelets import (
    CoefficientVector,
    finest,
    finest_level_coeffs,
    get_family,
    pyramid_analysis,
    pyramid_synthesis,
    support_basis,
)

# Consistency factor turning the median absolute deviation of Gaussian
# detail coefficients into a standard deviation.
MAD_SCALE = 0.6745


@dataclass(frozen=True)
class DenoiseConfig:
    """Estimator configuration.

    ``sigma`` is the noise scale, or exactly ``"mad"`` to estimate it from
    the finest-level coefficients of the observed window.  ``lambda_override``
    bypasses the default threshold entirely.  The estimator keeps the most
    recent ``2**floor(log2(len))`` observations, so the estimand's
    time-point stays at the matrix boundary untouched.
    """

    family: str = "haar"
    sigma: float | str = "mad"
    delta: float = 0.1
    lambda_override: float | None = None
    boundary: str = "reflect"

    def __post_init__(self):
        mad = isinstance(self.sigma, str) and self.sigma == "mad"
        _require_sigma_delta(0.0 if mad else self.sigma, self.delta)
        if np.ndim(self.sigma) > 0:
            raise ValueError(f"sigma must be one number or 'mad', got shape {np.shape(self.sigma)}")
        _require_finite_params(lambda_override=self.lambda_override)
        if self.lambda_override is not None and self.lambda_override < 0:
            raise ValueError(f"lambda_override must be nonnegative, got {self.lambda_override}")
        _require_transform(self.boundary, self.family)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class Estimate:
    """Latest-value estimate with the parameters that produced it."""

    value: float
    lambda_used: float
    sigma_used: float
    n_used: int


@dataclass(frozen=True)
class BoundReport:
    """The three pointwise error bounds evaluated for one ground truth."""

    sparsity: float
    haar_variational: float
    r_star: int
    kappa: float
    tv_variational: float
    tv_r_star: int


def soft_threshold(x, lam):
    """x - clip(x, -lam, lam): sign(x) * max(|x| - lam, 0), with every killed value
    +0.0.  Elementwise on arrays (:func:`_shrink`); an array ``lam`` broadcasts
    against x, even a scalar x.  A negative or NaN threshold raises ValueError."""
    if not np.all(np.asarray(lam) >= 0):
        raise ValueError(f"threshold must be nonnegative, got {lam}")
    if np.isscalar(x) and np.ndim(lam) == 0:
        return float(x - min(max(x, -lam), lam))
    return _shrink(np.asarray(x, dtype=np.float64), lam)


def default_lambda(sigma: float, delta: float, n: int) -> float:
    """Default threshold 2*sigma*sqrt(2*ln(ln(n)/delta)).

    Logs are natural.  sigma == 0 short-circuits to 0: zero noise needs no
    shrinkage even where the log term would be undefined.
    """
    _require_sigma_delta(sigma, delta)
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    return _default_threshold(sigma, delta, n)


def _default_threshold(sigma, delta: float, n: int):
    """2*sigma*sqrt(2 ln(ln(n)/delta)) for a float sigma or a column of them:
    the one threshold rule.  When every sigma is 0 it is 0 without the log
    term, which may be undefined there."""
    if not (sigma.any() if isinstance(sigma, np.ndarray) else sigma):
        return 0.0
    t = math.log(n) / delta
    if t <= 1.0:
        raise DomainError(f"ln(n)/delta = {t:.6g} <= 1 leaves the threshold undefined")
    # doubling is exact, so 2*root*sigma has the bits of 2*sigma*root, with one
    # array product for a column
    return 2.0 * math.sqrt(2.0 * math.log(t)) * sigma


def kappa(n: int, delta: float) -> float:
    """Variational-bound constant (4*sqrt(2*ln(ln n/delta)) v 2*sqrt(2)) * (log2 n + 1)."""
    _require_sigma_delta(0.0, delta)
    t = math.log(n) / delta
    lead = 4.0 * math.sqrt(2.0 * math.log(t)) if t > 1.0 else 0.0
    return max(lead, 2.0 * math.sqrt(2.0)) * (math.log2(n) + 1.0)


def mad_sigma(beta: CoefficientVector) -> float:
    """Noise scale from the finest-level coefficients: median(|.|) / 0.6745."""
    if beta.n < 4:
        raise TooShort(f"MAD estimation needs at least 4 coefficients, got {beta.n}")
    return float(_mad_rows(finest_level_coeffs(beta)))


def dyadic_truncate(y: np.ndarray) -> np.ndarray:
    """Most recent 2**floor(log2(T)) observations along the last axis (of
    length T)."""
    T = y.shape[-1]
    return y[..., T - (1 << (T.bit_length() - 1)) :]


def reflect_fold(window: np.ndarray) -> np.ndarray:
    """Arrange a window as [reversed(w), w]: twice the length, newest last.

    The folded vector is continuous across the circular boundary (both ends
    hold the newest sample, the middle junction repeats the oldest), so
    wrapping filter taps no longer splice the oldest samples onto the newest
    coordinate.  Reconstruction of the last coordinate behaves like a
    symmetric-extension transform while the matrix stays square orthonormal.
    """
    return np.concatenate([window[::-1], window])


def _require_finite(y: np.ndarray) -> None:
    """NonFiniteValue naming the first NaN or infinite observation of a
    series, or of a (B, T) stack of series with its row."""
    if not np.all(np.isfinite(y)):
        bad = np.argwhere(~np.isfinite(y))[0]
        where = f"row {bad[0]} observation {bad[1]}" if y.ndim == 2 else f"observation {bad[0]}"
        raise NonFiniteValue(f"{where} is {float(y[tuple(bad)])}; need finite values")


def _require_finite_output(values, name) -> None:
    """NonFiniteValue naming ``name(i)`` for the first entry i of ``values``
    that is NaN or infinite: finite observations near the float64 limit can
    overflow inside the transform, and an overflow must not pass for a
    number (or win a selection)."""
    finite = np.isfinite(values)
    if not finite.all():
        i = int(np.argmin(finite))
        raise NonFiniteValue(f"{name(i)} is not finite: the observations overflow float64")


def _require_finite_params(**params) -> None:
    """ValueError naming the first parameter that is not a real number, or
    is NaN or infinite; None (no override, no amplitude) passes.  A bool or
    a string such as ``"0.5"`` is not a number here."""
    for name, value in params.items():
        if value is None:
            continue
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValueError(f"{name} must be a number, got {value!r}")
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def _require_count(name: str, value) -> None:
    """ValueError unless value is a positive int or numpy integer; a float
    such as 2.0 or 2.7 is refused, not truncated, and a bool is not a count."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")


def _require_sigma_delta(sigma, delta: float) -> None:
    """ValueError unless sigma is finite and >= 0 and delta lies in (0, 1).
    An array sigma must hold integers or floats, and is then checked as its
    first bad value (NaN, infinite or negative), in order, would be alone."""
    if isinstance(sigma, np.ndarray):
        if sigma.dtype.kind not in "iuf":
            raise ValueError(f"sigma must be a number or an array of numbers, got {sigma.dtype} values")
        bad = sigma[~(np.isfinite(sigma) & (sigma >= 0))]
        sigma = float(bad[0]) if bad.size else 0.0
    _require_finite_params(sigma=sigma, delta=delta)
    if sigma < 0:
        raise ValueError(f"sigma must be nonnegative, got {sigma}")
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must lie in (0, 1), got {delta}")


def _require_transform(boundary: str, *families: str) -> None:
    """ValueError for a boundary other than reflect/periodic or an unknown
    wavelet family."""
    if boundary not in ("reflect", "periodic"):
        raise ValueError(f"boundary must be 'reflect' or 'periodic', got {boundary!r}")
    for family in families:
        try:
            get_family(family)
        except KeyError as exc:
            raise ValueError(exc.args[0]) from None


def _window(y: np.ndarray) -> np.ndarray:
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 1 or len(y) < 2:
        raise TooShort(f"need at least 2 observations, got {y.shape}")
    _require_finite(y)
    return dyadic_truncate(y)


def _mad_rows(finest: np.ndarray) -> np.ndarray:
    """median(|finest|) / MAD_SCALE along the last axis: the one MAD rule.

    A transform of length n = 2**k >= 4 has n/2 finest-level coefficients, an
    even count, so the median is the mean of the two middle order statistics,
    taken as ``np.median`` takes it.  One partition at the upper middle index
    k places every smaller value before k, so the lower middle value is the
    largest of those: the same pair as a two-index partition, found by
    numpy's single-index selection, which is several times faster."""
    k = finest.shape[-1] // 2
    part = np.partition(np.abs(finest), k, axis=-1)
    return (part[..., :k].max(axis=-1) + part[..., k]) / 2.0 / MAD_SCALE


def _shrink(coeffs: np.ndarray, lam) -> np.ndarray:
    """Soft threshold of an array as ``coeffs - clip(coeffs, -lam, lam)``:
    the one soft-threshold formula, without :func:`soft_threshold`'s check
    of lam.  Every killed coefficient is +0.0.  Shared by soft_threshold, the
    stacked estimate and the prefix kernel.
    The clip is ``minimum(lam, maximum(-lam, coeffs))``, faster than
    ``np.clip`` for an array lam; numpy's minimum and maximum return their
    second operand on a tie, so a killed -0.0 is +0.0 where ``np.clip``
    with an array lam leaves it -0.0.
    """
    return coeffs - np.minimum(lam, np.maximum(-lam, coeffs))


def _noise_threshold(sigma, delta: float, n_used: int, mad, override=None):
    """(sigma, lam) of windows of n_used observations, the one step from noise
    scale to threshold of every estimate path and both sweeps: ``sigma`` is
    the known noise scale (a float, or a column the caller shaped) or None for
    ``mad()[..., None]``, computed only then; ``lam`` the override, else the
    default threshold of sigma."""
    if sigma is None:
        sigma = mad()[..., None]
    return sigma, _default_threshold(sigma, delta, n_used) if override is None else float(override)


def _known_sigma(cfg: DenoiseConfig, n_vec: int) -> float | None:
    """The known noise scale of ``cfg`` as a float, or None for the MAD of
    windows under a transform of length n_vec.  A periodic window of 2
    samples has a single finest coefficient: its noise scale is 0 under a
    lambda override, where no threshold reads it, and TooShort otherwise."""
    if not isinstance(cfg.sigma, str):
        return float(cfg.sigma)
    if n_vec >= 4:
        return None
    if cfg.lambda_override is not None:
        return 0.0
    raise TooShort(f"MAD estimation needs at least 4 coefficients, got {n_vec}")


def _estimate_rows(
    windows: np.ndarray, cfg: DenoiseConfig
) -> tuple[np.ndarray, float | np.ndarray, float | np.ndarray]:
    """(value, lambda, sigma_used) of each row of a (B, n_used) stack of
    finite dyadic windows, oldest to newest; lambda and sigma_used are a
    float shared by every row or a (B, 1) column.

    One support-basis lookup, one MAD pass, one threshold and one
    reconstruction for the whole stack.  Each row goes through the same
    steps (the products are stacked vector products), so a row's results do
    not depend on the rows stacked with it.
    """
    n_used = windows.shape[1]
    basis = support_basis(cfg.family, n_used, cfg.boundary)
    sigma, lam = _noise_threshold(_known_sigma(cfg, basis.n), cfg.delta, n_used,
                                  lambda: _mad_rows(finest(basis.family, windows, cfg.boundary)),
                                  cfg.lambda_override)
    shrunk = _shrink(basis.coefficients(windows), lam)
    return (shrunk[:, None, :] @ basis.weights)[:, 0], lam, sigma


def estimate_latest(y: np.ndarray, cfg: DenoiseConfig) -> Estimate:
    """Estimate the newest ground-truth value from oldest-to-newest observations.

    The newest observation sits at the last coordinate of the transformed
    window, so the estimate is the last coordinate of the reconstruction:
    only the coefficients in the window's support basis contribute.
    ``n_used`` reports the number of observations entering the window, not
    the transform length (which doubles under the reflect boundary).
    NaN or infinite observations, or an estimate, threshold or noise scale
    that overflows, raise :class:`NonFiniteValue`.
    """
    window = _window(y)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises below
        values, lam, sigma = _estimate_rows(window[None, :], cfg)
    lam, sigma = float(np.ravel(lam)[0]), float(np.ravel(sigma)[0])
    est = Estimate(float(values[0]), lam, sigma, len(window))
    _require_finite_output([est.value, lam, sigma], lambda i: repr(est))
    return est


def denoise_signal(y: np.ndarray, cfg: DenoiseConfig) -> np.ndarray:
    """Denoised values aligned to the most recent ``n_used`` time-points.
    Non-finite observations or outputs raise :class:`NonFiniteValue`."""
    window = _window(y)
    n_used = len(window)
    vec = reflect_fold(window) if cfg.boundary == "reflect" else window
    family = get_family(cfg.family)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises below
        beta = pyramid_analysis(family, vec)
        _, lam = _noise_threshold(_known_sigma(cfg, len(vec)), cfg.delta, n_used,
                                  lambda: _mad_rows(beta[None, len(vec) // 2 :]), cfg.lambda_override)
        shrunk = soft_threshold(beta, float(np.ravel(lam)[0]))
        values = pyramid_synthesis(family, shrunk)[len(vec) - n_used :]
    _require_finite_output(values, lambda i: f"denoised value {i}")
    return values


def sparsity_bound(
    beta_true: CoefficientVector, support: list[tuple[int, float]], lam: float
) -> float:
    """Coefficient-sparsity error bound: sum over the support of
    6 * |W[i, n-1]| * min(|beta_i|, lam), with beta from the noiseless truth."""
    vals = beta_true.values
    return float(sum(6.0 * w * min(abs(vals[i]), lam) for i, w in support))


def _check_dyadic(theta: np.ndarray) -> np.ndarray:
    theta = np.asarray(theta, dtype=np.float64)
    n = len(theta)
    if n < 2 or (n & (n - 1)) != 0:
        raise NonDyadicLength(f"ground truth length must be a power of two >= 2, got {n}")
    _require_finite(theta)
    return theta


def _variational_scan(
    profile: np.ndarray, sigma: float, n: int, delta: float
) -> tuple[float, int, float, float]:
    # profile[t-1] is the bias surrogate for the window of the t most recent
    # points; U(r) maxes it over dyadic t <= r against sigma/sqrt(r).
    _require_sigma_delta(sigma, delta)
    levels = n.bit_length() - 1
    dyadic_max = np.maximum.accumulate([profile[(1 << p) - 1] for p in range(levels + 1)])
    r = np.arange(1, n + 1)
    U = np.maximum(dyadic_max[np.floor(np.log2(r)).astype(int)], sigma / np.sqrt(r))
    r_star = int(np.argmin(U)) + 1  # argmin takes the first, i.e. smallest, r
    k = kappa(n, delta)
    u = float(U[r_star - 1])
    return u, r_star, k, k * u


def haar_variational_bound(
    theta: np.ndarray, sigma: float, delta: float
) -> tuple[float, int, float, float]:
    """Dyadic-window variational bound (U(r*), r*, kappa, kappa*U(r*)).

    U(r) = max over t in {1,2,4,...,2**floor(log2 r)} of the deviation of the
    mean of the t most recent values from the newest value, maxed with
    sigma/sqrt(r); minimized by brute force over r = 1..n, returning the
    smallest minimizer.
    """
    theta = _check_dyadic(theta)
    n = len(theta)
    recent_first = theta[::-1]
    means = np.cumsum(recent_first) / np.arange(1, n + 1)
    return _variational_scan(np.abs(means - theta[-1]), sigma, n, delta)


def tv_variational_bound(
    theta: np.ndarray, sigma: float, delta: float
) -> tuple[float, int, float, float]:
    """Total-variation variant of the variational bound.

    The window bias is replaced by the total variation of the t most recent
    values (the newest value is not subtracted), which keeps the plain
    window bound dominated by this one for every r.
    """
    theta = _check_dyadic(theta)
    n = len(theta)
    recent_first = theta[::-1]
    tv = np.concatenate(([0.0], np.cumsum(np.abs(np.diff(recent_first)))))
    return _variational_scan(tv, sigma, n, delta)


def bound_report(
    theta: np.ndarray,
    sigma: float,
    delta: float,
    family: str = "haar",
    boundary: str = "reflect",
) -> BoundReport:
    """Evaluate all three bounds for a noiseless dyadic-length ground truth.

    The sparsity bound is computed against the same transform arrangement the
    estimator uses (reflect-folded by default).  An unknown family or a
    boundary other than reflect/periodic raises ``ValueError``.
    """
    _require_transform(boundary, family)
    theta = _check_dyadic(theta)
    basis = support_basis(family, len(theta), boundary)
    lam = default_lambda(sigma, delta, len(theta))
    coeff_abs = np.abs(basis.coefficients(theta))
    sparsity = float(6.0 * np.minimum(coeff_abs, lam) @ np.abs(basis.weights))
    u, r_star, k, haar_bound = haar_variational_bound(theta, sigma, delta)
    tv_u, tv_r, _, tv_bound = tv_variational_bound(theta, sigma, delta)
    return BoundReport(sparsity, haar_bound, r_star, k, tv_bound, tv_r)
