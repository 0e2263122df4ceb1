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
from dataclasses import dataclass, asdict

import numpy as np

from .errors import DomainError, NonDyadicLength, NonFiniteValue, TooShort
from .wavelets import (
    CoefficientVector,
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

    ``sigma`` is the noise scale, or the string ``"mad"`` to estimate it from
    the finest-level coefficients of the observed window.  ``lambda_override``
    bypasses the default threshold entirely.  The only truncation policy is
    ``"dyadic"``: keep the most recent ``2**floor(log2(len))`` observations,
    so the estimand's time-point stays at the matrix boundary untouched.
    """

    family: str = "haar"
    sigma: float | str = "mad"
    delta: float = 0.1
    lambda_override: float | None = None
    truncation: str = "dyadic"
    boundary: str = "reflect"

    def __post_init__(self):
        _require_finite_params(
            sigma=self.sigma, delta=self.delta, lambda_override=self.lambda_override
        )
        if not (0.0 < self.delta < 1.0):
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")
        if isinstance(self.sigma, str):
            if self.sigma != "mad":
                raise ValueError(f"sigma must be a number or 'mad', got {self.sigma!r}")
        elif self.sigma < 0:
            raise ValueError(f"sigma must be nonnegative, got {self.sigma}")
        if self.lambda_override is not None and self.lambda_override < 0:
            raise ValueError(f"lambda_override must be nonnegative, got {self.lambda_override}")
        if self.truncation != "dyadic":
            raise ValueError(f"unsupported truncation policy {self.truncation!r}")
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
    """sign(x) * max(|x| - lam, 0), elementwise on arrays; an array ``lam``
    broadcasts against x."""
    if np.any(np.asarray(lam) < 0):
        raise ValueError(f"threshold must be nonnegative, got {lam}")
    if np.isscalar(x):
        return float(math.copysign(max(abs(x) - lam, 0.0), x))
    x = np.asarray(x, dtype=np.float64)
    return np.sign(x) * np.maximum(np.abs(x) - lam, 0.0)


def default_lambda(sigma: float, delta: float, n: int) -> float:
    """Default threshold 2*sigma*sqrt(2*ln(ln(n)/delta)).

    Logs are natural.  sigma == 0 short-circuits to 0: zero noise needs no
    shrinkage even where the log term would be undefined.
    """
    _require_finite_params(sigma=sigma, delta=delta)
    if sigma < 0:
        raise ValueError(f"sigma must be nonnegative, got {sigma}")
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if sigma == 0.0:
        return 0.0
    return 2.0 * sigma * _lambda_root(delta, n)


def _lambda_root(delta: float, n: int) -> float:
    """sqrt(2 ln(ln(n)/delta)): the default threshold per unit of 2 sigma."""
    t = math.log(n) / delta
    if t <= 1.0:
        raise DomainError(f"ln(n)/delta = {t:.6g} <= 1 leaves the threshold undefined")
    return math.sqrt(2.0 * math.log(t))


def kappa(n: int, delta: float) -> float:
    """Variational-bound constant (4*sqrt(2*ln(ln n/delta)) v 2*sqrt(2)) * (log2 n + 1)."""
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
    if not np.all(np.isfinite(y)):
        bad = int(np.flatnonzero(~np.isfinite(y))[0])
        raise NonFiniteValue(f"observation {bad} is {float(y[bad])}; need finite values")


def _require_finite_params(**params) -> None:
    """ValueError naming the first parameter that is NaN or infinite; None
    and strings (no override, ``sigma="mad"``) are not numbers to check."""
    for name, value in params.items():
        if not isinstance(value, (str, type(None))) and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


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
    """Soft threshold of an array as ``coeffs - clip(coeffs, -lam, lam)``.

    Equal to :func:`soft_threshold` bit for bit except that every killed
    coefficient is +0.0 where soft_threshold keeps the sign of zero; a dot
    with the newest-sample weights starts its sum at +0.0, so the estimates
    are the same bits.  Shared by the stacked estimate and the prefix kernel.
    """
    return coeffs - np.clip(coeffs, -lam, lam)


def _thresholds(
    cfg: DenoiseConfig, n_vec: int, n_used: int, rows: int, finest
) -> tuple[np.ndarray, np.ndarray]:
    """(lambda, sigma_used) of each of ``rows`` windows of n_used observations
    under a transform of length n_vec; ``finest()`` gives their finest-level
    coefficients, which are computed only when MAD needs them."""
    if not isinstance(cfg.sigma, str):
        sigma = np.full(rows, float(cfg.sigma))
    elif n_vec >= 4:
        sigma = _mad_rows(finest())
    elif cfg.lambda_override is not None:
        sigma = np.zeros(rows)
    else:
        raise TooShort(f"MAD estimation needs at least 4 coefficients, got {n_vec}")
    if cfg.lambda_override is not None:
        return np.full(rows, float(cfg.lambda_override)), sigma
    if not sigma.any():  # as in default_lambda: no noise, no shrinkage
        return np.zeros(rows), sigma
    return 2.0 * sigma * _lambda_root(cfg.delta, n_used), sigma


def _estimate_rows(
    windows: np.ndarray, cfg: DenoiseConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(value, lambda, sigma_used) of each row of a (B, n_used) stack of
    finite dyadic windows, oldest to newest.

    One support-basis lookup, one MAD pass, one threshold and one
    reconstruction for the whole stack.  Each row goes through the same
    steps (the products are stacked vector products), so a row's results do
    not depend on the rows stacked with it.
    """
    rows, n_used = windows.shape
    fold = cfg.boundary == "reflect"
    basis = support_basis(cfg.family, 2 * n_used if fold else n_used)
    lam, sigma = _thresholds(
        cfg, basis.n, n_used, rows, lambda: basis.finest(windows, fold=fold)
    )
    shrunk = _shrink(basis.coefficients(windows, fold=fold), lam[:, None])
    return (shrunk[:, None, :] @ basis.weights)[:, 0], lam, sigma


def estimate_latest(y: np.ndarray, cfg: DenoiseConfig) -> Estimate:
    """Estimate the newest ground-truth value from oldest-to-newest observations.

    The newest observation sits at the last coordinate of the transformed
    window, so the estimate is the last coordinate of the reconstruction:
    only the coefficients in the window's support basis contribute.
    ``n_used`` reports the number of observations entering the window, not
    the transform length (which doubles under the reflect boundary).
    NaN or infinite observations raise :class:`NonFiniteValue`.
    """
    window = _window(y)
    values, lam, sigma = _estimate_rows(window[None, :], cfg)
    return Estimate(float(values[0]), float(lam[0]), float(sigma[0]), len(window))


def denoise_signal(y: np.ndarray, cfg: DenoiseConfig) -> np.ndarray:
    """Denoised values aligned to the most recent ``n_used`` time-points."""
    window = _window(y)
    n_used = len(window)
    vec = reflect_fold(window) if cfg.boundary == "reflect" else window
    family = get_family(cfg.family)
    beta = pyramid_analysis(family, vec)
    lam, _ = _thresholds(cfg, len(vec), n_used, 1, lambda: beta[None, len(vec) // 2 :])
    return pyramid_synthesis(family, soft_threshold(beta, float(lam[0])))[len(vec) - n_used :]


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
    _require_finite_params(sigma=sigma, delta=delta)
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
    theta: np.ndarray, sigma: float, delta: float, *, literal: bool = False
) -> tuple[float, int, float, float]:
    """Total-variation variant of the variational bound.

    The window bias is replaced by the total variation of the t most recent
    values.  ``literal=True`` subtracts the newest value inside the absolute
    value before maximizing; the default does not, which keeps the plain
    window bound dominated by this one for every r.
    """
    theta = _check_dyadic(theta)
    n = len(theta)
    recent_first = theta[::-1]
    tv = np.concatenate(([0.0], np.cumsum(np.abs(np.diff(recent_first)))))
    profile = np.abs(tv - theta[-1]) if literal else tv
    return _variational_scan(profile, sigma, n, delta)


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
    fold = boundary == "reflect"
    basis = support_basis(family, 2 * len(theta) if fold else len(theta))
    lam = default_lambda(sigma, delta, len(theta))
    coeff_abs = np.abs(basis.coefficients(theta, fold=fold))
    sparsity = float(6.0 * np.minimum(coeff_abs, lam) @ np.abs(basis.weights))
    u, r_star, k, haar_bound = haar_variational_bound(theta, sigma, delta)
    tv_u, tv_r, _, tv_bound = tv_variational_bound(theta, sigma, delta)
    return BoundReport(sparsity, haar_bound, r_star, k, tv_bound, tv_r)
