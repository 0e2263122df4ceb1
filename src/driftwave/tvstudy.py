"""Risk-vs-horizon scaling study for iterated latest-value estimation.

Ground truths are drawn from a bounded-total-variation class, Gaussian noise
is added, and the chosen estimator produces one estimate per prefix.  Summed
risks are averaged over trials per horizon and a log-log line is fitted to
expose the empirical scaling exponent.  The trials of one horizon reach the
estimator as (trials, n) stacks, a bounded chunk of trials at a time, when
it declares ``stacked`` (:func:`driftwave.bench.prefix_rows`), one series
at a time otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bench import Table, _piecewise_constant_tv, _trial_chunks, make_method, prefix_rows
from .denoise import _require_count, _require_finite_params, _require_sigma_delta
from .errors import LengthMismatch


@dataclass(frozen=True)
class TVStudySpec:
    """Study parameters: TV radius, noise scale, horizon grid, trials, estimator spec."""

    tv_radius: float
    sigma: float
    n_grid: tuple[int, ...]
    trials: int = 10
    estimator: dict = field(default_factory=lambda: {"kind": "wavelet", "family": "haar"})
    delta: float = 0.1

    def __post_init__(self):
        _require_finite_params(tv_radius=self.tv_radius)
        _require_sigma_delta(self.sigma, self.delta)
        if self.tv_radius < 0:
            raise ValueError(f"tv_radius must be nonnegative, got {self.tv_radius}")
        _require_count("trials", self.trials)
        grid = tuple(self.n_grid)
        for n in grid:
            _require_count("each n_grid entry", n)
        if not grid or any(n < 2 or (n & (n - 1)) for n in grid):
            raise ValueError(f"n_grid must be powers of two >= 2, got {grid}")
        if list(grid) != sorted(set(grid)):
            raise ValueError(f"n_grid must be strictly increasing, got {grid}")


@dataclass(frozen=True)
class ScalingFit(Table):
    """Per-horizon mean risks plus fitted log-log slopes and intercepts."""

    header = ("n", "mean_r_sq", "std_r_sq", "mean_r_abs", "std_r_abs", "exponent_sq", "exponent_abs")

    n_grid: tuple[int, ...]
    mean_sq: np.ndarray
    std_sq: np.ndarray
    mean_abs: np.ndarray
    std_abs: np.ndarray
    exponent_sq: float
    intercept_sq: float
    exponent_abs: float
    intercept_abs: float
    trials: int

    def rows(self) -> list[tuple[int, float, float, float, float, float, float]]:
        return [
            (int(n), float(self.mean_sq[i]), float(self.std_sq[i]), float(self.mean_abs[i]),
             float(self.std_abs[i]), self.exponent_sq, self.exponent_abs)
            for i, n in enumerate(self.n_grid)
        ]


def risk(estimates: np.ndarray, truth: np.ndarray, kind: str) -> float | np.ndarray:
    """Summed estimation risk along the last axis: squared ("sq") or absolute
    ("abs") deviations.  A float for one series, an array of one risk per
    series for a stack."""
    estimates = np.asarray(estimates, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if estimates.shape != truth.shape:
        raise LengthMismatch(f"shape mismatch: {estimates.shape} vs {truth.shape}")
    if kind not in ("sq", "abs"):
        raise ValueError(f"risk kind must be 'sq' or 'abs', got {kind!r}")
    # one temporary, squared or made absolute in place
    dev = np.subtract(estimates, truth)
    (np.square if kind == "sq" else np.abs)(dev, out=dev)
    total = np.sum(dev, axis=-1)
    return float(total) if total.ndim == 0 else total


def _fit_loglog(n_grid: np.ndarray, means: np.ndarray) -> tuple[float, float]:
    if np.any(means <= 0):
        return float("nan"), float("nan")
    A = np.vstack([np.log(n_grid), np.ones(len(n_grid))]).T
    slope, intercept = np.linalg.lstsq(A, np.log(means), rcond=None)[0]
    return float(slope), float(intercept)


def run_tv_study(spec: TVStudySpec, base_seed: int) -> ScalingFit:
    """Run the study; deterministic given base_seed.

    Trial streams are seeded by (base_seed, n, trial), so the draws of a
    horizon do not depend on the other horizons or on the trial count.
    """
    estimator = make_method(spec.estimator)
    grid = tuple(spec.n_grid)

    per_n = np.empty((len(grid), spec.trials, 2))
    for i, n in enumerate(grid):
        for chunk in _trial_chunks(spec.trials, n):
            theta, y = np.empty((len(chunk), n)), np.empty((len(chunk), n))
            for row, trial in enumerate(chunk):
                rng = np.random.default_rng([base_seed, n, trial])
                theta[row] = _piecewise_constant_tv(n, spec.tv_radius, rng)
                y[row] = theta[row] + rng.normal(0.0, spec.sigma, n)
            est = prefix_rows(estimator, y, spec.sigma, spec.delta)
            del y  # swept: the risks' deviations can take its memory
            per_n[i, chunk, 0] = risk(est, theta, "sq")
            per_n[i, chunk, 1] = risk(est, theta, "abs")
    mean = per_n.mean(axis=1)
    std = per_n.std(axis=1, ddof=1) if spec.trials > 1 else np.zeros_like(mean)
    exp_sq, int_sq = _fit_loglog(np.array(grid, dtype=float), mean[:, 0])
    exp_abs, int_abs = _fit_loglog(np.array(grid, dtype=float), mean[:, 1])
    return ScalingFit(
        grid, mean[:, 0], std[:, 0], mean[:, 1], std[:, 1],
        exp_sq, int_sq, exp_abs, int_abs, spec.trials,
    )
