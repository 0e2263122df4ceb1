"""Risk-vs-horizon scaling study for iterated latest-value estimation.

Ground truths are drawn from a bounded-total-variation class, Gaussian noise
is added, and the chosen estimator produces one estimate per prefix.  Summed
risks are averaged over trials per horizon and a log-log line is fitted to
expose the empirical scaling exponent.
"""

from __future__ import annotations

import io
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .bench import _piecewise_constant_tv, make_method
from .denoise import _require_finite_params
from .errors import LengthMismatch


@dataclass(frozen=True)
class TVStudySpec:
    """Study parameters: TV radius, noise scale, horizon grid, estimator."""

    tv_radius: float
    sigma: float
    n_grid: tuple[int, ...]
    trials: int
    estimator: dict = field(default_factory=lambda: {"kind": "wavelet", "family": "haar"})
    delta: float = 0.1

    def __post_init__(self):
        _require_finite_params(tv_radius=self.tv_radius, sigma=self.sigma, delta=self.delta)
        if self.tv_radius < 0 or self.sigma < 0:
            raise ValueError("tv_radius and sigma must be nonnegative")
        if not (0.0 < self.delta < 1.0):
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        grid = tuple(self.n_grid)
        if not grid or any(n < 2 or (n & (n - 1)) for n in grid):
            raise ValueError(f"n_grid must be powers of two >= 2, got {grid}")
        if list(grid) != sorted(set(grid)):
            raise ValueError(f"n_grid must be strictly increasing, got {grid}")


@dataclass(frozen=True)
class ScalingFit:
    """Per-horizon mean risks plus fitted log-log slopes and intercepts."""

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

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("n,mean_r_sq,std_r_sq,mean_r_abs,std_r_abs,exponent_sq,exponent_abs\n")
        for i, n in enumerate(self.n_grid):
            buf.write(
                f"{n},{float(self.mean_sq[i])!r},{float(self.std_sq[i])!r},"
                f"{float(self.mean_abs[i])!r},{float(self.std_abs[i])!r},"
                f"{self.exponent_sq!r},{self.exponent_abs!r}\n"
            )
        return buf.getvalue()


def risk(estimates: np.ndarray, truth: np.ndarray, kind: str) -> float:
    """Summed estimation risk: squared ("sq") or absolute ("abs") deviations."""
    estimates = np.asarray(estimates, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if estimates.shape != truth.shape:
        raise LengthMismatch(f"shape mismatch: {estimates.shape} vs {truth.shape}")
    if kind == "sq":
        return float(np.sum((estimates - truth) ** 2))
    if kind == "abs":
        return float(np.sum(np.abs(estimates - truth)))
    raise ValueError(f"risk kind must be 'sq' or 'abs', got {kind!r}")


def _fit_loglog(n_grid: np.ndarray, means: np.ndarray) -> tuple[float, float]:
    if np.any(means <= 0):
        return float("nan"), float("nan")
    A = np.vstack([np.log(n_grid), np.ones(len(n_grid))]).T
    slope, intercept = np.linalg.lstsq(A, np.log(means), rcond=None)[0]
    return float(slope), float(intercept)


def run_tv_study(spec: TVStudySpec, base_seed: int, *, threads: int = 1) -> ScalingFit:
    """Run the study; deterministic given base_seed, independent of threads.

    Trial streams are seeded by (base_seed, n, trial), so horizons can run in
    any order or in parallel without changing the draws.
    """
    estimator = make_method(dict(spec.estimator))
    grid = tuple(spec.n_grid)

    def one(job: tuple[int, int]) -> tuple[float, float]:
        n, trial = job
        rng = np.random.default_rng([base_seed, n, trial])
        theta = _piecewise_constant_tv(n, spec.tv_radius, rng)
        y = theta + rng.normal(0.0, spec.sigma, n)
        est = estimator.prefix_estimates(y, spec.sigma, spec.delta)
        return risk(est, theta, "sq"), risk(est, theta, "abs")

    jobs = [(n, trial) for n in grid for trial in range(spec.trials)]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(one, jobs))
    else:
        results = [one(job) for job in jobs]

    per_n = np.array(results, dtype=np.float64).reshape(len(grid), spec.trials, 2)
    mean = per_n.mean(axis=1)
    std = per_n.std(axis=1, ddof=1) if spec.trials > 1 else np.zeros_like(mean)
    exp_sq, int_sq = _fit_loglog(np.array(grid, dtype=float), mean[:, 0])
    exp_abs, int_abs = _fit_loglog(np.array(grid, dtype=float), mean[:, 1])
    return ScalingFit(
        grid, mean[:, 0], std[:, 0], mean[:, 1], std[:, 1],
        exp_sq, int_sq, exp_abs, int_abs, spec.trials,
    )
