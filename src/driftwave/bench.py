"""Synthetic benchmark harness: signals, noise injection, online evaluation.

The evaluation loop mirrors the standard drift-estimation protocol: at every
time t each method estimates the current ground-truth value from the
observation prefix y[1..t] (current point included), and the squared errors
are averaged over all time-points.  Trials are independently seeded
(``base_seed + trial``) and reduced in trial order, so reports are
bit-identical regardless of worker count.
"""

from __future__ import annotations

import csv
import io
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .baselines import adaptive_window_sweep, fixed_window_sweep
from .denoise import _require_finite, _require_finite_params, _require_transform, default_lambda
from .errors import LengthMismatch, NonFiniteValue, ParseError
from .wavelets import support_basis

SIGNAL_RANGE = 1.5  # all generated signals stay within [-1.5, 1.5]
STOCHASTIC_KINDS = ("random_coin", "piecewise_constant")


@dataclass(frozen=True)
class SignalSpec:
    """Ground-truth generator parameters.

    Kinds: ``doppler`` (chirp with spatially varying smoothness), ``sine``,
    ``random_coin`` (iid fair coin per sample, values in {0, 1}) and
    ``piecewise_constant`` (random change-points, total variation exactly
    ``tv_radius``).  Stochastic kinds are redrawn each trial unless
    ``resample_per_trial`` is cleared.
    """

    kind: str
    n_points: int = 500
    amplitude: float | None = None
    frequency_warp: float = 0.05
    cycles: float = 4.0
    tv_radius: float = 1.0
    resample_per_trial: bool = True

    def __post_init__(self):
        kinds = ("doppler", "sine") + STOCHASTIC_KINDS
        if self.kind not in kinds:
            raise ValueError(f"unknown signal kind {self.kind!r}; choose from {kinds}")
        if self.n_points < 1:
            raise ValueError("n_points must be positive")
        if self.tv_radius < 0:
            raise ValueError("tv_radius must be nonnegative")

    @property
    def stochastic(self) -> bool:
        return self.kind in STOCHASTIC_KINDS


def _piecewise_constant_tv(n: int, radius: float, rng: np.random.Generator) -> np.ndarray:
    """Random piecewise-constant vector whose total variation equals radius.

    Change-point count is uniform on 1..ceil(n**(1/3)); jump magnitudes are
    rescaled so their absolute sum is exactly the radius.  A jump that would
    leave [-1.5, 1.5] is flipped in sign, which preserves the variation.
    """
    if n == 1:
        return np.zeros(1)
    m = int(rng.integers(1, math.ceil(n ** (1.0 / 3.0)) + 1))
    m = min(m, n - 1)
    positions = np.sort(rng.choice(np.arange(1, n), size=m, replace=False))
    magnitudes = rng.uniform(0.5, 1.5, size=m)
    signs = rng.choice(np.array([-1.0, 1.0]), size=m)
    jumps = signs * magnitudes * (radius / magnitudes.sum())

    theta = np.zeros(n)
    level = 0.0
    prev = 0
    for pos, jump in zip(positions, jumps):
        theta[prev:pos] = level
        if abs(level + jump) > SIGNAL_RANGE and abs(level - jump) <= SIGNAL_RANGE:
            jump = -jump
        level += jump
        prev = pos
    theta[prev:] = level
    return theta


def generate_signal(spec: SignalSpec, seed: int | np.random.Generator) -> np.ndarray:
    """Sample the ground truth at n_points equispaced points; deterministic given seed."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    n = spec.n_points
    t = np.arange(1, n + 1) / n
    if spec.kind == "doppler":
        amp = 3.0 if spec.amplitude is None else spec.amplitude
        eps = spec.frequency_warp
        return amp * np.sqrt(t * (1.0 - t)) * np.sin(2.0 * np.pi * (1.0 + eps) / (t + eps))
    if spec.kind == "sine":
        amp = 1.0 if spec.amplitude is None else spec.amplitude
        return amp * np.sin(2.0 * np.pi * spec.cycles * t)
    if spec.kind == "random_coin":
        return rng.integers(0, 2, size=n).astype(np.float64)
    return _piecewise_constant_tv(n, spec.tv_radius, rng)


@dataclass(frozen=True)
class NoiseSpec:
    """Noise distribution over a grid of levels.

    ``uniform`` levels are half-widths B of a symmetric uniform law (known
    standard deviation B/sqrt(3)); ``gaussian`` levels are standard
    deviations themselves.
    """

    kind: str = "uniform"
    levels: tuple[float, ...] = (0.2, 0.3, 0.5, 0.7, 1.0)

    def __post_init__(self):
        if self.kind not in ("uniform", "gaussian"):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        for level in self.levels:
            _require_finite_params(noise_level=level)
        if any(level < 0 for level in self.levels):
            raise ValueError("noise levels must be nonnegative")

    def known_sigma(self, level: float) -> float:
        return level / math.sqrt(3.0) if self.kind == "uniform" else level

    def sample(self, rng: np.random.Generator, level: float, size: int) -> np.ndarray:
        if self.kind == "uniform":
            return rng.uniform(-level, level, size=size)
        return rng.normal(0.0, level, size=size)


# --- methods -----------------------------------------------------------------
# A method exposes `name` and `prefix_estimates(y, known_sigma, delta)`
# returning one latest-value estimate per observation prefix.


class WaveletMethod:
    """Soft-thresholding estimator run over every prefix (hot kernel path)."""

    def __init__(
        self,
        family: str,
        sigma_mode: str = "known",
        name: str | None = None,
        boundary: str = "reflect",
    ):
        if sigma_mode not in ("known", "mad"):
            raise ValueError(f"sigma_mode must be 'known' or 'mad', got {sigma_mode!r}")
        self.family = family
        self.sigma_mode = sigma_mode
        self.boundary = boundary
        self.name = name or (family if sigma_mode == "known" else f"{family}_mad")

    def prefix_estimates(self, y: np.ndarray, known_sigma: float, delta: float) -> np.ndarray:
        sigma = known_sigma if self.sigma_mode == "known" else "mad"
        return _kernels.wavelet_prefix_estimates(
            y, self.family, sigma=sigma, delta=delta, boundary=self.boundary
        )


class AdaptiveWindowMethod:
    """Doubling-window mean of every prefix; the ``proxy`` sigma of prefix
    y[:t] is half its observed range (``range_sigma_proxy``)."""

    def __init__(self, sigma_mode: str = "known", name: str | None = None):
        if sigma_mode not in ("known", "proxy"):
            raise ValueError(f"sigma_mode must be 'known' or 'proxy', got {sigma_mode!r}")
        self.sigma_mode = sigma_mode
        self.name = name or ("avg" if sigma_mode == "known" else "avg_proxy")

    def prefix_estimates(self, y: np.ndarray, known_sigma: float, delta: float) -> np.ndarray:
        sigma = known_sigma
        if self.sigma_mode == "proxy":
            y = np.asarray(y, dtype=np.float64)
            sigma = (np.maximum.accumulate(y) - np.minimum.accumulate(y)) / 2.0
        return adaptive_window_sweep(y, sigma, delta).values


class FixedWindowMethod:
    """Mean of the w most recent observations (all of them while t < w)."""

    def __init__(self, window: int, name: str | None = None):
        if window < 1:
            raise ValueError("window must be positive")
        self.window = window
        self.name = name or f"window{window}"

    def prefix_estimates(self, y: np.ndarray, known_sigma: float, delta: float) -> np.ndarray:
        return fixed_window_sweep(y, self.window).values


class PassthroughMethod:
    """Latest observation as-is; MSE equals the raw noise variance."""

    name = "passthrough"

    def prefix_estimates(self, y: np.ndarray, known_sigma: float, delta: float) -> np.ndarray:
        return np.array(y, dtype=np.float64)


class CsvReplayMethod:
    """Estimates imported from an external tool's CSV (columns t,estimate)."""

    def __init__(self, name: str, estimates: np.ndarray):
        self.name = name
        self.estimates = np.asarray(estimates, dtype=np.float64)

    def prefix_estimates(self, y: np.ndarray, known_sigma: float, delta: float) -> np.ndarray:
        if len(self.estimates) < len(y):
            raise LengthMismatch(
                f"replay file holds {len(self.estimates)} estimates, need {len(y)}"
            )
        return self.estimates[: len(y)]


def load_estimates_csv(stream) -> np.ndarray:
    """Parse an external estimate series: header ``t,estimate``, t ascending from 1."""
    reader = csv.reader(stream)
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError(1, "empty file") from None
    if [h.strip() for h in header[:2]] != ["t", "estimate"]:
        raise ParseError(1, f"expected header 't,estimate', got {','.join(header)}")
    values = []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) < 2:
            raise ParseError(lineno, "expected two columns")
        try:
            t, est = int(row[0]), float(row[1])
        except ValueError as exc:
            raise ParseError(lineno, str(exc)) from None
        if t != len(values) + 1:
            raise ParseError(lineno, f"time must ascend from 1, got {t}")
        if not math.isfinite(est):
            raise NonFiniteValue(f"estimate {row[1]!r} is not finite", line=lineno)
        values.append(est)
    return np.array(values)


def make_method(spec: dict):
    """Build a method from its spec-file form (see README for the schema)."""
    kind = spec.get("kind")
    if kind == "wavelet":
        return WaveletMethod(
            spec["family"], spec.get("sigma", "known"), spec.get("name")
        )
    if kind == "adaptive_window":
        return AdaptiveWindowMethod(spec.get("sigma", "known"), spec.get("name"))
    if kind == "fixed_window":
        return FixedWindowMethod(int(spec["window"]), spec.get("name"))
    if kind == "passthrough":
        return PassthroughMethod()
    if kind == "csv":
        with open(spec["path"], newline="") as fh:
            estimates = load_estimates_csv(fh)
        return CsvReplayMethod(spec.get("name", spec["path"]), estimates)
    raise ValueError(f"unknown method kind {kind!r}")


# --- evaluation --------------------------------------------------------------


@dataclass(frozen=True)
class RiskReport:
    """Per-(method, noise level) MSE mean and standard deviation across trials."""

    method_names: tuple[str, ...]
    levels: tuple[float, ...]
    mean_mse: np.ndarray  # shape (levels, methods)
    std_mse: np.ndarray
    trials: int
    base_seed: int

    def mse(self, method: str, level: float) -> tuple[float, float]:
        li = self.levels.index(level)
        mi = self.method_names.index(method)
        return float(self.mean_mse[li, mi]), float(self.std_mse[li, mi])

    def rows(self) -> list[tuple[str, float, float, float]]:
        return [
            (name, level, float(self.mean_mse[li, mi]), float(self.std_mse[li, mi]))
            for mi, name in enumerate(self.method_names)
            for li, level in enumerate(self.levels)
        ]

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("method,noise_level,mean_mse,std_mse\n")
        for name, level, mean, std in self.rows():
            buf.write(f"{name},{float(level)!r},{mean!r},{std!r}\n")
        return buf.getvalue()


def run_online_eval(
    signal: SignalSpec,
    noise: NoiseSpec,
    methods: list,
    trials: int,
    base_seed: int,
    *,
    delta: float = 0.1,
    threads: int = 1,
) -> RiskReport:
    """Evaluate methods online over seeded noisy trials.

    Per trial: draw the ground truth (stochastic kinds only; a fixed signal
    is shared across trials), then for each noise level draw one noisy
    sequence and let every method estimate theta_t from y[1..t] for all t.
    The MSE is averaged over all time-points; mean and standard deviation
    are taken across trials.
    """
    if not methods:
        raise ValueError("need at least one method")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    names = tuple(m.name for m in methods)
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate method names: {names}")

    fixed_theta = None
    if not (signal.stochastic and signal.resample_per_trial):
        fixed_theta = generate_signal(signal, np.random.default_rng((base_seed, 1)))

    def one_trial(trial: int) -> np.ndarray:
        rng = np.random.default_rng(base_seed + trial)
        theta = fixed_theta if fixed_theta is not None else generate_signal(signal, rng)
        out = np.empty((len(noise.levels), len(methods)))
        for li, level in enumerate(noise.levels):
            y = theta + noise.sample(rng, level, signal.n_points)
            sigma = noise.known_sigma(level)
            for mi, method in enumerate(methods):
                est = method.prefix_estimates(y, sigma, delta)
                out[li, mi] = float(np.mean((est - theta) ** 2))
        return out

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            per_trial = list(pool.map(one_trial, range(trials)))
    else:
        per_trial = [one_trial(k) for k in range(trials)]

    stacked = np.stack(per_trial)  # trial order fixed regardless of workers
    mean = stacked.mean(axis=0)
    std = stacked.std(axis=0, ddof=1) if trials > 1 else np.zeros_like(mean)
    return RiskReport(names, tuple(noise.levels), mean, std, trials, base_seed)


# --- bound profile -----------------------------------------------------------


@dataclass(frozen=True)
class BoundProfile:
    """Sparsity bound averaged over all prefixes, per family and noise level."""

    families: tuple[str, ...]
    levels: tuple[float, ...]
    values: np.ndarray  # shape (families, levels)

    def value(self, family: str, level: float) -> float:
        return float(self.values[self.families.index(family), self.levels.index(level)])

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("family,noise_level,avg_bound\n")
        for fi, fam in enumerate(self.families):
            for li, level in enumerate(self.levels):
                buf.write(f"{fam},{float(level)!r},{float(self.values[fi, li])!r}\n")
        return buf.getvalue()


def bound_profile(
    theta: np.ndarray,
    noise: NoiseSpec,
    families: tuple[str, ...],
    *,
    delta: float = 0.1,
    boundary: str = "reflect",
) -> BoundProfile:
    """Average the coefficient-sparsity bound over all prefixes of the truth.

    For each prefix (t >= 2; the one-point prefix carries no threshold) the
    most recent dyadic window of the noiseless ground truth is arranged per
    the estimator's boundary policy, transformed, and the bound evaluated at
    the default threshold for the level's known sigma.  An unknown family or
    a boundary other than reflect/periodic raises ``ValueError``.
    """
    _require_transform(boundary, *families)
    theta = np.asarray(theta, dtype=np.float64)
    n = len(theta)
    if n < 2:
        raise LengthMismatch("need at least 2 ground-truth points")
    _require_finite(theta)
    fold = boundary == "reflect"
    sigmas = [noise.known_sigma(level) for level in noise.levels]
    values = np.zeros((len(families), len(noise.levels)))
    count = n - 1  # prefixes t = 2..n
    for fi, family in enumerate(families):
        totals = np.zeros(len(noise.levels))
        for k in range(1, n.bit_length()):
            m = 1 << k
            lo_t, hi_t = m, min(2 * m - 1, n)
            if lo_t > n:
                break
            basis = support_basis(family, 2 * m if fold else m)
            wts = 6.0 * np.abs(basis.weights)
            coeff_abs = np.abs(basis.sliding(theta, hi_t - m + 1, fold=fold))  # (prefixes, |S|)
            for li, sigma in enumerate(sigmas):
                lam = default_lambda(sigma, delta, m)
                totals[li] += float((np.minimum(coeff_abs, lam) @ wts).sum())
        values[fi] = totals / count
    return BoundProfile(tuple(families), tuple(noise.levels), values)
