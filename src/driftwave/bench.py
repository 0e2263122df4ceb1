"""Synthetic benchmark harness: signals, noise injection, online evaluation.

The evaluation loop mirrors the standard drift-estimation protocol: at every
time t each method estimates the current ground-truth value from the
observation prefix y[1..t] (current point included), and the squared errors
are averaged over all time-points.  Trials are independently seeded
(``base_seed + trial``) and reduced in trial order, so reports are
bit-identical across runs.  A method that declares ``stacked`` estimates
every noise level's trials as one (levels x trials, T) stack, a bounded
chunk of trials at a time, each row exactly as it would alone; any other
method is called once per row.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .baselines import adaptive_window_sweep, fixed_window_sweep
from .denoise import (_default_threshold, _require_count, _require_finite, _require_finite_params,
                      _require_sigma_delta, _require_transform)
from .errors import LengthMismatch, NonFiniteValue, ParseError
from .wavelets import _SCRATCH_BYTES, support_basis

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
        _require_count("n_points", self.n_points)
        if not isinstance(self.resample_per_trial, bool):
            raise ValueError(f"resample_per_trial must be true or false, got {self.resample_per_trial!r}")
        _require_finite_params(amplitude=self.amplitude, frequency_warp=self.frequency_warp,
                               cycles=self.cycles, tv_radius=self.tv_radius)
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
    deviations themselves.  The levels are kept as a tuple.
    """

    kind: str = "uniform"
    levels: tuple[float, ...] = (0.2, 0.3, 0.5, 0.7, 1.0)

    def __post_init__(self):
        if self.kind not in ("uniform", "gaussian"):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        object.__setattr__(self, "levels", tuple(self.levels))
        if not self.levels:
            raise ValueError("need at least one noise level")
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
# returning one latest-value estimate per observation prefix of the series y.
# A method that also declares `stacked = True` takes a (B, T) stack of
# equally long series as y, known_sigma a float or a (B, 1) column, and
# returns the (B, T) estimates, row b's equal to a call with y[b] and its
# sigma alone; the harnesses hand such a method every noise level's trials,
# or one horizon's, in one call (`prefix_rows`).  Any other method (a CSV
# replay, a user's method, a wrapper that does not forward `stacked`) is
# called once per row, with that row's sigma as a float.


class WaveletMethod:
    """Soft-thresholding estimator run over every prefix (hot kernel path),
    under the reflect boundary."""

    boundary = "reflect"
    stacked = True

    def __init__(self, family: str, sigma: str = "known", name: str | None = None):
        if sigma not in ("known", "mad"):
            raise ValueError(f"sigma must be 'known' or 'mad', got {sigma!r}")
        _require_transform(self.boundary, family)
        self.family = family
        self.sigma_mode = sigma
        self.name = name or (family if sigma == "known" else f"{family}_mad")

    def prefix_estimates(self, y: np.ndarray, known_sigma, delta: float) -> np.ndarray:
        sigma = known_sigma if self.sigma_mode == "known" else "mad"
        return _kernels.wavelet_prefix_estimates(y, self.family, sigma=sigma, delta=delta)


class AdaptiveWindowMethod:
    """Doubling-window mean of every prefix; the ``proxy`` sigma of prefix
    y[:t] is half its observed range (``range_sigma_proxy``)."""

    stacked = True

    def __init__(self, sigma: str = "known", name: str | None = None):
        if sigma not in ("known", "proxy"):
            raise ValueError(f"sigma must be 'known' or 'proxy', got {sigma!r}")
        self.sigma_mode = sigma
        self.name = name or ("avg" if sigma == "known" else "avg_proxy")

    def prefix_estimates(self, y: np.ndarray, known_sigma, delta: float) -> np.ndarray:
        sigma = known_sigma
        if self.sigma_mode == "proxy":
            y = np.asarray(y, dtype=np.float64)
            sigma = (np.maximum.accumulate(y, axis=-1) - np.minimum.accumulate(y, axis=-1)) / 2.0
        return adaptive_window_sweep(y, sigma, delta).values


class FixedWindowMethod:
    """Mean of the w most recent observations (all of them while t < w)."""

    stacked = True

    def __init__(self, window: int, name: str | None = None):
        _require_count("window", window)
        self.window = window
        self.name = name or f"window{window}"

    def prefix_estimates(self, y: np.ndarray, known_sigma, delta: float) -> np.ndarray:
        return fixed_window_sweep(y, self.window).values


class PassthroughMethod:
    """Latest observation as-is; MSE equals the raw noise variance."""

    name = "passthrough"
    stacked = True

    def __init__(self):  # an explicit signature names a stray spec key
        pass

    def prefix_estimates(self, y: np.ndarray, known_sigma, delta: float) -> np.ndarray:
        return np.array(y, dtype=np.float64)


def prefix_rows(method, Y: np.ndarray, known_sigma, delta: float) -> np.ndarray:
    """The (B, T) prefix estimates of the rows of the (B, T) stack Y, whose
    noise scale ``known_sigma`` is one float or a (B, 1) column: one call
    with the whole stack for a method that declares ``stacked``, else one
    call per row, in row order, with that row's sigma as a float."""
    if getattr(method, "stacked", False):
        return method.prefix_estimates(Y, known_sigma, delta)
    sigmas = np.broadcast_to(known_sigma, (len(Y), 1))[:, 0]
    return np.array([method.prefix_estimates(y, float(s), delta) for y, s in zip(Y, sigmas)])


def _trial_chunks(trials: int, T: int, levels: int = 1) -> list[range]:
    """Trials 0 .. trials - 1 in consecutive chunks whose (levels x chunk, T)
    stack of floats fits ``_SCRATCH_BYTES`` (one trial at least), so the
    stacks and the sweeps' temporaries do not grow with the trial count."""
    step = max(1, _SCRATCH_BYTES // (8 * T * levels))
    return [range(k, min(k + step, trials)) for k in range(0, trials, step)]


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


def decode_text(data: bytes) -> str:
    """``data`` decoded as UTF-8 with a leading byte-order mark dropped: how
    every text input (series, panel, spec, replay file) is read.  Bytes that
    are not UTF-8 raise :class:`ParseError` naming their line."""
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(line, f"byte 0x{data[exc.start]:02x} is not UTF-8 text") from None


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


def _csv_method(path: str, name: str | None = None) -> CsvReplayMethod:
    """The :class:`CsvReplayMethod` of the file at ``path``, checked before it is opened."""
    # open() takes an int as a file descriptor: True would read, then close, stdout
    if not isinstance(path, str):
        raise ValueError(f"a csv method's path must be a string, got {path!r}")
    with open(path, "rb") as fh:
        estimates = load_estimates_csv(io.StringIO(decode_text(fh.read()), newline=""))
    return CsvReplayMethod(path if name is None else name, estimates)


_METHOD_KINDS = {"wavelet": WaveletMethod, "adaptive_window": AdaptiveWindowMethod,
                 "fixed_window": FixedWindowMethod, "passthrough": PassthroughMethod, "csv": _csv_method}


def make_method(spec: dict):
    """Build a method from its spec-file form (see README for the schema):
    ``kind`` picks the constructor in ``_METHOD_KINDS``, and every other
    key is one of its keyword arguments.  A spec that is not a dict, an
    unknown kind or key, or a missing or wrong-typed field raises
    ``ValueError`` or ``TypeError``."""
    if not isinstance(spec, dict):
        raise ValueError(f"a method spec must be a JSON object, got {spec!r}")
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in _METHOD_KINDS:
        raise ValueError(f"unknown method kind {kind!r}")
    return _METHOD_KINDS[kind](**{k: v for k, v in spec.items() if k != "kind"})


# --- reports -----------------------------------------------------------------


def table_text(header, rows, fmt: str) -> str:
    """A table as CSV (floats written as ``repr(float(c))``, other cells with
    ``str``) or, for ``fmt="json"``, as a JSON list of one record per row."""
    if fmt == "json":
        return json.dumps([dict(zip(header, row)) for row in rows], indent=2) + "\n"
    lines = [",".join(header)]
    lines += [",".join(repr(float(c)) if isinstance(c, float) else str(c) for c in row) for row in rows]
    return "\n".join(lines) + "\n"


class Table:
    """A report that is a class-level ``header`` plus ``rows()``."""

    def to_text(self, fmt: str) -> str:
        return table_text(self.header, self.rows(), fmt)

    def to_csv(self) -> str:
        return self.to_text("csv")


# --- evaluation --------------------------------------------------------------


@dataclass(frozen=True)
class RiskReport(Table):
    """Per-(method, noise level) MSE mean and standard deviation across trials."""

    header = ("method", "noise_level", "mean_mse", "std_mse")

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
            (name, float(level), float(self.mean_mse[li, mi]), float(self.std_mse[li, mi]))
            for mi, name in enumerate(self.method_names)
            for li, level in enumerate(self.levels)
        ]


def run_online_eval(
    signal: SignalSpec,
    noise: NoiseSpec,
    methods: list,
    trials: int,
    base_seed: int,
    *,
    delta: float = 0.1,
) -> RiskReport:
    """Evaluate methods online over seeded noisy trials.

    Per trial: draw the ground truth (stochastic kinds only; a fixed signal
    is shared across trials), then for each noise level draw one noisy
    sequence and let every method estimate theta_t from y[1..t] for all t.
    The MSE is averaged over all time-points; mean and standard deviation
    are taken across trials.  Each method sees a chunk of trials as one
    level-major (levels x trials, T) stack with a (levels x trials, 1) sigma
    column (:func:`_trial_chunks`, :func:`prefix_rows`).  Each trial keeps
    its own rng, which draws the truth, then each level's noise in order.
    """
    if not methods:
        raise ValueError("need at least one method")
    _require_count("trials", trials)
    _require_sigma_delta(0.0, delta)  # checked even where no method reads it
    names = tuple(m.name for m in methods)
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate method names: {names}")

    fixed_theta = None
    if not (signal.stochastic and signal.resample_per_trial):
        fixed_theta = generate_signal(signal, np.random.default_rng((base_seed, 1)))

    T, levels = signal.n_points, noise.levels
    mse = np.empty((trials, len(levels), len(methods)))
    for chunk in _trial_chunks(trials, T, len(levels)):
        theta, y = np.empty((len(chunk), T)), np.empty((len(levels), len(chunk), T))
        for row, trial in enumerate(chunk):
            rng = np.random.default_rng(base_seed + trial)
            theta[row] = fixed_theta if fixed_theta is not None else generate_signal(signal, rng)
            for li, level in enumerate(levels):
                y[li, row] = theta[row] + noise.sample(rng, level, T)
        sigma = np.repeat([noise.known_sigma(level) for level in levels], len(chunk))[:, None]
        for mi, method in enumerate(methods):
            est = prefix_rows(method, y.reshape(-1, T), sigma, delta).reshape(y.shape)
            mse[chunk.start : chunk.stop, :, mi] = np.mean((est - theta) ** 2, axis=-1).T

    mean = mse.mean(axis=0)
    std = mse.std(axis=0, ddof=1) if trials > 1 else np.zeros_like(mean)
    return RiskReport(names, tuple(noise.levels), mean, std, trials, base_seed)


# --- bound profile -----------------------------------------------------------


@dataclass(frozen=True)
class BoundProfile(Table):
    """Sparsity bound averaged over all prefixes, per family and noise level."""

    header = ("family", "noise_level", "avg_bound")

    families: tuple[str, ...]
    levels: tuple[float, ...]
    values: np.ndarray  # shape (families, levels)

    def value(self, family: str, level: float) -> float:
        return float(self.values[self.families.index(family), self.levels.index(level)])

    def rows(self) -> list[tuple[str, float, float]]:
        return [
            (fam, float(level), float(self.values[fi, li]))
            for fi, fam in enumerate(self.families)
            for li, level in enumerate(self.levels)
        ]


def bound_profile(
    theta: np.ndarray,
    noise: NoiseSpec,
    families: tuple[str, ...] = ("haar", "db8"),
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
    families = tuple(families)
    if not families:
        raise ValueError("need at least one family")
    _require_transform(boundary, *families)
    theta = np.asarray(theta, dtype=np.float64)
    n = len(theta)
    if n < 2:
        raise LengthMismatch("need at least 2 ground-truth points")
    _require_finite(theta)
    sigmas = np.array([noise.known_sigma(level) for level in noise.levels])[:, None, None]
    _require_sigma_delta(sigmas, delta)
    values = np.zeros((len(families), len(noise.levels)))
    for fi, family in enumerate(families):
        for m, lo, hi in _kernels._levels(n):
            basis = support_basis(family, m, boundary)
            coeff_abs = np.abs(basis.sliding(theta, hi - lo))  # (prefixes, |S|)
            lam = _default_threshold(sigmas, delta, m)  # 0.0, or one per noise level
            values[fi] += (np.minimum(coeff_abs, lam) @ (6.0 * np.abs(basis.weights))).sum(axis=-1)
    values /= n - 1  # prefixes t = 2..n
    return BoundProfile(families, tuple(noise.levels), values)
