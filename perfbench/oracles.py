"""Oracle checks for the benchmark's outputs.

Each check compares what a fast path produced against the package's own
one-call-at-a-time reference (scalar ``estimate_latest``,
``adaptive_window_mean``, ``fixed_window_mean``, ``sparsity_bound``) and
returns a list of mismatch descriptions; an empty list means the output
passed.  The checks run outside every timed region.
"""

from __future__ import annotations

import numpy as np

from driftwave import (
    DenoiseConfig,
    adaptive_window_mean,
    cached_matrix,
    default_lambda,
    dyadic_truncate,
    estimate_latest,
    fixed_window_mean,
    forward,
    last_column_support,
    reflect_fold,
    sparsity_bound,
)

# Absolute tolerance on a latest-value estimate (values are O(1)) and
# relative tolerance on averaged bounds.
TOL = 1e-10


def sample_prefixes(T: int, rng: np.random.Generator, k: int = 3) -> list[int]:
    """Prefix lengths to check: 1, 2, T and k more drawn from [3, T)."""
    picks = {1, min(2, T), T}
    if T > 3:
        picks.update(int(t) for t in rng.integers(3, T, size=k))
    return sorted(picks)


def _close(a: float, b: float, tol: float = TOL) -> bool:
    return abs(a - b) <= tol


def check_wavelet(y, est, family, sigma, delta, prefixes, boundary="reflect") -> list[str]:
    """Kernel estimates against scalar ``estimate_latest`` at the given prefixes."""
    cfg = DenoiseConfig(family=family, sigma=sigma, delta=delta, boundary=boundary)
    bad = []
    for t in prefixes:
        ref = float(y[0]) if t == 1 else estimate_latest(y[:t], cfg).value
        if not _close(float(est[t - 1]), ref):
            bad.append(f"{family} t={t}: {est[t - 1]!r} != scalar {ref!r}")
    return bad


def _doubling_windows_matching(prefix: np.ndarray, value: float) -> set[int]:
    """Doubling windows r = 1, 2, 4, ... whose mean reproduces ``value``."""
    n = len(prefix)
    out, r = set(), 1
    while r <= n:
        if _close(float(np.mean(prefix[n - r :])), value):
            out.add(r)
        r *= 2
    return out


def check_adaptive(y, est, sigma, delta, prefixes) -> list[str]:
    """Adaptive-window estimates against the scalar doubling scan.

    The method protocol returns values only, so the chosen window is read
    back as the doubling window(s) whose mean reproduces the value; the
    scalar scan's window must be among them.
    """
    bad = []
    for t in prefixes:
        ref = adaptive_window_mean(y[:t], sigma, delta)
        got = float(est[t - 1])
        if not _close(got, ref.value):
            bad.append(f"avg t={t}: {got!r} != scalar {ref.value!r}")
        elif ref.window not in _doubling_windows_matching(y[:t], got):
            bad.append(f"avg t={t}: window {ref.window} does not reproduce {got!r}")
    return bad


def check_fixed(y, est, window, prefixes) -> list[str]:
    bad = []
    for t in prefixes:
        ref = fixed_window_mean(y[:t], min(window, t)).value
        if not _close(float(est[t - 1]), ref):
            bad.append(f"window{window} t={t}: {est[t - 1]!r} != scalar {ref!r}")
    return bad


def check_bound_profile(theta, noise, families, delta, profile) -> list[str]:
    """Every averaged bound against the scalar per-prefix sparsity bound."""
    theta = np.asarray(theta, dtype=np.float64)
    sigmas = [noise.known_sigma(level) for level in noise.levels]
    bad = []
    for family in families:
        totals = np.zeros(len(sigmas))
        for t in range(2, len(theta) + 1):
            window = dyadic_truncate(theta[:t])
            W = cached_matrix(family, 2 * len(window))
            beta = forward(W, reflect_fold(window))
            support = last_column_support(W)
            for li, sigma in enumerate(sigmas):
                lam = default_lambda(sigma, delta, len(window))
                totals[li] += sparsity_bound(beta, support, lam)
        for li, level in enumerate(noise.levels):
            ref = totals[li] / (len(theta) - 1)
            got = profile.value(family, level)
            if not abs(got - ref) <= TOL * max(1.0, abs(ref)):
                bad.append(f"bound {family}@{level}: {got!r} != scalar {ref!r}")
    return bad


def check_selection(losses: dict, sweeps: dict, h: int, result) -> list[str]:
    """One ``select`` over the first h periods against per-model prefix sweeps.

    ``sweeps[m][h - 1]`` is the oracle's denoised latest loss of model m.
    The chosen model must attain the oracle minimum (ties within TOL count
    as attaining it, so a last-bit difference cannot flip the verdict).
    """
    bad = []
    for mid, sweep in sweeps.items():
        got = result.scores[mid]["denoised"]
        if not _close(got, float(sweep[h - 1])):
            bad.append(f"h={h} {mid}: {got!r} != sweep {float(sweep[h - 1])!r}")
        if result.scores[mid]["raw"] != float(losses[mid][h - 1]):
            bad.append(f"h={h} {mid}: raw loss is not the latest observation")
    best = min(float(s[h - 1]) for s in sweeps.values())
    if float(sweeps[result.chosen][h - 1]) > best + TOL:
        bad.append(f"h={h}: chose {result.chosen} above the oracle minimum {best!r}")
    return bad
