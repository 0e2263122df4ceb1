"""The benchmark's workloads: inputs made from a seed, one cold unit for the
set-up measurement, timed passes (plain or traced), and oracle checks.

Tracing happens only here, around the calls into each layer: methods are
wrapped in :class:`Watched` and handed to the harnesses through the bench
method protocol (``name`` + ``prefix_estimates``), and library calls made
directly are timed where they are made.  Nothing under ``src/`` is changed.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import time
from collections import defaultdict
from contextlib import contextmanager
from statistics import median

import numpy as np

import driftwave as dw
from driftwave import selection, tvstudy
from driftwave.wavelets import TransformMatrix, build_matrix, get_family

import oracles

LEVELS = (0.2, 0.3, 0.5, 0.7, 1.0)
DELTA = 0.1
PAPER_T = 500
PAPER_TRIALS = 5
TV_GRID = (256, 512, 1024, 2048)
TV_TRIALS = 10
SELECT_MODELS = 8
SELECT_FIRST, SELECT_LAST = 1024, 2047  # history lengths of the select stream


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Tracer:
    """Seconds and counts per layer key, for one pass."""

    def __init__(self):
        self.seconds = defaultdict(float)
        self.counts = defaultdict(int)

    def add(self, key: str, seconds: float, count: int = 1):
        self.seconds[key] += seconds
        self.counts[key] += count

    def method_call(self, inner, y, known_sigma, delta, est, seconds):
        if isinstance(inner, dw.WaveletMethod):
            self.add("kernels.prefix", seconds)
            self.add("kernels.prefixes", 0.0, len(y))
            if len(y) in TV_GRID:
                self.add(f"kernels.prefix_n{len(y)}", seconds)
        elif isinstance(inner, dw.AdaptiveWindowMethod):
            self.add("baselines.adaptive", seconds)
        elif isinstance(inner, dw.FixedWindowMethod):
            self.add("baselines.fixed", seconds)
        self.add("methods", seconds)


class Recorder:
    """Keeps every method call's inputs and outputs for the oracle checks."""

    def __init__(self):
        self.calls = []

    def method_call(self, inner, y, known_sigma, delta, est, seconds):
        self.calls.append((inner, np.array(y), known_sigma, delta, np.array(est)))


class Watched:
    """Bench-protocol method reporting each call of ``inner`` to ``on_call``."""

    def __init__(self, inner, on_call):
        self.inner = inner
        self.name = inner.name
        self.on_call = on_call

    def prefix_estimates(self, y, known_sigma, delta):
        t0 = time.perf_counter()
        est = self.inner.prefix_estimates(y, known_sigma, delta)
        self.on_call(self.inner, y, known_sigma, delta, est, time.perf_counter() - t0)
        return est


def check_calls(calls, rng) -> tuple[int, list[str]]:
    """Each recorded method call is one operation, checked on sampled prefixes."""
    failures = []
    for inner, y, sigma, delta, est in calls:
        try:
            prefixes = oracles.sample_prefixes(len(y), rng)
            if isinstance(inner, dw.WaveletMethod):
                s = sigma if inner.sigma_mode == "known" else "mad"
                bad = oracles.check_wavelet(y, est, inner.family, s, delta, prefixes, inner.boundary)
            elif isinstance(inner, dw.AdaptiveWindowMethod):
                bad = oracles.check_adaptive(y, est, sigma, delta, prefixes)
            elif isinstance(inner, dw.FixedWindowMethod):
                bad = oracles.check_fixed(y, est, inner.window, prefixes)
            else:
                bad = [f"no oracle for method {inner.name}"]
        except Exception as exc:  # an oracle that raises counts as a failed operation
            bad = [f"{inner.name}: {type(exc).__name__}: {exc}"]
        failures += bad[:1]
    return len(calls), failures


def transform_census() -> list[tuple[str, int, int]]:
    """(family, n, bytes) of every live transform matrix, i.e. the cached ones."""
    seen = {}
    for obj in gc.get_objects():
        if isinstance(obj, TransformMatrix):
            seen[(obj.family.name, obj.n)] = obj.rows.nbytes
    return sorted((fam, n, nbytes) for (fam, n), nbytes in seen.items())


def cold_build_seconds(census) -> float:
    """Time to build every transform of the census from scratch."""
    total = 0.0
    for fam, n, _ in census:
        t0 = time.perf_counter()
        build_matrix(get_family(fam), n)
        total += time.perf_counter() - t0
    return total


class PaperTables:
    """Doppler and fair-coin MSE tables plus the Doppler bound profile."""

    name = "paper-tables"
    min_passes = 3

    def __init__(self, seed: int):
        self.seed = seed
        self.noise = dw.NoiseSpec("uniform", LEVELS)
        self.signals = (dw.SignalSpec("doppler", PAPER_T), dw.SignalSpec("random_coin", PAPER_T))
        self.theta = dw.generate_signal(self.signals[0], seed)  # doppler draws nothing
        self.families = ("haar", "db8")
        self.methods = [
            dw.WaveletMethod("db8"),
            dw.WaveletMethod("haar"),
            dw.AdaptiveWindowMethod(),
            dw.FixedWindowMethod(16),
        ]

    def cold_unit(self):
        one_level = dw.NoiseSpec("uniform", LEVELS[:1])
        dw.run_online_eval(self.signals[0], one_level, self.methods, 1, self.seed, delta=DELTA)

    def run(self, on_call=None, tracer=None):
        """One full pass; returns (reports, profile)."""
        methods = self.methods if on_call is None else [Watched(m, on_call) for m in self.methods]
        t0 = time.perf_counter()
        reports = [
            dw.run_online_eval(sig, self.noise, methods, PAPER_TRIALS, self.seed, delta=DELTA)
            for sig in self.signals
        ]
        t1 = time.perf_counter()
        profile = dw.bound_profile(self.theta, self.noise, self.families, delta=DELTA)
        t2 = time.perf_counter()
        if tracer is not None:
            tracer.add("bench.harness_self", (t1 - t0) - tracer.seconds["methods"])
            tracer.add("bench.bound_profile", t2 - t1)
        return reports, profile

    @staticmethod
    def text(out) -> str:
        reports, profile = out
        return "".join(r.to_csv() for r in reports) + profile.to_csv()

    def check(self, recorder, out, rng) -> tuple[int, list[str]]:
        attempted, failures = check_calls(recorder.calls, rng)
        try:
            bad = oracles.check_bound_profile(self.theta, self.noise, self.families, DELTA, out[1])
        except Exception as exc:
            bad = [f"bound profile: {type(exc).__name__}: {exc}"]
        return attempted + 1, failures + bad[:1]

    @staticmethod
    def values(out) -> dict:
        reports, profile = out
        return {
            "mse": {sig: [list(row) for row in r.rows()] for sig, r in zip(("doppler", "random_coin"), reports)},
            "bound_profile": profile.values.tolist(),
        }


class TVScale:
    """The acceptance grid of the TV risk-scaling study (Haar, known sigma)."""

    name = "tvscale"
    min_passes = 3

    def __init__(self, seed: int):
        self.seed = seed
        self.spec = dw.TVStudySpec(
            tv_radius=1.0, sigma=1.0, n_grid=TV_GRID, trials=TV_TRIALS,
            estimator={"kind": "wavelet", "family": "haar"}, delta=DELTA,
        )

    def cold_unit(self):
        dw.run_tv_study(dataclasses.replace(self.spec, trials=1), self.seed)

    def run(self, on_call=None, tracer=None):
        t0 = time.perf_counter()
        with watched_estimator(on_call):
            fit = dw.run_tv_study(self.spec, self.seed)
        if tracer is not None:
            tracer.add("tvstudy.self", (time.perf_counter() - t0) - tracer.seconds["methods"])
        return fit

    @staticmethod
    def text(fit) -> str:
        return fit.to_csv()

    def check(self, recorder, fit, rng) -> tuple[int, list[str]]:
        return check_calls(recorder.calls, rng)

    @staticmethod
    def values(fit) -> dict:
        return {
            "mean_sq": fit.mean_sq.tolist(),
            "mean_abs": fit.mean_abs.tolist(),
            "exponent_sq": fit.exponent_sq,
            "exponent_abs": fit.exponent_abs,
        }


@contextmanager
def watched_estimator(on_call):
    """Route ``run_tv_study``'s estimator through :class:`Watched`.

    The study builds its method from the spec with ``tvstudy.make_method``,
    the only place a method object can be handed in from outside.
    """
    if on_call is None:
        yield
        return
    original = tvstudy.make_method
    tvstudy.make_method = lambda spec: Watched(original(spec), on_call)
    try:
        yield
    finally:
        tvstudy.make_method = original


@contextmanager
def timed_estimates(tracer):
    """Time every ``estimate_latest`` call that ``select`` makes."""
    original = selection.estimate_latest

    def timed(y, cfg):
        t0 = time.perf_counter()
        est = original(y, cfg)
        tracer.add("denoise.estimate_latest", time.perf_counter() - t0)
        return est

    selection.estimate_latest = timed
    try:
        yield
    finally:
        selection.estimate_latest = original


class SelectStream:
    """Closed loop, one caller: a select after every new period of an
    8-model panel of drifting losses, history 1024 -> 2047."""

    name = "select-stream"
    min_passes = 1

    def __init__(self, seed: int):
        self.seed = seed
        rng = np.random.default_rng([seed, 3])
        t = np.arange(1, SELECT_LAST + 1) / SELECT_LAST
        self.losses = {}
        for k in range(SELECT_MODELS):
            floor = rng.uniform(0.2, 0.4)
            decay = rng.uniform(0.3, 1.0) * np.exp(-t / rng.uniform(0.1, 0.5))
            drift = rng.uniform(-0.15, 0.15) * t
            wave = 0.03 * np.sin(2.0 * np.pi * (rng.uniform(1.0, 4.0) * t + rng.uniform()))
            noise = rng.normal(0.0, rng.uniform(0.01, 0.05), SELECT_LAST)
            self.losses[f"m{k}"] = floor + decay + drift + wave + noise
        self.cfg = dw.DenoiseConfig(family="db8", sigma="mad", delta=DELTA)

    def panel(self, h: int) -> list:
        return [dw.LossSeries(mid, losses[:h]) for mid, losses in self.losses.items()]

    def cold_unit(self):
        dw.select(self.panel(SELECT_FIRST), self.cfg)

    def run(self, traced=lambda h: False, tracers=None):
        """One stream of selects; returns [(h, result, seconds, traced)]."""
        out = []
        for h in range(SELECT_FIRST, SELECT_LAST + 1):
            panel, is_traced = self.panel(h), traced(h)
            if is_traced:
                tracer = Tracer()
                with timed_estimates(tracer):
                    t0 = time.perf_counter()
                    result = dw.select(panel, self.cfg)
                    dt = time.perf_counter() - t0
                tracer.add("selection.self", dt - tracer.seconds["denoise.estimate_latest"])
                tracers.append(tracer)
            else:
                t0 = time.perf_counter()
                result = dw.select(panel, self.cfg)
                dt = time.perf_counter() - t0
            out.append((h, result, dt, is_traced))
        return out

    @staticmethod
    def text(stream) -> str:
        return "\n".join(result.chosen for _, result, _, _ in stream)

    def check(self, streams) -> tuple[int, list[str]]:
        sweep = dw.WaveletMethod("db8", "mad")
        sweeps = {mid: sweep.prefix_estimates(l, 0.0, DELTA) for mid, l in self.losses.items()}
        attempted, failures = 0, []
        for stream in streams:
            for h, result, _, _ in stream:
                attempted += 1
                try:
                    bad = oracles.check_selection(self.losses, sweeps, h, result)
                except Exception as exc:
                    bad = [f"h={h}: {type(exc).__name__}: {exc}"]
                failures += bad[:1]
        return attempted, failures

    @staticmethod
    def values(stream) -> dict:
        """Chosen ids as [first period, id] runs, and the smallest gap between
        the best and second-best denoised loss (how close a choice came to
        flipping)."""
        runs, margin = [], float("inf")
        for h, result, _, _ in stream:
            if not runs or runs[-1][1] != result.chosen:
                runs.append([h, result.chosen])
            best, second = sorted(s["denoised"] for s in result.scores.values())[:2]
            margin = min(margin, second - best)
        return {"chosen_runs": runs, "min_margin": margin}

    def mad_cost_ms(self, periods: int = 16, repeats: int = 3) -> float:
        """Per-select cost of MAD sigma: MAD estimates minus known-sigma
        estimates at the sigma MAD found, on the same windows (median ms)."""
        per_select = []
        for h in np.linspace(SELECT_FIRST, SELECT_LAST, periods).astype(int):
            diff = 0.0
            for losses in self.losses.values():
                y = losses[:h]
                sigma = dw.estimate_latest(y, self.cfg).sigma_used
                cfgs = (self.cfg, dataclasses.replace(self.cfg, sigma=sigma))
                best = [float("inf"), float("inf")]
                for _ in range(repeats):
                    for i, cfg in enumerate(cfgs):
                        t0 = time.perf_counter()
                        dw.estimate_latest(y, cfg)
                        best[i] = min(best[i], time.perf_counter() - t0)
                diff += best[0] - best[1]
            per_select.append(diff * 1e3)
        return median(per_select)


WORKLOADS = {w.name: w for w in (PaperTables, TVScale, SelectStream)}
