"""Child process of the benchmark; ``run.py`` starts one per measurement so
that every workload, set-up and horizon probe runs in a fresh interpreter.

Modes (the last stdout line is a JSON object):
    prime                      import everything once so bytecode is cached
    setup  WORKLOAD SEED       time ``import driftwave`` plus one cold unit
    run    WORKLOAD SEED SECONDS TRACE
                               warm-up pass (recorded and oracle-checked),
                               then timed passes until SECONDS have passed
    probe  T SEED              cold and warm db8/MAD prefix sweep at horizon T

Needs ``src`` on PYTHONPATH; ``run.py`` sets it.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import tempfile
import time
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
CLI_OPS = 2  # cli and library calls, alternated, for the cli overhead


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def blas_threads() -> int | str:
    """Thread count reported by the OpenBLAS bundled with numpy, if any."""
    import ctypes

    import numpy as np

    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        lib = ctypes.CDLL(str(path))  # already loaded by numpy: same handle
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return "unknown"


def environment() -> dict:
    import importlib.util
    import platform

    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    try:
        threads = blas_threads()
    except OSError:
        threads = "unknown"
    numba = importlib.util.find_spec("numba") is not None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": threads,
        "harness_threads": 1,
        "numba": "present, but its lane is not measured" if numba else "absent, so the numba lane is unmeasured",
        "cache_dropping": "none",
        "cpu_pinning": "none",
    }


def setup(name: str, seed: int) -> dict:
    t0 = time.perf_counter()
    import driftwave  # noqa: F401  (the import is what is being timed)

    t_import = time.perf_counter() - t0
    from workloads import WORKLOADS

    wl = WORKLOADS[name](seed)  # inputs only; not the program's set-up
    t1 = time.perf_counter()
    wl.cold_unit()
    return {"setup_s": t_import + time.perf_counter() - t1}


def _pct(a: float, b: float) -> float:
    return (a / b - 1.0) * 100.0


def run_passes(wl, seconds: float, trace: bool, rng):
    """paper-tables and tvscale: checked warm-up pass, then timed passes."""
    from workloads import Recorder, Tracer, digest

    recorder = Recorder()
    checked = wl.run(on_call=recorder.method_call)
    text = wl.text(checked)
    plain, traced, tracers, differing = [], [], [], 0
    deadline = time.perf_counter() + seconds
    need = wl.min_passes
    i = 0
    while time.perf_counter() < deadline or len(plain) < need or (trace and len(traced) < need):
        tracer = Tracer() if trace and i % 2 else None
        t0 = time.perf_counter()
        out = wl.run(on_call=tracer and tracer.method_call, tracer=tracer)
        dt = time.perf_counter() - t0
        if tracer is None:
            plain.append(dt)
        else:
            traced.append(dt)
            tracers.append(tracer)
        differing += wl.text(out) != text
        i += 1
    rss = peak_rss_mb()

    def check():
        attempted, failures = wl.check(recorder, checked, rng)
        return attempted + i, failures + ["a timed pass's output differs from the checked pass"] * differing

    summary = {"passes": len(plain), "digest": digest(text)}
    metrics = {"wall_s": (median(plain), "s"), "peak_rss_mb": (rss, "MB")}
    if trace:
        layer = lambda key: median(t.seconds[key] for t in tracers)
        count = lambda key: median(t.counts[key] for t in tracers)
        metrics = {
            "kernels.prefix_s": (layer("kernels.prefix"), "s"),
            "kernels.calls": (count("kernels.prefix"), "count"),
            "kernels.prefixes": (count("kernels.prefixes"), "count"),
            **{f"kernels.prefix_n{n}_s": (layer(f"kernels.prefix_n{n}"), "s") for n in (256, 512, 1024, 2048)},
            "baselines.adaptive_s": (layer("baselines.adaptive"), "s"),
            "baselines.fixed_s": (layer("baselines.fixed"), "s"),
            "baselines.calls": (count("baselines.adaptive") + count("baselines.fixed"), "count"),
            "bench.harness_self_s": (layer("bench.harness_self"), "s"),
            "bench.bound_profile_s": (layer("bench.bound_profile"), "s"),
            "tvstudy.self_s": (layer("tvstudy.self"), "s"),
            "trace_overhead_pct": (_pct(median(traced), median(plain)), "%"),
        }
    return metrics, check, summary, checked


def run_stream(wl, seconds: float, trace: bool):
    """select-stream: 1024-select streams until SECONDS have passed."""
    from workloads import digest

    wl.cold_unit()  # warm-up: builds the transform the stream uses
    streams, tracers = [], []
    traced = (lambda h: h % 2 == 1) if trace else (lambda h: False)
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(streams) < (2 if trace else 1):
        streams.append(wl.run(traced, tracers))
    rss = peak_rss_mb()
    plain = [dt for s in streams for (_, _, dt, tr) in s if not tr]

    def check():
        attempted, failures = wl.check(streams)
        if len({wl.text(s) for s in streams}) > 1:
            failures.append("the chosen-id sequence differs between streams")
        return attempted, failures

    cuts = quantiles(plain, n=100)
    p50, p99 = cuts[49] * 1e3, cuts[98] * 1e3
    summary = {
        "streams": len(streams), "selects": len(plain), "digest": digest(wl.text(streams[0])),
        "select_p50_ms": p50, "select_p99_ms": p99,
    }
    if not trace:
        wall = median(sum(dt for (_, _, dt, _) in s) for s in streams)
        metrics = {"wall_s": (wall, "s"), "peak_rss_mb": (rss, "MB")}
    else:
        ms = lambda key: median(t.seconds[key] for t in tracers) * 1e3
        traced_lat = [dt for s in streams for (_, _, dt, tr) in s if tr]
        metrics = {
            "denoise.estimate_latest_ms": (ms("denoise.estimate_latest"), "ms"),
            "denoise.mad_ms": (wl.mad_cost_ms(), "ms"),
            "selection.self_ms": (ms("selection.self"), "ms"),
            "selection.select_p50_ms": (p50, "ms"),
            "selection.select_p99_ms": (p99, "ms"),
            "trace_overhead_pct": (_pct(median(traced_lat), median(plain)), "%"),
        }
    return metrics, check, summary, streams[0]


def cli_overhead(wl) -> tuple[float, bool]:
    """``driftwave bench`` in-process on the Doppler table, minus the library call."""
    import driftwave as dw
    from driftwave import cli

    spec = {
        "signal": {"kind": "doppler", "n_points": wl.signals[0].n_points},
        "noise": {"kind": "uniform", "levels": list(wl.noise.levels)},
        "methods": [
            {"kind": "wavelet", "family": "db8", "sigma": "known"},
            {"kind": "wavelet", "family": "haar", "sigma": "known"},
            {"kind": "adaptive_window", "sigma": "known"},
            {"kind": "fixed_window", "window": 16},
        ],
        "trials": 5,
        "delta": 0.1,
    }
    with tempfile.TemporaryDirectory(prefix="tmp-", dir=HERE) as tmp:
        spec_path, out_path = Path(tmp) / "bench.json", Path(tmp) / "table.csv"
        spec_path.write_text(json.dumps(spec))
        argv = ["bench", str(spec_path), "--seed", str(wl.seed), "--out", str(out_path)]
        t_cli, t_lib = [], []
        for _ in range(CLI_OPS):
            t0 = time.perf_counter()
            code = cli.main(argv)
            t_cli.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            methods = [dw.make_method(m) for m in spec["methods"]]
            report = dw.run_online_eval(wl.signals[0], wl.noise, methods, spec["trials"], wl.seed, delta=spec["delta"])
            t_lib.append(time.perf_counter() - t0)
        same = code == 0 and out_path.read_bytes() == report.to_csv().encode()
    return min(t_cli) - min(t_lib), same


ALL_LAYERS = {
    # per-layer metrics a workload does not exercise are reported as 0
    "kernels.prefix_s": "s", "kernels.calls": "count", "kernels.prefixes": "count",
    "kernels.prefix_n256_s": "s", "kernels.prefix_n512_s": "s",
    "kernels.prefix_n1024_s": "s", "kernels.prefix_n2048_s": "s",
    "baselines.adaptive_s": "s", "baselines.fixed_s": "s", "baselines.calls": "count",
    "bench.harness_self_s": "s", "bench.bound_profile_s": "s",
    "tvstudy.self_s": "s",
    "wavelets.build_s": "s", "wavelets.matrix_mb": "MB",
    "denoise.estimate_latest_ms": "ms", "denoise.mad_ms": "ms",
    "selection.self_ms": "ms", "selection.select_p50_ms": "ms", "selection.select_p99_ms": "ms",
    "cli.bench_overhead_s": "s",
    "trace_overhead_pct": "%",
}


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import numpy as np

    from workloads import WORKLOADS, cold_build_seconds, transform_census

    wl = WORKLOADS[name](seed)
    rng = np.random.default_rng([seed, 11])
    if name == "select-stream":
        metrics, check, summary, checked = run_stream(wl, seconds, trace)
    else:
        metrics, check, summary, checked = run_passes(wl, seconds, trace, rng)
    if trace:  # before the oracles, which may build transforms of their own
        census = transform_census()
        metrics["wavelets.matrix_mb"] = (sum(b for _, _, b in census) / 2**20, "MB")
        metrics["wavelets.build_s"] = (cold_build_seconds(census), "s")
    attempted, failures = check()
    if trace:
        if name == "paper-tables":
            overhead, same = cli_overhead(wl)
            metrics["cli.bench_overhead_s"] = (overhead, "s")
            attempted += 1
            if not same:
                failures.append("cli bench output differs from RiskReport.to_csv()")
        metrics = {k: metrics.get(k, (0.0, unit)) for k, unit in ALL_LAYERS.items()}
    return {
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:5],
        "summary": summary,
        "values": WORKLOADS[name].values(checked),
        "env": environment(),
    }


def probe(T: int, seed: int) -> dict:
    """db8 with MAD sigma over every prefix of a length-T series, cold then warm."""
    import numpy as np

    import driftwave as dw
    import oracles
    from workloads import DELTA

    rng = np.random.default_rng([seed, T])
    t = np.arange(T) / T
    y = np.sin(6.0 * np.pi * t) + rng.normal(0.0, 0.3, T)
    method = dw.WaveletMethod("db8", "mad")
    t0 = time.perf_counter()
    cold = method.prefix_estimates(y, 0.0, DELTA)
    t1 = time.perf_counter()
    warm = method.prefix_estimates(y, 0.0, DELTA)
    t2 = time.perf_counter()
    rss = peak_rss_mb()
    bad = oracles.check_wavelet(y, warm, "db8", "mad", DELTA, oracles.sample_prefixes(T, rng))
    if not np.array_equal(cold, warm):
        bad.append("cold and warm sweeps differ")
    return {"build_s": (t1 - t0) - (t2 - t1), "sweep_s": t2 - t1, "peak_rss_mb": rss, "failures": bad[:5]}


def main(argv: list[str]) -> int:
    mode, *rest = argv
    if mode == "prime":
        import driftwave  # noqa: F401
        import workloads  # noqa: F401

        result = {}
    elif mode == "setup":
        result = setup(rest[0], int(rest[1]))
    elif mode == "run":
        result = run(rest[0], int(rest[1]), float(rest[2]), rest[3] == "1")
    elif mode == "probe":
        result = probe(int(rest[0]), int(rest[1]))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
