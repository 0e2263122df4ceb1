#!/usr/bin/env python3
"""The driftwave benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload paper-tables --seed 1 --seconds 25 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):
    paper-tables   Doppler and fair-coin MSE tables (T=500, 5 levels x 5 trials;
                   db8, haar, avg, window16) plus the Doppler bound profile
    tvscale        run_tv_study grid 256..2048 x 10 trials, haar, sigma=1
    select-stream  one caller, a select after each new period of an 8-model
                   loss panel (db8, MAD sigma), history 1024 -> 2047

With ``--trace 0`` the last stdout line holds the end-to-end metrics:
``setup_s`` (median over fresh interpreters of ``import driftwave`` plus
one cold unit), ``wall_s`` (median warm pass) and ``peak_rss_mb`` (the
workload process's own peak).  With ``--trace 1`` it holds the per-layer
metrics, timed around the calls into each module from this directory, plus
a horizon probe (db8, MAD sigma, T = 2^9 .. 2^13, one fresh process each,
refusing horizons whose dense transform exceeds DENSE_CAP_MB).

Every output is checked against the package's scalar oracles outside the
timed region; ``failed`` counts the operations whose check failed or
raised.  ``python3 perfbench/run.py --write-reference`` records the values
and digests at REFERENCE_SEED in perfbench/reference.json; runs at that seed
compare against it within the file's tolerances.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src" / "driftwave" / "__init__.py"
WORKER = HERE / "worker.py"
REFERENCE = HERE / "reference.json"
REFERENCE_SEED = 0
REL_TOL, ABS_TOL = 1e-9, 1e-12
WORKLOADS = ("paper-tables", "tvscale", "select-stream")
SETUP_REPEATS = (3, 7)  # fresh-interpreter set-ups per run: at least, at most
SETUP_BUDGET_S = 12.0  # no further set-up once this much has been spent
# OpenBLAS threads per workload; the others keep OpenBLAS's default (one per
# core).  paper-tables only makes small BLAS calls (transforms <= 512 wide)
# between Python steps: a second thread does not speed it up, but spins on a
# core of its own between calls and so doubles the CPU the run needs.
BLAS_THREADS = {"paper-tables": 1}
HORIZONS = (512, 1024, 2048, 4096, 8192)
DENSE_CAP_MB = 512  # largest dense transform a horizon probe may build
TIME_LIMIT_S = 170.0


class BenchError(Exception):
    pass


class Children:
    """Starts worker processes with ``src`` importable, within one time budget."""

    def __init__(self, limit_s: float):
        self.deadline = time.monotonic() + limit_s
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), self.env.get("PYTHONPATH")) if p
        )

    def __call__(self, *args, workload: str | None = None) -> dict:
        env = self.env
        if workload in BLAS_THREADS:
            env = {**env, "OPENBLAS_NUM_THREADS": str(BLAS_THREADS[workload])}
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError(f"time budget spent before worker {args}")
        try:
            done = subprocess.run(
                [sys.executable, str(WORKER), *map(str, args)], cwd=ROOT, env=env,
                capture_output=True, text=True, timeout=left,
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker {args} did not finish within the time budget") from None
        if done.returncode != 0:
            raise BenchError(f"worker {args} exited {done.returncode}:\n{done.stderr[-2000:]}")
        return json.loads(done.stdout.strip().splitlines()[-1])


def dense_mb(T: int) -> float:
    """Size of the largest dense transform a reflect-folded sweep of T builds."""
    n = 2 << (T.bit_length() - 1)
    return n * n * 8 / 2**20


def horizon_probe(child, seed: int) -> tuple[dict, int, list[str], list[str]]:
    metrics, failures, lines, attempted = {}, [], [], 0
    max_T = 0
    for T in HORIZONS:
        if dense_mb(T) > DENSE_CAP_MB:
            lines.append(f"  horizon T={T}: not run (dense transform {dense_mb(T):.0f} MB > cap {DENSE_CAP_MB} MB)")
            continue
        out = child("probe", T, seed)
        attempted += 1
        failures += out["failures"][:1]
        max_T = T
        for key, unit in (("build_s", "s"), ("sweep_s", "s"), ("peak_rss_mb", "MB")):
            metrics[f"horizon.T{T}.{key}"] = {"value": out[key], "unit": unit}
        lines.append(f"  horizon T={T}: build {out['build_s']:.3f} s, sweep {out['sweep_s']:.3f} s, "
                     f"peak RSS {out['peak_rss_mb']:.0f} MB")
    metrics["horizon.max_T"] = {"value": max_T, "unit": "count"}
    return metrics, attempted, failures, lines


def compare(ref, got, path: str = "") -> list[str]:
    """Differences between reference values and new ones, floats within tolerance."""
    if isinstance(ref, dict) and isinstance(got, dict):
        if ref.keys() != got.keys():
            return [f"{path}: keys differ"]
        return [d for k in ref for d in compare(ref[k], got[k], f"{path}/{k}")]
    if isinstance(ref, list) and isinstance(got, list):
        if len(ref) != len(got):
            return [f"{path}: length {len(got)} != {len(ref)}"]
        return [d for i, (a, b) in enumerate(zip(ref, got)) for d in compare(a, b, f"{path}[{i}]")]
    if isinstance(ref, float) or isinstance(got, float):
        if math.isnan(ref) and math.isnan(got):
            return []
        if math.isclose(got, ref, rel_tol=REL_TOL, abs_tol=ABS_TOL):
            return []
    elif ref == got:
        return []
    return [f"{path}: {got!r} != reference {ref!r}"]


def write_reference(child) -> None:
    data = {"seed": REFERENCE_SEED, "rel_tol": REL_TOL, "abs_tol": ABS_TOL, "workloads": {}}
    for name in WORKLOADS:
        out = child("run", name, REFERENCE_SEED, 1, 0, workload=name)
        if out["failed"]:
            raise BenchError(f"{name}: oracle checks failed: {out['failures']}")
        data["workloads"][name] = {"digest": out["summary"]["digest"], "values": out["values"]}
    REFERENCE.write_text(json.dumps(data, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help=f"record values and digests at seed {REFERENCE_SEED} in {REFERENCE.name}")
    args = parser.parse_args(argv)
    if not SOURCE.is_file():
        print(f"perfbench: program source {SOURCE.relative_to(ROOT)} not found; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    if not args.write_reference and args.workload is None:
        parser.error("--workload is required")

    child = Children(TIME_LIMIT_S)
    try:
        child("prime")  # compile bytecode once, so no set-up below pays for it
        if args.write_reference:
            write_reference(child)
            return 0
        result, lines = measure(child, args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


def measure(child, args) -> tuple[dict, list[str]]:
    name, trace = args.workload, bool(args.trace)
    setups, started = [], time.monotonic()
    while not trace and len(setups) < SETUP_REPEATS[1] and (
        len(setups) < SETUP_REPEATS[0] or time.monotonic() - started < SETUP_BUDGET_S
    ):
        setups.append(child("setup", name, args.seed, workload=name)["setup_s"])
    out = child("run", name, args.seed, args.seconds, int(trace), workload=name)
    metrics, attempted, failures = out["metrics"], out["attempted"], list(out["failures"])
    summary = out["summary"]
    lines = [f"workload {name}  seed {args.seed}  seconds {args.seconds}  trace {int(trace)}  "
             f"set-ups {len(setups)}  timed " + (f"passes {summary['passes']}" if "passes" in summary
                                                else f"streams {summary['streams']}")]
    if setups:
        metrics = {"setup_s": {"value": median(setups), "unit": "s"}, **metrics}
    if trace:
        probe_metrics, probe_attempted, probe_failures, probe_lines = horizon_probe(child, args.seed)
        metrics.update(probe_metrics)
        attempted += probe_attempted
        failures += probe_failures
        lines += probe_lines
    if args.seed == REFERENCE_SEED and REFERENCE.is_file():
        ref = json.loads(REFERENCE.read_text())["workloads"][name]
        attempted += 1
        diffs = compare(ref["values"], out["values"])
        failures += diffs[:1]
        same = "same bytes as" if ref["digest"] == summary["digest"] else "bytes differ from"
        lines.append(f"  reference: values {'match' if not diffs else 'DIFFER'}; output {same} the reference")
    failed = out["failed"] + len(failures) - len(out["failures"])
    for key, m in metrics.items():
        lines.append(f"  {key:<28} {m['value']:.6g} {m['unit']}")
    if "select_p50_ms" in summary:
        lines.append(f"  {'select_p50_ms':<28} {summary['select_p50_ms']:.6g} ms "
                     f"({summary['selects']} untraced selects)")
        lines.append(f"  {'select_p99_ms':<28} {summary['select_p99_ms']:.6g} ms")
    lines.append(f"  {'fail_ratio':<28} {failed / attempted:.6g} ({failed}/{attempted} operations)")
    lines += [f"  failure: {f}" for f in failures[:5]]
    lines.append("  env " + json.dumps(out["env"]))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, lines


if __name__ == "__main__":
    sys.exit(main())
