"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Criteria are asserted at
their stated tolerances; wall-clock budgets are enforced where stated.
"""

import math
import time

import numpy as np
import pytest

from driftwave.baselines import adaptive_window_mean
from driftwave.bench import (
    AdaptiveWindowMethod,
    FixedWindowMethod,
    NoiseSpec,
    SignalSpec,
    WaveletMethod,
    bound_profile,
    generate_signal,
    run_online_eval,
)
from driftwave.denoise import (
    DenoiseConfig,
    default_lambda,
    estimate_latest,
    haar_variational_bound,
    kappa,
    sparsity_bound,
    reflect_fold,
    soft_threshold,
    tv_variational_bound,
)
from driftwave.selection import LossSeries, select
from driftwave.tvstudy import TVStudySpec, run_tv_study
from driftwave.wavelets import cached_matrix, forward, get_family, last_column_support

BASE_SEED = 20250808


def report(name: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)


def test_transform_correctness():
    t0 = time.perf_counter()
    failures = []
    rng = np.random.default_rng(BASE_SEED)
    for name in ("haar", "db2", "db4", "db8"):
        for n in (8, 64, 256, 1024):
            W = cached_matrix(name, n)
            ortho = np.abs(W.rows @ W.rows.T - np.eye(n)).max()
            if ortho > 1e-9:
                failures.append(f"{name}@{n}: ortho {ortho:.2e}")
            Y = rng.normal(size=(n, 100))
            rt = np.abs(W.rows.T @ (W.rows @ Y) - Y).max()
            if rt > 1e-9:
                failures.append(f"{name}@{n}: roundtrip {rt:.2e}")
    s8, s4, s2 = 1 / math.sqrt(8), 0.5, 1 / math.sqrt(2)
    haar8 = np.array(
        [
            [s8] * 8,
            [s8] * 4 + [-s8] * 4,
            [s4, s4, -s4, -s4, 0, 0, 0, 0],
            [0, 0, 0, 0, s4, s4, -s4, -s4],
            [s2, -s2, 0, 0, 0, 0, 0, 0],
            [0, 0, s2, -s2, 0, 0, 0, 0],
            [0, 0, 0, 0, s2, -s2, 0, 0],
            [0, 0, 0, 0, 0, 0, s2, -s2],
        ]
    )
    entry_err = np.abs(cached_matrix("haar", 8).rows - haar8).max()
    if entry_err > 1e-12:
        failures.append(f"haar@8 reference mismatch {entry_err:.2e}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.1f}s >= 10s")
    ok = not failures
    report("transform-correctness", ok, f"{elapsed:.1f}s" + ("" if ok else "; " + "; ".join(failures)))
    assert ok, failures


def test_threshold_math():
    lam_err = abs(default_lambda(1.0, 0.1, 256) - 5.667813486057717)
    rng = np.random.default_rng(BASE_SEED + 1)
    x, y = rng.normal(0, 5, 10_000), rng.normal(0, 5, 10_000)
    ok = lam_err < 1e-12
    for lam in (0.0, 0.5, 2.0):
        tx, ty = soft_threshold(x, lam), soft_threshold(y, lam)
        ok &= bool(np.all(np.abs(tx - ty) <= np.abs(x - y) + 1e-12))
        ok &= bool(np.all(np.abs(tx) <= np.abs(x) + 1e-12))
        ok &= bool(np.all(np.abs(x - tx) <= lam + 1e-12))
    report("threshold-math", ok, f"lambda error {lam_err:.1e}, 1e4-point grid")
    assert ok


@pytest.fixture(scope="module")
def doppler_report():
    methods = [
        WaveletMethod("db8"),
        WaveletMethod("haar"),
        AdaptiveWindowMethod("known"),
        FixedWindowMethod(16),
    ]
    t0 = time.perf_counter()
    rep = run_online_eval(
        SignalSpec("doppler", 500),
        NoiseSpec("uniform", (0.2, 0.3, 0.5, 0.7, 1.0)),
        methods,
        trials=5,
        base_seed=BASE_SEED,
        delta=0.1,
    )
    return rep, time.perf_counter() - t0


def test_doppler_mse_table(doppler_report):
    rep, elapsed = doppler_report
    failures = []
    db8_low, _ = rep.mse("db8", 0.2)
    if not (0.004 <= db8_low <= 0.014):
        failures.append(f"db8@0.2 = {db8_low:.4f} outside [0.004, 0.014]")
    for level in (0.2, 0.3, 0.5):
        db8, _ = rep.mse("db8", level)
        haar, _ = rep.mse("haar", level)
        if not db8 < haar:
            failures.append(f"db8 !< haar at B={level}")
        for avg_name in ("avg", "window16"):
            avg, _ = rep.mse(avg_name, level)
            if not haar < avg:
                failures.append(f"haar !< {avg_name} at B={level} ({haar:.3f} vs {avg:.3f})")
    for level in (0.2, 0.3, 0.5, 0.7, 1.0):
        haar, _ = rep.mse("haar", level)
        for avg_name in ("avg", "window16"):
            avg, _ = rep.mse(avg_name, level)
            if not haar < avg:
                failures.append(f"haar !< {avg_name} at B={level} ({haar:.3f} vs {avg:.3f})")
    if elapsed >= 120:
        failures.append(f"runtime {elapsed:.0f}s >= 120s")
    ok = not failures
    report(
        "doppler-mse-table",
        ok,
        f"db8@0.2={db8_low:.4f}, {elapsed:.0f}s" + ("" if ok else "; " + "; ".join(sorted(set(failures)))),
    )
    assert ok, failures


def test_coin_mse_ranges():
    t0 = time.perf_counter()
    methods = [
        WaveletMethod("db8"),
        WaveletMethod("haar"),
        AdaptiveWindowMethod("known"),
        FixedWindowMethod(16),
    ]
    rep = run_online_eval(
        SignalSpec("random_coin", 500),
        NoiseSpec("uniform", (0.2, 0.3, 0.5, 0.7, 1.0)),
        methods,
        trials=5,
        base_seed=BASE_SEED + 2,
        delta=0.1,
    )
    elapsed = time.perf_counter() - t0
    failures = []
    for name in rep.method_names:
        for level in rep.levels:
            mse, _ = rep.mse(name, level)
            if not (0.05 <= mse <= 0.35):
                failures.append(f"{name}@{level}: {mse:.3f} outside [0.05, 0.35]")
    for name in ("avg", "window16"):
        for level in rep.levels:
            mse, _ = rep.mse(name, level)
            if not (0.15 <= mse <= 0.30):
                failures.append(f"{name}@{level}: {mse:.3f} outside [0.15, 0.30]")
    if elapsed >= 120:
        failures.append(f"runtime {elapsed:.0f}s >= 120s")
    ok = not failures
    report("coin-mse-ranges", ok, f"{elapsed:.0f}s" + ("" if ok else "; " + "; ".join(failures)))
    assert ok, failures


def test_pointwise_bound_coverage():
    t0 = time.perf_counter()
    n, sigma, delta = 256, 0.3, 0.1
    theta = np.zeros(n)
    theta[:100], theta[100:180], theta[180:] = 0.8, -0.4, 0.5
    lam = default_lambda(sigma, delta, n)
    W = cached_matrix("haar", 2 * n)  # the estimator's folded arrangement
    bound = sparsity_bound(forward(W, reflect_fold(theta)), last_column_support(W), lam)
    cfg = DenoiseConfig(family="haar", sigma=sigma, delta=delta)
    hits = 0
    for trial in range(200):
        rng = np.random.default_rng(BASE_SEED + 10_000 + trial)
        y = theta + rng.normal(0.0, sigma, n)
        hits += abs(estimate_latest(y, cfg).value - theta[-1]) <= bound
    elapsed = time.perf_counter() - t0
    ok = hits >= 180 and elapsed < 30
    report("pointwise-bound-coverage", ok, f"{hits}/200 within bound {bound:.3f}, {elapsed:.1f}s")
    assert ok, (hits, elapsed)


def test_bound_dominance_and_variational_scan():
    failures = []
    for trial in range(100):
        rng = np.random.default_rng(BASE_SEED + 20_000 + trial)
        theta = generate_signal(
            SignalSpec("piecewise_constant", 64, tv_radius=float(rng.uniform(0.2, 2.0))),
            rng,
        )
        sigma = float(rng.uniform(0.0, 1.0))
        rev = theta[::-1]
        means = np.cumsum(rev) / np.arange(1, 65)
        tv = np.concatenate(([0.0], np.cumsum(np.abs(np.diff(rev)))))
        levels = int(np.log2(64))
        bias_max = np.maximum.accumulate([abs(means[(1 << p) - 1] - theta[-1]) for p in range(levels + 1)])
        tv_max = np.maximum.accumulate([tv[(1 << p) - 1] for p in range(levels + 1)])
        for r in range(1, 65):
            p = int(math.floor(math.log2(r)))
            u_r = max(bias_max[p], sigma / math.sqrt(r))
            ut_r = max(tv_max[p], sigma / math.sqrt(r))
            if u_r > ut_r + 1e-12:
                failures.append(f"trial {trial}: U({r}) > U~({r})")
        if haar_variational_bound(theta, sigma, 0.1)[0] > tv_variational_bound(theta, sigma, 0.1)[0] + 1e-12:
            failures.append(f"trial {trial}: returned minima violate dominance")

    n, sigma, delta = 256, 0.4, 0.1
    u, r_star, k, total = haar_variational_bound(np.full(n, 0.9), sigma, delta)
    exact = (
        u == sigma / np.sqrt(n)
        and r_star == n
        and k == kappa(n, delta)
        and total == k * (sigma / np.sqrt(n))
    )
    if not exact:
        failures.append(f"constant case returned ({u}, {r_star}, {k}, {total})")
    ok = not failures
    report("bound-dominance", ok, "U <= U~ on 100 signals; constant case exact" if ok else "; ".join(failures[:4]))
    assert ok, failures[:10]


def test_tv_risk_scaling():
    t0 = time.perf_counter()
    spec = TVStudySpec(
        tv_radius=1.0,
        sigma=1.0,
        n_grid=(256, 512, 1024, 2048),
        trials=10,
        estimator={"kind": "wavelet", "family": "haar"},
        delta=0.1,
    )
    fit = run_tv_study(spec, base_seed=BASE_SEED + 3)
    elapsed = time.perf_counter() - t0
    in_band = 0.20 <= fit.exponent_sq <= 0.55
    ok = in_band and elapsed < 300
    report(
        "tv-risk-scaling",
        ok,
        f"exponent {fit.exponent_sq:.3f} vs [0.20, 0.55], "
        f"mean risks {[round(float(m), 1) for m in fit.mean_sq]}, {elapsed:.0f}s",
    )
    assert ok, (fit.exponent_sq, elapsed)


def test_bound_profile_ordering():
    theta = generate_signal(SignalSpec("doppler", 500), 0)
    prof = bound_profile(theta, NoiseSpec("uniform", (0.2, 0.3, 0.5, 0.7, 1.0)), ("haar", "db8"), delta=0.1)
    pairs = {lv: (prof.value("haar", lv), prof.value("db8", lv)) for lv in prof.levels}
    failures = [f"B={lv}: db8 {d:.3f} !< haar {h:.3f}" for lv, (h, d) in pairs.items() if not d < h]
    ok = not failures
    report("bound-profile-ordering", ok, "db8 below haar at all levels" if ok else "; ".join(failures))
    assert ok, failures


def test_selection_switching_panel():
    n, switch, sigma = 64, 32, 0.2
    a_truth = np.concatenate([np.full(switch, 0.5), np.full(n - switch, 1.0)])
    b_truth = np.concatenate([np.full(switch, 1.0), np.full(n - switch, 0.5)])
    cfg = DenoiseConfig(family="haar", sigma=sigma, delta=0.1)
    denoised_hits = raw_hits = 0
    for trial in range(100):
        rng = np.random.default_rng(BASE_SEED + 30_000 + trial)
        panel = [
            LossSeries("A", a_truth + rng.normal(0, sigma, n)),
            LossSeries("B", b_truth + rng.normal(0, sigma, n)),
        ]
        denoised_hits += select(panel, cfg).chosen == "B"
        raw_hits += min(panel, key=lambda s: s.losses[-1]).model_id == "B"

    invariants_ok = True
    rng = np.random.default_rng(BASE_SEED + 4)
    data = {f"m{i}": rng.uniform(0.5, 2.0, 32) for i in range(3)}
    panel = [LossSeries(mid, vals) for mid, vals in data.items()]
    scaled = [LossSeries(mid, 2.0 * vals + 3.0) for mid, vals in data.items()]
    invariants_ok &= (
        select(panel, DenoiseConfig(sigma=0.2)).chosen
        == select(scaled, DenoiseConfig(sigma=0.4)).chosen
    )
    raw_best = min(panel, key=lambda s: (s.losses[-1], s.model_id)).model_id
    invariants_ok &= select(panel, DenoiseConfig(sigma=1.0, lambda_override=0.0)).chosen == raw_best
    dominated = panel + [LossSeries("zzz", np.max(np.vstack(list(data.values())), axis=0) + 1.0)]
    invariants_ok &= select(dominated, DenoiseConfig(sigma=0.2)).chosen == select(panel, DenoiseConfig(sigma=0.2)).chosen

    ok = denoised_hits >= 80 and denoised_hits >= raw_hits and invariants_ok
    report(
        "selection-switching",
        ok,
        f"denoised {denoised_hits}/100 vs raw {raw_hits}/100; invariants {'ok' if invariants_ok else 'VIOLATED'}",
    )
    assert ok, (denoised_hits, raw_hits, invariants_ok)


def test_determinism_across_runs():
    spec = SignalSpec("random_coin", 120)
    noise = NoiseSpec("uniform", (0.2, 0.5))
    make = lambda: [WaveletMethod("haar"), WaveletMethod("db8"), FixedWindowMethod(8)]
    bench_outs = {
        run_online_eval(spec, noise, make(), trials=3, base_seed=BASE_SEED + 5).to_csv()
        for _ in range(2)
    }
    bench_ok = len(bench_outs) == 1

    tv_spec = TVStudySpec(
        tv_radius=1.0, sigma=0.5, n_grid=(64, 128), trials=3,
        estimator={"kind": "wavelet", "family": "haar"},
    )
    tv_outs = {run_tv_study(tv_spec, base_seed=BASE_SEED + 6).to_csv() for _ in range(2)}
    tv_ok = len(tv_outs) == 1
    ok = bench_ok and tv_ok
    report("determinism", ok, f"bench identical: {bench_ok}, tvscale identical: {tv_ok}")
    assert ok
