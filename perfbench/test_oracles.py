"""The benchmark's oracle checks must trip on a perturbed output.

    PYTHONPATH=src python3 -m pytest perfbench/test_oracles.py -q
"""

import dataclasses

import numpy as np
import pytest

import driftwave as dw
import oracles
import run
import workloads

DELTA = workloads.DELTA


@pytest.fixture(scope="module")
def series():
    rng = np.random.default_rng(5)
    t = np.arange(300) / 300
    return np.sin(6 * np.pi * t) + rng.normal(0.0, 0.3, 300)


PREFIXES = [1, 2, 3, 64, 65, 200, 300]


def bumped(est, t, by=1e-8):
    out = np.array(est)
    out[t - 1] += by
    return out


@pytest.mark.parametrize("sigma", [0.3, "mad"])
def test_wavelet_check_trips_on_perturbed_estimate(series, sigma):
    est = dw.WaveletMethod("db8", "known" if sigma != "mad" else "mad").prefix_estimates(series, 0.3, DELTA)
    assert oracles.check_wavelet(series, est, "db8", sigma, DELTA, PREFIXES) == []
    assert len(oracles.check_wavelet(series, bumped(est, 65), "db8", sigma, DELTA, PREFIXES)) == 1


def test_adaptive_check_trips_on_perturbed_value_and_other_window(series):
    est = dw.AdaptiveWindowMethod().prefix_estimates(series, 0.3, DELTA)
    assert oracles.check_adaptive(series, est, 0.3, DELTA, PREFIXES) == []
    assert len(oracles.check_adaptive(series, bumped(est, 200), 0.3, DELTA, PREFIXES)) == 1
    t = 200
    r = dw.adaptive_window_mean(series[:t], 0.3, DELTA).window
    other = np.array(est)
    other[t - 1] = np.mean(series[t - 2 * r : t])  # the next doubling window's mean
    assert len(oracles.check_adaptive(series, other, 0.3, DELTA, [t])) == 1


def test_fixed_check_trips_on_perturbed_value(series):
    est = dw.FixedWindowMethod(16).prefix_estimates(series, 0.3, DELTA)
    assert oracles.check_fixed(series, est, 16, PREFIXES) == []
    assert len(oracles.check_fixed(series, bumped(est, 3), 16, PREFIXES)) == 1


def test_bound_profile_check_trips_on_perturbed_value():
    noise = dw.NoiseSpec("uniform", (0.2, 1.0))
    theta = dw.generate_signal(dw.SignalSpec("doppler", 100), 0)
    profile = dw.bound_profile(theta, noise, ("haar", "db8"), delta=DELTA)
    assert oracles.check_bound_profile(theta, noise, ("haar", "db8"), DELTA, profile) == []
    values = profile.values.copy()
    values[1, 0] *= 1 + 1e-8
    bad = dataclasses.replace(profile, values=values)
    assert len(oracles.check_bound_profile(theta, noise, ("haar", "db8"), DELTA, bad)) == 1


def test_selection_check_trips_on_perturbed_score_and_wrong_choice():
    wl = workloads.SelectStream(0)
    h = 1100
    sweeps = {
        mid: dw.WaveletMethod("db8", "mad").prefix_estimates(losses[:h], 0.0, DELTA)
        for mid, losses in wl.losses.items()
    }
    result = dw.select(wl.panel(h), wl.cfg)
    assert oracles.check_selection(wl.losses, sweeps, h, result) == []

    scores = {mid: dict(s) for mid, s in result.scores.items()}
    scores[result.chosen]["denoised"] += 1e-8
    perturbed = dataclasses.replace(result, scores=scores)
    assert len(oracles.check_selection(wl.losses, sweeps, h, perturbed)) == 1

    loser = max(result.scores, key=lambda mid: result.scores[mid]["denoised"])
    wrong = dataclasses.replace(result, chosen=loser)
    assert len(oracles.check_selection(wl.losses, sweeps, h, wrong)) == 1


def test_check_calls_counts_a_raising_oracle_as_failed(series):
    method = dw.WaveletMethod("haar")
    est = method.prefix_estimates(series, 0.3, DELTA)
    calls = [(method, series, 0.3, DELTA, est), (method, series[:0], 0.3, DELTA, est[:0])]
    attempted, failures = workloads.check_calls(calls, np.random.default_rng(0))
    assert attempted == 2 and len(failures) == 1


def test_reference_compare_uses_tolerance():
    ref = {"mse": [["db8", 0.2, 0.05]], "chosen_runs": [[1024, "m1"]]}
    assert run.compare(ref, {"mse": [["db8", 0.2, 0.05 * (1 + 1e-12)]], "chosen_runs": [[1024, "m1"]]}) == []
    assert len(run.compare(ref, {"mse": [["db8", 0.2, 0.05 * (1 + 1e-6)]], "chosen_runs": [[1024, "m1"]]})) == 1
    assert len(run.compare(ref, {"mse": [["db8", 0.2, 0.05]], "chosen_runs": [[1024, "m2"]]})) == 1
