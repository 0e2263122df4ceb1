import argparse
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import driftwave
from driftwave import cli
from driftwave.bench import NoiseSpec, SignalSpec, bound_profile, generate_signal, make_method, run_online_eval
from driftwave.cli import build_parser
from driftwave.denoise import DenoiseConfig, estimate_latest
from driftwave.tvstudy import TVStudySpec, run_tv_study

# the child interpreter imports the same package as this one, installed or not
PACKAGE_ROOT = str(Path(driftwave.__file__).resolve().parent.parent)


def run_python(*argv, stdin=None):
    """Run the interpreter; a bytes ``stdin`` makes stdout and stderr bytes too."""
    path = [PACKAGE_ROOT, os.environ.get("PYTHONPATH", "")]
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=not isinstance(stdin, bytes),
        input=stdin,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)},
    )


def run_child(*argv, stdin=None):
    """``python -m driftwave`` in a child interpreter, for what only a child
    shows: the entry point and its exit code, numpy's warnings on stderr,
    and logging's handler bound to the real stderr."""
    return run_python("-m", "driftwave", *argv, stdin=stdin)


def run_cli(*argv, stdin=None):
    """``driftwave`` run by ``cli.main`` in this process, with stdin, stdout
    and stderr in memory: the CompletedProcess :func:`run_child` gives for
    the same arguments, argparse's SystemExit as the return code."""
    data = stdin if isinstance(stdin, bytes) else (stdin or "").encode()
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
    sys.stdout, sys.stderr = out, err = io.StringIO(), io.StringIO()
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
    out, err = out.getvalue(), err.getvalue()
    if isinstance(stdin, bytes):
        out, err = out.encode(), err.encode()
    return subprocess.CompletedProcess(argv, code, out, err)


def test_import_starts_no_executor_machinery():
    """A fresh ``import driftwave`` loads no ``concurrent.futures``, nor the
    logging, queue and traceback modules it brings: several milliseconds of
    every start-up."""
    proc = run_python("-c", "import sys, driftwave; print(sorted(set(sys.modules) & "
                      "{'concurrent.futures', 'logging', 'queue', 'traceback'}))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.fixture
def doppler_noisy(tmp_path):
    theta = generate_signal(SignalSpec("doppler", 300), 0)
    rng = np.random.default_rng(17)
    y = theta + rng.uniform(-0.2, 0.2, 300)
    path = tmp_path / "doppler.txt"
    path.write_text("\n".join(repr(float(v)) for v in y) + "\n")
    return path, y


class TestEstimate:
    def test_constant_file_lambda_zero(self, tmp_path):
        path = tmp_path / "const.txt"
        path.write_text("3.25\n" * 8)
        proc = run_cli("estimate", str(path), "--lambda", "0")
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert abs(payload["value"] - 3.25) < 1e-9
        assert payload["n_used"] == 8

    def test_single_value_is_input_error(self, tmp_path):
        path = tmp_path / "one.txt"
        path.write_text("1.0\n")
        proc = run_cli("estimate", str(path))
        assert proc.returncode == 2

    def test_missing_file_is_input_error(self):
        proc = run_cli("estimate", "/nonexistent/file.txt")
        assert proc.returncode == 2

    def test_bad_delta_is_config_error(self, tmp_path):
        path = tmp_path / "x.txt"
        path.write_text("1.0\n2.0\n")
        proc = run_cli("estimate", str(path), "--delta", "1.5")
        assert proc.returncode == 3

    def test_unknown_family_is_config_error(self, tmp_path):
        path = tmp_path / "x.txt"
        path.write_text("1.0\n2.0\n3.0\n")
        proc = run_cli("estimate", str(path), "--family", "db9", "--sigma", "0.1")
        assert proc.returncode == 3
        assert "driftwave: config error: unknown wavelet family 'db9'" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_config_error_printed_once(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("1.0\n2.0\n3.0\n")
        proc = run_child("estimate", str(path), "--sigma", "foo")
        assert proc.returncode == 3
        assert proc.stderr.splitlines() == [
            "driftwave: config error: --sigma must be a number or 'mad', got 'foo'"
        ]

    @pytest.mark.parametrize("sigma", ["nan", "inf", "-1"])
    def test_bad_sigma_is_one_line_config_error(self, tmp_path, sigma):
        path = tmp_path / "s.txt"
        path.write_text("1.0\n2.0\n3.0\n")
        proc = run_cli("estimate", str(path), "--sigma", sigma)
        assert proc.returncode == 3
        assert len(proc.stderr.splitlines()) == 1, proc.stderr

    def test_matches_library_bit_exactly(self, doppler_noisy):
        path, y = doppler_noisy
        sigma = 0.2 / np.sqrt(3)
        proc = run_cli("estimate", str(path), "--family", "db8", "--sigma", repr(float(sigma)))
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        want = estimate_latest(y, DenoiseConfig(family="db8", sigma=float(repr(float(sigma)))))
        assert payload["value"] == want.value
        assert payload["lambda_used"] == want.lambda_used
        assert payload["n_used"] == want.n_used

    def test_t_value_rows_accepted(self, tmp_path):
        path = tmp_path / "tv.csv"
        path.write_text("t,value\n1,2.0\n2,2.0\n3,2.0\n4,2.0\n")
        proc = run_cli("estimate", str(path), "--lambda", "0")
        assert proc.returncode == 0
        assert abs(json.loads(proc.stdout)["value"] - 2.0) < 1e-9

    def test_stdin(self):
        proc = run_cli("estimate", "-", "--lambda", "0", stdin="1.5\n1.5\n1.5\n1.5\n")
        assert proc.returncode == 0
        assert abs(json.loads(proc.stdout)["value"] - 1.5) < 1e-9


@pytest.mark.parametrize("command", ["estimate", "denoise"])
def test_overflow_is_one_line_input_error(tmp_path, command):
    """An overflow inside the transform prints no numpy warning before the
    CLI's one error line."""
    path = tmp_path / "big.txt"
    path.write_text("1e308\n" * 8)
    proc = run_child(command, str(path), "--family", "db4")
    assert proc.returncode == 2, proc.stderr
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert proc.stderr.startswith("driftwave: input error: ")
    assert "overflow float64" in proc.stderr


class TestDenoise:
    def test_csv_output_aligned(self, tmp_path):
        path = tmp_path / "series.txt"
        path.write_text("\n".join(str(float(i)) for i in range(1, 11)) + "\n")
        proc = run_cli("denoise", str(path), "--lambda", "0")
        assert proc.returncode == 0
        lines = proc.stdout.strip().splitlines()
        assert lines[0] == "t,value"
        assert len(lines) == 9  # dyadic window of 8 out of 10 points
        first_t = int(lines[1].split(",")[0])
        assert first_t == 3

    def test_json_output(self, tmp_path):
        path = tmp_path / "series.txt"
        path.write_text("1.0\n" * 8)
        proc = run_cli("denoise", str(path), "--lambda", "0", "--format", "json")
        payload = json.loads(proc.stdout)
        assert payload["t"] == list(range(1, 9))
        np.testing.assert_allclose(payload["values"], 1.0, atol=1e-9)


class TestBench:
    def write_spec(self, tmp_path, **overrides):
        spec = {
            "signal": {"kind": "sine", "n_points": 60},
            "noise": {"kind": "uniform", "levels": [0.0, 0.2]},
            "methods": [{"kind": "passthrough"}, {"kind": "fixed_window", "window": 4}],
            "trials": 2,
        }
        spec.update(overrides)
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(spec))
        return path

    def test_zero_noise_passthrough_row_is_zero(self, tmp_path):
        path = self.write_spec(tmp_path, trials=1)
        proc = run_cli("bench", str(path), "--seed", "1")
        assert proc.returncode == 0
        lines = proc.stdout.strip().splitlines()
        assert lines[0] == "method,noise_level,mean_mse,std_mse"
        zero_row = [l for l in lines if l.startswith("passthrough,0.0,")][0]
        assert zero_row.split(",")[2] == "0.0"

    def test_missing_seed_is_config_error(self, tmp_path):
        path = self.write_spec(tmp_path)
        proc = run_cli("bench", str(path))
        assert proc.returncode == 3

    def test_bad_spec_is_config_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        proc = run_cli("bench", str(path), "--seed", "1")
        assert proc.returncode == 3

    @pytest.mark.parametrize(
        "overrides",
        [
            {"trials": "x"},
            {"trials": None},
            {"signal": {"kind": "sine", "n_points": 8.5}},
            {"signal": {"kind": "sine", "n_points": 60, "amplitude": float("nan")}},
            {"signal": {"kind": "doppler", "n_points": 60, "frequency_warp": float("inf")}},
            {"methods": [{"kind": "fixed_window", "window": None}]},
            # counts are refused, not truncated
            {"trials": 2.7},
            {"trials": "2"},
            {"trials": 0},
            {"methods": [{"kind": "fixed_window", "window": 2.7}]},
            {"methods": [{"kind": "fixed_window", "window": "4"}]},
            {"noise": {"levels": [0.2, float("nan")]}, "methods": [{"kind": "adaptive_window"}]},
            {"noise": {"levels": [float("inf")]}, "methods": [{"kind": "adaptive_window"}]},
            # a JSON true is not a count
            {"trials": True},
            {"methods": [{"kind": "fixed_window", "window": True}]},
        ],
    )
    def test_spec_error_is_one_line_config_error(self, tmp_path, overrides):
        path = self.write_spec(tmp_path, **overrides)
        proc = run_cli("bench", str(path), "--seed", "1")
        assert proc.returncode == 3, proc.stderr
        assert len(proc.stderr.splitlines()) == 1, proc.stderr
        assert proc.stderr.startswith("driftwave: config error: ")

    @pytest.mark.parametrize("trials", ["x", None, 2.7, "2", 0, True])
    def test_bad_spec_trials_refused_under_the_flag_too(self, tmp_path, trials):
        """--trials overrides the spec's count, but does not hide a bad one."""
        path = self.write_spec(tmp_path, trials=trials)
        alone = run_cli("bench", str(path), "--seed", "1")
        flagged = run_cli("bench", str(path), "--seed", "1", "--trials", "2")
        assert alone.returncode == flagged.returncode == 3, flagged.stdout
        assert alone.stderr == flagged.stderr == (
            f"driftwave: config error: trials must be a positive integer, got {trials!r}\n"
        )

    def test_flag_overrides_a_good_spec_trials(self, tmp_path):
        flagged = run_cli("bench", str(self.write_spec(tmp_path, trials=1)), "--seed", "1", "--trials", "3")
        given = run_cli("bench", str(self.write_spec(tmp_path, trials=3)), "--seed", "1")
        assert flagged.returncode == given.returncode == 0, flagged.stderr
        assert flagged.stdout == given.stdout

    def test_byte_identical_across_runs(self, tmp_path):
        path = self.write_spec(
            tmp_path,
            signal={"kind": "random_coin", "n_points": 50},
            methods=[{"kind": "wavelet", "family": "haar"}],
            trials=3,
        )
        outs = [run_cli("bench", str(path), "--seed", "9").stdout for _ in range(3)]
        assert outs[0] == outs[1] == outs[2]


class TestTvscale:
    def test_zero_sigma_passthrough(self, tmp_path):
        spec = {
            "tv_radius": 1.0,
            "sigma": 0.0,
            "n_grid": [32, 64],
            "trials": 2,
            "estimator": {"kind": "passthrough"},
        }
        path = tmp_path / "tv.json"
        path.write_text(json.dumps(spec))
        proc = run_cli("tvscale", str(path), "--seed", "3")
        assert proc.returncode == 0
        lines = proc.stdout.strip().splitlines()
        assert lines[0].startswith("n,mean_r_sq")
        for line in lines[1:]:
            cells = line.split(",")
            assert cells[1] == "0.0" and cells[3] == "0.0"

    def test_byte_identical_across_runs(self, tmp_path):
        spec = {
            "tv_radius": 1.0,
            "sigma": 0.5,
            "n_grid": [32, 64],
            "trials": 3,
            "estimator": {"kind": "wavelet", "family": "haar"},
        }
        path = tmp_path / "tv.json"
        path.write_text(json.dumps(spec))
        a = run_cli("tvscale", str(path), "--seed", "4").stdout
        b = run_cli("tvscale", str(path), "--seed", "4").stdout
        assert a == b

    @pytest.mark.parametrize(
        "overrides,word",
        [
            pytest.param({"n_grid": [32.9, 64]}, "n_grid", id="n_grid-32.9"),
            pytest.param({"n_grid": [32.0, 64]}, "n_grid", id="n_grid-32.0"),
            pytest.param({"trials": 1.5}, "trials", id="trials-1.5"),
            pytest.param({"n_grid": 32}, "", id="n_grid-not-a-list"),
            pytest.param({"trials": True}, "trials", id="trials-true"),
            pytest.param({"n_grid": [True, 64]}, "n_grid", id="n_grid-true"),
        ],
    )
    def test_spec_error_is_one_line_config_error(self, tmp_path, overrides, word):
        spec = {"tv_radius": 1.0, "sigma": 0.5, "n_grid": [32, 64], "trials": 1, **overrides}
        path = tmp_path / "tv.json"
        path.write_text(json.dumps(spec))
        proc = run_cli("tvscale", str(path), "--seed", "1")
        assert proc.returncode == 3, proc.stdout
        assert len(proc.stderr.splitlines()) == 1, proc.stderr
        assert proc.stderr.startswith("driftwave: config error: ")
        assert word in proc.stderr


class TestSelect:
    def test_two_constant_series(self, tmp_path):
        path = tmp_path / "panel.csv"
        rows = ["t,A,B"] + [f"{t},1.0,2.0" for t in range(1, 9)]
        path.write_text("\n".join(rows) + "\n")
        proc = run_cli("select", str(path), "--sigma", "0.1")
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["chosen"] == "A"
        assert payload["scores"]["A"]["raw"] == 1.0
        assert payload["config"]["family"] == "haar"

    def test_unknown_family_is_config_error(self, tmp_path):
        path = tmp_path / "panel.csv"
        path.write_text("t,A,B\n1,1.0,2.0\n2,1.0,2.0\n")
        proc = run_cli("select", str(path), "--family", "db9")
        assert proc.returncode == 3
        assert "driftwave: config error: unknown wavelet family 'db9'" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_ragged_panel_is_input_error(self, tmp_path):
        path = tmp_path / "panel.csv"
        path.write_text("t,A,B\n1,1.0,2.0\n2,1.0\n")
        proc = run_cli("select", str(path))
        assert proc.returncode == 2


class TestBounds:
    def test_constant_signal_closed_form_column(self, tmp_path):
        spec = {
            "signal": {"kind": "piecewise_constant", "n_points": 32, "tv_radius": 0.0},
            "noise": {"kind": "gaussian", "levels": [0.25]},
            "families": ["haar"],
        }
        path = tmp_path / "bounds.json"
        path.write_text(json.dumps(spec))
        proc = run_cli("bounds", str(path), "--seed", "0")
        assert proc.returncode == 0
        from driftwave.denoise import default_lambda

        # constant-zero truth: every coefficient is zero, so the bound is zero
        lines = proc.stdout.strip().splitlines()
        assert lines[1].split(",")[2] == "0.0"

    def test_deterministic_signal_needs_no_seed(self, tmp_path):
        spec = {
            "signal": {"kind": "doppler", "n_points": 64},
            "noise": {"kind": "uniform", "levels": [0.2]},
            "families": ["haar", "db8"],
        }
        path = tmp_path / "bounds.json"
        path.write_text(json.dumps(spec))
        proc = run_cli("bounds", str(path))
        assert proc.returncode == 0
        assert len(proc.stdout.strip().splitlines()) == 3

    def test_stochastic_signal_requires_seed(self, tmp_path):
        spec = {
            "signal": {"kind": "random_coin", "n_points": 32},
            "noise": {"kind": "uniform", "levels": [0.2]},
            "families": ["haar"],
        }
        path = tmp_path / "bounds.json"
        path.write_text(json.dumps(spec))
        assert run_cli("bounds", str(path)).returncode == 3
        assert run_cli("bounds", str(path), "--seed", "5").returncode == 0


_BOUNDS = {"signal": {"kind": "doppler", "n_points": 32}, "noise": {"levels": [0.2]}}
_BENCH = {**_BOUNDS, "trials": 1}
_TVSCALE = {"tv_radius": 1.0, "sigma": 0.5, "n_grid": [32], "trials": 1}


@pytest.mark.parametrize(
    "command,spec",
    [
        pytest.param("bounds", {**_BOUNDS, "families": ["haar", 5]}, id="bounds-family-5"),
        pytest.param("bounds", {**_BOUNDS, "families": 5}, id="bounds-families-5"),
        pytest.param("bounds", {**_BOUNDS, "noise": 5}, id="bounds-noise-5"),
        pytest.param("bench", {**_BENCH, "methods": [5]}, id="bench-method-5"),
        pytest.param("bench", {**_BENCH, "methods": [{"kind": "wavelet", "family": 5}]}, id="bench-family-5"),
        pytest.param("tvscale", {**_TVSCALE, "estimator": {"kind": "wavelet", "family": 5}},
                     id="tvscale-family-5"),
        # a spec number is checked as given: true is not 1.0, nor "0.5" 0.5
        pytest.param("bench", {**_BENCH, "noise": {"levels": [True]}, "methods": [{"kind": "passthrough"}]},
                     id="bench-level-true"),
        pytest.param("bench", {**_BENCH, "delta": True, "methods": [{"kind": "passthrough"}]},
                     id="bench-delta-true"),
        pytest.param("tvscale", {**_TVSCALE, "sigma": True}, id="tvscale-sigma-true"),
        pytest.param("tvscale", {**_TVSCALE, "tv_radius": "0.5"}, id="tvscale-radius-quoted"),
        pytest.param("bounds", {**_BOUNDS, "delta": True}, id="bounds-delta-true"),
    ],
)
def test_wrong_typed_spec_value_is_one_line_config_error(tmp_path, command, spec):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    proc = run_cli(command, str(path), "--seed", "1")
    assert proc.returncode == 3, proc.stderr
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert proc.stderr.startswith("driftwave: config error: ")


_PASS = {**_BENCH, "methods": [{"kind": "passthrough"}]}


@pytest.mark.parametrize(
    "command,spec,field",
    [
        pytest.param("bench", {**_PASS, "signal": {"kind": "sine", "n_points": 32, "frequency_warp": "x"}},
                     "frequency_warp", id="bench-warp-x"),
        pytest.param("bench", {**_PASS, "signal": {"kind": "random_coin", "n_points": 32, "cycles": "2"}},
                     "cycles", id="bench-cycles-quoted"),
        pytest.param("bench", {**_PASS, "signal": {"kind": "random_coin", "amplitude": "big"}},
                     "amplitude", id="bench-amplitude-big"),
        pytest.param("bench", {**_PASS, "delta": "0.5"}, "delta", id="bench-delta-quoted"),
        pytest.param("tvscale", {**_TVSCALE, "tv_radius": "1"}, "tv_radius", id="tvscale-radius-1-quoted"),
        pytest.param("tvscale", {**_TVSCALE, "sigma": "0.5"}, "sigma", id="tvscale-sigma-quoted"),
        pytest.param("bench", {**_PASS, "noise": {"levels": []}}, "noise level", id="bench-no-levels"),
        pytest.param("bounds", {**_BOUNDS, "noise": {"levels": []}}, "noise level", id="bounds-no-levels"),
        pytest.param("bounds", {**_BOUNDS, "families": []}, "family", id="bounds-no-families"),
    ],
)
def test_string_number_or_empty_grid_is_one_line_config_error(tmp_path, command, spec, field):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    proc = run_cli(command, str(path), "--seed", "1")
    assert proc.returncode == 3, proc.stderr
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert proc.stderr.startswith("driftwave: config error: ") and field in proc.stderr, proc.stderr
    assert proc.stdout == ""


_METHODS = {
    "wavelet": {"kind": "wavelet", "family": "haar", "sigma": "mad"},
    "adaptive_window": {"kind": "adaptive_window", "sigma": "proxy"},
    "fixed_window": {"kind": "fixed_window", "window": 4},
    "passthrough": {"kind": "passthrough"},
    "csv": {"kind": "csv", "path": "replay.csv", "name": "replay"},
}
_ESTIMATOR = {**_TVSCALE, "estimator": {"kind": "wavelet", "family": "db2"}}
# (command, spec, the keys that lead to the object a stray key goes into)
_SPEC_OBJECTS = {
    "bench": ("bench", _PASS, ()),
    "bench-signal": ("bench", _PASS, ("signal",)),
    "bench-noise": ("bench", _PASS, ("noise",)),
    **{f"method-{kind}": ("bench", {**_BENCH, "methods": [method]}, ("methods", 0))
       for kind, method in _METHODS.items()},
    "tvscale": ("tvscale", _TVSCALE, ()),
    "tvscale-estimator": ("tvscale", _ESTIMATOR, ("estimator",)),
    "bounds": ("bounds", _BOUNDS, ()),
    "bounds-signal": ("bounds", _BOUNDS, ("signal",)),
    "bounds-noise": ("bounds", _BOUNDS, ("noise",)),
}


@pytest.fixture
def replay_dir(tmp_path, monkeypatch):
    """A working directory holding ``replay.csv``, 32 estimates for the csv method."""
    (tmp_path / "replay.csv").write_text("t,estimate\n" + "".join(f"{t},0.5\n" for t in range(1, 33)))
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.mark.parametrize("name", list(_SPEC_OBJECTS))
def test_unknown_spec_key_is_one_line_config_error(replay_dir, name):
    """Every key of a spec object is a keyword of the call it builds: the
    spec runs as given, and the same spec with a stray key exits 3 naming it."""
    command, spec, where = _SPEC_OBJECTS[name]
    spec = json.loads(json.dumps(spec))
    path = replay_dir / "spec.json"
    path.write_text(json.dumps(spec))
    assert run_cli(command, str(path), "--seed", "1").returncode == 0
    target = spec
    for key in where:
        target = target[key]
    target["zz"] = 1
    path.write_text(json.dumps(spec))
    proc = run_cli(command, str(path), "--seed", "1")
    assert proc.returncode == 3, proc.stdout
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert proc.stderr.startswith("driftwave: config error: ") and "'zz'" in proc.stderr, proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "command,spec,key",
    [
        pytest.param("bench", {**_BENCH, "methods": [{"kind": "wavelet", "family": "haar",
                                                     "sigma_mode": "mad"}]},
                     "sigma_mode", id="method-sigma_mode"),
        pytest.param("bench", {**_PASS, "trails": 2}, "trails", id="bench-trails"),
        pytest.param("bounds", {**_BOUNDS, "familes": ["db4"]}, "familes", id="bounds-familes"),
        pytest.param("bench", {**_PASS, "noise": {"knd": "gaussian", "levels": [0.2]}}, "knd",
                     id="noise-knd"),
        pytest.param("tvscale", {**_TVSCALE, "estimatr": {"kind": "wavelet", "family": "db4"}}, "estimatr",
                     id="tvscale-estimatr"),
        # a key the CLI fills in itself is refused, not overwritten
        pytest.param("bench", {**_PASS, "base_seed": 3}, "base_seed", id="bench-base_seed"),
        pytest.param("bounds", {**_BOUNDS, "theta": [0.0]}, "theta", id="bounds-theta"),
        pytest.param("bench", {**_BENCH, "methods": [{"kind": "passthrough", "name": "raw"}]}, "name",
                     id="passthrough-name"),
        # "false" is truthy: taken as given it would redraw the truth every trial
        pytest.param("bench", {**_PASS, "signal": {"kind": "random_coin", "n_points": 32,
                                                   "resample_per_trial": "false"}},
                     "resample_per_trial", id="signal-resample-false"),
    ],
)
def test_misspelled_or_wrong_key_is_one_line_config_error(tmp_path, command, spec, key):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    proc = run_cli(command, str(path), "--seed", "1")
    assert proc.returncode == 3, proc.stdout
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert proc.stderr.startswith("driftwave: config error: ") and key in proc.stderr, proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("command", ["bench", "bounds"])
@pytest.mark.parametrize("noise", [None, {}, {"kind": "gaussian"}])
def test_omitted_noise_keys_take_the_library_defaults(tmp_path, command, noise):
    """No noise object, or one without levels, takes NoiseSpec's defaults:
    uniform noise, unless a kind is given, at (0.2, 0.3, 0.5, 0.7, 1.0)."""
    spec = {**(_PASS if command == "bench" else _BOUNDS)}
    del spec["noise"]
    if noise is not None:
        spec["noise"] = noise
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    proc = run_cli(command, str(path), "--seed", "1")
    assert proc.returncode == 0, proc.stderr
    levels = [row.split(",")[1] for row in proc.stdout.splitlines()[1:]]
    assert levels[:5] == ["0.2", "0.3", "0.5", "0.7", "1.0"]


def _readme_spec(heading: str) -> dict:
    """The JSON block under ``heading`` in README.md."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = text.split(f"\n{heading}\n", 1)[1]
    return json.loads(section.split("```json\n", 1)[1].split("```", 1)[0])


def test_readme_spec_examples_build():
    """README's bench, tvscale and bounds spec examples build the library
    objects they stand for, read as the CLI reads them, so a new refusal or
    a renamed field cannot leave them stale."""
    bench = _readme_spec("### bench spec")
    cli._signal_from_spec(bench["signal"])
    cli._noise_from_spec(bench["noise"])
    methods = [make_method(m) for m in bench["methods"] if m["kind"] != "csv"]
    signal, noise = SignalSpec("sine", 8), NoiseSpec(levels=(0.2,))
    run_online_eval(signal, noise, methods, bench["trials"], 0, delta=bench["delta"])

    tvscale = _readme_spec("### tvscale spec")
    study = TVStudySpec(**{**tvscale, "n_grid": tuple(tvscale["n_grid"])})
    make_method(study.estimator)

    bounds = _readme_spec("### bounds spec")
    theta = generate_signal(cli._signal_from_spec(bounds["signal"]), 0)
    noise = cli._noise_from_spec(bounds["noise"])
    bound_profile(theta, noise, tuple(bounds["families"]), delta=bounds["delta"])


@pytest.mark.parametrize("where", ["series-below-a-file", "out-below-a-file", "name-too-long"])
def test_os_error_is_one_line_input_error(tmp_path, where):
    series = tmp_path / "s.txt"
    series.write_text("1.0\n2.0\n3.0\n")
    argv = {
        "series-below-a-file": [str(series / "x")],  # NotADirectoryError
        "out-below-a-file": [str(series), "--out", str(series / "x")],
        "name-too-long": [str(tmp_path / ("n" * 300))],  # OSError: ENAMETOOLONG
    }[where]
    proc = run_cli("estimate", *argv)
    assert proc.returncode == 2, proc.stderr
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert proc.stderr.startswith("driftwave: input error: ")
    assert proc.stdout == ""


class TestOutputFile:
    def test_out_flag_writes_file(self, tmp_path):
        series = tmp_path / "s.txt"
        series.write_text("2.0\n" * 8)
        out = tmp_path / "result.json"
        proc = run_cli("estimate", str(series), "--lambda", "0", "--out", str(out))
        assert proc.returncode == 0
        assert proc.stdout == ""
        assert abs(json.loads(out.read_text())["value"] - 2.0) < 1e-9


# --- tables: one header plus rows, written as CSV or JSON --------------------

_METHODS = [
    {"kind": "wavelet", "family": "haar"},
    {"kind": "wavelet", "family": "db4", "sigma": "mad"},
    {"kind": "adaptive_window"},
    {"kind": "fixed_window", "window": 8},
    {"kind": "passthrough"},
]

# (subcommand, spec, seed); the "_int" specs give integer-typed noise levels
BOM = b"\xef\xbb\xbf"
SERIES = b"5.0\n1.0\n2.0\n3.0\n"
PANEL = b"t,a,b\n1,0.5,0.4\n2,0.4,0.45\n3,0.35,0.5\n4,0.3,0.55\n"
BOUNDS_SPEC = json.dumps({"signal": {"kind": "doppler", "n_points": 16},
                          "noise": {"levels": [0.2]}}).encode()
INPUTS = {"estimate": SERIES, "denoise": SERIES, "select": PANEL, "bounds": BOUNDS_SPEC}


def _not_utf8(data: bytes) -> bytes:
    """``data`` with byte 0xff at the start of its third line."""
    lines = data.splitlines(keepends=True)
    return b"".join(lines[:2] + [b"\xff" + lines[2]] + lines[3:])


class TestTextInput:
    """Every text input is UTF-8 with an optional byte-order mark.  Bytes
    that are not UTF-8 are an input error (exit 2) in data and a config
    error (exit 3) in a spec, on one stderr line."""

    @pytest.mark.parametrize("command", ["estimate", "denoise", "select", "bounds"])
    def test_bom_file_prints_the_same_bytes(self, tmp_path, command):
        plain, marked = tmp_path / "plain", tmp_path / "bom"
        plain.write_bytes(INPUTS[command])
        marked.write_bytes(BOM + INPUTS[command])
        flags = () if command == "bounds" else ("--sigma", "0.1")
        want, got = (run_cli(command, str(path), *flags) for path in (plain, marked))
        assert want.returncode == 0, want.stderr
        assert (got.returncode, got.stdout) == (0, want.stdout)

    def test_bom_on_stdin(self):
        want, got = (run_child("denoise", "-", "--sigma", "0.1", stdin=data)
                     for data in (SERIES, BOM + SERIES))
        assert want.returncode == 0, want.stderr
        assert (got.returncode, got.stdout) == (0, want.stdout)
        assert got.stdout.splitlines()[1].startswith(b"1,")

    @staticmethod
    def assert_one_line(proc, code, prefix):
        stderr = proc.stderr if isinstance(proc.stderr, str) else proc.stderr.decode()
        assert proc.returncode == code, stderr
        assert stderr.splitlines() == [stderr.rstrip("\n")], stderr
        assert stderr.startswith(prefix), stderr

    @pytest.mark.parametrize("command", ["estimate", "denoise", "select"])
    def test_non_utf8_data_is_one_line_input_error(self, tmp_path, command):
        path = tmp_path / "data"
        path.write_bytes(_not_utf8(INPUTS[command]))
        proc = run_cli(command, str(path), "--sigma", "0.1")
        self.assert_one_line(proc, 2, "driftwave: input error: line 3: byte 0xff is not UTF-8")

    def test_non_utf8_stdin_is_one_line_input_error(self):
        proc = run_cli("estimate", "-", "--sigma", "0.1", stdin=_not_utf8(SERIES))
        self.assert_one_line(proc, 2, "driftwave: input error: line 3: byte 0xff is not UTF-8")

    def test_non_utf8_spec_is_one_line_config_error(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_bytes(b'{"signal":\n {"kind": "doppler"},\n\xff"noise": {}}\n')
        proc = run_cli("bounds", str(path))
        self.assert_one_line(proc, 3, "driftwave: config error: ")
        assert "byte 0xff is not UTF-8" in proc.stderr

    def test_non_utf8_replay_file_is_one_line_input_error(self, tmp_path):
        replay = tmp_path / "replay.csv"
        replay.write_bytes(_not_utf8(b"t,estimate\n1,0.0\n2,0.0\n3,0.0\n"))
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "signal": {"kind": "sine", "n_points": 3}, "noise": {"levels": [0.1]},
            "methods": [{"kind": "csv", "path": str(replay), "name": "ext"}],
        }))
        proc = run_cli("bench", str(spec), "--seed", "1")
        self.assert_one_line(proc, 2, "driftwave: input error: line 3: byte 0xff is not UTF-8")


TABLE_SPECS = {
    "bench": ("bench", {
        "signal": {"kind": "doppler", "n_points": 128},
        "noise": {"kind": "uniform", "levels": [0.2, 0.5]},
        "methods": _METHODS,
        "trials": 2,
    }, 11),
    "bench_int": ("bench", {
        "signal": {"kind": "random_coin", "n_points": 64},
        "noise": {"kind": "gaussian", "levels": [1, 2, 0.5]},
        "methods": _METHODS,
        "trials": 2,
    }, 8),
    "tvscale": ("tvscale", {"tv_radius": 1.0, "sigma": 0.5, "n_grid": [32, 64], "trials": 2}, 12),
    "tvscale_passthrough": ("tvscale", {
        "tv_radius": 1.0, "sigma": 0.0, "n_grid": [32, 64], "trials": 1,
        "estimator": {"kind": "passthrough"},
    }, 3),
    "bounds": ("bounds", {
        "signal": {"kind": "random_coin", "n_points": 64},
        "noise": {"kind": "uniform", "levels": [0.2, 1.0]},
        "families": ["haar", "db4"],
    }, 13),
    "bounds_int": ("bounds", {
        "signal": {"kind": "doppler", "n_points": 64},
        "noise": {"kind": "uniform", "levels": [1, 2]},
        "families": ["haar", "db8"],
    }, 0),
}


def run_table(tmp_path, name, fmt):
    command, spec, seed = TABLE_SPECS[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(spec))
    proc = run_cli(command, str(path), "--seed", str(seed), "--format", fmt)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _cell(text):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _typed(records):
    """Each cell as (column, type name, repr): NaN compares equal to NaN."""
    return [[(k, type(v).__name__, repr(v)) for k, v in r.items()] for r in records]


def _report(name):
    """The library report that the CLI writes for TABLE_SPECS[name]."""
    command, spec, seed = TABLE_SPECS[name]
    noise = NoiseSpec(**spec["noise"]) if "noise" in spec else None
    if command == "bench":
        methods = [make_method(m) for m in spec["methods"]]
        return run_online_eval(SignalSpec(**spec["signal"]), noise, methods,
                               trials=spec["trials"], base_seed=seed)
    if command == "tvscale":
        return run_tv_study(TVStudySpec(**{**spec, "n_grid": tuple(spec["n_grid"])}), base_seed=seed)
    theta = generate_signal(SignalSpec(**spec["signal"]), seed)
    return bound_profile(theta, noise, tuple(spec["families"]))


class TestTables:
    @pytest.mark.parametrize("name", sorted(TABLE_SPECS))
    def test_json_records_equal_the_csv_rows(self, tmp_path, name):
        header, *lines = run_table(tmp_path, name, "csv").splitlines()
        csv_records = [dict(zip(header.split(","), map(_cell, line.split(",")))) for line in lines]
        json_records = json.loads(run_table(tmp_path, name, "json"))
        assert _typed(json_records) == _typed(csv_records)

    @pytest.mark.parametrize("name", sorted(TABLE_SPECS))
    def test_report_to_csv_equals_the_cli_csv(self, tmp_path, name):
        assert _report(name).to_csv() == run_table(tmp_path, name, "csv")


# SHA-256 of stdout at fixed seeds with float noise levels; a change to any
# byte of a table, or of the denoise output, must show here.
GOLDEN_SHA256 = {
    ("bench", "csv"): "8e26b2325cfe69aa449f9e4ded0243aa3638d188175b0b4a0a9829e36d087655",
    ("bench", "json"): "8c2865475c5878ae8c11f01bc1da6e21915ea381a3d022c55faeee840480759f",
    ("bounds", "csv"): "2a2f8db3987876aa21a9210aa55ae102ca1a6857a118800c386c3b35d834b737",
    ("bounds", "json"): "0b3100e019fa7cebdbebb9cab5b8b753653a535faf89c7c40d2faa81d909c5c6",
    ("denoise", "csv"): "75c0382239ec3e83959b47cd915cbb0406bbabc462e1867396a6940590131471",
    ("denoise", "json"): "79280ecb74b31867db0f88ed50a5dca0b4d32131601cf498acd1d309f486a0a5",
    ("tvscale", "csv"): "7797e78f0743c9c390ffd8eca346ba36ad1a68cff31de49b456bb833a2d26e3b",
    ("tvscale", "json"): "18b17f4bdddd15b9fee7d139919a2d70c9c8f470a1ded4a2f0af33e382f32c82",
}


def _golden_series():
    return "".join(repr(math.sin(0.05 * i) + 0.3 * ((7919 * i) % 13) / 13) + "\n" for i in range(200))


@pytest.mark.parametrize("name,fmt", sorted(GOLDEN_SHA256))
def test_stdout_digest(tmp_path, name, fmt):
    if name == "denoise":
        path = tmp_path / "series.txt"
        path.write_text(_golden_series())
        proc = run_cli("denoise", str(path), "--family", "db4", "--format", fmt)
        assert proc.returncode == 0, proc.stderr
        out = proc.stdout
    else:
        out = run_table(tmp_path, name, fmt)
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_SHA256[name, fmt]


# --- the set of knobs --------------------------------------------------------

# Every flag of every subcommand.  A new flag is a new knob to document and
# test: add it here, where review sees it.
FLAGS = {
    "estimate": {"--family", "--sigma", "--delta", "--lambda", "--boundary", "--format", "--out"},
    "denoise": {"--family", "--sigma", "--delta", "--lambda", "--boundary", "--format", "--out"},
    "bench": {"--seed", "--trials", "--format", "--out"},
    "tvscale": {"--seed", "--format", "--out"},
    "select": {"--family", "--sigma", "--delta", "--lambda", "--boundary", "--clamp",
               "--format", "--out"},
    "bounds": {"--seed", "--format", "--out"},
}


def test_flag_set_is_pinned():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    got = {
        name: {s for a in p._actions for s in a.option_strings if s not in ("-h", "--help")}
        for name, p in sub.choices.items()
    }
    assert got == FLAGS
    assert sum(len(flags) for flags in got.values()) == 32
