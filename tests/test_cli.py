import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import driftwave
from driftwave.bench import SignalSpec, generate_signal
from driftwave.denoise import DenoiseConfig, estimate_latest

# the child interpreter imports the same package as this one, installed or not
PACKAGE_ROOT = str(Path(driftwave.__file__).resolve().parent.parent)


def run_cli(*argv, stdin=None):
    path = [PACKAGE_ROOT, os.environ.get("PYTHONPATH", "")]
    return subprocess.run(
        [sys.executable, "-m", "driftwave", *argv],
        capture_output=True,
        text=True,
        input=stdin,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)},
    )


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

    def test_byte_identical_across_runs_and_threads(self, tmp_path):
        path = self.write_spec(
            tmp_path,
            signal={"kind": "random_coin", "n_points": 50},
            methods=[{"kind": "wavelet", "family": "haar"}],
            trials=3,
        )
        outs = [
            run_cli("bench", str(path), "--seed", "9", "--threads", str(k)).stdout
            for k in (1, 4, 1)
        ]
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

    def test_byte_identical_across_threads(self, tmp_path):
        spec = {
            "tv_radius": 1.0,
            "sigma": 0.5,
            "n_grid": [32, 64],
            "trials": 3,
            "estimator": {"kind": "wavelet", "family": "haar"},
        }
        path = tmp_path / "tv.json"
        path.write_text(json.dumps(spec))
        a = run_cli("tvscale", str(path), "--seed", "4", "--threads", "1").stdout
        b = run_cli("tvscale", str(path), "--seed", "4", "--threads", "4").stdout
        assert a == b


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


class TestOutputFile:
    def test_out_flag_writes_file(self, tmp_path):
        series = tmp_path / "s.txt"
        series.write_text("2.0\n" * 8)
        out = tmp_path / "result.json"
        proc = run_cli("estimate", str(series), "--lambda", "0", "--out", str(out))
        assert proc.returncode == 0
        assert proc.stdout == ""
        assert abs(json.loads(out.read_text())["value"] - 2.0) < 1e-9
