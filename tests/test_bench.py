import io

import numpy as np
import pytest

from driftwave.bench import (
    AdaptiveWindowMethod,
    CsvReplayMethod,
    FixedWindowMethod,
    NoiseSpec,
    PassthroughMethod,
    SignalSpec,
    WaveletMethod,
    bound_profile,
    generate_signal,
    load_estimates_csv,
    make_method,
    run_online_eval,
)
from driftwave.errors import LengthMismatch, NonFiniteValue, ParseError


class TestSignals:
    def test_doppler_range(self):
        theta = generate_signal(SignalSpec("doppler", 500), 0)
        assert len(theta) == 500
        assert np.all(np.abs(theta) <= 1.5)

    def test_doppler_deterministic(self):
        a = generate_signal(SignalSpec("doppler", 500), 1)
        b = generate_signal(SignalSpec("doppler", 500), 2)
        np.testing.assert_array_equal(a, b)  # no randomness in the chirp

    def test_sine_range_and_period(self):
        theta = generate_signal(SignalSpec("sine", 400), 0)
        assert np.abs(theta).max() <= 1.0 + 1e-12
        assert abs(theta[-1]) < 1e-9  # 4 full cycles end at a zero crossing

    def test_random_coin_values_and_mean(self):
        theta = generate_signal(SignalSpec("random_coin", 100_000), 12345)
        assert set(np.unique(theta)) <= {0.0, 1.0}
        assert abs(theta.mean() - 0.5) <= 0.01

    def test_random_coin_seeded(self):
        a = generate_signal(SignalSpec("random_coin", 64), 7)
        b = generate_signal(SignalSpec("random_coin", 64), 7)
        c = generate_signal(SignalSpec("random_coin", 64), 8)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("radius", [0.0, 0.5, 1.0, 2.0])
    def test_piecewise_constant_exact_variation(self, radius):
        for seed in range(10):
            theta = generate_signal(SignalSpec("piecewise_constant", 512, tv_radius=radius), seed)
            tv = np.abs(np.diff(theta)).sum()
            assert abs(tv - radius) <= 1e-12
            assert np.all(np.abs(theta) <= 1.5)

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            SignalSpec("sawtooth", 100)


class TestNoise:
    def test_uniform_known_sigma(self):
        spec = NoiseSpec("uniform", (0.3,))
        assert abs(spec.known_sigma(0.3) - 0.3 / np.sqrt(3)) < 1e-15

    def test_gaussian_known_sigma(self):
        spec = NoiseSpec("gaussian", (0.3,))
        assert spec.known_sigma(0.3) == 0.3

    def test_uniform_bounds(self):
        spec = NoiseSpec("uniform", (0.5,))
        eps = spec.sample(np.random.default_rng(0), 0.5, 10_000)
        assert np.all(np.abs(eps) <= 0.5)
        assert abs(eps.var() - 0.25 / 3) < 0.005

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            NoiseSpec("laplace", (0.1,))


class TestOnlineEval:
    def test_zero_noise_passthrough_is_exact(self):
        report = run_online_eval(
            SignalSpec("doppler", 64),
            NoiseSpec("uniform", (0.0,)),
            [PassthroughMethod()],
            trials=1,
            base_seed=0,
        )
        assert report.mean_mse[0, 0] == 0.0

    def test_passthrough_mse_equals_noise_variance(self):
        # 50 trials x 2000 points = 1e5 aggregate draws
        B = 0.6
        report = run_online_eval(
            SignalSpec("sine", 2000),
            NoiseSpec("uniform", (B,)),
            [PassthroughMethod()],
            trials=50,
            base_seed=99,
        )
        want = B**2 / 3.0
        assert abs(report.mean_mse[0, 0] - want) <= 0.05 * want

    def test_deterministic_given_seed(self):
        spec = SignalSpec("random_coin", 80)
        noise = NoiseSpec("uniform", (0.2, 0.5))
        methods = lambda: [WaveletMethod("haar"), FixedWindowMethod(8)]
        a = run_online_eval(spec, noise, methods(), trials=3, base_seed=42)
        b = run_online_eval(spec, noise, methods(), trials=3, base_seed=42)
        assert a.to_csv() == b.to_csv()

    def test_thread_count_does_not_change_result(self):
        spec = SignalSpec("piecewise_constant", 90, tv_radius=1.0)
        noise = NoiseSpec("gaussian", (0.3,))
        methods = lambda: [WaveletMethod("db2"), AdaptiveWindowMethod()]
        a = run_online_eval(spec, noise, methods(), trials=4, base_seed=5, threads=1)
        b = run_online_eval(spec, noise, methods(), trials=4, base_seed=5, threads=4)
        assert a.to_csv() == b.to_csv()

    def test_fixed_signal_shared_across_trials(self):
        spec = SignalSpec("random_coin", 40, resample_per_trial=False)
        noise = NoiseSpec("uniform", (0.0,))
        report = run_online_eval(spec, noise, [PassthroughMethod()], trials=3, base_seed=1)
        # zero noise + passthrough: MSE is 0 against the shared draw every trial
        assert report.std_mse[0, 0] == 0.0

    def test_coin_mse_floor_for_windowed_averaging(self):
        # irreducible per-point variance of the coin beats the same method
        # run on the constant signal at its mean
        noise = NoiseSpec("uniform", (0.2,))
        coin = run_online_eval(
            SignalSpec("random_coin", 400), noise, [FixedWindowMethod(16)], trials=5, base_seed=3
        )
        flat = run_online_eval(
            SignalSpec("piecewise_constant", 400, tv_radius=0.0),
            noise,
            [FixedWindowMethod(16)],
            trials=5,
            base_seed=3,
        )
        assert coin.mean_mse[0, 0] >= flat.mean_mse[0, 0]

    def test_duplicate_method_names_rejected(self):
        with pytest.raises(ValueError):
            run_online_eval(
                SignalSpec("sine", 16),
                NoiseSpec("uniform", (0.1,)),
                [PassthroughMethod(), PassthroughMethod()],
                trials=1,
                base_seed=0,
            )

    def test_rows_and_lookup(self):
        report = run_online_eval(
            SignalSpec("sine", 32),
            NoiseSpec("uniform", (0.1, 0.2)),
            [PassthroughMethod(), FixedWindowMethod(4)],
            trials=2,
            base_seed=0,
        )
        rows = report.rows()
        assert len(rows) == 4
        mean, std = report.mse("window4", 0.2)
        assert any(r == ("window4", 0.2, mean, std) for r in rows)


class TestCsvReplay:
    def test_replay_round_trip(self):
        est = np.linspace(0.0, 1.0, 32)
        method = CsvReplayMethod("external", est)
        out = method.prefix_estimates(np.zeros(32), 0.1, 0.1)
        np.testing.assert_array_equal(out, est)

    def test_replay_in_eval(self, tmp_path):
        n = 16
        theta = generate_signal(SignalSpec("sine", n), 0)
        path = tmp_path / "external.csv"
        lines = ["t,estimate"] + [f"{t},{float(theta[t - 1])!r}" for t in range(1, n + 1)]
        path.write_text("\n".join(lines) + "\n")
        method = make_method({"kind": "csv", "path": str(path), "name": "oracle"})
        report = run_online_eval(
            SignalSpec("sine", n), NoiseSpec("uniform", (0.4,)), [method], trials=2, base_seed=1
        )
        assert report.mean_mse[0, 0] <= 1e-24  # replayed the truth exactly

    def test_too_short_replay(self):
        method = CsvReplayMethod("external", np.zeros(4))
        with pytest.raises(LengthMismatch):
            method.prefix_estimates(np.zeros(8), 0.1, 0.1)

    def test_parse_header(self):
        with pytest.raises(ParseError):
            load_estimates_csv(io.StringIO("time,value\n1,0.5\n"))

    def test_parse_time_must_ascend_from_one(self):
        with pytest.raises(ParseError):
            load_estimates_csv(io.StringIO("t,estimate\n1,0.5\n3,0.6\n"))

    def test_parse_non_finite(self):
        with pytest.raises(NonFiniteValue):
            load_estimates_csv(io.StringIO("t,estimate\n1,nan\n"))

    def test_parse_ok(self):
        got = load_estimates_csv(io.StringIO("t,estimate\n1,0.5\n2,-0.25\n"))
        np.testing.assert_array_equal(got, [0.5, -0.25])


class TestMakeMethod:
    def test_wavelet(self):
        m = make_method({"kind": "wavelet", "family": "db8", "sigma": "mad"})
        assert m.name == "db8_mad"

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_method({"kind": "kalman"})


class TestBoundProfile:
    def test_constant_signal_closed_form(self):
        # one nonzero folded coefficient per window: the global average
        n = 64
        c = 0.8
        theta = np.full(n, c)
        noise = NoiseSpec("gaussian", (0.25,))
        prof = bound_profile(theta, noise, ("haar",), delta=0.1)
        from driftwave.denoise import default_lambda

        total = 0.0
        for t in range(2, n + 1):
            m = 1 << (t.bit_length() - 1)
            lam = default_lambda(0.25, 0.1, m)
            total += 6.0 * (1.0 / np.sqrt(2 * m)) * min(np.sqrt(2 * m) * c, lam)
        want = total / (n - 1)
        assert abs(prof.value("haar", 0.25) - want) < 1e-9

    def test_zero_noise_zero_bound(self):
        theta = generate_signal(SignalSpec("doppler", 128), 0)
        prof = bound_profile(theta, NoiseSpec("uniform", (0.0,)), ("haar", "db8"))
        assert prof.values.max() == 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_truth_rejected(self, bad):
        theta = np.array([0.1] * 7 + [bad])
        with pytest.raises(NonFiniteValue):
            bound_profile(theta, NoiseSpec("uniform", (0.3,)), ("haar",))

    @pytest.mark.parametrize("boundary", ["zero", "Periodic", ""])
    def test_unknown_boundary_rejected(self, boundary):
        with pytest.raises(ValueError, match="boundary"):
            bound_profile(np.ones(16), NoiseSpec("uniform", (0.3,)), ("haar",), boundary=boundary)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown wavelet family 'db9'"):
            bound_profile(np.ones(16), NoiseSpec("uniform", (0.3,)), ("haar", "db9"))

    def test_csv_shape(self):
        theta = np.ones(16)
        prof = bound_profile(theta, NoiseSpec("uniform", (0.1, 0.2)), ("haar", "db2"))
        lines = prof.to_csv().strip().splitlines()
        assert lines[0] == "family,noise_level,avg_bound"
        assert len(lines) == 5
