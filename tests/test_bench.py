import io
import json
import os
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftwave import _kernels, bench
from driftwave.baselines import adaptive_window_sweep
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
    prefix_rows,
    run_online_eval,
    table_text,
)
from driftwave.denoise import default_lambda, dyadic_truncate, reflect_fold, sparsity_bound
from driftwave.errors import DomainError, LengthMismatch, NonFiniteValue, ParseError
from driftwave.wavelets import FAMILY_NAMES, cached_matrix, forward, last_column_support, support_basis


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

    @pytest.mark.parametrize("n_points", [8.5, 8.0, "8", None, 0, -3, True])
    def test_n_points_must_be_a_positive_integer(self, n_points):
        with pytest.raises(ValueError, match="n_points must be a positive integer"):
            SignalSpec("sine", n_points)

    @pytest.mark.parametrize("value", ["false", "no", 0, 1, None, [], np.bool_(True)])
    def test_resample_per_trial_must_be_a_bool(self, value):
        # "false" and "no" are truthy: taken as given they would redraw the truth
        with pytest.raises(ValueError, match="resample_per_trial must be true or false"):
            SignalSpec("random_coin", 8, resample_per_trial=value)


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

    def test_levels_kept_as_a_tuple(self):
        assert NoiseSpec(levels=[0.2, 1]).levels == (0.2, 1)
        assert NoiseSpec().levels == (0.2, 0.3, 0.5, 0.7, 1.0)


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

    def test_deterministic_with_resampled_truth(self):
        spec = SignalSpec("piecewise_constant", 90, tv_radius=1.0)
        noise = NoiseSpec("gaussian", (0.3,))
        methods = lambda: [WaveletMethod("db2"), AdaptiveWindowMethod()]
        a = run_online_eval(spec, noise, methods(), trials=4, base_seed=5)
        b = run_online_eval(spec, noise, methods(), trials=4, base_seed=5)
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

    @pytest.mark.parametrize("trials", [2.5, 2.0, "2", 0, True])
    def test_trials_must_be_a_positive_integer(self, trials):
        with pytest.raises(ValueError, match="trials must be a positive integer"):
            run_online_eval(SignalSpec("sine", 16), NoiseSpec("uniform", (0.1,)),
                            [PassthroughMethod()], trials=trials, base_seed=0)

    def test_integer_levels_are_float_cells(self):
        report = run_online_eval(SignalSpec("sine", 16), NoiseSpec("gaussian", (1, 0.5)),
                                 [PassthroughMethod()], trials=1, base_seed=0)
        assert [row[1] for row in report.rows()] == [1.0, 0.5]
        assert all(type(row[1]) is float for row in report.rows())
        assert report.to_csv().splitlines()[1].startswith("passthrough,1.0,")
        assert '"noise_level": 1.0,' in report.to_text("json")

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


class Forwarding:
    """A method wrapper that forwards calls but not ``stacked``, as a timing
    or recording wrapper would: the harness calls it once per series."""

    def __init__(self, inner):
        self.inner, self.name, self.calls, self.sigmas = inner, inner.name, [], []

    def prefix_estimates(self, y, known_sigma, delta):
        self.calls.append(np.shape(y))
        self.sigmas.append(known_sigma)
        return self.inner.prefix_estimates(y, known_sigma, delta)


def stacked_methods():
    return [WaveletMethod("db8"), WaveletMethod("haar"), WaveletMethod("db4", "mad"),
            AdaptiveWindowMethod(), AdaptiveWindowMethod("proxy"), FixedWindowMethod(16),
            PassthroughMethod()]


class TestStackedTrials:
    """Stacked methods see every noise level's trials as one (levels x
    trials, T) stack with a (levels x trials, 1) sigma column; the report's
    bytes are those of one call per trial and level."""

    @pytest.mark.parametrize("signal", [SignalSpec("doppler", 300), SignalSpec("random_coin", 257)],
                             ids=["doppler", "random_coin"])
    def test_report_bytes_match_per_series_calls(self, signal):
        noise = NoiseSpec("uniform", (0.2, 0.5, 1.0))
        stacked = run_online_eval(signal, noise, stacked_methods(), trials=4, base_seed=3)
        wrapped = [Forwarding(m) for m in stacked_methods()]
        per_series = run_online_eval(signal, noise, wrapped, trials=4, base_seed=3)
        assert per_series.to_csv() == stacked.to_csv()
        assert wrapped[0].calls == [(signal.n_points,)] * (3 * 4)

    def test_draws_are_those_of_one_trial_at_a_time(self):
        # one rng per trial, seeded base_seed + trial: the truth, then each
        # level's noise in level order
        signal, noise = SignalSpec("random_coin", 100), NoiseSpec("gaussian", (0.3, 0.6))
        method = WaveletMethod("haar")
        want = np.empty((3, 2))
        for trial in range(3):
            rng = np.random.default_rng(8 + trial)
            theta = generate_signal(signal, rng)
            for li, level in enumerate(noise.levels):
                est = method.prefix_estimates(theta + noise.sample(rng, level, 100), level, 0.1)
                want[trial, li] = float(np.mean((est - theta) ** 2))
        report = run_online_eval(signal, noise, [method], trials=3, base_seed=8)
        assert report.mean_mse[:, 0].tobytes() == want.mean(axis=0).tobytes()
        assert report.std_mse[:, 0].tobytes() == want.std(axis=0, ddof=1).tobytes()

    def test_stacked_method_called_once_per_chunk(self, monkeypatch):
        calls = []
        inner = WaveletMethod.prefix_estimates
        monkeypatch.setattr(WaveletMethod, "prefix_estimates",
                            lambda self, y, s, d: calls.append((y.shape, s)) or inner(self, y, s, d))
        run_online_eval(SignalSpec("sine", 40), NoiseSpec("uniform", (0.1, 0.2)),
                        [WaveletMethod("haar")], trials=3, base_seed=0)
        [(shape, sigma)] = calls
        assert shape == (6, 40)
        # level-major rows: the three trials of 0.1, then those of 0.2
        want = np.repeat([0.1 / np.sqrt(3.0), 0.2 / np.sqrt(3.0)], 3)[:, None]
        assert sigma.tobytes() == want.tobytes()

    def test_trials_are_stacked_in_bounded_chunks(self, monkeypatch):
        signal, noise = SignalSpec("random_coin", 40), NoiseSpec("gaussian", (0.3, 0.6))
        methods = [WaveletMethod("db4"), AdaptiveWindowMethod(), FixedWindowMethod(4)]
        whole = run_online_eval(signal, noise, methods, trials=5, base_seed=2)
        shapes = []
        inner = WaveletMethod.prefix_estimates
        monkeypatch.setattr(WaveletMethod, "prefix_estimates",
                            lambda self, y, s, d: shapes.append(y.shape) or inner(self, y, s, d))
        # two rows of 40 samples per chunk: one trial at both levels
        monkeypatch.setattr(bench, "_SCRATCH_BYTES", 2 * 8 * 40)
        assert run_online_eval(signal, noise, methods, trials=5, base_seed=2).to_csv() == whole.to_csv()
        assert shapes == [(2, 40)] * 5
        # four rows per chunk: two trials at both levels, then the last trial
        shapes.clear()
        monkeypatch.setattr(bench, "_SCRATCH_BYTES", 4 * 8 * 40)
        assert run_online_eval(signal, noise, methods, trials=5, base_seed=2).to_csv() == whole.to_csv()
        assert shapes == [(4, 40)] * 2 + [(2, 40)]

    def test_peak_memory_does_not_grow_with_trials(self):
        # 64 trials of 2048 samples fill one chunk: eight chunks peak no
        # higher than one (stacking all 512 trials would hold ~8 MiB each of
        # the truths, the noisy series and the estimates)
        signal, noise = SignalSpec("sine", 2048), NoiseSpec("uniform", (0.1, 0.2))
        methods = [FixedWindowMethod(16), AdaptiveWindowMethod()]
        peaks = []
        for trials in (64, 512):
            tracemalloc.start()
            try:
                run_online_eval(signal, noise, methods, trials=trials, base_seed=0)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < peaks[0] + 2**20

    def test_prefix_rows(self):
        Y = np.arange(12.0).reshape(3, 4)
        assert prefix_rows(PassthroughMethod(), Y, 0.1, 0.1).tobytes() == Y.tobytes()
        wrapped = Forwarding(PassthroughMethod())
        rows = prefix_rows(wrapped, Y, 0.1, 0.1)
        assert wrapped.calls == [(4,)] * 3
        assert rows.tobytes() == Y.tobytes()

    @pytest.mark.parametrize("sigma", [0.25, np.array([[0.1], [0.0], [0.7]])], ids=["float", "column"])
    def test_prefix_rows_hands_each_row_its_float_sigma(self, sigma):
        wrapped = Forwarding(WaveletMethod("db2"))
        Y = np.random.default_rng(4).normal(size=(3, 24))
        rows = prefix_rows(wrapped, Y, sigma, 0.1)
        want = np.broadcast_to(sigma, (3, 1))[:, 0].tolist()
        assert wrapped.sigmas == want
        assert all(type(s) is float for s in wrapped.sigmas)
        assert rows.tobytes() == prefix_rows(WaveletMethod("db2"), Y, np.reshape(want, (3, 1)), 0.1).tobytes()

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), B=st.integers(1, 6), T=st.integers(1, 80),
           method=st.sampled_from(range(len(stacked_methods()))),
           pool=st.lists(st.sampled_from([0.0, -0.0, 1e-12, 0.05, 0.3, 0.3, 1.0]), min_size=1, max_size=3))
    def test_sigma_column_rows_match_one_row_calls(self, seed, B, T, method, pool):
        """Row b of a stack with a (B, 1) sigma column is the one-row call
        with sigma[b], byte for byte, for every stacked method."""
        rng = np.random.default_rng(seed)
        Y = np.cumsum(rng.normal(0.0, 0.3, (B, T)), axis=1)
        sigma = rng.choice(pool, (B, 1))
        m = stacked_methods()[method]
        got = m.prefix_estimates(Y, sigma, 0.1)
        for b in range(B):
            assert got[b].tobytes() == m.prefix_estimates(Y[b], float(sigma[b, 0]), 0.1).tobytes(), b

    @pytest.mark.parametrize("bad", [np.nan, -0.1, np.inf])
    def test_sigma_column_refuses_a_bad_sigma(self, bad):
        """One sigma check for every stacked path, naming the column's first
        bad value as a float sigma alone would be named."""
        message = f"sigma must be {'nonnegative' if bad < 0 else 'finite'}, got {bad}"
        column, Y = np.array([[0.1], [bad], [0.1], [-0.2]]), np.zeros((4, 16))
        for run in (lambda: WaveletMethod("db2").prefix_estimates(Y, column, 0.1),
                    lambda: AdaptiveWindowMethod().prefix_estimates(Y, column, 0.1),
                    lambda: adaptive_window_sweep(Y, column, 0.1)):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                run()

    def test_sigma_column_names_the_row_of_a_bad_observation(self):
        Y = np.zeros((3, 16))
        Y[2, 5] = np.nan
        with pytest.raises(NonFiniteValue, match="row 2 observation 5"):
            WaveletMethod("db2").prefix_estimates(Y, np.array([[0.1], [0.2], [0.1]]), 0.1)

    @pytest.mark.parametrize("T", [7, 128, 1031])
    def test_mse_is_one_mean_per_row(self, T):
        """The per-row MSE, one axis-1 mean over the whole stack, has the
        bits of ``np.mean`` of each trial's and level's errors alone."""
        signal, noise = SignalSpec("sine", T), NoiseSpec("uniform", (0.2, 0.5, 1.0))
        methods = [PassthroughMethod(), FixedWindowMethod(4)]
        theta = generate_signal(signal, 0)
        want = np.empty((4, 3, 2))
        for trial in range(4):
            rng = np.random.default_rng(5 + trial)
            for li, level in enumerate(noise.levels):
                y = theta + noise.sample(rng, level, T)
                for mi, m in enumerate(methods):
                    want[trial, li, mi] = float(np.mean((m.prefix_estimates(y, 0.0, 0.1) - theta) ** 2))
        report = run_online_eval(signal, noise, methods, trials=4, base_seed=5)
        assert report.mean_mse.tobytes() == want.mean(axis=0).tobytes()
        assert report.std_mse.tobytes() == want.std(axis=0, ddof=1).tobytes()


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


class TestTableText:
    def test_csv_and_json(self):
        header = ("name", "n", "x")
        rows = [("a", 3, 0.1), ("b", np.int64(4), np.float64(2.0)), ("c", 5, float("nan"))]
        assert table_text(header, rows, "csv") == "name,n,x\na,3,0.1\nb,4,2.0\nc,5,nan\n"
        text = table_text(header, [("a", 3, 0.1), ("b", 4, 2.0)], "json")
        assert text.endswith("]\n")
        assert json.loads(text) == [{"name": "a", "n": 3, "x": 0.1}, {"name": "b", "n": 4, "x": 2.0}]

    def test_empty_table_is_the_header(self):
        assert table_text(("a", "b"), [], "csv") == "a,b\n"
        assert table_text(("a", "b"), [], "json") == "[]\n"


class TestMakeMethod:
    @pytest.mark.parametrize("window", [2.7, 4.0, "4", None, 0, True])
    def test_window_must_be_a_positive_integer(self, window):
        with pytest.raises(ValueError, match="window must be a positive integer"):
            FixedWindowMethod(window)
        with pytest.raises(ValueError, match="window must be a positive integer"):
            make_method({"kind": "fixed_window", "window": window})

    def test_wavelet(self):
        m = make_method({"kind": "wavelet", "family": "db8", "sigma": "mad"})
        assert m.name == "db8_mad"

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_method({"kind": "kalman"})

    @pytest.mark.parametrize("spec, cls, attrs", [
        ({"kind": "wavelet", "family": "db4", "sigma": "mad", "name": "w"}, WaveletMethod,
         {"family": "db4", "sigma_mode": "mad", "name": "w"}),
        ({"kind": "adaptive_window", "sigma": "proxy"}, AdaptiveWindowMethod,
         {"sigma_mode": "proxy", "name": "avg_proxy"}),
        ({"kind": "fixed_window", "window": 8}, FixedWindowMethod, {"window": 8, "name": "window8"}),
        ({"kind": "passthrough"}, PassthroughMethod, {"name": "passthrough"}),
    ])
    def test_keys_are_the_constructor_keywords(self, spec, cls, attrs):
        method = make_method(spec)
        assert type(method) is cls
        assert {k: getattr(method, k) for k in attrs} == attrs

    @pytest.mark.parametrize("spec", [5, "wavelet", ["wavelet"], None])
    def test_spec_must_be_a_dict(self, spec):
        with pytest.raises(ValueError, match="method spec must be a JSON object"):
            make_method(spec)

    @pytest.mark.parametrize("family", [5, None, "db9"])
    def test_wavelet_family_checked_when_built(self, family):
        with pytest.raises(ValueError, match="unknown wavelet family"):
            make_method({"kind": "wavelet", "family": family})
        with pytest.raises(ValueError, match="unknown wavelet family"):
            WaveletMethod(family)

    @pytest.mark.parametrize("path", [True, 1, 0])
    def test_replay_path_must_be_a_string(self, path):
        # open() reads an int as a file descriptor, and closes it after
        with pytest.raises(ValueError, match="path must be a string"):
            make_method({"kind": "csv", "path": path})
        os.fstat(1)


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

    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(["doppler", "sine", "random_coin", "piecewise_constant"]),
        T=st.integers(2, 300), family=st.sampled_from(FAMILY_NAMES),
        boundary=st.sampled_from(["reflect", "periodic"]), seed=st.integers(0, 2**32 - 1),
        levels=st.lists(st.sampled_from([0.0, 0.05, 0.2, 1.0]), min_size=1, max_size=3, unique=True),
    )
    def test_matches_the_dense_oracle(self, kind, T, family, boundary, seed, levels):
        """The mean over prefixes t = 2..T of the dense per-prefix
        sparsity_bound, the oracle of perfbench's check_bound_profile, under
        either boundary."""
        theta = generate_signal(SignalSpec(kind, T), seed)
        noise = NoiseSpec("uniform", tuple(levels))
        got = bound_profile(theta, noise, (family,), delta=0.1, boundary=boundary).values[0]
        totals = np.zeros(len(levels))
        for t in range(2, T + 1):
            window = dyadic_truncate(theta[:t])
            vec = reflect_fold(window) if boundary == "reflect" else window
            W = cached_matrix(family, len(vec))
            beta, support = forward(W, vec), last_column_support(W)
            for li, level in enumerate(levels):
                lam = default_lambda(noise.known_sigma(level), 0.1, len(window))
                totals[li] += sparsity_bound(beta, support, lam)
        np.testing.assert_allclose(got, totals / (T - 1), rtol=1e-10, atol=0)

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(["doppler", "random_coin", "piecewise_constant"]),
        n=st.sampled_from([2, 3, 64, 500]), family=st.sampled_from(["haar", "db4", "db8"]),
        boundary=st.sampled_from(["reflect", "periodic"]), seed=st.integers(0, 2**32 - 1),
        levels=st.lists(st.sampled_from([0.0, -0.0, 0.05, 0.2, 0.3, 1.0]), min_size=1, max_size=5),
    )
    def test_bytes_match_one_product_per_noise_level(self, kind, n, family, boundary, seed, levels):
        """Every noise level thresholded at once has the bytes of one
        product per level and noise level, each at its own default_lambda."""
        theta = generate_signal(SignalSpec(kind, n), seed)
        noise = NoiseSpec("uniform", tuple(levels))
        got = bound_profile(theta, noise, (family,), delta=0.1, boundary=boundary).values[0]
        totals = np.zeros(len(levels))
        for m, lo, hi in _kernels._levels(n):
            basis = support_basis(family, m, boundary)
            wts = 6.0 * np.abs(basis.weights)
            coeff_abs = np.abs(basis.sliding(theta, hi - lo))
            for li, level in enumerate(levels):
                lam = default_lambda(noise.known_sigma(level), 0.1, m)
                totals[li] += float((np.minimum(coeff_abs, lam) @ wts).sum())
        assert got.tobytes() == (totals / (n - 1)).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(["doppler", "random_coin", "piecewise_constant"]),
        n=st.integers(2, 600), families=st.lists(st.sampled_from(FAMILY_NAMES), min_size=1, max_size=3),
        boundary=st.sampled_from(["reflect", "periodic"]), seed=st.integers(0, 2**32 - 1),
        levels=st.lists(st.sampled_from([0.0, -0.0, 0.05, 0.2, 0.3, 1.0]), min_size=1, max_size=5),
    )
    def test_each_level_has_the_bytes_of_its_call_alone(self, kind, n, families, boundary, seed, levels):
        """A noise level's bounds do not depend on the levels profiled with it."""
        theta = generate_signal(SignalSpec(kind, n), seed)
        got = bound_profile(theta, NoiseSpec("uniform", tuple(levels)), tuple(families), boundary=boundary)
        for li, level in enumerate(levels):
            alone = bound_profile(theta, NoiseSpec("uniform", (level,)), tuple(families), boundary=boundary)
            assert got.values[:, li].tobytes() == alone.values[:, 0].tobytes(), level

    def test_undefined_threshold_only_with_noise(self):
        # ln(2)/0.8 < 1: the first window size has no threshold but for sigma 0
        theta = generate_signal(SignalSpec("doppler", 64), 0)
        with pytest.raises(DomainError, match="<= 1 leaves the threshold undefined"):
            bound_profile(theta, NoiseSpec("uniform", (0.0, 0.3)), ("haar",), delta=0.8)
        assert bound_profile(theta, NoiseSpec("uniform", (0.0,)), ("haar",), delta=0.8).values.max() == 0.0

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
