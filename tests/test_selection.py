import io
import json

import numpy as np
import pytest

from driftwave.denoise import DenoiseConfig
from driftwave.errors import EmptyPanel, NonFiniteValue, ParseError, RaggedPanel
from driftwave.selection import LossSeries, ingest_panel, select


def panel_from(data: dict) -> list:
    return [LossSeries(mid, np.asarray(vals, dtype=float)) for mid, vals in data.items()]


class TestSelect:
    def test_constant_panel(self):
        panel = panel_from({"A": [1.0] * 8, "B": [2.0] * 8})
        result = select(panel, DenoiseConfig(sigma=0.1))
        assert result.chosen == "A"
        assert result.scores["A"]["raw"] == 1.0

    def test_tie_break_lexicographic(self):
        series = [0.5] * 8
        panel = panel_from({"zeta": series, "alpha": series, "mid": series})
        result = select(panel, DenoiseConfig(sigma=0.1))
        assert result.chosen == "alpha"

    def test_lambda_zero_reduces_to_raw_argmin(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            panel = panel_from(
                {f"m{i}": rng.uniform(0.0, 1.0, 16) for i in range(4)}
            )
            cfg = DenoiseConfig(sigma=1.0, lambda_override=0.0)
            result = select(panel, cfg)
            raw_best = min(panel, key=lambda s: (s.losses[-1], s.model_id)).model_id
            assert result.chosen == raw_best

    def test_dominated_model_never_wins(self):
        rng = np.random.default_rng(1)
        for trial in range(25):
            base = {f"m{i}": rng.uniform(0.2, 1.0, 16) for i in range(3)}
            worst = np.max(np.vstack(list(base.values())), axis=0) + 1.0
            base["dominated"] = worst
            result = select(panel_from(base), DenoiseConfig(sigma=0.1))
            assert result.chosen != "dominated"

    def test_affine_invariance_known_sigma(self):
        rng = np.random.default_rng(2)
        panel_data = {f"m{i}": rng.uniform(0.5, 2.0, 32) for i in range(4)}
        sigma, a, b = 0.2, 3.0, 5.0
        first = select(panel_from(panel_data), DenoiseConfig(sigma=sigma))
        scaled = {mid: a * vals + b for mid, vals in panel_data.items()}
        second = select(panel_from({k: v for k, v in scaled.items()}), DenoiseConfig(sigma=a * sigma))
        assert first.chosen == second.chosen

    @pytest.mark.parametrize("order", [1, -1])
    def test_non_finite_loss_rejected_in_any_panel_order(self, order):
        panel = panel_from({"b": [0.1] * 7 + [float("nan")], "a": [0.5] * 8})[::order]
        with pytest.raises(NonFiniteValue, match="'b'"):
            select(panel, DenoiseConfig(family="db8", sigma="mad"))

    def test_affine_invariance_mad_sigma(self):
        rng = np.random.default_rng(3)
        panel_data = {f"m{i}": rng.uniform(0.5, 2.0, 32) for i in range(4)}
        first = select(panel_from(panel_data), DenoiseConfig(sigma="mad"))
        scaled = {mid: 2.5 * vals + 1.0 for mid, vals in panel_data.items()}
        second = select(panel_from(scaled), DenoiseConfig(sigma="mad"))
        assert first.chosen == second.chosen

    def test_clamp_limits_to_observed_range(self):
        losses = np.concatenate([np.full(15, 5.0), [0.2]])
        panel = [LossSeries("only", losses)]
        cfg = DenoiseConfig(sigma=0.01)
        unclamped = select(panel, cfg).scores["only"]["denoised"]
        clamped = select(panel, cfg, clamp=True).scores["only"]["denoised"]
        assert 0.2 <= clamped <= 5.0
        assert clamped == min(max(unclamped, 0.2), 5.0)

    def test_empty_panel(self):
        with pytest.raises(EmptyPanel):
            select([], DenoiseConfig())

    def test_ragged_panel(self):
        panel = [LossSeries("A", np.ones(8)), LossSeries("B", np.ones(4))]
        with pytest.raises(RaggedPanel):
            select(panel, DenoiseConfig())

    def test_json_output_stable(self):
        panel = panel_from({"B": [1.0] * 8, "A": [2.0] * 8})
        result = select(panel, DenoiseConfig(sigma=0.1))
        payload = json.loads(result.to_json())
        assert list(payload) == ["chosen", "scores", "config"]
        assert list(payload["scores"]) == ["A", "B"]
        assert payload["config"]["delta"] == 0.1

    def test_switching_panel_monte_carlo(self):
        # model A is best before the switch, B after; scoring at the end
        n, switch, sigma, gap = 64, 32, 0.2, 0.5
        a_truth = np.concatenate([np.full(switch, 0.5), np.full(n - switch, 1.0)])
        b_truth = np.concatenate([np.full(switch, 1.0), np.full(n - switch, 0.5)])
        cfg = DenoiseConfig(sigma=sigma, delta=0.1)
        denoised_hits = raw_hits = 0
        for trial in range(100):
            rng = np.random.default_rng(7000 + trial)
            panel = [
                LossSeries("A", a_truth + rng.normal(0, sigma, n)),
                LossSeries("B", b_truth + rng.normal(0, sigma, n)),
            ]
            denoised_hits += select(panel, cfg).chosen == "B"
            raw_hits += min(panel, key=lambda s: s.losses[-1]).model_id == "B"
        assert denoised_hits >= 80
        assert denoised_hits >= raw_hits


class TestIngestPanel:
    def test_two_models(self):
        panel = ingest_panel(io.StringIO("t,modelA,modelB\n1,0.5,0.7\n2,0.4,0.9\n"))
        assert [s.model_id for s in panel] == ["modelA", "modelB"]
        np.testing.assert_array_equal(panel[0].losses, [0.5, 0.4])
        np.testing.assert_array_equal(panel[1].losses, [0.7, 0.9])

    def test_missing_cell(self):
        with pytest.raises(RaggedPanel):
            ingest_panel(io.StringIO("t,a,b\n1,0.5,0.7\n2,0.4\n"))

    def test_nan_cell(self):
        with pytest.raises(NonFiniteValue):
            ingest_panel(io.StringIO("t,a,b\n1,0.5,NaN\n"))

    def test_garbage_cell(self):
        with pytest.raises(ParseError):
            ingest_panel(io.StringIO("t,a\n1,oops\n"))

    def test_bad_header(self):
        with pytest.raises(ParseError):
            ingest_panel(io.StringIO("step,a\n1,0.5\n"))

    def test_non_ascending_time(self):
        with pytest.raises(ParseError):
            ingest_panel(io.StringIO("t,a\n2,0.5\n1,0.6\n"))

    def test_empty_file(self):
        with pytest.raises(ParseError):
            ingest_panel(io.StringIO(""))

    def test_header_only(self):
        with pytest.raises(ParseError):
            ingest_panel(io.StringIO("t,a\n"))

    def test_blank_lines_skipped(self):
        panel = ingest_panel(io.StringIO("t,a\n1,0.5\n\n2,0.6\n"))
        np.testing.assert_array_equal(panel[0].losses, [0.5, 0.6])
