import dataclasses
import io
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftwave.denoise import DenoiseConfig, estimate_latest
from driftwave.errors import EmptyPanel, NonFiniteValue, ParseError, RaggedPanel, TooShort
from driftwave.selection import LossSeries, SelectionResult, ingest_panel, select
from driftwave.wavelets import FAMILY_NAMES


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



def drifting_panel(seed: int, models: int, T: int) -> list:
    rng = np.random.default_rng(seed)
    t = np.arange(T) / T
    return [
        LossSeries(
            f"m{k}",
            rng.uniform(-1.0, 1.0) * np.sin(2 * np.pi * rng.uniform(0.5, 4.0) * t)
            + rng.normal(0.0, rng.uniform(0.01, 0.5), T),
        )
        for k in range(models)
    ]


configs = st.builds(
    DenoiseConfig,
    family=st.sampled_from(FAMILY_NAMES),
    sigma=st.one_of(st.just("mad"), st.just(0.0), st.floats(0.01, 2.0)),
    lambda_override=st.one_of(st.none(), st.floats(0.0, 2.0)),
    boundary=st.sampled_from(["reflect", "periodic"]),
)


class TestBatchedSelect:
    """The stacked panel estimate against one ``estimate_latest`` per model."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1), models=st.integers(1, 10), T=st.integers(2, 600),
        cfg=configs, clamp=st.booleans(),
    )
    def test_scores_match_per_model_estimates(self, seed, models, T, cfg, clamp):
        panel = drifting_panel(seed, models, T)
        try:
            want = [estimate_latest(s.losses, cfg).value for s in panel]
        except TooShort:  # MAD on a periodic window of 2 or 3 points
            with pytest.raises(TooShort):
                select(panel, cfg, clamp=clamp)
            return
        if clamp:
            want = [min(max(v, s.losses.min()), s.losses.max()) for v, s in zip(want, panel)]
        result = select(panel, cfg, clamp=clamp)
        scores = result.scores
        assert list(scores) == [s.model_id for s in panel]
        for s, v in zip(panel, want):
            assert abs(scores[s.model_id]["denoised"] - v) <= 1e-10
            assert scores[s.model_id]["raw"] == s.losses[-1]
        assert result.chosen == min(scores, key=lambda mid: (scores[mid]["denoised"], mid))

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1), models=st.integers(2, 10), T=st.integers(4, 600),
        cfg=configs, clamp=st.booleans(), data=st.data(),
    )
    def test_duplicated_series_scores_bit_identical_at_any_position(
        self, seed, models, T, cfg, clamp, data
    ):
        panel = drifting_panel(seed, models, T)
        src = data.draw(st.integers(0, models - 1))
        dst = data.draw(st.integers(0, models - 1).filter(lambda i: i != src))
        # the copy's id sorts first, so only the tie-break can pick it over
        # the original
        panel[dst] = LossSeries("a-copy", panel[src].losses.copy())
        try:
            result = select(panel, cfg, clamp=clamp)
        except TooShort:
            return
        scores = result.scores
        assert scores["a-copy"]["denoised"] == scores[panel[src].model_id]["denoised"]
        if result.chosen in ("a-copy", panel[src].model_id):
            assert result.chosen == "a-copy"

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1), models=st.integers(1, 10), T=st.integers(1, 64),
        data=st.data(),
    )
    def test_first_non_finite_model_in_panel_order_is_named(self, seed, models, T, data):
        panel = drifting_panel(seed, models, T)
        bad = data.draw(st.sets(st.integers(0, models - 1), min_size=1))
        for i in bad:
            t = data.draw(st.integers(0, T - 1))
            panel[i].losses[t] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        with pytest.raises(NonFiniteValue, match=f"'m{min(bad)}'"):
            select(panel, DenoiseConfig(family="db8", sigma="mad"))

    @pytest.mark.parametrize("models", [1, 3])
    def test_length_one_series_too_short(self, models):
        with pytest.raises(TooShort):
            select(panel_from({f"m{i}": [0.5] for i in range(models)}), DenoiseConfig(sigma=0.1))

    @pytest.mark.parametrize("sigma", ["mad", 0.2])
    def test_result_reads_like_the_dict_result(self, sigma):
        cfg = DenoiseConfig(family="db4", sigma=sigma)
        panel = drifting_panel(4, 5, 300)
        result = select(panel, cfg)
        assert result.config == dataclasses.asdict(cfg)
        scores = result.scores
        assert all(list(v) == ["denoised", "raw"] for v in scores.values())
        assert all(type(x) is float for v in scores.values() for x in v.values())
        want = json.dumps(
            {
                "chosen": result.chosen,
                "scores": {mid: scores[mid] for mid in sorted(scores)},
                "config": dataclasses.asdict(cfg),
            },
            indent=2,
        )
        assert result.to_json() == want
        # equality compares choice, scores and config, as the dict fields did:
        # panel order does not enter it
        assert result == select(panel[::-1], cfg)
        assert result == select(panel, dataclasses.replace(cfg))
        assert result != select(panel, dataclasses.replace(cfg, delta=0.2))
        assert result != select(panel[:-1], cfg)

    def test_result_built_and_replaced_from_the_dicts(self):
        cfg = DenoiseConfig(family="db8", sigma="mad")
        result = select(drifting_panel(6, 4, 300), cfg)
        assert SelectionResult(result.chosen, result.scores, result.config) == result
        assert SelectionResult(result.chosen, result.scores, cfg).to_json() == result.to_json()

        scores = {mid: dict(s) for mid, s in result.scores.items()}
        scores[result.chosen]["denoised"] += 1e-8
        perturbed = dataclasses.replace(result, scores=scores)
        assert perturbed.scores == scores and perturbed.chosen == result.chosen
        assert perturbed.config == result.config and perturbed != result

        loser = max(result.scores, key=lambda mid: result.scores[mid]["denoised"])
        wrong = dataclasses.replace(result, chosen=loser)
        assert wrong.chosen == loser and wrong.scores == result.scores
        other = {"family": "haar", "sigma": 0.1}  # any dict reads back as given
        assert dataclasses.replace(result, config=other).config == other

    def test_result_retains_under_1kb_on_an_8_model_panel(self):
        panel = drifting_panel(5, 8, 1500)
        cfg = DenoiseConfig(family="db8", sigma="mad")
        select(panel, cfg)  # warm caches: the support basis, the family
        tracemalloc.start()
        try:
            before = tracemalloc.take_snapshot()
            results = [select(panel, cfg) for _ in range(200)]
            after = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        retained = sum(d.size_diff for d in after.compare_to(before, "filename"))
        assert retained / len(results) < 1024

    def test_result_retains_under_320_bytes_on_an_8_model_panel(self):
        # the object, one 128-byte buffer of the 16 losses, and the list slot;
        # the ids tuple is shared by every result of the panel
        panel = drifting_panel(5, 8, 1500)
        cfg = DenoiseConfig(family="db8", sigma="mad")
        select(panel, cfg)
        tracemalloc.start()
        try:
            before = tracemalloc.take_snapshot()
            results = [select(panel, cfg) for _ in range(200)]
            after = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        retained = sum(d.size_diff for d in after.compare_to(before, "filename"))
        assert retained / len(results) <= 320
        assert len({id(r.model_ids) for r in results}) == 1


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
