import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reservoirq.metrics import (Summary, TrialResult, nmse, results_csv,
                                summarize, summary_csv, sweep_csv, t_interval,
                                t_quantile_975, trace_csv)
from reservoirq.numerics import seeded_rng


def trial(value, series="narma", model="esqn", index=0, lam=1e-3):
    return TrialResult(series=series, model=model, trial=index, seed=index,
                       nmse=value, ridge_lambda=lam, reservoir_size=80)


class TestNmse:
    @given(st.floats(min_value=-5.0, max_value=5.0),
           st.floats(min_value=0.1, max_value=4.0))
    @settings(max_examples=40, deadline=None)
    def test_affine_invariance(self, shift, scale):
        rng = seeded_rng(2)
        targets = rng.normal(size=(20, 1))
        predictions = rng.normal(size=(20, 1))
        base = nmse(targets, predictions)
        moved = nmse(scale * targets + shift, scale * predictions + shift)
        assert moved == pytest.approx(base, rel=1e-9)

    def test_constant_targets_rejected(self):
        with pytest.raises(ValueError, match="targets are constant"):
            nmse(np.ones(5), np.zeros(5))

    def test_constant_single_dimension_rejected(self):
        targets = np.column_stack([np.ones(5), np.arange(5.0)])
        with pytest.raises(ValueError, match="targets are constant"):
            nmse(targets, targets * 0.9)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            nmse(np.ones((4, 1)), np.ones((5, 1)))
        with pytest.raises(ValueError, match="shape mismatch"):
            nmse(np.ones((4, 1)), np.ones((3, 5, 1)))

    def test_targets_of_three_axes_rejected(self):
        with pytest.raises(ValueError, match=r"^targets must be 1-d or K x N_b$"):
            nmse(np.ones((4, 2, 1)), np.ones((4, 2, 1)))

    def test_targets_with_no_output_column_rejected(self):
        # they used to score nan after a RuntimeWarning
        with pytest.raises(ValueError, match="^targets must have at least one output column$"):
            nmse(np.ones((3, 0)), np.ones((3, 0)))

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            nmse([1.0], [1.0])

    @pytest.mark.parametrize("stacked", [False, True], ids=["single", "stack"])
    @pytest.mark.parametrize("name", ["targets", "predictions"])
    def test_non_finite_entry_rejected_naming_its_argument(self, name, stacked):
        # a nan scored nan, which no comparison of scores can rank
        args = {"targets": np.arange(3.0), "predictions": np.array([0.0, 1.0, 1.0])}
        args[name][0] = np.nan
        if stacked:
            args["predictions"] = np.stack([args["predictions"]] * 2)
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            nmse(args["targets"], args["predictions"])

    @pytest.mark.parametrize("shape", [(12,), (12, 2)])
    def test_stack_scores_each_prediction(self, shape):
        rng = seeded_rng(3)
        targets = rng.normal(size=shape)
        stack = rng.normal(size=(4, *shape))
        scores = nmse(targets, stack)
        assert scores.shape == (4,)
        assert scores.tolist() == [nmse(targets, y) for y in stack]


class TestTQuantiles:
    def test_table_spot_values(self):
        # closed forms at 1 dof (Cauchy: tan(0.475 pi)) and 2 dof
        # ((2p - 1) / sqrt(2 p (1 - p)) at p = 0.975), table values beyond
        assert t_quantile_975(1) == pytest.approx(math.tan(0.475 * math.pi), rel=1e-14)
        assert t_quantile_975(2) == pytest.approx(0.95 / math.sqrt(0.04875), rel=1e-14)
        assert t_quantile_975(19) == pytest.approx(2.093024, abs=5e-7)
        assert t_quantile_975(50) == pytest.approx(2.008559, abs=5e-7)

    def test_matches_scipy(self):
        stats = pytest.importorskip("scipy.stats")
        for dof in range(1, 1001):
            assert t_quantile_975(dof) == pytest.approx(
                stats.t.ppf(0.975, dof), rel=1e-9)

    def test_large_dof_exceeds_normal(self):
        # a normal-quantile fallback (1.959964) made the interval 0.6% too
        # narrow at 200 dof and 2.4% at 51
        assert t_quantile_975(51) == pytest.approx(2.007584, abs=5e-7)
        assert t_quantile_975(200) == pytest.approx(1.971896, abs=5e-7)

    def test_zero_dof_rejected(self):
        with pytest.raises(ValueError):
            t_quantile_975(0)


class TestTInterval:
    def test_two_point_hand_value(self):
        # the sample standard deviation of {0, 2} is sqrt(2)
        mean, halfwidth = t_interval([0.0, 2.0])
        assert mean == 1.0
        assert halfwidth == pytest.approx(math.tan(0.475 * math.pi), abs=1e-12)

    def test_single_value_has_no_interval(self):
        assert t_interval([0.4]) == (0.4, None)

    def test_no_values_rejected(self):
        # it used to return a nan mean after a RuntimeWarning
        with pytest.raises(ValueError, match=r"^values must be a non-empty sequence, got \[\]$"):
            t_interval([])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_non_finite_value_rejected(self, bad):
        with pytest.raises(ValueError, match=r"^values must be finite$"):
            t_interval([0.5, bad])

    def test_summarize_reports_the_interval_of_its_scores(self):
        scores = seeded_rng(4).uniform(0.0, 1.0, 7).tolist()
        summary = summarize([trial(v, index=i) for i, v in enumerate(scores)])
        assert (summary.mean_nmse, summary.ci_halfwidth) == t_interval(scores)


class TestSummarize:
    def test_identical_scores_have_zero_width(self):
        summary = summarize([trial(0.25, index=i) for i in range(5)])
        assert summary.mean_nmse == pytest.approx(0.25)
        assert summary.ci_halfwidth == pytest.approx(0.0, abs=1e-15)
        assert summary.n_trials == 5

    def test_two_point_hand_value(self):
        # mean 1; the sample standard deviation of {0, 2} is sqrt(2), so
        # the half-width is t_{0.975, 1} * sqrt(2) / sqrt(2) = tan(0.475 pi)
        summary = summarize([trial(0.0, index=0), trial(2.0, index=1)])
        assert summary.mean_nmse == pytest.approx(1.0)
        assert summary.ci_halfwidth == pytest.approx(math.tan(0.475 * math.pi), abs=1e-12)

    def test_halfwidth_shrinks_like_root_n(self):
        # n copies of the {0, 2} pattern have sample standard deviation
        # s = sqrt(n / (n - 1)), so the half-width must equal
        # t_{0.975, n-1} * s / sqrt(n) and the successive ratios track
        # 1/sqrt(n) up to the t-quantile and s drift
        widths = {}
        for copies in (1, 4, 16):
            scores = [trial(v, index=i)
                      for i, v in enumerate([0.0, 2.0] * copies)]
            n = 2 * copies
            widths[copies] = summarize(scores).ci_halfwidth
            s = np.sqrt(n / (n - 1))
            assert widths[copies] == pytest.approx(
                t_quantile_975(n - 1) * s / np.sqrt(n), abs=1e-12)
        assert widths[4] < widths[1] / 1.9
        assert widths[16] < widths[4] / 1.9

    def test_single_trial_has_no_interval(self):
        summary = summarize([trial(0.4)])
        assert summary.ci_halfwidth is None
        assert summary.n_trials == 1

    def test_modal_lambda_with_smallest_tie_break(self):
        results = [trial(0.1, index=0, lam=1e-3), trial(0.2, index=1, lam=1e-5),
                   trial(0.3, index=2, lam=1e-3), trial(0.4, index=3, lam=1e-5)]
        assert summarize(results).ridge_lambda == 1e-5

    def test_mixed_groups_rejected(self):
        with pytest.raises(ValueError, match="mixed"):
            summarize([trial(0.1, model="esn"), trial(0.2, model="esqn")])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match=r"^results must be a non-empty sequence, got \[\]$"):
            summarize([])

    def test_failures_recorded(self):
        summary = summarize([trial(0.1), trial(0.2, index=1)], failures=3)
        assert summary.failures == 3


class TestEmission:
    def test_results_csv_layout(self):
        text = results_csv([trial(0.125, index=2, lam=1e-4)])
        lines = text.splitlines()
        assert lines[0] == "series,model,trial,seed,nmse,lambda,reservoir_size"
        assert lines[1] == "narma,esqn,2,2,0.125,0.0001,80"

    def test_summary_csv_layout(self):
        summary = Summary(series="narma", model="esqn", n_trials=20,
                          mean_nmse=0.1004, ci_halfwidth=0.0025,
                          ridge_lambda=1e-8, failures=0)
        lines = summary_csv([summary]).splitlines()
        assert lines[0] == "series,model,n,mean_nmse,ci_halfwidth,lambda,failures"
        assert lines[1] == "narma,esqn,20,0.1004,0.0025,1e-08,0"

    def test_summary_csv_blank_interval(self):
        summary = Summary(series="x", model="esn", n_trials=1, mean_nmse=0.5,
                          ci_halfwidth=None, ridge_lambda=0.1)
        assert summary_csv([summary]).splitlines()[1] == "x,esn,1,0.5,,0.1,0"

    def test_trace_csv_layout(self):
        trace = np.array([[0.0, 0.25, 0.125], [1.0, 0.5, 0.75]])
        assert trace_csv(trace) == "t,target,prediction\n0,0.25,0.125\n1,0.5,0.75\n"

    def test_sweep_csv_layout(self):
        sized = [(size, Summary(series="narma", model="esn", n_trials=n,
                                mean_nmse=0.25, ci_halfwidth=hw, ridge_lambda=1e-8))
                 for size, n, hw in ((5, 2, 0.125), (10, 1, None))]
        lines = sweep_csv(sized).splitlines()
        assert lines[0] == "reservoir_size,mean_nmse,ci_halfwidth"
        assert len(lines) == 3
        assert lines[1].startswith("5,") and lines[2].startswith("10,")
        assert lines[1:] == ["5,0.25,0.125", "10,0.25,"]
