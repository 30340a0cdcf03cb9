import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reservoirq.data import (generate_narma10, lag_paired_series, load_csv,
                             narma10_response, rescale)
from reservoirq.harness import ExperimentConfig, prepare_data
from reservoirq.metrics import series_csv
from reservoirq.numerics import seeded_rng


def forecast_rows(series, offsets, horizon=1):
    """Lagged inputs of x paired with x ``horizon`` steps ahead."""
    x = np.asarray(series, dtype=float)
    return lag_paired_series(x[:-horizon], x[horizon:], offsets)


def prepare_csv(series, **config):
    """prepare_data on a csv file holding ``series`` in its value column."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "series.csv")
        with open(path, "w") as fh:
            fh.write(series_csv(series))
        return prepare_data(ExperimentConfig(csv_path=path, csv_column="value", **config))


class TestNarma:
    def test_zero_drive_hand_recurrence(self):
        # with the drive forced to zero: b(1) = 0.1 and
        # b(2) = 0.3 * 0.1 + 0.05 * 0.1 * 0.1 + 0.1 = 0.1305
        out = narma10_response(np.zeros(5))
        assert out[0] == pytest.approx(0.1, abs=1e-15)
        assert out[1] == pytest.approx(0.1305, abs=1e-15)

    def test_seeded_run_reproducible(self):
        a = generate_narma10(2000, seeded_rng(8))
        b = generate_narma10(2000, seeded_rng(8))
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_lengths_and_alignment(self):
        s, b_next = generate_narma10(500, seeded_rng(9))
        assert s.shape == (500,) and b_next.shape == (500,)
        # regenerating with the 200-pair warm-up kept shows the same aligned pairs
        s_full = seeded_rng(9).uniform(0.0, 0.5, 700)
        np.testing.assert_array_equal(s, s_full[200:])
        np.testing.assert_array_equal(b_next, narma10_response(s_full)[200:])

    def test_drive_mean(self):
        # mean of U[0, 0.5] is 0.25; the 0.005 band is > 20 sigma at 1e5
        s, _ = generate_narma10(100_000, seeded_rng(10))
        assert abs(s.mean() - 0.25) < 0.005

    def test_outputs_bounded_by_divergence_limit(self):
        _, b_next = generate_narma10(5000, seeded_rng(11))
        assert np.max(np.abs(b_next)) <= 10.0

    def test_divergent_drives_raise_after_retries(self):
        class SaturatedRng:
            """Drives the recurrence with near-maximal inputs, which has
            no bounded fixed point, so every attempt diverges."""

            def __init__(self):
                self.calls = 0

            def uniform(self, lo, hi, size):
                self.calls += 1
                return np.full(size, 0.4999)

        rng = SaturatedRng()
        with pytest.raises(RuntimeError, match="NARMA-10 diverged on 10"):
            generate_narma10(500, rng)
        assert rng.calls == 10

    def test_bad_count_rejected(self):
        with pytest.raises(ValueError):
            generate_narma10(0, seeded_rng(0))

    def test_boolean_count_rejected(self):
        # True used to pass as 1 and return one pair
        with pytest.raises(ValueError, match="n must be an integer, got True"):
            generate_narma10(True, seeded_rng(0))

    def test_numpy_count_accepted(self):
        s, b_next = generate_narma10(np.int64(5), seeded_rng(0))
        assert s.shape == b_next.shape == (5,)


class TestRescale:
    def test_midpoint(self):
        assert rescale([3.0], [2.0, 4.0])[0] == pytest.approx(0.5)

    def test_values_outside_reference_stay_affine(self):
        out = rescale([-1.0, 2.5, 5.0, 8.0], [2.0, 4.0])
        np.testing.assert_array_equal(out, [-1.5, 0.25, 1.5, 3.0])

    def test_constant_segment_rejected(self):
        with pytest.raises(ValueError, match="reference segment is constant"):
            rescale([1.0], [1.0, 1.0, 1.0])

    @pytest.mark.parametrize("values", [[0.0, np.inf], [np.nan, 1.0], [-np.inf, 0.0]])
    def test_non_finite_reference_rejected(self, values):
        # an infinite bound maps every value to 0; a nan hides the range
        with pytest.raises(ValueError, match="^reference must be finite$"):
            rescale([0.5], values)

    def test_empty_reference_rejected(self):
        with pytest.raises(ValueError, match="^reference must be non-empty$"):
            rescale([1.0], [])


class TestLaggedDataset:
    def test_single_offset(self):
        inputs, targets = forecast_rows([1.0, 2.0, 3.0, 4.0, 5.0], offsets=[0])
        np.testing.assert_array_equal(inputs, [[1.0], [2.0], [3.0], [4.0]])
        np.testing.assert_array_equal(targets, [[2.0], [3.0], [4.0], [5.0]])

    def test_row_count_formula(self):
        inputs, targets = forecast_rows(np.arange(10.0), offsets=[0, 6, 7])
        assert inputs.shape == (2, 3) and targets.shape == (2, 1)  # 10 - 7 - 1

    @given(st.integers(min_value=0, max_value=400))
    @settings(max_examples=30, deadline=None)
    def test_index_bookkeeping_on_arange(self, start):
        series = np.arange(start, start + 30, dtype=float)
        offsets = [0, 3, 5]
        inputs, targets = forecast_rows(series, offsets, horizon=2)
        for k in range(len(targets)):
            t = 5 + k
            np.testing.assert_array_equal(inputs[k], [series[t - o] for o in offsets])
            assert targets[k, 0] == series[t + 2]

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            forecast_rows([1.0, 2.0], offsets=[0, 6, 7])

    def test_paired_windowing(self):
        s = np.arange(10.0)
        y = np.arange(100.0, 110.0)
        inputs, targets = lag_paired_series(s, y, offsets=[0, 2])
        assert inputs.shape == (8, 2)
        np.testing.assert_array_equal(inputs[0], [2.0, 0.0])
        np.testing.assert_array_equal(targets[:, 0], y[2:])

    @pytest.mark.parametrize("s, y, message", [
        (np.arange(5.0), np.arange(4.0), r"targets_series must have shape \(5,\), got \(4,\)"),
        (np.ones((5, 1)), np.arange(5.0),
         r"inputs_series must have shape \(None,\), got \(5, 1\)"),
        (np.arange(5.0), [0.0, 1.0, np.nan, 3.0, 4.0], "targets_series must be finite"),
    ], ids=["unequal-lengths", "2-d", "nan"])
    def test_series_take_the_array_rule(self, s, y, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            lag_paired_series(s, y, offsets=[0, 1])

    @pytest.mark.parametrize("offsets", [[0, -1], [0, 1.5], [], [False, True], [0, 6.0, 7]])
    def test_bad_offsets_rejected(self, offsets):
        with pytest.raises(ValueError, match="nonnegative"):
            forecast_rows(np.arange(10.0), offsets)

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_rows_pair_lags_with_future_target(self, data):
        # row k, at t = max(offsets) + k, has inputs x(t - o) and target
        # x(t + h); prepare_data on a csv file holds exactly the rows of
        # h = 1, split in time order and rescaled by the min and max of
        # the series values the default 2/3 training split touches, with
        # only the inputs clipped to [0, 1]
        offsets = data.draw(st.lists(st.integers(0, 8), min_size=1, max_size=4),
                            label="offsets")
        horizon = data.draw(st.integers(1, 5), label="horizon")
        max_off = max(offsets)
        # at least 5 rows, so the default split validates on two or more
        n = data.draw(st.integers(max_off + horizon + 5, max_off + horizon + 40),
                      label="length")
        x = np.array(data.draw(st.permutations(range(n)), label="series"), dtype=float)
        inputs, targets = forecast_rows(x, offsets, horizon)
        assert len(targets) == n - max_off - horizon
        for k in range(len(targets)):
            t = max_off + k
            assert list(inputs[k]) == [x[t - o] for o in offsets]
            assert targets[k, 0] == x[t + horizon]

        prepared = prepare_csv(x, lag_offsets=tuple(offsets))
        inputs, targets = forecast_rows(x, offsets)
        train_size = round(2 / 3 * len(targets))
        reference = x[:max_off + train_size + 1]
        np.testing.assert_array_equal(
            np.vstack([prepared.train_inputs, prepared.val_inputs]),
            np.clip(rescale(inputs, reference), 0.0, 1.0))
        np.testing.assert_array_equal(
            np.vstack([prepared.train_targets, prepared.val_targets]),
            rescale(targets, reference))


def unit_ramp(n):
    """n series values whose rows can be read back as time indices.

    x(0) = 0 and x(1) = 1 fix the training rescale to the identity, and the
    rest rise strictly inside (0, 1), so no two values coincide.
    """
    return np.concatenate([[0.0, 1.0], np.arange(1, n - 1) / n])


class TestSplit:
    # prepare_data owns the chronological train/validation split
    def test_counts_and_order(self):
        x = unit_ramp(11)  # 10 rows
        prepared = prepare_csv(x, lag_offsets=(0,), train_size=7)
        assert len(prepared.train_inputs) == 7 and len(prepared.val_inputs) == 3
        np.testing.assert_array_equal(prepared.val_inputs[:, 0], x[7:10])

    def test_no_leakage(self):
        x = unit_ramp(50)  # 48 rows at offset 1; targets rise from x(2) on
        prepared = prepare_csv(x, lag_offsets=(1,), train_size=round(0.6 * 48))
        assert prepared.train_targets.max() < prepared.val_targets.min()

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_splits_are_disjoint_chronological_and_contiguous(self, data):
        # each row's input is x(t) and its target x(t + 1), so the splits
        # can be read back as index ranges of x
        k = data.draw(st.integers(min_value=3, max_value=300), label="rows")
        train_size = data.draw(st.integers(min_value=1, max_value=k - 2),
                               label="train_size")
        val_size = data.draw(st.none() | st.integers(min_value=2,
                                                     max_value=k - train_size),
                             label="validation_size")
        x = unit_ramp(k + 1)
        prepared = prepare_csv(x, lag_offsets=(0,), train_size=train_size,
                               validation_size=val_size)
        end = k if val_size is None else train_size + val_size
        np.testing.assert_array_equal(prepared.train_inputs[:, 0], x[:train_size])
        np.testing.assert_array_equal(prepared.val_inputs[:, 0], x[train_size:end])
        # inputs and targets stay paired row by row
        np.testing.assert_array_equal(prepared.train_targets[:, 0], x[1:train_size + 1])
        np.testing.assert_array_equal(prepared.val_targets[:, 0], x[train_size + 1:end + 1])
        assert not set(prepared.train_inputs[:, 0]) & set(prepared.val_inputs[:, 0])

    def test_inputs_clipped_targets_affine(self):
        # the training rows span [0, 1], so the rescale is the identity;
        # the validation rows leave that range on both sides
        x = np.array([0.0, 1.0, 0.5, 0.25, 0.75, 2.0, -1.0, 0.5])
        prepared = prepare_csv(x, lag_offsets=(0,), train_size=4)
        np.testing.assert_array_equal(prepared.val_inputs[:, 0], [0.75, 1.0, 0.0])
        np.testing.assert_array_equal(prepared.val_targets[:, 0], [2.0, -1.0, 0.5])

    def test_oversized_request_rejected(self):
        with pytest.raises(ValueError, match="train_size 9 and validation_size 5 .* 9 rows"):
            prepare_csv(unit_ramp(10), lag_offsets=(0,), train_size=9, validation_size=5)

    def test_empty_split_rejected(self):
        x = unit_ramp(10)  # 9 rows
        with pytest.raises(ValueError, match="train_size must be >= 1"):
            prepare_csv(x, lag_offsets=(0,), train_size=0)
        with pytest.raises(ValueError, match="validation needs two rows"):
            prepare_csv(x, lag_offsets=(0,), train_size=9)
        # the default validation split, the rest of the rows, is one row
        with pytest.raises(ValueError, match="validation_size 1 .* validation needs two"):
            prepare_csv(x, lag_offsets=(0,), train_size=8)


class TestCsv:
    def test_plain_column(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("1.0\n2.5\n3.5\n4.0\n5.5\n")
        series = load_csv(path)
        assert isinstance(series, np.ndarray) and series.dtype == float
        np.testing.assert_array_equal(series, [1.0, 2.5, 3.5, 4.0, 5.5])

    def test_header_and_named_column(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("t,value\n0,10.0\n1,11.5\n")
        np.testing.assert_array_equal(load_csv(path, column="value"), [10.0, 11.5])
        np.testing.assert_array_equal(load_csv(path, column=1), [10.0, 11.5])

    def test_byte_order_mark_is_not_part_of_the_header(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_bytes(b"\xef\xbb\xbfvalue\n10.0\n11.5\n")
        np.testing.assert_array_equal(load_csv(path, column="value"), [10.0, 11.5])

    def test_malformed_row_is_located(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("value\n1.0\nbroken\n3.0\n")
        with pytest.raises(ValueError, match="unparseable value 'broken' at row 3,"):
            load_csv(path, column="value")

    def test_row_after_a_multi_line_record_is_its_file_line(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text('t,value,note\n0,1.0,"two\nlines"\n1,x,ok\n')
        with pytest.raises(ValueError, match="unparseable value 'x' at row 4,"):
            load_csv(path, column="value")

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_value_is_located(self, tmp_path, cell):
        path = tmp_path / "series.csv"
        path.write_text(f"t,value\n0,1.0\n1,2.0\n2,{cell}\n3,4.0\n")
        with pytest.raises(ValueError, match="non-finite value .* at row 4, column 1$"):
            load_csv(path, column="value")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValueError, match="cannot read"):
            load_csv(tmp_path / "nope.csv")

    def test_oversized_field_names_file_and_line(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("value\n1.0\n" + "9" * 140_000 + "\n")
        with pytest.raises(ValueError,
                           match=re.escape(f"{path}: line 3: field larger than field limit")):
            load_csv(path, column="value")

    def test_undecodable_file_is_named(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_bytes(b"value\n1.0\n\xff\n")
        with pytest.raises(ValueError, match=re.escape(f"cannot read {path}: ")):
            load_csv(path, column="value")

    def test_missing_column(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("t,value\n0,1.0\n")
        with pytest.raises(ValueError, match="no column named 'volume'"):
            load_csv(path, column="volume")

    def test_short_row_is_located(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("t,value\n0,1.0\n1\n")
        with pytest.raises(ValueError, match="row 3 has no column 1"):
            load_csv(path, column=1)

    def test_negative_column_rejected(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("t,value\n0,1.0\n1,2.0\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: column must be >= 0, got -2")):
            load_csv(path, column=-2)

    @pytest.mark.parametrize("column", [0.9, True])
    def test_non_integer_column_rejected(self, tmp_path, column):
        # 0.9 used to read column 0, and True column 1
        path = tmp_path / "series.csv"
        path.write_text("t,value\n0,1.0\n1,2.0\n")
        with pytest.raises(ValueError,
                           match=re.escape(f"{path}: column must be an integer, got {column}")):
            load_csv(path, column=column)

    def test_numpy_column_accepted(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("t,value\n0,1.0\n1,2.0\n")
        np.testing.assert_array_equal(load_csv(path, column=np.int64(1)), [1.0, 2.0])

    @pytest.mark.parametrize("text, column, message", [
        ("", 0, "file is empty"),
        ("1.0\n2.0\n", "value", "no header row to resolve column 'value'"),
    ], ids=["empty-file", "named-column-without-header"])
    def test_file_without_the_rows_asked_for_is_named(self, tmp_path, text, column, message):
        path = tmp_path / "series.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}$"):
            load_csv(path, column=column)

    def test_empty_column(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("t,value\n")
        with pytest.raises(ValueError, match="column 1 is empty"):
            load_csv(path, column="value")

    def test_save_round_trip(self, tmp_path):
        values = seeded_rng(13).uniform(-2.0, 2.0, 25)
        path = tmp_path / "series.csv"
        path.write_text(series_csv(values))
        np.testing.assert_array_equal(load_csv(path, column="value"), values)
