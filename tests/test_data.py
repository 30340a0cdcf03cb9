import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reservoirq.data import (Rescaler, SupervisedDataset, generate_narma10,
                             lag_paired_series, load_csv, narma10_response,
                             save_series_csv, split_dataset)
from reservoirq.errors import (CsvLoadError, DegenerateScaleError,
                               GenerationError)
from reservoirq.harness import ExperimentConfig, prepare_data
from reservoirq.numerics import seeded_rng


def forecast_rows(series, offsets, horizon=1):
    """Lagged inputs of x paired with x ``horizon`` steps ahead."""
    x = np.asarray(series, dtype=float)
    return lag_paired_series(x[:-horizon], x[horizon:], offsets)


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
        s, b_next = generate_narma10(500, seeded_rng(9), warmup_discard=100)
        assert s.shape == (500,) and b_next.shape == (500,)
        # regenerating without the discard shows the same aligned pairs
        s_full = seeded_rng(9).uniform(0.0, 0.5, 600)
        np.testing.assert_array_equal(s, s_full[100:])
        np.testing.assert_array_equal(b_next, narma10_response(s_full)[100:])

    def test_drive_mean(self):
        # mean of U[0, 0.5] is 0.25; the 0.005 band is > 20 sigma at 1e5
        s, _ = generate_narma10(100_000, seeded_rng(10), warmup_discard=0)
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
        with pytest.raises(GenerationError):
            generate_narma10(500, rng)
        assert rng.calls == 10

    def test_bad_count_rejected(self):
        with pytest.raises(ValueError):
            generate_narma10(0, seeded_rng(0))


class TestRescaler:
    def test_midpoint(self):
        scaler = Rescaler.fit([2.0, 4.0])
        assert scaler.apply([3.0])[0] == pytest.approx(0.5)

    def test_clipping_counts_out_of_range_points(self):
        scaler = Rescaler.fit([0.0, 1.0])
        out = scaler.apply([-0.5, 0.25, 1.5, 2.0])
        np.testing.assert_array_equal(out, [0.0, 0.25, 1.0, 1.0])
        assert scaler.clip_count == 3
        scaler.apply([5.0])
        assert scaler.clip_count == 4

    def test_constant_segment_rejected(self):
        with pytest.raises(DegenerateScaleError):
            Rescaler.fit([1.0, 1.0, 1.0])


class TestLaggedDataset:
    def test_single_offset(self):
        ds = forecast_rows([1.0, 2.0, 3.0, 4.0, 5.0], offsets=[0])
        np.testing.assert_array_equal(ds.inputs[:, 0], [1.0, 2.0, 3.0, 4.0])
        np.testing.assert_array_equal(ds.targets[:, 0], [2.0, 3.0, 4.0, 5.0])

    def test_row_count_formula(self):
        ds = forecast_rows(np.arange(10.0), offsets=[0, 6, 7])
        assert ds.n_rows == 2  # 10 - 7 - 1

    @given(st.integers(min_value=0, max_value=400))
    @settings(max_examples=30, deadline=None)
    def test_index_bookkeeping_on_arange(self, start):
        series = np.arange(start, start + 30, dtype=float)
        offsets = [0, 3, 5]
        ds = forecast_rows(series, offsets, horizon=2)
        for k in range(ds.n_rows):
            t = 5 + k
            np.testing.assert_array_equal(ds.inputs[k],
                                          [series[t - o] for o in offsets])
            assert ds.targets[k, 0] == series[t + 2]

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            forecast_rows([1.0, 2.0], offsets=[0, 6, 7])

    def test_paired_windowing(self):
        s = np.arange(10.0)
        y = np.arange(100.0, 110.0)
        ds = lag_paired_series(s, y, offsets=[0, 2])
        assert ds.n_rows == 8
        np.testing.assert_array_equal(ds.inputs[0], [2.0, 0.0])
        np.testing.assert_array_equal(ds.targets[:, 0], y[2:])

    @pytest.mark.parametrize("offsets", [[0, -1], [0, 1.5], []])
    def test_bad_offsets_rejected(self, offsets):
        with pytest.raises(ValueError, match="nonnegative"):
            forecast_rows(np.arange(10.0), offsets)

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_rows_pair_lags_with_future_target(self, data):
        # row k, at t = max(offsets) + k, has inputs x(t - o) and target
        # x(t + h); prepare_data's csv dataset holds exactly these rows,
        # split in time order and rescaled by the min and max of the
        # series values the default 2/3 training split touches
        offsets = data.draw(st.lists(st.integers(0, 8), min_size=1, max_size=4),
                            label="offsets")
        horizon = data.draw(st.integers(1, 5), label="horizon")
        max_off = max(offsets)
        n = data.draw(st.integers(max_off + horizon + 2, max_off + horizon + 40),
                      label="length")
        x = np.array(data.draw(st.permutations(range(n)), label="series"), dtype=float)
        ds = forecast_rows(x, offsets, horizon)
        assert ds.n_rows == n - max_off - horizon
        for k in range(ds.n_rows):
            t = max_off + k
            assert list(ds.inputs[k]) == [x[t - o] for o in offsets]
            assert ds.targets[k, 0] == x[t + horizon]

        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "series.csv")
            save_series_csv(path, x)
            prepared = prepare_data(ExperimentConfig(
                dataset="csv", csv_path=path, csv_column="value",
                lag_offsets=tuple(offsets), horizon=horizon))
        train_size = round(2 / 3 * ds.n_rows)
        expected = Rescaler.fit(x[:max_off + train_size + horizon])
        for name in ("inputs", "targets"):
            rows = np.vstack([getattr(prepared.train, name),
                              getattr(prepared.validation, name)])
            np.testing.assert_array_equal(rows, expected.apply(getattr(ds, name)))


class TestSplit:
    def test_counts_and_order(self):
        ds = forecast_rows(np.arange(11.0), offsets=[0])  # 10 rows
        train, val = split_dataset(ds, train_size=7)
        assert train.n_rows == 7 and val.n_rows == 3
        np.testing.assert_array_equal(val.inputs[:, 0], [7.0, 8.0, 9.0])

    def test_no_leakage(self):
        ds = forecast_rows(np.arange(50.0), offsets=[0, 1])  # 48 rows
        train, val = split_dataset(ds, train_size=round(0.6 * 48))
        assert train.targets.max() < val.targets.min()

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_splits_are_disjoint_chronological_and_contiguous(self, data):
        # each row carries its own index, so the splits can be read back
        # as index ranges
        k = data.draw(st.integers(min_value=2, max_value=300), label="rows")
        train_size = data.draw(st.integers(min_value=1, max_value=k - 1),
                               label="train_size")
        val_size = data.draw(st.none() | st.integers(min_value=1,
                                                     max_value=k - train_size),
                             label="validation_size")
        kwargs = {"train_size": train_size, "validation_size": val_size}
        if val_size is None:
            val_size = k - train_size
        rows = np.arange(k, dtype=float)
        ds = SupervisedDataset(inputs=np.column_stack([rows, -rows]),
                               targets=rows[:, None] + 0.5)
        train, val = split_dataset(ds, **kwargs)
        np.testing.assert_array_equal(train.inputs[:, 0], np.arange(train_size))
        np.testing.assert_array_equal(
            val.inputs[:, 0], np.arange(train_size, train_size + val_size))
        # inputs and targets stay paired row by row
        for split in (train, val):
            np.testing.assert_array_equal(split.inputs[:, 1], -split.inputs[:, 0])
            np.testing.assert_array_equal(split.targets[:, 0], split.inputs[:, 0] + 0.5)
        assert not set(train.inputs[:, 0]) & set(val.inputs[:, 0])

    def test_oversized_request_rejected(self):
        ds = forecast_rows(np.arange(10.0), offsets=[0])
        with pytest.raises(ValueError):
            split_dataset(ds, train_size=9, validation_size=5)

    def test_empty_split_rejected(self):
        ds = forecast_rows(np.arange(10.0), offsets=[0])  # 9 rows
        for train_size in (0, 9):
            with pytest.raises(ValueError, match="at least one row"):
                split_dataset(ds, train_size=train_size)


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

    def test_malformed_row_is_located(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("value\n1.0\nbroken\n3.0\n")
        with pytest.raises(CsvLoadError, match="row 3") as info:
            load_csv(path, column="value")
        assert info.value.row == 3

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_value_is_located(self, tmp_path, cell):
        path = tmp_path / "series.csv"
        path.write_text(f"t,value\n0,1.0\n1,2.0\n2,{cell}\n3,4.0\n")
        with pytest.raises(CsvLoadError, match="row 4") as info:
            load_csv(path, column="value")
        assert (info.value.row, info.value.col) == (4, 1)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CsvLoadError, match="cannot read"):
            load_csv(tmp_path / "nope.csv")

    def test_missing_column(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("t,value\n0,1.0\n")
        with pytest.raises(CsvLoadError, match="no column"):
            load_csv(path, column="volume")

    def test_short_row_is_located(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("t,value\n0,1.0\n1\n")
        with pytest.raises(CsvLoadError, match="row 3"):
            load_csv(path, column=1)

    def test_empty_column(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("t,value\n")
        with pytest.raises(CsvLoadError, match="empty"):
            load_csv(path, column="value")

    def test_save_round_trip(self, tmp_path):
        values = seeded_rng(13).uniform(-2.0, 2.0, 25)
        path = tmp_path / "series.csv"
        save_series_csv(path, values)
        np.testing.assert_array_equal(load_csv(path, column="value"), values)
