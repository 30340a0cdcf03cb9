import dataclasses
import os
import re
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from reservoirq import cli, harness
from reservoirq.harness import (ExperimentConfig, prepare_data, reservoir_size_sweep,
                                run_experiment)
from reservoirq.metrics import nmse, results_csv, series_csv, summary_csv, trace_csv
from reservoirq.numerics import seeded_rng
from reservoirq.readout import select_penalty


def tiny_narma(**overrides):
    base = dict(train_size=150, validation_size=50,
                reservoir_size=10, trials=2, seed=5, model="esqn")
    base.update(overrides)
    return ExperimentConfig(**base)


# One config-file line (plus any line the key needs to be valid) per
# ExperimentConfig field, and the value it must parse to.
FIELD_CASES = [
    ("csv_path = /data/traffic.csv", "csv_path", "/data/traffic.csv"),
    # a column is a header name, even one that reads as a number
    ("csv_column = 3\ncsv_path = /data/traffic.csv", "csv_column", "3"),
    ("csv_column = bytes\ncsv_path = /data/traffic.csv", "csv_column", "bytes"),
    ("lag_offsets = 0, 6,7", "lag_offsets", (0, 6, 7)),
    ("train_size = 47", "train_size", 47),
    ("validation_size = 15", "validation_size", 15),
    ("model = esn", "model", "esn"),
    ("reservoir_size = 40", "reservoir_size", 40),
    ("trials = 3", "trials", 3),
    ("seed = 7", "seed", 7),
    ("lambda_grid = 1e-6, 0.001,1", "lambda_grid", (1e-6, 1e-3, 1.0)),
    ("\ufefftrials = 2", "trials", 2),  # a UTF-8 byte-order mark is skipped
]

# The entry that each bad lag_offsets tuple of the config tests is rejected
# for; the integer rule names that entry, not the whole tuple.
BAD_OFFSET = {(0, 1.5): 1.5, (0, -1): -1, (False, True): False, (0, 6.0, 7): 6.0}

# Keys that earlier versions accepted, evaluation switches, then the
# protocol's constants, then the dataset kind and series label that
# csv_path now decides; a config that sets one must fail rather than run a
# protocol other than the one it names.
REMOVED_KEYS = ["train_fraction", "bias_weights_fixed_to_one", "esqn_density",
                "readout_inputs", "reset_state_before_validation",
                "rescale_on_full_series", "nmse_on_original_units",
                "horizon", "washout", "density", "spectral_radius", "esn_weight_lo",
                "esn_weight_hi", "weight_lo", "weight_hi", "firing_rate",
                "dataset", "name"]


class TestConfig:
    def test_defaults_follow_reference_protocol(self):
        config = ExperimentConfig()
        assert config.csv_path is None and config.model == "esqn"
        assert config.reservoir_size == 80 and config.trials == 20
        assert config.lag_offsets == tuple(range(10))
        assert config.lambda_grid == tuple(10.0 ** k for k in range(-8, 0))
        assert config.name == "narma"

    def test_from_file(self, config_dir):
        config = ExperimentConfig.from_file(os.path.join(config_dir, "ukerna_esqn.cfg"))
        assert config.name == "ukerna_like"
        assert config.lag_offsets == (0, 6, 7)
        assert config.train_size == 47 and config.validation_size == 15
        assert os.path.isabs(config.csv_path) and os.path.exists(config.csv_path)

    @pytest.mark.parametrize("key", ["wibble", *REMOVED_KEYS])
    def test_unknown_key_rejected(self, tmp_path, key):
        path = tmp_path / "bad.cfg"
        path.write_text(f"trials = 2\n{key} = 1\n")
        with pytest.raises(ValueError, match=f"unknown config key '{key}'"):
            ExperimentConfig.from_file(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("trials = 2\ntrials = 3\n")
        with pytest.raises(ValueError, match="duplicate"):
            ExperimentConfig.from_file(path)

    def test_types_parsed(self, tmp_path):
        path = tmp_path / "ok.cfg"
        path.write_text(
            "trials = 3  # inline comment\nlambda_grid = 0.5\n"
            "lag_offsets = 0, 2, 5\n# a comment\n\n")
        config = ExperimentConfig.from_file(path)
        assert config.trials == 3
        assert config.lambda_grid == (0.5,)
        assert config.lag_offsets == (0, 2, 5)

    @pytest.mark.parametrize("text, key, expected", FIELD_CASES,
                             ids=[text.splitlines()[0].replace(" ", "")
                                  for text, _, _ in FIELD_CASES])
    def test_every_field_parsed_from_text(self, tmp_path, text, key, expected):
        path = tmp_path / "field.cfg"
        path.write_text(text + "\n", encoding="utf-8")
        value = getattr(ExperimentConfig.from_file(path), key)
        assert value == expected
        assert type(value) is type(expected)
        if isinstance(value, tuple):
            assert all(type(v) is type(e) for v, e in zip(value, expected))

    def test_field_cases_cover_every_field(self):
        assert {key for _, key, _ in FIELD_CASES} == \
            {f.name for f in dataclasses.fields(ExperimentConfig)}

    def test_every_field_set_by_a_shipped_config(self, config_dir):
        # a key that no shipped config sets belongs in the protocol's
        # constants; lambda_grid stays a key so that a wider penalty grid
        # can be studied without changing the default one
        keys = set()
        for name in os.listdir(config_dir):
            if not name.endswith(".cfg"):
                continue
            with open(os.path.join(config_dir, name)) as fh:
                keys.update(line.split("#", 1)[0].split("=", 1)[0].strip()
                            for line in fh if "=" in line.split("#", 1)[0])
        assert keys | {"lambda_grid"} == \
            {f.name for f in dataclasses.fields(ExperimentConfig)}

    def test_empty_csv_path_is_missing(self, tmp_path):
        # an empty value is neither a relative path to the config's
        # directory nor a request for NARMA-10
        path = tmp_path / "bad.cfg"
        path.write_text("csv_path =\n")
        with pytest.raises(ValueError, match="csv_path is empty"):
            ExperimentConfig.from_file(path)

    def test_readme_config_table_lists_every_field(self, fixture_root):
        # the first column of each row of the README's "Config files"
        # table names one or more keys in backticks
        with open(os.path.join(os.path.dirname(fixture_root), "README.md")) as fh:
            section = fh.read().split("## Config files", 1)[1].split("\n## ", 1)[0]
        keys = {key for line in section.splitlines() if line.startswith("| `")
                for key in re.findall(r"`([^`]+)`", line.split("|")[1])}
        assert keys == {f.name for f in dataclasses.fields(ExperimentConfig)}

    @pytest.mark.parametrize("line, match", [
        ("lambda_grid = 1e-3, small", "lambda_grid.*float"),
        ("lambda_grid = nan", "lambda_grid.*nan"),
        ("lambda_grid =", r"lambda_grid.*got \(\)"),
        ("lambda_grid = 0, 1e-8", r"lambda_grid.*positive.*\(0\.0, 1e-08\)"),
        # a repeat would leave two candidates with one holdout score
        ("lambda_grid = 1e-3, 0.001, 1e-2", r"lambda_grid must not repeat a penalty, "
                                             r"got \(0\.001, 0\.001, 0\.01\)"),
        ("train_size = 0", "train_size.*0"),
        ("trials = 2.5", "int"),
        ("validation_size = none", "int"),
        ("lag_offsets = 0, 1.5", "int"),
        # an unknown key and a failed cast name the file and the real line
        ("trials = 2\nwibble = 1", r"bad\.cfg:2: unknown config key 'wibble'"),
        ("# a comment\n\ntrials = 2.5", r"bad\.cfg:3: config key 'trials'.*int"),
        ("trials 2", r"bad\.cfg:1: expected key=value$"),
        # an empty entry of a comma list is malformed, not skipped
        ("lag_offsets = 0,,6", r"bad\.cfg:1: config key 'lag_offsets'.*int.*''"),
        ("lambda_grid = 1e-3,", r"bad\.cfg:1: config key 'lambda_grid'.*float.*''"),
    ])
    def test_malformed_value_rejected(self, tmp_path, line, match):
        path = tmp_path / "bad.cfg"
        path.write_text(line + "\n")
        with pytest.raises(ValueError, match=match):
            ExperimentConfig.from_file(path)

    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(model="perceptron")
        with pytest.raises(ValueError):
            ExperimentConfig(trials=0)
        with pytest.raises(ValueError, match="csv_path"):
            ExperimentConfig(csv_path="")

    @pytest.mark.parametrize("overrides", [
        {"lag_offsets": (0, 1.5)},
        {"lag_offsets": (0, -1)},
        {"lag_offsets": ()},
        {"train_size": 0},
        {"validation_size": -3},
        # a split size is a count of at least 1; prepare_data judges the rest
        {"validation_size": 0},
        {"lambda_grid": ()},
        {"lambda_grid": (1e-3, -1e-2)},
        {"lambda_grid": (float("nan"),)},
        {"lambda_grid": (1e-3, float("inf"))},
        {"lambda_grid": (0.0, 1e-8)},
        # a bool or a string is not a penalty, though float() takes both
        {"lambda_grid": (True, 1e-3)},
        {"lambda_grid": ("1e-3",)},
        # a column to read needs a file to read it from
        {"csv_column": 3},
        {"seed": -1},
        # counts are integers, not floats that happen to be whole
        {"trials": 1.5},
        {"train_size": 150.0},
        # offsets follow the same integer rule: no bool, no whole float
        {"lag_offsets": (False, True)},
        {"lag_offsets": (0, 6.0, 7)},
        # a scalar is no sequence, not even of one entry
        {"lag_offsets": 5},
        {"lambda_grid": 1e-3},
    ])
    def test_bad_lags_and_horizon_rejected(self, overrides):
        with pytest.raises(ValueError) as info:
            ExperimentConfig(**overrides)
        for key, value in overrides.items():
            if key == "lag_offsets":
                value = BAD_OFFSET.get(value, value)
            assert key in str(info.value) and str(value) in str(info.value)

    @pytest.mark.parametrize("overrides, name", [
        # the series name is the csv file stem
        ({"csv_path": "/data/a,b.csv"}, "a,b"),
        ({"csv_path": '/data/say "hi".csv'}, 'say "hi"'),
        ({"csv_path": "/data/two\nlines.csv"}, "two\nlines"),
        ({"csv_path": "/data/cr\r.csv"}, "cr\r"),
        ({"csv_path": "/data/x,y.csv"}, "x,y"),
    ])
    def test_name_that_would_break_the_csvs_rejected(self, overrides, name):
        with pytest.raises(ValueError, match="name") as info:
            ExperimentConfig(**overrides)
        assert repr(name) in str(info.value)

    @pytest.mark.parametrize("overrides", [
        # each of these used to run something else: one trial and seed 0
        {"trials": True},
        {"seed": False},
    ])
    def test_non_integer_counts_rejected(self, overrides):
        key, value = next(iter(overrides.items()))
        with pytest.raises(ValueError) as info:
            ExperimentConfig(**overrides)
        assert str(info.value) == f"{key} must be an integer, got {value!r}"

    def test_numpy_integer_counts_accepted(self):
        config = ExperimentConfig(train_size=np.int64(40), validation_size=np.int64(9),
                                  reservoir_size=np.int64(5), trials=np.int64(2),
                                  seed=np.uint32(3), lag_offsets=(np.int64(0), np.uint8(2)))
        assert (config.trials, config.seed) == (2, 3)
        assert config.lag_offsets == (0, 2)

    def test_numpy_and_integer_penalties_accepted(self):
        config = ExperimentConfig(lambda_grid=(np.float64(1e-3), np.float32(0.5), 2))
        assert config.lambda_grid == (1e-3, 0.5, 2.0)
        assert all(type(l) is float for l in config.lambda_grid)


class TestPrepareData:
    def test_narma_reference_sizes(self):
        prepared = prepare_data(ExperimentConfig())
        assert prepared.train_inputs.shape == (1990, 10)
        assert prepared.val_inputs.shape == (390, 10)
        assert prepared.train_targets.shape == (1990, 1)
        assert prepared.val_targets.shape == (390, 1)

    def test_narma_values_rescaled(self):
        prepared = prepare_data(ExperimentConfig())
        for block in (prepared.train_inputs, prepared.train_targets,
                      prepared.val_inputs, prepared.val_targets):
            assert block.min() >= 0.0 and block.max() <= 1.0

    def test_narma_dataset_shared_across_models(self):
        esqn = prepare_data(tiny_narma())
        esn = prepare_data(tiny_narma(model="esn"))
        np.testing.assert_array_equal(esqn.train_inputs, esn.train_inputs)

    def test_csv_protocol_sizes(self, config_dir):
        config = ExperimentConfig.from_file(os.path.join(config_dir, "isp_esqn.cfg"))
        prepared = prepare_data(config)
        assert prepared.train_inputs.shape == (9848, 7)
        assert prepared.val_inputs.shape == (4924, 7)
        assert prepared.train_targets.shape == (9848, 1)
        assert prepared.val_targets.shape == (4924, 1)

    def test_washout_rule(self):
        # 100 steps are discarded above 400 training rows, none at or below
        for train_size, washout in ((1990, 100), (401, 100), (400, 0), (47, 0), (3, 0)):
            assert prepare_data(tiny_narma(train_size=train_size)).washout == washout
        # penalty selection holds out two rows and must fit one more
        with pytest.raises(ValueError, match="train_size 2 .* training three after its "
                                             "washout of 0"):
            prepare_data(tiny_narma(train_size=2))

    @pytest.mark.parametrize("source", ["narma", "csv"])
    def test_one_validation_row_rejected(self, source, tmp_path):
        # nmse needs two validation rows to score; the config admits any
        # count of at least 1, and prepare_data alone judges the split
        csv = {}
        if source == "csv":
            path = tmp_path / "series.csv"
            path.write_text(series_csv(seeded_rng(4).uniform(size=40)))
            csv = {"csv_path": str(path), "csv_column": "value"}
        config = tiny_narma(lag_offsets=(0,), train_size=20, validation_size=1, **csv)
        with pytest.raises(ValueError, match="train_size 20 and validation_size 1 .* "
                                             "validation needs two rows"):
            prepare_data(config)


class TestRunExperiment:
    def test_trial_results_independent_of_trial_count(self):
        short = run_experiment(tiny_narma(trials=2))
        long = run_experiment(tiny_narma(trials=4))
        assert short.results == long.results[:2]

    def test_holdout_scores_equal_a_direct_penalty_selection(self):
        config = tiny_narma(lambda_grid=(1e-2, 1e-6, 1.0, 1e-4))
        prepared = prepare_data(config)
        result, _ = harness.run_trial(config, prepared, 1)
        model = harness.build_model(config, prepared.train_inputs.shape[1],
                                    np.random.default_rng(result.seed))
        regressors = model.run(prepared.train_inputs)[:, prepared.washout:]
        _, scores = select_penalty(regressors, prepared.train_targets[prepared.washout:].T,
                                   grid=config.lambda_grid)
        assert result.holdout_nmse == tuple(scores.items())
        assert [lam for lam, _ in result.holdout_nmse] == [1e-6, 1e-4, 1e-2, 1.0]

    @pytest.mark.parametrize("model", ["esn", "esqn"])
    def test_selected_penalty_is_the_first_argmin_of_the_scores(self, model):
        for result in run_experiment(tiny_narma(model=model, trials=4)).results:
            lams, scores = zip(*result.holdout_nmse)
            assert result.ridge_lambda == lams[int(np.argmin(scores))]
            hash(result)  # the frozen result stays hashable

    def test_summary_matches_results(self):
        outcome = run_experiment(tiny_narma(trials=3))
        scores = [r.nmse for r in outcome.results]
        assert outcome.summary.mean_nmse == pytest.approx(np.mean(scores))
        assert outcome.summary.n_trials == 3
        assert outcome.summary.failures == 0

    def test_trace_covers_validation_rows(self):
        outcome = run_experiment(tiny_narma())
        assert outcome.trace.shape == (50, 3)
        np.testing.assert_array_equal(outcome.trace[:, 0], np.arange(50.0))

    def test_target_beyond_training_range_scored_affine(self, tmp_path):
        # the training rows span [0, 1], so the rescale is the identity, and
        # the validation target 1.5 is scored as 1.5, not clipped to 1
        x = np.concatenate([[0.0, 1.0], seeded_rng(3).uniform(0.1, 0.9, 28)])
        x[25] = 1.5
        path = tmp_path / "series.csv"
        path.write_text(series_csv(x))
        outcome = run_experiment(ExperimentConfig(
            csv_path=str(path), csv_column="value", lag_offsets=(0,),
            train_size=20, model="esn", reservoir_size=5, trials=1))
        np.testing.assert_array_equal(outcome.trace[:, 1], x[21:])
        assert outcome.summary.mean_nmse == nmse(outcome.trace[:, 1], outcome.trace[:, 2])

    def test_seed_changes_results(self):
        a = run_experiment(tiny_narma(seed=5))
        b = run_experiment(tiny_narma(seed=6))
        assert a.summary.mean_nmse != b.summary.mean_nmse

    def test_failed_trials_are_excluded_and_counted(self, monkeypatch):
        real_run_trial = harness.run_trial

        def flaky(config, prepared, trial_index):
            if trial_index == 1:
                raise FloatingPointError("forced failure")
            return real_run_trial(config, prepared, trial_index)

        monkeypatch.setattr(harness, "run_trial", flaky)
        outcome = run_experiment(tiny_narma(trials=3))
        assert outcome.summary.failures == 1
        assert outcome.summary.n_trials == 2
        assert [r.trial for r in outcome.results] == [0, 2]

    def test_non_finite_training_states_fail_only_their_trial(self, monkeypatch):
        config = tiny_narma(trials=3)
        clean = run_experiment(config)
        real_build_model = harness.build_model
        built = []

        def poisoned(config, n_in, rng):
            model = real_build_model(config, n_in, rng)
            if len(built) == 1:
                # a nan weight set past the constructor's check makes every load nan
                model.w_plus_res[:] = np.nan
            built.append(model)
            return model

        monkeypatch.setattr(harness, "build_model", poisoned)
        outcome = run_experiment(config)
        assert outcome.summary.failures == 1
        assert outcome.results == (clean.results[0], clean.results[2])

    def test_non_finite_training_state_names_trial_and_reason(self, monkeypatch):
        config = tiny_narma()
        real_build_model = harness.build_model

        def poisoned(config, n_in, rng):
            model = real_build_model(config, n_in, rng)
            model.w_plus_res[:] = np.nan
            return model

        monkeypatch.setattr(harness, "build_model", poisoned)
        prepared = prepare_data(config)
        with pytest.raises(FloatingPointError,
                           match="trial 1: non-finite training state"):
            harness.run_trial(config, prepared, 1)

    def test_non_finite_predictions_fail_only_their_trial_by_name(self, monkeypatch):
        config = tiny_narma(trials=3)
        clean = run_experiment(config)
        real_fit_readout = harness.fit_readout
        fits = []

        def poisoned(regressors, targets, lam):
            # the second trial's readout predicts nan
            fits.append(real_fit_readout(regressors, targets, lam))
            return fits[-1] * np.nan if len(fits) == 2 else fits[-1]

        monkeypatch.setattr(harness, "fit_readout", poisoned)
        outcome = run_experiment(config)
        assert outcome.summary.failures == 1
        assert outcome.results == (clean.results[0], clean.results[2])
        prepared = prepare_data(config)
        monkeypatch.setattr(harness, "fit_readout", lambda *args: real_fit_readout(*args) * np.nan)
        with pytest.raises(FloatingPointError,
                           match="^trial 1: non-finite state or prediction$"):
            harness.run_trial(config, prepared, 1)

    def test_trace_is_the_last_successful_trials(self, monkeypatch):
        real_run_trial = harness.run_trial

        def last_fails(config, prepared, trial_index):
            if trial_index == 2:
                raise FloatingPointError("forced failure")
            return real_run_trial(config, prepared, trial_index)

        monkeypatch.setattr(harness, "run_trial", last_fails)
        outcome = run_experiment(tiny_narma(trials=3))
        assert [r.trial for r in outcome.results] == [0, 1]
        np.testing.assert_array_equal(outcome.trace, run_experiment(tiny_narma()).trace)

    def test_all_trials_failing_raises(self, monkeypatch):
        def doomed(config, prepared, trial_index):
            raise FloatingPointError(f"trial {trial_index}: forced failure")

        monkeypatch.setattr(harness, "run_trial", doomed)
        # the last failure's message, which names its trial once
        with pytest.raises(ArithmeticError,
                           match=r"^all 2 trials failed; last, trial 1: forced failure$"):
            run_experiment(tiny_narma())

    def test_nilpotent_esn_draws_fail_only_their_trials(self):
        # 13 of this run's 20 draws have spectral radius 0; each must fail
        # its own trial, named, and leave the other 7 to run
        config = tiny_narma(model="esn", reservoir_size=3, trials=20, seed=1)
        outcome = run_experiment(config)
        assert (outcome.summary.failures, outcome.summary.n_trials) == (13, 7)
        failed = sorted(set(range(20)) - {r.trial for r in outcome.results})
        prepared = prepare_data(config)
        with pytest.raises(FloatingPointError, match=rf"^trial {failed[-1]}: 3-unit reservoir "
                                                     "drawn with spectral radius 0$"):
            harness.run_trial(config, prepared, failed[-1])

    def test_esn_variant_runs(self):
        outcome = run_experiment(tiny_narma(model="esn", reservoir_size=20))
        assert outcome.summary.model == "esn"
        assert np.isfinite(outcome.summary.mean_nmse)


class TestSweep:
    def test_single_size_equals_run_experiment(self):
        config = tiny_narma()
        outcomes = reservoir_size_sweep(config, [10])
        direct = run_experiment(config)
        assert outcomes[0][0] == 10
        assert outcomes[0][1].summary == direct.summary

    def test_empty_sizes_rejected(self):
        with pytest.raises(ValueError):
            reservoir_size_sweep(tiny_narma(), [])

    def test_numpy_size_accepted(self):
        [(size, outcome)] = reservoir_size_sweep(tiny_narma(reservoir_size=20),
                                                 [np.int64(10)])
        assert size == 10
        assert outcome.summary == run_experiment(tiny_narma()).summary

    @pytest.mark.parametrize("sizes, bad", [([10.7], 10.7), ([True], True),
                                            ([10, 10.7], 10.7)])
    def test_non_integer_size_rejected_before_any_run(self, monkeypatch, sizes, bad):
        # 10.7 used to run and be reported as size 10
        monkeypatch.setattr(harness, "run_experiment", None)
        with pytest.raises(ValueError) as info:
            reservoir_size_sweep(tiny_narma(), sizes)
        assert str(info.value) == f"reservoir_size must be an integer, got {bad!r}"

    def test_scalar_sizes_rejected_before_any_run(self, monkeypatch):
        # a scalar is no list of sizes, not even of one
        monkeypatch.setattr(harness, "run_experiment", None)
        with pytest.raises(ValueError, match="^sizes must be a non-empty sequence, got 80$"):
            reservoir_size_sweep(tiny_narma(), 80)

    def test_one_unit_esn_rejected_before_any_run(self, monkeypatch):
        # size 10 used to run in full before size 1 failed in build_model
        monkeypatch.setattr(harness, "run_experiment", None)
        with pytest.raises(ValueError) as info:
            reservoir_size_sweep(tiny_narma(model="esn"), [10, 1])
        assert str(info.value) == "reservoir_size must be >= 2, got 1"
        # an ESQN of one unit is a valid reservoir
        assert tiny_narma(reservoir_size=1).reservoir_size == 1


class TestOutputs:
    def test_files_written(self, tmp_path, monkeypatch):
        config_path = tmp_path / "tiny.cfg"
        config_path.write_text("train_size = 150\n"
                               "validation_size = 50\nreservoir_size = 10\n"
                               "trials = 2\nseed = 5\nmodel = esqn\n")
        monkeypatch.chdir(tmp_path)
        assert cli.main(["experiment", "--config", str(config_path)]) == 0
        outcome = run_experiment(tiny_narma())
        expected = {"results.csv": results_csv(outcome.results),
                    "summary.csv": summary_csv([outcome.summary]),
                    "trace.csv": trace_csv(outcome.trace)}
        for name, text in expected.items():
            assert (tmp_path / name).read_text() == text
        with open(tmp_path / "trace.csv") as fh:
            assert fh.readline().strip() == "t,target,prediction"


# Runs in a fresh interpreter: a full experiment, a wide spectral radius
# and a ridge solve, then reports any scipy module loaded.
NUMPY_ONLY_CHILD = textwrap.dedent("""
    import sys
    import numpy as np
    from reservoirq import ExperimentConfig, ridge_solve, run_experiment, spectral_radius

    run_experiment(ExperimentConfig.from_file(sys.argv[1]))
    spectral_radius(np.random.default_rng(0).normal(size=(600, 600)))
    z = np.random.default_rng(1).normal(size=(4, 40))
    ridge_solve(z, np.ones((1, 4)) @ z, 1e-12)
    print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
""")


class TestRuntimeImports:
    def test_no_scipy_module_loaded_at_run_time(self, config_dir, subprocess_env):
        # numpy and scipy each bundle their own BLAS; loading both puts two
        # thread pools on the same cores
        proc = subprocess.run(
            [sys.executable, "-c", NUMPY_ONLY_CHILD,
             os.path.join(config_dir, "narma_tiny.cfg")],
            capture_output=True, text=True, env=subprocess_env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


# Runs one NARMA ESN trial in a fresh interpreter and prints its results.csv.
ONE_TRIAL_CHILD = textwrap.dedent("""
    import dataclasses, sys
    from reservoirq import ExperimentConfig, run_experiment
    from reservoirq.metrics import results_csv

    config = dataclasses.replace(ExperimentConfig.from_file(sys.argv[1]), trials=1)
    print(results_csv(run_experiment(config).results), end="")
""")


class TestBlasThreads:
    def test_results_independent_of_blas_thread_count(self, config_dir, subprocess_env):
        # Unpinned, trial 0's NMSE moves in its last digits between 1 and 2
        # OpenBLAS threads. On a 1-core host OpenBLAS caps the count at 1,
        # so both children run alike and the test passes trivially there.
        texts = []
        for threads in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-c", ONE_TRIAL_CHILD,
                 os.path.join(config_dir, "narma_esn.cfg")],
                capture_output=True, text=True, timeout=120,
                env=dict(subprocess_env, OPENBLAS_NUM_THREADS=threads))
            assert proc.returncode == 0, proc.stderr
            texts.append(proc.stdout)
        assert len(texts[0].splitlines()) == 2  # header and trial 0
        assert texts[0] == texts[1]
