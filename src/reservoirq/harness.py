"""Experiment orchestration: build a dataset, run seeded trials, aggregate.

A run is fully determined by its config. The dataset is built once from a
substream of the master seed; trial i draws its weights from a seed
derived from (master seed, i) alone, so adding or removing trials never
changes another trial's result. Each trial trains a fresh reservoir
readout (penalty chosen on a held-out tail of the training split) and is
scored on the validation split, driving the reservoir onward from its
end-of-training state since validation follows training in time.
"""

import dataclasses
import os
import typing
from dataclasses import dataclass

import numpy as np

from . import data as datamod
from .esn import EsnModel
from .esqn import EsqnModel
from .metrics import Summary, TrialResult, nmse, summarize
from .numerics import check_integer, one_blas_thread, substream_rng, substream_seed
from .readout import LAMBDA_GRID, collect_states, fit_readout, select_penalty

# Substream tags under the master seed.
DATA_STREAM = 0
TRIAL_STREAM = 1

# Training splits of at most this many rows skip the washout; tiny sets
# cannot afford to discard rows.
AUTO_WASHOUT_MIN_ROWS = 400
AUTO_WASHOUT = 100

NARMA_DEFAULT_OFFSETS = tuple(range(10))
NARMA_TRAIN_SIZE = 1990
NARMA_VALIDATION_SIZE = 390
# A csv config without train_size trains on this share of the rows.
CSV_TRAIN_FRACTION = 2 / 3
# The ESN reservoir's nonzero fraction and target spectral radius.
ESN_DENSITY = 0.15
ESN_SPECTRAL_RADIUS = 0.95


@dataclass(frozen=True)
class ExperimentConfig:
    """What a run varies; see README for the file keys. The rest of the
    protocol is fixed: one-step targets, ``resolve_washout``, the ESN_*
    constants and the sampling defaults of both models' ``random``."""

    csv_path: str | None = None       # unset: the run's series is NARMA-10
    csv_column: int | str = 0
    lag_offsets: tuple[int, ...] = NARMA_DEFAULT_OFFSETS
    train_size: int | None = None
    validation_size: int | None = None
    model: str = "esqn"               # "esn" | "esqn"
    reservoir_size: int = 80
    trials: int = 20
    seed: int = 1
    lambda_grid: tuple[float, ...] = LAMBDA_GRID

    def __post_init__(self):
        if self.model not in ("esn", "esqn"):
            raise ValueError(f"unknown model kind {self.model!r}")
        if self.csv_path == "":
            raise ValueError("csv_path is empty; leave it unset to run NARMA-10")
        for key, least in (("trials", 1), ("reservoir_size", 1), ("train_size", 1),
                           ("validation_size", 2), ("seed", 0), ("csv_column", 0)):
            value = getattr(self, key)
            # an unset split size takes its default; a str column is a header name
            if value is not None and not (key == "csv_column" and isinstance(value, str)):
                check_integer(key, value, least)
        if self.csv_path is None and self.csv_column != 0:
            raise ValueError(f"csv_column {self.csv_column!r} needs a csv_path")
        object.__setattr__(self, "lag_offsets", datamod.check_lag_offsets(self.lag_offsets))
        grid = tuple(float(l) for l in self.lambda_grid)
        if not grid or not all(np.isfinite(l) and l > 0 for l in grid):
            raise ValueError("lambda_grid must be a non-empty tuple of finite "
                             f"positive penalties, got {self.lambda_grid}")
        object.__setattr__(self, "lambda_grid", grid)
        if any(c in self.name for c in ',"\r\n'):
            raise ValueError("series name (the csv_path stem) must hold no comma, "
                             f"double quote or line break, got {self.name!r}")

    @property
    def name(self):
        """The series label in outputs: narma, or the csv file's stem."""
        return "narma" if self.csv_path is None else \
            os.path.splitext(os.path.basename(self.csv_path))[0]

    @classmethod
    def from_file(cls, path):
        """Parse a plain-text key=value config file ('#' starts a comment).

        Each value is cast to its field's annotated type. A non-empty
        relative csv_path is resolved against the config file's own
        directory, so configs can ship next to their data.
        """
        mapping = {}
        with open(path) as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"{path}:{lineno}: expected key=value")
                key, value = (part.strip() for part in line.split("=", 1))
                if key in mapping:
                    raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
                mapping[key] = value
        if mapping.get("csv_path") and not os.path.isabs(mapping["csv_path"]):
            mapping["csv_path"] = os.path.normpath(
                os.path.join(os.path.dirname(os.path.abspath(path)),
                             mapping["csv_path"]))
        fields = {f.name: f for f in dataclasses.fields(cls)}
        kwargs = {}
        for key, raw in mapping.items():
            if key not in fields:
                raise ValueError(f"unknown config key {key!r}")
            try:
                kwargs[key] = _parse_value(fields[key], raw)
            except ValueError as exc:
                raise ValueError(f"config key {key!r}: {exc}") from exc
        return cls(**kwargs)


def _parse_value(field, raw):
    """Cast a config-file string to the field's annotated type.

    ``tuple[T, ...]`` fields take comma-separated T values; a union tries
    its types in order, so ``int | str`` keeps a non-numeric string and
    ``int | None`` reads an int.
    """
    if typing.get_origin(field.type) is tuple:
        cast = typing.get_args(field.type)[0]
        return tuple(cast(part.strip()) for part in raw.split(",") if part.strip())
    casts = [t for t in typing.get_args(field.type) or (field.type,) if t is not type(None)]
    for cast in casts[:-1]:
        try:
            return cast(raw)
        except ValueError:
            pass
    return casts[-1](raw)


@dataclass(frozen=True)
class PreparedData:
    """One run's rows in time order: (rows, n_in) inputs and (rows, 1)
    targets for training, then for the validation rows that follow.
    Inputs lie in [0, 1]; targets may leave it after the training rows."""

    train_inputs: np.ndarray
    train_targets: np.ndarray
    val_inputs: np.ndarray
    val_targets: np.ndarray


@dataclass(frozen=True)
class ExperimentOutcome:
    config: ExperimentConfig
    results: tuple
    summary: Summary
    trace: np.ndarray  # columns: t, target, prediction (final successful trial)


def prepare_data(config):
    """Build the rescaled, windowed dataset and split it in time order.

    Each series takes the affine map sending the min and max of the
    values the training rows touch to 0 and 1. Inputs, which an ESQN
    reads as spike rates, are then clipped to [0, 1]; targets are not.
    The first train_size rows train and the validation_size rows after
    them validate. A csv request that does not fit the series raises
    ValueError naming both sizes and the row count; a narma series is
    generated to fit.
    """
    max_off = max(config.lag_offsets)
    if config.csv_path is None:
        train_size = NARMA_TRAIN_SIZE if config.train_size is None else config.train_size
        val_size = NARMA_VALIDATION_SIZE if config.validation_size is None \
            else config.validation_size
        total = train_size + val_size + max_off
        s, b_next = datamod.generate_narma10(
            total, substream_rng(config.seed, DATA_STREAM))
        # training rows touch s and b indices below max_off + train_size
        fit_end = max_off + train_size
        inputs = datamod.rescale(s, s[:fit_end])
        targets = datamod.rescale(b_next, b_next[:fit_end])
    else:
        series = datamod.load_csv(config.csv_path, config.csv_column)
        n_rows = max(0, len(series) - max_off - 1)
        train_size = round(CSV_TRAIN_FRACTION * n_rows) if config.train_size is None \
            else config.train_size
        val_size = n_rows - train_size if config.validation_size is None \
            else config.validation_size
        # nmse scores at least two validation rows
        if not 2 <= val_size <= n_rows - train_size:
            raise ValueError(
                f"train_size {train_size} and validation_size {val_size} do not fit "
                f"the {n_rows} rows of {config.csv_path}; validation needs two rows")
        # training rows use series indices up to max_off + train_size
        scaled = datamod.rescale(series, series[:max_off + train_size + 1])
        inputs, targets = scaled[:-1], scaled[1:]
    inputs, targets = datamod.lag_paired_series(inputs, targets, config.lag_offsets)
    np.clip(inputs, 0.0, 1.0, out=inputs)
    end = train_size + val_size
    return PreparedData(inputs[:train_size], targets[:train_size],
                        inputs[train_size:end], targets[train_size:end])


def resolve_washout(train_rows):
    washout = AUTO_WASHOUT if train_rows > AUTO_WASHOUT_MIN_ROWS else 0
    # penalty selection holds out two rows and fits at least one
    kept = train_rows - washout
    if kept < 3:
        raise ValueError(f"train_size {train_rows} with washout {washout} keeps {kept} "
                         "training rows; penalty selection needs at least 3")
    return washout


def build_model(config, n_in, rng):
    if config.model == "esn":
        return EsnModel.random(n_in, config.reservoir_size, ESN_DENSITY,
                               ESN_SPECTRAL_RADIUS, rng)
    return EsqnModel.random(n_in, config.reservoir_size, rng)


def run_trial(config, prepared, washout, trial_index):
    """One independently seeded train-and-score pass.

    Returns (TrialResult, predictions), the latter the (rows, 1)
    validation predictions. Raises FloatingPointError, naming the trial
    and the reason, if a non-finite training state, validation state or
    prediction shows up, so the caller can exclude the trial.
    """
    trial_seed = substream_seed(config.seed, TRIAL_STREAM, trial_index)
    rng = np.random.default_rng(trial_seed)
    model = build_model(config, prepared.train_inputs.shape[1], rng)

    regressors = collect_states(model, prepared.train_inputs, washout)
    if not np.all(np.isfinite(regressors)):
        raise FloatingPointError(f"trial {trial_index}: non-finite training state")
    targets = prepared.train_targets[washout:].T
    lam, _ = select_penalty(regressors, targets, grid=config.lambda_grid)
    w_out = fit_readout(regressors, targets, lam)

    val_regressors = collect_states(model, prepared.val_inputs, 0)
    predictions = (w_out @ val_regressors).T
    if not (np.all(np.isfinite(val_regressors)) and np.all(np.isfinite(predictions))):
        raise FloatingPointError(f"trial {trial_index}: non-finite state or prediction")

    result = TrialResult(series=config.name, model=config.model,
                         trial=trial_index, seed=trial_seed,
                         nmse=nmse(prepared.val_targets, predictions),
                         ridge_lambda=lam, reservoir_size=config.reservoir_size)
    return result, predictions


def run_experiment(config):
    """Run all trials of one (series, model) experiment and aggregate.

    Trials whose states or predictions go non-finite are excluded and
    counted in the summary's failure tally rather than aborting the run;
    numpy's overflow and invalid-value warnings are silenced while the
    trials run, since the tally already reports them.
    The run holds numpy's OpenBLAS to one thread (``one_blas_thread``),
    which halves its CPU time and makes its bytes independent of the core
    count; the pin is process-wide while the run lasts, and the old thread
    count comes back when it ends.
    """
    with one_blas_thread():
        prepared = prepare_data(config)
        washout = resolve_washout(len(prepared.train_targets))
        results = []
        failures = 0
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for i in range(config.trials):
                try:
                    result, predictions = run_trial(config, prepared, washout, i)
                except FloatingPointError:
                    failures += 1
                    continue
                results.append(result)
    if not results:
        raise ArithmeticError(f"all {config.trials} trials failed")
    # a failed trial assigns nothing, so these are the last successful trial's
    trace = np.column_stack([np.arange(len(predictions), dtype=float),
                             prepared.val_targets[:, 0], predictions[:, 0]])
    return ExperimentOutcome(config=config, results=tuple(results),
                             summary=summarize(results, failures=failures), trace=trace)


def reservoir_size_sweep(config, sizes):
    """run_experiment per reservoir size (all checked first), sharing the master seed."""
    sized = [dataclasses.replace(config, reservoir_size=size) for size in sizes]
    if not sized:
        raise ValueError("sizes must be non-empty")
    return [(c.reservoir_size, run_experiment(c)) for c in sized]
