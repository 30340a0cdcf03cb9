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
import re
import typing
from dataclasses import dataclass

import numpy as np

from . import data as datamod
from .esn import MIN_SIZE as ESN_MIN_SIZE, EsnModel
from .esqn import EsqnModel
from .metrics import Summary, TrialResult, nmse, summarize
from .numerics import check_integer, check_sequence, one_blas_thread, seeded_rng, substream_seed
from .readout import LAMBDA_GRID, check_penalties, collect_states, fit_readout, select_penalty

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
# The config's model kinds; each samples its reservoir by its module's law.
MODELS = {"esn": EsnModel, "esqn": EsqnModel}


@dataclass(frozen=True)
class ExperimentConfig:
    """What a run varies; see README for the file keys. The rest of the
    protocol is fixed: one-step targets and the washout (``prepare_data``),
    and the sampling constants of ``esn`` and ``esqn``."""

    csv_path: str | None = None       # unset: the run's series is NARMA-10
    csv_column: str = datamod.VALUE_COLUMN
    lag_offsets: tuple[int, ...] = NARMA_DEFAULT_OFFSETS
    train_size: int | None = None
    validation_size: int | None = None
    model: str = "esqn"               # "esn" | "esqn"
    reservoir_size: int = 80
    trials: int = 20
    seed: int = 1
    lambda_grid: tuple[float, ...] = LAMBDA_GRID

    def __post_init__(self):
        if self.model not in MODELS:
            raise ValueError(f"unknown model kind {self.model!r}")
        if self.csv_path == "":
            raise ValueError("csv_path is empty; leave it unset to run NARMA-10")
        least_size = ESN_MIN_SIZE if self.model == "esn" else 1
        for key, least in (("trials", 1), ("reservoir_size", least_size), ("train_size", 1),
                           ("validation_size", 1), ("seed", 0)):
            value = getattr(self, key)
            if value is not None:  # an unset split size takes its default
                check_integer(key, value, least)
        if self.csv_path is None and self.csv_column != datamod.VALUE_COLUMN:
            raise ValueError(f"csv_column {self.csv_column!r} needs a csv_path")
        object.__setattr__(self, "lag_offsets", datamod.check_lag_offsets(self.lag_offsets))
        object.__setattr__(self, "lambda_grid",
                           check_penalties("lambda_grid", self.lambda_grid))
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
        """Parse a plain-text key=value config file. A '#' at the start of a
        line or after whitespace starts a comment; ``count#1`` is a value.

        Each line is checked as it is read: no '=', an unknown or repeated key,
        or a value that does not cast to its field's type raises ValueError
        naming path:line. A relative csv_path resolves against the file's directory.
        """
        fields = {f.name: f for f in dataclasses.fields(cls)}
        kwargs = {}
        for lineno, raw in enumerate(datamod.read_lines(path), start=1):
            line = re.split(r"(?:^|\s)#", raw, maxsplit=1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in fields:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            if key in kwargs:
                raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
            if key == "csv_path" and value and not os.path.isabs(value):
                value = os.path.normpath(
                    os.path.join(os.path.dirname(os.path.abspath(path)), value))
            try:
                kwargs[key] = _parse_value(fields[key], value)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: config key {key!r}: {exc}") from exc
        return cls(**kwargs)


def _parse_value(field, raw):
    """Cast a config-file string to the field's one type besides ``None``; a
    ``tuple[T, ...]`` takes comma-separated T values, none empty ("" is ())."""
    if typing.get_origin(field.type) is tuple:
        cast = typing.get_args(field.type)[0]
        return tuple(cast(part.strip()) for part in raw.split(",")) if raw else ()
    cast, = (t for t in typing.get_args(field.type) or (field.type,) if t is not type(None))
    return cast(raw)


@dataclass(frozen=True)
class PreparedData:
    """One run's rows in time order: (rows, n_in) inputs and (rows, 1)
    targets for training, then for the validation rows that follow.
    Inputs lie in [0, 1]; targets may leave it after the training rows.
    The first ``washout`` training rows drive the reservoir but fit nothing."""

    train_inputs: np.ndarray
    train_targets: np.ndarray
    val_inputs: np.ndarray
    val_targets: np.ndarray
    washout: int


@dataclass(frozen=True)
class ExperimentOutcome:
    config: ExperimentConfig
    results: tuple
    summary: Summary
    trace: np.ndarray  # columns: t, target, prediction (final successful trial)


def prepare_data(config):
    """Size, check and build one run's rows; the one owner of the split.

    The first train_size rows train (the first AUTO_WASHOUT of them only
    drive the reservoir, above AUTO_WASHOUT_MIN_ROWS) and the next
    validation_size rows validate; a narma series is generated to fit. Under
    2 validation rows, more rows than the series holds, or under 3 training
    rows after the washout raise one ValueError naming the sizes. Each series
    takes the affine map sending the min and max of the values the training
    rows touch to 0 and 1; inputs, read as spike rates, are clipped to [0, 1].
    """
    max_off = max(config.lag_offsets)
    # a size the config sets is at least 1, so ``or`` fills only an unset one
    if config.csv_path is None:
        train_size = config.train_size or NARMA_TRAIN_SIZE
        val_size = config.validation_size or NARMA_VALIDATION_SIZE
        n_rows = train_size + val_size
    else:
        series = datamod.load_csv(config.csv_path, config.csv_column)
        n_rows = max(0, len(series) - max_off - 1)
        train_size = config.train_size or round(CSV_TRAIN_FRACTION * n_rows)
        val_size = config.validation_size or n_rows - train_size
    washout = AUTO_WASHOUT if train_size > AUTO_WASHOUT_MIN_ROWS else 0
    # nmse scores at least two validation rows; penalty selection holds out
    # two training rows and fits at least one
    if not (2 <= val_size <= n_rows - train_size and train_size - washout >= 3):
        raise ValueError(f"train_size {train_size} and validation_size {val_size} do not "
                         f"fit the {n_rows} rows of {config.csv_path or config.name}; "
                         "validation needs two rows, and training three after its "
                         f"washout of {washout}")
    if config.csv_path is None:
        s, b_next = datamod.generate_narma10(n_rows + max_off,
                                             seeded_rng(config.seed, DATA_STREAM))
        # training rows touch s and b indices below max_off + train_size
        inputs = datamod.rescale(s, s[:max_off + train_size])
        targets = datamod.rescale(b_next, b_next[:max_off + train_size])
    else:
        # training rows use series indices up to max_off + train_size
        scaled = datamod.rescale(series, series[:max_off + train_size + 1])
        inputs, targets = scaled[:-1], scaled[1:]
    inputs, targets = datamod.lag_paired_series(inputs, targets, config.lag_offsets)
    np.clip(inputs, 0.0, 1.0, out=inputs)
    end = train_size + val_size
    return PreparedData(inputs[:train_size], targets[:train_size],
                        inputs[train_size:end], targets[train_size:end], washout)


def build_model(config, n_in, rng):
    return MODELS[config.model].random(n_in, config.reservoir_size, rng)


def run_trial(config, prepared, trial_index):
    """One independently seeded train-and-score pass.

    Training drives the reservoir from rest (all zeros); validation follows
    training in time, so it starts from the last training state. Returns
    (TrialResult, predictions), the latter the (rows, 1) validation
    predictions. A trial fails one way, so the caller can exclude it:
    FloatingPointError, naming the trial and the reason, for an ESN draw
    of spectral radius 0 or a non-finite training state, validation state
    or prediction.
    """
    trial_seed = substream_seed(config.seed, TRIAL_STREAM, trial_index)
    try:
        model = build_model(config, prepared.train_inputs.shape[1], seeded_rng(trial_seed))
        regressors = collect_states(model, prepared.train_inputs,
                                    np.zeros(model.n_res))[:, prepared.washout:]
        if not np.all(np.isfinite(regressors)):
            raise FloatingPointError("non-finite training state")
        targets = prepared.train_targets[prepared.washout:].T
        lam, scores = select_penalty(regressors, targets, grid=config.lambda_grid)
        w_out = fit_readout(regressors, targets, lam)
        val_regressors = collect_states(model, prepared.val_inputs, regressors[-model.n_res:, -1])
        predictions = (w_out @ val_regressors).T
        if not (np.all(np.isfinite(val_regressors)) and np.all(np.isfinite(predictions))):
            raise FloatingPointError("non-finite state or prediction")
    except FloatingPointError as exc:
        raise FloatingPointError(f"trial {trial_index}: {exc}") from None

    result = TrialResult(series=config.name, model=config.model,
                         trial=trial_index, seed=trial_seed,
                         nmse=nmse(prepared.val_targets, predictions),
                         ridge_lambda=lam, reservoir_size=config.reservoir_size,
                         holdout_nmse=tuple(scores.items()))
    return result, predictions


def run_experiment(config):
    """Run all trials of one (series, model) experiment and aggregate.

    Trials that fail (``run_trial``'s FloatingPointError) are excluded and
    counted in the summary's failure tally rather than aborting the run,
    unless all fail (ArithmeticError, naming the last); numpy's overflow
    and invalid-value warnings are silenced while the trials run.
    The run holds numpy's OpenBLAS to one thread (``one_blas_thread``),
    which halves its CPU time and makes its bytes independent of the core
    count; the pin is process-wide while the run lasts, and the old thread
    count comes back when it ends.
    """
    with one_blas_thread():
        prepared = prepare_data(config)
        results = []
        failures = []  # each failed trial's reason
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for i in range(config.trials):
                try:
                    result, predictions = run_trial(config, prepared, i)
                except FloatingPointError as exc:
                    failures.append(str(exc))
                    continue
                results.append(result)
    if not results:
        raise ArithmeticError(f"all {config.trials} trials failed; last, {failures[-1]}")
    # a failed trial assigns nothing, so these are the last successful trial's
    trace = np.column_stack([np.arange(len(predictions), dtype=float),
                             prepared.val_targets[:, 0], predictions[:, 0]])
    return ExperimentOutcome(config=config, results=tuple(results),
                             summary=summarize(results, failures=len(failures)), trace=trace)


def reservoir_size_sweep(config, sizes):
    """run_experiment per reservoir size (all checked first), sharing the master seed."""
    sized = check_sequence("sizes", sizes,
                           lambda size: dataclasses.replace(config, reservoir_size=size))
    return [(c.reservoir_size, run_experiment(c)) for c in sized]
