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
from .metrics import (Summary, TrialResult, nmse, results_csv, summarize,
                      summary_csv)
from .numerics import one_blas_thread, substream_rng, substream_seed
from .readout import LAMBDA_GRID, collect_states, fit_readout, select_penalty

# Substream tags under the master seed.
DATA_STREAM = 0
TRIAL_STREAM = 1

# Training splits shorter than this skip the washout by default; tiny
# sets cannot afford to discard rows.
AUTO_WASHOUT_MIN_ROWS = 400
AUTO_WASHOUT = 100

NARMA_DEFAULT_OFFSETS = tuple(range(10))
NARMA_TRAIN_SIZE = 1990
NARMA_VALIDATION_SIZE = 390
# A csv config without train_size trains on this share of the rows.
CSV_TRAIN_FRACTION = 2 / 3


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a benchmark run depends on; see README for the file keys."""

    dataset: str = "narma"            # "narma" | "csv"
    name: str = ""                    # series label; defaults per dataset
    csv_path: str | None = None
    csv_column: int | str = 0
    lag_offsets: tuple[int, ...] = NARMA_DEFAULT_OFFSETS
    horizon: int = 1
    train_size: int | None = None
    validation_size: int | None = None
    model: str = "esqn"               # "esn" | "esqn"
    reservoir_size: int = 80
    trials: int = 20
    seed: int = 1
    washout: int | None = None        # None: auto (100 on large splits, else 0)
    # ESN knobs
    density: float = 0.15
    spectral_radius: float = 0.95
    esn_weight_lo: float = -0.5
    esn_weight_hi: float = 0.5
    # ESQN knobs
    weight_lo: float = 0.0
    weight_hi: float = 0.2
    firing_rate: float = 1.0
    # Readout / evaluation
    lambda_grid: tuple[float, ...] = LAMBDA_GRID

    def __post_init__(self):
        if self.dataset not in ("narma", "csv"):
            raise ValueError(f"unknown dataset kind {self.dataset!r}")
        if self.model not in ("esn", "esqn"):
            raise ValueError(f"unknown model kind {self.model!r}")
        if self.dataset == "csv" and not self.csv_path:
            raise ValueError("csv dataset needs csv_path")
        for key, least in (("trials", 1), ("reservoir_size", 1), ("horizon", 1),
                           ("train_size", 1), ("validation_size", 1), ("washout", 0)):
            value = getattr(self, key)
            if value is not None and value < least:
                raise ValueError(f"{key} must be >= {least}, got {value}")
        if self.dataset == "narma":
            for key, default in (("csv_path", None), ("horizon", 1)):
                if getattr(self, key) != default:
                    raise ValueError(f"{key} applies to a csv dataset only, "
                                     f"got {getattr(self, key)!r} with dataset narma")
        offsets = tuple(int(o) for o in self.lag_offsets)
        if not offsets or offsets != tuple(self.lag_offsets) or min(offsets) < 0:
            raise ValueError(
                "lag_offsets must be a non-empty tuple of nonnegative integers, "
                f"got {self.lag_offsets}")
        object.__setattr__(self, "lag_offsets", offsets)
        for key in ("density", "spectral_radius", "esn_weight_lo", "esn_weight_hi",
                    "weight_lo", "weight_hi", "firing_rate"):
            value = getattr(self, key)
            if not np.isfinite(value):
                raise ValueError(f"{key} must be finite, got {value}")
        for lo, hi in (("esn_weight_lo", "esn_weight_hi"), ("weight_lo", "weight_hi")):
            bounds = float(getattr(self, lo)), float(getattr(self, hi))
            if not np.isfinite(bounds[1] - bounds[0]):
                raise ValueError(f"{lo} and {hi} must span a finite width, got {bounds}")
        grid = tuple(float(l) for l in self.lambda_grid)
        if not grid or not all(np.isfinite(l) and l > 0 for l in grid):
            raise ValueError("lambda_grid must be a non-empty tuple of finite "
                             f"positive penalties, got {self.lambda_grid}")
        object.__setattr__(self, "lambda_grid", grid)
        if not self.name:
            default = "narma" if self.dataset == "narma" else \
                os.path.splitext(os.path.basename(self.csv_path))[0]
            object.__setattr__(self, "name", default)

    @classmethod
    def from_mapping(cls, mapping):
        """Build a config from string key/value pairs (config-file values)."""
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

    @classmethod
    def from_file(cls, path):
        """Parse a plain-text key=value config file ('#' starts a comment).

        A relative csv_path is resolved against the config file's own
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
        if "csv_path" in mapping and not os.path.isabs(mapping["csv_path"]):
            mapping["csv_path"] = os.path.normpath(
                os.path.join(os.path.dirname(os.path.abspath(path)),
                             mapping["csv_path"]))
        return cls.from_mapping(mapping)


def _parse_value(field, raw):
    """Cast a config-file string to the field's annotated type.

    ``tuple[T, ...]`` fields take comma-separated T values; a union tries
    its types in order, so ``int | str`` keeps a non-numeric string and
    ``int | None`` reads an int.
    """
    if not isinstance(raw, str):
        return raw
    raw = raw.strip()
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
    targets for training, then for the validation rows that follow."""

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

    The first train_size rows train and the validation_size rows after
    them validate. A csv request that does not fit the series raises
    ValueError naming both sizes and the row count; a narma series is
    generated to fit.
    """
    max_off = max(config.lag_offsets)
    if config.dataset == "narma":
        train_size = NARMA_TRAIN_SIZE if config.train_size is None else config.train_size
        val_size = NARMA_VALIDATION_SIZE if config.validation_size is None \
            else config.validation_size
        total = train_size + val_size + max_off
        s, b_next = datamod.generate_narma10(
            total, substream_rng(config.seed, DATA_STREAM))
        # training rows touch s and b indices below max_off + train_size
        fit_end = max_off + train_size
        inputs = datamod.Rescaler.fit(s[:fit_end]).apply(s)
        targets = datamod.Rescaler.fit(b_next[:fit_end]).apply(b_next)
    else:
        series = datamod.load_csv(config.csv_path, config.csv_column)
        h = config.horizon
        n_rows = max(0, len(series) - max_off - h)
        train_size = round(CSV_TRAIN_FRACTION * n_rows) if config.train_size is None \
            else config.train_size
        val_size = n_rows - train_size if config.validation_size is None \
            else config.validation_size
        if not 0 < val_size <= n_rows - train_size:
            raise ValueError(
                f"train_size {train_size} and validation_size {val_size} do not fit "
                f"the {n_rows} rows of {config.csv_path}; each split needs a row")
        # training rows use series indices up to max_off + train_size - 1 + h
        scaled = datamod.Rescaler.fit(series[:max_off + train_size + h]).apply(series)
        inputs, targets = scaled[:-h], scaled[h:]
    inputs, targets = datamod.lag_paired_series(inputs, targets, config.lag_offsets)
    end = train_size + val_size
    return PreparedData(inputs[:train_size], targets[:train_size],
                        inputs[train_size:end], targets[train_size:end])


def resolve_washout(config, train_rows):
    if config.washout is not None:
        washout = config.washout
    else:
        washout = AUTO_WASHOUT if train_rows > AUTO_WASHOUT_MIN_ROWS else 0
    if washout >= train_rows:
        raise ValueError(f"washout {washout} leaves no training rows")
    return washout


def build_model(config, n_in, rng):
    if config.model == "esn":
        return EsnModel.random(
            n_in, config.reservoir_size, density=config.density,
            target_rho=config.spectral_radius, rng=rng,
            weight_lo=config.esn_weight_lo, weight_hi=config.esn_weight_hi)
    return EsqnModel.random(
        n_in, config.reservoir_size, rng=rng,
        weight_lo=config.weight_lo, weight_hi=config.weight_hi,
        rate=config.firing_rate)


def run_trial(config, prepared, washout, trial_index):
    """One independently seeded train-and-score pass.

    Returns (TrialResult, trace) where trace stacks the validation row
    index, target and prediction columns. Raises FloatingPointError,
    naming the trial and the reason, if a non-finite training state,
    validation state or prediction shows up, so the caller can exclude
    the trial.
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

    val_targets = prepared.val_targets
    score = nmse(val_targets, predictions)

    result = TrialResult(series=config.name, model=config.model,
                         trial=trial_index, seed=trial_seed, nmse=score,
                         ridge_lambda=lam, reservoir_size=config.reservoir_size)
    trace = np.column_stack([np.arange(val_targets.shape[0], dtype=float),
                             val_targets[:, 0], predictions[:, 0]])
    return result, trace


def run_experiment(config):
    """Run all trials of one (dataset, model) experiment and aggregate.

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
        washout = resolve_washout(config, len(prepared.train_targets))
        results = []
        trace = None
        failures = 0
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for i in range(config.trials):
                try:
                    result, trial_trace = run_trial(config, prepared, washout, i)
                except FloatingPointError:
                    failures += 1
                    continue
                results.append(result)
                trace = trial_trace
    if not results:
        raise ArithmeticError(f"all {config.trials} trials failed")
    summary = summarize(results, failures=failures)
    return ExperimentOutcome(config=config, results=tuple(results),
                             summary=summary, trace=trace)


def reservoir_size_sweep(config, sizes):
    """run_experiment per reservoir size, sharing the master seed."""
    sizes = [int(s) for s in sizes]
    if not sizes:
        raise ValueError("sizes must be non-empty")
    outcomes = []
    for size in sizes:
        sized = dataclasses.replace(config, reservoir_size=size)
        outcomes.append((size, run_experiment(sized)))
    return outcomes


TRACE_HEADER = "t,target,prediction"
SWEEP_HEADER = "reservoir_size,mean_nmse,ci_halfwidth"


def trace_csv(trace):
    lines = [TRACE_HEADER]
    for t, target, pred in trace:
        lines.append(f"{int(t)},{float(target)!r},{float(pred)!r}")
    return "\n".join(lines) + "\n"


def sweep_csv(outcomes):
    lines = [SWEEP_HEADER]
    for size, outcome in outcomes:
        s = outcome.summary
        hw = "" if s.ci_halfwidth is None else repr(s.ci_halfwidth)
        lines.append(f"{size},{s.mean_nmse!r},{hw}")
    return "\n".join(lines) + "\n"


def write_experiment_outputs(outcome, outdir="."):
    """Emit results.csv, summary.csv and trace.csv; returns their paths."""
    paths = {}
    for fname, text in (("results.csv", results_csv(outcome.results)),
                        ("summary.csv", summary_csv([outcome.summary])),
                        ("trace.csv", trace_csv(outcome.trace))):
        path = os.path.join(outdir, fname)
        with open(path, "w") as fh:
            fh.write(text)
        paths[fname] = path
    return paths
