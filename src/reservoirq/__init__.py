"""reservoirq: echo state networks with tanh or queueing-load reservoirs,
plus the forecasting benchmark harness that compares them."""

from .data import (Rescaler, SupervisedDataset, TimeSeries, generate_narma10,
                   lag_paired_series, load_csv, make_lagged_dataset,
                   narma10_response, split_dataset)
from .esn import EsnModel
from .esqn import EsqnModel
from .harness import (ExperimentConfig, ExperimentOutcome, prepare_data,
                      reservoir_size_sweep, run_experiment)
from .metrics import Summary, TrialResult, nmse, summarize
from .numerics import ridge_solve, seeded_rng, spectral_radius, substream_rng
from .randnn import RandnnSpec, SteadyState, residual, solve_steady_state
from .readout import (LAMBDA_GRID, Readout, collect_states, fit_readout,
                      select_penalty)

__version__ = "0.1.0"

__all__ = [
    "EsnModel", "EsqnModel", "ExperimentConfig", "ExperimentOutcome",
    "LAMBDA_GRID", "RandnnSpec", "Readout", "Rescaler", "SteadyState",
    "Summary", "SupervisedDataset", "TimeSeries", "TrialResult",
    "collect_states", "fit_readout", "generate_narma10", "lag_paired_series",
    "load_csv", "make_lagged_dataset", "narma10_response", "nmse",
    "prepare_data", "reservoir_size_sweep", "residual", "ridge_solve",
    "run_experiment", "seeded_rng", "select_penalty", "solve_steady_state",
    "spectral_radius", "split_dataset", "substream_rng", "summarize",
]
