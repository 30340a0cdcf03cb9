"""reservoirq: echo state networks with tanh or queueing-load reservoirs,
plus the forecasting benchmark harness that compares them."""

from .data import generate_narma10, lag_paired_series, load_csv, rescale
from .esn import EsnModel, spectral_radius
from .esqn import EsqnModel
from .harness import ExperimentConfig, reservoir_size_sweep, run_experiment
from .metrics import nmse, summarize
from .numerics import seeded_rng
from .randnn import RandnnSpec, solve_steady_state
from .readout import collect_states, fit_readout, ridge_solve, select_penalty

__version__ = "0.1.0"

__all__ = [
    "EsnModel", "EsqnModel", "ExperimentConfig", "RandnnSpec",
    "collect_states", "fit_readout", "generate_narma10", "lag_paired_series",
    "load_csv", "nmse", "rescale", "reservoir_size_sweep", "ridge_solve",
    "run_experiment", "seeded_rng", "select_penalty", "solve_steady_state",
    "spectral_radius", "summarize",
]
