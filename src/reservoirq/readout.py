"""The trained output layer: regressor collection and ridge fit.

The readout is the only trained object: a single weight matrix w_out
that maps the concatenated regressor [1; a(t); x(t)] (bias, current
input, reservoir state) to the outputs, y = w_out z, fitted offline by
ridge regression.
"""

import numpy as np

from .errors import DimensionError
from .metrics import nmse
from .numerics import ridge_solve, ridge_solve_grid

# Default penalty grid searched when fitting; chosen per dataset on a
# held-out tail of the training split.
LAMBDA_GRID = tuple(10.0 ** k for k in range(-8, 0))
HOLDOUT_FRACTION = 0.2


def collect_states(model, inputs, washout):
    """Drive a reservoir through K inputs and stack regressors columnwise.

    The model runs in place through all K rows in order; regressors
    [1; a(t); x(t)] are recorded for steps after the washout, so the
    result has K - washout columns and the model ends holding the state
    after the full sequence. The model writes the states of the recorded
    steps straight into the regressor matrix.
    """
    inputs = np.asarray(inputs, dtype=float)
    if inputs.ndim != 2:
        raise DimensionError("inputs must be a K x n_in matrix")
    k = inputs.shape[0]
    if not 0 <= washout < k:
        raise ValueError(f"washout must lie in [0, K), got {washout} with K={k}")
    recorded = inputs[washout:]
    lead = 1 + inputs.shape[1]
    out = np.empty((lead + model.n_res, k - washout))
    out[0] = 1.0
    out[1:lead] = recorded.T
    model.run(inputs[:washout])
    model.run(recorded, out=out[lead:])
    return out


def fit_readout(regressors, targets, lam):
    """Ridge-fit the N_b x D weight matrix w_out on collected regressors
    (D x K) and targets (N_b x K); predictions are w_out @ regressors."""
    return ridge_solve(regressors, targets, lam)


def select_penalty(regressors, targets, grid=LAMBDA_GRID,
                   holdout_fraction=HOLDOUT_FRACTION):
    """Pick the ridge penalty by NMSE on a held-out tail of the training data.

    Fits on the leading 1 - holdout_fraction of the columns for each
    penalty in the grid (one shared Gram matrix for the whole grid),
    scores NMSE on the remaining tail, and returns
    (best penalty, {penalty: score}). Ties go to the smaller penalty.
    """
    regressors = np.asarray(regressors, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if not grid:
        raise ValueError("penalty grid must be non-empty")
    k = regressors.shape[1]
    # NMSE needs at least two held-out samples
    n_hold = max(2, round(holdout_fraction * k))
    n_fit = k - n_hold
    if n_fit < 1:
        raise ValueError("not enough samples to hold out a validation tail")
    lams = sorted(grid)
    fits = ridge_solve_grid(regressors[:, :n_fit], targets[:, :n_fit], lams)
    scores = {}
    best = None
    for lam, w in zip(lams, fits):
        scores[lam] = nmse(targets[:, n_fit:].T, (w @ regressors[:, n_fit:]).T)
        if best is None or scores[lam] < scores[best]:
            best = lam
    return best, scores
