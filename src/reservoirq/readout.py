"""The trained output layer: regressor collection and ridge fit.

The readout is the only trained object: a single weight matrix w_out
that maps the concatenated regressor [1; a(t); x(t)] (bias, current
input, reservoir state) to the outputs, y = w_out z, fitted offline by
ridge regression.
"""

import numpy as np

from .metrics import nmse
from .numerics import ridge_solve, ridge_solve_grid

# Default penalty grid searched when fitting; chosen per dataset on a
# held-out tail of the training split.
LAMBDA_GRID = tuple(10.0 ** k for k in range(-8, 0))
HOLDOUT_FRACTION = 0.2


def collect_states(model, inputs, washout):
    """Drive a reservoir through K inputs and keep the regressors after the
    washout.

    The model runs in place through all K rows in order and ends holding
    the state after the full sequence. The result is the (D, K - washout)
    tail of ``model.run(inputs)``: column t is the regressor
    [1; a(t); x(t)] of step washout + t.
    """
    k = len(inputs)
    if not 0 <= washout < k:
        raise ValueError(f"washout must lie in [0, K), got {washout} with K={k}")
    return model.run(inputs)[:, washout:]


def fit_readout(regressors, targets, lam):
    """Ridge-fit the N_b x D weight matrix w_out on collected regressors
    (D x K) and targets (N_b x K); predictions are w_out @ regressors."""
    return ridge_solve(regressors, targets, lam)


def select_penalty(regressors, targets, grid=LAMBDA_GRID,
                   holdout_fraction=HOLDOUT_FRACTION):
    """Pick the ridge penalty by NMSE on a held-out tail of the training data.

    Fits on the leading 1 - holdout_fraction of the columns for every
    penalty in the grid (one stacked solve, see ``ridge_solve_grid``),
    predicts the remaining tail for all of them with one product, scores
    the predictions with one NMSE reduction, and returns
    (best penalty, {penalty: score}). Ties go to the smaller penalty.
    """
    regressors = np.asarray(regressors, dtype=float)
    targets = np.asarray(targets, dtype=float)
    k = regressors.shape[1]
    # NMSE needs at least two held-out samples
    n_hold = max(2, round(holdout_fraction * k))
    n_fit = k - n_hold
    if n_fit < 1:
        raise ValueError("not enough samples to hold out a validation tail")
    lams = sorted(grid)
    fits = ridge_solve_grid(regressors[:, :n_fit], targets[:, :n_fit], lams)
    predictions = fits @ regressors[:, n_fit:]
    scores = nmse(targets[:, n_fit:].T, predictions.transpose(0, 2, 1))
    # the first minimum over the ascending grid, so ties keep the smaller
    return lams[int(np.argmin(scores))], dict(zip(lams, scores.tolist()))
