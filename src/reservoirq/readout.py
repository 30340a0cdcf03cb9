"""The trained output layer: regressors, penalty selection, ridge solver.

The readout is the only trained object: a single weight matrix w_out
that maps the concatenated regressor [1; a(t); x(t)] (bias, current
input, reservoir state) to the outputs, y = w_out z, fitted offline by
ridge regression. Everything that fits it lives here.
"""

import math
import numbers

import numpy as np

from .metrics import nmse
from .numerics import check_array, check_sequence

# Default penalty grid searched when fitting; chosen per dataset on a
# held-out tail of the training split.
LAMBDA_GRID = tuple(10.0 ** k for k in range(-8, 0))
HOLDOUT_FRACTION = 0.2
STACK_DOUBLES = 2 ** 17  # most float64 entries in one stack of shifted Grams (1 MiB)


def check_penalties(name, grid):
    """Return ``grid`` as a tuple of floats, in its order, if it passes
    ``check_sequence`` and its entries are distinct, each a finite, positive
    real number (numpy's pass, a bool or a string does not); else raise
    ValueError naming ``name``."""
    given = check_sequence(name, grid, lambda lam: lam)
    if not all(isinstance(lam, numbers.Real) and not isinstance(lam, bool)
               and 0 < lam < math.inf for lam in given):
        raise ValueError(f"{name} must hold finite, positive real penalties, got {given}")
    penalties = tuple(map(float, given))
    if len(set(penalties)) < len(penalties):
        raise ValueError(f"{name} must not repeat a penalty, got {penalties}")
    return penalties


def collect_states(model, inputs):
    """``model.run(inputs)``, kept only as a layer name that
    ``bench/tracing.py`` wraps until the package times its own layers."""
    return model.run(inputs)


def fit_readout(regressors, targets, lam):
    """``ridge_solve(regressors, targets, lam)``, kept only as a layer name
    that ``bench/tracing.py`` wraps until the package times its own layers."""
    return ridge_solve(regressors, targets, lam)


def select_penalty(regressors, targets, grid=LAMBDA_GRID,
                   holdout_fraction=HOLDOUT_FRACTION):
    """Pick the ridge penalty by NMSE on a held-out tail of the training data.

    Fits on the leading 1 - holdout_fraction of the columns for every
    penalty in the grid (one stacked solve, see ``ridge_solve_grid``),
    predicts the remaining tail for all of them with one product, scores
    the predictions with one NMSE reduction, and returns (best penalty,
    {penalty: score}), penalties as floats. Ties go to the smaller penalty.
    A ``holdout_fraction`` that is no real number in (0, 1) raises ValueError.
    """
    # a bool is 0 or 1, so the range alone rejects it
    if not (isinstance(holdout_fraction, numbers.Real) and 0 < holdout_fraction < 1):
        raise ValueError(f"holdout_fraction must be a real number in (0, 1), "
                         f"got {holdout_fraction!r}")
    regressors = check_array("regressors", regressors, (None, None))
    k = regressors.shape[1]
    targets = check_array("targets", targets, (None, k))
    # NMSE needs at least two held-out samples
    n_hold = max(2, round(holdout_fraction * k))
    n_fit = k - n_hold
    if n_fit < 1:
        raise ValueError("not enough samples to hold out a validation tail")
    lams = sorted(check_penalties("penalty grid", grid))
    fits = ridge_solve_grid(regressors[:, :n_fit], targets[:, :n_fit], lams)
    predictions = fits @ regressors[:, n_fit:]
    scores = nmse(targets[:, n_fit:].T, predictions.transpose(0, 2, 1))
    # the first minimum over the ascending grid, so ties keep the smaller
    return lams[int(np.argmin(scores))], dict(zip(lams, scores.tolist()))


def ridge_solve(regressors, targets, lam):
    """Solve min_W sum_k ||t_k - W z_k||^2 + lam ||W||_F^2.

    ``regressors`` is D x K (one column per sample), ``targets`` is
    N_b x K; the result W is N_b x D, i.e. W = T Z' (Z Z' + lam I)^-1.
    This is ``ridge_solve_grid`` with a one-penalty grid.
    """
    return ridge_solve_grid(regressors, targets, (lam,))[0]


def ridge_solve_grid(regressors, targets, lams):
    """Ridge weights W = T Z' (Z Z' + lam I)^-1 for each penalty in ``lams``.

    Returns an (L, N_b, D) array, one N_b x D matrix per penalty in the
    order given. The penalties must pass ``check_penalties``, the rule the
    config admits its ``lambda_grid`` by, so each shifted Gram matrix is
    positive definite whatever the rank of Z. The inputs pass
    ``check_array``, and the smaller of the D x D and K x K Gram matrices
    is formed once.
    Copies of it, each with one penalty added to its diagonal, are stacked
    and solved by one ``numpy.linalg.solve`` call; LAPACK factors each
    system of the stack exactly as it would a lone one, so each fit is
    bit-identical to a lone solve of its penalty, whatever the grid around
    it. Where the whole stack would hold more than STACK_DOUBLES entries
    (1 MiB), each penalty is solved in turn on the Gram matrix itself, its
    diagonal shifted in place, so no copy is made.
    """
    Z = check_array("regressors", regressors, (None, None))
    T = check_array("targets", targets, (None, Z.shape[1]))
    if Z.shape[1] < 1:
        raise ValueError("need at least one sample column")
    lams = np.array(check_penalties("penalty grid", lams))

    primal = Z.shape[0] <= Z.shape[1]
    if primal:
        gram = Z @ Z.T
        rhs = (T @ Z.T).T
    else:
        gram = Z.T @ Z
        rhs = T.T
    m = gram.shape[0]
    per_call = len(lams) if len(lams) * m * m <= STACK_DOUBLES else 1
    stack = gram[None] if per_call == 1 else np.repeat(gram[None], per_call, axis=0)
    diag = gram.diagonal().copy()
    on_diag = np.arange(m)
    solved = np.empty((len(lams), m, T.shape[0]))
    for start in range(0, len(lams), per_call):
        part = lams[start:start + per_call]
        # np.linalg.solve factors copies, so only the diagonals are ever
        # rewritten
        stack[:, on_diag, on_diag] = diag + part[:, None]
        solved[start:start + per_call] = np.linalg.solve(stack, rhs)
    weights = solved.transpose(0, 2, 1)
    if not primal:
        # W = T (Z'Z + lam I)^-1 Z'
        weights = weights @ Z.T
    return weights
