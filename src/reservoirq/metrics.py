"""Forecast accuracy (NMSE) and multi-trial aggregation with 95% CIs."""

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .data import VALUE_COLUMN
from .numerics import check_array, check_sequence


def _t_central_mass(t, dof):
    """P(|T| <= t) for Student's t with integer ``dof`` >= 1 and t >= 0.

    The finite series of Abramowitz & Stegun 26.7.3 (odd dof) and 26.7.4
    (even dof) in theta = atan(t / sqrt(dof)); both have dof // 2 terms,
    each a fixed ratio times cos^2(theta) of the one before.
    """
    theta = math.atan(t / math.sqrt(dof))
    cos2 = dof / (dof + t * t)
    odd = dof % 2
    term = math.sqrt(cos2) if odd else 1.0
    total = 0.0
    for k in range(1, dof // 2 + 1):
        total += term
        term *= cos2 * (2 * k - 1 + odd) / (2 * k + odd)
    series = math.sin(theta) * total
    return 2 / math.pi * (theta + series) if odd else series


def t_quantile_975(dof):
    """Two-sided 95% Student-t quantile t_{0.975, dof} for integer dof >= 1.

    Solves P(|T| <= t) = 0.95 by Newton's method from t = 0. The central
    mass is concave in t > 0, so the iterates rise monotonically to the
    root; they stop when a step no longer moves them up, within rounding
    of the exact quantile.
    """
    if dof < 1:
        raise ValueError("degrees of freedom must be >= 1")
    # log of the density at t = 0
    log_peak = (math.lgamma((dof + 1) / 2) - math.lgamma(dof / 2)
                - 0.5 * math.log(dof * math.pi))
    t = 0.0
    while True:
        density = math.exp(log_peak - (dof + 1) / 2 * math.log1p(t * t / dof))
        step = (0.95 - _t_central_mass(t, dof)) / (2 * density)
        if t + step <= t:
            return t
        t += step


def t_interval(values):
    """Mean of the sequence ``values`` and the half-width t_{0.975, n-1} s / sqrt(n)
    of its 95% Student-t interval (s with ddof=1), None for one value. A
    non-finite value raises ValueError."""
    values = check_array("values", check_sequence("values", values, float), (None,))
    n = len(values)
    if n < 2:
        return float(values.mean()), None
    return float(values.mean()), float(t_quantile_975(n - 1) * values.std(ddof=1) / np.sqrt(n))


def nmse(targets, predictions):
    """Normalized mean square error.

    Sum of squared errors over the sum of squared deviations of the
    targets from their per-dimension empirical mean. A mean predictor
    scores exactly 1; constant targets make the measure undefined.
    ``targets`` is 1-d or K x N_b. ``predictions`` has the same shape,
    giving a float, or holds a stack of L such predictions along a
    leading axis, giving the L scores as an array. Both pass
    ``check_array``, so a non-finite entry raises ValueError naming its
    argument.
    """
    b = check_array("targets", targets, (None,) * np.ndim(targets))
    y = check_array("predictions", predictions, (None,) * np.ndim(predictions))
    stacked = y.ndim == b.ndim + 1
    if y.shape[stacked:] != b.shape:
        raise ValueError(f"shape mismatch: targets {b.shape}, predictions {y.shape}")
    if b.ndim == 1:
        b = b[:, None]
        y = y[..., None]
    if b.ndim != 2:
        raise ValueError("targets must be 1-d or K x N_b")
    if b.shape[0] < 2:
        raise ValueError("need at least two samples")
    if b.shape[1] < 1:
        raise ValueError("targets must have at least one output column")
    centered = b - b.mean(axis=0)
    denom_per_dim = (centered ** 2).sum(axis=0)
    if np.any(denom_per_dim <= 0.0):
        raise ValueError("targets are constant in some output dimension")
    scores = ((b - y) ** 2).sum(axis=(-2, -1)) / denom_per_dim.sum()
    return scores if stacked else float(scores)


@dataclass(frozen=True)
class TrialResult:
    """Outcome of one independently seeded training run; ``holdout_nmse``
    holds the (penalty, hold-out NMSE) pairs of penalty selection in
    ascending penalty order."""

    series: str
    model: str
    trial: int
    seed: int
    nmse: float
    ridge_lambda: float
    reservoir_size: int
    holdout_nmse: tuple[tuple[float, float], ...] = ()


@dataclass(frozen=True)
class Summary:
    """Mean NMSE over trials with a 95% confidence half-width.

    The half-width is that of ``t_interval`` over the trial scores; it is
    None for a single trial, where no interval can be formed.
    ``ridge_lambda`` is the most frequently selected penalty (smallest on
    ties) and ``failures`` counts the trials that failed (see
    ``harness.run_trial``) and were excluded.
    """

    series: str
    model: str
    n_trials: int
    mean_nmse: float
    ci_halfwidth: float | None
    ridge_lambda: float
    failures: int = 0


def summarize(results, failures=0):
    """Aggregate TrialResults of one (series, model) group."""
    results = check_sequence("results", results, lambda result: result)
    groups = {(r.series, r.model) for r in results}
    if len(groups) != 1:
        raise ValueError(f"mixed groups cannot be summarized: {sorted(groups)}")
    mean, halfwidth = t_interval([r.nmse for r in results])
    counts = Counter(r.ridge_lambda for r in results)
    top = max(counts.values())
    modal_lambda = min(lam for lam, c in counts.items() if c == top)
    return Summary(series=results[0].series, model=results[0].model,
                   n_trials=len(results), mean_nmse=mean, ci_halfwidth=halfwidth,
                   ridge_lambda=modal_lambda, failures=int(failures))


def _csv(header, rows):
    """CSV text: the header line, then one line per row of cells; a float
    cell prints as its repr (str and repr agree) and None as a blank."""
    lines = [",".join("" if cell is None else str(cell) for cell in row) for row in rows]
    return "\n".join([header, *lines]) + "\n"


def series_csv(values):
    """One line per (t, value) point of a series, under ``t,VALUE_COLUMN``."""
    return _csv(f"t,{VALUE_COLUMN}", ((t, float(v)) for t, v in enumerate(values)))


def results_csv(results):
    return _csv("series,model,trial,seed,nmse,lambda,reservoir_size",
                ((r.series, r.model, r.trial, r.seed, r.nmse, r.ridge_lambda,
                  r.reservoir_size) for r in results))


def summary_csv(summaries):
    return _csv("series,model,n,mean_nmse,ci_halfwidth,lambda,failures",
                ((s.series, s.model, s.n_trials, s.mean_nmse, s.ci_halfwidth,
                  s.ridge_lambda, s.failures) for s in summaries))


def trace_csv(trace):
    """One line per (t, target, prediction) row of a trace array."""
    return _csv("t,target,prediction",
                ((int(t), float(y), float(p)) for t, y, p in trace))


def sweep_csv(sized_summaries):
    """One line per (reservoir size, Summary) pair."""
    return _csv("reservoir_size,mean_nmse,ci_halfwidth",
                ((size, s.mean_nmse, s.ci_halfwidth) for size, s in sized_summaries))
