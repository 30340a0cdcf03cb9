"""Forecast accuracy (NMSE) and multi-trial aggregation with 95% CIs."""

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateVarianceError, DimensionError

# Two-sided 95% Student-t quantiles for 1..50 degrees of freedom, from
# standard tables; larger dof falls back to the normal quantile.
T_QUANTILES_975 = (
    12.7062, 4.3027, 3.1824, 2.7764, 2.5706,
    2.4469, 2.3646, 2.3060, 2.2622, 2.2281,
    2.2010, 2.1788, 2.1604, 2.1448, 2.1314,
    2.1199, 2.1098, 2.1009, 2.0930, 2.0860,
    2.0796, 2.0739, 2.0687, 2.0639, 2.0595,
    2.0555, 2.0518, 2.0484, 2.0452, 2.0423,
    2.0395, 2.0369, 2.0345, 2.0322, 2.0301,
    2.0281, 2.0262, 2.0244, 2.0227, 2.0211,
    2.0195, 2.0181, 2.0167, 2.0154, 2.0141,
    2.0129, 2.0117, 2.0106, 2.0096, 2.0086,
)
NORMAL_QUANTILE_975 = 1.959964


def t_quantile_975(dof):
    if dof < 1:
        raise ValueError("degrees of freedom must be >= 1")
    if dof <= len(T_QUANTILES_975):
        return T_QUANTILES_975[dof - 1]
    return NORMAL_QUANTILE_975


def nmse(targets, predictions):
    """Normalized mean square error.

    Sum of squared errors over the sum of squared deviations of the
    targets from their per-dimension empirical mean. A mean predictor
    scores exactly 1; constant targets make the measure undefined.
    """
    b = np.asarray(targets, dtype=float)
    y = np.asarray(predictions, dtype=float)
    if b.shape != y.shape:
        raise DimensionError(f"shape mismatch: targets {b.shape}, predictions {y.shape}")
    if b.ndim == 1:
        b = b[:, None]
        y = y[:, None]
    if b.ndim != 2:
        raise DimensionError("targets must be 1-d or K x N_b")
    if b.shape[0] < 2:
        raise ValueError("need at least two samples")
    centered = b - b.mean(axis=0)
    denom_per_dim = (centered ** 2).sum(axis=0)
    if np.any(denom_per_dim <= 0.0):
        raise DegenerateVarianceError("targets are constant in some output dimension")
    return float(((b - y) ** 2).sum() / denom_per_dim.sum())


@dataclass(frozen=True)
class TrialResult:
    """Outcome of one independently seeded training run."""

    series: str
    model: str
    trial: int
    seed: int
    nmse: float
    ridge_lambda: float
    reservoir_size: int


@dataclass(frozen=True)
class Summary:
    """Mean NMSE over trials with a 95% confidence half-width.

    The half-width is t_{0.975, n-1} * s / sqrt(n), where s is the sample
    standard deviation (ddof=1) of the trial scores, as the Student-t
    interval requires; it is None for a single trial, where no interval
    can be formed. ``ridge_lambda`` is the most
    frequently selected penalty (smallest on ties) and ``failures``
    counts trials excluded for non-finite states or predictions.
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
    results = list(results)
    if not results:
        raise ValueError("no trial results to summarize")
    groups = {(r.series, r.model) for r in results}
    if len(groups) != 1:
        raise ValueError(f"mixed groups cannot be summarized: {sorted(groups)}")
    scores = np.array([r.nmse for r in results], dtype=float)
    n = len(scores)
    mean = float(scores.mean())
    if n >= 2:
        halfwidth = float(t_quantile_975(n - 1) * scores.std(ddof=1) / np.sqrt(n))
    else:
        halfwidth = None
    counts = Counter(r.ridge_lambda for r in results)
    top = max(counts.values())
    modal_lambda = min(lam for lam, c in counts.items() if c == top)
    return Summary(series=results[0].series, model=results[0].model,
                   n_trials=n, mean_nmse=mean, ci_halfwidth=halfwidth,
                   ridge_lambda=modal_lambda, failures=int(failures))


RESULTS_HEADER = "series,model,trial,seed,nmse,lambda,reservoir_size"
SUMMARY_HEADER = "series,model,n,mean_nmse,ci_halfwidth,lambda,failures"


def results_csv(results):
    lines = [RESULTS_HEADER]
    for r in results:
        lines.append(f"{r.series},{r.model},{r.trial},{r.seed},"
                     f"{r.nmse!r},{r.ridge_lambda!r},{r.reservoir_size}")
    return "\n".join(lines) + "\n"


def summary_csv(summaries):
    lines = [SUMMARY_HEADER]
    for s in summaries:
        hw = "" if s.ci_halfwidth is None else repr(s.ci_halfwidth)
        lines.append(f"{s.series},{s.model},{s.n_trials},{s.mean_nmse!r},"
                     f"{hw},{s.ridge_lambda!r},{s.failures}")
    return "\n".join(lines) + "\n"
