#!/usr/bin/env python3
"""Spread of the NARMA-10 benchmark across series.

The master seed fixes both the NARMA-10 series and the trial weights, so
the README table's ± covers the 20 weight draws on one series only. This
script reruns the shipped narma_esqn.cfg and narma_esn.cfg at master
seeds 1-10, each seed a new series, changing no other key. It prints
each seed's two means, the range of the per-series means of each model,
and the paired ESQN - ESN difference with its 95% Student-t interval
over the series. Run it from anywhere:

    python scripts/series_spread.py
"""

import dataclasses
import os
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))

from reservoirq.harness import ExperimentConfig, run_experiment  # noqa: E402
from reservoirq.metrics import TrialResult, summarize  # noqa: E402

SEEDS = range(1, 11)


def main():
    summaries = {}
    for model in ("esqn", "esn"):
        config = ExperimentConfig.from_file(
            os.path.join(REPO, "fixtures", "configs", f"narma_{model}.cfg"))
        summaries[model] = [run_experiment(dataclasses.replace(config, seed=seed)).summary
                            for seed in SEEDS]
    print("seed,esqn_mean_nmse,esn_mean_nmse")
    for seed, esqn, esn in zip(SEEDS, *summaries.values()):
        print(f"{seed},{esqn.mean_nmse:.4f},{esn.mean_nmse:.4f}")
    for model, rows in summaries.items():
        means = [s.mean_nmse for s in rows]
        print(f"{model}: per-series means {min(means):.4f} to {max(means):.4f}")
    # one "trial" per series, scored by that series' ESQN - ESN gap
    gaps = [TrialResult(series="narma", model="esqn-esn", trial=i, seed=seed,
                        nmse=esqn.mean_nmse - esn.mean_nmse, ridge_lambda=0.0,
                        reservoir_size=0)
            for i, (seed, esqn, esn) in enumerate(zip(SEEDS, *summaries.values()))]
    paired = summarize(gaps)
    below = sum(g.nmse < 0 for g in gaps)
    print(f"esqn - esn: {paired.mean_nmse:.4f} ±{paired.ci_halfwidth:.4f} "
          f"(95% t, {paired.n_trials - 1} dof), esqn below esn on "
          f"{below} of {paired.n_trials} series")


if __name__ == "__main__":
    main()
