#!/usr/bin/env python3
"""Regenerate the committed fixture assets and golden outputs.

The traffic-shaped series are seeded synthetic stand-ins (sinusoids plus
noise) with the same lengths and lag protocols as the real ISP and UKERNA
traces, which are not redistributable. Goldens are produced by running
the CLI on the committed assets. The experiment configs under
fixtures/configs are hand-written; this script reads them and never
writes them.
"""

import os
import shutil
import subprocess
import sys
import tempfile

import numpy as np

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURES = os.path.join(REPO, "fixtures")
CONFIGS = os.path.join(FIXTURES, "configs")
GOLDENS = os.path.join(FIXTURES, "goldens")

sys.path.insert(0, os.path.join(REPO, "src"))

from reservoirq.data import save_series_csv  # noqa: E402
from reservoirq.randnn import RandnnSpec, save_spec  # noqa: E402


def make_series():
    # ISP shape: 5-minute sampling, daily (288) and weekly (2016) cycles.
    # 14779 points -> 14772 lagged rows = 9848 train + 4924 validation
    # with offsets 0..6 and horizon 1.
    rng = np.random.default_rng(np.random.SeedSequence([2026, 3]))
    n = 14779
    t = np.arange(n)
    isp = (2.0 + np.sin(2 * np.pi * t / 288.0)
           + 0.45 * np.sin(2 * np.pi * t / 2016.0 + 0.7)
           + 0.2 * np.sin(2 * np.pi * t / 37.0)
           + 0.22 * rng.normal(size=n))
    save_series_csv(os.path.join(FIXTURES, "isp_like.csv"), isp)

    # UKERNA shape: daily sampling, weekly cycle. 70 points -> 62 rows =
    # 47 train + 15 validation with offsets {0, 6, 7} and horizon 1.
    rng = np.random.default_rng(np.random.SeedSequence([2026, 4]))
    n = 70
    t = np.arange(n)
    ukerna = (1.5 + 0.8 * np.sin(2 * np.pi * t / 7.0)
              + 0.25 * np.sin(2 * np.pi * t / 30.0 + 0.4)
              + 0.08 * rng.normal(size=n))
    save_series_csv(os.path.join(FIXTURES, "ukerna_like.csv"), ukerna)

    # A sinusoid is exactly affine in two of its own lags, so a pipeline
    # with offsets {0, 1} must fit it to numerical precision.
    n = 400
    t = np.arange(n)
    sine = 0.5 + 0.45 * np.sin(2 * np.pi * t / 23.0)
    save_series_csv(os.path.join(FIXTURES, "sine.csv"), sine)


def make_randnn_specs():
    # Feedforward chain: neuron 0 feeds neuron 1; loads (0.5, 0.25).
    chain = RandnnSpec(lambda_plus=[1.0, 0.0], lambda_minus=[0.0, 0.0],
                       w_plus=[[0.0, 0.0], [1.0, 0.0]],
                       w_minus=[[0.0, 0.0], [0.0, 0.0]],
                       rates=[2.0, 2.0])
    save_spec(chain, os.path.join(FIXTURES, "randnn_chain.txt"))

    # Symmetric mutual excitation; loads (0.6, 0.6).
    pair = RandnnSpec(lambda_plus=[0.3, 0.3], lambda_minus=[0.0, 0.0],
                      w_plus=[[0.0, 0.5], [0.5, 0.0]],
                      w_minus=[[0.0, 0.0], [0.0, 0.0]],
                      rates=[1.0, 1.0])
    save_spec(pair, os.path.join(FIXTURES, "randnn_pair.txt"))


def run_cli(argv, cwd):
    # the child runs in a scratch directory, so it needs the absolute src
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(REPO, "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "reservoirq.cli", *argv],
                          cwd=cwd, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"CLI failed: {argv}\n{proc.stderr}")
    return proc.stdout


def make_goldens():
    with tempfile.TemporaryDirectory() as scratch:
        run_cli(["generate-narma", "--n", "50", "--seed", "7", "--out", "narma50"],
                scratch)
        for name in ("narma50_inputs.csv", "narma50_targets.csv"):
            shutil.copy(os.path.join(scratch, name), os.path.join(GOLDENS, name))

        out = run_cli(["solve-randnn", "--spec",
                       os.path.join(FIXTURES, "randnn_chain.txt")], scratch)
        with open(os.path.join(GOLDENS, "randnn_chain_loads.txt"), "w") as fh:
            fh.write(out)
        out = run_cli(["solve-randnn", "--spec",
                       os.path.join(FIXTURES, "randnn_pair.txt")], scratch)
        with open(os.path.join(GOLDENS, "randnn_pair_loads.txt"), "w") as fh:
            fh.write(out)

        run_cli(["experiment", "--config",
                 os.path.join(CONFIGS, "sine_perfect.cfg")], scratch)
        shutil.copy(os.path.join(scratch, "summary.csv"),
                    os.path.join(GOLDENS, "summary.csv"))


def main():
    os.makedirs(GOLDENS, exist_ok=True)
    make_series()
    make_randnn_specs()
    make_goldens()
    print("fixtures written under", FIXTURES)


if __name__ == "__main__":
    main()
