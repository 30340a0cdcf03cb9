#!/usr/bin/env python3
"""Regenerate the committed fixture assets and golden outputs.

The traffic-shaped series are seeded synthetic stand-ins (sinusoids plus
noise) with the same lengths and lag protocols as the real ISP and UKERNA
traces, which are not redistributable. Goldens are written by running
the commands of the golden table in tests/fixture_runner.py, in this
process, on the committed assets. The experiment configs under
fixtures/configs are hand-written; this script reads them and never
writes them.
"""

import os
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(REPO, "src"), os.path.join(REPO, "tests")]

from fixture_runner import FIXTURES, GOLDEN, GOLDENS, run_cli  # noqa: E402
from reservoirq.metrics import series_csv  # noqa: E402
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
    Path(FIXTURES, "isp_like.csv").write_text(series_csv(isp))

    # UKERNA shape: daily sampling, weekly cycle. 70 points -> 62 rows =
    # 47 train + 15 validation with offsets {0, 6, 7} and horizon 1.
    rng = np.random.default_rng(np.random.SeedSequence([2026, 4]))
    n = 70
    t = np.arange(n)
    ukerna = (1.5 + 0.8 * np.sin(2 * np.pi * t / 7.0)
              + 0.25 * np.sin(2 * np.pi * t / 30.0 + 0.4)
              + 0.08 * rng.normal(size=n))
    Path(FIXTURES, "ukerna_like.csv").write_text(series_csv(ukerna))

    # A sinusoid is exactly affine in two of its own lags, so a pipeline
    # with offsets {0, 1} must fit it to numerical precision.
    n = 400
    t = np.arange(n)
    sine = 0.5 + 0.45 * np.sin(2 * np.pi * t / 23.0)
    Path(FIXTURES, "sine.csv").write_text(series_csv(sine))


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


def make_goldens():
    for argv, outputs, stdout_name, _ in GOLDEN.values():
        with tempfile.TemporaryDirectory() as scratch:
            run_cli(argv, scratch, stdout_name)
            for output in outputs + ((stdout_name,) if stdout_name else ()):
                shutil.copy(os.path.join(scratch, output), os.path.join(GOLDENS, output))


def main():
    os.makedirs(GOLDENS, exist_ok=True)
    make_series()
    make_randnn_specs()
    make_goldens()
    print("fixtures written under", FIXTURES)


if __name__ == "__main__":
    main()
