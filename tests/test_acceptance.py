"""Acceptance suite: one test per reference criterion, each printing a
verdict line with the measured values (run pytest -s to see them all)."""

import dataclasses
import os
import time

import numpy as np
import pytest

from reservoirq import cli, esn, esqn, harness, ridge_solve, spectral_radius
from reservoirq.esn import EsnModel
from reservoirq.esqn import EsqnModel
from reservoirq.harness import (TRIAL_STREAM, ExperimentConfig, prepare_data,
                                reservoir_size_sweep, run_experiment)
from reservoirq.metrics import nmse, results_csv, summary_csv
from reservoirq.numerics import seeded_rng, substream_seed
from reservoirq.randnn import RandnnSpec, residual, solve_steady_state

from test_randnn import random_stable_specs


def _report(number, title, detail):
    print(f"[criterion {number:02d}] PASS {title}: {detail}")


def _run_config(config_dir, name):
    config = ExperimentConfig.from_file(os.path.join(config_dir, name))
    start = time.perf_counter()
    outcome = run_experiment(config)
    return outcome, time.perf_counter() - start


@pytest.fixture(scope="module")
def narma_esqn(config_dir):
    return _run_config(config_dir, "narma_esqn.cfg")


@pytest.fixture(scope="module")
def narma_esn(config_dir):
    return _run_config(config_dir, "narma_esn.cfg")


def test_01_narma_esqn_reproduction(narma_esqn):
    outcome, elapsed = narma_esqn
    config = outcome.config
    assert config.trials == 20 and config.reservoir_size == 80
    # the sampling law: all four blocks from U[0, 0.2], unit firing rates
    assert (esqn.WEIGHT_LO, esqn.WEIGHT_HI, esqn.FIRING_RATE) == (0.0, 0.2, 1.0)
    model = harness.build_model(config, 10, seeded_rng(0))
    assert model.w_plus_res.min() >= 0.0 and model.w_minus_in.max() <= 0.2
    assert np.all(model.rates_in == 1.0) and np.all(model.rates_res == 1.0)
    summary = outcome.summary
    assert summary.n_trials == 20 and summary.failures == 0
    assert 0.05 <= summary.mean_nmse <= 0.25
    assert elapsed < 120.0
    _report(1, "NARMA-10 ESQN",
            f"mean NMSE {summary.mean_nmse:.4f} ±{summary.ci_halfwidth:.4f} "
            f"in [0.05, 0.25] (reference 0.1004 ±0.0025), {elapsed:.1f}s")


def test_02_narma_esn_reproduction(narma_esn):
    outcome, elapsed = narma_esn
    config = outcome.config
    assert config.trials == 20 and config.reservoir_size == 80
    # the sampling law: density 0.15, radius 0.95, weights from U[-0.5, 0.5]
    assert (esn.DENSITY, esn.SPECTRAL_RADIUS) == (0.15, 0.95)
    assert (esn.WEIGHT_LO, esn.WEIGHT_HI) == (-0.5, 0.5)
    model = harness.build_model(config, 10, seeded_rng(0))
    assert np.count_nonzero(model.w_res) == round(0.15 * 80 * 80)
    assert spectral_radius(model.w_res) == pytest.approx(0.95)
    summary = outcome.summary
    assert summary.n_trials == 20 and summary.failures == 0
    assert 0.05 <= summary.mean_nmse <= 0.35
    assert elapsed < 120.0
    _report(2, "NARMA-10 ESN",
            f"mean NMSE {summary.mean_nmse:.4f} ±{summary.ci_halfwidth:.4f} "
            f"in [0.05, 0.35] (reference 0.1401 ±0.0504), {elapsed:.1f}s")


def test_03_traffic_shaped_stand_ins(config_dir):
    # the real traffic traces are not redistributable; same-shape seeded
    # stand-ins run the full pipeline with the published lag protocols
    expectations = {
        "isp_esqn.cfg": (9848, 4924, 7),
        "isp_esn.cfg": (9848, 4924, 7),
        "ukerna_esqn.cfg": (47, 15, 3),
        "ukerna_esn.cfg": (47, 15, 3),
    }
    details = []
    for name, (train_rows, val_rows, n_in) in expectations.items():
        config = ExperimentConfig.from_file(os.path.join(config_dir, name))
        prepared = prepare_data(config)
        assert prepared.train_inputs.shape == (train_rows, n_in)
        assert prepared.val_inputs.shape == (val_rows, n_in)
        outcome = run_experiment(config)
        again = run_experiment(config)
        assert np.isfinite(outcome.summary.mean_nmse)
        assert outcome.summary.mean_nmse < 1.0
        assert all(np.isfinite(r.nmse) and r.nmse < 1.0 for r in outcome.results)
        assert results_csv(outcome.results) == results_csv(again.results)
        details.append(f"{config.name}/{config.model} {outcome.summary.mean_nmse:.4f}")
    _report(3, "traffic-shaped stand-ins",
            "finite NMSE < 1 and per-seed deterministic: " + ", ".join(details))


def test_04_randnn_solver_properties():
    specs = random_stable_specs(seed=20240, count=50)
    worst_residual = 0.0
    for spec, solution in specs:
        worst_residual = max(worst_residual, residual(spec, solution.rho))
    assert worst_residual < 1e-12

    rng = np.random.default_rng(424)
    worst_ff = 0.0
    for _ in range(20):
        n = 5
        rates = rng.uniform(0.5, 2.0, n)
        w_plus = np.tril(rng.uniform(0.0, 0.3, (n, n)), -1)
        w_minus = np.tril(rng.uniform(0.0, 0.2, (n, n)), -1)
        lam_plus = rng.uniform(0.1, 0.5, n)
        lam_minus = rng.uniform(0.0, 0.2, n)
        spec = RandnnSpec(lambda_plus=lam_plus, lambda_minus=lam_minus,
                          w_plus=w_plus, w_minus=w_minus, rates=rates)
        rho_ff = np.zeros(n)
        for u in range(n):
            rho_ff[u] = (lam_plus[u] + w_plus[u] @ rho_ff) / \
                (rates[u] + lam_minus[u] + w_minus[u] @ rho_ff)
        worst_ff = max(worst_ff,
                       float(np.max(np.abs(solve_steady_state(spec).rho - rho_ff))))
    assert worst_ff < 1e-12

    violations = 0
    for spec, solution in specs:
        u = int(rng.integers(0, spec.n))
        lam = spec.lambda_plus.copy()
        lam[u] += 0.05
        bumped = RandnnSpec(lambda_plus=lam, lambda_minus=spec.lambda_minus,
                            w_plus=spec.w_plus, w_minus=spec.w_minus,
                            rates=spec.rates)
        if solve_steady_state(bumped).rho[u] < solution.rho[u] - 1e-12:
            violations += 1
    assert violations == 0
    _report(4, "network solver properties",
            f"50 stable specs: residual <= {worst_residual:.2e}, feedforward "
            f"gap <= {worst_ff:.2e}, 0 monotonicity violations")


def test_05_esqn_matches_network_steady_state():
    checked = 0
    worst = 0.0
    seed = 0
    while checked < 10:
        seed += 1
        model = EsqnModel.random(3, 25, rng=seeded_rng(seed))
        a = seeded_rng(1000 + seed).uniform(0.1, 1.0, 3)
        loads = np.zeros(model.n_res)
        for _ in range(30_000):
            previous, loads = loads, model.run(a[None], loads)[-model.n_res:, -1]
            if np.max(np.abs(loads - previous)) < 1e-15:
                break
        solution = solve_steady_state(model.network(a))
        if not solution.stable:
            continue
        gap = float(np.max(np.abs(loads - solution.rho)))
        assert gap < 1e-9
        worst = max(worst, gap)
        checked += 1
    _report(5, "reservoir vs analytic steady state",
            f"10 stable models agree within {worst:.2e} (tolerance 1e-9)")


def test_06_ridge_oracle_equivalence():
    rng = np.random.default_rng(77)
    worst = 0.0
    for problem in range(20):
        d = int(rng.integers(2, 11))
        k = int(rng.integers(3, 51)) if problem % 4 else int(rng.integers(2, d + 1))
        n_out = int(rng.integers(1, 4))
        z = rng.normal(size=(d, k))
        t = rng.normal(size=(n_out, k))
        lam = float(rng.choice([1e-6, 1e-3, 1e-1, 1.0]))
        fitted = ridge_solve(z, t, lam)
        oracle = np.linalg.solve(z @ z.T + lam * np.eye(d), (t @ z.T).T).T
        gap = np.linalg.norm(fitted - oracle) / max(np.linalg.norm(oracle), 1e-300)
        worst = max(worst, float(gap))
        assert gap <= 1e-8
    _report(6, "ridge oracle equivalence",
            f"20 problems (including wide K < D): relative gap <= {worst:.2e}")


def test_07_nmse_identities():
    targets = seeded_rng(5).normal(size=(40, 2))
    assert nmse(targets, targets.copy()) == 0.0
    mean_prediction = np.tile(targets.mean(axis=0), (40, 1))
    assert abs(nmse(targets, mean_prediction) - 1.0) < 1e-12
    assert nmse([1.0, 2.0, 3.0], [1.0, 2.0, 4.0]) == 0.5
    _report(7, "NMSE identities",
            "perfect 0 (exact), mean predictor 1 (1e-12), hand case 0.5 (exact)")


def test_08_reservoir_size_sweep_trend(config_dir):
    config = ExperimentConfig.from_file(os.path.join(config_dir, "narma_esqn.cfg"))
    start = time.perf_counter()
    outcomes = dict(reservoir_size_sweep(config, [10, 80]))
    elapsed = time.perf_counter() - start
    small = outcomes[10].summary.mean_nmse
    large = outcomes[80].summary.mean_nmse
    assert large <= small
    assert elapsed < 300.0
    _report(8, "reservoir-size trend",
            f"mean NMSE {large:.4f} at 80 units <= {small:.4f} at 10 units, "
            f"{elapsed:.1f}s")


def test_09_rerun_byte_identical(config_dir, tmp_path, monkeypatch):
    config_path = os.path.join(config_dir, "narma_tiny.cfg")
    contents = {}
    for run in ("one", "two"):
        rundir = tmp_path / run
        rundir.mkdir()
        monkeypatch.chdir(rundir)
        assert cli.main(["experiment", "--config", config_path]) == 0
        for name in ("results.csv", "summary.csv"):
            with open(rundir / name) as fh:
                contents.setdefault(name, []).append(fh.read())
    for name, (first, second) in contents.items():
        assert first == second, f"{name} differs between identical runs"
    # the library path must agree with the CLI path as well
    config = ExperimentConfig.from_file(config_path)
    outcome = run_experiment(config)
    assert results_csv(outcome.results) == contents["results.csv"][0]
    assert summary_csv([outcome.summary]) == contents["summary.csv"][0]
    _report(9, "determinism",
            "results.csv and summary.csv byte-identical across reruns")


def test_10_esn_fading_memory():
    model_a = EsnModel.random(1, 40, rng=seeded_rng(314))
    model_b = EsnModel(w_in=model_a.w_in, w_res=model_a.w_res)
    init = seeded_rng(315)
    start_a, start_b = init.uniform(-1.0, 1.0, 40), init.uniform(-1.0, 1.0, 40)
    start_gap = float(np.linalg.norm(start_a - start_b))
    drive = seeded_rng(316).uniform(0.0, 1.0, (500, 1))
    end_a = model_a.run(drive, start_a)[-40:, -1]
    end_b = model_b.run(drive, start_b)[-40:, -1]
    gap = float(np.linalg.norm(end_a - end_b))
    assert gap < 1e-6
    _report(10, "fading memory",
            f"state gap {start_gap:.2f} -> {gap:.2e} after 500 shared steps "
            "(tolerance 1e-6)")


def test_11_esqn_below_esn_on_every_series(narma_esqn, narma_esn):
    # The master seed fixes both the NARMA series and the trial weights, so
    # each seed is a new series; the paper's claim is paired: on the same
    # series, ESQN's mean NMSE is below ESN's. The shipped configs are
    # seed 1; seeds 2-5 rerun them on four more series.
    shipped = (narma_esqn[0], narma_esn[0])
    assert all(o.config.seed == 1 for o in shipped)
    start = time.perf_counter()
    series = {1: shipped}
    for seed in range(2, 6):
        series[seed] = [run_experiment(dataclasses.replace(o.config, seed=seed))
                        for o in shipped]
    elapsed = time.perf_counter() - start
    gaps = []
    for seed, (esqn, esn) in series.items():
        gap = esqn.summary.mean_nmse - esn.summary.mean_nmse
        assert gap < 0, (seed, esqn.summary, esn.summary)
        gaps.append(gap)
    _report(11, "paired ESQN < ESN",
            f"ESQN minus ESN mean NMSE from {min(gaps):.4f} to {max(gaps):.4f} "
            f"over master seeds 1-5, {elapsed:.1f}s for seeds 2-5")


def test_12_readme_table_matches_shipped_runs(fixture_root, narma_esqn, narma_esn):
    with open(os.path.join(os.path.dirname(fixture_root), "README.md")) as fh:
        rows = [[cell.strip() for cell in line.split("|")[1:-1]]
                for line in fh if line.startswith("| NARMA-10 |")]
    want = [[f"{outcome.summary.mean_nmse:.4f}", f"±{outcome.summary.ci_halfwidth:.4f}"]
            for outcome, _ in (narma_esqn, narma_esn)]
    assert [row[2:] for row in rows] == want
    _report(12, "README table",
            "NARMA-10 rows " + ", ".join(" ".join(cells) for cells in want))


def test_13_esqn_washout_erases_the_start_state(config_dir):
    # every reservoir starts at rest; from loads all 1 instead, each trial's
    # reservoir reaches the same state by the end of the washout rows, so
    # the start rule moves no fitted row
    config = ExperimentConfig.from_file(os.path.join(config_dir, "narma_esqn.cfg"))
    data = prepare_data(config)
    washout = data.train_inputs[:data.washout]
    assert len(washout) == 100
    worst = 0.0
    for trial in range(config.trials):
        model = harness.build_model(config, washout.shape[1], seeded_rng(
            substream_seed(config.seed, TRIAL_STREAM, trial)))
        rest, full = (model.run(washout, start)[-model.n_res:, -1]
                      for start in (np.zeros(model.n_res), np.ones(model.n_res)))
        worst = max(worst, float(np.max(np.abs(rest - full))))
    assert worst < 1e-12
    _report(13, "ESQN washout",
            f"start at rest or at loads 1: states within {worst:.1e} after the "
            f"{len(washout)} washout rows of {config.trials} trials (tolerance 1e-12)")
