import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reservoirq.data import generate_narma10
from reservoirq.esn import EsnModel
from reservoirq.esqn import EsqnModel
from reservoirq.metrics import nmse
from reservoirq.numerics import seeded_rng
from reservoirq.readout import LAMBDA_GRID, collect_states, fit_readout, select_penalty


def esqn(seed=0, n_in=1, n_res=5):
    return EsqnModel.random(n_in, n_res, rng=seeded_rng(seed))


def esn(seed=0, n_in=1, n_res=5):
    return EsnModel.random(n_in, n_res, density=0.2, target_rho=0.95, rng=seeded_rng(seed))


def narma_lag_inputs(steps, seed, lags=10):
    """Rows of `lags` consecutive NARMA-10 drive values, as the shipped
    NARMA configs feed the reservoir."""
    s, _ = generate_narma10(steps + lags - 1, seeded_rng(seed))
    return np.lib.stride_tricks.sliding_window_view(s, lags).copy()


def esqn_reference(model, inputs):
    """The paper's load map evaluated literally, one step at a time:
    rho <- (W+_in x + W+_res rho) / (r + W-_in x + W-_res rho), x = a / r_in.
    Returns the (n_res, K) loads and the number of steps with a load > 1."""
    rho = model.state.copy()
    columns, overloads = [], 0
    for a in inputs:
        x = a / model.rates_in
        numer = model.w_plus_in @ x + model.w_plus_res @ rho
        denom = model.rates_res + model.w_minus_in @ x + model.w_minus_res @ rho
        rho = numer / denom
        overloads += int(np.any(rho > 1.0))
        columns.append(rho)
    return np.reshape(columns, (len(inputs), model.n_res)).T, overloads


def esn_reference(model, inputs):
    """x <- tanh(W_in [1; a] + W_res x) evaluated literally, one step at a time."""
    x = model.state.copy()
    columns = []
    for a in inputs:
        x = np.tanh(model.w_in @ np.concatenate(([1.0], a)) + model.w_res @ x)
        columns.append(x)
    return np.reshape(columns, (len(inputs), model.n_res)).T


class TestCollectStates:
    def test_single_column(self):
        model = esqn(seed=1)
        twin = esqn(seed=1)
        out = collect_states(model, np.array([[0.4]]), washout=0)
        assert out.shape == (1 + 1 + 5, 1)
        expected_state = twin.run([[0.4]])[2:, 0]
        np.testing.assert_array_equal(out[:, 0],
                                      np.concatenate(([1.0], [0.4], expected_state)))

    def test_zero_weight_reservoir_gives_zero_state_block(self):
        model = EsqnModel.random(1, 4, rng=seeded_rng(2),
                                 weight_lo=0.0, weight_hi=0.0)
        inputs = seeded_rng(3).uniform(0.0, 1.0, (6, 1))
        out = collect_states(model, inputs, washout=0)
        np.testing.assert_array_equal(out[2:, :], 0.0)
        np.testing.assert_array_equal(out[1, :], inputs[:, 0])

    def test_matches_manual_drive_on_narma_inputs(self):
        inputs = narma_lag_inputs(300, seed=4)
        model = EsqnModel.random(10, 80, rng=seeded_rng(5))
        states, overloads = esqn_reference(model, inputs)
        collected = collect_states(model, inputs, washout=20)
        assert collected.shape == (1 + 10 + 80, 280)
        np.testing.assert_array_equal(collected[0], 1.0)
        np.testing.assert_array_equal(collected[1:11], inputs[20:].T)
        np.testing.assert_allclose(collected[11:], states[:, 20:], rtol=0, atol=1e-12)
        np.testing.assert_allclose(model.state, states[:, -1], rtol=0, atol=1e-12)
        # the reference drive overloads, so the tally comparison is not vacuous
        assert overloads > 0
        assert model.overload_steps == overloads

    def test_esn_matches_manual_drive_on_narma_inputs(self):
        inputs = narma_lag_inputs(300, seed=6)
        model = EsnModel.random(10, 80, density=0.15, target_rho=0.95,
                                rng=seeded_rng(7))
        states = esn_reference(model, inputs)
        collected = collect_states(model, inputs, washout=20)
        np.testing.assert_array_equal(collected[1:11], inputs[20:].T)
        np.testing.assert_allclose(collected[11:], states[:, 20:], rtol=0, atol=1e-12)
        np.testing.assert_allclose(model.state, states[:, -1], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("steps", [0, 1, 300])
    @pytest.mark.parametrize("make, reference, n_in", [
        # with no inputs the ESN's window is only the state and the bias
        (esn, esn_reference, 0),
        (esn, esn_reference, 4),
        (esqn, lambda model, inputs: esqn_reference(model, inputs)[0], 4),
    ], ids=["esn-no-input", "esn", "esqn"])
    def test_run_returns_regressors_of_the_literal_steps(self, make, reference,
                                                         n_in, steps):
        model = make(seed=9, n_in=n_in, n_res=30)
        start = model.state.copy()
        inputs = seeded_rng(8).uniform(0.0, 1.0, (steps, n_in))
        states = reference(model, inputs)
        regressors = model.run(inputs)
        assert regressors.shape == (1 + n_in + 30, steps)
        # sample-major: column t is contiguous
        assert regressors.T.flags.c_contiguous
        np.testing.assert_array_equal(regressors[0], 1.0)
        np.testing.assert_array_equal(regressors[1:1 + n_in], inputs.T)
        np.testing.assert_allclose(regressors[1 + n_in:], states, rtol=0, atol=1e-12)
        last = states[:, -1] if steps else start
        np.testing.assert_allclose(model.state, last, rtol=0, atol=1e-12)

    def test_washout_drops_leading_columns(self):
        inputs = seeded_rng(6).uniform(0.0, 1.0, (20, 1))
        full = collect_states(esqn(seed=7), inputs, washout=0)
        tail = collect_states(esqn(seed=7), inputs, washout=5)
        np.testing.assert_array_equal(tail, full[:, 5:])

    def test_washout_must_leave_rows(self):
        inputs = np.zeros((3, 1))
        with pytest.raises(ValueError):
            collect_states(esqn(), inputs, washout=3)
        with pytest.raises(ValueError):
            collect_states(esqn(), inputs, washout=-1)


class TestFitReadout:
    def test_exact_linear_targets_reach_zero_error(self):
        rng = seeded_rng(10)
        regressors = rng.normal(size=(4, 30))
        true_w = rng.normal(size=(2, 4))
        targets = true_w @ regressors
        w_out = fit_readout(regressors, targets, 1e-14)
        predictions = w_out @ regressors
        assert nmse(targets.T, predictions.T) < 1e-16

    def test_huge_penalty_collapses_to_mean_ratio(self):
        # with lam = 1e6 the weights shrink to ~0, predictions to ~0, and
        # NMSE approaches sum(b^2) / sum((b - mean)^2) = 55 / 10 = 5.5 on
        # targets [1..5]
        rng = seeded_rng(11)
        regressors = np.vstack([np.ones(5), rng.normal(size=(3, 5))])
        targets = np.array([[1.0, 2.0, 3.0, 4.0, 5.0]])
        lam = 1e6
        w_out = fit_readout(regressors, targets, lam)
        # independent normal-equations oracle
        oracle = np.linalg.solve(
            regressors @ regressors.T + lam * np.eye(4),
            (targets @ regressors.T).T).T
        np.testing.assert_allclose(w_out, oracle, rtol=1e-10)
        assert np.max(np.abs(w_out @ regressors)) < 1e-3
        assert nmse(targets.T, (w_out @ regressors).T) == \
            pytest.approx(5.5, rel=1e-2)

    def test_two_outputs_equal_stacked_single_fits(self):
        rng = seeded_rng(12)
        regressors = rng.normal(size=(5, 40))
        targets = rng.normal(size=(2, 40))
        joint = fit_readout(regressors, targets, 0.01)
        row0 = fit_readout(regressors, targets[:1], 0.01)
        row1 = fit_readout(regressors, targets[1:], 0.01)
        np.testing.assert_allclose(joint, np.vstack([row0, row1]), atol=1e-12)

    def test_training_reproduction_full_rank(self):
        rng = seeded_rng(13)
        regressors = rng.normal(size=(8, 8))
        targets = rng.normal(size=(1, 8))
        w_out = fit_readout(regressors, targets, 1e-14)
        np.testing.assert_allclose(w_out @ regressors, targets, atol=1e-6)


class TestSelectPenalty:
    def test_noiseless_linear_picks_smallest(self):
        rng = seeded_rng(15)
        regressors = rng.normal(size=(4, 60))
        targets = rng.normal(size=(1, 4)) @ regressors
        best, scores = select_penalty(regressors, targets)
        assert best == min(LAMBDA_GRID)
        assert set(scores) == set(LAMBDA_GRID)

    @pytest.mark.parametrize("shape, grid", [
        ((6, 60), LAMBDA_GRID),                 # primal side: D <= K_fit
        ((30, 20), (10.0, 1e-3, 1.0, 1e-1)),    # dual side: D > K_fit, unsorted
    ])
    def test_scores_match_literal_per_penalty_fits(self, shape, grid):
        rng = seeded_rng(18)
        regressors = rng.normal(size=shape)
        targets = rng.normal(size=(2, 4)) @ regressors[:4] \
            + 0.3 * rng.normal(size=(2, shape[1]))
        best, scores = select_penalty(regressors, targets, grid=grid)
        k = shape[1]
        n_fit = k - max(2, round(0.2 * k))
        z_fit, t_fit = regressors[:, :n_fit], targets[:, :n_fit]
        t_hold = targets[:, n_fit:]
        literal = {}
        for lam in grid:
            w = np.linalg.solve(z_fit @ z_fit.T + lam * np.eye(shape[0]),
                                z_fit @ t_fit.T).T
            err = t_hold - w @ regressors[:, n_fit:]
            spread = t_hold - t_hold.mean(axis=1, keepdims=True)
            literal[lam] = np.sum(err ** 2) / np.sum(spread ** 2)
        assert set(scores) == set(grid)
        for lam in grid:
            assert scores[lam] == pytest.approx(literal[lam], rel=1e-10)
        assert best == min(literal, key=literal.get)
        assert best == min(lam for lam in grid if scores[lam] == min(scores.values()))

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_target_scale_invariance(self, data):
        # ridge weights are linear in the targets and NMSE is scale-free,
        # so scaling the targets by c > 0 changes no score beyond rounding
        d = data.draw(st.integers(min_value=1, max_value=12), label="D")
        k = data.draw(st.integers(min_value=5, max_value=60), label="K")
        n_out = data.draw(st.integers(min_value=1, max_value=3), label="N_b")
        c = data.draw(st.floats(min_value=1e-3, max_value=1e3), label="c")
        rng = seeded_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        regressors = rng.normal(size=(d, k))
        targets = rng.normal(size=(n_out, d)) @ regressors + rng.normal(size=(n_out, k))
        best, scores = select_penalty(regressors, targets)
        best_c, scores_c = select_penalty(regressors, c * targets)
        assert set(scores_c) == set(scores)
        for lam in scores:
            assert scores_c[lam] == pytest.approx(scores[lam], rel=1e-9)
        first, second = sorted(scores.values())[:2]
        if second != pytest.approx(first, rel=1e-9):
            assert best_c == best

    def test_ties_go_to_the_smaller_penalty(self):
        # all-zero fit columns give W = 0 for every penalty, so every score
        # ties and the smallest penalty must win, whatever the grid order
        regressors = np.zeros((3, 20))
        regressors[:, 16:] = seeded_rng(19).normal(size=(3, 4))
        targets = seeded_rng(20).normal(size=(1, 20))
        best, scores = select_penalty(regressors, targets, grid=(1e-1, 1e-4, 1e-2))
        assert len(set(scores.values())) == 1
        assert best == 1e-4

    def test_deterministic(self):
        rng = seeded_rng(16)
        regressors = rng.normal(size=(4, 50))
        targets = rng.normal(size=(1, 50))
        assert select_penalty(regressors, targets) == \
            select_penalty(regressors, targets)

    def test_small_split_still_selects(self):
        rng = seeded_rng(17)
        regressors = rng.normal(size=(2, 5))
        targets = rng.normal(size=(1, 5))
        best, scores = select_penalty(regressors, targets)
        assert best in LAMBDA_GRID and len(scores) == len(LAMBDA_GRID)

    def test_needs_enough_samples(self):
        with pytest.raises(ValueError):
            select_penalty(np.ones((2, 2)), np.ones((1, 2)))
