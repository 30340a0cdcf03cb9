import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reservoirq import readout
from reservoirq.data import generate_narma10, lag_paired_series
from reservoirq.esn import EsnModel
from reservoirq.esqn import EsqnModel
from reservoirq.metrics import nmse
from reservoirq.numerics import seeded_rng
from reservoirq.readout import LAMBDA_GRID, ridge_solve, ridge_solve_grid, select_penalty


def esqn(seed=0, n_in=1, n_res=5):
    return EsqnModel.random(n_in, n_res, rng=seeded_rng(seed))


def esn(seed=0, n_in=1, n_res=5):
    return EsnModel.random(n_in, n_res, rng=seeded_rng(seed))


def esqn_reference(model, inputs, rho):
    """The paper's load map evaluated literally, one step at a time, from rho:
    rho <- (W+_in x + W+_res rho) / (r + W-_in x + W-_res rho), x = a / r_in.
    Returns the (n_res, K) loads and the number of steps with a load > 1."""
    columns, overloads = [], 0
    for a in inputs:
        x = a / model.rates_in
        numer = model.w_plus_in @ x + model.w_plus_res @ rho
        denom = model.rates_res + model.w_minus_in @ x + model.w_minus_res @ rho
        rho = numer / denom
        overloads += int(np.any(rho > 1.0))
        columns.append(rho)
    return np.reshape(columns, (len(inputs), model.n_res)).T, overloads


def esn_reference(model, inputs, x):
    """x <- tanh(W_in [1; a] + W_res x) evaluated literally, one step at a
    time, from x. Returns the (n_res, K) states and None: an ESN tallies no
    overloads."""
    columns = []
    for a in inputs:
        x = np.tanh(model.w_in @ np.concatenate(([1.0], a)) + model.w_res @ x)
        columns.append(x)
    return np.reshape(columns, (len(inputs), model.n_res)).T, None


def literal_cases():
    """Random drives of 0, 1 and 300 rows for each reservoir, then the
    10-lag NARMA-10 drive of the shipped configs for each model kind."""
    kinds = [
        # with no inputs the ESN's window is only the state and the bias
        ("esn-no-input", esn, esn_reference, 0),
        ("esn", esn, esn_reference, 4),
        ("esqn", esqn, esqn_reference, 4),
    ]
    return [pytest.param(make, reference, n_in, steps, id=f"{name}-{steps}")
            for name, make, reference, n_in in kinds for steps in (0, 1, 300)] + \
        [pytest.param(make, reference, 10, "narma10", id=f"{name}-narma10")
         for name, make, reference, _ in kinds[1:]]


class TestCollectStates:
    def test_zero_weight_reservoir_gives_zero_state_block(self):
        model = EsqnModel(w_plus_in=np.zeros((4, 1)), w_minus_in=np.zeros((4, 1)),
                          w_plus_res=np.zeros((4, 4)), w_minus_res=np.zeros((4, 4)),
                          rates_in=[1.0], rates_res=np.ones(4))
        start = seeded_rng(2).uniform(0.0, 1.0, 4)
        inputs = seeded_rng(3).uniform(0.0, 1.0, (6, 1))
        out = readout.collect_states(model, inputs, start)
        np.testing.assert_array_equal(out[2:, :], 0.0)
        np.testing.assert_array_equal(out[1, :], inputs[:, 0])

    @pytest.mark.parametrize("make, reference, n_in, steps", literal_cases())
    def test_run_returns_regressors_of_the_literal_steps(self, make, reference,
                                                         n_in, steps):
        if steps == "narma10":
            # N = 80 as shipped, less the first 20 columns as a washout
            s, b = generate_narma10(309, seeded_rng(4))
            inputs, n_res, washout = lag_paired_series(s, b, range(10))[0], 80, 20
        else:
            inputs, n_res, washout = seeded_rng(8).uniform(0.0, 1.0, (steps, n_in)), 30, 0
        model = make(seed=9, n_in=n_in, n_res=n_res)
        start = seeded_rng(7).uniform(0.0, 1.0, n_res)
        states, overloads = reference(model, inputs, start)
        regressors = readout.collect_states(model, inputs, start)[:, washout:]
        assert regressors.shape == (1 + n_in + n_res, len(inputs) - washout)
        # sample-major: column t is contiguous
        assert regressors.T.flags.c_contiguous
        np.testing.assert_array_equal(regressors[0], 1.0)
        np.testing.assert_array_equal(regressors[1:1 + n_in], inputs[washout:].T)
        np.testing.assert_allclose(regressors[1 + n_in:], states[:, washout:],
                                   rtol=0, atol=1e-12)
        if overloads is not None:
            assert model.overload_steps == overloads
            # the NARMA-10 drive overloads, so there the tally is not vacuous
            assert overloads > 0 or steps != "narma10"


class TestFitReadout:
    """The readout fit, w_out = ridge_solve(Z, T, lam), on collected regressors."""

    def test_exact_linear_targets_reach_zero_error(self):
        rng = seeded_rng(10)
        regressors = rng.normal(size=(4, 30))
        true_w = rng.normal(size=(2, 4))
        targets = true_w @ regressors
        w_out = ridge_solve(regressors, targets, 1e-14)
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
        w_out = ridge_solve(regressors, targets, lam)
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
        joint = ridge_solve(regressors, targets, 0.01)
        row0 = ridge_solve(regressors, targets[:1], 0.01)
        row1 = ridge_solve(regressors, targets[1:], 0.01)
        np.testing.assert_allclose(joint, np.vstack([row0, row1]), atol=1e-12)


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

    def test_empty_grid_rejected(self):
        rng = seeded_rng(21)
        with pytest.raises(ValueError,
                           match=r"^penalty grid must be a non-empty sequence, got \(\)$"):
            select_penalty(rng.normal(size=(3, 20)), rng.normal(size=(1, 20)), grid=())

    def test_targets_with_no_output_row_rejected(self):
        # every penalty used to score nan, and the smallest was returned
        with pytest.raises(ValueError, match="^targets must have at least one output column$"):
            select_penalty(seeded_rng(21).normal(size=(3, 20)), np.ones((0, 20)))

    def test_penalties_come_back_as_floats(self):
        rng = seeded_rng(26)
        best, scores = select_penalty(rng.normal(size=(3, 20)), rng.normal(size=(1, 20)),
                                      grid=(np.float32(0.5), 2))
        assert type(best) is float
        assert [type(lam) for lam in scores] == [float, float]

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

    @pytest.mark.parametrize("fraction", [-1, float("nan"), True, 0, 1.0])
    def test_holdout_fraction_must_lie_strictly_between_0_and_1(self, fraction):
        # -1 once held out two columns and nan failed converting to an integer
        rng = seeded_rng(28)
        with pytest.raises(ValueError, match="^holdout_fraction must be a real number "
                                             r"in \(0, 1\), got "):
            select_penalty(rng.normal(size=(3, 20)), rng.normal(size=(1, 20)),
                           holdout_fraction=fraction)

    def test_constant_holdout_tail_rejected(self):
        # the tail's targets have no variance, so no penalty can be scored
        regressors = seeded_rng(18).normal(size=(3, 20))
        targets = np.ones((1, 20))
        targets[:, :16] = seeded_rng(24).normal(size=(1, 16))
        with pytest.raises(ValueError, match="targets are constant"):
            select_penalty(regressors, targets)


    @pytest.mark.parametrize("solve", [
        lambda z, t: select_penalty(z, t),
        lambda z, t: ridge_solve_grid(z, t, [0.1]),
        lambda z, t: ridge_solve(z, t, 0.1),
    ], ids=["select_penalty", "ridge_solve_grid", "ridge_solve"])
    @pytest.mark.parametrize("case", ["regressors-1d", "targets-sample-count",
                                      "regressors-nan-in-tail", "targets-nan-in-tail"])
    def test_every_array_takes_the_array_rule(self, solve, case):
        # the held-out tail is checked with the rest: a nan there would be
        # scored, not rejected
        rng = seeded_rng(27)
        z, t = rng.normal(size=(3, 20)), rng.normal(size=(1, 20))
        if case == "regressors-1d":
            z, message = z[0], r"regressors must have shape \(None, None\), got \(20,\)"
        elif case == "targets-sample-count":
            t, message = t[:, :16], r"targets must have shape \(None, 20\), got \(1, 16\)"
        else:
            name = case.split("-")[0]
            {"regressors": z, "targets": t}[name][-1, -1] = np.nan
            message = f"{name} must be finite"
        with pytest.raises(ValueError, match=f"^{message}$"):
            solve(z, t)


class TestRidgeSolve:
    def test_identity_regressors(self):
        w = ridge_solve(np.eye(3), np.array([[1.0, 2.0, 3.0]]), 1e-14)
        np.testing.assert_allclose(w, [[1.0, 2.0, 3.0]], atol=1e-12)

    def test_zero_targets(self):
        z = seeded_rng(0).normal(size=(4, 9))
        w = ridge_solve(z, np.zeros((2, 9)), 0.5)
        np.testing.assert_allclose(w, 0.0, atol=1e-14)

    def test_hand_solved_2x2(self):
        # (Z Z' + 0.1 I) is [[2.1, 1], [1, 1.1]] with det 1.31 and
        # T Z' = [4, 3]; elimination gives W = [140/131, 230/131].
        z = np.array([[1.0, 1.0], [0.0, 1.0]])
        t = np.array([[1.0, 3.0]])
        w = ridge_solve(z, t, 0.1)
        np.testing.assert_allclose(w, [[140.0 / 131.0, 230.0 / 131.0]], rtol=1e-12)

    def test_full_rank_interpolation(self):
        rng = seeded_rng(5)
        z = rng.normal(size=(6, 6))
        t = rng.normal(size=(2, 6))
        w = ridge_solve(z, t, 1e-14)
        assert np.linalg.norm(w @ z - t) / np.linalg.norm(t) < 1e-8

    def test_residual_monotone_in_lambda(self):
        rng = seeded_rng(11)
        z = rng.normal(size=(5, 30))
        t = rng.normal(size=(1, 30))
        residuals = []
        for lam in (1e-9, 1e-6, 1e-3, 1e-1):
            w = ridge_solve(z, t, lam)
            residuals.append(np.linalg.norm(t - w @ z))
        assert all(b >= a - 1e-12 for a, b in zip(residuals, residuals[1:]))

    def test_wide_problem_uses_dual_identity(self):
        # K < D: result must still satisfy W (Z Z' + lam I) = T Z'
        rng = seeded_rng(7)
        z = rng.normal(size=(10, 4))
        t = rng.normal(size=(3, 4))
        lam = 0.01
        w = ridge_solve(z, t, lam)
        lhs = w @ (z @ z.T + lam * np.eye(10))
        np.testing.assert_allclose(lhs, t @ z.T, rtol=1e-9, atol=1e-12)

    def test_singular_gram_solved_with_a_small_penalty(self):
        # Z Z' = [[2, 2], [2, 2]] has rank one; the penalty alone makes the
        # system solvable, and the weights split evenly by symmetry
        z = np.array([[1.0, 1.0], [1.0, 1.0]])
        t = np.array([[1.0, 2.0]])
        lam = 1e-8
        w = ridge_solve(z, t, lam)
        np.testing.assert_allclose(w @ (z @ z.T + lam * np.eye(2)), t @ z.T, rtol=1e-9)
        np.testing.assert_allclose(w, [[0.75, 0.75]], rtol=1e-8)

    def test_negative_lambda_rejected(self):
        for lam in (-1.0, 0.0):
            with pytest.raises(ValueError, match="positive"):
                ridge_solve(np.eye(2), np.ones((1, 2)), lam)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError,
                           match=r"targets must have shape \(None, 2\), got \(1, 3\)"):
            ridge_solve(np.eye(2), np.ones((1, 3)), 0.1)


class TestRidgeSolveGrid:
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_each_penalty_matches_normal_equations(self, data):
        # primal (D <= K) and dual (D > K) shapes alike must give
        # W = T Z' (Z Z' + lam I)^-1
        d = data.draw(st.integers(min_value=1, max_value=12), label="D")
        k = data.draw(st.integers(min_value=1, max_value=12), label="K")
        n_out = data.draw(st.integers(min_value=1, max_value=3), label="N_b")
        lams = data.draw(st.lists(st.floats(min_value=1e-3, max_value=10.0),
                                  min_size=1, max_size=5, unique=True), label="grid")
        rng = seeded_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        z = rng.normal(size=(d, k))
        t = rng.normal(size=(n_out, k))
        weights = ridge_solve_grid(z, t, lams)
        assert len(weights) == len(lams)
        for lam, w in zip(lams, weights):
            oracle = np.linalg.solve(z @ z.T + lam * np.eye(d), z @ t.T).T
            np.testing.assert_allclose(w, oracle, rtol=1e-8, atol=1e-12)

    @pytest.mark.parametrize("shape", [(4, 30), (30, 4)])
    def test_grid_position_does_not_change_a_fit(self, shape):
        # a diagonal shift that accumulated across penalties, instead of
        # being restored, would make the second fit differ
        rng = seeded_rng(21)
        z = rng.normal(size=shape)
        t = rng.normal(size=(2, shape[1]))
        np.testing.assert_array_equal(ridge_solve_grid(z, t, [0.5, 1e-3])[1],
                                      ridge_solve_grid(z, t, [1e-3])[0])
        np.testing.assert_array_equal(ridge_solve_grid(z, t, [1e-3, 0.5])[1],
                                      ridge_solve_grid(z, t, [0.5])[0])

    @pytest.mark.parametrize("shape", [(4, 30), (30, 4)])
    def test_inputs_not_mutated(self, shape):
        rng = seeded_rng(22)
        z = rng.normal(size=shape)
        t = rng.normal(size=(1, shape[1]))
        z_before, t_before = z.copy(), t.copy()
        ridge_solve_grid(z, t, [1e-8, 1e-2, 1.0])
        np.testing.assert_array_equal(z, z_before)
        np.testing.assert_array_equal(t, t_before)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError,
                           match=r"^penalty grid must be a non-empty sequence, got \[\]$"):
            ridge_solve_grid(np.eye(2), np.ones((1, 2)), [])

    def test_no_sample_column_rejected(self):
        with pytest.raises(ValueError, match="^need at least one sample column$"):
            ridge_solve_grid(np.zeros((3, 0)), np.zeros((1, 0)), [0.1])

    def test_negative_penalty_anywhere_rejected(self):
        for bad in (-1.0, 0.0):
            with pytest.raises(ValueError, match="positive"):
                ridge_solve_grid(np.eye(2), np.ones((1, 2)), [0.1, bad, 1.0])

    @pytest.mark.parametrize("shape", [(209, 300), (300, 209), (91, 300), (300, 91)])
    def test_grid_spanning_several_stacks_matches_lone_solves(self, shape):
        # eight 91 x 91 systems (primal, then dual) fit in one stack; eight
        # 209 x 209 systems do not, so each penalty is solved in place on
        # the Gram matrix; either way each fit must equal the one-penalty
        # solve bit for bit
        assert 8 * 91 ** 2 <= readout.STACK_DOUBLES < 8 * 209 ** 2
        rng = seeded_rng(23)
        z = rng.normal(size=shape)
        t = rng.normal(size=(2, shape[1]))
        lams = [10.0 ** k for k in range(-8, 0)]
        weights = ridge_solve_grid(z, t, lams)
        assert weights.shape == (8, 2, shape[0])
        for lam, w in zip(lams, weights):
            np.testing.assert_array_equal(w, ridge_solve_grid(z, t, [lam])[0])


class TestCheckPenalties:
    @pytest.mark.parametrize("solve", [
        lambda z, t, lam: ridge_solve(z, t, lam),
        lambda z, t, lam: ridge_solve_grid(z, t, [0.1, lam]),
        lambda z, t, lam: select_penalty(z, t, grid=(0.1, lam)),
    ], ids=["ridge_solve", "ridge_solve_grid", "select_penalty"])
    @pytest.mark.parametrize("lam", [float("inf"), True, "1e-3"])
    def test_every_solver_admits_penalties_by_the_configs_rule(self, solve, lam):
        # values the config rejects for lambda_grid, though float() takes each
        rng = seeded_rng(25)
        with pytest.raises(ValueError, match="penalty grid .*positive") as info:
            solve(rng.normal(size=(3, 20)), rng.normal(size=(1, 20)), lam)
        assert repr(lam) in str(info.value)

    @pytest.mark.parametrize("solve", [
        lambda z, t, grid: ridge_solve_grid(z, t, grid),
        lambda z, t, grid: select_penalty(z, t, grid=grid),
    ], ids=["ridge_solve_grid", "select_penalty"])
    def test_a_scalar_grid_is_no_sequence(self, solve):
        # not read as a grid of one penalty
        rng = seeded_rng(25)
        with pytest.raises(ValueError,
                           match="^penalty grid must be a non-empty sequence, got 0.1$"):
            solve(rng.normal(size=(3, 20)), rng.normal(size=(1, 20)), 0.1)
