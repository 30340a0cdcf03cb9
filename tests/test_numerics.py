import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reservoirq import numerics, readout
from reservoirq.esn import EsnModel
from reservoirq.esqn import EsqnModel
from reservoirq.numerics import (check_integer, drive, one_blas_thread, seeded_rng,
                                 substream_rng, substream_seed)
from reservoirq.readout import ridge_solve, ridge_solve_grid

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
        with pytest.raises(ValueError, match="sample counts differ"):
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
                                  min_size=1, max_size=5), label="grid")
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
        with pytest.raises(ValueError, match="penalty grid must be non-empty"):
            ridge_solve_grid(np.eye(2), np.ones((1, 2)), [])

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


# each reservoir kind, with its input and reservoir sizes
BOTH_MODELS = pytest.mark.parametrize("cls, n_in, n_res",
                                      [(EsnModel, 2, 40), (EsqnModel, 3, 25)],
                                      ids=["esn", "esqn"])


class TestDrive:
    def test_columns_equal_a_literal_step_loop(self):
        rng = seeded_rng(12)
        n_in, n, k = 2, 4, 6
        inputs = rng.uniform(0.0, 1.0, (k, n_in))
        for ufunc in (np.tanh, np.divide):
            state = rng.uniform(0.0, 1.0, n)
            step = rng.uniform(0.1, 1.0, (ufunc.nin * n, 1 + n_in + n))
            regressors, last = drive(inputs, state, step, ufunc)
            assert regressors.shape == (1 + n_in + n, k)
            x = state
            for t in range(k):
                # the step matrix's columns multiply [x_{t-1}; 1; a_t]
                r = step @ np.concatenate([x, [1.0], inputs[t]])
                x = ufunc(*np.split(r, ufunc.nin))
                np.testing.assert_array_equal(
                    regressors[:, t], np.concatenate([[1.0], inputs[t], x]))
            np.testing.assert_array_equal(last, x)
            last[:] = -1.0  # the returned state does not alias the matrix
            np.testing.assert_array_equal(regressors[1 + n_in:, -1], x)

    def test_no_inputs_give_no_columns_and_the_given_state(self):
        state = np.array([0.5, -0.25])
        regressors, last = drive(np.empty((0, 1)), state, np.ones((2, 4)), np.tanh)
        assert regressors.shape == (4, 0)
        np.testing.assert_array_equal(last, state)
        assert last is not state

    @BOTH_MODELS
    def test_split_run_equals_whole_run(self, cls, n_in, n_res):
        # validation drives the model on from where training left it
        rng = seeded_rng(40)
        first, second = rng.uniform(0.0, 1.0, (12, n_in)), rng.uniform(0.0, 1.0, (30, n_in))
        split, whole = (cls.random(n_in, n_res, seeded_rng(41)) for _ in range(2))
        pieces = np.hstack([split.run(first), split.run(second)])
        joined = whole.run(np.vstack([first, second]))
        np.testing.assert_allclose(pieces, joined, rtol=0, atol=1e-15)
        np.testing.assert_array_equal(split.state, whole.state)
        if cls is EsqnModel:
            assert split.overload_steps == whole.overload_steps

    @BOTH_MODELS
    def test_state_does_not_alias_the_output(self, cls, n_in, n_res):
        rng = seeded_rng(47)
        first, second = rng.uniform(0.0, 1.0, (9, n_in)), rng.uniform(0.0, 1.0, (11, n_in))
        model, whole = (cls.random(n_in, n_res, seeded_rng(48)) for _ in range(2))
        states = model.run(first)[1 + n_in:]
        last = states[:, -1].copy()
        states[:] = 3.0  # writing into the returned matrix leaves the model alone
        np.testing.assert_array_equal(model.state, last)
        joined = whole.run(np.vstack([first, second]))
        np.testing.assert_allclose(model.run(second), joined[:, 9:], rtol=0, atol=1e-15)


class TestCheckInteger:
    @pytest.mark.parametrize("value", [3, 7, np.int64(3), np.uint8(3)])
    def test_integers_at_the_bound_or_above_pass_through(self, value):
        assert check_integer("k", value, 3) is value

    @pytest.mark.parametrize("value", [True, np.True_, 3.0, 0.9, "3", None])
    def test_non_integers_rejected_naming_the_argument(self, value):
        with pytest.raises(ValueError) as info:
            check_integer("k", value, 0)
        assert str(info.value) == f"k must be an integer, got {value!r}"

    def test_below_the_bound_rejected(self):
        with pytest.raises(ValueError) as info:
            check_integer("k", np.int64(-2), 0)
        assert str(info.value) == "k must be >= 0, got -2"


class TestRng:
    def test_substreams_are_reproducible_and_distinct(self):
        a = substream_rng(5, 0, 1).uniform(size=4)
        b = substream_rng(5, 0, 1).uniform(size=4)
        c = substream_rng(5, 0, 2).uniform(size=4)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_substream_seed_is_stable(self):
        assert substream_seed(7, 1, 3) == substream_seed(7, 1, 3)
        assert substream_seed(7, 1, 3) != substream_seed(7, 1, 4)

    @pytest.mark.parametrize("seed", [True, 2.0, -1])
    def test_seeded_rng_takes_only_a_nonnegative_integer(self, seed):
        with pytest.raises(ValueError, match="^seed must be"):
            seeded_rng(seed)

    def test_substreams_take_numpy_integers_and_no_float(self):
        assert substream_seed(np.int64(1), 1, np.uint8(0)) == substream_seed(1, 1, 0)
        # a float is not truncated to the stream of its integer part
        with pytest.raises(ValueError):
            substream_seed(1.5, 1, 0)
        with pytest.raises(ValueError):
            substream_rng(1, 1.5)

    @pytest.mark.parametrize("key", [True, "1", -1])
    def test_substream_keys_pass_the_integer_rule(self, key):
        # numpy's SeedSequence would read True and "1" as the stream of 1
        for call in (lambda: substream_seed(key, 1, 0), lambda: substream_rng(1, key)):
            with pytest.raises(ValueError, match="^stream key must be"):
                call()


@pytest.fixture
def blas_threads():
    """numpy's OpenBLAS thread-count getter, with the count set to 2 for
    the test so a pin to 1 is visible, and the old count restored after."""
    calls = numerics._openblas_thread_calls()
    if calls is None:
        pytest.skip("numpy does not use its bundled OpenBLAS here")
    get, put = calls
    before = get()
    put(2)
    yield get
    put(before)


class TestOneBlasThread:
    def test_pins_one_thread_inside_the_block(self, blas_threads):
        with one_blas_thread() as pinned:
            assert pinned is True
            assert blas_threads() == 1
        assert blas_threads() == 2

    def test_restores_the_count_when_the_body_raises(self, blas_threads):
        with pytest.raises(RuntimeError, match="boom"):
            with one_blas_thread():
                raise RuntimeError("boom")
        assert blas_threads() == 2

    def test_without_openblas_yields_false_and_changes_nothing(
            self, blas_threads, monkeypatch):
        monkeypatch.setattr(numerics, "_openblas_thread_calls", lambda: None)
        with one_blas_thread() as pinned:
            assert pinned is False
            assert blas_threads() == 2
        assert blas_threads() == 2
