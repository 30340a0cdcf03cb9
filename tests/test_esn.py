import math

import numpy as np
import pytest

from reservoirq import spectral_radius
from reservoirq.esn import DENSITY, MIN_SIZE, EsnModel
from reservoirq.numerics import seeded_rng


def small_model(seed=0, n_in=1, n_res=40):
    return EsnModel.random(n_in, n_res, rng=seeded_rng(seed))


def run_states(model, inputs):
    """The state rows of the regressor matrix that ``run`` returns."""
    return model.run(inputs)[model.n_in + 1:]


class TestInit:
    def test_spectral_radius_hits_target(self):
        model = small_model(seed=3, n_res=100)
        assert spectral_radius(model.w_res) == pytest.approx(0.95, abs=1e-6)

    @pytest.mark.parametrize("seed", [1, 5])
    def test_wide_reservoir_hits_target(self, seed):
        # an iterative estimate of the radius misses the target on these
        # draws by 1e-3; the oracle is numpy's dense eigensolve
        model = EsnModel.random(10, 600, np.random.default_rng(seed))
        rho = float(np.max(np.abs(np.linalg.eigvals(model.w_res))))
        assert rho == pytest.approx(0.95, rel=1e-9)

    def test_exact_nonzero_count(self):
        # the support is sampled without replacement, so the count is
        # exactly round(0.15 * 100^2) = 1500, inside the binomial band
        model = small_model(seed=1, n_res=100)
        nnz = int(np.count_nonzero(model.w_res))
        assert nnz == 1500
        assert 1400 <= nnz <= 1600

    def test_density_fraction_invariant(self):
        model = small_model(seed=2, n_res=30)
        fraction = np.count_nonzero(model.w_res) / model.n_res ** 2
        assert abs(fraction - DENSITY) <= 1.0 / model.n_res ** 2

    def test_same_seed_same_model(self):
        a = small_model(seed=9)
        b = small_model(seed=9)
        np.testing.assert_array_equal(a.w_in, b.w_in)
        np.testing.assert_array_equal(a.w_res, b.w_res)

    def test_state_starts_at_zero(self):
        assert np.linalg.norm(small_model().state) == 0.0

    @pytest.mark.parametrize("n_in, n_res, message", [
        (1, 20.0, "n_res must be an integer, got 20.0"),
        (1, True, "n_res must be an integer, got True"),
        (0.5, 5, "n_in must be an integer, got 0.5"),
        (-1, 5, "n_in must be >= 0, got -1"),
        (1, 0, "n_res must be >= 1, got 0"),
    ])
    def test_bad_sizes_rejected_before_any_draw(self, n_in, n_res, message):
        rng = seeded_rng(0)
        before = rng.bit_generator.state
        with pytest.raises(ValueError) as info:
            EsnModel.random(n_in, n_res, rng)
        assert str(info.value) == message
        assert rng.bit_generator.state == before

    def test_numpy_sizes_accepted(self):
        model = EsnModel.random(np.int64(2), np.int64(5), seeded_rng(0))
        assert (model.n_in, model.n_res) == (2, 5)

    def test_too_small_density_rejected(self):
        # round(0.15 * 1^2) = 0 leaves no recurrent weight; round(0.15 * 2^2) = 1
        assert MIN_SIZE == 2
        rng = seeded_rng(0)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match=r"density 0\.15 .* n_res = 1"):
            EsnModel.random(1, 1, rng)
        assert rng.bit_generator.state == before
        assert np.count_nonzero(EsnModel.random(1, MIN_SIZE, rng).w_res) == 1

    def test_nilpotent_draws_eventually_error(self):
        class OffDiagonalRng:
            """Always picks the one strictly upper-triangular slot of a 2x2."""

            def __init__(self):
                self.choice_calls = 0

            def choice(self, n, size, replace):
                self.choice_calls += 1
                return np.array([1])

            def uniform(self, lo, hi, size):
                return np.full(size, 0.3)

        rng = OffDiagonalRng()
        with pytest.raises(FloatingPointError, match="2-unit .* spectral radius 0"):
            EsnModel.random(1, 2, rng=rng)
        assert rng.choice_calls == 1  # drawn once, never resampled


    def test_non_finite_state_rejected(self):
        for bad in (np.inf, np.nan):
            with pytest.raises(ValueError, match="state must be finite"):
                EsnModel(w_in=np.zeros((1, 2)), w_res=np.zeros((1, 1)), state=[bad])

    @pytest.mark.parametrize("name", ["w_in", "w_res"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weights_rejected(self, name, bad):
        weights = {"w_in": np.zeros((1, 2)), "w_res": np.zeros((1, 1))}
        weights[name].flat[0] = bad
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            EsnModel(**weights)


class TestRun:
    def test_split_run_equals_whole_run(self):
        rng = seeded_rng(70)
        first, second = rng.uniform(0.0, 1.0, (12, 2)), rng.uniform(0.0, 1.0, (30, 2))
        split, whole = small_model(seed=71, n_in=2), small_model(seed=71, n_in=2)
        pieces = np.hstack([split.run(first), split.run(second)])
        joined = whole.run(np.vstack([first, second]))
        np.testing.assert_allclose(pieces, joined, rtol=0, atol=1e-15)
        np.testing.assert_array_equal(split.state, whole.state)

    def test_state_does_not_alias_the_output(self):
        rng = seeded_rng(74)
        first, second = rng.uniform(0.0, 1.0, (9, 2)), rng.uniform(0.0, 1.0, (11, 2))
        model, whole = small_model(seed=75, n_in=2), small_model(seed=75, n_in=2)
        states = run_states(model, first)
        last = states[:, -1].copy()
        states[:] = 3.0  # writing into the returned matrix leaves the model alone
        np.testing.assert_array_equal(model.state, last)
        joined = whole.run(np.vstack([first, second]))
        np.testing.assert_allclose(model.run(second), joined[:, 9:], rtol=0, atol=1e-15)

    def test_bad_inputs_rejected(self):
        model = small_model()
        with pytest.raises(ValueError, match=r"K x 1 input matrix, got shape \(4,\)"):
            model.run(np.zeros(4))
        with pytest.raises(ValueError, match=r"K x 1 input matrix, got shape \(4, 2\)"):
            model.run(np.zeros((4, 2)))
        with pytest.raises(ValueError, match="inputs must be finite"):
            model.run(np.full((4, 1), np.inf))


class TestUpdate:
    def test_zero_weights_give_zero_state(self):
        model = EsnModel(w_in=np.zeros((5, 2)), w_res=np.zeros((5, 5)))
        np.testing.assert_array_equal(run_states(model, [[3.7]])[:, 0], np.zeros(5))

    def test_scalar_tanh_value(self):
        # independently tabulated tanh(0.5)
        model = EsnModel(w_in=np.array([[0.0, 1.0]]), w_res=np.array([[0.0]]))
        out = run_states(model, [[0.5]])[:, 0]
        assert out[0] == pytest.approx(0.46211715726, abs=1e-11)
        assert out[0] == math.tanh(0.5)

    def test_zero_drive_contracts_to_zero(self):
        # with no input drive the subunit spectral radius pulls the state
        # down; verified numerically over 200 steps on a fixed seed
        model = small_model(seed=11)
        model.w_in[:] = 0.0
        model.state = seeded_rng(5).uniform(-1.0, 1.0, model.n_res)
        norms = list(np.linalg.norm(run_states(model, np.zeros((200, 1))), axis=0))
        assert norms[-1] < 1e-4
        tail = norms[150:]
        assert all(b <= a + 1e-15 for a, b in zip(tail, tail[1:]))

    def test_state_stays_strictly_inside_unit_box(self):
        model = small_model(seed=21)
        states = run_states(model, seeded_rng(22).uniform(-5.0, 5.0, (100, 1)))
        assert np.all(np.abs(states) < 1.0)

    def test_fading_memory(self):
        # same weights, different initial states, same 500-step drive
        a = small_model(seed=31, n_res=40)
        b = EsnModel(w_in=a.w_in, w_res=a.w_res)
        init = seeded_rng(32)
        a.state = init.uniform(-1.0, 1.0, 40)
        b.state = init.uniform(-1.0, 1.0, 40)
        drive = seeded_rng(33).uniform(0.0, 1.0, (500, 1))
        a.run(drive)
        b.run(drive)
        assert np.linalg.norm(a.state - b.state) < 1e-6

    def test_trajectory_determinism(self):
        drive = seeded_rng(40).uniform(0.0, 1.0, (50, 1))
        a = small_model(seed=41)
        b = small_model(seed=41)
        np.testing.assert_array_equal(a.run(drive), b.run(drive))

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="K x 1 input matrix"):
            small_model().run([[0.1, 0.2]])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="inputs must be finite"):
            small_model().run([[np.inf]])

