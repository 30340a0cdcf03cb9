import math
import re
from fractions import Fraction

import numpy as np
import pytest

from reservoirq import spectral_radius
from reservoirq.esn import DENSITY, MIN_SIZE, EsnModel
from reservoirq.numerics import seeded_rng


def small_model(seed=0, n_in=1, n_res=40):
    return EsnModel.random(n_in, n_res, rng=seeded_rng(seed))


def run_states(model, inputs, state=None):
    """The state rows of the regressor matrix that ``run`` returns, from
    ``state`` or, by default, from rest."""
    state = np.zeros(model.n_res) if state is None else state
    return model.run(inputs, state)[model.n_in + 1:]


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

    @pytest.mark.parametrize("n_in, n_res, message", [
        (1, 20.0, "n_res must be an integer, got 20.0"),
        (1, True, "n_res must be an integer, got True"),
        (0.5, 5, "n_in must be an integer, got 0.5"),
        (-1, 5, "n_in must be >= 0, got -1"),
        (1, 0, "n_res must be >= 2, got 0"),
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
        with pytest.raises(ValueError, match=r"^n_res must be >= 2, got 1$"):
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


    def test_w_in_without_its_bias_column_rejected(self):
        with pytest.raises(ValueError, match="^w_in needs at least the bias column$"):
            EsnModel(w_in=np.zeros((3, 0)), w_res=0.5 * np.eye(3))

    def test_state_is_not_a_parameter(self):
        # every reservoir starts at rest
        with pytest.raises(TypeError, match="state"):
            EsnModel(w_in=np.zeros((1, 2)), w_res=np.zeros((1, 1)), state=[0.5])

    def test_non_finite_state_rejected(self):
        # the state a run starts from is checked when the run starts
        for bad in (np.inf, np.nan):
            model = EsnModel(w_in=np.zeros((1, 2)), w_res=np.zeros((1, 1)))
            with pytest.raises(ValueError, match="state must be finite"):
                model.run(np.zeros((1, 1)), [bad])

    @pytest.mark.parametrize("name", ["w_in", "w_res"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weights_rejected(self, name, bad):
        weights = {"w_in": np.zeros((1, 2)), "w_res": np.zeros((1, 1))}
        weights[name].flat[0] = bad
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            EsnModel(**weights)


    # each array an ESN takes, as the call that takes it, with a valid value
    ARRAYS = {
        "w_res": (lambda v: EsnModel(w_in=np.zeros((2, 2)), w_res=v), np.eye(2)),
        "w_in": (lambda v: EsnModel(w_in=v, w_res=np.eye(2)), np.zeros((2, 2))),
        "state": (lambda v: EsnModel(w_in=np.zeros((2, 2)), w_res=np.eye(2)).run(
                      np.zeros((1, 1)), v), np.zeros(2)),
        "inputs": (lambda v: small_model().run(v, np.zeros(40)), np.zeros((4, 1))),
        "m": (spectral_radius, np.eye(2)),
    }

    @pytest.mark.parametrize("name", ARRAYS)
    @pytest.mark.parametrize("reshape", [lambda v: v[0], lambda v: v[None], lambda v: v.sum()],
                             ids=["first-row", "extra-axis", "scalar"])
    def test_every_array_takes_the_array_rule(self, name, reshape):
        call, valid = self.ARRAYS[name]
        call(valid)
        bad = reshape(valid)
        with pytest.raises(ValueError, match=rf"^{name} must have shape .*, got "
                                             rf"{re.escape(str(bad.shape))}$"):
            call(bad)


class TestRun:
    def test_bad_inputs_rejected(self):
        model = small_model()
        with pytest.raises(ValueError, match=r"inputs must have shape \(None, 1\), got \(4,\)"):
            run_states(model, np.zeros(4))
        with pytest.raises(ValueError,
                           match=r"inputs must have shape \(None, 1\), got \(4, 2\)"):
            run_states(model, np.zeros((4, 2)))
        with pytest.raises(ValueError, match="inputs must be finite"):
            run_states(model, np.full((4, 1), np.inf))


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
        start = seeded_rng(5).uniform(-1.0, 1.0, model.n_res)
        norms = list(np.linalg.norm(run_states(model, np.zeros((200, 1)), start), axis=0))
        assert norms[-1] < 1e-4
        tail = norms[150:]
        assert all(b <= a + 1e-15 for a, b in zip(tail, tail[1:]))

    def test_state_stays_strictly_inside_unit_box(self):
        model = small_model(seed=21)
        states = run_states(model, seeded_rng(22).uniform(-5.0, 5.0, (100, 1)))
        assert np.all(np.abs(states) < 1.0)

    def test_trajectory_determinism(self):
        drive = seeded_rng(40).uniform(0.0, 1.0, (50, 1))
        a = small_model(seed=41)
        b = small_model(seed=41)
        np.testing.assert_array_equal(a.run(drive, np.zeros(a.n_res)),
                                      b.run(drive, np.zeros(b.n_res)))


# Spectral radius of the seed-20260809 5x5 uniform matrix, computed
# independently before the build: characteristic polynomial by
# Faddeev-LeVerrier over exact Fractions, roots via the companion matrix
# of the polynomial (never eigvals of the original matrix). The dominant
# eigenvalue is a complex pair, which exercises magnitude handling.
FIVE_BY_FIVE_SEED = 20260809
FIVE_BY_FIVE_RHO = 1.460332203003714


def charpoly_roots_radius(m):
    """Independent oracle: max |root| of the characteristic polynomial."""
    n = m.shape[0]
    F = [[Fraction(x) for x in row] for row in m]

    def matmul(A, B):
        return [[sum(A[i][k] * B[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)]

    def trace(A):
        return sum(A[i][i] for i in range(n))

    coeffs = [Fraction(1)]
    M = [row[:] for row in F]
    c = -trace(M)
    coeffs.append(c)
    for _ in range(2, n + 1):
        for i in range(n):
            M[i][i] += c
        M = matmul(F, M)
        c = -trace(M) / Fraction(len(coeffs))
        coeffs.append(c)
    roots = np.roots([float(c) for c in coeffs])
    return float(max(abs(r) for r in roots))


class TestSpectralRadius:
    def test_permutation_matrix(self):
        assert spectral_radius(np.array([[0.0, 1.0], [1.0, 0.0]])) == pytest.approx(1.0)

    def test_diagonal_matrix(self):
        assert spectral_radius(np.array([[2.0, 0.0], [0.0, 1.0]])) == pytest.approx(2.0)

    def test_seeded_5x5_matches_charpoly_oracle(self):
        m = seeded_rng(FIVE_BY_FIVE_SEED).uniform(-1.0, 1.0, (5, 5))
        got = spectral_radius(m)
        assert got == pytest.approx(FIVE_BY_FIVE_RHO, abs=1e-10)
        assert charpoly_roots_radius(m) == pytest.approx(FIVE_BY_FIVE_RHO, abs=1e-9)

    def test_zero_matrix(self):
        assert spectral_radius(np.zeros((3, 3))) == 0.0

    def test_scaling_homogeneity(self):
        tol = 1e-10
        for seed in range(10):
            m = seeded_rng(seed).normal(size=(8, 8))
            base = spectral_radius(m)
            for c in (-3.0, 0.25, 7.5):
                assert spectral_radius(c * m) == pytest.approx(
                    abs(c) * base, abs=2 * tol + 1e-12 * abs(c) * base)

    def test_deterministic(self):
        m = seeded_rng(3).normal(size=(12, 12))
        assert spectral_radius(m) == spectral_radius(m.copy())

    def test_non_square_rejected(self):
        for m, message in [
            (np.ones((2, 3)), r"m must have shape \(2, 2\), got \(2, 3\)"),
            (np.ones(3), r"m must have shape \(None, None\), got \(3,\)"),
            (np.zeros((0, 0)), r"m must be non-empty, got shape \(0, 0\)"),
        ]:
            with pytest.raises(ValueError, match=f"^{message}$"):
                spectral_radius(m)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            spectral_radius(np.array([[np.nan, 0.0], [0.0, 1.0]]))
