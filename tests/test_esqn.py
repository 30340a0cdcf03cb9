import dataclasses
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from reservoirq import spectral_radius
from reservoirq.esqn import EsqnModel
from reservoirq.harness import (TRIAL_STREAM, ExperimentConfig, build_model,
                                prepare_data)
from reservoirq.numerics import seeded_rng, substream_seed
from reservoirq.randnn import _load_map, solve_steady_state


def random_model(seed=0, n_in=3, n_res=25):
    return EsqnModel.random(n_in, n_res, rng=seeded_rng(seed))


def run_states(model, inputs, state=None):
    """The load rows of the regressor matrix that ``run`` returns, from
    ``state`` or, by default, from rest."""
    state = np.zeros(model.n_res) if state is None else state
    return model.run(inputs, state)[model.n_in + 1:]


def scalar_model():
    # one input neuron, one reservoir unit, hand-checkable update
    return EsqnModel(w_plus_in=[[0.2]], w_minus_in=[[0.1]],
                     w_plus_res=[[0.1]], w_minus_res=[[0.0]],
                     rates_in=[1.0], rates_res=[1.0])


class TestInit:
    def test_default_intervals(self):
        model = random_model(seed=1)
        for block in (model.w_plus_in, model.w_minus_in,
                      model.w_plus_res, model.w_minus_res):
            assert block.min() >= 0.0 and block.max() <= 0.2
        np.testing.assert_array_equal(model.rates_in, 1.0)
        np.testing.assert_array_equal(model.rates_res, 1.0)

    def test_same_seed_same_model(self):
        a, b = random_model(seed=7), random_model(seed=7)
        np.testing.assert_array_equal(a.w_plus_res, b.w_plus_res)
        np.testing.assert_array_equal(a.w_minus_in, b.w_minus_in)

    @pytest.mark.parametrize("name", ["w_plus_in", "w_minus_in", "w_plus_res", "w_minus_res"])
    def test_negative_weight_rejected(self, name):
        model = random_model()
        with pytest.raises(ValueError, match=f"{name} must hold nonnegative rates"):
            dataclasses.replace(model, **{name: getattr(model, name) - 0.1})

    def test_zero_rate_rejected(self):
        with pytest.raises(ValueError, match="rate"):
            dataclasses.replace(random_model(), rates_res=np.zeros(25))

    @pytest.mark.parametrize("n_in, n_res, message", [
        (3, True, "n_res must be an integer, got True"),
        (3, 4.0, "n_res must be an integer, got 4.0"),
        (2.0, 5, "n_in must be an integer, got 2.0"),
        (0, 5, "n_in must be >= 1, got 0"),
        (3, 0, "n_res must be >= 1, got 0"),
    ])
    def test_bad_sizes_rejected_before_any_draw(self, n_in, n_res, message):
        rng = seeded_rng(0)
        before = rng.bit_generator.state
        with pytest.raises(ValueError) as info:
            EsqnModel.random(n_in, n_res, rng)
        assert str(info.value) == message
        assert rng.bit_generator.state == before

    def test_numpy_sizes_accepted(self):
        model = EsqnModel.random(np.int64(2), np.int64(5), seeded_rng(0))
        assert (model.n_in, model.n_res) == (2, 5)

    @pytest.mark.parametrize("name", ["w_plus_in", "w_minus_in", "w_plus_res",
                                      "w_minus_res", "rates_in", "rates_res"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weight_or_rate_rejected(self, name, bad):
        blocks = dict(w_plus_in=[[0.2]], w_minus_in=[[0.1]], w_plus_res=[[0.1]],
                      w_minus_res=[[0.0]], rates_in=[1.0], rates_res=[1.0])
        blocks[name] = np.full(np.shape(blocks[name]), bad)
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            EsqnModel(**blocks)

    # each array an ESQN takes, as the call that takes it, with a valid value
    BLOCKS = dict(w_plus_in=np.array([[0.2]]), w_minus_in=np.array([[0.1]]),
                  w_plus_res=np.array([[0.1]]), w_minus_res=np.array([[0.0]]),
                  rates_in=np.array([1.0]), rates_res=np.array([1.0]))
    ARRAYS = {
        **{name: (lambda v, name=name: EsqnModel(**{**TestInit.BLOCKS, name: v}), valid)
           for name, valid in BLOCKS.items()},
        "a": (lambda v: scalar_model().network(v), np.array([0.5])),
        "inputs": (lambda v: scalar_model().run(v, [0.5]), np.array([[0.5], [0.2]])),
        "state": (lambda v: scalar_model().run([[0.0]], v), np.array([0.5])),
    }

    @pytest.mark.parametrize("name", ARRAYS)
    @pytest.mark.parametrize("reshape", [lambda v: v[None], lambda v: v.sum()],
                             ids=["extra-axis", "scalar"])
    def test_every_array_takes_the_array_rule(self, name, reshape):
        call, valid = self.ARRAYS[name]
        call(valid)
        bad = reshape(valid)
        with pytest.raises(ValueError, match=rf"^{name} must have shape .*, got "
                                             rf"{re.escape(str(bad.shape))}$"):
            call(bad)

    @pytest.mark.parametrize("a, message", [
        ([0.5, 0.5], r"a must have shape \(1,\), got \(2,\)"),
        ([np.nan], "a must be finite"),
        ([-0.5], "a must hold nonnegative rates"),
    ], ids=["length", "nan", "negative"])
    def test_network_takes_its_input_by_the_rate_rule(self, a, message):
        # the error names a, not the lambda_plus computed from it
        with pytest.raises(ValueError, match=f"^{message}$"):
            scalar_model().network(a)

    # the loads a run starts from are checked when the run starts
    def test_non_finite_state_rejected(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="state must be finite"):
                scalar_model().run([[0.5]], [bad])

    def test_negative_state_rejected(self):
        with pytest.raises(ValueError, match="state must hold nonnegative rates"):
            scalar_model().run([[0.5]], [-0.5])

    @pytest.mark.parametrize("name, value", [("state", [0.5]), ("overload_steps", 5)],
                             ids=["state", "overload_steps"])
    def test_state_and_tally_are_not_parameters(self, name, value):
        # every reservoir starts at rest with no overloads counted
        with pytest.raises(TypeError, match=name):
            EsqnModel(**self.BLOCKS, **{name: value})


class TestRun:
    def test_empty_input_leaves_state(self):
        model = random_model(seed=46)
        start = seeded_rng(47).uniform(0.0, 1.0, 25)
        before = start.copy()
        assert model.run(np.empty((0, 3)), start).shape == (1 + 3 + 25, 0)
        np.testing.assert_array_equal(start, before)
        assert model.overload_steps == 0

    def test_overloads_counted_per_column(self):
        # two identical units overload together: one count per step, and a
        # run adds its count to the tally of the runs before it
        blocks = dict(w_plus_in=[[5.0], [5.0]], w_minus_in=np.zeros((2, 1)),
                      w_plus_res=np.zeros((2, 2)), w_minus_res=np.zeros((2, 2)),
                      rates_in=[1.0], rates_res=[1.0, 1.0])
        inputs = [[1.0], [0.0], [0.5], [0.1]]  # loads 5, 0, 2.5, 0.5
        whole, split = EsqnModel(**blocks), EsqnModel(**blocks)
        run_states(whole, inputs)
        run_states(split, inputs[1:], run_states(split, inputs[:1])[:, -1])
        assert whole.overload_steps == split.overload_steps == 2

    def test_bad_inputs_rejected(self):
        model = random_model()
        with pytest.raises(ValueError, match=r"inputs must have shape \(None, 3\), got \(3,\)"):
            run_states(model, np.zeros(3))
        with pytest.raises(ValueError,
                           match=r"inputs must have shape \(None, 3\), got \(4, 2\)"):
            run_states(model, np.zeros((4, 2)))
        with pytest.raises(ValueError, match="inputs must be finite"):
            run_states(model, np.full((4, 3), np.nan))
        with pytest.raises(ValueError, match="inputs must hold nonnegative rates"):
            run_states(model, np.full((4, 3), -0.1))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_loads_nonnegative_and_finite(self, data):
        # with rates >= 0.5 and weights <= 1 a step can grow the largest
        # load at most 16-fold (plus 16), so 30 steps stay far from overflow
        n_in = data.draw(st.integers(1, 4), label="n_in")
        n_res = data.draw(st.integers(1, 8), label="n_res")
        steps = data.draw(st.integers(1, 30), label="steps")

        def array(shape, lo, hi):
            return data.draw(hnp.arrays(float, shape, elements=st.floats(lo, hi)))

        model = EsqnModel(w_plus_in=array((n_res, n_in), 0.0, 1.0),
                          w_minus_in=array((n_res, n_in), 0.0, 1.0),
                          w_plus_res=array((n_res, n_res), 0.0, 1.0),
                          w_minus_res=array((n_res, n_res), 0.0, 1.0),
                          rates_in=array(n_in, 0.5, 2.0),
                          rates_res=array(n_res, 0.5, 2.0))
        start = array(n_res, 0.0, 1.0)
        loads = run_states(model, array((steps, n_in), 0.0, 1.0), start)
        assert loads.shape == (n_res, steps)
        assert np.all(np.isfinite(loads))
        assert np.all(loads >= 0.0)


class TestUpdate:
    def test_zero_excitation_zeroes_state(self):
        base = random_model(seed=2)
        model = EsqnModel(w_plus_in=np.zeros_like(base.w_plus_in),
                          w_minus_in=base.w_minus_in,
                          w_plus_res=np.zeros_like(base.w_plus_res),
                          w_minus_res=base.w_minus_res,
                          rates_in=base.rates_in, rates_res=base.rates_res)
        start = seeded_rng(4).uniform(0.0, 1.0, model.n_res)
        out = run_states(model, seeded_rng(3).uniform(0.0, 1.0, (1, model.n_in)), start)[:, 0]
        np.testing.assert_array_equal(out, 0.0)

    def test_scalar_hand_value(self):
        # (1.0 * 0.2 + 0.5 * 0.1) / (1 + 1.0 * 0.1 + 0) = 0.25 / 1.1
        out = run_states(scalar_model(), [[1.0]], [0.5])[:, 0]
        assert out[0] == pytest.approx(0.25 / 1.1, abs=1e-15)
        assert out[0] == pytest.approx(0.22727272727272727, abs=1e-12)

    def test_zero_state_leaves_input_terms_only(self):
        out = run_states(scalar_model(), [[1.0]], [0.0])[:, 0]
        assert out[0] == pytest.approx(0.2 / 1.1, abs=1e-15)

    def test_update_reads_previous_state_only(self):
        # two disconnected-from-input units chained u0 -> u1: after one
        # step from (1, 0), u1 must see the old u0 load, not the new one
        model = EsqnModel(w_plus_in=[[0.0], [0.0]], w_minus_in=[[0.0], [0.0]],
                          w_plus_res=[[0.0, 0.0], [0.5, 0.0]],
                          w_minus_res=np.zeros((2, 2)),
                          rates_in=[1.0], rates_res=[1.0, 1.0])
        out = run_states(model, [[0.7]], [1.0, 0.0])[:, 0]
        np.testing.assert_allclose(out, [0.0, 0.5], atol=1e-15)

    def test_permutation_equivariance(self):
        model = random_model(seed=11, n_in=2, n_res=6)
        rng = seeded_rng(12)
        perm = rng.permutation(6)
        permuted = EsqnModel(w_plus_in=model.w_plus_in[perm],
                             w_minus_in=model.w_minus_in[perm],
                             w_plus_res=model.w_plus_res[np.ix_(perm, perm)],
                             w_minus_res=model.w_minus_res[np.ix_(perm, perm)],
                             rates_in=model.rates_in,
                             rates_res=model.rates_res[perm])
        start = rng.uniform(0.0, 1.0, 6)
        a = rng.uniform(0.0, 1.0, (1, 2))
        out = run_states(model, a, start)[:, 0]
        out_permuted = run_states(permuted, a, start[perm])[:, 0]
        np.testing.assert_allclose(out_permuted, out[perm], atol=1e-15)

    def test_linear_regime_decay_and_growth(self):
        # with zero input and no inhibition the update is the linear map
        # rho <- diag(1/r) W+ rho, so the subunit/superunit spectral
        # radius decides decay versus growth
        rng = seeded_rng(15)
        base = rng.uniform(0.1, 0.9, (3, 3))
        start = rng.uniform(0.2, 1.0, 3)
        for factor, grows in ((0.5, False), (1.5, True)):
            w_plus = base * factor / spectral_radius(base)
            model = EsqnModel(w_plus_in=np.zeros((3, 1)), w_minus_in=np.zeros((3, 1)),
                              w_plus_res=w_plus, w_minus_res=np.zeros((3, 3)),
                              rates_in=[1.0], rates_res=np.ones(3))
            norm = np.linalg.norm(run_states(model, np.zeros((60, 1)), start)[:, -1])
            if grows:
                assert norm > 10.0 * np.linalg.norm(start)
            else:
                assert norm < 1e-6

    def test_zero_input_network_rests_at_zero_loads(self):
        # the reservoir held at zero input has no excitation, and driving
        # it with zero rows decays its loads towards the same rest
        model = random_model(seed=0, n_in=2, n_res=3)
        solution = solve_steady_state(model.network(np.zeros(2)))
        np.testing.assert_array_equal(solution.rho, 0.0)
        assert solution.stable and solution.iterations == 0
        start = seeded_rng(1).uniform(0.0, 1.0, 3)
        assert np.max(run_states(model, np.zeros((200, 2)), start)[:, -1]) < 1e-100

    def test_each_step_is_one_load_map_of_the_held_network(self):
        # run's batched step matrix and randnn's fixed-point map are two
        # evaluators of one map: every step, overloaded ones included, is
        # g(rho_{t-1}) of the network held at a_t
        overloaded = unstable = 0
        for seed in range(6):
            # the shipped interval overloads; a tenth of it does not
            model = random_model(seed=60 + seed, n_in=10, n_res=80)
            if not seed % 2:
                model = dataclasses.replace(model, **{
                    name: getattr(model, name) / 10 for name in
                    ("w_plus_in", "w_minus_in", "w_plus_res", "w_minus_res")})
            inputs = seeded_rng(70 + seed).uniform(0.0, 1.0, (200, 10))
            loads = np.hstack([np.zeros((80, 1)), run_states(model, inputs)])
            for t, a in enumerate(inputs):
                np.testing.assert_allclose(loads[:, t + 1],
                                           _load_map(model.network(a), loads[:, t]),
                                           rtol=1e-14, atol=0)
            overloaded += model.overload_steps
            unstable += not solve_steady_state(model.network(inputs.mean(axis=0))).stable
        assert 0 < overloaded < 6 * 200 and unstable > 0


def test_shipped_reservoirs_are_not_g_network_routing(config_dir):
    # the README's G-network figures for narma_esqn.cfg's 20 trials,
    # each driven through the training rows, then the validation rows
    config = ExperimentConfig.from_file(os.path.join(config_dir, "narma_esqn.cfg"))
    data = prepare_data(config)
    held = data.train_inputs.mean(axis=0)
    steps = overloaded_steps = 0
    unit_fractions, peaks, routing = [], [], []
    for trial in range(config.trials):
        rng = np.random.default_rng(substream_seed(config.seed, TRIAL_STREAM, trial))
        model = build_model(config, data.train_inputs.shape[1], rng)
        steady = solve_steady_state(model.network(held))
        assert not steady.stable
        peaks.append(steady.rho.max())
        routing.append((model.w_plus_res + model.w_minus_res).sum(axis=0).mean())
        train = run_states(model, data.train_inputs)
        loads = np.hstack([train, run_states(model, data.val_inputs, train[:, -1])])
        steps += loads.shape[1]
        overloaded_steps += model.overload_steps
        unit_fractions.append(np.mean(loads > 1.0))
    assert (overloaded_steps, steps) == (47_548, 47_600)
    assert [round(100 * f(unit_fractions), 1) for f in (min, max, np.mean)] == [2.2, 9.2, 5.6]
    assert [round(f(peaks), 3) for f in (min, max)] == [1.014, 1.193]
    assert round(np.mean(routing), 2) == 15.98
