import re

import numpy as np
import pytest

from reservoirq import randnn
from reservoirq.randnn import (ConvergenceError, RandnnSpec, load_spec, residual,
                               save_spec, solve_steady_state)


def single_neuron(lam_plus, lam_minus, rate):
    return RandnnSpec(lambda_plus=[lam_plus], lambda_minus=[lam_minus],
                      w_plus=[[0.0]], w_minus=[[0.0]], rates=[rate])


def chain_spec():
    # neuron 0 feeds neuron 1 with w+ = 1; loads solve by forward
    # substitution to (0.5, 0.25)
    return RandnnSpec(lambda_plus=[1.0, 0.0], lambda_minus=[0.0, 0.0],
                      w_plus=[[0.0, 0.0], [1.0, 0.0]],
                      w_minus=[[0.0, 0.0], [0.0, 0.0]],
                      rates=[2.0, 2.0])


def pair_spec():
    # two mutually excitatory neurons; symmetric fixed point at 0.6
    return RandnnSpec(lambda_plus=[0.3, 0.3], lambda_minus=[0.0, 0.0],
                      w_plus=[[0.0, 0.5], [0.5, 0.0]],
                      w_minus=[[0.0, 0.0], [0.0, 0.0]],
                      rates=[1.0, 1.0])


def random_stable_specs(seed, count, n=5):
    """Routing-consistent random specs, keeping only stable draws."""
    rng = np.random.default_rng(seed)
    specs = []
    while len(specs) < count:
        rates = rng.uniform(0.5, 2.0, n)
        departure = rng.uniform(0.2, 0.6, n)
        w_plus = np.zeros((n, n))
        w_minus = np.zeros((n, n))
        for v in range(n):
            shares = rng.dirichlet(np.ones(2 * n))
            budget = rates[v] * (1.0 - departure[v])
            w_plus[:, v] = shares[:n] * budget
            w_minus[:, v] = shares[n:] * budget
        spec = RandnnSpec(lambda_plus=rng.uniform(0.1, 0.6, n),
                          lambda_minus=rng.uniform(0.0, 0.3, n),
                          w_plus=w_plus, w_minus=w_minus, rates=rates)
        solution = solve_steady_state(spec)
        if solution.stable:
            specs.append((spec, solution))
    return specs


class TestSolveSteadyState:
    def test_single_neuron_no_inhibition(self):
        solution = solve_steady_state(single_neuron(0.5, 0.0, 1.0))
        assert solution.rho[0] == pytest.approx(0.5, abs=1e-12)
        assert solution.stable

    def test_single_neuron_with_inhibition(self):
        # rho = 0.4 / (0.6 + 0.2)
        solution = solve_steady_state(single_neuron(0.4, 0.2, 0.6))
        assert solution.rho[0] == pytest.approx(0.5, abs=1e-12)

    def test_feedforward_chain(self):
        solution = solve_steady_state(chain_spec())
        np.testing.assert_allclose(solution.rho, [0.5, 0.25], atol=1e-12)
        assert solution.stable

    def test_pair_matches_event_simulation(self):
        # Independent oracle: continuous-time event simulation of the two
        # spiking queues, estimating the stationary fraction of time each
        # potential is positive. The solver must land within two standard
        # errors of the estimate.
        solution = solve_steady_state(pair_spec())
        estimate, stderr = _simulate_pair_activity(t_end=20_000.0, seed=42)
        np.testing.assert_allclose(solution.rho, [0.6, 0.6], atol=1e-11)
        assert np.all(np.abs(solution.rho - estimate) <= 2.0 * stderr)

    def test_unstable_network_is_flagged_not_raised(self):
        solution = solve_steady_state(single_neuron(2.0, 0.0, 1.0))
        assert not solution.stable
        assert solution.rho[0] >= 1.0

    def test_out_of_iterations_raises_with_best(self, monkeypatch):
        monkeypatch.setattr(randnn, "MAX_ITER", 2)
        with pytest.raises(ConvergenceError) as info:
            solve_steady_state(pair_spec())
        assert info.value.best is not None
        assert info.value.best.shape == (2,)


class TestResidual:
    def test_zero_at_fixed_point(self):
        spec = pair_spec()
        solution = solve_steady_state(spec)
        assert residual(spec, solution.rho) < 1e-12

    def test_zero_guess_single_neuron(self):
        assert residual(single_neuron(0.5, 0.0, 1.0), [0.0]) == pytest.approx(0.5)

    def test_perturbed_chain_by_hand(self):
        # rho + 0.01 on the chain: neuron 0 misses its fixed point by
        # exactly 0.01; neuron 1 sees g = 0.51 / 2 = 0.255, off by 0.005.
        value = residual(chain_spec(), [0.51, 0.26])
        assert value == pytest.approx(0.01, abs=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match=r"rho must have shape \(2,\), got \(3,\)"):
            residual(chain_spec(), [0.1, 0.2, 0.3])


class TestSpecValidation:
    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            RandnnSpec(lambda_plus=[1.0], lambda_minus=[0.0],
                       w_plus=[[-0.1]], w_minus=[[0.0]], rates=[1.0])

    def test_zero_rate_rejected(self):
        with pytest.raises(ValueError):
            single_neuron(0.5, 0.0, 0.0)

    def test_all_silent_inputs_rest_at_zero_loads(self):
        # with no external excitation rho = 0 is a fixed point, however
        # the neurons excite each other, and the solver starts there
        spec = RandnnSpec(lambda_plus=[0.0, 0.0], lambda_minus=[0.1, 0.0],
                          w_plus=[[0.0, 0.5], [0.5, 0.0]],
                          w_minus=[[0.0, 0.0], [0.0, 0.0]], rates=[1.0, 1.0])
        solution = solve_steady_state(spec)
        np.testing.assert_array_equal(solution.rho, [0.0, 0.0])
        assert solution.stable and solution.iterations == 0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match=r"w_plus must have shape \(2, 2\), got \(1, 1\)"):
            RandnnSpec(lambda_plus=[1.0, 0.5], lambda_minus=[0.0, 0.0],
                       w_plus=[[0.0]], w_minus=[[0.0]], rates=[1.0, 1.0])

    # each array of a spec, and residual's loads, as the call that takes it
    ARRAYS = {
        **{name: (lambda v, name=name: RandnnSpec(**{**vars(single_neuron(0.5, 0.0, 1.0)),
                                                     name: v}), valid)
           for name, valid in [("lambda_plus", [0.5]), ("lambda_minus", [0.0]),
                               ("w_plus", [[0.0]]), ("w_minus", [[0.0]]), ("rates", [1.0])]},
        # a nan load would otherwise come back as a nan residual
        "rho": (lambda v: residual(single_neuron(0.5, 0.0, 1.0), v), [0.0]),
    }

    @pytest.mark.parametrize("name", ARRAYS)
    @pytest.mark.parametrize("kind", ["extra-axis", "scalar", "nan"])
    def test_every_array_takes_the_array_rule(self, name, kind):
        call, valid = self.ARRAYS[name]
        call(valid)
        valid = np.array(valid)
        if kind == "nan":
            bad, message = np.full_like(valid, np.nan), f"^{name} must be finite$"
        else:
            bad = valid[None] if kind == "extra-axis" else valid.sum()
            message = rf"^{name} must have shape .*, got {re.escape(str(bad.shape))}$"
        with pytest.raises(ValueError, match=message):
            call(bad)

    def test_empty_spec_rejected(self):
        with pytest.raises(ValueError, match="^lambda_plus must be non-empty$"):
            RandnnSpec(lambda_plus=[], lambda_minus=[], w_plus=np.zeros((0, 0)),
                       w_minus=np.zeros((0, 0)), rates=[])


class TestSpecFiles:
    def test_round_trip(self, tmp_path):
        spec, _ = random_stable_specs(seed=31, count=1)[0]
        path = tmp_path / "spec.txt"
        save_spec(spec, path)
        loaded = load_spec(path)
        np.testing.assert_array_equal(loaded.lambda_plus, spec.lambda_plus)
        np.testing.assert_array_equal(loaded.lambda_minus, spec.lambda_minus)
        np.testing.assert_array_equal(loaded.w_plus, spec.w_plus)
        np.testing.assert_array_equal(loaded.w_minus, spec.w_minus)
        np.testing.assert_array_equal(loaded.rates, spec.rates)

    def test_fixture_chain_file(self, fixture_root):
        spec = load_spec(f"{fixture_root}/randnn_chain.txt")
        solution = solve_steady_state(spec)
        np.testing.assert_allclose(solution.rho, [0.5, 0.25], atol=1e-12)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "broken.txt"
        path.write_text("2\n1.0 0.0\n")
        with pytest.raises(ValueError, match="expected"):
            load_spec(path)

    def test_garbled_number_rejected(self, tmp_path):
        path = tmp_path / "broken.txt"
        path.write_text("1\n1.0\nx\n1.0\n0.0\n0.0\n")
        with pytest.raises(ValueError, match="line 3"):
            load_spec(path)

    @pytest.mark.parametrize("text, lineno", [
        ("1\n\n0.5\n0\n1\nx\n0\n", 6),   # the w+ row, after a blank line
        ("\nx\n", 2),                       # the neuron count
        ("\ufeff1\n0.5\n0\n1\nx\n0\n", 5),   # a byte-order mark before the count
    ])
    def test_error_names_the_file_and_the_real_line(self, tmp_path, text, lineno):
        path = tmp_path / "broken.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{path}: line {lineno}: ")):
            load_spec(path)


def _simulate_pair_activity(t_end, seed, n_batches=20):
    """Event-driven simulation of the mutual pair, with batch-mean errors.

    Two neurons hold integer potentials. External excitatory spikes
    arrive at rate 0.3 each; an active neuron fires at rate 1 and its
    spike goes to the peer with probability 0.5, otherwise it leaves the
    network. Returns (mean activity per neuron, standard error).
    """
    rng = np.random.default_rng(seed)
    potential = [0, 0]
    now = 0.0
    batch = t_end / n_batches
    active_time = np.zeros((n_batches, 2))
    while True:
        rates = [0.3, 0.3,
                 1.0 if potential[0] > 0 else 0.0,
                 1.0 if potential[1] > 0 else 0.0]
        total = sum(rates)
        dt = rng.exponential(1.0 / total)
        seg_start, seg_end = now, min(now + dt, t_end)
        while seg_start < seg_end:
            index = min(int(seg_start / batch), n_batches - 1)
            bound = min((index + 1) * batch, seg_end)
            for u in (0, 1):
                if potential[u] > 0:
                    active_time[index, u] += bound - seg_start
            seg_start = bound
        now += dt
        if now >= t_end:
            break
        event = rng.choice(4, p=[r / total for r in rates])
        if event < 2:
            potential[event] += 1
        else:
            u = event - 2
            potential[u] -= 1
            if rng.uniform() < 0.5:
                potential[1 - u] += 1
    fractions = active_time / batch
    return fractions.mean(axis=0), fractions.std(axis=0, ddof=1) / np.sqrt(n_batches)
