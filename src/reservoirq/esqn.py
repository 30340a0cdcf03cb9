"""Echo state queueing network: a reservoir whose state is a load vector.

Each reservoir unit is a spiking queue neuron; its state is the queueing
load rho_u rather than a tanh activation. One time step applies the load
map of ``randnn`` once to the previous state, in the G-network that
``EsqnModel.network(a_t)`` returns.

Inputs a are nonnegative spike arrival rates (data is rescaled to [0, 1]
upstream). All weights are nonnegative because they are routing rates. The
map is applied literally, without clamping loads at one; steps where
some load exceeds one are tallied in ``overload_steps`` as a diagnostic.

``run`` hands ``numerics.drive`` the (2N, D) step matrix

    [[w+_res,     0, w+_in / r_in],
     [w-_res, r_res, w-_in / r_in]],

whose product with the window [rho_{t-1}; 1; a_t] gives the N numerators,
then the N denominators; their ratio is rho_t.
"""

from dataclasses import dataclass, field

import numpy as np

from .numerics import check_integer, drive
from .randnn import RandnnSpec, rate_array

# The sampling law of every ESQN reservoir: the interval of all four
# weight blocks, and every firing rate.
WEIGHT_LO, WEIGHT_HI = 0.0, 0.2
FIRING_RATE = 1.0


@dataclass
class EsqnModel:
    """Four nonnegative weight blocks, firing rates, and the loads, zeros at first."""

    w_plus_in: np.ndarray    # (n_res, n_in) excitatory input weights
    w_minus_in: np.ndarray   # (n_res, n_in) inhibitory input weights
    w_plus_res: np.ndarray   # (n_res, n_res) excitatory recurrences
    w_minus_res: np.ndarray  # (n_res, n_res) inhibitory recurrences
    rates_in: np.ndarray     # (n_in,) input-neuron firing rates
    rates_res: np.ndarray    # (n_res,) reservoir firing rates
    state: np.ndarray = field(init=False)  # the last loads of a run, where the next starts
    overload_steps: int = field(default=0, init=False)  # steps in which some load exceeded 1

    def __post_init__(self):
        n_res, n_in = shape = rate_array("w_plus_in", self.w_plus_in, (None, None)).shape
        for name, dims in (("w_plus_in", shape), ("w_minus_in", shape),
                           ("w_plus_res", (n_res, n_res)), ("w_minus_res", (n_res, n_res)),
                           ("rates_in", (n_in,)), ("rates_res", (n_res,))):
            setattr(self, name, rate_array(name, getattr(self, name), dims))
        if np.any(self.rates_in <= 0) or np.any(self.rates_res <= 0):
            raise ValueError("firing rates must be strictly positive")
        self.state = np.zeros(n_res)

    @property
    def n_res(self):
        return self.w_plus_res.shape[0]

    @property
    def n_in(self):
        return self.w_plus_in.shape[1]

    @classmethod
    def random(cls, n_in, n_res, rng):
        """Draw all four weight blocks uniformly from [WEIGHT_LO, WEIGHT_HI].

        Every firing rate is FIRING_RATE. Blocks are drawn in a fixed order
        (excitatory input, inhibitory input, excitatory recurrent,
        inhibitory recurrent) so a seed pins the model.
        """
        check_integer("n_in", n_in, 1)
        check_integer("n_res", n_res, 1)
        w_plus_in = rng.uniform(WEIGHT_LO, WEIGHT_HI, (n_res, n_in))
        w_minus_in = rng.uniform(WEIGHT_LO, WEIGHT_HI, (n_res, n_in))
        w_plus_res = rng.uniform(WEIGHT_LO, WEIGHT_HI, (n_res, n_res))
        w_minus_res = rng.uniform(WEIGHT_LO, WEIGHT_HI, (n_res, n_res))
        return cls(w_plus_in=w_plus_in, w_minus_in=w_minus_in,
                   w_plus_res=w_plus_res, w_minus_res=w_minus_res,
                   rates_in=np.full(n_in, FIRING_RATE),
                   rates_res=np.full(n_res, FIRING_RATE))

    def network(self, a):
        """The ``RandnnSpec`` of the reservoir held at ``a``: lambda± = w±_in a / r_in."""
        x = rate_array("a", a, (self.n_in,)) / self.rates_in
        return RandnnSpec(self.w_plus_in @ x, self.w_minus_in @ x,
                          self.w_plus_res, self.w_minus_res, self.rates_res)

    def run(self, inputs):
        """Apply the load map once per row of a (K, n_in) input matrix.

        Returns the (1 + n_in + n_res, K) regressor matrix whose column t
        is [1; a_t; rho_t] (see ``numerics.drive``) and leaves the model
        holding the last loads. Each step is simultaneous across units:
        the right-hand side reads only the previous load vector. The inputs
        are spike rates, so they pass ``rate_array``, and so do the loads
        the run starts from; each step with some load above 1 adds one to
        ``overload_steps``.
        """
        inputs = rate_array("inputs", inputs, (None, self.n_in))
        n = self.n_res
        plus_in, minus_in = self.w_plus_in / self.rates_in, self.w_minus_in / self.rates_in
        step = np.vstack((np.hstack((self.w_plus_res, np.zeros((n, 1)), plus_in)),
                          np.hstack((self.w_minus_res, self.rates_res[:, None], minus_in))))
        state = rate_array("state", self.state, (n,))
        regressors, self.state = drive(inputs, state, step, np.divide)
        loads = regressors[1 + self.n_in:]
        self.overload_steps += int(np.count_nonzero((loads > 1.0).any(axis=0)))
        return regressors
