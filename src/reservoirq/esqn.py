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

from .numerics import check_integer, check_weight_interval, drive, initial_state
from .randnn import RandnnSpec, rate_array


@dataclass
class EsqnModel:
    """Four nonnegative weight blocks, firing rates, and the load state."""

    w_plus_in: np.ndarray    # (n_res, n_in) excitatory input weights
    w_minus_in: np.ndarray   # (n_res, n_in) inhibitory input weights
    w_plus_res: np.ndarray   # (n_res, n_res) excitatory recurrences
    w_minus_res: np.ndarray  # (n_res, n_res) inhibitory recurrences
    rates_in: np.ndarray     # (n_in,) input-neuron firing rates
    rates_res: np.ndarray    # (n_res,) reservoir firing rates
    state: np.ndarray = field(default=None)
    overload_steps: int = 0  # steps in which some load exceeded 1

    def __post_init__(self):
        shape = np.shape(self.w_plus_in)
        if len(shape) != 2:
            raise ValueError("w_plus_in must be 2-d")
        n_res, n_in = shape
        for name, dims in (("w_plus_in", shape), ("w_minus_in", shape),
                           ("w_plus_res", (n_res, n_res)), ("w_minus_res", (n_res, n_res)),
                           ("rates_in", (n_in,)), ("rates_res", (n_res,))):
            setattr(self, name, rate_array(name, getattr(self, name), dims))
        if np.any(self.rates_in <= 0) or np.any(self.rates_res <= 0):
            raise ValueError("firing rates must be strictly positive")
        self.state = initial_state(self.state, n_res)
        if np.any(self.state < 0):
            raise ValueError("loads must be nonnegative")

    @property
    def n_res(self):
        return self.w_plus_res.shape[0]

    @property
    def n_in(self):
        return self.w_plus_in.shape[1]

    @classmethod
    def random(cls, n_in, n_res, rng, weight_lo=0.0, weight_hi=0.2, rate=1.0):
        """Draw all four weight blocks uniformly from [weight_lo, weight_hi].

        The initial load vector is uniform on [0, 1] and every firing rate
        is ``rate``. Blocks are drawn in a fixed order (excitatory input,
        inhibitory input, excitatory recurrent, inhibitory recurrent, then
        state) so a seed pins the model. The constructor rejects any negative
        or non-finite weight drawn and a ``rate`` that is not finite and
        positive.
        """
        check_integer("n_in", n_in, 1)
        check_integer("n_res", n_res, 1)
        check_weight_interval(weight_lo, weight_hi)
        w_plus_in = rng.uniform(weight_lo, weight_hi, (n_res, n_in))
        w_minus_in = rng.uniform(weight_lo, weight_hi, (n_res, n_in))
        w_plus_res = rng.uniform(weight_lo, weight_hi, (n_res, n_res))
        w_minus_res = rng.uniform(weight_lo, weight_hi, (n_res, n_res))
        state = rng.uniform(0.0, 1.0, n_res)
        return cls(w_plus_in=w_plus_in, w_minus_in=w_minus_in,
                   w_plus_res=w_plus_res, w_minus_res=w_minus_res,
                   rates_in=np.full(n_in, float(rate)),
                   rates_res=np.full(n_res, float(rate)),
                   state=state)

    def network(self, a):
        """The ``RandnnSpec`` of the reservoir held at ``a``: lambda± = w±_in a / r_in."""
        x = np.asarray(a, dtype=float) / self.rates_in
        return RandnnSpec(self.w_plus_in @ x, self.w_minus_in @ x,
                          self.w_plus_res, self.w_minus_res, self.rates_res)

    def run(self, inputs):
        """Apply the load map once per row of a (K, n_in) input matrix.

        Returns the (1 + n_in + n_res, K) regressor matrix whose column t
        is [1; a_t; rho_t] (see ``numerics.drive``) and leaves the model
        holding the last loads. Each step is simultaneous across units:
        the right-hand side reads only the previous load vector. Negative
        inputs raise ValueError; each step with some load above 1 adds one
        to ``overload_steps``.
        """
        inputs = np.asarray(inputs, dtype=float)
        if np.any(inputs < 0):
            raise ValueError("inputs are spike rates and must be nonnegative")
        n = self.n_res
        plus_in, minus_in = self.w_plus_in / self.rates_in, self.w_minus_in / self.rates_in
        step = np.vstack((np.hstack((self.w_plus_res, np.zeros((n, 1)), plus_in)),
                          np.hstack((self.w_minus_res, self.rates_res[:, None], minus_in))))
        regressors, self.state = drive(inputs, self.state, step, np.divide)
        loads = regressors[1 + self.n_in:]
        self.overload_steps += int(np.count_nonzero((loads > 1.0).any(axis=0)))
        return regressors
