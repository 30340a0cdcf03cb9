"""Echo state queueing network: a reservoir whose state is a load vector.

Each reservoir unit is a spiking queue neuron; its state is the queueing
load rho_u rather than a tanh activation. One time step applies the
stationary load map once, reading only the previous state:

    rho_u <- (sum_v (a_v / r_v) w+_in[u, v] + sum_v' rho_v' w+_res[u, v'])
             -----------------------------------------------------------
             (r_u + sum_v (a_v / r_v) w-_in[u, v] + sum_v' rho_v' w-_res[u, v'])

Inputs a are nonnegative spike arrival rates (data is rescaled to [0, 1]
upstream) and a_v / r_v is the load of input neuron v viewed as an M/M/1
queue. All weights are nonnegative because they are routing rates. The
map is applied literally, without clamping loads at one; steps where
some load exceeds one are tallied in ``overload_steps`` as a diagnostic.

``run`` drives a whole (K, n_in) input matrix through one C-order buffer
whose row t is the regressor [1, a_t, rho_t]. Step t reads the window
[rho_{t-1}, 1, a_t], which ends just before rho_t, and makes two calls: a
product of the window with the (2N, D) step matrix

    [[w+_res,     0, w+_in / r_in],
     [w-_res, r_res, w-_in / r_in]]

gives the N numerators, then the N denominators, and their ratio is
written straight into rho_t. The loop allocates no array.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, DomainError
from .numerics import initial_state, regressor_buffer

_BLOCKS = ("w_plus_in", "w_minus_in", "w_plus_res", "w_minus_res")


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
        for name in (*_BLOCKS, "rates_in", "rates_res"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=float))
        n_res, n_in = self.w_plus_in.shape if self.w_plus_in.ndim == 2 else (0, 0)
        if self.w_plus_in.ndim != 2:
            raise DimensionError("w_plus_in must be 2-d")
        if self.w_minus_in.shape != (n_res, n_in):
            raise DimensionError("w_minus_in must match w_plus_in")
        for name in ("w_plus_res", "w_minus_res"):
            if getattr(self, name).shape != (n_res, n_res):
                raise DimensionError(f"{name} must have shape ({n_res}, {n_res})")
        if self.rates_in.shape != (n_in,) or self.rates_res.shape != (n_res,):
            raise DimensionError("rate vectors must match the weight blocks")
        for name in _BLOCKS:
            if np.any(getattr(self, name) < 0):
                raise ValueError(f"{name} must be nonnegative (weights are rates)")
        if np.any(self.rates_in <= 0) or np.any(self.rates_res <= 0):
            raise ValueError("firing rates must be strictly positive")
        self.state = initial_state(self.state, n_res)
        if np.any(self.state < 0):
            raise DomainError("loads must be nonnegative")

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
        state) so a seed pins the model.
        """
        if n_in < 1 or n_res < 1:
            raise ValueError("n_in and n_res must be >= 1")
        if weight_lo < 0:
            raise ValueError("weight_lo must be nonnegative (weights are rates)")
        if weight_lo > weight_hi:
            raise ValueError(f"empty interval: weight_lo={weight_lo} > weight_hi={weight_hi}")
        if rate <= 0:
            raise ValueError("rate must be positive")
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

    def run(self, inputs):
        """Apply the load map once per row of a (K, n_in) input matrix.

        Returns the sample-major (1 + n_in + n_res, K) matrix whose column
        t is the regressor [1; a_t; rho_t], so the loads are rows n_in + 1
        onward, and leaves the model holding a copy of the last loads.
        Each step is simultaneous across units: the right-hand side reads
        only the previous load vector. The inputs are checked once per
        call (2-d, finite, nonnegative); each step with some load above 1
        adds one to ``overload_steps``.
        """
        buf, windows = regressor_buffer(inputs, self.n_in, self.state)
        n, lead = self.n_res, 1 + self.n_in
        if np.any(buf[1:, 1:lead] < 0):
            raise DomainError("inputs are spike rates and must be nonnegative")
        plus_in, minus_in = self.w_plus_in / self.rates_in, self.w_minus_in / self.rates_in
        dot = np.vstack((np.hstack((self.w_plus_res, np.zeros((n, 1)), plus_in)),
                         np.hstack((self.w_minus_res, self.rates_res[:, None], minus_in)))).dot
        r = np.empty(2 * n)
        numer, denom = r[:n], r[n:]
        loads = buf[1:, lead:]
        for window, rho in zip(windows, loads):
            dot(window, out=r)
            np.divide(numer, denom, out=rho)
        self.state = buf[-1, lead:].copy()
        self.overload_steps += int(np.count_nonzero((loads > 1.0).any(axis=1)))
        return buf[1:].T
