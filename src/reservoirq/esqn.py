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

``run`` drives a whole (K, n_in) input matrix. The input terms depend on
no state, so they are formed for all K steps at once: one product with
the stacked blocks [w+_in; w-_in] gives a (K, 2N) drive whose row t
holds the numerator terms of step t, then the denominator terms plus r.
Inside the step loop only the recurrent terms remain: one (2N, N)
product of [w+_res; w-_res] with the previous load vector, into a fixed
buffer; the drive row is added and the two halves are divided straight
into the next, contiguous, state column. The loop allocates no array.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, DomainError
from .numerics import drive_buffers, initial_state

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

    def run(self, inputs, out=None):
        """Apply the load map once per row of a (K, n_in) input matrix.

        Returns the (n_res, K) matrix whose column t holds the loads after
        input row t, written into ``out`` when it is given (any layout; the
        sample-major default is the fast one), and leaves the model holding
        a copy of the last column. Each step is simultaneous across units:
        the right-hand side reads only the previous load vector. The inputs
        are checked once per call (2-d, finite, nonnegative); each column
        with some load above 1 adds one to ``overload_steps``.
        """
        a, out = drive_buffers(inputs, self.n_in, self.n_res, out)
        if np.any(a < 0):
            raise DomainError("inputs are spike rates and must be nonnegative")
        n = self.n_res
        drive = (a / self.rates_in) @ np.vstack((self.w_plus_in, self.w_minus_in)).T
        drive[:, n:] += self.rates_res
        dot = np.vstack((self.w_plus_res, self.w_minus_res)).dot
        r = np.empty(2 * n)
        numer, denom = r[:n], r[n:]
        state = self.state
        for d, o in zip(drive, out.T):
            dot(state, out=r)
            r += d
            state = np.divide(numer, denom, out=o)
        # the loop's state is a view into out; the model keeps its own copy
        self.state = state.copy()
        self.overload_steps += int(np.count_nonzero((out > 1.0).any(axis=0)))
        return out
