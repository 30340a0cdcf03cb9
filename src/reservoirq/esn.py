"""Echo state network: sparse random reservoir with tanh units.

The reservoir matrix is sampled at a fixed density and rescaled so its
spectral radius (``spectral_radius``, a dense eigensolve) hits a target
below one, which empirically gives the network fading memory: states
forget their initial condition under a common input drive. A radius-0
draw cannot be rescaled, and fails. Only the readout is ever trained.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .numerics import check_array, check_integer, drive

# The sampling law of every ESN reservoir: the nonzero fraction of w_res,
# its spectral radius after rescaling, and the interval of every weight.
DENSITY = 0.15
SPECTRAL_RADIUS = 0.95
WEIGHT_LO, WEIGHT_HI = -0.5, 0.5
# The fewest units at which DENSITY leaves a nonzero recurrent weight.
MIN_SIZE = next(n for n in itertools.count(1) if round(DENSITY * n * n) >= 1)


@dataclass
class EsnModel:
    """Input weights and recurrent weights."""

    w_in: np.ndarray   # (n_res, 1 + n_in), column 0 multiplies the constant 1
    w_res: np.ndarray  # (n_res, n_res)

    def __post_init__(self):
        n = len(check_array("w_res", self.w_res, (None, None)))
        self.w_res = check_array("w_res", self.w_res, (n, n))
        self.w_in = check_array("w_in", self.w_in, (self.n_res, None))
        if self.w_in.shape[1] < 1:
            raise ValueError("w_in needs at least the bias column")

    @property
    def n_res(self):
        return self.w_res.shape[0]

    @property
    def n_in(self):
        return self.w_in.shape[1] - 1

    @classmethod
    def random(cls, n_in, n_res, rng):
        """Sample a reservoir by the module's sampling law.

        Exactly round(DENSITY * n_res^2) entries of w_res are nonzero,
        placed uniformly at random, with values drawn uniformly from
        [WEIGHT_LO, WEIGHT_HI] and then rescaled so the spectral radius
        equals SPECTRAL_RADIUS; w_in is drawn from the same interval.
        A nilpotent draw (radius 0, likely at a few units) is not redrawn:
        it raises FloatingPointError. An ``n_in`` below 0, or an ``n_res``
        below MIN_SIZE, raises ValueError before any draw.
        """
        check_integer("n_in", n_in, 0)
        check_integer("n_res", n_res, MIN_SIZE)
        nnz = round(DENSITY * n_res * n_res)
        support = rng.choice(n_res * n_res, size=nnz, replace=False)
        values = rng.uniform(WEIGHT_LO, WEIGHT_HI, nnz)
        w_res = np.zeros((n_res, n_res))
        w_res.flat[support] = values
        rho = spectral_radius(w_res)
        if rho == 0.0:
            raise FloatingPointError(f"{n_res}-unit reservoir drawn with spectral radius 0")
        w_res *= SPECTRAL_RADIUS / rho
        w_in = rng.uniform(WEIGHT_LO, WEIGHT_HI, (n_res, 1 + n_in))
        return cls(w_in=w_in, w_res=w_res)

    def run(self, inputs, state):
        """Advance x <- tanh(w_in [1; a] + w_res x) once per input row.

        Takes a (K, n_in) input matrix and the (n_res,) state x_0 the run
        starts from, and returns the (1 + n_in + n_res, K) regressor matrix
        whose column t is [1; a_t; x_t] (see ``numerics.drive``). Both pass
        ``check_array``.
        """
        inputs = check_array("inputs", inputs, (None, self.n_in))
        state = check_array("state", state, (self.n_res,))
        return drive(inputs, state, np.hstack((self.w_res, self.w_in)), np.tanh)


def spectral_radius(m):
    """Largest eigenvalue magnitude of a non-empty square matrix, by dense
    eigensolve.

    Accurate to rounding at every size, complex dominant pairs included,
    so a reservoir rescaled by it lands on its target radius.
    """
    n = len(check_array("m", m, (None, None)))
    m = check_array("m", m, (n, n))
    if not n:
        raise ValueError("m must be non-empty, got shape (0, 0)")
    return float(np.max(np.abs(np.linalg.eigvals(m))))
