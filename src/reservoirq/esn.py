"""Echo state network: sparse random reservoir with tanh units.

The reservoir matrix is sampled at a fixed density and rescaled so its
spectral radius hits a target below one, which empirically gives the
network fading memory: states forget their initial condition under a
common input drive. Only the readout (elsewhere) is ever trained.
"""

from dataclasses import dataclass, field

import numpy as np

from .numerics import (check_integer, check_weight_interval, drive, initial_state,
                       spectral_radius)

RESAMPLE_ATTEMPTS = 10


@dataclass
class EsnModel:
    """Input weights, recurrent weights, and the mutable state vector."""

    w_in: np.ndarray   # (n_res, 1 + n_in), column 0 multiplies the constant 1
    w_res: np.ndarray  # (n_res, n_res)
    state: np.ndarray = field(default=None)

    def __post_init__(self):
        self.w_in = np.asarray(self.w_in, dtype=float)
        self.w_res = np.asarray(self.w_res, dtype=float)
        if self.w_res.ndim != 2 or self.w_res.shape[0] != self.w_res.shape[1]:
            raise ValueError("w_res must be square")
        if self.w_in.ndim != 2 or self.w_in.shape[0] != self.w_res.shape[0]:
            raise ValueError("w_in must have one row per reservoir unit")
        if self.w_in.shape[1] < 1:
            raise ValueError("w_in needs at least the bias column")
        for name in ("w_in", "w_res"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite")
        self.state = initial_state(self.state, self.n_res)

    @property
    def n_res(self):
        return self.w_res.shape[0]

    @property
    def n_in(self):
        return self.w_in.shape[1] - 1

    @classmethod
    def random(cls, n_in, n_res, density, target_rho, rng,
               weight_lo=-0.5, weight_hi=0.5):
        """Sample a reservoir at the given density and spectral radius.

        Exactly round(density * n_res^2) entries of w_res are nonzero,
        placed uniformly at random, with values drawn uniformly from
        [weight_lo, weight_hi] and then rescaled so the spectral radius
        equals target_rho. Draws that land on a nilpotent support (radius
        zero, possible at tiny densities) are resampled a few times. A
        target_rho that is not finite and positive, or a bad or all-zero
        interval (see ``check_weight_interval``), raises ValueError before
        any draw.
        """
        check_integer("n_in", n_in, 0)
        check_integer("n_res", n_res, 1)
        if not 0.0 < density <= 1.0:
            raise ValueError("density must lie in (0, 1]")
        if not (np.isfinite(target_rho) and target_rho > 0):
            raise ValueError(f"target_rho must be finite and positive, got {target_rho}")
        check_weight_interval(weight_lo, weight_hi)
        if weight_lo == weight_hi == 0:
            raise ValueError(f"all-zero interval: weight_lo = weight_hi = {weight_hi}")
        nnz = round(density * n_res * n_res)
        if nnz < 1:
            raise ValueError(f"density {density} leaves no nonzero entry at n_res = {n_res}")
        for _ in range(RESAMPLE_ATTEMPTS):
            support = rng.choice(n_res * n_res, size=nnz, replace=False)
            values = rng.uniform(weight_lo, weight_hi, nnz)
            w_res = np.zeros(n_res * n_res)
            w_res[support] = values
            w_res = w_res.reshape(n_res, n_res)
            rho = spectral_radius(w_res)
            if rho > 0.0:
                break
        else:
            raise RuntimeError(
                f"sampled reservoir had zero spectral radius {RESAMPLE_ATTEMPTS} times")
        w_res *= target_rho / rho
        w_in = rng.uniform(weight_lo, weight_hi, (n_res, 1 + n_in))
        return cls(w_in=w_in, w_res=w_res)

    def run(self, inputs):
        """Advance x <- tanh(w_in [1; a] + w_res x) once per input row.

        Takes a (K, n_in) input matrix and returns the (1 + n_in + n_res,
        K) regressor matrix whose column t is [1; a_t; x_t] (see
        ``numerics.drive``); the model is left holding the last state.
        """
        regressors, self.state = drive(inputs, self.state,
                                       np.hstack((self.w_res, self.w_in)), np.tanh)
        return regressors
