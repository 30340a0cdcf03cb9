"""Steady-state solver for random neural networks (G-networks).

A network of N spiking queue-like neurons exchanges excitatory and
inhibitory Poisson spike streams. Neuron u fires at rate ``rates[u]``
while its potential is positive; ``w_plus[u, v]`` / ``w_minus[u, v]``
are the excitatory / inhibitory spike rates routed from v to u, and
``lambda_plus`` / ``lambda_minus`` are external arrival rates. The loads
are the fixed point rho = g(rho) of the load map, which one ESQN step
applies once (``esqn.EsqnModel.network``):

    g_u(rho) = T+_u / (rates_u + T-_u),
    T+_u  = lambda+_u + sum_v rho_v w+_{u,v},
    T-_u  = lambda-_u + sum_v rho_v w-_{u,v},

and the network is stable when every load stays below one. The solver
iterates this map with adaptive damping from rho = 0.
"""

from dataclasses import dataclass

import numpy as np

from .numerics import check_array

ALPHA_FLOOR = 2.0 ** -20
# the solve stops once the largest load moves less than TOL in one map
TOL = 1e-12
MAX_ITER = 10_000
OVERLOAD_PATIENCE = 100


def rate_array(name, value, shape):
    """``value`` admitted by ``check_array`` whose entries are also
    nonnegative, as every rate and routing weight of a queueing network
    is; raises ValueError naming ``name`` otherwise."""
    arr = check_array(name, value, shape)
    if (arr < 0).any():
        raise ValueError(f"{name} must hold nonnegative rates")
    return arr


@dataclass(frozen=True)
class RandnnSpec:
    """Immutable description of one random neural network.

    All rates are nonnegative and firing rates strictly positive.
    """

    lambda_plus: np.ndarray
    lambda_minus: np.ndarray
    w_plus: np.ndarray
    w_minus: np.ndarray
    rates: np.ndarray

    def __post_init__(self):
        n = len(rate_array("lambda_plus", self.lambda_plus, (None,)))
        if not n:
            raise ValueError("lambda_plus must be non-empty")
        for name, dims in (("lambda_plus", (n,)), ("lambda_minus", (n,)),
                           ("w_plus", (n, n)), ("w_minus", (n, n)), ("rates", (n,))):
            object.__setattr__(self, name, rate_array(name, getattr(self, name), dims))
        if np.any(self.rates <= 0):
            raise ValueError("firing rates must be strictly positive")

    @property
    def n(self):
        return self.lambda_plus.shape[0]


@dataclass(frozen=True)
class SteadyState:
    """A fixed point of the load equations plus its stability verdict."""

    rho: np.ndarray
    stable: bool
    iterations: int


def _load_map(spec, rho):
    t_plus = spec.lambda_plus + spec.w_plus @ rho
    t_minus = spec.lambda_minus + spec.w_minus @ rho
    return t_plus / (spec.rates + t_minus)


def residual(spec, rho):
    """max_u |rho_u - g_u(rho)| where g is the load map."""
    rho = check_array("rho", rho, (spec.n,))
    return float(np.max(np.abs(rho - _load_map(spec, rho))))


def solve_steady_state(spec):
    """Fixed point of the load equations by damped successive substitution.

    Starts from rho = 0 with full steps; the step size is halved whenever
    successive updates reverse direction (oscillation around the fixed
    point). If some load sits at or above one for OVERLOAD_PATIENCE
    consecutive iterations, the network is reported unstable instead of
    erroring. Exhausting MAX_ITER raises RuntimeError.
    """
    rho = np.zeros(spec.n)
    alpha = 1.0
    prev_step = None
    overloaded = 0
    for iteration in range(MAX_ITER):
        g = _load_map(spec, rho)
        res = float(np.max(np.abs(rho - g)))
        if res < TOL:
            return SteadyState(rho=rho, stable=bool(np.all(rho < 1.0)), iterations=iteration)
        delta = g - rho
        if prev_step is not None and float(delta @ prev_step) < 0.0:
            alpha = max(alpha / 2.0, ALPHA_FLOOR)
        step = alpha * delta
        rho = rho + step
        prev_step = step
        overloaded = overloaded + 1 if np.any(rho >= 1.0) else 0
        if overloaded >= OVERLOAD_PATIENCE:
            return SteadyState(rho=rho, stable=False, iterations=iteration + 1)
    raise RuntimeError(
        f"load equations did not reach tol={TOL} within {MAX_ITER} iterations")
