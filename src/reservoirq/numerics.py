"""Seeded randomness, spectral radius, the ridge solver, the reservoirs'
regressor buffer and state check, and the BLAS thread pin.

All experiment randomness flows through numpy's PCG64 generator (a
permuted-congruential generator with published constants and
platform-independent integer arithmetic), so a seed pins every weight
draw bit-exactly. Independent substreams are derived from a master seed
and an integer path, never by splitting one sequential stream, which
keeps trial results independent of how many other trials run.

OpenBLAS splits a product across its worker threads in a way that depends
on the thread count, so the last bits of a trial's result would depend on
the machine's core count. ``one_blas_thread`` runs a block on one OpenBLAS
thread. The count is process-wide: while the block runs, BLAS calls from
every thread of the process run on one thread.
"""

import ctypes
import functools
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import DimensionError, DomainError


def seeded_rng(seed):
    """Return a PCG64 generator seeded with ``seed``."""
    return np.random.default_rng(seed)


def substream_rng(master_seed, *path):
    """Return an independent generator for (master_seed, *path).

    The path is hashed through numpy's SeedSequence, so distinct paths give
    statistically independent streams and the same path always gives the
    same stream.
    """
    return np.random.default_rng(np.random.SeedSequence([int(master_seed), *map(int, path)]))


def substream_seed(master_seed, *path):
    """Collapse (master_seed, *path) to a single reproducible 64-bit seed."""
    ss = np.random.SeedSequence([int(master_seed), *map(int, path)])
    return int(ss.generate_state(1, np.uint64)[0])


def regressor_buffer(inputs, n_in, state):
    """Check a (K, n_in) input matrix once and lay out K reservoir steps.

    Returns a C-order (K + 1, D) buffer, D = 1 + n_in + n_res, and a
    read-only (K, D) view of its windows. Row 0 of the buffer ends with
    ``state``; row t holds [1, a_t, x_t], with x_t left for the caller to
    write. Window t - 1 is [x_{t-1}, 1, a_t], everything step t reads, and
    it ends just before x_t. Raises DimensionError on a shape mismatch and
    DomainError on a non-finite input.
    """
    a = np.asarray(inputs, dtype=float)
    if a.ndim != 2 or a.shape[1] != n_in:
        raise DimensionError(f"expected a K x {n_in} input matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise DomainError("inputs must be finite")
    lead = 1 + n_in
    buf = np.empty((a.shape[0] + 1, lead + state.shape[0]))
    buf[0, lead:] = state
    buf[1:, 0] = 1.0
    buf[1:, 1:lead] = a
    d = buf.shape[1]
    return buf, np.lib.stride_tricks.sliding_window_view(buf.ravel(), d)[lead::d]


def initial_state(state, n_res):
    """A reservoir's start state: zeros for None, else a copy checked to
    have shape (n_res,) (DimensionError) and finite entries (DomainError)."""
    if state is None:
        return np.zeros(n_res)
    state = np.array(state, dtype=float)
    if state.shape != (n_res,):
        raise DimensionError(f"state must have shape ({n_res},)")
    if not np.all(np.isfinite(state)):
        raise DomainError("state must be finite")
    return state


@functools.cache
def _openblas_thread_calls():
    """The (get, set) thread-count functions of the OpenBLAS bundled with
    numpy, or None where numpy uses another BLAS (MKL, Accelerate, a
    system build). numpy has already loaded the wheel's library, so this
    opens the same copy and only looks up its symbols."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        get = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        put = getattr(lib, "scipy_openblas_set_num_threads64_", None)
        if get is not None and put is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            return get, put
    return None


@contextmanager
def one_blas_thread():
    """Run the block on one OpenBLAS thread, then restore the old count.

    Yields True when the count was pinned and False, changing nothing,
    where numpy's OpenBLAS cannot be found. The count is restored also
    when the block raises.
    """
    calls = _openblas_thread_calls()
    if calls is None:
        yield False
        return
    get, put = calls
    before = get()
    put(1)
    try:
        yield True
    finally:
        put(before)


def spectral_radius(m):
    """Largest eigenvalue magnitude of a square matrix, by dense eigensolve.

    Accurate to rounding at every size, complex dominant pairs included,
    so a reservoir rescaled by it lands on its target radius.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
        raise DimensionError(f"expected a non-empty square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    if not m.any():
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(m))))


def ridge_solve(regressors, targets, lam):
    """Solve min_W sum_k ||t_k - W z_k||^2 + lam ||W||_F^2.

    ``regressors`` is D x K (one column per sample), ``targets`` is
    N_b x K; the result W is N_b x D, i.e. W = T Z' (Z Z' + lam I)^-1.
    This is ``ridge_solve_grid`` with a one-penalty grid.
    """
    return ridge_solve_grid(regressors, targets, (lam,))[0]


def ridge_solve_grid(regressors, targets, lams):
    """Ridge weights W = T Z' (Z Z' + lam I)^-1 for each penalty in ``lams``.

    Returns one N_b x D matrix per penalty, in the order given. Every
    penalty must be positive (ValueError), so each shifted Gram matrix is
    positive definite whatever the rank of Z. The inputs are checked and
    the smaller of the D x D and K x K Gram matrices is formed once; each
    penalty then only shifts its diagonal and solves the system with
    numpy's LU solver, so a grid costs one Gram product plus one
    factorization per penalty.
    """
    Z = np.asarray(regressors, dtype=float)
    T = np.asarray(targets, dtype=float)
    if Z.ndim != 2 or T.ndim != 2:
        raise DimensionError("regressors and targets must be 2-d matrices")
    if T.shape[1] != Z.shape[1]:
        raise DimensionError(
            f"sample counts differ: regressors K={Z.shape[1]}, targets K={T.shape[1]}")
    if Z.shape[1] < 1:
        raise DimensionError("need at least one sample column")
    if not (np.all(np.isfinite(Z)) and np.all(np.isfinite(T))):
        raise ValueError("regressors and targets must be finite")
    lams = [float(lam) for lam in lams]
    if not all(lam > 0 for lam in lams):
        raise ValueError(f"lambda must be positive, got {lams}")

    primal = Z.shape[0] <= Z.shape[1]
    if primal:
        gram = Z @ Z.T
        rhs = (T @ Z.T).T
    else:
        gram = Z.T @ Z
        rhs = T.T
    diag = gram.diagonal().copy()
    weights = []
    for lam in lams:
        # np.linalg.solve factors a copy, so gram only ever has its
        # diagonal rewritten, and no two factors are alive at once
        np.fill_diagonal(gram, diag + lam)
        w = np.linalg.solve(gram, rhs).T
        if not primal:
            # W = T (Z'Z + lam I)^-1 Z'
            w = w @ Z.T
        weights.append(w)
    return weights
