"""Seeded randomness, spectral radius, the ridge solver, the reservoirs'
step loop, the integer and state checks, and the BLAS thread pin.

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
import numbers
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# Most float64 entries in one stack of shifted Gram matrices (1 MiB).
STACK_DOUBLES = 2 ** 17


def seeded_rng(seed):
    """Return a PCG64 generator seeded with ``seed``, an integer >= 0."""
    return np.random.default_rng(check_integer("seed", seed, 0))


def substream_rng(master_seed, *path):
    """Return an independent generator for (master_seed, *path).

    The path is hashed through numpy's SeedSequence, so distinct paths give
    statistically independent streams and the same path always gives the
    same stream.
    """
    return np.random.default_rng(np.random.SeedSequence([master_seed, *path]))


def substream_seed(master_seed, *path):
    """Collapse (master_seed, *path) to a single reproducible 64-bit seed."""
    ss = np.random.SeedSequence([master_seed, *path])
    return int(ss.generate_state(1, np.uint64)[0])


def drive(inputs, state, step, ufunc):
    """Step a reservoir once per row of a (K, n_in) input matrix.

    ``state`` is the (n,) start state and ``step`` the (ufunc.nin * n, D)
    step matrix, D = 1 + n_in + n, whose columns multiply the window
    [x_{t-1}; 1; a_t]; x_t is ``ufunc`` over the ufunc.nin equal parts of
    that product. The inputs are checked once: a shape other than
    (K, n_in), or a non-finite entry, raises ValueError.

    Returns the (D, K) regressor matrix, whose column t is [1; a_t; x_t],
    and a copy of the last state (of ``state`` when K = 0). The matrix is
    the transpose of a C-order (K + 1, D) buffer less its row 0, which
    ends with ``state``; row t holds [1, a_t, x_t], so each column is
    contiguous. Window t - 1 is [x_{t-1}, 1, a_t], everything step t
    reads, and it ends just before x_t: the windows are the buffer's rows
    shifted back by n entries, one read-only strided view that numpy
    bounds-checks against the buffer. Each step is two calls, the product
    into one scratch vector and ``ufunc`` from it into x_t, and allocates
    no array.
    """
    a = np.asarray(inputs, dtype=float)
    lead = step.shape[1] - state.shape[0]
    if a.ndim != 2 or a.shape[1] != lead - 1:
        raise ValueError(f"expected a K x {lead - 1} input matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("inputs must be finite")
    buf = np.empty((a.shape[0] + 1, step.shape[1]))
    buf[0, lead:] = state
    buf[1:, 0] = 1.0
    buf[1:, 1:lead] = a
    windows = np.ndarray((a.shape[0], buf.shape[1]), float, buf,
                         offset=lead * buf.itemsize, strides=buf.strides)
    windows.flags.writeable = False
    dot = step.dot
    r = np.empty(step.shape[0])
    # bound once, so no step unpacks r's parts again
    apply = functools.partial(ufunc, *r.reshape(ufunc.nin, -1))
    for window, x in zip(windows, buf[1:, lead:]):
        dot(window, out=r)
        apply(out=x)
    return buf[1:].T, buf[-1, lead:].copy()


def check_integer(name, value, least):
    """Return ``value`` if it is an integer (numpy's pass, a bool does not)
    of at least ``least``; else raise ValueError naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return value


def initial_state(state, n_res):
    """A reservoir's start state: zeros for None, else a copy checked to
    have shape (n_res,) and finite entries (else ValueError)."""
    if state is None:
        return np.zeros(n_res)
    state = np.array(state, dtype=float)
    if state.shape != (n_res,):
        raise ValueError(f"state must have shape ({n_res},)")
    if not np.all(np.isfinite(state)):
        raise ValueError("state must be finite")
    return state


@functools.cache
def _openblas_thread_calls():
    """The (get, set) thread-count functions of the OpenBLAS bundled with
    numpy, or None where numpy uses another BLAS (MKL, Accelerate, a
    system build). numpy has already loaded the wheel's library, so this
    opens the same copy and only looks up its symbols, under the names
    numpy 2's wheels give them."""
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
        raise ValueError(f"expected a non-empty square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
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

    Returns an (L, N_b, D) array, one N_b x D matrix per penalty in the
    order given. The grid must be non-empty and every penalty positive
    (ValueError), so each shifted Gram matrix is positive definite
    whatever the rank of Z. The inputs are checked and the smaller of the
    D x D and K x K Gram matrices is formed once. Copies of it, each with
    one penalty added to its diagonal, are stacked and solved by one
    ``numpy.linalg.solve`` call; LAPACK factors each system of the stack
    exactly as it would a lone one, so a weight does not depend on the
    grid around it. Where the whole stack would hold more than
    STACK_DOUBLES entries, each penalty is solved in turn on the Gram
    matrix itself, its diagonal shifted in place, so no copy is made.
    """
    Z = np.asarray(regressors, dtype=float)
    T = np.asarray(targets, dtype=float)
    if Z.ndim != 2 or T.ndim != 2:
        raise ValueError("regressors and targets must be 2-d matrices")
    if T.shape[1] != Z.shape[1]:
        raise ValueError(
            f"sample counts differ: regressors K={Z.shape[1]}, targets K={T.shape[1]}")
    if Z.shape[1] < 1:
        raise ValueError("need at least one sample column")
    if not (np.all(np.isfinite(Z)) and np.all(np.isfinite(T))):
        raise ValueError("regressors and targets must be finite")
    lams = np.array(lams, dtype=float)
    if lams.size == 0:
        raise ValueError("penalty grid must be non-empty")
    if not np.all(lams > 0):
        raise ValueError(f"lambda must be positive, got {lams.tolist()}")

    primal = Z.shape[0] <= Z.shape[1]
    if primal:
        gram = Z @ Z.T
        rhs = (T @ Z.T).T
    else:
        gram = Z.T @ Z
        rhs = T.T
    m = gram.shape[0]
    per_call = len(lams) if len(lams) * m * m <= STACK_DOUBLES else 1
    stack = gram[None] if per_call == 1 else np.repeat(gram[None], per_call, axis=0)
    diag = gram.diagonal().copy()
    on_diag = np.arange(m)
    solved = np.empty((len(lams), m, T.shape[0]))
    for start in range(0, len(lams), per_call):
        part = lams[start:start + per_call]
        # np.linalg.solve factors copies, so only the diagonals are ever
        # rewritten
        stack[:, on_diag, on_diag] = diag + part[:, None]
        solved[start:start + per_call] = np.linalg.solve(stack, rhs)
    weights = solved.transpose(0, 2, 1)
    if not primal:
        # W = T (Z'Z + lam I)^-1 Z'
        weights = weights @ Z.T
    return weights
