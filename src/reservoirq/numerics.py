"""Seeded streams, the reservoirs' step loop, input checks, the BLAS pin.

All experiment randomness flows through numpy's PCG64 generator (a
permuted-congruential generator with published constants and
platform-independent integer arithmetic), so a seed pins every weight
draw bit-exactly. Independent substreams are derived from a master seed
and an integer path, never by splitting one sequential stream, which
keeps trial results independent of how many other trials run.

OpenBLAS splits a product across its worker threads in a way that depends
on the thread count, so the last bits of a trial's result would depend on
the machine's core count; and a second thread spins through the per-step
loop for no speed-up, doubling the CPU time. ``one_blas_thread`` runs a
block on one OpenBLAS thread. The count is process-wide: while the block
runs, BLAS calls from every thread of the process run on one thread. The
package does its linear algebra with ``numpy.linalg`` only and loads no
scipy module: scipy bundles its own OpenBLAS, whose thread pool this pin
would not reach and which would compete with numpy's for the same cores.
"""

import ctypes
import functools
import numbers
from contextlib import contextmanager
from pathlib import Path

import numpy as np


def seeded_rng(seed, *path):
    """Return the PCG64 generator of the key (seed, *path).

    The key is hashed through numpy's SeedSequence, so distinct keys give
    statistically independent streams and the same key always gives the
    same stream; with no path it is ``numpy.random.default_rng(seed)``.
    ``seed`` and each path entry must pass ``check_integer`` at 0, so no
    bool, string or float aliases an integer's stream.
    """
    check_integer("seed", seed, 0)
    return np.random.default_rng(_seed_sequence(seed, *path))


def substream_seed(master_seed, *path):
    """Collapse (master_seed, *path) to a single reproducible 64-bit seed."""
    return int(_seed_sequence(master_seed, *path).generate_state(1, np.uint64)[0])


def _seed_sequence(*key):
    return np.random.SeedSequence([check_integer("stream key", k, 0) for k in key])


def drive(inputs, state, step, ufunc):
    """Step a reservoir once per row of a (K, n_in) input matrix.

    ``state`` is the (n,) start state and ``step`` the (ufunc.nin * n, D)
    step matrix, D = 1 + n_in + n, whose columns multiply the window
    [x_{t-1}; 1; a_t]; x_t is ``ufunc`` over the ufunc.nin equal parts of
    that product. ``inputs`` is the (K, n_in) float matrix that the caller
    has admitted.

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
    lead = step.shape[1] - state.shape[0]
    buf = np.empty((len(inputs) + 1, step.shape[1]))
    buf[0, lead:] = state
    buf[1:, 0] = 1.0
    buf[1:, 1:lead] = inputs
    windows = np.ndarray((len(inputs), buf.shape[1]), float, buf,
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


def check_sequence(name, value, admit):
    """Return ``tuple(admit(entry) for entry in value)`` if ``value`` is a
    non-empty sequence (a generator is one; a scalar, a string or a 0-d
    array is none); else raise ValueError naming ``name``."""
    entries = () if isinstance(value, (str, bytes)) or not np.iterable(value) else tuple(value)
    if not entries:
        raise ValueError(f"{name} must be a non-empty sequence, got {value!r}")
    return tuple(map(admit, entries))


def check_array(name, value, shape):
    """Return ``value`` as a float array whose shape matches ``shape`` (None
    matches any length) and whose entries are all finite. Otherwise raise
    ValueError naming ``name``: a complex value is no float array, and a
    wrong shape is named with the wanted one."""
    try:
        if np.iscomplexobj(value):
            raise TypeError("a cast would drop the imaginary part")
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name} must be a float array: {exc}") from None
    if arr.ndim != len(shape) or any(w not in (None, g) for w, g in zip(shape, arr.shape)):
        raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite")
    return arr


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
