"""Dataset construction: NARMA-10 generation, file reading and CSV
ingestion, rescaling and lagged windowing.

Everything here is deterministic given its inputs; windowing keeps time
order, so the chronological split that ``harness.prepare_data`` takes
leaves every validation target after every training target.
"""

import csv

import numpy as np

from .numerics import check_array, check_integer

NARMA_ORDER = 10
NARMA_DIVERGENCE_LIMIT = 10.0
NARMA_ATTEMPTS = 10
NARMA_WARMUP = 200


def rescale(values, reference):
    """Map values affinely, sending the reference segment's min to 0 and
    its max to 1. Values outside the reference range map outside [0, 1];
    nothing is clipped."""
    reference = check_array("reference", reference, (None,))
    if not reference.size:
        raise ValueError("reference must be non-empty")
    lo, hi = float(reference.min()), float(reference.max())
    if not hi > lo:
        raise ValueError("reference segment is constant; no scale exists")
    return (np.asarray(values, dtype=float) - lo) / (hi - lo)


def narma10_response(drive):
    """Run the order-10 NARMA recurrence over a drive sequence.

    Returns the array of next-step outputs: element t is b(t+1) where

        b(t+1) = 0.3 b(t) + 0.05 b(t) sum_{i=0..9} b(t-i)
                 + 1.5 s(t-9) s(t) + 0.1

    with zero initial history (b and s vanish for t <= 0).
    """
    s = np.asarray(drive, dtype=float)
    n = s.shape[0]
    out = np.empty(n)
    window = np.zeros(NARMA_ORDER)  # b(t) .. b(t-9)
    b = 0.0
    for t in range(n):
        s_old = s[t - (NARMA_ORDER - 1)] if t >= NARMA_ORDER - 1 else 0.0
        nxt = 0.3 * b + 0.05 * b * window.sum() + 1.5 * s_old * s[t] + 0.1
        out[t] = nxt
        window[t % NARMA_ORDER] = nxt
        b = nxt
    return out


def generate_narma10(n, rng):
    """Generate n aligned (s(t), b(t+1)) pairs of the NARMA-10 system.

    The drive s is uniform on [0, 0.5]. The first NARMA_WARMUP pairs
    are dropped so the zero initial history washes out. Divergent runs
    (|b| exceeding 10, possible for unlucky drives) are regenerated from
    the generator's following draws, at most NARMA_ATTEMPTS times.
    """
    total = NARMA_WARMUP + check_integer("n", n, 1)
    for _ in range(NARMA_ATTEMPTS):
        s = rng.uniform(0.0, 0.5, total)
        # divergent drives overflow before the check rejects them
        with np.errstate(over="ignore", invalid="ignore"):
            b_next = narma10_response(s)
        if np.all(np.abs(b_next) <= NARMA_DIVERGENCE_LIMIT):
            return s[NARMA_WARMUP:], b_next[NARMA_WARMUP:]
    raise RuntimeError(
        f"NARMA-10 diverged on {NARMA_ATTEMPTS} consecutive attempts")


def read_lines(path):
    """A text file's lines, endings kept (newline="", as csv needs), read as
    UTF-8 whatever the locale, a leading byte-order mark skipped; a file
    that cannot be opened or decoded raises ValueError naming it."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            return fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc


def load_csv(path, column=0):
    """Read one column of a CSV file as a finite 1-d float array.

    ``column`` is a zero-based index or, when the file starts with a
    header row, a column name. Rows keep file order. Problems, a
    non-finite value among them, raise ValueError naming the offending
    row and column (a row is the 1-based file line its record ends on); a
    file that cannot be read, decoded or parsed as CSV raises ValueError
    naming it.
    """
    reader = csv.reader(read_lines(path))
    try:
        rows = [(reader.line_num, row) for row in reader]
    except csv.Error as exc:
        raise ValueError(f"{path}: line {reader.line_num}: {exc}") from exc
    if not rows:
        raise ValueError(f"{path}: file is empty")

    def _is_number(cell):
        try:
            float(cell)
            return True
        except ValueError:
            return False

    has_header = any(not _is_number(cell) for cell in rows[0][1] if cell.strip())
    if isinstance(column, str):
        if not has_header:
            raise ValueError(f"{path}: no header row to resolve column {column!r}")
        try:
            idx = rows[0][1].index(column)
        except ValueError:
            raise ValueError(f"{path}: no column named {column!r}") from None
    else:
        idx = check_integer(f"{path}: column", column, 0)
    values = []
    for lineno, row in rows[1:] if has_header else rows:
        if not row or all(not cell.strip() for cell in row):
            continue
        if idx >= len(row):
            raise ValueError(f"{path}: row {lineno} has no column {idx}")
        cell = row[idx].strip()
        try:
            value = float(cell)
        except ValueError:
            raise ValueError(f"{path}: unparseable value {cell!r} at row {lineno}, "
                             f"column {idx}") from None
        if not np.isfinite(value):
            raise ValueError(
                f"{path}: non-finite value {cell!r} at row {lineno}, column {idx}")
        values.append(value)
    if not values:
        raise ValueError(f"{path}: column {idx} is empty")
    return np.array(values)


def check_lag_offsets(offsets):
    """The offsets as a tuple, or ValueError naming them unless they are
    non-empty and each passes ``check_integer`` with a bound of 0."""
    given = tuple(offsets)
    try:
        lags = tuple(check_integer("lag offset", o, 0) for o in given)
    except ValueError:
        lags = ()
    if not lags:
        raise ValueError("lag_offsets must be a non-empty sequence of nonnegative "
                         f"integers, got {given}")
    return lags


def lag_paired_series(inputs_series, targets_series, offsets):
    """Window pre-aligned (input(t), target(t)) pairs with input lags.

    Returns the (K, len(offsets)) inputs and the (K, 1) targets. Row k
    (at t = max(offsets) + k) has inputs [s(t - o) for o in offsets] and
    target y(t), keeping the original pair alignment; the first
    max(offsets) pairs are consumed by the lag window. A forecast of x
    h steps ahead pairs s = x[:-h] with y = x[h:].
    """
    s = check_array("inputs_series", inputs_series, (None,))
    y = check_array("targets_series", targets_series, s.shape)
    lags = check_lag_offsets(offsets)
    max_off = max(lags)
    n_rows = s.shape[0] - max_off
    if n_rows < 1:
        raise ValueError(
            f"series of length {s.shape[0]} is too short for offsets up to {max_off}")
    inputs = np.column_stack([s[max_off - o:max_off - o + n_rows] for o in lags])
    return inputs, y[max_off:][:, None]

