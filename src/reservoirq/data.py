"""Dataset construction: NARMA-10 generation, CSV ingestion, rescaling
and lagged windowing.

Everything here is deterministic given its inputs; windowing keeps time
order, so the chronological split that ``harness.prepare_data`` takes
leaves every validation target after every training target.
"""

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import (CsvLoadError, DegenerateScaleError, DimensionError,
                     GenerationError)

NARMA_ORDER = 10
NARMA_DIVERGENCE_LIMIT = 10.0
NARMA_ATTEMPTS = 10
DEFAULT_WARMUP = 200


@dataclass
class Rescaler:
    """Affine map sending a reference segment's min to 0 and max to 1.

    Values outside the reference range map outside [0, 1] and are clipped;
    ``clip_count`` accumulates how many points were clipped.
    """

    lo: float
    hi: float
    clip_count: int = field(default=0)

    @classmethod
    def fit(cls, values):
        values = np.asarray(values, dtype=float)
        lo, hi = float(values.min()), float(values.max())
        if not hi > lo:
            raise DegenerateScaleError("reference segment is constant; no scale exists")
        return cls(lo=lo, hi=hi)

    def apply(self, values):
        y = (np.asarray(values, dtype=float) - self.lo) / (self.hi - self.lo)
        clipped = int(np.count_nonzero((y < 0.0) | (y > 1.0)))
        self.clip_count += clipped
        return np.clip(y, 0.0, 1.0)


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


def generate_narma10(n, rng, warmup_discard=DEFAULT_WARMUP):
    """Generate n aligned (s(t), b(t+1)) pairs of the NARMA-10 system.

    The drive s is uniform on [0, 0.5]. The first ``warmup_discard`` pairs
    are dropped so the zero initial history washes out. Divergent runs
    (|b| exceeding 10, possible for unlucky drives) are regenerated from
    the generator's following draws, at most NARMA_ATTEMPTS times.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if warmup_discard < 0:
        raise ValueError("warmup_discard must be >= 0")
    total = warmup_discard + n
    for _ in range(NARMA_ATTEMPTS):
        s = rng.uniform(0.0, 0.5, total)
        # divergent drives overflow before the check rejects them
        with np.errstate(over="ignore", invalid="ignore"):
            b_next = narma10_response(s)
        if np.all(np.abs(b_next) <= NARMA_DIVERGENCE_LIMIT):
            return s[warmup_discard:], b_next[warmup_discard:]
    raise GenerationError(
        f"NARMA-10 diverged on {NARMA_ATTEMPTS} consecutive attempts")


def load_csv(path, column=0):
    """Read one column of a CSV file as a finite 1-d float array.

    ``column`` is a zero-based index or, when the file starts with a
    header row, a column name. Rows keep file order. Problems, a
    non-finite value among them, raise CsvLoadError carrying the
    offending row and column numbers (1-based file line numbers).
    """
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise CsvLoadError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise CsvLoadError(f"{path}: file is empty")

    def _is_number(cell):
        try:
            float(cell)
            return True
        except ValueError:
            return False

    has_header = any(not _is_number(cell) for cell in rows[0] if cell.strip())
    if isinstance(column, str):
        if not has_header:
            raise CsvLoadError(f"{path}: no header row to resolve column {column!r}")
        try:
            idx = rows[0].index(column)
        except ValueError:
            raise CsvLoadError(f"{path}: no column named {column!r}") from None
    else:
        idx = int(column)
    data_rows = rows[1:] if has_header else rows
    first_line = 2 if has_header else 1

    values = []
    for offset, row in enumerate(data_rows):
        lineno = first_line + offset
        if not row or all(not cell.strip() for cell in row):
            continue
        if idx >= len(row):
            raise CsvLoadError(f"{path}: row {lineno} has no column {idx}",
                               row=lineno, col=idx)
        cell = row[idx].strip()
        try:
            value = float(cell)
        except ValueError:
            raise CsvLoadError(
                f"{path}: unparseable value {cell!r} at row {lineno}, column {idx}",
                row=lineno, col=idx) from None
        if not np.isfinite(value):
            raise CsvLoadError(
                f"{path}: non-finite value {cell!r} at row {lineno}, column {idx}",
                row=lineno, col=idx)
        values.append(value)
    if not values:
        raise CsvLoadError(f"{path}: selected column is empty", col=idx)
    return np.array(values)


def save_series_csv(path, values, value_header="value"):
    """Write a series as a two-column CSV (t, value), repr-formatted."""
    values = np.asarray(values, dtype=float)
    lines = [f"t,{value_header}"]
    lines += [f"{t},{float(v)!r}" for t, v in enumerate(values)]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def lag_paired_series(inputs_series, targets_series, offsets):
    """Window pre-aligned (input(t), target(t)) pairs with input lags.

    Returns the (K, len(offsets)) inputs and the (K, 1) targets. Row k
    (at t = max(offsets) + k) has inputs [s(t - o) for o in offsets] and
    target y(t), keeping the original pair alignment; the first
    max(offsets) pairs are consumed by the lag window. A forecast of x
    h steps ahead pairs s = x[:-h] with y = x[h:].
    """
    s = np.asarray(inputs_series, dtype=float)
    y = np.asarray(targets_series, dtype=float)
    if s.shape[0] != y.shape[0]:
        raise DimensionError("input and target series must have equal length")
    offsets = list(offsets)
    lags = [int(o) for o in offsets]
    if not lags or lags != offsets or min(lags) < 0:
        raise ValueError(f"offsets must be non-empty nonnegative integers, got {offsets}")
    max_off = max(lags)
    n_rows = s.shape[0] - max_off
    if n_rows < 1:
        raise ValueError(
            f"series of length {s.shape[0]} is too short for offsets up to {max_off}")
    inputs = np.column_stack([s[max_off - o:max_off - o + n_rows] for o in lags])
    return inputs, y[max_off:][:, None]

