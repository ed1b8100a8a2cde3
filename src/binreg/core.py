"""Data model for binary regression: validated datasets, group statistics,
and the standardized, intercept-extended design matrix with a numerical
rank check.
"""

from __future__ import annotations

import csv
import functools
import math
import warnings
from dataclasses import dataclass
from typing import Iterable, Sequence, Tuple, Union

import numpy as np


class BinregError(Exception):
    """Base class for all errors raised by this package."""


class NonBinaryLabel(BinregError):
    """A response value was not 0 or 1."""


class EmptyGroup(BinregError):
    """One of the label groups is empty; group statistics are undefined."""


class DimensionMismatch(BinregError):
    """Predictor rows do not share a common dimension."""


class NonFiniteValue(BinregError):
    """A predictor entry was NaN or infinite."""


class CsvFormatError(BinregError):
    """A CSV cell could not be parsed; message carries row/column indices."""


@dataclass(frozen=True)
class Dataset:
    """Immutable rows (x_i in R^d, y_i in {0,1}) with validated group counts.

    Both label groups are guaranteed nonempty and every predictor entry is
    finite. Arrays are read-only; instances are safe to share across threads.
    """

    x: np.ndarray
    y: np.ndarray
    n0: int
    n1: int

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[1]


@dataclass(frozen=True)
class GroupStats:
    """Per-group predictor means and their difference (group 1 minus group 0)."""

    xbar0: np.ndarray
    xbar1: np.ndarray
    delta: np.ndarray


# Singular values of the standardized design below RANK_TOLERANCE times the
# largest count as zero.
RANK_TOLERANCE = 1e-10


@dataclass(frozen=True, eq=False)
class DesignMatrix:
    """The one design of a dataset: ``xt = [1 | (x - center) / spread]``, the
    intercept column followed by the predictors standardized column by
    column, with the raw predictors ``x`` it was built from.

    The overlap verdict, the rank check and Newton all run on ``xt``; the
    verdict and the rank are invariant under the affine map, and offsets and
    scales no longer reach the solvers. ``to_raw`` and ``to_standardized``
    map a coefficient vector between the two coordinates. The singular
    values are computed on first read, so a caller that never asks for the
    rank takes no SVD. rank_ok is True iff the numerical rank equals d+1
    (which requires n >= d+1). Rank deficiency is reported, never raised.
    """

    x: np.ndarray
    xt: np.ndarray
    center: np.ndarray
    spread: np.ndarray

    @functools.cached_property
    def singular_values(self) -> np.ndarray:
        return np.linalg.svd(self.xt, compute_uv=False)

    @property
    def rank(self) -> int:
        sv = self.singular_values
        return int(np.sum(sv > RANK_TOLERANCE * sv[0])) if sv[0] > 0 else 0

    @property
    def rank_ok(self) -> bool:
        return self.rank == self.xt.shape[1]

    def to_raw(self, theta: np.ndarray) -> np.ndarray:
        """theta0 + theta'[1 | (x - center) / spread] written as alpha + beta'x:
        the vector (alpha, beta)."""
        slope = theta[1:] / self.spread
        return np.concatenate([[theta[0] - self.center @ slope], slope])

    def to_standardized(self, gamma: np.ndarray) -> np.ndarray:
        """gamma0 + gamma1'x written in the standardized predictors."""
        return np.concatenate([[gamma[0] + gamma[1:] @ self.center], self.spread * gamma[1:]])


Row = Tuple[Union[float, Sequence[float], np.ndarray], Union[int, float]]


def _as_vector(value) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(value, dtype=float))
    if arr.ndim != 1:
        raise DimensionMismatch(f"predictor must be a scalar or 1-d vector, got shape {arr.shape}")
    return arr


def _check_label(raw) -> int:
    # Accept ints and exact 0.0/1.0 reals; anything else is a data error.
    if isinstance(raw, bool):
        return int(raw)
    if isinstance(raw, (int, np.integer)):
        val = int(raw)
    elif isinstance(raw, (float, np.floating)):
        if raw != 0.0 and raw != 1.0:
            raise NonBinaryLabel(f"label {raw!r} is not 0 or 1")
        val = int(raw)
    else:
        raise NonBinaryLabel(f"label {raw!r} is not 0 or 1")
    if val not in (0, 1):
        raise NonBinaryLabel(f"label {raw!r} is not 0 or 1")
    return val


def dataset_from_arrays(x: np.ndarray, y: np.ndarray) -> Dataset:
    """Validate raw arrays and freeze them into a Dataset."""
    x = np.array(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2 or x.shape[0] == 0 or x.shape[1] == 0:
        raise DimensionMismatch(f"predictor matrix has invalid shape {x.shape}")
    if not np.all(np.isfinite(x)):
        bad = np.argwhere(~np.isfinite(x))[0]
        raise NonFiniteValue(f"non-finite predictor at row {bad[0]}, column {bad[1]}")
    y_arr = np.asarray(y)
    if y_arr.shape != (x.shape[0],):
        raise DimensionMismatch(
            f"labels have shape {y_arr.shape}, expected ({x.shape[0]},)")
    if y_arr.dtype.kind in "biuf":
        binary = (y_arr == 0) | (y_arr == 1)
        if not binary.all():
            _check_label(y_arr[np.argmin(binary)].item())  # raises
        labels = y_arr.astype(np.int64)
    else:
        labels = np.array([_check_label(v) for v in y_arr.tolist()], dtype=np.int64)
    n1 = int(labels.sum())
    n0 = labels.size - n1
    if n0 == 0 or n1 == 0:
        raise EmptyGroup(f"need observations in both groups, got n0={n0}, n1={n1}")
    x.setflags(write=False)
    labels.setflags(write=False)
    return Dataset(x=x, y=labels, n0=n0, n1=n1)


def build_dataset(rows: Iterable[Row]) -> Dataset:
    """Build a validated Dataset from (predictor, label) pairs.

    Predictors may be scalars (d=1) or vectors of a common dimension.
    """
    rows = list(rows)
    if not rows:
        raise DimensionMismatch("empty input")
    xs = []
    ys = []
    for vec, label in rows:
        xs.append(_as_vector(vec))
        ys.append(label)
    d = xs[0].size
    for i, v in enumerate(xs):
        if v.size != d:
            raise DimensionMismatch(f"row {i} has dimension {v.size}, expected {d}")
    return dataset_from_arrays(np.vstack(xs), np.asarray(ys, dtype=object))


def _column_means(x: np.ndarray) -> np.ndarray:
    # fsum gives compensated summation so the balanced-means identity holds
    # to machine precision even at n in the thousands
    return np.array([math.fsum(x[:, j]) / x.shape[0] for j in range(x.shape[1])])


def group_stats(ds: Dataset) -> GroupStats:
    """Exact per-group means; delta = xbar1 - xbar0 componentwise."""
    mask1 = ds.y == 1
    xbar0 = _column_means(ds.x[~mask1])
    xbar1 = _column_means(ds.x[mask1])
    delta = xbar1 - xbar0
    for arr in (xbar0, xbar1, delta):
        arr.setflags(write=False)
    return GroupStats(xbar0=xbar0, xbar1=xbar1, delta=delta)


def _with_intercept(x: np.ndarray) -> np.ndarray:
    """The n x (d+1) design [1 | x]."""
    return np.column_stack([np.ones(x.shape[0]), x])


def _standardize(x: np.ndarray):
    """(x - center) / spread column by column, spread the max-abs deviation."""
    center = x.mean(axis=0)
    xs = x - center
    # column by column: numpy's max over axis 0 of a tall, narrow array is
    # several times slower than d passes over its columns
    spread = np.array([np.abs(col).max() for col in xs.T])
    spread[spread == 0.0] = 1.0
    xs /= spread
    return xs, center, spread


def extended_design(ds: Dataset) -> DesignMatrix:
    """Standardize the predictors and prepend the intercept column.

    The rank is computed on first read of ``rank``, ``rank_ok`` or
    ``singular_values``; callers decide what to do about rank deficiency.
    """
    xs, center, spread = _standardize(ds.x)
    xt = _with_intercept(xs)
    for arr in (xt, center, spread):
        arr.setflags(write=False)
    return DesignMatrix(x=ds.x, xt=xt, center=center, spread=spread)


def _parse_cells(reader, header: Sequence[str], y_col: int) -> np.ndarray:
    """Parse the data records one cell at a time with ``float``.

    Raises CsvFormatError for a ragged row or a cell ``float`` rejects, and
    NonFiniteValue for a NaN or infinite predictor, naming the file row
    (header = row 0, blank lines counted), the column and its header name.
    A bad cell anywhere takes precedence over a non-finite one.
    """
    rows = []
    non_finite = None
    for r, record in enumerate(reader, start=1):
        if not record:  # blank line
            continue
        if len(record) != len(header):
            raise CsvFormatError(f"row {r} has {len(record)} cells, expected {len(header)}")
        vals = []
        for c, cell in enumerate(record):
            try:
                vals.append(float(cell))
            except ValueError:
                raise CsvFormatError(
                    f"non-numeric cell at row {r}, column {c} ({header[c]!r}): {cell!r}"
                ) from None
            if non_finite is None and c != y_col and not math.isfinite(vals[-1]):
                non_finite = (
                    f"non-finite predictor at row {r}, column {c} ({header[c]!r}): {cell!r}")
        rows.append(vals)
    if not rows:
        raise CsvFormatError("no data rows")
    if non_finite is not None:
        raise NonFiniteValue(non_finite)
    return np.asarray(rows, dtype=float)


def read_csv(path) -> Dataset:
    """Load a dataset from CSV: header required, one column named 'y' with
    0/1 values, all other columns numeric predictors in header order.
    Blank lines are skipped; row numbers in errors count file rows.

    The data records are parsed in one call to numpy's C text reader.
    Whenever it fails (a bad cell, a ragged row, a cell ``float`` accepts
    but numpy does not, such as ``1_000``), finds no rows or returns a
    non-finite predictor, the records are parsed again one cell at a time
    with ``float``, which either names the failing row, column and header
    or returns the values ``float`` gives. A non-finite label is left to
    ``dataset_from_arrays``, which raises NonBinaryLabel.
    """
    with open(path, newline="") as fh:
        # readline, not iteration, so that fh.tell() marks the first data row
        try:
            header = next(csv.reader(iter(fh.readline, "")))
        except StopIteration:
            raise CsvFormatError("empty file: header row required") from None
        header = [h.strip() for h in header]
        if header.count("y") != 1:
            raise CsvFormatError("header must contain exactly one column named 'y'")
        y_col = header.index("y")
        body = fh.tell()
        try:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                        UserWarning)
                data = np.loadtxt(fh, delimiter=",", comments=None, quotechar='"',
                                  ndmin=2, dtype=float)
        except ValueError:
            data = None
        if (data is None or data.shape[0] == 0 or data.shape[1] != len(header)
                or not np.isfinite(data).all()):
            fh.seek(body)
            data = _parse_cells(csv.reader(fh), header, y_col)
    y_raw = data[:, y_col]
    x = np.delete(data, y_col, axis=1)
    if x.shape[1] == 0:
        raise CsvFormatError("no predictor columns besides 'y'")
    return dataset_from_arrays(x, y_raw)
