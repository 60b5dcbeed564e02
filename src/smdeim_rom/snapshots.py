"""Sparsity patterns, gather/scatter between sparse matrices and packed
vectors, and the snapshot containers produced by full-order runs.

A pattern fixes, once per model, which (row, col) coordinates of the time
dependent Jacobian can ever hold a value.  Vectorizing only those coordinates
(column-major, exactly the order stored here) is what lets the matrix
interpolation work on r-vectors instead of n^2-vectors: gather is the
truncated-identity map, scatter is its transpose, and the two invert each
other on conforming inputs.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse

__all__ = [
    "PatternViolationError",
    "SparsityPattern",
    "SnapshotSet",
    "build_pattern",
    "pattern_union",
    "gather",
    "scatter",
]


class PatternViolationError(ValueError):
    """A matrix holds a stored entry outside the pattern."""


@dataclass(frozen=True)
class SparsityPattern:
    """Immutable set of admissible coordinates of an n-by-n sparse matrix.

    Coordinates are stored column-major sorted (by column, then row), which
    makes the linear index `col * n + row` strictly increasing.  All indexes
    are 0-based.
    """

    n: int
    rows: np.ndarray
    cols: np.ndarray

    def __post_init__(self):
        rows = np.ascontiguousarray(self.rows, dtype=np.int64)
        cols = np.ascontiguousarray(self.cols, dtype=np.int64)
        if rows.shape != cols.shape or rows.ndim != 1:
            raise ValueError("rows and cols must be 1-d arrays of equal length")
        if rows.size:
            if rows.min() < 0 or rows.max() >= self.n:
                raise ValueError("row index out of range")
            if cols.min() < 0 or cols.max() >= self.n:
                raise ValueError("column index out of range")
        lin = cols * self.n + rows
        if rows.size and np.any(np.diff(lin) <= 0):
            order = np.argsort(lin, kind="stable")
            lin = lin[order]
            if np.any(np.diff(lin) == 0):
                raise ValueError("duplicate coordinates in pattern")
            rows = rows[order]
            cols = cols[order]
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "_linear", lin)

    @property
    def r(self):
        return int(self.rows.size)

    @property
    def linear(self):
        """Column-major linear indexes, strictly increasing."""
        return self._linear

    def positions_of(self, rows, cols):
        """Positions of the given coordinates inside the pattern, -1 if absent."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        lin = cols * np.int64(self.n) + rows
        if self.r == 0:
            return np.full(lin.shape, -1, dtype=np.int64)
        pos = np.searchsorted(self._linear, lin).astype(np.int64)
        inside = pos < self.r
        hit = np.zeros(lin.shape, dtype=bool)
        hit[inside] = self._linear[pos[inside]] == lin[inside]
        return np.where(hit, pos, np.int64(-1))

    def __eq__(self, other):
        if not isinstance(other, SparsityPattern):
            return NotImplemented
        return (
            self.n == other.n
            and self.r == other.r
            and bool(np.array_equal(self._linear, other._linear))
        )


def build_pattern(mat):
    """Pattern of the stored entries of a square sparse matrix.

    Stored zeros count: the pattern is structural, not value based.
    """
    if mat.shape[0] != mat.shape[1]:
        raise ValueError(f"pattern requires a square matrix, got {mat.shape}")
    coo = mat.tocoo()
    # tocoo keeps explicitly stored zeros, which is what we want
    rows = coo.row.astype(np.int64)
    cols = coo.col.astype(np.int64)
    lin = cols * np.int64(mat.shape[0]) + rows
    order = np.argsort(lin, kind="stable")
    lin_sorted = lin[order]
    if lin_sorted.size and np.any(np.diff(lin_sorted) == 0):
        keep = np.concatenate(([True], np.diff(lin_sorted) != 0))
        order = order[keep]
    return SparsityPattern(n=mat.shape[0], rows=rows[order], cols=cols[order])


def pattern_union(a, b):
    """Union of two patterns over the same dimension."""
    if a.n != b.n:
        raise ValueError(f"dimension mismatch: {a.n} vs {b.n}")
    lin = np.union1d(a.linear, b.linear)
    n = np.int64(a.n)
    return SparsityPattern(n=a.n, rows=(lin % n), cols=(lin // n))


def gather(mat, pattern):
    """Pack the entries of `mat` at the pattern coordinates into an r-vector.

    Coordinates the matrix does not store come back as 0.  A stored entry
    outside the pattern raises PatternViolationError naming the coordinate.
    """
    if mat.shape != (pattern.n, pattern.n):
        raise ValueError(f"matrix shape {mat.shape} vs pattern dimension {pattern.n}")
    coo = mat.tocoo()
    lin = coo.col.astype(np.int64) * np.int64(pattern.n) + coo.row.astype(np.int64)
    pos = pattern.positions_of(coo.row, coo.col)
    missing = pos < 0
    if np.any(missing):
        k = int(np.argmax(missing))
        raise PatternViolationError(
            f"stored entry at (row={int(coo.row[k])}, col={int(coo.col[k])}) "
            "is outside the pattern"
        )
    out = np.zeros(pattern.r, dtype=np.float64)
    # duplicate coordinates in an unconsolidated COO sum, matching sparse semantics
    np.add.at(out, pos, coo.data.astype(np.float64))
    return out


def scatter(values, pattern):
    """Inverse of gather: spread an r-vector onto the pattern coordinates."""
    values = np.asarray(values, dtype=np.float64)
    if values.shape != (pattern.r,):
        raise ValueError(f"expected {pattern.r} values, got shape {values.shape}")
    return scipy.sparse.csr_matrix(
        (values.copy(), (pattern.rows, pattern.cols)), shape=(pattern.n, pattern.n)
    )


@dataclass
class SnapshotSet:
    """Trajectory data recorded for one implicit stage of a full-order run.

    states and nonlinear are (n, n_cols); jacobian holds the gathered stage
    Jacobian values, (r, n_cols), aligned with `pattern`.  dt is the full
    step size of the run that produced the data.
    """

    model_id: str
    config_hash: str
    stage: str
    dt: float
    pattern: SparsityPattern
    states: np.ndarray
    nonlinear: np.ndarray
    jacobian: np.ndarray
    meta: dict = field(default_factory=dict)

    @property
    def n(self):
        return int(self.states.shape[0])

    @property
    def n_cols(self):
        return int(self.states.shape[1])

    def validate(self):
        n, n_cols = self.states.shape
        if self.nonlinear.shape != (n, n_cols):
            raise ValueError("nonlinear block shape mismatch")
        if self.jacobian.shape != (self.pattern.r, n_cols):
            raise ValueError("jacobian block shape mismatch")
        if self.pattern.n != n:
            raise ValueError("pattern dimension mismatch")
        for name, block in (
            ("states", self.states),
            ("nonlinear", self.nonlinear),
            ("jacobian", self.jacobian),
        ):
            if not np.all(np.isfinite(block)):
                raise ValueError(f"non-finite values in {name} block")
        return self
