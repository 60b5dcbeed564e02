"""Interpolation of time-dependent sparse Jacobians from snapshots.

Two construction routes share one application form.

The sparse route factors only the r-row matrix of Jacobian values gathered
at the structural pattern coordinates.  Padding its left singular vectors
with zeros at the off-pattern coordinates gives a valid thin SVD of the full
vectorized snapshot matrix (the padded columns stay orthonormal and the
products are untouched), so the greedy index selection can run directly on
the small dense factors and every selected index maps to a pattern
coordinate.

The vectorized reference route materializes the full n^2-row snapshot matrix
and factors it by QR.  It exists as an oracle: mathematically it selects
the same leading indexes, but its singular vectors pick up round-off fill-in
at structurally zero coordinates and its cost scales with n^2, which is why
it is kept behind a memory guard.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .deim import DeimInterpolant, deim_interpolant
from .linalg import leading_svd, thin_svd
from .snapshots import SparsityPattern, scatter

__all__ = [
    "DEFAULT_GUARD",
    "MemoryGuardError",
    "RankError",
    "MatrixInterpolant",
    "check_rank",
    "guard_limit",
    "build_smdeim",
    "build_mdeim_reference",
    "approximate_matrix",
    "verify_lemma2",
    "Lemma2Report",
]

DEFAULT_GUARD = 512


class MemoryGuardError(RuntimeError):
    """The vectorized reference route was asked to exceed its memory guard."""


class RankError(ValueError):
    """Requested more modes than the snapshot matrix numerically supports."""


def guard_limit(override=None):
    """Dimension cap for the vectorized route: override when given, else
    DEFAULT_GUARD."""
    return DEFAULT_GUARD if override is None else int(override)


@dataclass(frozen=True)
class MatrixInterpolant:
    """Snapshot-trained interpolant of a matrix-valued function of state.

    mode is "sparse" (gathered, r-dimensional) or "vectorized" (full n^2
    reference).  sample_rows/sample_cols are the matrix coordinates whose
    values must be supplied to apply the interpolant; for the sparse mode
    they always lie inside the pattern.
    """

    mode: str
    pattern: SparsityPattern
    interp: DeimInterpolant
    sample_rows: np.ndarray
    sample_cols: np.ndarray
    singulars: np.ndarray

    @property
    def m(self):
        return self.interp.m

    @property
    def n(self):
        return self.pattern.n


def check_rank(svd, m, what):
    """Raise RankError when m exceeds the numerical rank of a factored
    snapshot matrix; what names the matrix."""
    if m > svd.rank:
        raise RankError(
            f"m={m} exceeds the numerical rank {svd.rank} of the {what} "
            f"snapshot matrix"
        )


def build_smdeim(snap, m, svd=None, pattern=None):
    """Interpolant over the gathered pattern coordinates (the fast route).

    svd and pattern, when given, stand in for what snap holds: svd is
    thin_svd(snap.jacobian), already computed, or that with only its
    leading columns (at least m), and pattern is snap.pattern.  With both,
    snap is not read and may be None.
    """
    if svd is None:
        svd = thin_svd(snap.jacobian)
    if pattern is None:
        pattern = snap.pattern
    check_rank(svd, m, "gathered")
    interp = deim_interpolant(svd.u, m)
    return MatrixInterpolant(
        mode="sparse",
        pattern=pattern,
        interp=interp,
        sample_rows=pattern.rows[interp.indexes].copy(),
        sample_cols=pattern.cols[interp.indexes].copy(),
        singulars=svd.singulars,
    )


def _check_guard(n, guard_n, nbytes, route):
    """Refuse a vectorized route whose dimension exceeds the guard; the
    error names the bytes of n^2-row arrays the route would hold."""
    limit = guard_limit(guard_n)
    if n > limit:
        raise MemoryGuardError(
            f"dimension {n} exceeds the vectorized-route guard {limit}: "
            f"{route} would hold {nbytes} bytes ({nbytes / 2**20:.1f} MiB) "
            "of n^2-row arrays; pass guard_n (config key guard.n) to override"
        )


def _vectorized(snap, order):
    """The (n^2, n_s) snapshot matrix: gathered values, zeros off the
    pattern, in the given memory order."""
    n = snap.pattern.n
    full = np.zeros((n * n, snap.n_cols), dtype=np.float64, order=order)
    full[snap.pattern.linear, :] = snap.jacobian
    return full


def build_mdeim_reference(snap, m, guard_n=None):
    """Interpolant built from explicitly vectorized n^2-row snapshots.

    Reference/oracle route: memory and cost scale with n^2, so dimensions
    above the guard (default 512, guard_n to override)
    are refused.  The padded matrix is built in Fortran order and
    `leading_svd` factors it in place (QR, the SVD of R, then only the m
    left vectors the selection reads): the route holds the padded matrix
    and those m vectors at its peak, 8 n^2 (n_s + m) bytes of n^2-row
    arrays, plus O(n_s^2) for the SVD of the n_s-by-n_s R (about
    6 * 8 n_s^2 bytes: its copy, factors and gesdd workspace).  The
    interpolant's n^2-by-m projector, which it keeps, and the copy of the m
    vectors it is solved from are built once the padded matrix is freed.
    """
    n = snap.pattern.n
    _check_guard(n, guard_n, 8 * n * n * (snap.n_cols + m), "build_mdeim_reference")
    svd = leading_svd(_vectorized(snap, "F"), m)
    check_rank(svd, m, "vectorized")
    interp = deim_interpolant(svd.u, m)
    lin = interp.indexes.astype(np.int64)
    return MatrixInterpolant(
        mode="vectorized",
        pattern=snap.pattern,
        interp=interp,
        sample_rows=(lin % n),
        sample_cols=(lin // n),
        singulars=svd.singulars,
    )


def approximate_matrix(mi, samples):
    """Reconstruct the full sparse matrix from values at the sample coords."""
    vec = mi.interp.apply(samples)
    if mi.mode == "sparse":
        return scatter(vec, mi.pattern)
    dense = vec.reshape((mi.n, mi.n), order="F")
    return scipy.sparse.csr_matrix(dense)


@dataclass(frozen=True)
class Lemma2Report:
    """Result of checking the padded factorization against the full matrix."""

    reconstruction_residual: float
    orthonormality_deviation: float


def verify_lemma2(snap, guard_n=None):
    """Check that padding the gathered SVD factors reproduces the full
    vectorized snapshot matrix.

    Returns a Lemma2Report with the max relative reconstruction residual
    (Frobenius) and the worst deviation of the padded columns from
    orthonormality.  Materializes the n^2-row matrix, hence guarded: it
    holds the padded snapshots, the padded left factor and the
    reconstruction, 8 n^2 (2 n_s + min(r, n_s)) bytes.
    """
    n = snap.pattern.n
    k = min(snap.pattern.r, snap.n_cols)
    _check_guard(n, guard_n, 8 * n * n * (2 * snap.n_cols + k), "verify_lemma2")
    full = _vectorized(snap, "C")
    svd = thin_svd(snap.jacobian)
    padded = np.zeros((n * n, svd.u.shape[1]), dtype=np.float64)
    padded[snap.pattern.linear, :] = svd.u
    recon = padded @ (svd.singulars[:, None] * svd.w.T)
    denom = float(np.linalg.norm(full))
    if denom == 0.0:
        raise ValueError("vectorized snapshot matrix is zero")
    recon -= full
    residual = float(np.linalg.norm(recon)) / denom
    gram = padded.T @ padded
    ortho = float(np.max(np.abs(gram - np.eye(gram.shape[0]))))
    return Lemma2Report(reconstruction_residual=residual, orthonormality_deviation=ortho)

