"""Discrete empirical interpolation: greedy index selection and the
interpolatory projector built from it.

Given m basis vectors (columns of V, typically leading singular vectors of a
snapshot matrix), the selection picks one interpolation index per vector:
the first index maximizes |v_1|; index ell maximizes the magnitude of the
residual between v_ell and its interpolation on the previously selected
rows.  Linear independence of the columns guarantees a nonzero residual at
every step, hence m distinct indexes.  The resulting approximation of a
vector f is V (P^T V)^{-1} P^T f: it matches f exactly on the selected rows
and its error is bounded by ||(P^T V)^{-1}||_2 times the best-approximation
residual of f in span(V).
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import instrumentation

__all__ = [
    "DependentColumnsError",
    "DeimInterpolant",
    "deim_indexes",
    "deim_interpolant",
    "deim_error_bound",
]

_RESIDUAL_FLOOR = 1e-13
_TIE_WINDOW = 1e-12


def _windowed_argmax(vec):
    # smallest index whose magnitude ties the maximum to within the window
    mag = np.abs(vec)
    top = mag.max()
    return int(np.argmax(mag >= top * (1.0 - _TIE_WINDOW)))


class DependentColumnsError(ValueError):
    """A basis column was numerically dependent on its predecessors."""


@dataclass(frozen=True)
class DeimInterpolant:
    """Interpolatory projector V (P^T V)^{-1} P^T for a fixed basis prefix.

    V is the (d, m) basis, with orthonormal columns in the intended use;
    indexes are the m selected rows; projector is the precomputed d-by-m
    matrix V (P^T V)^{-1}, which spans what V spans; inv_norm is
    ||(P^T V)^{-1}||_2, the stability factor of the error bound.
    """

    indexes: np.ndarray
    projector: np.ndarray
    inv_norm: float

    @property
    def d(self):
        return int(self.projector.shape[0])

    @property
    def m(self):
        return int(self.projector.shape[1])

    def apply(self, samples):
        """Approximate a vector from its values at the selected rows."""
        samples = np.asarray(samples, dtype=np.float64)
        if samples.shape[0] != self.m:
            raise ValueError(f"expected {self.m} samples, got {samples.shape}")
        return self.projector @ samples


def deim_indexes(v):
    """Greedy interpolation indexes for the columns of v, in selection order.

    Ties in the magnitude maximization resolve to the smallest index.  A tie
    means equality to within 1e-12 relative of the running maximum: inputs
    with structurally equal entries (symmetric meshes) reach this routine
    through different factorization paths whose last-bit noise would
    otherwise decide the winner arbitrarily.  Raises DependentColumnsError
    naming the offending column when a residual collapses below 1e-13
    relative to the column norm.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 2 or v.shape[1] == 0:
        raise ValueError(f"expected a (d, m) basis matrix, got shape {v.shape}")
    d, m = v.shape
    if m > d:
        raise ValueError(f"more columns ({m}) than rows ({d})")
    instrumentation.bump("deim_select_calls")
    indexes = np.empty(m, dtype=np.int64)
    indexes[0] = _windowed_argmax(v[:, 0])
    if np.abs(v[indexes[0], 0]) <= _RESIDUAL_FLOOR * np.linalg.norm(v[:, 0]) or not np.any(v[:, 0]):
        raise DependentColumnsError("column 0 is numerically zero")
    for ell in range(1, m):
        picked = indexes[:ell]
        coeff = np.linalg.solve(v[picked, :ell], v[picked, ell])
        residual = v[:, ell] - v[:, :ell] @ coeff
        norm_col = np.linalg.norm(v[:, ell])
        if np.linalg.norm(residual) <= _RESIDUAL_FLOOR * norm_col:
            raise DependentColumnsError(
                f"column {ell} is numerically dependent on columns 0..{ell - 1} "
                f"(residual {np.linalg.norm(residual):.3e} vs column norm {norm_col:.3e})"
            )
        indexes[ell] = _windowed_argmax(residual)
    return indexes


def deim_interpolant(v, m=None):
    """Build the interpolant for the first m columns of v."""
    v = np.asarray(v, dtype=np.float64)
    if m is None:
        m = v.shape[1]
    if not 0 < m <= v.shape[1]:
        raise ValueError(f"m={m} out of range for basis with {v.shape[1]} columns")
    basis = np.ascontiguousarray(v[:, :m])
    indexes = deim_indexes(basis)
    square = basis[indexes, :]
    projector = np.linalg.solve(square.T, basis.T).T
    sing = scipy.linalg.svdvals(square)
    inv_norm = float(1.0 / sing[-1])
    return DeimInterpolant(indexes=indexes, projector=projector, inv_norm=inv_norm)


def deim_error_bound(interp, f):
    """Upper bound on the 2-norm interpolation error for the vector f.

    Valid when the interpolant basis V has orthonormal columns: the bound is
    ||(P^T V)^{-1}||_2 * ||(I - V V^T) f||_2, V V^T from the projector's QR.
    """
    f = np.asarray(f, dtype=np.float64)
    if f.shape[0] != interp.d:
        raise ValueError(f"vector length {f.shape[0]} vs basis rows {interp.d}")
    q = np.linalg.qr(interp.projector)[0]
    residual = f - q @ (q.T @ f)
    return interp.inv_norm * float(np.linalg.norm(residual))
