"""Dense linear algebra kernels shared by the reduction stack.

Thin wrappers over LAPACK (via numpy/scipy) pinned to the conventions the
rest of the package depends on:

* all floating point work is IEEE double precision;
* singular vectors carry a deterministic sign, so index selections built on
  them are reproducible run to run;
* failures raise diagnostic errors instead of returning poisoned arrays.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import instrumentation

__all__ = [
    "SvdResult",
    "SvdConvergenceError",
    "SingularMatrixError",
    "thin_svd",
    "solve_dense",
]

# Relative magnitude below which a leading singular-vector entry is treated
# as zero by the sign convention.  Large enough to skip round-off fill-in
# (O(1e-17) entries in structurally zero rows), small enough to never skip a
# genuine entry.
_SIGN_TOL = 1e-12


class SvdConvergenceError(np.linalg.LinAlgError):
    """The iterative SVD driver failed to converge."""


class SingularMatrixError(np.linalg.LinAlgError):
    """A pivot collapsed during dense LU elimination."""

    def __init__(self, pivot_index, pivot_value, scale):
        self.pivot_index = pivot_index
        self.pivot_value = pivot_value
        super().__init__(
            f"singular system: pivot {pivot_index} has magnitude "
            f"{abs(pivot_value):.3e} (threshold {scale:.3e})"
        )


@dataclass(frozen=True)
class SvdResult:
    """Thin SVD a = u @ diag(singulars) @ w.T with orthonormal u, w columns."""

    u: np.ndarray
    singulars: np.ndarray
    w: np.ndarray

    @property
    def rank(self):
        """Numerical rank: singular values above max(shape)*eps relative cut."""
        if self.singulars.size == 0 or self.singulars[0] == 0.0:
            return 0
        m = self.u.shape[0]
        n = self.w.shape[0]
        cut = max(m, n) * np.finfo(np.float64).eps * self.singulars[0]
        return int(np.count_nonzero(self.singulars > cut))


def _apply_sign_convention(u, w):
    # First entry of each left vector whose magnitude clears a relative
    # threshold is made nonnegative; the paired right vector flips with it so
    # the product is unchanged.
    absu = np.abs(u)
    colmax = absu.max(axis=0)
    mask = absu > _SIGN_TOL * colmax[None, :]
    first = mask.argmax(axis=0)
    lead = u[first, np.arange(u.shape[1])]
    flip = lead < 0.0
    if np.any(flip):
        u[:, flip] *= -1.0
        w[:, flip] *= -1.0
    return u, w


def thin_svd(a, overwrite_a=False):
    """Economy-size SVD with a deterministic sign convention.

    Parameters
    ----------
    a : (m, s) array_like
        Matrix to factor; converted to float64.
    overwrite_a : bool
        Allow the driver to destroy `a`, halving peak memory for tall inputs.

    Returns
    -------
    SvdResult
        u is (m, min(m, s)), singulars descending, w is (s, min(m, s)),
        and a == u @ diag(singulars) @ w.T.

    Raises
    ------
    SvdConvergenceError
        If neither LAPACK driver converges; the message names the block shape.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"thin_svd expects a matrix, got ndim={a.ndim}")
    instrumentation.bump("thin_svd_calls")
    try:
        u, s, vt = scipy.linalg.svd(
            a, full_matrices=False, overwrite_a=overwrite_a, lapack_driver="gesdd"
        )
    except np.linalg.LinAlgError:
        try:
            u, s, vt = scipy.linalg.svd(
                a, full_matrices=False, overwrite_a=False, lapack_driver="gesvd"
            )
        except np.linalg.LinAlgError as exc:
            raise SvdConvergenceError(
                f"SVD failed to converge on a {a.shape[0]}x{a.shape[1]} block "
                f"(columns 0..{a.shape[1] - 1})"
            ) from exc
    u, w = _apply_sign_convention(u, vt.T.copy())
    return SvdResult(u=u, singulars=s, w=w)


def solve_dense(a, b):
    """Solve a @ x = b by LU with partial pivoting.

    Raises SingularMatrixError naming the failing pivot when any |U_ii| falls
    at or below 1e-14 times the Frobenius norm of `a`.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"solve_dense expects a square matrix, got {a.shape}")
    if b.shape[0] != a.shape[0]:
        raise ValueError(f"shape mismatch: a is {a.shape}, b is {b.shape}")
    lu, piv = scipy.linalg.lu_factor(a, check_finite=False)
    diag = np.abs(np.diag(lu))
    scale = 1e-14 * float(np.linalg.norm(a))
    worst = int(np.argmin(diag))
    if diag[worst] <= scale:
        raise SingularMatrixError(worst, lu[worst, worst], scale)
    return scipy.linalg.lu_solve((lu, piv), b, check_finite=False)
