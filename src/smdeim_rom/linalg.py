"""Linear algebra kernels shared by the reduction stack.

Thin wrappers over LAPACK and ARPACK (via numpy/scipy) pinned to the
conventions the rest of the package depends on:

* all floating point work is IEEE double precision;
* singular vectors carry a deterministic sign, so index selections built on
  them are reproducible run to run;
* iterative solvers start from a fixed vector, so their results are the
  same bits on every run;
* failures raise diagnostic errors instead of returning poisoned arrays.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.linalg.lapack
import scipy.sparse
import scipy.sparse.linalg

from . import instrumentation

__all__ = [
    "SvdResult",
    "SvdConvergenceError",
    "SingularMatrixError",
    "BandTooWideError",
    "BandTemplate",
    "BAND_LIMIT",
    "thin_svd",
    "leading_svd",
    "leading_singular_value",
    "solve_dense",
]

# Relative magnitude below which a leading singular-vector entry is treated
# as zero by the sign convention.  Large enough to skip round-off fill-in
# (O(1e-17) entries in structurally zero rows), small enough to never skip a
# genuine entry.
_SIGN_TOL = 1e-12

# Rows of u searched at a time for each column's leading entry.
_SIGN_BLOCK_ROWS = 64

# Seed of the Lanczos starting vector in leading_singular_value.
_LANCZOS_SEED = 20140101

# LAPACK routines of leading_svd, solve_dense and BandTemplate, looked up once
_gesv = scipy.linalg.lapack.dgesv
_gbsv = scipy.linalg.lapack.dgbsv
_ormqr = scipy.linalg.lapack.dormqr

# Widest half-bandwidth max(kl, ku) that BandTemplate accepts.  On 5-point
# grid matrices (n = 8000 to 37000) ordered by reverse Cuthill-McKee,
# filling the band and one dgbsv call took 0.12-0.26x the time of a
# SuperLU factorization and solve up to half-bandwidth 33, 0.44x at 65,
# 0.79x at 128 and broke even near 150 (1 BLAS thread, 2 vCPU).
BAND_LIMIT = 128


class SvdConvergenceError(np.linalg.LinAlgError):
    """The iterative SVD driver failed to converge."""


class SingularMatrixError(np.linalg.LinAlgError):
    """A pivot collapsed (or turned non-finite) during LU elimination."""

    def __init__(self, pivot_index, pivot_value, scale):
        self.pivot_index = pivot_index
        self.pivot_value = pivot_value
        super().__init__(
            f"singular system: pivot {pivot_index} has magnitude "
            f"{abs(pivot_value):.3e} (threshold {scale:.3e})"
        )


class BandTooWideError(ValueError):
    """A sparsity pattern's ordered band is too wide for a banded LU."""

    def __init__(self, kl, ku, n):
        self.kl = kl
        self.ku = ku
        self.n = n
        super().__init__(
            f"the {n}x{n} pattern orders to a band with kl={kl}, ku={ku}; "
            f"a banded LU takes half-bandwidths up to {BAND_LIMIT}"
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
    # the product is unchanged.  The entry is searched for in blocks of rows,
    # stopping once every column has one, and flagged columns are negated in
    # place, so no temporary the size of u is made.
    k = u.shape[1]
    cut = _SIGN_TOL * np.maximum(u.max(axis=0), -u.min(axis=0))
    first = np.zeros(k, dtype=np.intp)
    todo = np.arange(k)
    for a in range(0, u.shape[0], _SIGN_BLOCK_ROWS):
        if todo.size == 0:
            break
        hit = np.abs(u[a:a + _SIGN_BLOCK_ROWS, todo]) > cut[todo]
        found = hit.any(axis=0)
        first[todo[found]] = a + hit[:, found].argmax(axis=0)
        todo = todo[~found]
    for j in np.flatnonzero(u[first, np.arange(k)] < 0.0):
        u[:, j] *= -1.0
        w[:, j] *= -1.0
    return u, w


def _factor(a, what):
    """Signed thin SVD of a float64 matrix: gesdd, or gesvd on the intact
    input when gesdd fails.  what names the matrix in the error."""
    try:
        u, s, vt = scipy.linalg.svd(a, full_matrices=False, lapack_driver="gesdd")
    except np.linalg.LinAlgError:
        try:
            u, s, vt = scipy.linalg.svd(a, full_matrices=False, lapack_driver="gesvd")
        except np.linalg.LinAlgError as exc:
            raise SvdConvergenceError(f"SVD failed to converge on {what}") from exc
    u, w = _apply_sign_convention(u, vt.T.copy())
    return SvdResult(u=u, singulars=s, w=w)


def thin_svd(a):
    """Economy-size SVD with a deterministic sign convention.

    Parameters
    ----------
    a : (m, s) array_like
        Matrix to factor; converted to float64 and left intact.

    Returns
    -------
    SvdResult
        u is (m, min(m, s)), singulars descending, w is (s, min(m, s)),
        and a == u @ diag(singulars) @ w.T.

    Raises
    ------
    SvdConvergenceError
        If neither gesdd nor the gesvd retry converges; the message names
        the block shape.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"thin_svd expects a matrix, got ndim={a.ndim}")
    instrumentation.bump("thin_svd_calls")
    return _factor(a, f"a {a.shape[0]}x{a.shape[1]} block (columns 0..{a.shape[1] - 1})")


def leading_svd(a, m):
    """Thin SVD of a (p, s) matrix with only its leading m left vectors formed.

    For p >= s this is the R-SVD (Chan, ACM TOMS 8(1), 1982), the steps
    gesdd takes on a tall matrix: a Householder QR a = Q R in place,
    `thin_svd`'s factorization of the (s, s) triangle R, then
    u = Q @ u_R[:, :m] by LAPACK ormqr, signed again by the convention.  A
    Fortran-ordered float64 `a` is consumed; any other input is copied
    first.  A wide matrix is factored directly.  u and w hold min(m, p, s)
    columns, singulars all min(p, s) values; thin_svd_calls is not bumped.

    Raises SvdConvergenceError, naming the shape, when neither gesdd nor
    the gesvd retry converges on R (on `a` when it is wide).
    """
    a = np.asarray(a, dtype=np.float64)
    rows, cols = a.shape
    what = f"a {rows}x{cols} matrix"
    if rows < cols:
        svd = _factor(a, what)
        return SvdResult(u=svd.u[:, :m], singulars=svd.singulars, w=svd.w[:, :m])
    (qr, tau), r = scipy.linalg.qr(a, overwrite_a=True, mode="raw", check_finite=False)
    svd = _factor(r, f"the triangular factor of {what}")
    c = np.zeros((rows, min(m, cols)), dtype=np.float64, order="F")
    c[:cols] = svd.u[:, :m]
    lwork = int(_ormqr("L", "N", qr, tau, c, -1, overwrite_c=1)[1][0])
    u = _ormqr("L", "N", qr, tau, c, lwork, overwrite_c=1)[0]
    u, w = _apply_sign_convention(u, svd.w[:, :m].copy())
    return SvdResult(u=u, singulars=svd.singulars, w=w)


def leading_singular_value(a):
    """Largest singular value of a sparse matrix or operator, by Lanczos.

    ARPACK (through scipy.sparse.linalg.svds) runs to machine precision from
    a seeded starting vector, so the same input gives the same bits on
    every call.  Only products with a and its transpose are taken; no dense
    copy of a is made.

    Parameters
    ----------
    a : sparse matrix, ndarray or scipy.sparse.linalg.LinearOperator
        Needs products with the matrix and with its transpose.

    Raises
    ------
    SvdConvergenceError
        If the Lanczos iteration does not converge; names the shape.
    """
    v0 = np.random.default_rng(_LANCZOS_SEED).standard_normal(min(a.shape))
    try:
        s = scipy.sparse.linalg.svds(
            a, k=1, tol=0, v0=v0, return_singular_vectors=False
        )
    except scipy.sparse.linalg.ArpackNoConvergence as exc:
        raise SvdConvergenceError(
            f"Lanczos iteration for the leading singular value failed to "
            f"converge on a {a.shape[0]}x{a.shape[1]} matrix"
        ) from exc
    return float(s[0])


def solve_dense(a, b):
    """Solve a @ x = b by LU with partial pivoting.

    One LAPACK gesv call (getrf, then getrs: the same routines, hence the
    same bits, as scipy.linalg.lu_factor followed by lu_solve).  b may be a
    vector or a matrix of right-hand sides.  Non-finite input is passed
    through to the result.

    Raises SingularMatrixError naming the failing pivot when any |U_ii| falls
    at or below 1e-14 times the Frobenius norm of `a`.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"solve_dense expects a square matrix, got {a.shape}")
    if b.shape[0] != a.shape[0]:
        raise ValueError(f"shape mismatch: a is {a.shape}, b is {b.shape}")
    lu, _, x, info = _gesv(a, b)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK gesv")
    diag = np.abs(lu.diagonal())
    scale = 1e-14 * float(np.linalg.norm(a))
    worst = int(diag.argmin())
    if diag[worst] <= scale:
        raise SingularMatrixError(worst, lu[worst, worst], scale)
    if info > 0:
        # gesv skips the solve after an exactly zero pivot; a finite `a`
        # fails the pivot check first, so only non-finite input gets here
        x.fill(np.nan)
    return x


class BandTemplate:
    """Solves (I - c A) x = b for A stored at one fixed sparsity pattern.

    All the symbolic work is done once, at construction: a reverse
    Cuthill-McKee ordering of the pattern with the diagonal, the lower and
    upper half-bandwidths kl and ku of the reordered matrix, and the flat
    slots of the pattern entries and of the diagonal in LAPACK band storage.
    Each `solve` then writes -(c * values) into a zeroed band, adds 1 on the
    diagonal (the same arithmetic as I - c A, so the same matrix entries),
    permutes b, calls LAPACK gbsv once and scatters the solution back.

    Raises BandTooWideError, naming kl, ku and n, when max(kl, ku) exceeds
    BAND_LIMIT.
    """

    def __init__(self, n, rows, cols):
        # imported here: csgraph adds about 20 ms to importing the package,
        # and only the full-order solver needs it
        from scipy.sparse.csgraph import reverse_cuthill_mckee

        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        diag = np.arange(n, dtype=np.int64)
        graph = scipy.sparse.csr_matrix(
            (np.ones(rows.size + n), (np.concatenate((rows, diag)),
                                      np.concatenate((cols, diag)))),
            shape=(n, n),
        )
        self.perm = reverse_cuthill_mckee(graph).astype(np.int64)
        order = np.empty(n, dtype=np.int64)
        order[self.perm] = diag
        prow, pcol = order[rows], order[cols]
        self.n = n
        self.kl = int(np.max(prow - pcol, initial=0))
        self.ku = int(np.max(pcol - prow, initial=0))
        if max(self.kl, self.ku) > BAND_LIMIT:
            raise BandTooWideError(self.kl, self.ku, n)
        # A[i, j] of the reordered matrix sits at ab[kl + ku + i - j, j] of
        # the (2 kl + ku + 1, n) Fortran-ordered band array
        ldab = 2 * self.kl + self.ku + 1
        self._shape = (n, ldab)
        self._value_slots = pcol * ldab + (self.kl + self.ku + prow - pcol)
        self._diag_slots = diag * ldab + (self.kl + self.ku)

    def solve(self, coef, values, b):
        """x with (I - coef A) x = b, A holding `values` at the pattern.

        Raises SingularMatrixError naming the pivot when gbsv meets an
        exactly zero pivot or the diagonal of U holds a non-finite value.
        """
        flat = np.zeros(self._shape[0] * self._shape[1], dtype=np.float64)
        flat[self._value_slots] = values * -coef
        flat[self._diag_slots] += 1.0
        lub, _, x, info = _gbsv(
            self.kl, self.ku, flat.reshape(self._shape).T, b[self.perm],
            overwrite_ab=1, overwrite_b=1,
        )
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of LAPACK gbsv")
        pivots = lub[self.kl + self.ku]
        if info > 0:
            raise SingularMatrixError(info - 1, pivots[info - 1], 0.0)
        finite = np.isfinite(pivots)
        if not finite.all():
            worst = int(finite.argmin())
            raise SingularMatrixError(worst, pivots[worst], 0.0)
        out = np.empty(self.n, dtype=np.float64)
        out[self.perm] = x
        return out
