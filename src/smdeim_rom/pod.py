"""Proper orthogonal decomposition via the singular value route.

The basis dimension is chosen by the captured-energy rule: with snapshot
singular values sigma_i, lambda_i = sigma_i^2, the smallest k such that
sum(lambda_1..lambda_k) / sum(lambda) >= gamma, optionally clamped by a hard
cap.  Centering is off by default; when on, the column mean is removed before
factoring and kept for lifting reduced states back to full space.
"""

from dataclasses import dataclass, replace

import numpy as np

from .linalg import thin_svd

__all__ = ["PodBasis", "pod_basis"]

# slack on the energy inequality so gamma = 1.0 resolves to the numerical
# rank instead of tripping on trailing round-off
_ENERGY_SLACK = 1e-12


@dataclass(frozen=True)
class PodBasis:
    """Orthonormal basis of the dominant snapshot subspace.

    u is (n, k); singulars keeps the full snapshot spectrum for energy
    reporting; mean is the removed column mean (zeros when centered=False).
    """

    u: np.ndarray
    singulars: np.ndarray
    k: int
    gamma: float
    centered: bool
    mean: np.ndarray

    @property
    def n(self):
        return int(self.u.shape[0])

    def lift(self, reduced):
        """Map reduced coordinates back to full space."""
        if reduced.ndim == 1:
            return self.mean + self.u @ reduced
        return self.mean[:, None] + self.u @ reduced

    def truncate(self, k):
        """The basis of the leading min(k, self.k) modes: what pod_basis
        returns with k_max=k for the same snapshots, bit for bit."""
        k = min(int(k), self.k)
        return replace(self, u=np.ascontiguousarray(self.u[:, :k]), k=k)

    def project(self, full):
        """Map full states to reduced coordinates."""
        if full.ndim == 1:
            return self.u.T @ (full - self.mean)
        return self.u.T @ (full - self.mean[:, None])


def _row_means(s_mat, rows=256):
    """The row means of s_mat, each summed along its row as numpy sums a
    row-major matrix's rows, so they round the same in either layout; a
    column-major s_mat is copied a block of rows at a time."""
    means = np.empty(s_mat.shape[0])
    for start in range(0, s_mat.shape[0], rows):
        block = np.ascontiguousarray(s_mat[start : start + rows])
        means[start : start + rows] = block.mean(axis=1)
    return means


def pod_basis(snapshots, gamma=0.99, k_max=None, centered=False):
    """Build a PodBasis from an (n, n_s) snapshot matrix.

    Parameters
    ----------
    snapshots : (n, n_s) array_like
    gamma : float
        Energy threshold in (0, 1]; the basis dimension is the smallest k
        whose captured energy reaches it.
    k_max : int or None
        Optional hard cap on the dimension.
    centered : bool
        Remove the column mean before factoring.
    """
    s_mat = np.asarray(snapshots, dtype=np.float64)
    if s_mat.ndim != 2 or s_mat.shape[1] == 0:
        raise ValueError(f"snapshot matrix must be (n, n_s), got {s_mat.shape}")
    if not 0.0 < gamma <= 1.0:
        raise ValueError(f"gamma must lie in (0, 1], got {gamma}")
    if centered:
        mean = _row_means(s_mat)
        work = s_mat - mean[:, None]
    else:
        mean = np.zeros(s_mat.shape[0])
        work = s_mat
    svd = thin_svd(work)
    lam = svd.singulars**2
    total = lam.sum()
    if total == 0.0:
        raise ValueError("snapshot matrix is numerically zero; no basis exists")
    if gamma == 1.0:
        # Full energy asks for every numerically significant mode.
        k = svd.rank
    else:
        fractions = np.cumsum(lam) / total
        k = int(np.argmax(fractions >= gamma - _ENERGY_SLACK)) + 1
    if k_max is not None:
        k = min(k, int(k_max))
    k = min(k, svd.u.shape[1])
    return PodBasis(
        u=np.ascontiguousarray(svd.u[:, :k]),
        singulars=svd.singulars,
        k=k,
        gamma=float(gamma),
        centered=bool(centered),
        mean=mean,
    )
