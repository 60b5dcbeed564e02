"""Basis extraction: energy truncation rule, optimality, centering.

Oracles: an independent eigendecomposition of the snapshot Gram matrix, and
matrices with hand-placed singular values where the truncation arithmetic
can be done by inspection.
"""

import numpy as np
import pytest

from smdeim_rom.pod import pod_basis


def planted_spectrum(rng, n, sigmas):
    """Matrix with prescribed singular values (random orthogonal factors)."""
    s = len(sigmas)
    q1, _ = np.linalg.qr(rng.standard_normal((n, s)))
    q2, _ = np.linalg.qr(rng.standard_normal((s, s)))
    return q1 @ np.diag(sigmas) @ q2.T


def test_energy_rule_smallest_k(rng):
    # sigma = (3, 1): lambda fractions are 0.9, 1.0
    snap = planted_spectrum(rng, 12, [3.0, 1.0])
    assert pod_basis(snap, gamma=0.9).k == 1
    assert pod_basis(snap, gamma=0.91).k == 2
    assert pod_basis(snap, gamma=1.0).k == 2


def test_gamma_one_returns_numerical_rank(rng):
    left = rng.standard_normal((20, 3))
    right = rng.standard_normal((3, 8))
    basis = pod_basis(left @ right, gamma=1.0)
    assert basis.k == 3


def test_repeated_column_gives_rank_one():
    col = np.arange(1.0, 7.0)
    snap = np.column_stack([col] * 5)
    assert pod_basis(snap, gamma=1.0).k == 1


def test_k_max_clamps(rng):
    snap = rng.standard_normal((15, 10))
    basis = pod_basis(snap, gamma=1.0, k_max=4)
    assert basis.k == 4
    assert basis.u.shape == (15, 4)


def test_basis_matches_gram_eigendecomposition(rng):
    # independent route: eigenvectors of S S^T for the dominant subspace
    snap = planted_spectrum(rng, 18, [5.0, 2.0, 0.5])
    basis = pod_basis(snap, gamma=1.0, k_max=3)
    lam, vec = np.linalg.eigh(snap @ snap.T)
    order = np.argsort(lam)[::-1][:3]
    eig_u = vec[:, order]
    # subspaces agree: projections onto each other are the identity
    overlap = basis.u.T @ eig_u
    assert np.max(np.abs(overlap @ overlap.T - np.eye(3))) <= 1e-10
    assert np.max(np.abs(np.sort(np.sqrt(lam[order]))[::-1] - basis.singulars[:3])) <= 1e-10


def test_orthonormal_columns(rng):
    basis = pod_basis(rng.standard_normal((25, 9)), gamma=0.999)
    gram = basis.u.T @ basis.u
    assert np.max(np.abs(gram - np.eye(basis.k))) <= 1e-12


def test_projection_error_matches_truncated_energy(rng):
    # energy fractions: k=1 -> 16/21.25 = 0.753, k=2 -> 20/21.25 = 0.941
    snap = planted_spectrum(rng, 16, [4.0, 2.0, 1.0, 0.5])
    basis = pod_basis(snap, gamma=0.9, k_max=2)
    assert basis.k == 2
    resid = snap - basis.u @ (basis.u.T @ snap)
    # optimal rank-2 approximation error: sqrt(1^2 + 0.5^2)
    assert abs(np.linalg.norm(resid) - np.sqrt(1.0 + 0.25)) <= 1e-8


def test_centered_mean_round_trip(rng):
    snap = rng.standard_normal((10, 6)) + 7.0
    basis = pod_basis(snap, gamma=1.0, centered=True)
    assert np.allclose(basis.mean, snap.mean(axis=1), atol=1e-14)
    # lift(project(.)) reproduces any snapshot column
    x = snap[:, 3]
    assert np.linalg.norm(basis.lift(basis.project(x)) - x) <= 1e-10


def test_centered_basis_is_the_same_in_either_layout(rng):
    # row means round by the order of the summands; pod_basis sums each row
    # as numpy sums a row-major matrix's, over blocks of 256 rows
    snap = rng.standard_normal((600, 181)) * np.exp(3 * rng.standard_normal((600, 181)))
    built = pod_basis(snap, gamma=1.0, k_max=20, centered=True)
    assert np.array_equal(built.mean, snap.mean(axis=1))
    loaded = pod_basis(np.asfortranarray(snap), gamma=1.0, k_max=20, centered=True)
    assert np.array_equal(loaded.mean, built.mean)
    assert np.array_equal(loaded.u, built.u)
    assert np.array_equal(loaded.singulars, built.singulars)


def test_uncentered_mean_is_zero(rng):
    basis = pod_basis(rng.standard_normal((8, 4)), gamma=1.0)
    assert not basis.centered
    assert np.array_equal(basis.mean, np.zeros(8))


def test_lift_project_matrix_forms(rng):
    basis = pod_basis(rng.standard_normal((12, 7)), gamma=1.0, k_max=3)
    x = rng.standard_normal((12, 4))
    red = basis.project(x)
    assert red.shape == (3, 4)
    assert np.allclose(basis.lift(red), basis.u @ red, atol=1e-14)


def test_invalid_inputs_raise(rng):
    with pytest.raises(ValueError):
        pod_basis(rng.standard_normal((5, 3)), gamma=0.0)
    with pytest.raises(ValueError):
        pod_basis(rng.standard_normal((5, 3)), gamma=1.5)
    with pytest.raises(ValueError):
        pod_basis(np.zeros((5, 3)))
    with pytest.raises(ValueError):
        pod_basis(np.zeros((5, 0)))
