"""Dense kernel contracts: factorization accuracy, deterministic signs,
and diagnostic failure modes.

Every expected value is either recomputed from the inputs inside the test
(multiply-back residuals, orthonormality) or is an analytically known
solution of a hand-built system.
"""

import numpy as np
import pytest

from smdeim_rom.linalg import (
    SingularMatrixError,
    SvdResult,
    solve_dense,
    thin_svd,
)


@pytest.mark.parametrize("shape", [(12, 7), (7, 12), (9, 9), (40, 3)])
def test_thin_svd_reconstructs_input(shape, rng):
    a = rng.standard_normal(shape)
    res = thin_svd(a)
    rebuilt = res.u @ np.diag(res.singulars) @ res.w.T
    assert np.linalg.norm(rebuilt - a) <= 1e-12 * np.linalg.norm(a)
    # economy shapes
    q = min(shape)
    assert res.u.shape == (shape[0], q)
    assert res.w.shape == (shape[1], q)
    # descending spectrum
    assert np.all(np.diff(res.singulars) <= 0.0)


def test_thin_svd_factors_are_orthonormal(rng):
    a = rng.standard_normal((30, 12))
    res = thin_svd(a)
    eye = np.eye(12)
    assert np.max(np.abs(res.u.T @ res.u - eye)) <= 1e-13
    assert np.max(np.abs(res.w.T @ res.w - eye)) <= 1e-13


def test_thin_svd_sign_convention_leading_entry_nonnegative(rng):
    a = rng.standard_normal((25, 10))
    res = thin_svd(a)
    # first entry above the relative threshold in each left vector is >= 0,
    # and flipping is consistent: the product still reconstructs a
    for j in range(res.u.shape[1]):
        col = res.u[:, j]
        lead = col[np.abs(col) > 1e-12 * np.abs(col).max()][0]
        assert lead >= 0.0


def test_thin_svd_sign_deterministic_across_equivalent_routes(rng):
    # same matrix through a copy and through a Fortran-ordered view must
    # produce bit-identical factors, else downstream index selection drifts
    a = rng.standard_normal((20, 8))
    r1 = thin_svd(a.copy())
    r2 = thin_svd(np.asfortranarray(a))
    assert np.array_equal(r1.u, r2.u)
    assert np.array_equal(r1.w, r2.w)


def test_thin_svd_singulars_invariant_under_row_permutation(rng):
    a = rng.standard_normal((18, 6))
    perm = rng.permutation(18)
    s1 = thin_svd(a).singulars
    s2 = thin_svd(a[perm]).singulars
    assert np.max(np.abs(s1 - s2)) <= 1e-10 * s1[0]


def test_rank_detects_constructed_rank(rng):
    left = rng.standard_normal((30, 4))
    right = rng.standard_normal((4, 9))
    res = thin_svd(left @ right)
    assert res.rank == 4


def test_rank_of_zero_matrix_is_zero():
    res = thin_svd(np.zeros((5, 3)))
    assert res.rank == 0
    assert isinstance(res, SvdResult)


def test_thin_svd_rejects_non_matrix():
    with pytest.raises(ValueError):
        thin_svd(np.zeros(4))


def test_solve_dense_known_system():
    a = np.array([[2.0, 0.0], [0.0, 4.0]])
    x = solve_dense(a, np.array([2.0, 8.0]))
    assert np.allclose(x, [1.0, 2.0], atol=1e-14)


def test_solve_dense_multiply_back(rng):
    a = rng.standard_normal((8, 8)) + 8.0 * np.eye(8)
    b = rng.standard_normal(8)
    x = solve_dense(a, b)
    assert np.linalg.norm(a @ x - b) <= 1e-11 * np.linalg.norm(b)


def test_solve_dense_matrix_rhs(rng):
    a = rng.standard_normal((6, 6)) + 6.0 * np.eye(6)
    b = rng.standard_normal((6, 3))
    x = solve_dense(a, b)
    assert np.linalg.norm(a @ x - b) <= 1e-11


@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
def test_solve_dense_singular_names_pivot():
    a = np.zeros((3, 3))
    a[0, 0] = 1.0
    a[1, 1] = 1.0
    # third row dependent: pivot 2 collapses
    with pytest.raises(SingularMatrixError) as err:
        solve_dense(a, np.ones(3))
    assert err.value.pivot_index == 2
    assert "pivot 2" in str(err.value)


def test_solve_dense_shape_validation():
    with pytest.raises(ValueError):
        solve_dense(np.zeros((2, 3)), np.zeros(2))
    with pytest.raises(ValueError):
        solve_dense(np.eye(3), np.zeros(2))
