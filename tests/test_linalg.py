"""Kernel contracts: factorization accuracy, deterministic signs, the
Lanczos leading singular value against a dense oracle, and diagnostic
failure modes.

Every expected value is either recomputed from the inputs inside the test
(multiply-back residuals, orthonormality) or is an analytically known
solution of a hand-built system.
"""

import numpy as np
import pytest
import scipy.linalg

from smdeim_rom.bench.runner import _deim_jacobian_operator
from smdeim_rom.deim import deim_interpolant
from smdeim_rom.jacobian_approx import (
    build_smdeim,
    deim_function_jacobian,
    sample_and_approximate,
)
from smdeim_rom.linalg import (
    SingularMatrixError,
    SvdResult,
    leading_singular_value,
    solve_dense,
    thin_svd,
)
from smdeim_rom.models.burgers import build_burgers
from smdeim_rom.models.swe import build_swe


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


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("rhs_shape", [(25,), (25, 3)])
def test_solve_dense_bit_identical_to_lu_factor_and_solve(rng, order, rhs_shape):
    for _ in range(20):
        a = np.asarray(rng.standard_normal((25, 25)), order=order)
        b = np.asarray(rng.standard_normal(rhs_shape), order=order)
        expect = scipy.linalg.lu_solve(scipy.linalg.lu_factor(a), b)
        x = solve_dense(a, b)
        assert x.shape == expect.shape
        assert np.array_equal(x, expect)


def test_solve_dense_near_singular_pivot_raises(rng):
    # an upper triangular matrix is its own U, so the last pivot is exactly
    # 1e-20: below 1e-14 ||a||_F but not zero
    a = np.triu(rng.uniform(1.0, 2.0, (5, 5)))
    a[4, 4] = 1e-20
    with pytest.raises(SingularMatrixError) as err:
        solve_dense(a, np.ones(5))
    assert err.value.pivot_index == 4
    assert err.value.pivot_value == 1e-20


def test_solve_dense_passes_non_finite_input_through():
    for a in ([[np.nan, 0.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, np.nan]]):
        x = solve_dense(np.array(a), np.ones(2))
        assert not np.isfinite(x).any()


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


# -- leading singular value -----------------------------------------------


def dense_sv1(a):
    return float(np.linalg.svd(a, compute_uv=False)[0])


@pytest.mark.parametrize(
    "model",
    [
        build_burgers(n=6),
        build_burgers(n=201),
        build_swe(nx_points=5, ny_points=5),
        build_swe(nx_points=21, ny_points=15),
    ],
    ids=["burgers-6", "burgers-201", "swe-5x5", "swe-21x15"],
)
def test_leading_singular_value_matches_dense_svd_on_jacobians(model):
    for stage in model.stages:
        jac = stage.op.jacobian(model.initial_state)
        expect = dense_sv1(jac.toarray())
        got = leading_singular_value(jac)
        assert abs(got - expect) <= 1e-13 * expect


def probe(swe_run):
    snap = swe_run.snaps[0]
    return snap, swe_run.model.stages[0].op, snap.states[:, 29]


def test_leading_singular_value_of_smdeim_approximation(swe_run):
    snap, op, x = probe(swe_run)
    approx = sample_and_approximate(build_smdeim(snap, 30), op, x)
    expect = dense_sv1(approx.toarray())
    assert abs(leading_singular_value(approx) - expect) <= 1e-13 * expect


def test_leading_singular_value_of_deim_operator(swe_run):
    snap, op, x = probe(swe_run)
    fn_interp = deim_interpolant(thin_svd(snap.nonlinear).u, 30)
    rows = op.sample_nl_rows(x, fn_interp.indexes)
    approx = _deim_jacobian_operator(op.linear, fn_interp.projector, rows)
    dense = op.linear.toarray() + deim_function_jacobian(fn_interp, rows)
    expect = dense_sv1(dense)
    assert abs(leading_singular_value(approx) - expect) <= 1e-13 * expect


def test_leading_singular_value_repeats_bit_for_bit(swe_run):
    snap, op, x = probe(swe_run)
    jac = op.jacobian(x)
    first = leading_singular_value(jac)
    assert leading_singular_value(jac) == first
    assert leading_singular_value(jac.copy()) == first
