"""Kernel contracts: factorization accuracy, deterministic signs, the
Lanczos leading singular value against a dense oracle, and diagnostic
failure modes.

Every expected value is either recomputed from the inputs inside the test
(multiply-back residuals, orthonormality) or is an analytically known
solution of a hand-built system.  The sign convention is checked bit for
bit against its whole-matrix formula, kept here as the oracle.
"""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st

from smdeim_rom.deim import deim_interpolant
from smdeim_rom.jacobian_approx import approximate_matrix, build_smdeim
from smdeim_rom import instrumentation, linalg
from smdeim_rom.linalg import (
    SingularMatrixError,
    SvdConvergenceError,
    SvdResult,
    leading_singular_value,
    solve_dense,
    thin_svd,
)
from smdeim_rom.models.burgers import build_burgers
from smdeim_rom.models.swe import build_swe
from smdeim_rom.rom import DeimFunctionJacobian


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


def sign_formula(u, w):
    """The sign convention on whole matrices: |u|, a full-size mask and
    fancy-indexed flips."""
    absu = np.abs(u)
    colmax = absu.max(axis=0)
    mask = absu > linalg._SIGN_TOL * colmax[None, :]
    first = mask.argmax(axis=0)
    lead = u[first, np.arange(u.shape[1])]
    flip = lead < 0.0
    if np.any(flip):
        u[:, flip] *= -1.0
        w[:, flip] *= -1.0
    return u, w


BLOCK = linalg._SIGN_BLOCK_ROWS
COLUMN_KINDS = ("dense", "late", "zero", "nan", "inf", "threshold")


def _column(kind, rows, rng):
    col = rng.standard_normal(rows)
    lead = int(rng.integers(rows))
    if kind == "late":
        # round-off fill far below the threshold ahead of the leading entry
        col[:lead] = 1e-17 * rng.standard_normal(lead)
    elif kind == "zero":
        col = np.where(rng.random(rows) < 0.5, -0.0, 0.0)
    elif kind == "nan":
        col[lead] = np.nan
    elif kind == "inf":
        col[lead] = rng.choice([-np.inf, np.inf])
    elif kind == "threshold":
        # entries exactly at the threshold do not clear it
        top = float(np.abs(col).max())
        col[lead:] = rng.uniform(-top, top, rows - lead)
        col[lead] = rng.choice([-top, top])
        col[:lead] = rng.choice([-1.0, 1.0], lead) * (linalg._SIGN_TOL * top)
    if kind in ("dense", "late", "threshold") and rng.random() < 0.5:
        col[lead] = -abs(col[lead])  # a negative leading entry
    return col


@st.composite
def sign_inputs(draw):
    rows = draw(
        st.sampled_from([1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK, 3 * BLOCK + 7])
        | st.integers(1, 4 * BLOCK)
    )
    kinds = draw(st.lists(st.sampled_from(COLUMN_KINDS), min_size=1, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    order = draw(st.sampled_from("CF"))
    u = np.empty((rows, len(kinds)), order=order)
    for j, kind in enumerate(kinds):
        u[:, j] = _column(kind, rows, rng)
    w = rng.standard_normal((int(rng.integers(1, 9)), len(kinds)))
    return u, w


@given(sign_inputs())
def test_property_sign_convention_equals_whole_matrix_formula(inputs):
    u, w = inputs
    expect_u, expect_w = sign_formula(u.copy(), w.copy())
    got_u, got_w = linalg._apply_sign_convention(u, w)
    # in place, bit for bit: NaN payloads and the signs of zeros included
    assert got_u is u and got_w is w
    assert got_u.tobytes() == expect_u.tobytes()
    assert got_w.tobytes() == expect_w.tobytes()


@st.composite
def leading_svd_inputs(draw):
    """(a, m): a tall, wide or rank-deficient matrix in C or F order with a
    known spectrum 1, 1/2, 1/4, ... whose gaps keep its leading singular
    vectors well determined, and m at most its rank."""
    short = draw(st.integers(1, 8))
    # the long side reaches past 12000 entries, where a copy of a clears
    # the fixed allocations of a call
    long = draw(st.integers(short, 400) | st.integers(12000, 20000))
    rows, cols = draw(st.sampled_from([(long, short), (short, long)]))
    rank = draw(st.integers(1, min(rows, cols)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    left = np.linalg.qr(rng.standard_normal((rows, rank)))[0]
    right = np.linalg.qr(rng.standard_normal((cols, rank)))[0]
    a = (left * 2.0 ** -np.arange(rank)) @ right.T
    order = draw(st.sampled_from("CF"))
    return np.asarray(a, order=order), draw(st.integers(1, rank))


def check_leading_svd(a, m):
    """leading_svd(a, m) against thin_svd(a): the same singular values bit
    for bit, the leading m vector pairs to round-off, no thin_svd count,
    and `a` consumed in place exactly where gesdd takes its QR-first
    branch (rows >= int(11 cols / 6)), with no copy of it made there."""
    expect = thin_svd(a)
    before = instrumentation.snapshot()
    consumed = a.flags.f_contiguous and a.shape[0] >= int(a.shape[1] * 11 / 6)
    original = a.copy()
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        res = linalg.leading_svd(a, m)
        extra = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    after = instrumentation.snapshot()
    # leading_svd is not thin_svd: the benchmark's traced count check
    # matches thin_svd_calls against the thin_svd calls it wraps
    assert after["thin_svd_calls"] == before["thin_svd_calls"]
    assert after["leading_svd_calls"] == before["leading_svd_calls"] + 1
    q = min(a.shape)
    assert res.singulars.shape == (q,)
    assert res.u.shape == (a.shape[0], m) and res.w.shape == (a.shape[1], m)
    assert np.array_equal(res.singulars, expect.singulars)
    assert np.max(np.abs(res.u - expect.u[:, :m])) <= 1e-12
    assert np.max(np.abs(res.w - expect.w[:, :m])) <= 1e-12
    if consumed:
        # factored in place: past u and about 7 q^2 doubles for R, its
        # copy, factors and gesdd workspace, a call allocates about 40 KiB
        # whatever the number of rows, and no copy of a
        assert extra <= res.u.nbytes + 8 * 8 * q * q + 64 * 1024
    else:
        assert np.array_equal(a, original)


@given(leading_svd_inputs())
def test_property_leading_svd_equals_thin_svd_leading_pairs(inputs):
    check_leading_svd(*inputs)


@pytest.mark.parametrize("rows, cols", [
    (329, 180), (330, 180), (595, 401), (734, 401), (735, 401),
])
def test_leading_svd_equals_thin_svd_on_both_sides_of_the_qr_threshold(rows, cols):
    # int(11 cols / 6) is 330 for 180 columns and 735 for 401 (the Burgers
    # n=201 Jacobian block is 595 x 401); 30 well-separated leading values
    # over a decaying tail keep the leading vectors well determined
    rng = np.random.default_rng(rows * cols)
    q, m = min(rows, cols), 30
    s = np.concatenate((1.0 - np.arange(m) / 40, 0.2 * 0.5 ** (np.arange(q - m) / 8)))
    left = np.linalg.qr(rng.standard_normal((rows, q)))[0]
    right = np.linalg.qr(rng.standard_normal((cols, q)))[0]
    check_leading_svd(np.asfortranarray((left * s) @ right.T), m)


@pytest.mark.parametrize("factor", [
    thin_svd, lambda a: linalg.leading_svd(np.asfortranarray(a), 2),
], ids=["thin_svd", "leading_svd"])
def test_a_factorization_inside_an_online_section_raises(factor, rng):
    a = rng.standard_normal((40, 4))
    with pytest.raises(instrumentation.OfflineCallInOnlineSection, match=r"_svd_calls"):
        with instrumentation.online_section():
            factor(a)


def test_leading_svd_rejects_non_finite_input(rng):
    a = np.asfortranarray(rng.standard_normal((60, 4)))
    a[17, 2] = np.nan
    with pytest.raises(ValueError, match="infs or NaNs"):
        linalg.leading_svd(a, 2)


def test_thin_svd_retries_gesvd_on_the_intact_input(rng, monkeypatch):
    a = rng.standard_normal((30, 6))
    s = scipy.linalg.svd(a, full_matrices=False, lapack_driver="gesvd")[1]
    svd = scipy.linalg.svd
    gesvd_inputs = []
    failing = {"gesdd"}

    def fake(x, *args, lapack_driver="gesdd", **kwargs):
        if lapack_driver == "gesvd":
            gesvd_inputs.append(x.copy())
        if lapack_driver in failing:
            raise np.linalg.LinAlgError("SVD did not converge")
        return svd(x, *args, lapack_driver=lapack_driver, **kwargs)

    monkeypatch.setattr(scipy.linalg, "svd", fake)
    for given_a in (a.copy(), np.asfortranarray(a)):
        res = thin_svd(given_a)
        assert np.array_equal(gesvd_inputs.pop(), a)
        assert np.array_equal(res.singulars, s)
        assert np.array_equal(given_a, a)
    # both drivers failing names the shape; leading_svd names its input's
    failing.add("gesvd")
    with pytest.raises(SvdConvergenceError, match="on a 30x6 block"):
        thin_svd(a)
    with pytest.raises(SvdConvergenceError, match="triangular factor of a 30x6 matrix"):
        linalg.leading_svd(a, 2)


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
    mi = build_smdeim(snap, 30)
    samples = op.sample_jacobian(x, mi.sample_rows, mi.sample_cols)
    approx = approximate_matrix(mi, samples)
    expect = dense_sv1(approx.toarray())
    assert abs(leading_singular_value(approx) - expect) <= 1e-13 * expect


def test_leading_singular_value_of_deim_operator(swe_run, swe_basis):
    # the factored L + P R that deim's full_jacobian gives for sigma_1
    snap, op, x = probe(swe_run)
    fn_interp = deim_interpolant(thin_svd(snap.nonlinear).u, 30)
    u = swe_basis.u
    jac = DeimFunctionJacobian(op, swe_basis, fn_interp.indexes,
                               u.T @ fn_interp.projector, u.T @ (op.linear @ u))
    summed, factored = jac.full_jacobian(x, fn_interp)
    rows = op.sample_nl_rows(x, fn_interp.indexes)
    dense = op.linear.toarray() + fn_interp.projector @ rows.toarray()
    assert np.abs(summed.toarray() - dense).max() <= 1e-13 * np.abs(dense).max()
    expect = dense_sv1(dense)
    assert abs(leading_singular_value(factored) - expect) <= 1e-13 * expect


def test_leading_singular_value_repeats_bit_for_bit(swe_run):
    snap, op, x = probe(swe_run)
    jac = op.jacobian(x)
    first = leading_singular_value(jac)
    assert leading_singular_value(jac) == first
    assert leading_singular_value(jac.copy()) == first
