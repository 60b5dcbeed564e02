"""Matrix interpolants: the gathered fast route against the vectorized
reference route, rank/memory guards, and the padded-factorization identity.

The guard-scale comparisons run on a small Burgers setup (n=31) where the
n^2-row reference route is cheap; its memory bounds on Burgers n=101.
"""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from smdeim_rom import jacobian_approx as japprox
from smdeim_rom.jacobian_approx import (
    DEFAULT_GUARD,
    MemoryGuardError,
    RankError,
    approximate_matrix,
    build_mdeim_reference,
    build_smdeim,
    guard_limit,
    verify_lemma2,
)
from smdeim_rom.linalg import thin_svd
from smdeim_rom.models import full_solve
from smdeim_rom.models.burgers import build_burgers
from smdeim_rom.snapshots import SparsityPattern, SnapshotSet, gather


@pytest.fixture(scope="module")
def small_snap():
    model = build_burgers(n=31, n_t=41)
    _, _, sets = full_solve(model, 41)
    return model, sets[0]


def approximate_at(mi, op, x):
    # the interpolant applied to the Jacobian values sampled at its coordinates
    return approximate_matrix(mi, op.sample_jacobian(x, mi.sample_rows, mi.sample_cols))


def test_routes_agree_on_coordinates_and_values(small_snap):
    model, snap = small_snap
    m = 8
    fast = build_smdeim(snap, m)
    ref = build_mdeim_reference(snap, m)
    assert np.array_equal(fast.sample_rows, ref.sample_rows)
    assert np.array_equal(fast.sample_cols, ref.sample_cols)
    # approximations agree on a held-out state
    x = snap.states[:, -1] * 0.9
    a_fast = approximate_at(fast, model.stages[0].op, x)
    a_ref = approximate_at(ref, model.stages[0].op, x)
    diff = scipy.sparse.linalg.norm(a_fast - a_ref)
    assert diff <= 1e-10 * scipy.sparse.linalg.norm(a_fast)


def test_routes_share_singular_values(small_snap):
    _, snap = small_snap
    fast = build_smdeim(snap, 6)
    ref = build_mdeim_reference(snap, 6)
    q = min(fast.singulars.size, ref.singulars.size)
    assert np.max(np.abs(fast.singulars[:q] - ref.singulars[:q])) <= 1e-10 * fast.singulars[0]


def test_sparse_mode_reconstruction_stays_in_pattern(small_snap):
    model, snap = small_snap
    mi = build_smdeim(snap, 10)
    approx = approximate_at(mi, model.stages[0].op, snap.states[:, 5])
    lin = approx.tocoo()
    linear = lin.col.astype(np.int64) * snap.pattern.n + lin.row.astype(np.int64)
    assert set(linear.tolist()) <= set(snap.pattern.linear.tolist())


def test_exact_at_sample_coordinates(small_snap):
    model, snap = small_snap
    op = model.stages[0].op
    mi = build_smdeim(snap, 12)
    x = snap.states[:, 17]
    approx = approximate_at(mi, op, x)
    true_vals = op.sample_jacobian(x, mi.sample_rows, mi.sample_cols)
    got = np.array(
        [approx[int(a), int(b)] for a, b in zip(mi.sample_rows, mi.sample_cols)]
    )
    assert np.max(np.abs(got - true_vals)) <= 1e-10 * np.max(np.abs(true_vals))


def test_training_column_reproduced_at_full_mode_count(small_snap):
    model, snap = small_snap
    svd = thin_svd(snap.jacobian)
    mi = build_smdeim(snap, int(svd.rank))
    col = 13
    x = snap.states[:, col]
    approx = approximate_at(mi, model.stages[0].op, x)
    true_vec = snap.jacobian[:, col]
    err = np.linalg.norm(gather(approx, snap.pattern) - true_vec)
    assert err <= 1e-8 * np.linalg.norm(true_vec)


def test_rank_one_family_exact_with_single_mode():
    # snapshots proportional to one vector: m=1 reproduces every member
    pat = SparsityPattern(n=6, rows=np.array([0, 2, 4]), cols=np.array([0, 2, 4]))
    base = np.array([1.0, -2.0, 0.5])
    jac = np.column_stack([base * c for c in (1.0, 3.0, -0.7)])
    snap = SnapshotSet(
        model_id="toy",
        config_hash="",
        stage="s",
        dt=0.1,
        pattern=pat,
        states=np.zeros((6, 3)),
        nonlinear=np.zeros((6, 3)),
        jacobian=jac,
    )
    mi = build_smdeim(snap, 1)
    target = base * 11.0
    approx = approximate_matrix(mi, target[mi.interp.indexes])
    assert np.allclose(gather(approx, pat), target, atol=1e-12)


def test_rank_error_when_m_exceeds_rank():
    pat = SparsityPattern(n=4, rows=np.array([0, 1]), cols=np.array([0, 1]))
    jac = np.outer(np.array([1.0, 2.0]), np.array([1.0, 2.0, 3.0]))
    snap = SnapshotSet(
        model_id="toy", config_hash="", stage="s", dt=0.1, pattern=pat,
        states=np.zeros((4, 3)), nonlinear=np.zeros((4, 3)), jacobian=jac,
    )
    with pytest.raises(RankError):
        build_smdeim(snap, 2)


def test_memory_guard_and_overrides(small_snap):
    _, snap = small_snap
    big = SparsityPattern(
        n=DEFAULT_GUARD + 1, rows=np.array([0, 1]), cols=np.array([0, 1])
    )
    big_snap = SnapshotSet(
        model_id="toy", config_hash="", stage="s", dt=0.1, pattern=big,
        states=np.zeros((big.n, 2)), nonlinear=np.zeros((big.n, 2)),
        jacobian=np.array([[1.0, 2.0], [1.0, 1.0]]),
    )
    assert guard_limit() == DEFAULT_GUARD
    assert guard_limit(big.n) == big.n
    with pytest.raises(MemoryGuardError):
        build_mdeim_reference(big_snap, 1)
    # the parameter overrides
    mi = build_mdeim_reference(big_snap, 1, guard_n=big.n)
    assert mi.mode == "vectorized"


def test_memory_guard_names_the_bytes_of_the_refused_route():
    n, n_s, r = DEFAULT_GUARD + 1, 3, 2
    pat = SparsityPattern(n=n, rows=np.array([0, 1]), cols=np.array([0, 1]))
    snap = SnapshotSet(
        model_id="toy", config_hash="", stage="s", dt=0.1, pattern=pat,
        states=np.zeros((n, n_s)), nonlinear=np.zeros((n, n_s)),
        jacobian=np.ones((r, n_s)),
    )
    prefix = f"dimension {n} exceeds the vectorized-route guard {DEFAULT_GUARD}"
    # the padded matrix and its m leading left singular vectors
    with pytest.raises(MemoryGuardError, match=prefix) as err:
        build_mdeim_reference(snap, 1, guard_n=DEFAULT_GUARD)
    assert f" {8 * n * n * (n_s + 1)} bytes" in str(err.value)
    # the padded snapshots, the padded (n^2, min(r, n_s)) factor and the
    # reconstruction
    with pytest.raises(MemoryGuardError, match=prefix) as err:
        verify_lemma2(snap, guard_n=DEFAULT_GUARD)
    assert f" {8 * n * n * (2 * n_s + r)} bytes" in str(err.value)


@pytest.fixture(scope="module")
def snap101():
    _, _, sets = full_solve(build_burgers(n=101))
    return sets[0]


def test_mdeim_reference_holds_one_copy_of_the_padded_matrix(snap101):
    # the QR factors the Fortran-ordered padded matrix in place and only m
    # left singular vectors are formed: the peak is that matrix, the m
    # vectors and small workspace, 8 n^2 (n_s + m) plus O(n_s^2)
    snap = snap101
    padded_bytes = 8 * snap.pattern.n ** 2 * snap.n_cols
    tracemalloc.start()
    try:
        mi = build_mdeim_reference(snap, 30)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mi.m == 30
    assert peak <= 1.4 * padded_bytes


def test_mdeim_reference_singulars_equal_gesdd_bit_for_bit(snap101):
    # the R-SVD takes the steps gesdd takes on a tall matrix, so the
    # spectrum of the padded matrix is the same bits
    n = snap101.pattern.n
    padded = np.zeros((n * n, snap101.n_cols))
    padded[snap101.pattern.linear, :] = snap101.jacobian
    expect = scipy.linalg.svd(padded, full_matrices=False, lapack_driver="gesdd")[1]
    del padded
    got = build_mdeim_reference(snap101, 30).singulars
    assert got.tobytes() == expect.tobytes()


def test_verify_lemma2_holds_its_stated_arrays(snap101):
    snap = snap101
    n, n_s = snap.pattern.n, snap.n_cols
    stated = 8 * n * n * (2 * n_s + min(snap.pattern.r, n_s))
    tracemalloc.start()
    try:
        verify_lemma2(snap)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * stated


def test_verify_lemma2_report_equals_out_of_place_formula(small_snap):
    _, snap = small_snap
    n = snap.pattern.n
    full = np.zeros((n * n, snap.n_cols))
    full[snap.pattern.linear, :] = snap.jacobian
    svd = thin_svd(snap.jacobian)
    padded = np.zeros((n * n, svd.u.shape[1]))
    padded[snap.pattern.linear, :] = svd.u
    recon = padded @ (svd.singulars[:, None] * svd.w.T)
    residual = float(np.linalg.norm(full - recon)) / float(np.linalg.norm(full))
    report = verify_lemma2(snap)
    assert report.reconstruction_residual == residual
    gram = padded.T @ padded
    assert report.orthonormality_deviation == float(
        np.max(np.abs(gram - np.eye(gram.shape[0])))
    )


def test_mdeim_reference_retries_gesvd_on_an_intact_triangle(
    small_snap, monkeypatch
):
    # gesdd fails on the triangle R of the padded matrix: gesvd factors the
    # same, intact R, and the padded matrix is built and factored once
    _, snap = small_snap
    m = 8
    svd = scipy.linalg.svd
    calls = []

    def gesvd_only(a, *args, lapack_driver="gesdd", **kwargs):
        return svd(a, *args, lapack_driver="gesvd", **kwargs)

    monkeypatch.setattr(scipy.linalg, "svd", gesvd_only)
    expect = build_mdeim_reference(snap, m)

    def fake(a, *args, lapack_driver="gesdd", **kwargs):
        calls.append((lapack_driver, a.copy()))
        if lapack_driver == "gesdd":
            raise np.linalg.LinAlgError("SVD did not converge")
        return svd(a, *args, lapack_driver=lapack_driver, **kwargs)

    built = []
    vectorized = japprox._vectorized

    def counted(*args):
        built.append(args[1])
        return vectorized(*args)

    monkeypatch.setattr(scipy.linalg, "svd", fake)
    monkeypatch.setattr(japprox, "_vectorized", counted)
    got = build_mdeim_reference(snap, m)
    assert built == ["F"]
    assert [driver for driver, _ in calls] == ["gesdd", "gesvd"]
    assert calls[0][1].shape == (snap.n_cols, snap.n_cols)
    assert np.array_equal(calls[0][1], calls[1][1])
    assert np.array_equal(got.singulars, expect.singulars)
    assert np.array_equal(got.interp.indexes, expect.interp.indexes)
    assert np.array_equal(got.interp.projector, expect.interp.projector)


def test_vectorized_coordinates_decode_column_major(small_snap):
    _, snap = small_snap
    ref = build_mdeim_reference(snap, 5)
    n = snap.pattern.n
    lin = ref.interp.indexes
    assert np.array_equal(ref.sample_rows, lin % n)
    assert np.array_equal(ref.sample_cols, lin // n)
    # reference samples land inside the pattern (Jacobian supported there)
    pos = snap.pattern.positions_of(ref.sample_rows, ref.sample_cols)
    assert np.all(pos >= 0)


def test_verify_lemma2_small(small_snap):
    _, snap = small_snap
    report = verify_lemma2(snap)
    assert report.reconstruction_residual <= 1e-12
    assert report.orthonormality_deviation <= 1e-12


def test_verify_lemma2_rank_one():
    pat = SparsityPattern(n=5, rows=np.array([1, 3]), cols=np.array([1, 3]))
    snap = SnapshotSet(
        model_id="toy", config_hash="", stage="s", dt=0.1, pattern=pat,
        states=np.zeros((5, 1)), nonlinear=np.zeros((5, 1)),
        jacobian=np.array([[2.0], [-1.0]]),
    )
    report = verify_lemma2(snap)
    assert report.reconstruction_residual <= 1e-13
    assert report.orthonormality_deviation <= 1e-13


def test_verify_lemma2_guard():
    pat = SparsityPattern(n=DEFAULT_GUARD + 1, rows=np.array([0]), cols=np.array([0]))
    snap = SnapshotSet(
        model_id="toy", config_hash="", stage="s", dt=0.1, pattern=pat,
        states=np.zeros((pat.n, 1)), nonlinear=np.zeros((pat.n, 1)),
        jacobian=np.array([[1.0]]),
    )
    with pytest.raises(MemoryGuardError):
        verify_lemma2(snap)


def test_off_pattern_perturbation_fills_singular_vectors(small_snap):
    """Round-off outside the pattern spreads through the vectorized factors.

    The gathered route is immune by construction: its factors live on the
    pattern.  Perturbing a single off-pattern entry of the materialized
    matrix at 1e-16 relative scale makes the trailing vectorized singular
    vectors dense, which is the failure mode the gathered route avoids.
    """
    _, snap = small_snap
    n = snap.pattern.n
    full = np.zeros((n * n, snap.n_cols))
    full[snap.pattern.linear, :] = snap.jacobian
    scale = np.abs(snap.jacobian).max()
    outside = next(
        q for q in range(n * n) if q not in set(snap.pattern.linear.tolist())
    )
    full[outside, :] = 1e-16 * scale
    svd = thin_svd(full)
    support = np.zeros(n * n, dtype=bool)
    support[snap.pattern.linear] = True
    nz_outside = int(np.count_nonzero(svd.u[~support, :]))
    assert nz_outside > 0
