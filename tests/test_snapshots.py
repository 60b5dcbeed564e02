"""Pattern bookkeeping and the gather/scatter pair.

The central identities: scatter is a right inverse of gather on pattern
vectors, gather recovers any matrix whose stored entries lie inside the
pattern, and the coordinate order is column-major so the linear index
col*n + row is strictly increasing.  All random cases are seeded.
"""

import numpy as np
import pytest
import scipy.sparse

from smdeim_rom.models import full_solve
from smdeim_rom.models.burgers import build_burgers
from smdeim_rom.snapshots import (
    PatternViolationError,
    SparsityPattern,
    build_pattern,
    gather,
    pattern_union,
    scatter,
)


def random_pattern(rng, n, density=0.1):
    r = max(1, int(density * n * n))
    lin = rng.choice(n * n, size=r, replace=False)
    return SparsityPattern(n=n, rows=lin % n, cols=lin // n)


def test_pattern_sorts_column_major():
    # deliberately shuffled input coordinates
    pat = SparsityPattern(n=3, rows=np.array([2, 0, 1]), cols=np.array([0, 2, 0]))
    lin = pat.cols * 3 + pat.rows
    assert np.all(np.diff(lin) > 0)
    assert np.array_equal(pat.linear, lin)


def test_pattern_rejects_duplicates_and_range():
    with pytest.raises(ValueError):
        SparsityPattern(n=3, rows=np.array([1, 1]), cols=np.array([2, 2]))
    with pytest.raises(ValueError):
        SparsityPattern(n=3, rows=np.array([3]), cols=np.array([0]))


def test_positions_of_round_trip(rng):
    pat = random_pattern(rng, 17, density=0.2)
    pos = pat.positions_of(pat.rows, pat.cols)
    assert np.array_equal(pos, np.arange(pat.r))
    # a coordinate outside the pattern maps to -1
    all_lin = set(pat.linear.tolist())
    missing = next(q for q in range(17 * 17) if q not in all_lin)
    assert pat.positions_of([missing % 17], [missing // 17])[0] == -1


def test_build_pattern_keeps_stored_zeros():
    mat = scipy.sparse.csr_matrix(
        (np.array([0.0, 2.0]), (np.array([0, 1]), np.array([0, 1]))), shape=(2, 2)
    )
    pat = build_pattern(mat)
    assert pat.r == 2  # the explicit zero is structural


def test_build_pattern_small_example():
    mat = scipy.sparse.csr_matrix(np.array([[1.0, 0.0], [2.0, 3.0]]))
    pat = build_pattern(mat)
    coords = list(zip(pat.rows.tolist(), pat.cols.tolist()))
    assert coords == [(0, 0), (1, 0), (1, 1)]


def test_build_pattern_identity():
    pat = build_pattern(scipy.sparse.identity(4, format="csr"))
    assert pat.r == 4
    assert np.array_equal(pat.rows, pat.cols)


def test_build_pattern_requires_square():
    with pytest.raises(ValueError):
        build_pattern(scipy.sparse.csr_matrix((2, 3)))


def test_gather_scatter_round_trip_exact(rng):
    for n in (5, 23, 64):
        pat = random_pattern(rng, n, density=0.15)
        vals = rng.standard_normal(pat.r)
        assert np.array_equal(gather(scatter(vals, pat), pat), vals)


def test_scatter_gather_recovers_matrix(rng):
    n = 31
    pat = random_pattern(rng, n, density=0.1)
    vals = rng.standard_normal(pat.r)
    mat = scatter(vals, pat)
    rebuilt = scatter(gather(mat, pat), pat)
    assert (mat != rebuilt).nnz == 0


def test_gather_pads_missing_coordinates_with_zero():
    pat = SparsityPattern(n=2, rows=np.array([0, 1]), cols=np.array([0, 1]))
    mat = scipy.sparse.csr_matrix(
        (np.array([5.0]), (np.array([0]), np.array([0]))), shape=(2, 2)
    )
    assert np.array_equal(gather(mat, pat), np.array([5.0, 0.0]))


def test_gather_rejects_entry_outside_pattern():
    pat = SparsityPattern(n=2, rows=np.array([0]), cols=np.array([0]))
    mat = scipy.sparse.csr_matrix(np.array([[1.0, 0.0], [0.0, 7.0]]))
    with pytest.raises(PatternViolationError) as err:
        gather(mat, pat)
    assert "row=1" in str(err.value) and "col=1" in str(err.value)


def test_scatter_validates_length():
    pat = SparsityPattern(n=2, rows=np.array([0]), cols=np.array([0]))
    with pytest.raises(ValueError):
        scatter(np.zeros(2), pat)


def test_pattern_union_merges_and_checks_dimension(rng):
    a = random_pattern(rng, 12, density=0.1)
    b = random_pattern(rng, 12, density=0.1)
    u = pattern_union(a, b)
    assert set(u.linear.tolist()) == set(a.linear.tolist()) | set(b.linear.tolist())
    with pytest.raises(ValueError):
        pattern_union(a, random_pattern(rng, 13))


def test_pattern_equality_is_structural():
    a = SparsityPattern(n=3, rows=np.array([0, 2]), cols=np.array([1, 2]))
    b = SparsityPattern(n=3, rows=np.array([2, 0]), cols=np.array([2, 1]))
    assert a == b
    c = SparsityPattern(n=3, rows=np.array([0]), cols=np.array([1]))
    assert a != c


def test_snapshot_set_validate_catches_mismatches(burgers51):
    snap = burgers51.snaps[0]
    snap.validate()
    bad = type(snap)(
        model_id=snap.model_id,
        config_hash=snap.config_hash,
        stage=snap.stage,
        dt=snap.dt,
        pattern=snap.pattern,
        states=snap.states,
        nonlinear=snap.nonlinear[:, :-1],
        jacobian=snap.jacobian,
    )
    with pytest.raises(ValueError):
        bad.validate()


def test_collect_snapshots_single_stage_conventions():
    model = build_burgers(n=21, n_t=5)
    _, _, sets = full_solve(model, 5)
    assert len(sets) == 1
    snap = sets[0]
    # initial state plus one column per implicit step; 19 interior unknowns
    assert snap.states.shape == (19, 5)
    assert np.array_equal(snap.states[:, 0], model.initial_state)
    assert snap.dt == model.dt
    # gathered Jacobian columns evaluate the stage operator at the states
    op = model.stages[0].op
    for j in range(snap.n_cols):
        expect = gather(op.jacobian(snap.states[:, j]), snap.pattern)
        assert np.array_equal(snap.jacobian[:, j], expect)
        assert np.allclose(
            snap.nonlinear[:, j], op.nonlinear_term(snap.states[:, j]), atol=1e-14
        )


def test_collect_snapshots_matches_full_solve_trajectory():
    model = build_burgers(n=21, n_t=6)
    traj, _, sets = full_solve(model, 6)
    assert np.array_equal(sets[0].states, traj)
