"""Pattern bookkeeping and the gather/scatter pair.

The central identities: scatter is a right inverse of gather on pattern
vectors, gather recovers any matrix whose stored entries lie inside the
pattern, and the coordinate order is column-major so the linear index
col*n + row is strictly increasing.  That order is CSC order, so the
pattern's matrix of a value vector has the pattern's rows and column
pointers as its index arrays, as copies it owns.  All random cases are
seeded.
"""

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given
from hypothesis import strategies as st

from smdeim_rom.models import full_solve
from smdeim_rom.models.burgers import build_burgers
from smdeim_rom.snapshots import (
    PatternViolationError,
    SparsityPattern,
    gather,
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


@st.composite
def coordinate_lists(draw, min_size=0):
    """(n, rows, cols): a duplicate-free coordinate list in drawn order."""
    n = draw(st.integers(1, 9))
    index = st.integers(0, n - 1)
    coords = draw(st.lists(st.tuples(index, index), min_size=min_size,
                           max_size=n * n, unique=True))
    rows = np.array([a for a, _ in coords], dtype=np.int64)
    cols = np.array([b for _, b in coords], dtype=np.int64)
    return n, rows, cols


_values = st.floats(allow_nan=False, allow_infinity=False)


@given(coordinate_lists())
def test_property_pattern_sorts_column_major(case):
    n, rows, cols = case
    pat = SparsityPattern(n=n, rows=rows, cols=cols)
    assert pat.r == rows.size
    assert np.all(np.diff(pat.linear) > 0)
    assert np.array_equal(pat.linear, pat.cols * n + pat.rows)
    assert np.array_equal(pat.linear, np.sort(cols * n + rows))


@given(coordinate_lists(min_size=1), st.data())
def test_property_pattern_rejects_duplicates(case, data):
    n, rows, cols = case
    q = data.draw(st.integers(0, rows.size - 1))
    at = data.draw(st.integers(0, rows.size))
    with pytest.raises(ValueError, match="duplicate"):
        SparsityPattern(n=n, rows=np.insert(rows, at, rows[q]),
                        cols=np.insert(cols, at, cols[q]))


@given(coordinate_lists(), st.data())
def test_property_positions_of_hits_and_misses(case, data):
    n, rows, cols = case
    pat = SparsityPattern(n=n, rows=rows, cols=cols)
    index = st.integers(0, n - 1)
    queries = data.draw(st.lists(st.tuples(index, index), max_size=12))
    q_rows = np.array([a for a, _ in queries], dtype=np.int64)
    q_cols = np.array([b for _, b in queries], dtype=np.int64)
    pos = pat.positions_of(q_rows, q_cols)
    inside = set(zip(rows.tolist(), cols.tolist()))
    hit = np.array([c in inside for c in queries], dtype=bool)
    assert np.all((pos >= 0) == hit)
    assert np.array_equal(pat.rows[pos[hit]], q_rows[hit])
    assert np.array_equal(pat.cols[pos[hit]], q_cols[hit])
    assert np.all(pos[~hit] == -1)


@given(coordinate_lists(), st.data())
def test_property_gather_and_scatter_invert_each_other(case, data):
    n, rows, cols = case
    pat = SparsityPattern(n=n, rows=rows, cols=cols)
    vals = np.array(data.draw(st.lists(_values, min_size=pat.r, max_size=pat.r)))
    assert np.array_equal(gather(scatter(vals, pat), pat), vals)
    # a matrix storing a subset of the pattern comes back entry for entry
    keep = np.array(data.draw(st.lists(st.booleans(), min_size=pat.r,
                                       max_size=pat.r)), dtype=bool)
    mat = scipy.sparse.csr_matrix(
        (vals[keep], (pat.rows[keep], pat.cols[keep])), shape=(n, n)
    )
    assert np.array_equal(scatter(gather(mat, pat), pat).toarray(), mat.toarray())


@given(coordinate_lists(), st.data())
def test_property_column_pointers_make_scatter_a_csc_matrix(case, data):
    # scatter is the pattern's CSC matrix: the pattern's rows and column
    # pointers, with the values in pattern order and no permutation
    n, rows, cols = case
    pat = SparsityPattern(n=n, rows=rows, cols=cols)
    vals = np.array(data.draw(st.lists(_values, min_size=pat.r, max_size=pat.r)))
    got = scatter(vals, pat)
    assert got.format == "csc"
    assert np.array_equal(got.indices, pat.rows)
    assert np.array_equal(got.indptr, pat.indptr)
    assert np.array_equal(got.data, vals)


@given(coordinate_lists(), st.data())
def test_property_pattern_matrix_equals_the_coo_oracle(case, data):
    # values drawn in the drawn coordinate order; a lexsort by (col, row)
    # puts them in pattern order
    n, rows, cols = case
    pat = SparsityPattern(n=n, rows=rows, cols=cols)
    drawn = np.array(data.draw(st.lists(_values, min_size=pat.r, max_size=pat.r)))
    vals = drawn[np.lexsort((rows, cols))]
    got = pat.matrix(vals)
    want = scipy.sparse.coo_matrix((drawn, (rows, cols)), shape=(n, n))
    assert got.shape == (n, n) and got.nnz == pat.r
    assert np.array_equal(got.toarray(), want.toarray())
    assert np.array_equal(pat.indptr, np.searchsorted(np.sort(cols), np.arange(n + 1)))
    assert np.array_equal(got.indptr, pat.indptr)
    for j in range(n):
        assert np.all(np.diff(got.indices[got.indptr[j]:got.indptr[j + 1]]) > 0)
    assert got.has_sorted_indices


@given(coordinate_lists(), st.data())
def test_property_pattern_matrix_owns_its_arrays(case, data):
    # editing the returned matrix's structure or values leaves the pattern
    # and the caller's values as they were
    n, rows, cols = case
    pat = SparsityPattern(n=n, rows=rows, cols=cols)
    vals = np.array(data.draw(st.lists(st.sampled_from([0.0, 1.5, -2.0]),
                                       min_size=pat.r, max_size=pat.r)))
    kept = (pat.rows.copy(), pat.cols.copy(), pat.indptr.copy(), vals.copy())
    mat = pat.matrix(vals)
    for own, theirs in ((mat.indices, pat.rows), (mat.indptr, pat.indptr),
                        (mat.data, vals)):
        assert not np.shares_memory(own, theirs)
    mat.eliminate_zeros()
    mat.data *= 3.0
    for now, before in zip((pat.rows, pat.cols, pat.indptr, vals), kept):
        assert np.array_equal(now, before)
    assert np.array_equal(pat.matrix(vals).toarray(), scatter(kept[3], pat).toarray())


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
        assert np.array_equal(snap.nonlinear[:, j], op.nonlinear_term(snap.states[:, j]))


def test_collect_snapshots_matches_full_solve_trajectory():
    model = build_burgers(n=21, n_t=6)
    traj, _, sets = full_solve(model, 6)
    assert np.array_equal(sets[0].states, traj)
