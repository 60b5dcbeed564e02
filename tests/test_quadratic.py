"""Full-space evaluation of QuadraticOperator from its stacked factors.

`rhs` and `nonlinear_term` take one sparse product with the support rows of
the factors stacked as [G_1[S_1]; H_1[S_1]; G_2[S_2]; ...], S_t the rows
where both G_t and H_t have entries, and add each pair's product on its
support; `jacobian_values` takes that product and one more with a fixed
value map, for a vector or a block of states.  The oracles below are the
per-pair loops over all rows, one product per factor, kept here only; every
form must equal them bit for bit, for a state vector and for a block of
states, on the model operators and on random operators whose supports have
gaps, and the snapshot blocks `full_solve` collects in one call must equal
per-column calls.
"""

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given
from hypothesis import strategies as st

from smdeim_rom.linalg import leading_singular_value
from smdeim_rom.models import QuadraticOperator
from smdeim_rom.models.burgers import build_burgers
from smdeim_rom.models.swe import build_swe


def loop_rhs(op, x):
    out = op.linear @ x
    for g, h in op.pairs:
        out = out + (g @ x) * (h @ x)
    return out


def loop_nonlinear_term(op, x):
    out = np.zeros(op.n)
    for g, h in op.pairs:
        out = out + (g @ x) * (h @ x)
    return out


def loop_jacobian_values(op, x):
    # L + sum_t diag(G_t x) H_t + diag(H_t x) G_t at the pattern coordinates,
    # with every term aligned on the whole pattern (zeros off each factor)
    rows, cols = op.pattern.rows, op.pattern.cols
    out = op.linear.toarray()[rows, cols]
    for g, h in op.pairs:
        out += (g @ x)[rows] * h.toarray()[rows, cols]
        out += (h @ x)[rows] * g.toarray()[rows, cols]
    return out


def random_operator(rng, n=40, pairs=3, density=0.12):
    def factor():
        return scipy.sparse.random(n, n, density=density, format="csr", rng=rng)

    return QuadraticOperator(factor(), [(factor(), factor()) for _ in range(pairs)])


_SWE = build_swe()
OPS = {
    "burgers": (build_burgers(n=201).stages[0].op, build_burgers(n=201).initial_state),
    "swe-x": (_SWE.stages[0].op, _SWE.initial_state),
    "swe-y": (_SWE.stages[1].op, _SWE.initial_state),
    "random": (random_operator(np.random.default_rng(3)), np.ones(40)),
}


def assert_equals_loops(op, block):
    # every evaluation of each column, and of the block, equals the loops
    for stacked, loop in (
        (op.rhs, loop_rhs),
        (op.nonlinear_term, loop_nonlinear_term),
        (op.jacobian_values, loop_jacobian_values),
    ):
        batch = stacked(block)
        for j in range(block.shape[1]):
            want = loop(op, block[:, j].copy())
            assert np.array_equal(stacked(block[:, j].copy()), want)
            assert np.array_equal(batch[:, j], want)


@pytest.mark.parametrize("name", sorted(OPS))
def test_stacked_evaluation_equals_per_pair_loop(name, rng):
    op, x0 = OPS[name]
    assert_equals_loops(op, x0[:, None] * (1.0 + 0.1 * rng.standard_normal((op.n, 6))))


def _rows_filled(rng, occupied):
    # a dense factor with entries in the occupied rows only, at least one
    # nonzero in each of them
    n = occupied.size
    dense = np.where(rng.random((n, n)) < 0.3, rng.standard_normal((n, n)), 0.0)
    dense[np.arange(n), rng.integers(n, size=n)] = rng.uniform(0.5, 2.0, n)
    dense[~occupied] = 0.0
    return dense


@st.composite
def operators(draw):
    """Random operators whose factor rows are occupied row by row.

    Supports get gaps, rows where only one factor of a pair has entries
    and operators with zero pairs; the linear part may also cover every
    factor entry, which puts the entries of a row whose partner factor is
    empty on the pattern.
    """
    n = draw(st.integers(1, 10))
    n_pairs = draw(st.integers(0, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    occupancy = st.lists(st.booleans(), min_size=n, max_size=n).map(np.array)
    pairs = [
        (_rows_filled(rng, draw(occupancy)), _rows_filled(rng, draw(occupancy)))
        for _ in range(n_pairs)
    ]
    linear = _rows_filled(rng, draw(occupancy))
    if draw(st.booleans()):
        linear = linear + sum((f != 0.0 for pair in pairs for f in pair), 0.0)
    csr = scipy.sparse.csr_matrix
    return QuadraticOperator(csr(linear), [(csr(g), csr(h)) for g, h in pairs])


@given(op=operators(), seed=st.integers(0, 2**32 - 1), width=st.integers(1, 4))
def test_property_support_rows_equal_per_pair_loop(op, seed, width):
    block = np.random.default_rng(seed).standard_normal((op.n, width))
    assert_equals_loops(op, block)


def test_support_rows_layout(rng):
    # pair 1: support {0, 3, 5} with gaps, G alone in row 2, H alone in row
    # 1, where L puts H's entry on the pattern; pair 2: support {1, 2}
    g1 = np.zeros((6, 6))
    g1[[0, 2, 3, 5], [1, 2, 4, 0]] = [1.0, 2.0, 3.0, 4.0]
    h1 = np.zeros((6, 6))
    h1[[0, 1, 3, 5], [0, 3, 3, 5]] = [5.0, 6.0, 7.0, 8.0]
    g2 = np.zeros((6, 6))
    g2[[1, 2], [2, 1]] = [0.5, 1.5]
    h2 = np.zeros((6, 6))
    h2[[1, 2, 2], [1, 0, 2]] = [2.5, 3.5, 4.5]
    linear = np.zeros((6, 6))
    linear[[1, 4], [3, 4]] = [9.0, 10.0]
    csr = scipy.sparse.csr_matrix
    op = QuadraticOperator(csr(linear), [(csr(g1), csr(h1)), (csr(g2), csr(h2))])
    (rows1, _, _), (rows2, _, _) = op._support
    assert np.array_equal(rows1, [0, 3, 5])
    assert rows2 == slice(1, 3)
    assert op._factors.shape == (2 * 3 + 2 * 2, 6)
    assert op.pattern.positions_of(np.array([1]), np.array([3]))[0] >= 0
    # the value map keeps L and the factor entries on the supports only
    assert op._values_map.nnz == 2 + (3 + 3) + (2 + 3)
    assert_equals_loops(op, rng.standard_normal((6, 3)))
    no_pairs = QuadraticOperator(csr(linear), [])
    assert_equals_loops(no_pairs, rng.standard_normal((6, 2)))


def test_factor_entries_where_the_partner_row_is_empty():
    # G has an empty row 1; H's entries in that row multiply (G x)[1] = 0,
    # lie off the pattern, and add nothing to the Jacobian
    g = scipy.sparse.csr_matrix(np.diag([1.0, 0.0, 2.0]))
    h = scipy.sparse.csr_matrix(np.arange(1.0, 10.0).reshape(3, 3))
    op = QuadraticOperator(scipy.sparse.csr_matrix((3, 3)), [(g, h)])
    x = np.array([0.5, -1.0, 2.0])
    want = np.diag(g @ x) @ h.toarray() + np.diag(h @ x) @ g.toarray()
    assert np.allclose(op.jacobian(x).toarray(), want, rtol=1e-15, atol=0.0)
    assert not np.any(op.pattern.rows == 1)


def lexsort_csr(op, x):
    # the row-major layout of J(x) before the pattern's CSC matrix: the
    # pattern values permuted into CSR order by a lexsort of the coordinates
    pat = op.pattern
    perm = np.lexsort((pat.cols, pat.rows))
    indptr = np.concatenate(([0], np.cumsum(np.bincount(pat.rows, minlength=pat.n))))
    return scipy.sparse.csr_matrix(
        (op.jacobian_values(x)[perm], pat.cols[perm], indptr), shape=(pat.n, pat.n)
    )


_BURGERS_199 = build_burgers(n=199)


@pytest.mark.parametrize("op, x0", [
    (_BURGERS_199.stages[0].op, _BURGERS_199.initial_state),
    (_SWE.stages[0].op, _SWE.initial_state),
    (_SWE.stages[1].op, _SWE.initial_state),
], ids=["burgers-199", "swe-x", "swe-y"])
def test_csc_jacobian_gives_the_bits_of_the_row_major_layout(op, x0, rng):
    # both layouts sum each row from zero in column order, so every product
    # the package takes with J has the same bits in either
    x = x0 * (1.0 + 0.1 * rng.standard_normal(op.n))
    u = np.linalg.qr(rng.standard_normal((op.n, 25)))[0]
    jac = op.jacobian(x)
    old = lexsort_csr(op, x)
    assert jac.format == "csc"
    assert np.array_equal(jac.toarray(), old.toarray())
    assert np.array_equal(u.T @ (jac @ u), u.T @ (old @ u))
    assert np.array_equal(jac @ u[:, 0], old @ u[:, 0])
    assert np.array_equal(jac.T @ u[:, 0], old.T @ u[:, 0])
    assert leading_singular_value(jac) == leading_singular_value(old)


def test_batched_snapshots_equal_per_column_collection(burgers201, swe_run):
    for run in (burgers201, swe_run):
        for stage, snap in zip(run.model.stages, run.snaps):
            for j in range(snap.n_cols):
                x = snap.states[:, j].copy()
                assert np.array_equal(snap.nonlinear[:, j], stage.op.nonlinear_term(x))
                assert np.array_equal(snap.jacobian[:, j], stage.op.jacobian_values(x))
