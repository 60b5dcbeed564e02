"""Sampling plans: exact agreement with assembled Jacobian entries, the
sample mesh, rejection of coordinates outside the operator, and the
persisted sampled strategies.

The operators are Burgers, both shallow water stages and a random quadratic
operator whose rows are wide enough that a change in summation order would
show.

Oracles: `jacobian_values` (assembled entries at the pattern coordinates,
0.0 elsewhere) and the assembled Jacobian of the operator with its linear
part removed.  Every comparison is exact (np.array_equal): the plan adds the
same products in the same order as the assembled route.  `reduced_linear`
is checked against its former per-pair formula, kept here, within the
rounding bound of their summed absolute terms.
"""

import re

import numpy as np
import pytest
import scipy.sparse
from hypothesis import example, given
from hypothesis import strategies as st

from smdeim_rom import io as artifact_io
from smdeim_rom.models import full_solve
from smdeim_rom.models.burgers import build_burgers
from smdeim_rom.models.quadratic import QuadraticOperator
from smdeim_rom.models.swe import build_swe
from smdeim_rom.pod import pod_basis
from smdeim_rom.rom import reduce_model



def random_operator(n=40, pairs=3, density=0.12, seed=7):
    """Dense-ish random factors with overlapping patterns and wide rows, so
    that the order in which products are summed shows in the result."""
    rng = np.random.default_rng(seed)

    def factor():
        return scipy.sparse.random(n, n, density=density, format="csr", rng=rng)

    return QuadraticOperator(factor(), [(factor(), factor()) for _ in range(pairs)])


_SWE = build_swe()
OPS = {
    "burgers": build_burgers(n=31, n_t=5).stages[0].op,
    "swe-x": _SWE.stages[0].op,
    "swe-y": _SWE.stages[1].op,
    "random": random_operator(),
}


def expected_entries(op, x, rows, cols):
    """Assembled Jacobian values at (rows, cols), 0.0 off the pattern."""
    pos = op.pattern.positions_of(rows, cols)
    full = op.jacobian_values(x)
    return np.where(pos >= 0, full[np.maximum(pos, 0)], 0.0)


@st.composite
def coordinates(draw, op):
    """Coordinate lists mixing pattern, arbitrary and repeated coordinates."""
    n = op.n
    index = st.integers(0, n - 1)
    on = draw(st.lists(st.integers(0, op.pattern.r - 1), max_size=12))
    off = draw(st.lists(st.tuples(index, index), max_size=12))
    rows = [int(op.pattern.rows[p]) for p in on] + [a for a, _ in off]
    cols = [int(op.pattern.cols[p]) for p in on] + [b for _, b in off]
    repeats = draw(st.lists(st.integers(0, max(len(rows) - 1, 0)), max_size=4))
    if rows:
        rows += [rows[q] for q in repeats]
        cols += [cols[q] for q in repeats]
    order = draw(st.permutations(range(len(rows))))
    return (np.array([rows[q] for q in order], dtype=np.int64),
            np.array([cols[q] for q in order], dtype=np.int64))


def state(op, seed):
    return np.random.default_rng(seed).standard_normal(op.n)


@pytest.mark.parametrize("name", sorted(OPS))
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_plan_equals_assembled_entries(name, data, seed):
    op = OPS[name]
    rows, cols = data.draw(coordinates(op))
    x = state(op, seed)
    want = expected_entries(op, x, rows, cols)
    plan = op.sampling_plan(rows, cols)
    assert np.array_equal(plan.apply(x[plan.mesh]), want)
    assert np.array_equal(op.sample_jacobian(x, rows, cols), want)


@pytest.mark.parametrize("name", sorted(OPS))
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_sample_nl_rows_equals_assembled_nonlinear_rows(name, data, seed):
    op = OPS[name]
    row_ids = np.array(
        data.draw(st.lists(st.integers(0, op.n - 1), max_size=10)), dtype=np.int64
    )
    x = state(op, seed)
    nonlinear = QuadraticOperator(scipy.sparse.csr_matrix((op.n, op.n)), op.pairs)
    want = nonlinear.jacobian(x).toarray()[row_ids]
    got = op.sample_nl_rows(x, row_ids)
    assert got.shape == (row_ids.size, op.n)
    assert np.array_equal(got.toarray(), want)


@pytest.mark.parametrize("name", sorted(OPS))
@given(data=st.data())
def test_whole_row_plan_reads_its_columns_on_the_mesh(name, data):
    # the deim strategy looks the sampled columns up in the mesh; a whole
    # row reads both factor rows of every pair supported there, and those
    # read exactly the row's columns
    op = OPS[name]
    row_ids = data.draw(st.lists(st.integers(0, op.n - 1), max_size=10))
    plan, _ = op.nl_row_plan(row_ids)
    assert np.isin(plan.cols, plan.mesh).all()
    assert np.array_equal(plan.mesh, np.unique(plan.cols))


def per_pair_reduced_linear(op, u, mean):
    """U^T J(mean) U term by term: the projected linear part, then the two
    derivative terms of each pair frozen at the mean."""
    out = u.T @ (op.linear @ u)
    if np.any(mean):
        for g, h in op.pairs:
            gm = g @ mean
            hm = h @ mean
            out += u.T @ (gm[:, None] * (h @ u))
            out += u.T @ (hm[:, None] * (g @ u))
    return out


def reduced_linear_rounding_bound(op, u, mean):
    """1e-13 |U|^T (|L| + sum_t |diag(G_t m)| |H_t| + |diag(H_t m)| |G_t|) |U|,
    elementwise: the summed absolute terms of U^T J(mean) U, the scale of
    the rounding error of both formulas whatever their terms cancel to."""
    total = abs(op.linear)
    for g, h in op.pairs:
        total = total + scipy.sparse.diags(np.abs(g @ mean)) @ abs(h)
        total = total + scipy.sparse.diags(np.abs(h @ mean)) @ abs(g)
    au = np.abs(u)
    return 1e-13 * (au.T @ (total @ au))


@pytest.mark.parametrize("name", sorted(OPS))
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 6))
@example(seed=79084834, k=1)  # swe-y: the terms cancel to 1e-4 of their sum
def test_reduced_linear_equals_the_per_pair_formula(name, seed, k):
    op = OPS[name]
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((op.n, k))
    zero = np.zeros(op.n)
    want = per_pair_reduced_linear(op, u, zero)
    assert np.array_equal(op.reduced_linear(u, zero), want)
    mean = rng.standard_normal(op.n)
    want = per_pair_reduced_linear(op, u, mean)
    got = op.reduced_linear(u, mean)
    assert np.all(np.abs(got - want) <= reduced_linear_rounding_bound(op, u, mean))


@given(rows=st.lists(st.integers(1, 197), min_size=1, max_size=30))
def test_sample_mesh_size_does_not_grow_with_n(rows):
    # interior rows of the smaller grid are interior rows of the larger one
    sizes = []
    for n in (201, 501):
        op = build_burgers(n=n, n_t=5).stages[0].op
        sizes.append(op.sampling_plan(rows, rows).mesh.size)
    assert sizes[0] == sizes[1]


def test_mesh_holds_exactly_the_columns_read():
    op = OPS["burgers"]
    plan = op.sampling_plan([0, 5, 5, 28], [0, 4, 6, 27])
    # Burgers has the single pair (G, H) = (-I, Ax), and the entry at (a, b)
    # reads row a of G where H[a, b] is stored and row a of H where G[a, b]
    # is: (0, 0) reads H row 0, which reads column 1; (5, 4) and (5, 6) read
    # G row 5, column 5; (28, 27) reads G row 28, column 28
    assert plan.mesh.tolist() == [1, 5, 28]
    assert plan.m == 4
    assert plan.flops == 4 * op._sample_charge


@pytest.mark.parametrize(
    "rows, cols, shown",
    [([-1], [28], "(-1, 28)"), ([3], [29 + 5], "(3, 34)"), ([29], [0], "(29, 0)"),
     ([0, 2, 7], [0, -3, 7], "(2, -3)")],
)
def test_sample_coordinates_outside_the_operator_are_rejected(rows, cols, shown):
    op = OPS["burgers"]
    assert op.n == 29
    x = state(op, 0)
    with pytest.raises(ValueError, match=re.escape(f"coordinate {shown} ")):
        op.sample_jacobian(x, rows, cols)
    with pytest.raises(ValueError, match="outside"):
        op.sampling_plan(rows, cols)


@pytest.mark.parametrize("row_ids", [[-1], [29], [4, 30]])
def test_sampled_rows_outside_the_operator_are_rejected(row_ids):
    op = OPS["burgers"]
    with pytest.raises(ValueError, match=rf"row {row_ids[-1]} "):
        op.sample_nl_rows(state(op, 0), row_ids)


def test_empty_samples():
    op = OPS["swe-x"]
    x = state(op, 1)
    assert op.sample_jacobian(x, [], []).shape == (0,)
    assert op.sample_nl_rows(x, []).shape == (0, op.n)


@pytest.fixture(scope="module")
def burgers_parts():
    model = build_burgers(n=31, n_t=21)
    _, _, snaps = full_solve(model, 21)
    basis = pod_basis(snaps[0].states, gamma=1.0, k_max=5, centered=True)
    return model, snaps, basis


@pytest.mark.parametrize("strategy", ["deim", "smdeim", "mdeim-reference"])
def test_sampled_strategies_lift_only_the_mesh(burgers_parts, strategy):
    model, snaps, basis = burgers_parts
    rm = reduce_model(model, basis, strategy, snapshots=snaps, m=6)
    jac = rm.stages[0].jacobian
    assert jac.needs_lift is False
    assert jac.plan.mesh.size < model.n
    for col in (0, 7, 20):
        xt = basis.project(snaps[0].states[:, col])
        # the full lift restricted to the mesh gives the same state up to
        # the order of the lift's sums
        got = jac.evaluate(xt)
        full = jac.evaluate(xt, basis.lift(xt))
        assert np.max(np.abs(got - full)) <= 1e-12 * max(1.0, np.abs(full).max())


@pytest.mark.parametrize("strategy", ["deim", "smdeim", "mdeim-reference"])
def test_sampled_strategy_round_trip_is_bit_exact(tmp_path, burgers_parts, strategy):
    model, snaps, basis = burgers_parts
    rm = reduce_model(model, basis, strategy, snapshots=snaps, m=6)
    path = tmp_path / f"{strategy}.bin"
    artifact_io.save_snapshots(path, snaps[0])
    artifact_io.save_reduced_model(path, rm)
    back = artifact_io.load_reduced_model(path, model)
    fresh, loaded = rm.stages[0].jacobian, back.stages[0].jacobian
    assert np.array_equal(loaded.plan.mesh, fresh.plan.mesh)
    for col in (0, 7, 20):
        xt = basis.project(snaps[0].states[:, col])
        assert np.array_equal(loaded.evaluate(xt, None), fresh.evaluate(xt, None))
    # the loaded model writes the same bytes, and the stage payload, the
    # file's last, still ends with the persisted products in their
    # documented order
    again = tmp_path / f"{strategy}-again.bin"
    artifact_io.save_snapshots(again, snaps[0])
    artifact_io.save_reduced_model(again, back)
    raw = path.read_bytes()
    assert again.read_bytes() == raw
    # each array as its C order flag and values: the products are row-major
    if strategy == "deim":
        tail = [np.asarray(fresh.indexes, "<u8"), np.asarray(fresh.left, "<f8"),
                np.asarray(fresh.lin_reduced, "<f8")]
    else:
        tail = [np.asarray(fresh.reducer, "<f8"), np.asarray(fresh.sample_rows, "<u8"),
                np.asarray(fresh.sample_cols, "<u8")]
    assert all(a.flags.c_contiguous for a in tail)
    assert raw.endswith(b"".join(b"C" + a.tobytes() for a in tail))
