"""Full-space evaluation of QuadraticOperator from its stacked factors.

For a state vector, `rhs` and `nonlinear_term` take one sparse product with
the factors stacked as [G_1; H_1; G_2; ...]; `jacobian_values` takes that
product and one more with a fixed value map, for a vector or a block of
states.  The oracles below are the per-pair loops, one product per factor,
kept here only; every form must equal them bit for bit, for a state vector
and for a block of states, and the snapshot blocks `full_solve` collects in
one call must equal per-column calls.
"""

import numpy as np
import pytest
import scipy.sparse

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


@pytest.mark.parametrize("name", sorted(OPS))
def test_stacked_evaluation_equals_per_pair_loop(name, rng):
    op, x0 = OPS[name]
    block = x0[:, None] * (1.0 + 0.1 * rng.standard_normal((op.n, 6)))
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


def test_batched_snapshots_equal_per_column_collection(burgers201, swe_run):
    for run in (burgers201, swe_run):
        for stage, snap in zip(run.model.stages, run.snaps):
            for j in range(snap.n_cols):
                x = snap.states[:, j].copy()
                assert np.array_equal(snap.nonlinear[:, j], stage.op.nonlinear_term(x))
                assert np.array_equal(snap.jacobian[:, j], stage.op.jacobian_values(x))
