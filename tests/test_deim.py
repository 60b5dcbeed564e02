"""Greedy interpolation index selection and the interpolatory projector.

Oracle: a direct reimplementation of the greedy recursion (solve the small
system at the already-picked rows, take the largest-magnitude residual
entry).  On generic random input there are no magnitude ties, so the oracle
needs no tie handling; tie behavior itself is pinned by explicit hand-built
cases.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from smdeim_rom.deim import (
    DependentColumnsError,
    deim_error_bound,
    deim_indexes,
    deim_interpolant,
)
from smdeim_rom.linalg import thin_svd


def naive_greedy(v):
    """Reference index selection, written independently of the library."""
    d, m = v.shape
    picked = [int(np.argmax(np.abs(v[:, 0])))]
    for ell in range(1, m):
        rows = np.array(picked)
        coef = np.linalg.solve(v[np.ix_(rows, range(ell))], v[rows, ell])
        resid = v[:, ell] - v[:, :ell] @ coef
        picked.append(int(np.argmax(np.abs(resid))))
    return np.array(picked)


def test_matches_naive_greedy_on_random_bases(rng):
    for d, m in ((30, 6), (50, 12), (17, 17)):
        v = thin_svd(rng.standard_normal((d, m))).u
        assert np.array_equal(deim_indexes(v), naive_greedy(v))


def test_single_column_picks_largest_magnitude():
    v = np.array([[0.2], [-0.7], [0.5]])
    assert deim_indexes(v)[0] == 1


def test_unit_vector_first_index():
    v = np.array([[1.0], [0.0], [0.0]])
    assert deim_indexes(v)[0] == 0


def test_two_column_trace():
    # second residual is (0.5,1,0) - 0.5*(1,0,0) = (0,1,0) -> index 1
    v = np.array([[1.0, 0.5], [0.0, 1.0], [0.0, 0.0]])
    assert np.array_equal(deim_indexes(v), [0, 1])


def test_exact_tie_resolves_to_smallest_index():
    v = np.array([[0.5], [-0.5], [0.5]])
    assert deim_indexes(v)[0] == 0


def test_near_tie_within_window_resolves_to_smallest_index():
    # last-bit noise below the 1e-12 relative window must not move the pick
    v = np.array([[0.5 * (1.0 - 1e-15)], [0.5], [0.0]])
    assert deim_indexes(v)[0] == 0


def test_distinct_magnitudes_above_window_are_respected():
    v = np.array([[0.5 * (1.0 - 1e-9)], [0.5], [0.0]])
    assert deim_indexes(v)[0] == 1


def test_index_nesting(rng):
    v = thin_svd(rng.standard_normal((40, 10))).u
    full = deim_indexes(v)
    for m in (1, 4, 7):
        assert np.array_equal(deim_indexes(v[:, :m]), full[:m])


def test_indexes_are_distinct(rng):
    v = thin_svd(rng.standard_normal((25, 25))).u
    idx = deim_indexes(v)
    assert len(set(idx.tolist())) == 25


def test_dependent_column_raises_with_column_number(rng):
    base = rng.standard_normal((12, 3))
    v = np.column_stack([base, base[:, 0] + base[:, 1]])
    with pytest.raises(DependentColumnsError) as err:
        deim_indexes(v)
    assert "column 3" in str(err.value)


def test_zero_first_column_raises():
    with pytest.raises(DependentColumnsError):
        deim_indexes(np.zeros((4, 1)))


def test_shape_validation():
    with pytest.raises(ValueError):
        deim_indexes(np.zeros((3, 5)))
    with pytest.raises(ValueError):
        deim_indexes(np.zeros(3))
    with pytest.raises(ValueError):
        deim_interpolant(np.eye(4), m=5)


def test_interpolation_is_exact_at_selected_rows(rng):
    v = thin_svd(rng.standard_normal((30, 8))).u
    interp = deim_interpolant(v)
    f = rng.standard_normal(30)
    approx = interp.apply(f[interp.indexes])
    assert np.max(np.abs(approx[interp.indexes] - f[interp.indexes])) <= 1e-10


def test_in_span_vectors_reconstruct_exactly(rng):
    v = thin_svd(rng.standard_normal((30, 8))).u
    interp = deim_interpolant(v)
    f = v @ rng.standard_normal(8)
    approx = interp.apply(f[interp.indexes])
    assert np.linalg.norm(approx - f) <= 1e-12 * np.linalg.norm(f)


def test_projector_equals_definition(rng):
    v = thin_svd(rng.standard_normal((20, 5))).u
    interp = deim_interpolant(v)
    oracle = v @ np.linalg.inv(v[interp.indexes, :])
    assert np.max(np.abs(interp.projector - oracle)) <= 1e-12


def test_prefix_interpolant(rng):
    v = thin_svd(rng.standard_normal((20, 6))).u
    full = deim_interpolant(v)
    pre = deim_interpolant(v, m=3)
    assert pre.m == 3
    assert np.array_equal(pre.indexes, full.indexes[:3])


def test_apply_validates_sample_count(rng):
    v = thin_svd(rng.standard_normal((10, 3))).u
    interp = deim_interpolant(v)
    with pytest.raises(ValueError):
        interp.apply(np.zeros(4))


def test_error_bound_dominates_true_error(rng):
    v = thin_svd(rng.standard_normal((40, 6))).u
    interp = deim_interpolant(v)
    assert interp.inv_norm >= 1.0
    for _ in range(25):
        f = rng.standard_normal(40)
        err = np.linalg.norm(interp.apply(f[interp.indexes]) - f)
        assert err <= deim_error_bound(interp, f) + 1e-12 * np.linalg.norm(f)


def test_inv_norm_matches_selected_block(rng):
    v = thin_svd(rng.standard_normal((15, 4))).u
    interp = deim_interpolant(v)
    block = v[interp.indexes, :]
    oracle = 1.0 / np.linalg.svd(block, compute_uv=False)[-1]
    assert abs(interp.inv_norm - oracle) <= 1e-10 * oracle


# -- properties over random orthonormal bases (derandomized, see conftest) --


@st.composite
def orthonormal_bases(draw):
    d = draw(st.integers(1, 40))
    m = draw(st.integers(1, d))
    seed = draw(st.integers(0, 2**32 - 1))
    raw = np.random.default_rng(seed).standard_normal((d, m))
    return thin_svd(raw).u


@given(v=orthonormal_bases(), seed=st.integers(0, 2**32 - 1))
def test_property_interpolant_is_exact_at_selected_rows(v, seed):
    interp = deim_interpolant(v)
    f = np.random.default_rng(seed).standard_normal(v.shape[0])
    approx = interp.apply(f[interp.indexes])
    tol = 1e-12 * interp.inv_norm * v.shape[1] * np.linalg.norm(f)
    assert np.max(np.abs(approx[interp.indexes] - f[interp.indexes])) <= tol


@given(v=orthonormal_bases())
def test_property_stability_factor_is_at_least_one(v):
    # P^T V is a row block of a matrix with orthonormal columns, so its
    # singular values are at most 1
    assert deim_interpolant(v).inv_norm >= 1.0 - 1e-12


@given(v=orthonormal_bases())
def test_property_selection_of_a_prefix_is_a_prefix(v):
    full = deim_indexes(v)
    for m in range(1, v.shape[1] + 1):
        assert np.array_equal(deim_indexes(v[:, :m]), full[:m])
        # deim_interpolant selects on a contiguous copy of the prefix
        assert np.array_equal(deim_interpolant(v, m).indexes, full[:m])
