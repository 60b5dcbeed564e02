"""The full-order Newton solve on its fixed sparsity pattern.

`full_solve` factors I - c J(x) as an RCM-ordered LAPACK band laid out once
per stage (linalg.BandTemplate).  Its oracle is SuperLU, kept here only:
`scipy.sparse.linalg.splu` of the assembled (I - c J).tocsc(), both for one
Newton matrix at a time and inside a whole run of the shared stage loop.
"""

import functools

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import given
from hypothesis import strategies as st

from smdeim_rom.linalg import (
    BAND_LIMIT,
    BandTemplate,
    BandTooWideError,
    SingularMatrixError,
)
from smdeim_rom.models import FullModel, ImplicitStage, QuadraticOperator, full_solve
from smdeim_rom.models.burgers import build_burgers
from smdeim_rom.models.swe import build_swe
from smdeim_rom.stats import integrate


def splu_solve(op, coef, x, b):
    """Oracle: SuperLU of the assembled Newton matrix I - coef J(x)."""
    eye = scipy.sparse.identity(op.n, format="csr")
    return scipy.sparse.linalg.splu((eye - coef * op.jacobian(x)).tocsc()).solve(b)


def splu_full_solve(model, n_t, tol=1e-10, cap=50):
    """Oracle: the full-order run with a SuperLU factorization per iteration."""

    def newton_step(op, coef, x, residual):
        return splu_solve(op, coef, x, -residual)

    stages = []
    for stage in model.stages:
        coef = stage.fraction * model.dt
        explicit = stage.explicit.rhs if stage.explicit is not None else None
        stages.append((stage.name, coef, stage.op.rhs, explicit,
                       functools.partial(newton_step, stage.op, coef)))
    trajectory, stats, _ = integrate(model.initial_state, n_t, stages, tol, cap)
    return trajectory, stats


def band_of(op):
    return BandTemplate(op.n, op.pattern.rows, op.pattern.cols)


def relative_gap(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


@pytest.fixture(scope="module")
def small_runs():
    models = (build_burgers(n=21, n_t=41), build_swe(9, 7, n_t=21))
    return [(model, full_solve(model)[2]) for model in models]


def test_band_solve_matches_splu_along_trajectories(
    small_runs, burgers201, swe_run, rng
):
    cases = small_runs + [
        (run.model, run.snaps) for run in (burgers201, swe_run)
    ]
    for model, snaps in cases:
        for stage, snap in zip(model.stages, snaps):
            band = band_of(stage.op)
            coef = stage.fraction * model.dt
            cols = snap.states.shape[1]
            for j in (0, 1, cols // 2, cols - 1):
                x = snap.states[:, j]
                b = rng.standard_normal(model.n)
                want = splu_solve(stage.op, coef, x, b)
                got = band.solve(coef, stage.op.jacobian_values(x), b)
                assert relative_gap(got, want) <= 1e-12


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_burgers(n=21, n_t=41),
        lambda: build_burgers(n=201),
        lambda: build_swe(9, 7, n_t=21),
        lambda: build_swe(),
    ],
    ids=["burgers-21", "burgers-201", "swe-9x7", "swe-21x15"],
)
def test_full_solve_matches_splu_run(build):
    model = build()
    trajectory, stats, _ = full_solve(model)
    want, want_stats = splu_full_solve(model, model.default_n_t)
    assert stats.iterations == want_stats.iterations
    assert np.max(np.abs(trajectory - want)) <= 1e-12 * np.max(np.abs(want))


def test_stage_bands_are_narrow():
    # RCM half-bandwidths of the benchmark operators do not grow with n
    for model in (build_burgers(n=201), build_burgers(n=2001)):
        band = band_of(model.stages[0].op)
        assert (band.kl, band.ku) == (1, 1)
    for model in (build_swe(), build_swe(41, 31)):
        widths = [(b.kl, b.ku) for b in map(band_of, (s.op for s in model.stages))]
        assert widths == [(9, 9), (5, 5)]


@st.composite
def small_operators(draw):
    """Random quadratic operators small enough to lie under the band limit."""
    n = draw(st.integers(1, 30))
    pairs = draw(st.integers(0, 3))
    density = draw(st.floats(0.02, 0.5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def factor():
        return scipy.sparse.random(n, n, density=density, format="csr", rng=rng)

    op = QuadraticOperator(factor(), [(factor(), factor()) for _ in range(pairs)])
    return op, rng


@given(case=small_operators())
def test_band_solve_matches_splu_on_random_operators(case):
    op, rng = case
    x = rng.standard_normal(op.n)
    b = rng.standard_normal(op.n)
    # keep I - c J well conditioned, so both solvers are accurate
    scale = float(np.abs(op.jacobian(x).toarray()).sum(axis=1).max())
    coef = 0.5 / max(scale, 1.0)
    got = band_of(op).solve(coef, op.jacobian_values(x), b)
    want = splu_solve(op, coef, x, b)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_band_limit_is_inclusive():
    n = 3 * (BAND_LIMIT + 2)
    i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    inside = np.abs(i - j) <= BAND_LIMIT
    band = BandTemplate(n, i[inside], j[inside])
    assert (band.kl, band.ku) == (BAND_LIMIT, BAND_LIMIT)
    wider = np.abs(i - j) <= BAND_LIMIT + 1
    with pytest.raises(BandTooWideError):
        BandTemplate(n, i[wider], j[wider])


def arrow_operator(n):
    # one unknown coupled to all others: every ordering keeps a wide band
    hub = np.zeros(n - 1, dtype=np.int64)
    spokes = np.arange(1, n)
    rows = np.concatenate((hub, spokes, np.arange(n)))
    cols = np.concatenate((spokes, hub, np.arange(n)))
    linear = scipy.sparse.csr_matrix((-np.ones(rows.size), (rows, cols)), shape=(n, n))
    return QuadraticOperator(linear, [])


def test_operator_wider_than_limit_is_refused():
    n = 300
    op = arrow_operator(n)
    with pytest.raises(BandTooWideError) as err:
        band_of(op)
    assert err.value.n == n
    assert max(err.value.kl, err.value.ku) > BAND_LIMIT
    for part in (f"kl={err.value.kl}", f"ku={err.value.ku}", f"{n}x{n}"):
        assert part in str(err.value)
    model = FullModel(
        model_id="arrow", config_hash="0" * 16, n=n, dt=0.1, default_n_t=3,
        initial_state=np.ones(n), stages=[ImplicitStage("step", op)],
    )
    with pytest.raises(BandTooWideError):
        full_solve(model)


def test_zero_pivot_raises_singular_matrix_error():
    band = BandTemplate(3, np.arange(3), np.arange(3))
    # I - 1.0 * diag(1, 0.5, 0.5) has an exactly zero entry on its diagonal
    with pytest.raises(SingularMatrixError) as err:
        band.solve(1.0, np.array([1.0, 0.5, 0.5]), np.ones(3))
    assert err.value.pivot_value == 0.0
    assert f"pivot {err.value.pivot_index}" in str(err.value)


def test_non_finite_pivot_raises_singular_matrix_error():
    op = build_burgers(n=21, n_t=5).stages[0].op
    band = band_of(op)
    values = op.jacobian_values(np.ones(op.n))
    values[7] = np.nan
    with pytest.raises(SingularMatrixError) as err:
        band.solve(0.01, values, np.ones(op.n))
    assert not np.isfinite(err.value.pivot_value)
