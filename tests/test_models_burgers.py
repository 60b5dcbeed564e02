"""Burgers discretization: operator correctness against hand-built dense
difference matrices, Jacobian consistency with finite differences of the
right-hand side, the structural pattern law, and integrator behavior.
"""

import numpy as np
import pytest

from smdeim_rom.linalg import SingularMatrixError
from smdeim_rom.models import full_solve
from smdeim_rom.models.burgers import build_burgers, initial_profile
from smdeim_rom.stats import NewtonConvergenceError


def dense_operators(n, mu, length):
    """Independent dense construction of the interior difference matrices.

    Dirichlet ends are eliminated: the state holds the n - 2 interior grid
    values, and the zero boundary values drop the first/last stencil legs.
    """
    h = length / (n - 1)
    size = n - 2
    ax = np.zeros((size, size))
    axx = np.zeros((size, size))
    for i in range(size):
        if i > 0:
            ax[i, i - 1] = -1.0 / (2.0 * h)
            axx[i, i - 1] = 1.0 / h**2
        axx[i, i] = -2.0 / h**2
        if i < size - 1:
            ax[i, i + 1] = 1.0 / (2.0 * h)
            axx[i, i + 1] = 1.0 / h**2
    return ax, mu * axx


def test_rhs_matches_dense_oracle(rng):
    n, mu, length = 11, 0.05, 1.0
    model = build_burgers(n=n, mu=mu, length=length, n_t=5)
    ax, lin = dense_operators(n, mu, length)
    op = model.stages[0].op
    assert model.n == n - 2
    for _ in range(5):
        u = rng.standard_normal(n - 2)
        expect = lin @ u - u * (ax @ u)
        assert np.allclose(op.rhs(u), expect, atol=1e-12)


def test_jacobian_matches_central_differences(rng):
    model = build_burgers(n=21, n_t=5)
    op = model.stages[0].op
    size = model.n
    h = 1e-6
    for _ in range(5):
        u = rng.standard_normal(size)
        jac = op.jacobian(u).toarray()
        fd = np.zeros_like(jac)
        for j in range(size):
            e = np.zeros(size)
            e[j] = h
            fd[:, j] = (op.rhs(u + e) - op.rhs(u - e)) / (2.0 * h)
        denom = max(1.0, np.abs(jac).max())
        assert np.abs(jac - fd).max() <= 1e-6 * denom


def test_sample_jacobian_agrees_with_assembly(rng):
    model = build_burgers(n=31, n_t=5)
    op = model.stages[0].op
    u = rng.standard_normal(model.n)
    pat = op.pattern
    sampled = op.sample_jacobian(u, pat.rows, pat.cols)
    assert np.array_equal(sampled, op.jacobian_values(u))
    # far off-diagonal coordinate is outside the tridiagonal pattern
    assert op.sample_jacobian(u, np.array([0]), np.array([model.n - 1]))[0] == 0.0


@pytest.mark.parametrize("n", [11, 51, 201])
def test_pattern_size_law(n):
    model = build_burgers(n=n, n_t=5)
    assert model.stages[0].op.pattern.r == 3 * (n - 4) + 4


def test_initial_profile_shape_and_peak():
    grid = np.linspace(0.0, 1.0, 201)
    u0 = initial_profile(grid)
    assert u0[0] == 0.0 and u0[-1] == 0.0
    assert abs(u0.max() - 3.5) <= 1e-12
    assert np.all(u0 >= 0.0)
    # x^3 (1-x)^4 peaks at x = 3/7
    assert abs(grid[np.argmax(u0)] - 3.0 / 7.0) <= 1.0 / 200.0
    scaled = initial_profile(grid, peak=1.25)
    assert abs(scaled.max() - 1.25) <= 1e-12


def test_build_uses_profile_and_records_config():
    model = build_burgers(n=41, n_t=9, u0_peak=2.0)
    interior = np.linspace(0.0, 1.0, 41)[1:-1]
    assert np.allclose(model.initial_state, initial_profile(interior, peak=2.0), atol=1e-14)
    other = build_burgers(n=41, n_t=9, u0_peak=3.0)
    assert model.config_hash != other.config_hash
    assert model.dt == pytest.approx(2.0 / 8.0)


def test_residual_zero_time_step_is_state_difference():
    # at dt = 0 the backward Euler residual is u - u_prev, already zero at
    # the previous state: one Newton update per step, state kept bit for bit
    model = build_burgers(n=21, n_t=5, t_final=0.0)
    assert model.dt == 0.0
    traj, stats, _ = full_solve(model)
    for j in range(traj.shape[1]):
        assert np.array_equal(traj[:, j], model.initial_state)
    assert stats.iterations == [1, 1, 1, 1]
    assert stats.residual_norms == [[0.0]] * 4


def test_residual_definition(burgers51):
    # every column solves the backward Euler step from the one before it
    model, traj = burgers51.model, burgers51.trajectory
    op = model.stages[0].op
    for j in range(1, traj.shape[1]):
        u, u_prev = traj[:, j], traj[:, j - 1]
        residual = u - u_prev - model.dt * op.rhs(u)
        assert np.linalg.norm(residual) <= 1e-10
    snap = burgers51.snaps[0]
    assert np.array_equal(snap.states, traj)
    for j in (0, traj.shape[1] // 2, traj.shape[1] - 1):
        assert np.array_equal(snap.jacobian[:, j], op.jacobian_values(traj[:, j]))


def test_solution_dissipates():
    model = build_burgers(n=101, n_t=41)
    traj, stats, _ = full_solve(model, 41)
    assert np.all(np.isfinite(traj))
    # viscous Burgers with pinned ends loses energy over the run
    norms = np.linalg.norm(traj, axis=0)
    assert norms[-1] < norms[0]
    assert not stats.failures


def test_nan_state_raises_typed_error_from_failed_factorization():
    model = build_burgers(n=21, n_t=5)
    model.initial_state[4] = np.nan
    with pytest.raises(NewtonConvergenceError) as err:
        full_solve(model)
    assert (err.value.step, err.value.stage, err.value.iterations) == (1, "step", 1)
    assert isinstance(err.value.__cause__, SingularMatrixError)
    assert "linear solve failed at iteration 1" in str(err.value)


def test_cap_failure_reports_iterations_made():
    model = build_burgers(n=21, n_t=5)
    with pytest.raises(NewtonConvergenceError) as err:
        full_solve(model, newton_tol=0.0, newton_cap=3)
    assert (err.value.step, err.value.iterations) == (1, 3)
    assert "after 3 iterations" in str(err.value)
    with pytest.raises(ValueError):
        full_solve(model, 0)


def test_stats_shape(burgers51):
    stats = burgers51.stats
    assert len(stats.iterations) == 100
    assert len(stats.residual_norms) == 100
    assert all(norms[-1] <= 1e-10 for norms in stats.residual_norms)
    assert stats.mean_iterations == pytest.approx(
        sum(stats.iterations) / len(stats.iterations)
    )
