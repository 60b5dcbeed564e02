"""Shallow water model: geometry, initialization physics, stage operators,
and the alternating-direction stepping conventions.

Oracles: finite differences of the stage right-hand sides, an independent
union of the structural factor patterns, and closed-form properties of the
zonal-jet initialization (periodicity, geostrophic balance, flat-rest
degeneracy).
"""

import numpy as np
import pytest
import scipy.sparse

from smdeim_rom.models import full_solve
from smdeim_rom.models.swe import (
    CORIOLIS_BETA,
    CORIOLIS_MEAN,
    GRAVITY,
    H0,
    LENGTH_X,
    LENGTH_Y,
    build_swe,
    initial_height,
    swe_initialize,
)


def brute_pattern_size(op):
    """Structural pattern from the operator definition, assembled densely."""
    n = op.n
    mats = [op.linear]
    for g, h in op.pairs:
        g_rows = np.diff(g.indptr) > 0
        h_rows = np.diff(h.indptr) > 0
        mats.append(scipy.sparse.diags(g_rows.astype(float)) @ h)
        mats.append(scipy.sparse.diags(h_rows.astype(float)) @ g)
    acc = None
    for m in mats:
        b = m.copy()
        b.data = np.ones_like(b.data)
        acc = b if acc is None else acc + b
    return acc.nnz


def test_dimensions():
    model = build_swe(nx_points=21, ny_points=15)
    assert model.n == 3 * 19 * 13
    assert len(model.stages) == 2
    assert [st.name for st in model.stages] == ["x", "y"]
    assert all(st.fraction == 0.5 for st in model.stages)
    assert model.stages[0].explicit is model.stages[1].op
    assert model.stages[1].explicit is model.stages[0].op


@pytest.mark.parametrize("nx_p,ny_p", [(21, 15), (17, 13)])
def test_pattern_counts_match_brute_force(nx_p, ny_p):
    model = build_swe(nx_points=nx_p, ny_points=ny_p)
    nx, ny = nx_p - 2, ny_p - 2
    rx = model.stages[0].op.pattern.r
    ry = model.stages[1].op.pattern.r
    assert rx == brute_pattern_size(model.stages[0].op)
    assert ry == brute_pattern_size(model.stages[1].op)
    # closed forms: the periodic x-stage is uniform, the wall y-stage loses
    # one off-diagonal per boundary row in its pure-derivative couplings
    assert rx == 16 * nx * ny
    assert ry == 16 * nx * ny - 8 * nx


def test_default_pattern_counts():
    model = build_swe()
    assert model.stages[0].op.pattern.r == 3952
    assert model.stages[1].op.pattern.r == 3800


def test_stage_jacobians_match_central_differences(rng):
    model = build_swe(nx_points=7, ny_points=7)
    w0 = model.initial_state
    scale = np.abs(w0).max()
    h = 1e-6 * scale
    for stage in model.stages:
        op = stage.op
        w = w0 + 0.01 * scale * rng.standard_normal(model.n)
        jac = op.jacobian(w).toarray()
        fd = np.zeros_like(jac)
        for j in range(model.n):
            e = np.zeros(model.n)
            e[j] = h
            fd[:, j] = (op.rhs(w + e) - op.rhs(w - e)) / (2.0 * h)
        assert np.abs(jac - fd).max() <= 1e-5 * max(1.0, np.abs(jac).max())


def test_initial_height_formula():
    # mid-channel: tanh term vanishes, sech is 1, leaving the pure sine ridge
    y_mid = LENGTH_Y / 2.0
    xs = np.linspace(0.0, LENGTH_X, 9)
    h = initial_height(xs, y_mid)
    expect = H0 + 133.0 * np.sin(2.0 * np.pi * xs / LENGTH_X)
    assert np.allclose(h, expect, atol=1e-9)
    # periodic in x by construction
    assert initial_height(0.0, 1.0e6) == pytest.approx(
        initial_height(LENGTH_X, 1.0e6), abs=1e-9
    )


def test_flat_initialization_when_amplitudes_vanish():
    w0, info = swe_initialize(h1=0.0, h2=0.0)
    n_grid = info["nx"] * info["ny"]
    assert np.allclose(w0[:n_grid], 0.0, atol=1e-12)
    assert np.allclose(w0[n_grid : 2 * n_grid], 0.0, atol=1e-12)
    assert np.allclose(w0[2 * n_grid :], 2.0 * np.sqrt(GRAVITY * H0), atol=1e-9)


def test_initial_winds_are_geostrophic():
    w0, info = swe_initialize(nx_points=21, ny_points=15)
    xs, ys = info["xs"], info["ys"]
    nx, ny = info["nx"], info["ny"]
    hx, hy = xs[1] - xs[0], ys[1] - ys[0]
    h_full = info["h_full"]
    u = w0[: nx * ny].reshape(ny, nx)
    v = w0[nx * ny : 2 * nx * ny].reshape(ny, nx)
    phi = w0[2 * nx * ny :].reshape(ny, nx)
    for jy in range(ny):
        f = CORIOLIS_MEAN + CORIOLIS_BETA * (ys[jy + 1] - LENGTH_Y / 2.0)
        for ix in range(nx):
            dh_dy = (h_full[ix + 1, jy + 2] - h_full[ix + 1, jy]) / (2.0 * hy)
            dh_dx = (h_full[ix + 2, jy + 1] - h_full[ix, jy + 1]) / (2.0 * hx)
            assert u[jy, ix] == pytest.approx(-(GRAVITY / f) * dh_dy, rel=1e-12)
            assert v[jy, ix] == pytest.approx((GRAVITY / f) * dh_dx, rel=1e-12)
            assert phi[jy, ix] == pytest.approx(
                2.0 * np.sqrt(GRAVITY * h_full[ix + 1, jy + 1]), rel=1e-12
            )


def test_flat_rest_state_is_steady():
    model = build_swe(h1=0.0, h2=0.0, n_t=11)
    traj, stats, _ = full_solve(model, 11)
    drift = np.abs(traj - traj[:, :1]).max()
    assert drift <= 1e-10
    assert not stats.failures


def test_adi_step_matches_full_solve():
    model = build_swe(nx_points=9, ny_points=7, n_t=4)
    traj, stats, snaps = full_solve(model)
    assert len(stats.iterations) == 2 * 3
    x_stage, y_stage = model.stages
    for step in range(1, 4):
        # the recorded half and full states of this step, in solve order
        w_prev = traj[:, step - 1]
        w_half = snaps[0].states[:, 2 * step - 2]
        w_next = snaps[0].states[:, 2 * step - 1]
        for stage, w_in, w_out in ((x_stage, w_prev, w_half), (y_stage, w_half, w_next)):
            coef = stage.fraction * model.dt
            b = w_in + coef * stage.explicit.rhs(w_in)
            assert np.linalg.norm(w_out - b - coef * stage.op.rhs(w_out)) <= 1e-10
        assert np.array_equal(w_next, traj[:, step])


def test_two_stage_snapshot_conventions():
    model = build_swe(nx_points=9, ny_points=7, n_t=6)
    _, _, snaps = full_solve(model, 6)
    assert len(snaps) == 2
    x_set, y_set = snaps
    assert x_set.stage == "x" and y_set.stage == "y"
    # both intermediate states of every step are recorded, no initial column
    assert x_set.n_cols == 2 * 5 == y_set.n_cols
    for snap, stage in zip(snaps, model.stages):
        op = stage.op
        j = snap.n_cols // 2
        expect = op.jacobian_values(snap.states[:, j])
        assert np.array_equal(snap.jacobian[:, j], expect)


def test_invalid_grid_rejected():
    with pytest.raises(ValueError):
        build_swe(nx_points=4, ny_points=7)
