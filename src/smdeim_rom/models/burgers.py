"""Viscous Burgers equation on [0, length] with homogeneous Dirichlet ends.

    u_t = -u u_x + mu u_xx

discretized with 3-point central differences on a uniform grid of n points;
the n-2 interior values are the unknowns and time stepping is backward
Euler.  The right-hand side fits the quadratic operator form with
L = mu * Axx and the single factor pair (-I, Ax), so the Jacobian

    J(u) = -diag(Ax u) - diag(u) Ax + mu Axx

is tridiagonal-structured: 3 stored entries per interior row, 2 in the first
and last rows, 3(n-2) - 2 in total.

The initial profile is the degree-7 polynomial bump c x^3 (1 - x)^4
(x normalized by the domain length), scaled so its grid maximum equals the
configured peak amplitude; it vanishes at both ends.  The default peak of
3.5 makes the per-step nonlinear solves substantial enough that iteration
statistics discriminate between Jacobian approximation qualities, while the
cell Reynolds number u h / mu stays below 2 on the default grid (no
odd-even oscillation from the centered convection stencil).
"""

import numpy as np
import scipy.sparse

from . import FullModel, ImplicitStage, QuadraticOperator, params_hash

__all__ = ["build_burgers", "initial_profile"]


def initial_profile(grid, length=1.0, peak=3.5):
    """Polynomial bump of degree 7 with grid maximum `peak` and zero ends."""
    xi = np.asarray(grid, dtype=np.float64) / length
    poly = xi**3 * (1.0 - xi) ** 4
    top = poly.max()
    if top <= 0.0:
        raise ValueError("grid does not intersect the open domain")
    return peak * poly / top


def build_burgers(n=201, mu=0.01, length=1.0, t_final=2.0, n_t=401, u0_peak=3.5):
    """Assemble the Burgers model for an n-point grid (n - 2 unknowns)."""
    if n < 5:
        raise ValueError("need at least 5 grid points")
    grid = np.linspace(0.0, length, n)
    interior = grid[1:-1]
    h = length / (n - 1)
    size = n - 2

    ones = np.ones(size - 1)
    ax = scipy.sparse.diags(
        [-ones / (2.0 * h), ones / (2.0 * h)], offsets=[-1, 1], format="csr"
    )
    axx = scipy.sparse.diags(
        [ones / h**2, -2.0 * np.ones(size) / h**2, ones / h**2],
        offsets=[-1, 0, 1],
        format="csr",
    )
    eye = scipy.sparse.identity(size, format="csr")
    op = QuadraticOperator(linear=mu * axx, pairs=[(-eye, ax)])

    return FullModel(
        model_id=f"burgers-n{n}",
        config_hash=params_hash(
            model="burgers", n=n, mu=mu, length=length, t_final=t_final,
            n_t=n_t, u0_peak=u0_peak,
        ),
        n=size,
        dt=t_final / (n_t - 1),
        default_n_t=n_t,
        initial_state=initial_profile(interior, length, u0_peak),
        stages=[ImplicitStage(name="step", op=op, fraction=1.0)],
        meta={"grid": grid, "mu": mu, "length": length, "t_final": t_final},
    )
