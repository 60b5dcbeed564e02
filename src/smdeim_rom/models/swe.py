"""Shallow water equations on a beta-plane channel, alternating-direction
implicit stepping.

State w = (u, v, phi) with phi = 2 sqrt(g h); the quasi-linear form is

    w_t = A(w) w_x + B(w) w_y + C(y) w

with A carrying the x-direction transport, B the y-direction transport, and
C the Coriolis rotation (f = f_hat + beta (y - D/2)).  The channel is
periodic in x and walled in y: v vanishes at the walls, u and phi satisfy
zero-normal-derivative conditions there.

One time step runs two Newton solves: the x-stage treats A(w) w_x + C w / 2
implicitly and the y-terms explicitly, the y-stage swaps the roles.  Both
stage functions expand into the shared quadratic operator form, with 3-point
central differences; the x-derivative wraps the interior columns as a ring
(consistent with the uniform 16 stored Jacobian entries per grid point of
the x-stage pattern), and the y-derivative folds the u/phi wall ghosts onto
the adjacent interior value while v ghosts are zero.

The initial height field is a zonal jet (hyperbolic-tangent shear plus a
sech^2-modulated sinusoidal perturbation); initial winds are in geostrophic
balance with it, via central differences of h on the full grid.
"""

import numpy as np
import scipy.sparse

from . import FullModel, ImplicitStage, QuadraticOperator, params_hash

__all__ = [
    "LENGTH_X",
    "LENGTH_Y",
    "CORIOLIS_MEAN",
    "CORIOLIS_BETA",
    "GRAVITY",
    "H0",
    "H1",
    "H2",
    "initial_height",
    "swe_initialize",
    "build_swe",
]

LENGTH_X = 6.0e6
LENGTH_Y = 4.4e6
CORIOLIS_MEAN = 1.0e-4
CORIOLIS_BETA = 1.5e-11
GRAVITY = 10.0
H0 = 2000.0
H1 = 220.0
H2 = 133.0


def initial_height(x, y, h1=H1, h2=H2):
    """Zonal jet height field; x, y broadcast in meters."""
    arg = 9.0 * (LENGTH_Y / 2.0 - y) / (2.0 * LENGTH_Y)
    sech = 1.0 / np.cosh(arg)
    return H0 + h1 * np.tanh(arg) + h2 * sech**2 * np.sin(2.0 * np.pi * x / LENGTH_X)


def swe_initialize(nx_points=21, ny_points=15, h1=H1, h2=H2):
    """Initial stacked state (u; v; phi) on the interior grid.

    Returns (w0, info) where info carries the grids and the interior shape.
    Winds are geostrophic: u = -(g/f) dh/dy, v = (g/f) dh/dx, evaluated with
    central differences of the analytic height on the full grid.
    """
    xs = np.linspace(0.0, LENGTH_X, nx_points)
    ys = np.linspace(0.0, LENGTH_Y, ny_points)
    hx = xs[1] - xs[0]
    hy = ys[1] - ys[0]
    h_full = initial_height(xs[:, None], ys[None, :], h1=h1, h2=h2)
    f_full = CORIOLIS_MEAN + CORIOLIS_BETA * (ys - LENGTH_Y / 2.0)

    dh_dy = (h_full[1:-1, 2:] - h_full[1:-1, :-2]) / (2.0 * hy)
    dh_dx = (h_full[2:, 1:-1] - h_full[:-2, 1:-1]) / (2.0 * hx)
    f_int = f_full[1:-1][None, :]
    u_int = -(GRAVITY / f_int) * dh_dy
    v_int = (GRAVITY / f_int) * dh_dx
    phi_int = 2.0 * np.sqrt(GRAVITY * h_full[1:-1, 1:-1])

    # interior arrays are (nx, ny); flatten x-fastest to match the operators
    def flat(field):
        return np.ascontiguousarray(field.T).reshape(-1)

    w0 = np.concatenate([flat(u_int), flat(v_int), flat(phi_int)])
    info = {
        "xs": xs,
        "ys": ys,
        "nx": nx_points - 2,
        "ny": ny_points - 2,
        "h_full": h_full,
        "f_interior": f_full[1:-1],
    }
    return w0, info


def _ring_derivative(m, h):
    """Central difference on a ring of m points."""
    main = np.zeros(m)
    upper = np.full(m - 1, 1.0 / (2.0 * h))
    lower = np.full(m - 1, -1.0 / (2.0 * h))
    mat = scipy.sparse.diags([lower, main, upper], offsets=[-1, 0, 1], format="lil")
    mat[0, m - 1] = -1.0 / (2.0 * h)
    mat[m - 1, 0] = 1.0 / (2.0 * h)
    return scipy.sparse.csr_matrix(mat)


def _wall_derivative(m, h, fold):
    """Central difference with wall ghosts: fold=True copies the adjacent
    interior value into the ghost (zero normal derivative), fold=False zeroes
    the ghost (wall value pinned at 0)."""
    mat = scipy.sparse.lil_matrix((m, m))
    c = 1.0 / (2.0 * h)
    for j in range(m):
        if j > 0:
            mat[j, j - 1] = -c
        elif fold:
            mat[j, j] = -c
        if j < m - 1:
            mat[j, j + 1] = c
        elif fold:
            mat[j, j] = c
    return scipy.sparse.csr_matrix(mat)


def _place(block, bi, bj, n_grid):
    """Embed an n_grid x n_grid block into the 3-variable stacked operator."""
    grid = [[None] * 3 for _ in range(3)]
    for d in range(3):
        grid[d][d] = scipy.sparse.csr_matrix((n_grid, n_grid))
    grid[bi][bj] = scipy.sparse.csr_matrix(block)
    return scipy.sparse.bmat(grid, format="csr")


def build_swe(nx_points=21, ny_points=15, dt=240.0, n_t=91, h1=H1, h2=H2):
    """Assemble the two-stage shallow water model (n = 3 (Nx-2) (Ny-2))."""
    if nx_points < 5 or ny_points < 5:
        raise ValueError("need at least 5 grid points per direction")
    nx = nx_points - 2
    ny = ny_points - 2
    n_grid = nx * ny
    hx = LENGTH_X / (nx_points - 1)
    hy = LENGTH_Y / (ny_points - 1)

    w0, info = swe_initialize(nx_points, ny_points, h1=h1, h2=h2)

    eye = scipy.sparse.identity(n_grid, format="csr")
    dx = scipy.sparse.kron(
        scipy.sparse.identity(ny), _ring_derivative(nx, hx), format="csr"
    )
    dy_fold = scipy.sparse.kron(
        _wall_derivative(ny, hy, fold=True), scipy.sparse.identity(nx), format="csr"
    )
    dy_drop = scipy.sparse.kron(
        _wall_derivative(ny, hy, fold=False), scipy.sparse.identity(nx), format="csr"
    )
    f_diag = scipy.sparse.diags(np.repeat(info["f_interior"], nx), format="csr")

    # Coriolis rotation, halved: each stage carries C w / 2
    half_c = 0.5 * (_place(f_diag, 0, 1, n_grid) - _place(f_diag, 1, 0, n_grid))

    x_pairs = [
        (-_place(eye, 0, 0, n_grid), _place(dx, 0, 0, n_grid)),
        (-0.5 * _place(eye, 0, 2, n_grid), _place(dx, 0, 2, n_grid)),
        (-_place(eye, 1, 0, n_grid), _place(dx, 1, 1, n_grid)),
        (-0.5 * _place(eye, 2, 2, n_grid), _place(dx, 2, 0, n_grid)),
        (-_place(eye, 2, 0, n_grid), _place(dx, 2, 2, n_grid)),
    ]
    y_pairs = [
        (-_place(eye, 0, 1, n_grid), _place(dy_fold, 0, 0, n_grid)),
        (-_place(eye, 1, 1, n_grid), _place(dy_drop, 1, 1, n_grid)),
        (-0.5 * _place(eye, 1, 2, n_grid), _place(dy_fold, 1, 2, n_grid)),
        (-0.5 * _place(eye, 2, 2, n_grid), _place(dy_drop, 2, 1, n_grid)),
        (-_place(eye, 2, 1, n_grid), _place(dy_fold, 2, 2, n_grid)),
    ]
    op_x = QuadraticOperator(linear=half_c, pairs=x_pairs)
    op_y = QuadraticOperator(linear=half_c.copy(), pairs=y_pairs)

    return FullModel(
        model_id=f"swe-{nx_points}x{ny_points}",
        config_hash=params_hash(
            model="swe",
            nx_points=nx_points,
            ny_points=ny_points,
            dt=dt,
            n_t=n_t,
            h1=h1,
            h2=h2,
        ),
        n=3 * n_grid,
        dt=dt,
        default_n_t=n_t,
        initial_state=w0,
        stages=[
            ImplicitStage(name="x", op=op_x, fraction=0.5, explicit=op_y),
            ImplicitStage(name="y", op=op_y, fraction=0.5, explicit=op_x),
        ],
        meta=info,
    )
