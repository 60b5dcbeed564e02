"""Full-order models and their implicit time integrators.

A model is a list of implicit stages advanced in order once per time step.
Each stage solves

    x_new - b - fraction * dt * F_imp(x_new) = 0,
    b = x_from + fraction * dt * F_exp(x_from),

by Newton iteration with the sparse stage Jacobian, in the stage loop
shared with the reduced solver (stats.integrate).  Backward Euler is the
single-stage case (fraction 1, no explicit part); the alternating-direction
scheme is two stages with fraction 1/2, each treating one coordinate
direction implicitly and the other explicitly.
"""

import functools
import hashlib
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from ..snapshots import SnapshotSet
from ..stats import integrate
from .quadratic import QuadraticOperator

__all__ = [
    "ImplicitStage",
    "FullModel",
    "QuadraticOperator",
    "full_solve",
    "params_hash",
]


def params_hash(**params):
    """Stable 16-hex-digit digest of keyword parameters."""
    text = "|".join(f"{k}={params[k]!r}" for k in sorted(params))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class ImplicitStage:
    """One implicit solve of a time step."""

    name: str
    op: QuadraticOperator
    fraction: float = 1.0
    explicit: QuadraticOperator | None = None


@dataclass
class FullModel:
    """A spatially discretized PDE with its implicit stepping scheme."""

    model_id: str
    config_hash: str
    n: int
    dt: float
    default_n_t: int
    initial_state: np.ndarray
    stages: list
    meta: dict = field(default_factory=dict)

    @property
    def single_stage(self):
        return len(self.stages) == 1


def full_solve(model, n_t=None, newton_tol=1e-10, newton_cap=50):
    """Advance the full-order model and record snapshots.

    Returns (trajectory, stats, snapshot_sets): trajectory is (n, n_t) with
    the initial state in column 0; snapshot_sets has one SnapshotSet per
    stage, each holding every recorded state along with that stage's
    nonlinear term and gathered Jacobian values at those states.  Single
    stage models record the trajectory's columns; the two-stage model
    records both intermediate states of every step.

    Every stage solve starts from the run's initial state, so per-step
    iteration counts reflect solve difficulty rather than step size and
    stay comparable across grids.  Each Newton update solves with a sparse
    LU factorization of I - fraction dt J(x).

    Raises NewtonConvergenceError (with step, stage, final residual and
    iteration count) if any stage solve fails.
    """
    if n_t is None:
        n_t = model.default_n_t
    eye = scipy.sparse.identity(model.n, format="csr")

    def newton_step(op, coef, x, residual):
        matrix = (eye - coef * op.jacobian(x)).tocsc()
        return scipy.sparse.linalg.splu(matrix).solve(-residual)

    stages = []
    for stage in model.stages:
        coef = stage.fraction * model.dt
        explicit = stage.explicit.rhs if stage.explicit is not None else None
        stages.append((stage.name, coef, stage.op.rhs, explicit,
                       functools.partial(newton_step, stage.op, coef)))
    trajectory, stats, outputs = integrate(
        model.initial_state, n_t, stages, newton_tol, newton_cap
    )

    if model.single_stage:
        outputs = list(trajectory.T)
    states = np.column_stack(outputs) if outputs else np.empty((model.n, 0))
    n_cols = states.shape[1]
    sets = []
    for stage in model.stages:
        nonlinear = np.empty((model.n, n_cols))
        jac = np.empty((stage.op.pattern.r, n_cols))
        for c in range(n_cols):
            nonlinear[:, c] = stage.op.nonlinear_term(states[:, c])
            jac[:, c] = stage.op.jacobian_values(states[:, c])
        sets.append(
            SnapshotSet(
                model_id=model.model_id,
                config_hash=model.config_hash,
                stage=stage.name,
                dt=model.dt,
                pattern=stage.op.pattern,
                states=states,
                nonlinear=nonlinear,
                jacobian=jac,
            ).validate()
        )
    return trajectory, stats, sets


from . import burgers, swe  # noqa: E402  (re-export model builders)

__all__ += ["burgers", "swe"]
