"""Full-order models and their implicit time integrators.

A model is a list of implicit stages advanced in order once per time step.
Each stage solves

    x_new - b - fraction * dt * F_imp(x_new) = 0,
    b = x_from + fraction * dt * F_exp(x_from),

by Newton iteration with the sparse stage Jacobian, in the stage loop
shared with the reduced solver (stats.integrate).  The Jacobian's sparsity
pattern never changes, so each stage orders its Newton matrix into a band
once per run and every iteration makes one banded LU solve.  Backward
Euler is the single-stage case (fraction 1, no explicit part); the
alternating-direction scheme is two stages with fraction 1/2, each treating
one coordinate direction implicitly and the other explicitly.
"""

import functools
import hashlib
from dataclasses import dataclass, field

import numpy as np

from ..linalg import BandTemplate
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

SNAPSHOT_CHUNK = 32  # state columns per block call when full_solve collects snapshots


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
    nonlinear term and gathered Jacobian values at those states, all three
    column-major.  Single stage models record the trajectory's columns; the
    two-stage model records both intermediate states of every step.

    Every stage solve starts from the run's initial state, so per-step
    iteration counts reflect solve difficulty rather than step size and
    stay comparable across grids.

    Each Newton update solves with I - fraction dt J(x) as a banded LU.  At
    the start of the run every stage's pattern (with the diagonal) is
    ordered by reverse Cuthill-McKee into a band once (linalg.BandTemplate);
    an iteration then fills the band from `jacobian_values` and makes one
    LAPACK gbsv call.  The ordered half-bandwidths are 1 for Burgers and at
    most 9 for the shallow water stages; an operator whose band is wider
    than linalg.BAND_LIMIT is refused with BandTooWideError.

    Raises NewtonConvergenceError (with step, stage, final residual and
    iteration count) if any stage solve fails; a singular or non-finite
    Newton matrix is chained as its SingularMatrixError cause.
    """
    if n_t is None:
        n_t = model.default_n_t

    def newton_step(op, band, coef, x, residual):
        return band.solve(coef, op.jacobian_values(x), -residual)

    stages = []
    for stage in model.stages:
        coef = stage.fraction * model.dt
        band = BandTemplate(model.n, stage.op.pattern.rows, stage.op.pattern.cols)
        explicit = stage.explicit.rhs if stage.explicit is not None else None
        stages.append((stage.name, coef, stage.op.rhs, explicit,
                       functools.partial(newton_step, stage.op, band, coef)))
    trajectory, stats, outputs = integrate(
        model.initial_state, n_t, stages, newton_tol, newton_cap
    )

    if model.single_stage:
        outputs = list(trajectory.T)
    # column-major, so each column chunk below is contiguous
    states = np.array(outputs).T if outputs else np.empty((model.n, 0), order="F")
    sets = []
    for stage in model.stages:
        # in column chunks, so the temporaries stay small and are reused; a
        # block call's columns equal the vector calls' bit for bit
        nonlinear = np.empty(states.shape, order="F")
        jac = np.empty((stage.op.pattern.r, states.shape[1]), order="F")
        for c in range(0, states.shape[1], SNAPSHOT_CHUNK):
            cols = slice(c, c + SNAPSHOT_CHUNK)
            nonlinear[:, cols] = stage.op.nonlinear_term(states[:, cols])
            jac[:, cols] = stage.op.jacobian_values(states[:, cols])
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
