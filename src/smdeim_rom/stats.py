"""The Newton stage loop and the iteration statistics shared by the
full-order and reduced solvers."""

import time
from dataclasses import dataclass, field

import numpy as np

from .linalg import SingularMatrixError

__all__ = ["NewtonStats", "NewtonConvergenceError", "integrate"]


class NewtonConvergenceError(RuntimeError):
    """A Newton stage solve failed: it hit the iteration cap, its residual
    turned non-finite, or its linear solve broke down (then `reason` names
    the cause and the exception is chained from it)."""

    def __init__(self, step, stage, residual, iterations, reason=None):
        self.step = step
        self.stage = stage
        self.residual = residual
        self.iterations = iterations
        detail = (
            f"linear solve failed at iteration {iterations}: {reason}"
            if reason
            else f"residual {residual:.3e} after {iterations} iterations"
        )
        super().__init__(
            f"Newton did not converge at step {step}"
            + (f" (stage {stage!r})" if stage else "")
            + f": {detail}"
        )


@dataclass
class NewtonStats:
    """Per-solve iteration counts and residual histories for one run.

    One entry per implicit solve: single-stage models do one solve per step,
    the alternating-direction model does two.  failures lists
    (step, stage, final_residual) for solves that failed when the run
    was configured to continue past them.
    """

    iterations: list = field(default_factory=list)
    residual_norms: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    offline_seconds: float = 0.0
    online_seconds: float = 0.0
    meta: dict = field(default_factory=dict)

    @property
    def mean_iterations(self):
        if not self.iterations:
            return 0.0
        return float(np.mean(self.iterations))

    @property
    def total_solves(self):
        return len(self.iterations)


def integrate(x0, n_t, stages, tol, cap, continue_on_failure=False):
    """Advance x0 over n_t time points, solving each step's stages in order.

    Stage (name, coef, rhs, explicit_rhs, newton_step) solves x - b -
    coef rhs(x) = 0 with b = x_in + coef explicit_rhs(x_in) for the state
    x_in entering it (b = x_in without explicit_rhs), by Newton updates
    newton_step(x, residual) starting from x0.  A solve makes at least one
    update and stops once the residual is at most tol.  At cap updates or a
    non-finite residual it fails: NewtonConvergenceError, or with
    continue_on_failure an entry in stats.failures and the run goes on.  A
    SuperLU RuntimeError or SingularMatrixError from newton_step always
    raises NewtonConvergenceError, chained from the cause.

    Returns (trajectory, stats, outputs): trajectory is (len(x0), n_t) with
    x0 in column 0; outputs lists every stage solution in solve order.
    """
    if n_t < 1:
        raise ValueError("n_t must be at least 1")
    x = x_init = np.array(x0, dtype=np.float64, copy=True)
    trajectory = np.empty((x.size, n_t))
    trajectory[:, 0] = x
    stats = NewtonStats()
    outputs = []
    t_start = time.perf_counter()
    for step in range(1, n_t):
        for name, coef, rhs, explicit_rhs, newton_step in stages:
            b = x if explicit_rhs is None else x + coef * explicit_rhs(x)
            x = x_init
            residual = x - b - coef * rhs(x)
            norms = []
            while True:
                try:
                    delta = newton_step(x, residual)
                except (RuntimeError, SingularMatrixError) as exc:
                    raise NewtonConvergenceError(
                        step, name, float(np.linalg.norm(residual)),
                        len(norms) + 1, reason=str(exc),
                    ) from exc
                x = x + delta
                residual = x - b - coef * rhs(x)
                norm = float(np.linalg.norm(residual))
                norms.append(norm)
                if norm <= tol or len(norms) >= cap or not np.isfinite(norm):
                    break
            stats.iterations.append(len(norms))
            stats.residual_norms.append(norms)
            if not norm <= tol:
                if not continue_on_failure:
                    raise NewtonConvergenceError(step, name, norm, len(norms))
                stats.failures.append((step, name, norm))
            outputs.append(x)
        trajectory[:, step] = x
    stats.online_seconds = time.perf_counter() - t_start
    return trajectory, stats, outputs
