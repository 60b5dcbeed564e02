"""Projection-based reduced models with interchangeable Jacobian strategies.

The reduced trajectory solves, per stage,

    r(xt) = xt - b - fraction * dt * F_red(xt) = 0,
    b = xt_prev + fraction * dt * F_exp(xt_prev),

by Newton iteration on k unknowns, in the stage loop shared with the
full-order solver (stats.integrate).  The reduced nonlinearity F_red is always
evaluated through exact precomputed tensors (projected constant, linear and
quadratic parts of the operator), so every strategy converges to the same
root; the strategies differ only in how the k-by-k Newton matrix is built:

* direct-projection: assemble the full sparse Jacobian and project it.
* tensorial: contract the precomputed quadratic tensor (exact, no full
  dimension work online).
* directional-derivative: forward differences of the full right-hand side
  along the basis directions.
* deim: interpolate the nonlinear-term Jacobian from sampled rows, linear
  part projected exactly offline.
* smdeim: interpolate the full Jacobian from entries sampled at pattern
  coordinates, contracted to k-by-k offline.
* mdeim-reference: same contraction built from the guarded vectorized
  route, kept as an oracle.

Only direct-projection and directional-derivative lift the full state at
each Newton evaluation.  deim, smdeim and mdeim-reference sample through a
precomputed plan and lift only its sample mesh, the state entries the
sampled Jacobian entries read, so their online work does not grow with n;
tensorial lifts nothing.
"""

import functools
import time
from dataclasses import dataclass, field

import numpy as np

from . import instrumentation
from .jacobian_approx import RankError, build_mdeim_reference, build_smdeim
from .deim import deim_interpolant
from .linalg import solve_dense, thin_svd
from .pod import PodBasis
from .stats import integrate

__all__ = [
    "STRATEGIES",
    "TensorCore",
    "ReducedStage",
    "ReducedModel",
    "build_tensor_core",
    "reduce_model",
    "reduced_jacobian",
    "rom_solve",
]

STRATEGIES = (
    "direct-projection",
    "tensorial",
    "directional-derivative",
    "deim",
    "smdeim",
    "mdeim-reference",
)


@dataclass(frozen=True)
class TensorCore:
    """Exact reduced-space form of one quadratic operator.

    rhs(xt) = const + lin @ xt + quad contraction; jacobian(xt) is its exact
    derivative.  const and the mean contribution inside lin vanish for an
    uncentered basis.

    Both contract quad through (k^2, k) layouts built on first use, so each
    call is one matrix-vector product per term, with the same bits as
    np.tensordot over the same axes.  quad must not change after that.
    """

    const: np.ndarray
    lin: np.ndarray
    quad: np.ndarray

    @property
    def k(self):
        return int(self.lin.shape[0])

    @functools.cached_property
    def _quad_last(self):
        # row j k + l holds q[j, l, :], so a product with xt sums over p
        return self.quad.reshape(self.k * self.k, self.k)

    @functools.cached_property
    def _quad_middle(self):
        # row j k + l holds q[j, :, l]
        k = self.k
        return np.ascontiguousarray(self.quad.transpose(0, 2, 1)).reshape(k * k, k)

    def rhs(self, xt):
        qx = (self._quad_last @ xt).reshape(self.lin.shape)
        return self.const + self.lin @ xt + qx @ xt

    def jacobian(self, xt):
        term_a = (self._quad_last @ xt).reshape(self.lin.shape)
        term_b = (self._quad_middle @ xt).reshape(self.lin.shape)
        return self.lin + term_a + term_b


def build_tensor_core(op, basis):
    """Project a quadratic operator onto the basis, exactly."""
    u = basis.u
    mean = basis.mean
    const = u.T @ op.rhs(mean)
    lin = op.reduced_linear(u, mean)
    quad = op.reduced_quadratic_tensor(u)
    return TensorCore(const=const, lin=lin, quad=quad)


class TensorialJacobian:
    needs_lift = False

    def __init__(self, core):
        self.core = core

    def evaluate(self, xt, x_full=None):
        return self.core.jacobian(xt)


class DirectProjectionJacobian:
    needs_lift = True

    def __init__(self, op, u):
        self.op = op
        self.u = u

    def evaluate(self, xt, x_full):
        return self.u.T @ (self.op.jacobian(x_full) @ self.u)


class DirectionalDerivativeJacobian:
    """Forward difference (F(x + h u_j) - F(x)) / h, projected."""

    needs_lift = True

    def __init__(self, op, u, h=0.01):
        self.op = op
        self.u = u
        self.h = float(h)

    def evaluate(self, xt, x_full):
        # one matrix rhs over the base state and the k shifted states
        states = np.empty((self.u.shape[0], self.u.shape[1] + 1))
        states[:, 0] = x_full
        states[:, 1:] = x_full[:, None] + self.h * self.u
        f = self.op.rhs(states)
        return self.u.T @ ((f[:, 1:] - f[:, :1]) / self.h)


class _SampleMesh:
    """The basis rows of a sampling plan's mesh, for lifting only those.

    lift(xt) equals basis.lift(xt)[mesh] at O(k |mesh|) cost.  A caller that
    already holds a full state passes it as x_full and its mesh entries are
    used instead.
    """

    def __init__(self, basis, mesh):
        self.mesh = mesh
        self.u = np.ascontiguousarray(basis.u[mesh])
        self.mean = basis.mean[mesh]

    def lift(self, xt, x_full=None):
        if x_full is not None:
            return x_full[self.mesh]
        return self.mean + self.u @ xt


class DeimFunctionJacobian:
    """Sampled rows of the nonlinear Jacobian through a function-snapshot
    interpolant; the linear part is projected exactly offline.  Only the
    sample mesh of the sampled rows is lifted."""

    needs_lift = False

    def __init__(self, op, basis, fn_interp, lin_reduced):
        self._setup(op, basis, fn_interp.indexes,
                    basis.u.T @ fn_interp.projector, lin_reduced)

    @classmethod
    def from_parts(cls, op, basis, indexes, left, lin_reduced):
        """Rebuild from persisted offline products."""
        obj = cls.__new__(cls)
        obj._setup(op, basis, indexes, left, lin_reduced)
        return obj

    def _setup(self, op, basis, indexes, left, lin_reduced):
        self.op = op
        self.indexes = indexes
        self.left = left
        self.lin_reduced = lin_reduced
        self.plan, indptr = op.nl_row_plan(indexes)
        self.sample_mesh = _SampleMesh(basis, self.plan.mesh)
        # (rows @ u) of the sampled CSR rows, as a padded (width, m) layout:
        # entry w of row i is plan value take[w, i] (index m reads a 0) and
        # multiplies the basis row u_taken[w, i]
        counts = np.diff(indptr)
        offs = np.arange(int(counts.max(initial=0)))[:, None]
        self._take = np.where(offs < counts, indptr[:-1] + offs, self.plan.m)
        mesh_cols = np.append(np.searchsorted(self.plan.mesh, self.plan.cols), 0)
        self._u_taken = self.sample_mesh.u[mesh_cols[self._take]]

    def evaluate(self, xt, x_full=None):
        vals = np.append(self.plan.apply(self.sample_mesh.lift(xt, x_full)), 0.0)
        terms = vals[self._take][:, :, None] * self._u_taken
        rows_u = np.zeros(terms.shape[1:])
        # summed in CSR order, as a sparse-times-dense product would
        for term in terms:
            rows_u += term
        return self.lin_reduced + self.left @ rows_u


class MatrixInterpolantJacobian:
    """Entry-sampled full-Jacobian interpolation contracted to k-by-k.

    The contraction matrix has row (j + k l) equal to u_j(rows) (.) u_l(cols)
    over the interpolant's coordinate list; multiplying the precomputed
    product by the m sampled entries and reshaping column-major yields the
    reduced Jacobian in O(k^2 m) online work.  The entries come from a
    precomputed sampling plan over a lift of the sample mesh alone.
    """

    needs_lift = False

    def __init__(self, op, basis, mi):
        u = basis.u
        k = u.shape[1]
        projector = mi.interp.projector
        if mi.mode == "sparse":
            factor = np.einsum(
                "qj,ql->ljq", u[mi.pattern.rows], u[mi.pattern.cols]
            ).reshape(k * k, -1)
            reducer = np.ascontiguousarray(factor @ projector)
        else:
            # column i is vec_F(U^T P_i U), P_i the n-by-n column-major
            # matrix of projector column i; no k^2-by-n^2 factor is formed
            n = mi.pattern.n
            reducer = np.empty((k * k, projector.shape[1]))
            for i in range(projector.shape[1]):
                p_i = projector[:, i].reshape((n, n), order="F")
                reducer[:, i] = (u.T @ p_i @ u).ravel(order="F")
        self._setup(op, basis, reducer, mi.sample_rows, mi.sample_cols)

    @classmethod
    def from_parts(cls, op, basis, reducer, sample_rows, sample_cols):
        """Rebuild from persisted offline products."""
        obj = cls.__new__(cls)
        obj._setup(op, basis, reducer, sample_rows, sample_cols)
        return obj

    def _setup(self, op, basis, reducer, sample_rows, sample_cols):
        self.op = op
        self.k = int(basis.k)
        self.reducer = reducer
        self.plan = op.sampling_plan(sample_rows, sample_cols)
        self.sample_mesh = _SampleMesh(basis, self.plan.mesh)

    @property
    def sample_rows(self):
        return self.plan.rows

    @property
    def sample_cols(self):
        return self.plan.cols

    def evaluate(self, xt, x_full=None):
        samples = self.plan.apply(self.sample_mesh.lift(xt, x_full))
        instrumentation.bump("sample_flops", self.plan.flops)
        instrumentation.bump("reduced_jacobian_flops", 2 * self.reducer.size)
        return (self.reducer @ samples).reshape((self.k, self.k), order="F")


@dataclass
class ReducedStage:
    name: str
    fraction: float
    core: TensorCore
    explicit_core: TensorCore | None
    jacobian: object


@dataclass
class ReducedModel:
    model_id: str
    config_hash: str
    strategy: str
    basis: PodBasis
    dt: float
    stages: list
    initial_reduced: np.ndarray
    newton_tol: float = 1e-10
    newton_cap: int = 50
    offline_seconds: float = 0.0
    meta: dict = field(default_factory=dict)

    @property
    def k(self):
        return int(self.basis.k)


def reduce_model(
    model,
    basis,
    strategy,
    snapshots=None,
    m=None,
    h=0.01,
    guard_n=None,
    newton_tol=1e-10,
    newton_cap=50,
    prebuilt=None,
):
    """Build a ReducedModel for one Jacobian strategy.

    snapshots: per-stage SnapshotSet list (as produced by full_solve),
    required by the deim/smdeim/mdeim-reference strategies.  m is the number
    of interpolation modes for those strategies.  prebuilt optionally maps a
    stage index to an already constructed MatrixInterpolant, letting callers
    reuse an expensive build; entries must match the requested strategy mode.
    The offline wall time (tensor projection plus interpolant training) is
    recorded on the result.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; pick one of {STRATEGIES}")
    needs_data = strategy in ("deim", "smdeim", "mdeim-reference")
    if needs_data:
        if snapshots is None:
            raise ValueError(f"strategy {strategy!r} requires snapshot sets")
        if m is None:
            raise ValueError(f"strategy {strategy!r} requires the mode count m")
        if len(snapshots) != len(model.stages):
            raise ValueError("need one snapshot set per stage")
    u = basis.u
    t_start = time.perf_counter()
    cores = {}
    for stage in model.stages:
        if id(stage.op) not in cores:
            cores[id(stage.op)] = build_tensor_core(stage.op, basis)
        if stage.explicit is not None and id(stage.explicit) not in cores:
            cores[id(stage.explicit)] = build_tensor_core(stage.explicit, basis)

    stages = []
    for s_idx, stage in enumerate(model.stages):
        core = cores[id(stage.op)]
        if strategy == "tensorial":
            jac = TensorialJacobian(core)
        elif strategy == "direct-projection":
            jac = DirectProjectionJacobian(stage.op, u)
        elif strategy == "directional-derivative":
            jac = DirectionalDerivativeJacobian(stage.op, u, h=h)
        elif strategy == "deim":
            snap = snapshots[s_idx]
            svd = thin_svd(snap.nonlinear)
            if m > svd.rank:
                raise RankError(
                    f"m={m} exceeds the numerical rank {svd.rank} of the "
                    "nonlinear-term snapshots"
                )
            fn_interp = deim_interpolant(svd.u, m)
            lin_reduced = u.T @ (stage.op.linear @ u)
            jac = DeimFunctionJacobian(stage.op, basis, fn_interp, lin_reduced)
        else:
            if prebuilt is not None and s_idx in prebuilt:
                mi = prebuilt[s_idx]
            elif strategy == "smdeim":
                mi = build_smdeim(snapshots[s_idx], m)
            else:
                mi = build_mdeim_reference(snapshots[s_idx], m, guard_n=guard_n)
            jac = MatrixInterpolantJacobian(stage.op, basis, mi)
        stages.append(
            ReducedStage(
                name=stage.name,
                fraction=stage.fraction,
                core=core,
                explicit_core=(
                    cores[id(stage.explicit)] if stage.explicit is not None else None
                ),
                jacobian=jac,
            )
        )
    offline = time.perf_counter() - t_start
    return ReducedModel(
        model_id=model.model_id,
        config_hash=model.config_hash,
        strategy=strategy,
        basis=basis,
        dt=model.dt,
        stages=stages,
        initial_reduced=basis.project(model.initial_state),
        newton_tol=newton_tol,
        newton_cap=newton_cap,
        offline_seconds=offline,
        meta={"m": m, "h": h},
    )


def reduced_jacobian(rm, xt, stage=0):
    """Reduced Jacobian of the stage operator at xt, per the model strategy."""
    st = rm.stages[stage]
    x_full = rm.basis.lift(xt) if st.jacobian.needs_lift else None
    return st.jacobian.evaluate(xt, x_full)


def rom_solve(rm, n_t, x0=None, continue_on_failure=False, record_iterates=False):
    """Advance the reduced model for n_t time points.

    Returns (trajectory, stats): trajectory is (k, n_t) in reduced
    coordinates with the initial column included.  Every stage solve starts
    from the run's first reduced state and each Newton update is a dense LU
    solve with I - fraction dt reduced_jacobian(xt); failures are handled
    by stats.integrate, continue_on_failure included.  With
    record_iterates=True, stats.meta["iterates"] collects every reduced
    state at which a Newton matrix was evaluated, per solve.
    """
    eye = np.eye(rm.k)
    iterates = [] if record_iterates else None

    def newton_step(s_idx, coef, xt, residual):
        if iterates is not None:
            iterates.append(xt.copy())
        return solve_dense(eye - coef * reduced_jacobian(rm, xt, s_idx), -residual)

    stages = []
    for s_idx, st in enumerate(rm.stages):
        coef = st.fraction * rm.dt
        explicit = st.explicit_core.rhs if st.explicit_core is not None else None
        stages.append((st.name, coef, st.core.rhs, explicit,
                       functools.partial(newton_step, s_idx, coef)))
    trajectory, stats, _ = integrate(
        rm.initial_reduced if x0 is None else x0, n_t, stages,
        rm.newton_tol, rm.newton_cap, continue_on_failure,
    )
    stats.offline_seconds = rm.offline_seconds
    if record_iterates:
        it = iter(iterates)
        stats.meta = {"iterates": [[next(it) for _ in range(n)] for n in stats.iterations]}
    return trajectory, stats
