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
  part projected exactly offline; the rows' e entries scale a k-by-e
  factor whose product with an e-by-k one is k-by-k.
* smdeim: interpolate the full Jacobian from entries sampled at pattern
  coordinates, contracted to k-by-k offline.
* mdeim-reference: same contraction built from the guarded vectorized
  route, kept as an oracle.

Only direct-projection and directional-derivative lift the full state at
each Newton evaluation.  deim, smdeim and mdeim-reference sample through a
precomputed plan and lift only its sample mesh, the state entries the
sampled Jacobian entries read, so their online work does not grow with n;
tensorial lifts nothing.

Each strategy class persists through three names: `kind`, which an artifact
records; `parts()`, its offline products by name; and the classmethod
`from_parts(op, basis, core, **parts)`, which rebuilds it on the stage
operator op of a freshly built full model.  JACOBIANS maps kind to class.

The interpolating classes also form the full-space J_hat(x) from their
interpolant (`full_jacobian`), so `heldout_errors` measures any strategy
against the true Jacobian at held-out states without naming it.
"""

import functools
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg

from . import instrumentation
from .jacobian_approx import (approximate_matrix, build_mdeim_reference,
                              build_smdeim, check_rank)
from .deim import deim_interpolant
from .linalg import leading_singular_value, solve_dense, thin_svd
from .pod import PodBasis
from .stats import integrate

__all__ = [
    "STRATEGIES",
    "M_DEPENDENT",
    "JACOBIANS",
    "TensorCore",
    "HeldoutProbe",
    "ReducedStage",
    "ReducedModel",
    "build_tensor_core",
    "stage_cores",
    "reduce_model",
    "reduced_jacobian",
    "heldout_errors",
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

# strategies whose offline build consumes snapshot sets and the
# interpolation mode count m
M_DEPENDENT = ("deim", "smdeim", "mdeim-reference")


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


def stage_cores(model, basis):
    """(core, explicit core or None) of each stage, one TensorCore per
    distinct operator."""
    built = {}

    def core(op):
        if op is None:
            return None
        if id(op) not in built:
            built[id(op)] = build_tensor_core(op, basis)
        return built[id(op)]

    return [(core(stage.op), core(stage.explicit)) for stage in model.stages]


class TensorialJacobian:
    kind = "tensorial"
    needs_lift = False

    def __init__(self, core):
        self.core = core

    def parts(self):
        return {}

    @classmethod
    def from_parts(cls, op, basis, core):
        return cls(core)

    def evaluate(self, xt, x_full=None):
        return self.core.jacobian(xt)


class DirectProjectionJacobian:
    """U^T J(x) U, with J the pattern's CSC matrix built once and refilled
    from `jacobian_values` at each evaluation."""

    kind = "direct-projection"
    needs_lift = True

    def __init__(self, op, u):
        self.op = op
        self.u = u
        self._jac = op.pattern.matrix(np.zeros(op.pattern.r))

    def parts(self):
        return {}

    @classmethod
    def from_parts(cls, op, basis, core):
        return cls(op, basis.u)

    def evaluate(self, xt, x_full):
        self._jac.data[:] = self.op.jacobian_values(x_full)
        return self.u.T @ (self._jac @ self.u)


class DirectionalDerivativeJacobian:
    """Forward difference (F(x + h u_j) - F(x)) / h, projected."""

    kind = "directional-derivative"
    needs_lift = True

    def __init__(self, op, u, h=0.01):
        self.op = op
        self.u = u
        self.h = float(h)
        self._hu = self.h * u

    def parts(self):
        return {"h": self.h}

    @classmethod
    def from_parts(cls, op, basis, core, h):
        return cls(op, basis.u, h=h)

    def evaluate(self, xt, x_full):
        # one matrix rhs over the base state and the k shifted states
        states = np.empty((self.u.shape[0], self.u.shape[1] + 1))
        states[:, 0] = x_full
        np.add(x_full[:, None], self._hu, out=states[:, 1:])
        f = self.op.rhs(states)
        diff = f[:, 1:] - f[:, :1]
        diff /= self.h
        return self.u.T @ diff


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


class MatrixInterpolantJacobian:
    """Entry-sampled full-Jacobian interpolation contracted to k-by-k.

    Column i of the k^2-by-m reducer is vec_F(U^T P_i U), P_i the n-by-n
    matrix holding projector column i at the interpolant's coordinates
    (on the sparse route the pattern's matrix of it, `mi.pattern.matrix`);
    multiplying the reducer by the m sampled entries and reshaping
    column-major yields the reduced Jacobian in O(k^2 m) online work.  The
    reducer is built one column at a time: on the sparse route that takes
    m (2 r k + 2 n k^2) flops and O(n k) scratch.  The entries come from a
    sampling plan over a lift of the sample mesh alone, which deim shares.

    The interpolant must be trained on the stage operator's pattern; stage
    names the stage in the error raised otherwise.
    """

    kind = "matrix"
    needs_lift = False
    # the sample coordinates, under the same names here and on the interpolant
    _coordinates = ("sample_rows", "sample_cols")

    def __init__(self, op, basis, mi, stage=None):
        if mi.pattern != op.pattern:
            where = "" if stage is None else f"stage {stage}: "
            raise ValueError(
                f"{where}interpolant trained on a pattern with n={mi.pattern.n}, "
                f"r={mi.pattern.r}; the stage operator's has n={op.pattern.n}, "
                f"r={op.pattern.r} or other coordinates"
            )
        u, n = basis.u, mi.pattern.n
        reducer = self.reducer = np.empty((u.shape[1] ** 2, mi.m))
        if mi.mode == "sparse":
            # projector column i, in pattern order, is the data of P_i
            p_i = mi.pattern.matrix(np.zeros(mi.pattern.r))
        for i, col in enumerate(mi.interp.projector.T):
            if mi.mode == "sparse":
                p_i.data[:] = col
            else:
                p_i = col.reshape((n, n), order="F")
            reducer[:, i] = (u.T @ (p_i @ u)).ravel(order="F")
        self._setup(op, basis, op.sampling_plan(mi.sample_rows, mi.sample_cols))

    def parts(self):
        return {"reducer": self.reducer, "sample_rows": self.sample_rows,
                "sample_cols": self.sample_cols}

    @classmethod
    def from_parts(cls, op, basis, core, reducer, sample_rows, sample_cols):
        obj = cls.__new__(cls)
        obj.reducer = reducer
        obj._setup(op, basis, op.sampling_plan(sample_rows, sample_cols))
        return obj

    def _setup(self, op, basis, plan):
        self.op = op
        self.k = int(basis.k)
        self.plan = plan
        self.sample_mesh = _SampleMesh(basis, plan.mesh)

    @property
    def sample_rows(self):
        return self.plan.rows

    @property
    def sample_cols(self):
        return self.plan.cols

    def _sample(self, xt, x_full, flops):
        # shared by both classes' evaluate, so neither evaluate calls the
        # other; flops is the cost of the caller's own contraction
        instrumentation.bump("sample_flops", self.plan.flops)
        instrumentation.bump("reduced_jacobian_flops", flops)
        return self.plan.apply(self.sample_mesh.lift(xt, x_full))

    def evaluate(self, xt, x_full=None):
        samples = self._sample(xt, x_full, 2 * self.reducer.size)
        return (self.reducer @ samples).reshape((self.k, self.k), order="F")

    def _full_samples(self, x, interp):
        # the plan's samples of the full state x, for an interp that
        # samples where this Jacobian does
        if any(not np.array_equal(getattr(interp, c), getattr(self, c))
               for c in self._coordinates):
            raise ValueError("the interpolant samples other coordinates than "
                             "this Jacobian's: it was not reduced from it")
        return self.plan.apply(x[self.plan.mesh])

    def full_jacobian(self, x, interp):
        """(J_hat(x), an operator for its sigma_1) at the full state x, from
        interp, the MatrixInterpolant this Jacobian was reduced from (else
        ValueError), sampled by this Jacobian's plan: here both are the
        sparse matrix `approximate_matrix` gives."""
        approx = approximate_matrix(interp, self._full_samples(x, interp))
        return approx, approx


class DeimFunctionJacobian(MatrixInterpolantJacobian):
    """Sampled rows of the nonlinear Jacobian through a function-snapshot
    interpolant, plus the linear part projected exactly offline.

    With R the sampled rows and left = U^T P (P the interpolant's
    projector), the reduced Jacobian is lin_reduced + left (R U), one
    rank-1 term per entry of R: lin_reduced + (left_e * samples) @ u_e,
    where entry q, at row indexes[i] and column c, has left_e[:, q] =
    left[:, i] and u_e[q] = U[c].  row_ptr delimits the rows in the plan's
    coordinates, so (samples, plan.cols, row_ptr) is R in CSR form.
    """

    kind = "deim"
    _coordinates = ("indexes",)

    def __init__(self, op, basis, indexes, left, lin_reduced):
        self.indexes = indexes
        self.left = left
        self.lin_reduced = lin_reduced
        plan, self.row_ptr = op.nl_row_plan(indexes)
        self.left_e = np.repeat(left, np.diff(self.row_ptr), axis=1)
        self.u_e = np.ascontiguousarray(basis.u[plan.cols])
        self._setup(op, basis, plan)

    def parts(self):
        return {"indexes": self.indexes, "left": self.left,
                "lin_reduced": self.lin_reduced}

    @classmethod
    def from_parts(cls, op, basis, core, indexes, left, lin_reduced):
        return cls(op, basis, indexes, left, lin_reduced)

    def evaluate(self, xt, x_full=None):
        samples = self._sample(xt, x_full, self.left_e.size * (1 + 2 * self.k))
        return self.lin_reduced + (self.left_e * samples) @ self.u_e

    def full_jacobian(self, x, interp):
        """(L + P R summed as one sparse matrix, the same never formed) at
        the full state x: L the stage operator's linear part, P the
        projector of interp, the DeimInterpolant this Jacobian was reduced
        from (else ValueError), R the sampled nonlinear-Jacobian rows."""
        samples = self._full_samples(x, interp)
        rows = scipy.sparse.csr_matrix((samples, self.plan.cols, self.row_ptr),
                                       shape=(self.row_ptr.size - 1, x.size))
        linear, projector = self.op.linear, interp.projector
        # Lanczos runs faster on the factored form than on the sum
        factored = scipy.sparse.linalg.LinearOperator(
            (x.size, x.size),
            matvec=lambda v: linear @ v + projector @ (rows @ v),
            rmatvec=lambda v: linear.T @ v + rows.T @ (projector.T @ v),
            dtype=np.float64,
        )
        return linear + scipy.sparse.csr_matrix(projector) @ rows, factored


JACOBIANS = {
    cls.kind: cls
    for cls in (TensorialJacobian, DirectProjectionJacobian,
                DirectionalDerivativeJacobian, DeimFunctionJacobian,
                MatrixInterpolantJacobian)
}


class HeldoutProbe:
    """The truth at one held-out state for one basis: x = lift(project(
    state)) with its reduced coordinates xt, the true Jacobian J(x) of op
    with ||J||_F, and U^T J U with its norm; sigma_1(J) on first use."""

    def __init__(self, op, basis, state):
        self.xt = basis.project(state)
        self.x = basis.lift(self.xt)
        self.jac = op.jacobian(self.x)
        self.jac_norm = scipy.sparse.linalg.norm(self.jac)
        self.red = basis.u.T @ (self.jac @ basis.u)
        self.red_norm = np.linalg.norm(self.red)

    @functools.cached_property
    def sv1(self):
        return leading_singular_value(self.jac)


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
    m: int | None = None  # the interpolation mode count, for the sampled strategies
    h: float = 0.01  # the directional-derivative step

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
    cores=None,
):
    """Build a ReducedModel for one Jacobian strategy.

    snapshots: per-stage SnapshotSet list (as produced by full_solve),
    required by the deim/smdeim/mdeim-reference strategies unless prebuilt
    covers every stage.  m is the number of interpolation modes for those
    strategies.  prebuilt optionally maps a stage index to an already
    constructed interpolant, letting callers reuse an expensive build: a
    DeimInterpolant of the nonlinear-term snapshots for deim, a
    MatrixInterpolant of the requested mode for smdeim and
    mdeim-reference.  cores optionally gives `stage_cores(model, basis)`,
    so callers reducing one basis for several strategies project once.
    The offline wall time (tensor projection plus interpolant training) is
    recorded on the result.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; pick one of {STRATEGIES}")
    prebuilt = prebuilt or {}
    if strategy in M_DEPENDENT:
        if snapshots is None and not prebuilt.keys() >= set(range(len(model.stages))):
            raise ValueError(f"strategy {strategy!r} requires snapshot sets "
                             "or a prebuilt interpolant for every stage")
        if m is None:
            raise ValueError(f"strategy {strategy!r} requires the mode count m")
        if snapshots is not None and len(snapshots) != len(model.stages):
            raise ValueError("need one snapshot set per stage")
    u = basis.u
    t_start = time.perf_counter()
    if cores is None:
        cores = stage_cores(model, basis)

    stages = []
    for s_idx, stage in enumerate(model.stages):
        core, explicit_core = cores[s_idx]
        if strategy == "tensorial":
            jac = TensorialJacobian(core)
        elif strategy == "direct-projection":
            jac = DirectProjectionJacobian(stage.op, u)
        elif strategy == "directional-derivative":
            jac = DirectionalDerivativeJacobian(stage.op, u, h=h)
        elif strategy == "deim":
            if s_idx in prebuilt:
                fn_interp = prebuilt[s_idx]
            else:
                svd = thin_svd(snapshots[s_idx].nonlinear)
                check_rank(svd, m, "nonlinear-term")
                fn_interp = deim_interpolant(svd.u, m)
            jac = DeimFunctionJacobian(stage.op, basis, fn_interp.indexes,
                                       u.T @ fn_interp.projector,
                                       u.T @ (stage.op.linear @ u))
        else:
            if s_idx in prebuilt:
                mi = prebuilt[s_idx]
            elif strategy == "smdeim":
                mi = build_smdeim(snapshots[s_idx], m)
            else:
                mi = build_mdeim_reference(snapshots[s_idx], m, guard_n=guard_n)
            jac = MatrixInterpolantJacobian(stage.op, basis, mi, stage=s_idx)
        stages.append(
            ReducedStage(
                name=stage.name,
                fraction=stage.fraction,
                core=core,
                explicit_core=explicit_core,
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
        m=m,
        h=h,
    )


def reduced_jacobian(rm, xt, stage=0):
    """Reduced Jacobian of the stage operator at xt, per the model strategy."""
    st = rm.stages[stage]
    x_full = rm.basis.lift(xt) if st.jacobian.needs_lift else None
    return st.jacobian.evaluate(xt, x_full)


def heldout_errors(rm, probes, interp=None, sv_probes=0):
    """Mean relative errors of rm's stage-0 Jacobian at probes, the
    HeldoutProbes of rm's basis on the stage-0 operator, as a dict:
    red_jac_frob_err of J_red against U^T J U, and with interp, stage 0's
    interpolant (`io.load_interpolant`), jac_frob_err of J_hat against J,
    both in the Frobenius norm, and sv1_err of sigma_1(J_hat) at the first
    sv_probes probes, by Lanczos.  A mean over no probe is None."""
    jac = rm.stages[0].jacobian
    errs = {"jac_frob_err": [], "red_jac_frob_err": [], "sv1_err": []}
    for count, probe in enumerate(probes):
        red = jac.evaluate(probe.xt, probe.x)
        errs["red_jac_frob_err"].append(
            float(np.linalg.norm(red - probe.red) / probe.red_norm))
        if interp is None:
            continue
        approx, sv_op = jac.full_jacobian(probe.x, interp)
        num = scipy.sparse.linalg.norm(approx - probe.jac)
        errs["jac_frob_err"].append(float(num / probe.jac_norm))
        if count < sv_probes:
            sv_app = leading_singular_value(sv_op)
            errs["sv1_err"].append(abs(sv_app - probe.sv1) / probe.sv1)
    return {name: float(np.mean(vals)) if vals else None
            for name, vals in errs.items()}


def rom_solve(rm, n_t, x0=None, continue_on_failure=False):
    """Advance the reduced model for n_t time points.

    Returns (trajectory, stats): trajectory is (k, n_t) in reduced
    coordinates with the initial column included.  Every stage solve starts
    from the run's first reduced state and each Newton update is a dense LU
    solve with I - fraction dt reduced_jacobian(xt); failures are handled
    by stats.integrate, continue_on_failure included.
    """
    eye = np.eye(rm.k)

    def newton_step(s_idx, coef, xt, residual):
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
    return trajectory, stats
