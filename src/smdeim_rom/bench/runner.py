"""Experiment orchestration: snapshot/artifact building, ROM runs, metrics.

Command semantics:

* simulate - run the full-order model, persist snapshot artifacts and the
  trajectory, append one "full" row per seed.
* offline  - build reduced-model artifacts for every grid point and write
  each stage's Jacobian spectrum when absent; only failed builds produce
  rows (so a later online pass skips them).
* online   - load artifacts, integrate the reduced models, append metric
  rows and regenerate the plot series.  Missing artifacts are an error
  naming the expected file.
* sweep    - simulate + offline + online over the whole grid, optionally
  with parallel workers; emits exactly the rows the split commands would.

Rows are keyed by (model, config hash, strategy, k, m, seed); re-running
any command skips keys already present in results.csv, which makes partial
sweeps resume idempotently.  Rows are appended in deterministic grid order
regardless of worker scheduling.  All metric columns are deterministic
functions of the configuration; the wall-clock columns (offline_seconds,
online_seconds, timestamp) are the only ones expected to vary between runs.

Each command trains once per model: it works through the models one at a
time, and every grid unit of a model run in one process shares one
ModelContext, which factors each snapshot matrix once.  It reads from a
stage's snapshot file only the arrays a reader takes, when it takes them:
the POD basis and the held-out probes stage 0's states, each SVD the block
it factors, which leading_svd consumes in place on a tall block.  Nothing
is kept from one command to the next.

Metrics are evaluated on stage-0 quantities at held-out snapshot states
(every stride-th column), each projected onto the basis subspace first so
the numbers isolate approximation error from subspace truncation error;
rom.heldout_errors computes them from the strategy's own classes.
"""

import contextlib
import os
import time
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .. import instrumentation
from .. import io as artifact_io
from ..deim import DependentColumnsError, deim_interpolant
from ..jacobian_approx import (
    MemoryGuardError,
    RankError,
    build_mdeim_reference,
    build_smdeim,
    check_rank,
)
from ..linalg import SvdConvergenceError, leading_svd
from ..linalg import thin_svd  # noqa: F401  uncalled; the tracer patches it (ROADMAP item 8)
from ..models import burgers as burgers_model
from ..models import full_solve
from ..models import swe as swe_model
from ..pod import pod_basis
from ..rom import (M_DEPENDENT, HeldoutProbe, heldout_errors, reduce_model,
                   rom_solve, stage_cores)
from ..stats import NewtonConvergenceError

__all__ = [
    "SCHEMA_VERSION",
    "CSV_COLUMNS",
    "M_DEPENDENT",
    "MissingArtifactError",
    "ModelContext",
    "ResultRow",
    "cmd_simulate",
    "cmd_offline",
    "cmd_online",
    "cmd_sweep",
]

SCHEMA_VERSION = 1

CSV_COLUMNS = (
    "schema",
    "model",
    "config_hash",
    "strategy",
    "n",
    "k",
    "m",
    "gamma",
    "seed",
    "n_t",
    "dt",
    "jac_frob_err",
    "red_jac_frob_err",
    "sv1_err",
    "traj_l2_err",
    "mean_newton_iters",
    "full_mean_newton_iters",
    "offline_seconds",
    "online_seconds",
    "status",
    "timestamp",
)

_BUILD_ERRORS = (
    MemoryGuardError,
    RankError,
    DependentColumnsError,
    SvdConvergenceError,
)


class MissingArtifactError(FileNotFoundError):
    """A required artifact file is absent."""


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


@dataclass
class ResultRow:
    model: str
    config_hash: str
    strategy: str
    n: int
    k: int | None
    m: int | None
    gamma: float | None
    seed: int
    n_t: int
    dt: float
    jac_frob_err: float | None = None
    red_jac_frob_err: float | None = None
    sv1_err: float | None = None
    traj_l2_err: float | None = None
    mean_newton_iters: float | None = None
    full_mean_newton_iters: float | None = None
    offline_seconds: float | None = None
    online_seconds: float | None = None
    status: str = "ok"

    def key(self):
        return row_key(self.model, self.config_hash, self.strategy,
                       self.k, self.m, self.seed)

    def csv_line(self, timestamp):
        vals = [str(SCHEMA_VERSION)]
        vals += [_fmt(getattr(self, col)) for col in CSV_COLUMNS[1:-2]]
        vals += [self.status.replace(",", ";"), timestamp]
        return ",".join(vals)


def row_key(model, config_hash, strategy, k, m, seed):
    return "|".join((model, config_hash, strategy, _fmt(k), _fmt(m), str(seed)))


def _now():
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def csv_path(cfg):
    return Path(cfg.out_dir) / "results.csv"


def existing_keys(path):
    """Row keys already present in a results file."""
    return {
        row_key(r["model"], r["config_hash"], r["strategy"], r["k"], r["m"], r["seed"])
        for r in _read_rows(path)
    }


def append_rows(path, rows, timestamp):
    """Append rows (header first if the file is new), one write per row."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fresh = not path.exists() or path.stat().st_size == 0
    with open(path, "a", encoding="utf-8") as f:
        if fresh:
            f.write(",".join(CSV_COLUMNS) + "\n")
            f.flush()
        for row in rows:
            f.write(row.csv_line(timestamp) + "\n")
            f.flush()


# -- model / artifact plumbing -------------------------------------------


def model_param_combos(cfg):
    if cfg.model == "burgers":
        return [{"n": n} for n in cfg.burgers_n]
    return [{"nx": nx, "ny": ny} for nx in cfg.swe_nx for ny in cfg.swe_ny]


def build_model(cfg, params):
    if cfg.model == "burgers":
        return burgers_model.build_burgers(
            n=params["n"],
            mu=cfg.burgers_mu,
            t_final=cfg.burgers_t_final,
            n_t=cfg.burgers_n_t,
            u0_peak=cfg.burgers_u0_peak,
        )
    return swe_model.build_swe(
        nx_points=params["nx"],
        ny_points=params["ny"],
        dt=cfg.swe_dt,
        n_t=cfg.swe_n_t,
    )


def artifact_dir(cfg):
    return Path(cfg.out_dir) / "artifacts"


def snap_paths(cfg, model):
    return [
        artifact_dir(cfg) / f"snap-{model.config_hash}-s{j}.smdm"
        for j in range(len(model.stages))
    ]


def rom_artifact_path(cfg, config_hash, strategy, k, m):
    mtag = f"m{m}" if m is not None else "m0"
    return artifact_dir(cfg) / f"rom-{config_hash}-{strategy}-k{k}-{mtag}.smdm"


class ModelContext:
    """One model and what the grid units of one command share for it.

    It holds the built model and its full-order record, and computes on
    first use, once each: the POD basis of the max(rom.k) leading modes,
    the SVD of each stage's "jacobian" and "nonlinear" snapshots with every
    singular value but only the max(rom.m) leading columns of u and w (all
    the selections read, and leading_svd forms no others), the tensor
    cores of each k, the interpolants of
    each (strategy, stage, m), stage 0's held-out states and the held-out
    truth of each basis.  It keeps no snapshot block: each of these reads
    from the stage's file the arrays it takes, and drops them when done.
    The _contexts table holds one context at a time and is emptied with
    each command, so nothing in it outlives the command.
    """

    def __init__(self, cfg, model, traj, mean_iters, seconds):
        self.cfg = cfg
        self.model = model
        self.traj = traj
        self.mean_iters = mean_iters
        self.seconds = seconds
        self._memo = {}

    @classmethod
    def open(cls, cfg, params, simulate):
        """The context of one model, reading only the TRAJ block of stage
        0's file.  When a snapshot file is absent, simulate=True runs the
        full solve and persists it; otherwise MissingArtifactError names
        the file.  Each file is written as a .tmp and renamed into place
        once whole, stage 0's after its TRAJ block."""
        model = build_model(cfg, params)
        paths = snap_paths(cfg, model)
        missing = [p for p in paths if not p.exists()]
        if not missing:
            return cls(cfg, model, *artifact_io.load_trajectory(paths[0]))
        if not simulate:
            raise MissingArtifactError(
                f"expected snapshot artifact {missing[0]}; run simulate or offline first"
            )
        artifact_dir(cfg).mkdir(parents=True, exist_ok=True)
        traj, stats, snaps = full_solve(
            model, newton_tol=cfg.newton_tol, newton_cap=cfg.newton_cap
        )
        record = (traj, stats.mean_iterations, stats.online_seconds)
        for j, (p, s) in enumerate(zip(paths, snaps)):
            tmp = p.with_name(p.name + ".tmp")
            artifact_io.save_snapshots(tmp, s)
            if j == 0:
                artifact_io.save_trajectory(tmp, *record)
            os.replace(tmp, p)
        return cls(cfg, model, *record)

    def _once(self, key, build):
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    def _read(self, stage, *arrays):
        """The named snapshot arrays of one stage, read from its file; with
        no name, its whole snapshot set."""
        return artifact_io.load_snapshots(
            snap_paths(self.cfg, self.model)[stage], arrays or None
        )

    def svd(self, block, stage):
        """leading_svd of one stage's "jacobian" or "nonlinear" snapshots at
        max(rom.m) columns.  The block is read column-major into a buffer
        of its own, so where leading_svd goes QR first it is consumed in
        place."""
        return self._once((block, stage), lambda: leading_svd(
            *self._read(stage, block), max(self.cfg.m_list)
        ))

    def basis(self, k):
        """The POD basis for k, an entry of rom.k, truncated from one basis
        of the max(rom.k) leading modes."""
        cfg = self.cfg
        k_max = max(cfg.k_list)
        if k > k_max:
            raise ValueError(f"k={k} exceeds the largest rom.k, {k_max}")
        full = self._once("pod", lambda: pod_basis(
            *self._read(0, "states"), gamma=cfg.gamma, k_max=k_max,
            centered=cfg.centered,
        ))
        return full.truncate(k)

    def cores(self, k):
        """The stage tensor cores of the basis for k, shared by every
        strategy."""
        return self._once(
            ("cores", k), lambda: stage_cores(self.model, self.basis(k))
        )

    def interpolant(self, strategy, stage, m):
        """A stage's interpolant of an M_DEPENDENT strategy for m modes."""

        def build():
            if strategy == "mdeim-reference":
                return build_mdeim_reference(self._read(stage), m,
                                             guard_n=self.cfg.guard_n)
            if strategy == "smdeim":
                # the stage operator carries the pattern of its snapshots
                return build_smdeim(None, m, svd=self.svd("jacobian", stage),
                                    pattern=self.model.stages[stage].op.pattern)
            svd = self.svd("nonlinear", stage)
            check_rank(svd, m, "nonlinear-term")
            return deim_interpolant(svd.u, m)

        return self._once((strategy, stage, m), build)

    def probes(self, basis):
        """The HeldoutProbe of every held-out state, for one basis."""

        def heldout():
            stride = self.cfg.heldout_stride
            return self._read(0, "states")[0][:, stride - 1::stride].copy()

        def build():
            op = self.model.stages[0].op
            states = self._once("heldout", heldout)
            return [HeldoutProbe(op, basis, state) for state in states.T]

        return self._once(("probes", basis.u.tobytes(), basis.mean.tobytes()), build)


def _spectrum_paths(cfg, model):
    pd_dir = Path(cfg.out_dir) / "plotdata"
    return [
        pd_dir / f"{model.model_id}-jacobian-singulars-s{j}.tsv"
        for j in range(len(model.stages))
    ]


def _write_spectrum(cfg, params):
    """Singular values of each stage's gathered Jacobian snapshots (one TSV
    per stage, written when absent), from the SVD smdeim trains on, in this
    process's context of the model."""
    ctx = _context(cfg, params, simulate=True)
    for j, path in enumerate(_spectrum_paths(cfg, ctx.model)):
        if path.exists():
            continue
        path.parent.mkdir(parents=True, exist_ok=True)
        singulars = ctx.svd("jacobian", j).singulars
        _write_tsv(path, ("mode", "singular_value"),
                   [(i + 1, _fmt(float(s))) for i, s in enumerate(singulars)])


def build_rom_artifact(cfg, model, ctx, strategy, k, m):
    """Build one reduced model offline and persist it; idempotent.  ctx, the
    ModelContext of model, shares factorizations between calls; the unit
    that first needs one carries its time in offline_seconds."""
    path = rom_artifact_path(cfg, model.config_hash, strategy, k, m)
    if path.exists():
        return path
    t0 = time.perf_counter()
    stages = range(len(model.stages)) if strategy in M_DEPENDENT else ()
    prebuilt = {j: ctx.interpolant(strategy, j, m) for j in stages}
    rm = reduce_model(
        model,
        ctx.basis(k),
        strategy,
        m=m,
        h=cfg.h,
        guard_n=cfg.guard_n,
        newton_tol=cfg.newton_tol,
        newton_cap=cfg.newton_cap,
        prebuilt=prebuilt,
        cores=ctx.cores(k),
    )
    rm.offline_seconds = time.perf_counter() - t0
    tmp = path.with_name(path.name + ".tmp")
    tmp.unlink(missing_ok=True)  # the first block starts the file afresh
    if prebuilt:  # online reads stage 0's alone
        artifact_io.save_interpolant(tmp, prebuilt[0], 0)
    artifact_io.save_reduced_model(tmp, rm)
    os.replace(tmp, path)
    return path


# -- metric evaluation ----------------------------------------------------


def _trajectory_error(basis, traj_red, traj_full):
    """Relative distance of the lifted reduced trajectory from the basis
    projection of the full one; the lifted (n, n_t) arrays die here."""
    ref = basis.lift(basis.project(traj_full))
    return float(np.linalg.norm(basis.lift(traj_red) - ref) / np.linalg.norm(ref))


def run_online_point(cfg, model, ctx, traj_full, strategy, k, m):
    """Integrate one persisted reduced model and evaluate its metrics.

    ctx, the ModelContext of model, shares the held-out truth between
    calls.  Returns a dict of metric values; raises
    MissingArtifactError when the offline artifact is absent or was built
    under other settings than cfg's, and NewtonConvergenceError when the
    reduced run fails.
    """
    path = rom_artifact_path(cfg, model.config_hash, strategy, k, m)
    if not path.exists():
        raise MissingArtifactError(
            f"expected offline artifact {path}; run the offline command first"
        )
    rm = artifact_io.load_reduced_model(path, model)
    for key, built, wanted in (
        ("pod.gamma", rm.basis.gamma, cfg.gamma),
        ("pod.centered", rm.basis.centered, cfg.centered),
        ("rom.h", rm.h, cfg.h),
        ("rom.newton_tol", rm.newton_tol, cfg.newton_tol),
        ("rom.newton_cap", rm.newton_cap, cfg.newton_cap),
    ):
        if built != wanted:
            raise MissingArtifactError(
                f"offline artifact {path} was built with {key} = {built}, the "
                f"config has {wanted}; run offline into a fresh run.out"
            )
    interp = artifact_io.load_interpolant(path, model) if strategy in M_DEPENDENT else None
    with instrumentation.online_section():
        traj_red, stats = rom_solve(rm, model.default_n_t)
    traj_err = _trajectory_error(rm.basis, traj_red, traj_full)
    return {
        **heldout_errors(rm, ctx.probes(rm.basis), interp, cfg.sv_probes),
        "traj_l2_err": traj_err,
        "mean_newton_iters": stats.mean_iterations,
        "offline_seconds": rm.offline_seconds,
        "online_seconds": stats.online_seconds,
        "status": "ok",
    }


# -- grid orchestration ---------------------------------------------------


def unit_list(cfg):
    """ROM grid points in deterministic order: one per (model parameters,
    strategy, k, and m when the strategy consumes it)."""
    units = []
    for params in model_param_combos(cfg):
        for strategy in cfg.strategies:
            for k in cfg.k_list:
                if strategy in M_DEPENDENT:
                    for m in cfg.m_list:
                        units.append((params, strategy, k, m))
                else:
                    units.append((params, strategy, k, None))
    return units


# The model contexts of this process, one model's at a time, through
# _context.  Each command empties the table before and after it runs, and
# the pool's initializer empties a worker's copy.
_contexts = {}


def _drop_contexts():
    _contexts.clear()


def _context(cfg, params, simulate):
    """This process's context for params, opened on first use."""
    key = _params_key(params)
    if key not in _contexts:
        _contexts.clear()
        _contexts[key] = ModelContext.open(cfg, params, simulate)
    return _contexts[key]


def _unit_worker(cfg, params, strategy, k, m, build, online):
    """Build and/or run one grid unit; returns a metrics dict (never raises
    for expected per-point failures)."""
    ctx = _context(cfg, params, simulate=build)
    try:
        if build:
            build_rom_artifact(cfg, ctx.model, ctx, strategy, k, m)
        if not online:
            return {"status": "ok"}
        return run_online_point(cfg, ctx.model, ctx, ctx.traj, strategy, k, m)
    except _BUILD_ERRORS as exc:
        return {"status": f"failed:{type(exc).__name__}"}
    except NewtonConvergenceError as exc:
        return {"status": f"failed:newton step {exc.step} stage {exc.stage}"}


def _run_here(fn, *args):
    """fn(*args) run in this process, as a finished Future."""
    done = Future()
    done.set_result(fn(*args))
    return done


def _full_row(model, mean_iters, seconds):
    """A model's full-model row, seed unset; unit rows copy its identity."""
    return ResultRow(
        model=model.model_id,
        config_hash=model.config_hash,
        strategy="full",
        n=model.n,
        k=None,
        m=None,
        gamma=None,
        seed=None,
        n_t=model.default_n_t,
        dt=model.dt,
        mean_newton_iters=mean_iters,
        full_mean_newton_iters=mean_iters,
        online_seconds=seconds,
    )


def _rom_row(cfg, full, strategy, k, m, seed, result):
    metrics = {
        name: result.get(name)
        for name in ("jac_frob_err", "red_jac_frob_err", "sv1_err", "traj_l2_err",
                     "mean_newton_iters", "offline_seconds", "online_seconds")
    }
    return replace(full, strategy=strategy, k=k, m=m, gamma=cfg.gamma, seed=seed,
                   status=result.get("status", "ok"), **metrics)


def _add_new(rows, keys, row):
    if row.key() not in keys:
        keys.add(row.key())
        rows.append(row)


def _run_grid(cfg, jobs, simulate=False, build=False, online=False):
    """Shared engine of the commands.

    Works through the models one at a time (simulate=True runs the full
    solve when a model's snapshots are absent and adds the full-model
    rows), runs its pending units (build=True builds their artifacts,
    online=True evaluates them) and writes its absent Jacobian spectra
    (build=True).  Every unit and spectrum goes to submit, which runs it in
    this process with jobs == 1 and in a pool of jobs workers otherwise;
    wherever it runs, it takes that process's context of its model, which
    reads the snapshots only when a unit needs them.  Returns the new
    ResultRows in deterministic grid order, full-model rows first.
    """
    keys = existing_keys(csv_path(cfg))
    rows, fulls, results, spectra = [], {}, {}, []
    units = unit_list(cfg)
    with contextlib.ExitStack() as stack:
        submit = _run_here if jobs == 1 else stack.enter_context(
            ProcessPoolExecutor(max_workers=jobs, initializer=_drop_contexts)
        ).submit
        for params in model_param_combos(cfg):
            ctx = _context(cfg, params, simulate)
            full = fulls[_params_key(params)] = _full_row(
                ctx.model, ctx.mean_iters, ctx.seconds
            )
            if simulate:
                for seed in cfg.seeds:
                    _add_new(rows, keys, replace(full, seed=seed))
            for idx, (unit_params, strategy, k, m) in enumerate(units):
                if unit_params != params or not (build or online) or all(
                    row_key(full.model, full.config_hash, strategy, k, m, seed) in keys
                    for seed in cfg.seeds
                ):
                    continue
                if not online and rom_artifact_path(
                    cfg, full.config_hash, strategy, k, m
                ).exists():
                    continue  # build-only pass: the artifact is there already
                results[idx] = submit(
                    _unit_worker, cfg, params, strategy, k, m, build, online
                )
            if build and not all(p.exists() for p in _spectrum_paths(cfg, ctx.model)):
                spectra.append(submit(_write_spectrum, cfg, params))
            del ctx  # so the table's is the only reference when it moves on
        results = {idx: fut.result() for idx, fut in results.items()}
        for fut in spectra:
            fut.result()

    for idx in sorted(results):
        params, strategy, k, m = units[idx]
        result = results[idx]
        if not online and result.get("status", "ok") == "ok":
            continue  # successful build-only units produce no rows
        full = fulls[_params_key(params)]
        for seed in cfg.seeds:
            _add_new(rows, keys, _rom_row(cfg, full, strategy, k, m, seed, result))
    return rows


def _params_key(params):
    return tuple(sorted(params.items()))


# -- commands -------------------------------------------------------------


def _command(cfg, jobs, plot=False, **grid):
    timestamp = _now()
    _drop_contexts()
    try:
        rows = _run_grid(cfg, jobs, **grid)
    finally:
        _drop_contexts()
    append_rows(csv_path(cfg), rows, timestamp)
    if plot:
        write_plotdata(cfg)
    return 0


def cmd_simulate(cfg, jobs=1):
    return _command(cfg, jobs, simulate=True)


def cmd_offline(cfg, jobs=1):
    return _command(cfg, jobs, simulate=True, build=True)


def cmd_online(cfg, jobs=1):
    return _command(cfg, jobs, plot=True, online=True)


def cmd_sweep(cfg, jobs=1):
    return _command(cfg, jobs, plot=True, simulate=True, build=True, online=True)


# -- plot series ----------------------------------------------------------


def _read_rows(path):
    path = Path(path)
    if not path.exists():
        return []
    rows = []
    with open(path, "r", encoding="utf-8") as f:
        header = None
        for line in f:
            parts = line.rstrip("\n").split(",")
            if header is None:
                header = parts
                continue
            if len(parts) != len(CSV_COLUMNS) or parts[0] != str(SCHEMA_VERSION):
                continue
            rows.append(dict(zip(CSV_COLUMNS, parts)))
    return rows


def _write_tsv(path, head, pairs):
    lines = ["\t".join(head)] + [f"{a}\t{b}" for a, b in pairs]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_plotdata(cfg):
    """Regenerate TSV series (metric vs sweep axis) from results.csv."""
    pd_dir = Path(cfg.out_dir) / "plotdata"
    pd_dir.mkdir(parents=True, exist_ok=True)
    series = {}
    for r in _read_rows(csv_path(cfg)):
        if r["strategy"] == "full" or r["status"] != "ok":
            continue
        for metric in ("jac_frob_err", "red_jac_frob_err", "sv1_err",
                       "mean_newton_iters"):
            if r["m"] and r[metric]:
                name = f"{r['model']}-{r['strategy']}-k{r['k']}-{metric}-vs-m.tsv"
                series.setdefault((name, "m", metric), {})[int(r["m"])] = r[metric]
        if r["traj_l2_err"]:
            mtag = r["m"] or "none"
            name = f"{r['model']}-{r['strategy']}-m{mtag}-traj_l2_err-vs-k.tsv"
            series.setdefault((name, "k", "traj_l2_err"), {})[int(r["k"])] = (
                r["traj_l2_err"]
            )
    for (name, axis, metric), points in series.items():
        _write_tsv(pd_dir / name, (axis, metric), sorted(points.items()))
