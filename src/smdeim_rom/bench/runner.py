"""Experiment orchestration: snapshot/artifact building, ROM runs, metrics.

Command semantics:

* simulate - run the full-order model, persist snapshot artifacts and the
  trajectory, append one "full" row per seed.
* offline  - build reduced-model artifacts for every grid point; only
  failed builds produce rows (so a later online pass skips them).
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

Metrics are evaluated on stage-0 quantities at held-out snapshot states
(every stride-th column), each projected onto the basis subspace first so
the numbers isolate approximation error from subspace truncation error.
"""

import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import scipy.sparse.linalg

from .. import instrumentation
from .. import io as artifact_io
from ..deim import DependentColumnsError, deim_interpolant
from ..jacobian_approx import (
    MemoryGuardError,
    RankError,
    build_mdeim_reference,
    build_smdeim,
    sample_and_approximate,
)
from ..linalg import SvdConvergenceError, leading_singular_value, thin_svd
from ..models import burgers as burgers_model
from ..models import full_solve
from ..models import swe as swe_model
from ..pod import pod_basis
from ..rom import reduce_model, rom_solve
from ..snapshots import SnapshotSet
from ..stats import NewtonConvergenceError

__all__ = [
    "SCHEMA_VERSION",
    "CSV_COLUMNS",
    "M_DEPENDENT",
    "MissingArtifactError",
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

# strategies whose offline build consumes the interpolation mode count
M_DEPENDENT = ("deim", "smdeim", "mdeim-reference")

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
        vals = (
            str(SCHEMA_VERSION),
            self.model,
            self.config_hash,
            self.strategy,
            _fmt(self.n),
            _fmt(self.k),
            _fmt(self.m),
            _fmt(self.gamma),
            _fmt(self.seed),
            _fmt(self.n_t),
            _fmt(self.dt),
            _fmt(self.jac_frob_err),
            _fmt(self.red_jac_frob_err),
            _fmt(self.sv1_err),
            _fmt(self.traj_l2_err),
            _fmt(self.mean_newton_iters),
            _fmt(self.full_mean_newton_iters),
            _fmt(self.offline_seconds),
            _fmt(self.online_seconds),
            self.status.replace(",", ";"),
            timestamp,
        )
        return ",".join(vals)


def row_key(model, config_hash, strategy, k, m, seed):
    return "|".join((model, config_hash, strategy, _fmt(k), _fmt(m), str(seed)))


def _now():
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def csv_path(cfg):
    return Path(cfg.out_dir) / "results.csv"


def existing_keys(path):
    """Row keys already present in a results file."""
    path = Path(path)
    if not path.exists():
        return set()
    keys = set()
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            parts = line.rstrip("\n").split(",")
            if len(parts) != len(CSV_COLUMNS) or parts[0] != str(SCHEMA_VERSION):
                continue
            keys.add("|".join((parts[1], parts[2], parts[3], parts[5],
                               parts[6], parts[8])))
    return keys


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


def ensure_snapshots(cfg, model):
    """Load the snapshot artifacts for a model, running the full solve and
    persisting them when absent.  Returns (snaps, trajectory, full-model
    mean Newton iterations, full-model solve seconds)."""
    paths = snap_paths(cfg, model)
    if all(p.exists() for p in paths):
        snaps = [artifact_io.load_snapshots(p) for p in paths]
        traj, mean_iters, seconds = artifact_io.load_trajectory(paths[0])
        return snaps, traj, mean_iters, seconds
    artifact_dir(cfg).mkdir(parents=True, exist_ok=True)
    traj, stats, snaps = full_solve(
        model, newton_tol=cfg.newton_tol, newton_cap=cfg.newton_cap
    )
    for p, s in zip(paths, snaps):
        artifact_io.save_snapshots(p, s)
    artifact_io.append_block(
        paths[0],
        artifact_io.TAG_TRAJ,
        artifact_io.traj_block(traj, stats.mean_iterations, stats.online_seconds),
    )
    _write_spectrum(cfg, model, snaps)
    return snaps, traj, stats.mean_iterations, stats.online_seconds


def load_snapshot_artifacts(cfg, model):
    """Strict variant of ensure_snapshots used by the online command."""
    paths = snap_paths(cfg, model)
    for p in paths:
        if not p.exists():
            raise MissingArtifactError(
                f"expected snapshot artifact {p}; run simulate or offline first"
            )
    snaps = [artifact_io.load_snapshots(p) for p in paths]
    traj, mean_iters, seconds = artifact_io.load_trajectory(paths[0])
    return snaps, traj, mean_iters, seconds


def _write_spectrum(cfg, model, snaps):
    """Singular values of each stage's gathered Jacobian snapshots (one TSV
    per stage, written once per model configuration)."""
    pd_dir = Path(cfg.out_dir) / "plotdata"
    pd_dir.mkdir(parents=True, exist_ok=True)
    for j, snap in enumerate(snaps):
        path = pd_dir / f"{model.model_id}-jacobian-singulars-s{j}.tsv"
        if path.exists():
            continue
        singulars = thin_svd(snap.jacobian).singulars
        lines = ["mode\tsingular_value"]
        lines += [f"{i + 1}\t{_fmt(float(s))}" for i, s in enumerate(singulars)]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _header_snapshot(snap):
    """Zero-column snapshot body carrying identity + pattern for artifacts."""
    return SnapshotSet(
        model_id=snap.model_id,
        config_hash=snap.config_hash,
        stage=snap.stage,
        dt=snap.dt,
        pattern=snap.pattern,
        states=np.empty((snap.n, 0)),
        nonlinear=np.empty((snap.n, 0)),
        jacobian=np.empty((snap.pattern.r, 0)),
    )


def build_rom_artifact(cfg, model, snaps, strategy, k, m):
    """Build one reduced model offline and persist it; idempotent."""
    path = rom_artifact_path(cfg, model.config_hash, strategy, k, m)
    if path.exists():
        return path
    t0 = time.perf_counter()
    basis = pod_basis(
        snaps[0].states,
        gamma=cfg.gamma,
        k_max=k,
        centered=cfg.centered,
        difference_quotients=cfg.difference_quotients,
    )
    prebuilt = {}
    if strategy == "smdeim":
        prebuilt = {j: build_smdeim(s, m) for j, s in enumerate(snaps)}
    elif strategy == "mdeim-reference":
        prebuilt = {
            j: build_mdeim_reference(s, m, guard_n=cfg.guard_n)
            for j, s in enumerate(snaps)
        }
    rm = reduce_model(
        model,
        basis,
        strategy,
        snapshots=snaps,
        m=m,
        h=cfg.h,
        guard_n=cfg.guard_n,
        newton_tol=cfg.newton_tol,
        newton_cap=cfg.newton_cap,
        prebuilt=prebuilt or None,
    )
    rm.offline_seconds = time.perf_counter() - t0
    tmp = path.with_name(path.name + ".tmp")
    artifact_io.save_snapshots(tmp, _header_snapshot(snaps[0]))
    artifact_io.save_pod_basis(tmp, basis)
    for j, mi in prebuilt.items():
        artifact_io.append_block(
            tmp, artifact_io.TAG_MINT, artifact_io.mint_block(mi, stage=j)
        )
    artifact_io.save_reduced_model(tmp, rm)
    os.replace(tmp, path)
    return path


# -- metric evaluation ----------------------------------------------------


def _heldout_ids(n_cols, stride):
    return [i for i in range(n_cols) if i % stride == stride - 1]


# rows of the deim Jacobian error formed at a time in _deim_frobenius_distance
_FROB_BLOCK_ROWS = 64


def _deim_jacobian_operator(linear, projector, rows):
    """The deim Jacobian approximation L + P R as an operator, never formed.

    L is the sparse linear part, P the (n, m) interpolation projector and R
    the (m, n) sampled rows of the nonlinear-part Jacobian.
    """
    n = linear.shape[0]
    return scipy.sparse.linalg.LinearOperator(
        (n, n),
        matvec=lambda v: linear @ v + projector @ (rows @ v),
        rmatvec=lambda v: linear.T @ v + rows.T @ (projector.T @ v),
        dtype=np.float64,
    )


def _deim_frobenius_distance(linear, projector, rows, jac):
    """||(L + P R) - J||_F over blocks of _FROB_BLOCK_ROWS rows, so at most
    that many rows of the n-by-n difference exist at once."""
    rows = rows.toarray()
    sq = 0.0
    for a in range(0, jac.shape[0], _FROB_BLOCK_ROWS):
        b = a + _FROB_BLOCK_ROWS
        diff = linear[a:b].toarray() + projector[a:b] @ rows - jac[a:b].toarray()
        sq += float(np.dot(diff.ravel(), diff.ravel()))
    return np.sqrt(sq)


def _trajectory_error(basis, traj_red, traj_full):
    """Relative distance of the lifted reduced trajectory from the basis
    projection of the full one; the lifted (n, n_t) arrays die here."""
    ref = basis.lift(basis.project(traj_full))
    return float(np.linalg.norm(basis.lift(traj_red) - ref) / np.linalg.norm(ref))


def run_online_point(cfg, model, snaps, traj_full, strategy, k, m):
    """Integrate one persisted reduced model and evaluate its metrics.

    Returns a dict of metric values; raises MissingArtifactError when the
    offline artifact is absent and NewtonConvergenceError when the reduced
    run fails.
    """
    path = rom_artifact_path(cfg, model.config_hash, strategy, k, m)
    if not path.exists():
        raise MissingArtifactError(
            f"expected offline artifact {path}; run the offline command first"
        )
    blocks = artifact_io.read_blocks(path)
    rm = artifact_io.load_reduced_model(path, model, blocks=blocks)
    mi = None
    if strategy in ("smdeim", "mdeim-reference"):
        mi = artifact_io.load_interpolant(path, stage=0, blocks=blocks)
    del blocks
    s0 = snaps[0]
    fn_interp = None
    if strategy == "deim":
        fn_interp = deim_interpolant(thin_svd(s0.nonlinear).u, rm.meta["m"])
    with instrumentation.online_section():
        traj_red, stats = rom_solve(rm, model.default_n_t)

    basis = rm.basis
    traj_err = _trajectory_error(basis, traj_red, traj_full)

    op0 = model.stages[0].op
    probe_ids = _heldout_ids(s0.n_cols, cfg.heldout_stride)
    red_errs = []
    jac_errs = []
    sv_errs = []
    for count, i in enumerate(probe_ids):
        xt_p = basis.project(s0.states[:, i])
        x_p = basis.lift(xt_p)
        jac_true = op0.jacobian(x_p)
        red_true = basis.u.T @ (jac_true @ basis.u)
        red_approx = rm.stages[0].jacobian.evaluate(xt_p, x_p)
        red_errs.append(
            float(np.linalg.norm(red_approx - red_true) / np.linalg.norm(red_true))
        )
        if mi is not None:
            approx = sample_and_approximate(mi, op0, x_p)
            num = scipy.sparse.linalg.norm(approx - jac_true)
        elif fn_interp is not None:
            rows = op0.sample_nl_rows(x_p, fn_interp.indexes)
            approx = _deim_jacobian_operator(op0.linear, fn_interp.projector, rows)
            num = _deim_frobenius_distance(
                op0.linear, fn_interp.projector, rows, jac_true
            )
        else:
            continue
        jac_errs.append(float(num / scipy.sparse.linalg.norm(jac_true)))
        if count < cfg.sv_probes:
            sv_true = leading_singular_value(jac_true)
            sv_app = leading_singular_value(approx)
            sv_errs.append(abs(sv_app - sv_true) / sv_true)

    return {
        "jac_frob_err": float(np.mean(jac_errs)) if jac_errs else None,
        "red_jac_frob_err": float(np.mean(red_errs)) if red_errs else None,
        "sv1_err": float(np.mean(sv_errs)) if sv_errs else None,
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


def _unit_worker(cfg, params, strategy, k, m, build, online):
    """Build and/or run one grid unit; returns a metrics dict (never raises
    for expected per-point failures)."""
    model = build_model(cfg, params)
    if build:
        snaps, traj_full, _, _ = ensure_snapshots(cfg, model)
    else:
        snaps, traj_full, _, _ = load_snapshot_artifacts(cfg, model)
    try:
        if build:
            build_rom_artifact(cfg, model, snaps, strategy, k, m)
        if not online:
            return {"status": "ok"}
        return run_online_point(cfg, model, snaps, traj_full, strategy, k, m)
    except _BUILD_ERRORS as exc:
        return {"status": f"failed:{type(exc).__name__}"}
    except NewtonConvergenceError as exc:
        return {"status": f"failed:newton step {exc.step} stage {exc.stage}"}


def _full_row(cfg, model, seed, mean_iters, seconds):
    return ResultRow(
        model=model.model_id,
        config_hash=model.config_hash,
        strategy="full",
        n=model.n,
        k=None,
        m=None,
        gamma=None,
        seed=seed,
        n_t=model.default_n_t,
        dt=model.dt,
        mean_newton_iters=mean_iters,
        full_mean_newton_iters=mean_iters,
        online_seconds=seconds,
    )


def _rom_row(cfg, info, strategy, k, m, seed, result):
    row = ResultRow(
        model=info["model_id"],
        config_hash=info["config_hash"],
        strategy=strategy,
        n=info["n"],
        k=k,
        m=m,
        gamma=cfg.gamma,
        seed=seed,
        n_t=info["n_t"],
        dt=info["dt"],
        full_mean_newton_iters=info["full_mean_iters"],
        status=result.get("status", "ok"),
    )
    for name in ("jac_frob_err", "red_jac_frob_err", "sv1_err", "traj_l2_err",
                 "mean_newton_iters", "offline_seconds", "online_seconds"):
        setattr(row, name, result.get(name))
    return row


def _run_grid(cfg, jobs, build, online, require_snapshots=False):
    """Shared engine for offline/online/sweep.

    Returns the list of new ResultRows in deterministic grid order.  With
    build=True, full-model rows are produced too (snapshot collection is
    part of offline work); with online=True, metric rows are produced for
    every pending unit.
    """
    keys = existing_keys(csv_path(cfg))
    rows = []
    infos = {}
    for params in model_param_combos(cfg):
        model = build_model(cfg, params)
        if require_snapshots:
            _, _, mean_iters, seconds = load_snapshot_artifacts(cfg, model)
        else:
            _, _, mean_iters, seconds = ensure_snapshots(cfg, model)
        infos[_params_key(params)] = {
            "model_id": model.model_id,
            "config_hash": model.config_hash,
            "n": model.n,
            "n_t": model.default_n_t,
            "dt": model.dt,
            "full_mean_iters": mean_iters,
            "full_seconds": seconds,
        }
        if build:
            for seed in cfg.seeds:
                row = _full_row(cfg, model, seed, mean_iters, seconds)
                if row.key() not in keys:
                    keys.add(row.key())
                    rows.append(row)

    units = unit_list(cfg)
    pending = []
    for idx, (params, strategy, k, m) in enumerate(units):
        info = infos[_params_key(params)]
        wanted = [
            row_key(info["model_id"], info["config_hash"], strategy, k, m, seed)
            for seed in cfg.seeds
        ]
        if online:
            if any(w not in keys for w in wanted):
                pending.append(idx)
        elif build:
            # build-only pass: skip units that already failed or have rows
            path_exists = rom_artifact_path(
                cfg, info["config_hash"], strategy, k, m
            ).exists()
            if not path_exists and any(w not in keys for w in wanted):
                pending.append(idx)

    results = {}
    if jobs > 1 and len(pending) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = {}
            for idx in pending:
                params, strategy, k, m = units[idx]
                futures[pool.submit(_unit_worker, cfg, params, strategy, k, m,
                                    build, online)] = idx
            for fut in as_completed(futures):
                results[futures[fut]] = fut.result()
    else:
        for idx in pending:
            params, strategy, k, m = units[idx]
            results[idx] = _unit_worker(cfg, params, strategy, k, m, build, online)

    for idx in sorted(results):
        params, strategy, k, m = units[idx]
        info = infos[_params_key(params)]
        result = results[idx]
        if not online and result.get("status", "ok") == "ok":
            continue  # successful build-only units produce no rows
        for seed in cfg.seeds:
            row = _rom_row(cfg, info, strategy, k, m, seed, result)
            if row.key() not in keys:
                keys.add(row.key())
                rows.append(row)
    return rows


def _params_key(params):
    return tuple(sorted(params.items()))


# -- commands -------------------------------------------------------------


def cmd_simulate(cfg, jobs=1):
    timestamp = _now()
    keys = existing_keys(csv_path(cfg))
    rows = []
    for params in model_param_combos(cfg):
        model = build_model(cfg, params)
        _, _, mean_iters, seconds = ensure_snapshots(cfg, model)
        for seed in cfg.seeds:
            row = _full_row(cfg, model, seed, mean_iters, seconds)
            if row.key() not in keys:
                keys.add(row.key())
                rows.append(row)
    append_rows(csv_path(cfg), rows, timestamp)
    return 0


def cmd_offline(cfg, jobs=1):
    timestamp = _now()
    rows = _run_grid(cfg, jobs, build=True, online=False)
    append_rows(csv_path(cfg), rows, timestamp)
    return 0


def cmd_online(cfg, jobs=1):
    timestamp = _now()
    rows = _run_grid(cfg, jobs, build=False, online=True, require_snapshots=True)
    append_rows(csv_path(cfg), rows, timestamp)
    write_plotdata(cfg)
    return 0


def cmd_sweep(cfg, jobs=1):
    timestamp = _now()
    rows = _run_grid(cfg, jobs, build=True, online=True)
    append_rows(csv_path(cfg), rows, timestamp)
    write_plotdata(cfg)
    return 0


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


def write_plotdata(cfg):
    """Regenerate TSV series (metric vs sweep axis) from results.csv."""
    rows = _read_rows(csv_path(cfg))
    pd_dir = Path(cfg.out_dir) / "plotdata"
    pd_dir.mkdir(parents=True, exist_ok=True)

    for metric in ("jac_frob_err", "red_jac_frob_err", "sv1_err",
                   "mean_newton_iters"):
        groups = {}
        for r in rows:
            if r["strategy"] == "full" or not r["m"] or not r[metric]:
                continue
            if r["status"] != "ok":
                continue
            key = (r["model"], r["strategy"], r["k"])
            groups.setdefault(key, {})[int(r["m"])] = r[metric]
        for (mdl, strat, k), series in sorted(groups.items()):
            path = pd_dir / f"{mdl}-{strat}-k{k}-{metric}-vs-m.tsv"
            lines = [f"m\t{metric}"]
            lines += [f"{m}\t{series[m]}" for m in sorted(series)]
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    groups = {}
    for r in rows:
        if r["strategy"] == "full" or not r["traj_l2_err"] or r["status"] != "ok":
            continue
        key = (r["model"], r["strategy"], r["m"] or "none")
        groups.setdefault(key, {})[int(r["k"])] = r["traj_l2_err"]
    for (mdl, strat, mtag), series in sorted(groups.items()):
        path = pd_dir / f"{mdl}-{strat}-m{mtag}-traj_l2_err-vs-k.tsv"
        lines = ["k\ttraj_l2_err"]
        lines += [f"{k}\t{series[k]}" for k in sorted(series)]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
