"""One measured pass of a workload, its output checks and its metrics.

A pass is a closed loop of library calls, one at a time:

* library workloads: full_solve; pod_basis + reduce_model per strategy;
  rom_solve per strategy, each inside instrumentation.online_section();
* the CLI workload: cmd_simulate -> cmd_offline -> cmd_online on a fresh
  output directory.

The end-to-end times come from the tracer's "e2e" records of those calls;
the per-layer numbers from its span aggregates when the pass is traced.
"""

import shutil
import sys
import traceback

import numpy as np

import smdeim_rom.models as models
import smdeim_rom.pod as pod
import smdeim_rom.rom as rom
from smdeim_rom import instrumentation
from smdeim_rom.bench import config as bench_config
from smdeim_rom.bench import runner
from smdeim_rom.jacobian_approx import guard_limit

from inputs import GAMMA, K, M

# Newton tolerance of both the library defaults and the CLI config defaults.
NEWTON_TOL = 1e-10
# Largest relative distance allowed between a strategy's lifted reduced
# trajectory and the exact tensorial one.  Every strategy evaluates the
# reduced residual exactly and only approximates the Newton matrix, so they
# converge to the same roots; the observed distances are below 1e-10.
TRAJ_TOL = 1e-8
# States (as fractions of the trajectory) where sampled Jacobian entries
# are compared with assembled ones.
CHECK_STATES = (1 / 3, 2 / 3, 1.0)
# Columns of results.csv that hold wall-clock readings.
WALL_COLUMNS = ("offline_seconds", "online_seconds", "timestamp")

LAYERS = ("models", "rom", "linalg", "pod", "deim", "jacobian_approx",
          "snapshots", "io", "bench")
COUNTERS = {
    "thin_svd_calls": "linalg.thin_svd.calls",
    "deim_select_calls": "deim.select_calls",
    "sample_flops": "models.sample_flops",
    "reduced_jacobian_flops": "rom.reduced_jacobian_flops",
}
OFFLINE_LABELS = ("pod.pod_basis", "rom.reduce_model", "jacobian_approx.build_smdeim",
                  "jacobian_approx.build_mdeim_reference")

# per-layer metrics: (name, unit); "s" metrics are per-pass averages over
# the traced passes, all others are exact per-pass counts that must repeat
SELF_TIMED = (
    "models.jacobian_values", "models.jacobian", "models.splu", "models.rhs",
    "models.sample_jacobian", "models.sample_nl_rows", "rom.reduced_rhs",
    "rom.build_tensor_core", "rom.reducer_precompute", "linalg.solve_dense",
    "linalg.thin_svd", "pod.pod_basis", "pod.lift", "deim.deim_interpolant",
    "jacobian_approx.build_smdeim", "jacobian_approx.build_mdeim_reference",
    "snapshots.scatter", "io.save", "io.load", "bench.run_online_point",
)
CALLED = (
    "models.jacobian", "models.splu", "models.rhs", "models.sample_jacobian",
    "models.sample_nl_rows", "rom.reduced_rhs", "linalg.solve_dense", "pod.lift",
    "snapshots.scatter",
)
CMDS = ("cmd_simulate", "cmd_offline", "cmd_online")


def per_layer_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in SELF_TIMED:
        units[name + ".self_s"] = "s"
    for name in CALLED:
        units[name + ".calls"] = "count"
    for strategy in rom.STRATEGIES:
        units["rom.evaluate.self_s." + strategy] = "s"
        units["rom.jacobian_evals." + strategy] = "count"
    for cmd in CMDS:
        units[f"bench.{cmd}.s"] = "s"
    units.update({
        "models.newton_iters": "count",
        "models.sample_jacobian.entries": "count",
        "models.sample_flops": "flop",
        "rom.newton_iters": "count",
        "rom.reduced_jacobian_flops": "flop",
        "rom.traj_err": "ratio",
        "linalg.thin_svd.calls": "count",
        "linalg.thin_svd.bytes_in": "B",
        "deim.select_calls": "count",
        "jacobian_approx.gathered_bytes": "B",
        "jacobian_approx.vectorized_bytes": "B",
        "snapshots.pattern_r.stage0": "count",
        "snapshots.pattern_r.stage1": "count",
        "io.bytes_written": "B",
        "io.bytes_read": "B",
        "bench.rows": "count",
        "bench.rows_ok": "count",
        "trace.overhead_s": "s",
    })
    for layer in LAYERS:
        units[layer + ".failures"] = "count"
    return units


class Tally:
    """Attempted and failed operations; an output check is an operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def op(self, what, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:  # one failed operation must not end the run
            self.failed += 1
            print(f"FAILED {what}:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            return None

    def check(self, what, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"CHECK FAILED {what}: {detail}", file=sys.stderr)
        return ok


def strategies_for(model, cfg):
    """Strategies a workload runs: the CLI config's, or every strategy with
    mdeim-reference only where the memory guard admits it."""
    if cfg is not None:
        return cfg.strategies
    return tuple(s for s in rom.STRATEGIES
                 if s != "mdeim-reference" or model.n <= guard_limit())


def _online(rm, n_t):
    with instrumentation.online_section():
        return rom.rom_solve(rm, n_t)


def library_pass(model, strategies, tracer, tally):
    """full_solve, then every strategy offline, then every strategy online.

    Calls go through the module attributes so the tracer's hooks see them.
    """
    out = tally.op("full_solve", models.full_solve, model)
    if out is None:
        return
    snaps = out[2]
    built = {}
    for strategy in strategies:
        tracer.context = {"strategy": strategy}

        def offline():
            basis = pod.pod_basis(snaps[0].states, gamma=GAMMA, k_max=K)
            return rom.reduce_model(model, basis, strategy, snapshots=snaps, m=M)

        built[strategy] = tally.op(f"reduce_model {strategy}", offline)
    tracer.context = {}
    for strategy, rm in built.items():
        if rm is not None:
            tally.op(f"rom_solve {strategy}", _online, rm, model.default_n_t)


def cli_pass(cfg, out_dir, tally):
    """simulate -> offline -> online into a fresh directory.

    Returns (results.csv lines, artifact bytes written); the directory is
    removed before returning.
    """
    shutil.rmtree(out_dir, ignore_errors=True)
    cfg = bench_config.with_overrides(cfg, out_dir=str(out_dir))
    try:
        for cmd in CMDS:
            code = tally.op(cmd, getattr(runner, cmd), cfg)
            if not tally.check(f"{cmd} exit status", code == 0, f"returned {code}"):
                return [], 0
        lines = runner.csv_path(cfg).read_text(encoding="utf-8").splitlines()
        written = sum(p.stat().st_size for p in runner.artifact_dir(cfg).iterdir())
        return lines, written
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def _records(tracer, label):
    return [rec for rec in tracer.records if rec[0] == label]


def _rel(a, b):
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def check_outputs(tracer, tally):
    """Check the pass's outputs; returns (per-strategy trajectory errors,
    exact counts read from the outputs)."""
    counts = {}
    fulls = _records(tracer, "models.full_solve")
    if not tally.check("full_solve ran", len(fulls) == 1, f"{len(fulls)} calls"):
        return {}, counts
    traj_full, stats, snaps = fulls[0][4]
    worst = max(norms[-1] for norms in stats.residual_norms)
    tally.check("full-order Newton converged",
                worst <= NEWTON_TOL and not stats.failures,
                f"worst final residual {worst:.3e}")
    counts["models.newton_iters"] = int(sum(stats.iterations))
    for j in range(2):
        counts[f"snapshots.pattern_r.stage{j}"] = (
            snaps[j].pattern.r if j < len(snaps) else 0)
    counts["jacobian_approx.gathered_bytes"] = sum(
        8 * s.pattern.r * s.n_cols for s in snaps)
    counts["jacobian_approx.vectorized_bytes"] = sum(
        8 * s.n * s.n * s.n_cols for s in snaps)

    solves = {rec[1]: (rec[3][0], rec[4]) for rec in _records(tracer, "rom.rom_solve")}
    counts["rom.newton_iters"] = int(sum(sum(st.iterations) for _, (_, st) in solves.values()))
    errors = {}
    lifted = {}
    for strategy, (rm, (traj, _)) in solves.items():
        basis = rm.basis
        lifted[strategy] = basis.lift(traj)
        errors[strategy] = _rel(lifted[strategy], basis.lift(basis.project(traj_full)))
    if not tally.check("tensorial run present", "tensorial" in lifted):
        return errors, counts
    exact = lifted["tensorial"]
    for strategy, traj in lifted.items():
        if strategy != "tensorial":
            dist = _rel(traj, exact)
            tally.check(f"{strategy} trajectory matches tensorial", dist <= TRAJ_TOL,
                        f"relative distance {dist:.3e} > {TRAJ_TOL:g}")

    n_t = exact.shape[1]
    states = [exact[:, min(n_t - 1, int(f * (n_t - 1)))] for f in CHECK_STATES]
    for strategy in ("smdeim", "mdeim-reference"):
        if strategy not in solves:
            continue
        for j, stage in enumerate(solves[strategy][0].stages):
            jac = stage.jacobian
            op = jac.op
            pos = op.pattern.positions_of(jac.sample_rows, jac.sample_cols)
            same = True
            for x in states:
                sampled = op.sample_jacobian(x, jac.sample_rows, jac.sample_cols)
                assembled = np.where(pos >= 0, op.jacobian_values(x)[pos], 0.0)
                same = same and np.array_equal(sampled, assembled)
            tally.check(f"{strategy} stage {j} samples equal assembled entries", same)
    return errors, counts


def check_rows(lines, reference, tally):
    """Every results.csv row is ok, and the deterministic columns match the
    first pass byte for byte.  Returns (deterministic rows, counts)."""
    header = lines[0].split(",") if lines else []
    keep = [i for i, col in enumerate(header) if col not in WALL_COLUMNS]
    status = header.index("status") if "status" in header else None
    rows = [line.split(",") for line in lines[1:]]
    ok = sum(1 for r in rows if status is not None and r[status] == "ok")
    tally.check("results.csv rows all ok", rows and ok == len(rows),
                f"{ok} of {len(rows)} rows ok")
    fixed = [",".join(r[i] for i in keep) for r in rows]
    if reference is not None:
        tally.check("results.csv deterministic columns repeat", fixed == reference,
                    "deterministic columns differ from the first pass")
    return fixed, {"bench.rows": len(rows), "bench.rows_ok": ok}


def e2e_times(tracer, strategies, cli):
    """End-to-end times of one pass from the tracer's e2e records."""
    fom = sum(rec[2] for rec in _records(tracer, "models.full_solve"))
    offline = dict.fromkeys(strategies, 0.0)
    online = {}
    for label, strategy, seconds, args, result in tracer.records:
        if label in OFFLINE_LABELS and strategy in offline:
            offline[strategy] += seconds
        elif label == "rom.rom_solve":
            online[strategy] = 1e3 * seconds / (result[0].shape[1] - 1)
    times = {"fom_s": fom, "offline_s": sum(offline.values())}
    times.update({f"offline_s.{s}": v for s, v in offline.items()})
    times.update({f"online_step_ms.{s}": v for s, v in online.items()})
    if cli:
        times["pipeline_s"] = sum(tracer.total_ns[f"bench.{c}"] for c in CMDS) * 1e-9
    else:
        times["pipeline_s"] = fom + times["offline_s"] + sum(
            rec[2] for rec in _records(tracer, "rom.rom_solve"))
    return times


def layer_numbers(tracer, counter_delta):
    """Per-layer self times and exact counts of one traced pass."""
    times = {name + ".self_s": tracer.seconds(name) for name in SELF_TIMED}
    counts = {name + ".calls": tracer.calls.get(name, 0) for name in CALLED}
    for strategy in rom.STRATEGIES:
        label = "rom.evaluate." + strategy
        times["rom.evaluate.self_s." + strategy] = tracer.seconds(label)
        counts["rom.jacobian_evals." + strategy] = tracer.calls.get(label, 0)
    for cmd in CMDS:
        times[f"bench.{cmd}.s"] = tracer.total_ns.get(f"bench.{cmd}", 0) * 1e-9
    for key, name in COUNTERS.items():
        counts[name] = counter_delta[key]
    for name in ("models.sample_jacobian.entries", "linalg.thin_svd.bytes_in",
                 "io.bytes_read"):
        counts[name] = tracer.counts.get(name, 0)
    for layer in LAYERS:
        counts[layer + ".failures"] = tracer.failures.get(layer, 0)
    return times, counts

