"""Benchmark of the smdeim-rom library: full-order solve, offline training
and per-strategy online cost.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout; it imports the package from ./src.
Workloads (see inputs.py for why each is here): burgers-199, burgers-1999,
swe-3393, cli-swe-741.  BENCHMARK.json declares burgers-199 and
cli-swe-741 only: between them they reach every layer, and with two
workloads each run can measure for 60 s, which the host's timing noise
needs.  The other two run the same way when named.

Each run is one process driving a closed loop of library calls, one at a
time, with BLAS pinned to one thread.  It repeats whole passes (see
workloads.py) until the next pass would end after --seconds, with at least
two passes.  Every pass checks its outputs; a failed operation or check
counts in `failed`.

A time metric is the per-pass average over the run: the total time the
stage took divided by the passes that ran it, which is work completed per
unit time at the stated size.  On a shared two-vCPU virtual machine the
speed switches between two levels about 1.5x apart, each held for seconds
to tens of seconds; a total integrates the switches, where the median of
five to eight passes jumps between the levels (on the same runs the
median's run-to-run spread was up to twice the average's).  Each metric
line also shows the median and the number of passes.  setup_s is the
median of five set-ups: this process's and four fresh interpreters'.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced and
traced passes: the traced ones give the per-layer metrics (self times,
exact counts), the difference between the two gives the tracing overhead,
and every span is written to .perfbench/spans-<workload>.jsonl at exit.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it record the environment
and every metric by name with its unit.
"""

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

# One BLAS thread: the reduced kernels are k = 25 in size, and on a shared
# two-vCPU host single-threaded timings are the steadier ones.
BLAS_THREADS = 1
MIN_PASSES = 2
SETUP_PROBES = 4

E2E_UNITS = {
    "setup_s": "s",
    "fom_s": "s",
    "offline_s": "s",
    "offline_s.smdeim": "s",
    "online_step_ms.direct-projection": "ms",
    "online_step_ms.tensorial": "ms",
    "online_step_ms.directional-derivative": "ms",
    "online_step_ms.deim": "ms",
    "online_step_ms.smdeim": "ms",
    "peak_rss_mb": "MB",
    "rom_traj_err_ratio": "ratio",
    "pipeline_s": "s",
}
# measured where they apply, printed but not part of the result object
# because they do not exist on every workload
E2E_EXTRA = ("offline_s.mdeim-reference", "online_step_ms.mdeim-reference")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def pin_threads():
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(min(BLAS_THREADS, os.cpu_count() or 1))
    # the memory guard of the vectorized route stays at its default
    os.environ.pop("SMDEIM_GUARD_N", None)


def probe_setup(workload, seed):
    """Set-up time of a fresh interpreter, measured inside it."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def environment(args, model, strategies):
    import numpy as np
    import scipy

    from inputs import GAMMA, K, M, draw_params

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = done.stdout.strip() or None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": draw_params(args.workload, args.seed),
        "n": model.n,
        "n_t": model.default_n_t,
        "stages": len(model.stages),
        "k": K,
        "m": M,
        "gamma": GAMMA,
        "strategies": list(strategies),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "src_sha256": src_digest(),
    }


def src_digest():
    """Digest of the package sources, which identifies the code under test
    where the checkout carries no git metadata."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def run_passes(args, model, cfg, strategies, env, tally):
    """Repeat passes until the next one would overrun --seconds."""
    import tracing
    import workloads
    from smdeim_rom import instrumentation

    cli = cfg is not None
    tracer = tracing.Tracer()
    e2e, layer_times, layer_counts, errors = [], [], [], None
    traced_pipeline, plain_pipeline = [], []
    reference_rows = None
    start = time.perf_counter()
    index = 0
    while True:
        traced = bool(args.trace) and index % 2 == 1
        tracing.install(tracer, traced)
        tracer.begin_pass(f"{args.workload}/seed{args.seed}/pass{index}")
        before = instrumentation.snapshot()
        began = time.perf_counter()
        if cli:
            lines, written = workloads.cli_pass(cfg, OUT / f"cli-{os.getpid()}", tally)
        else:
            workloads.library_pass(model, strategies, tracer, tally)
        took = time.perf_counter() - began
        after = instrumentation.snapshot()
        counter_delta = {key: after[key] - before[key] for key in after}
        tracer.unpatch_all()

        counts = {}
        pass_errors, found = workloads.check_outputs(tracer, tally)
        counts.update(found)
        if cli:
            reference_rows, found = workloads.check_rows(lines, reference_rows, tally)
            counts.update(found)
            counts["io.bytes_written"] = written
        else:
            counts.update({"bench.rows": 0, "bench.rows_ok": 0, "io.bytes_written": 0})
        if errors is None and pass_errors:
            errors = pass_errors
        times = workloads.e2e_times(tracer, strategies, cli)
        (traced_pipeline if traced else plain_pipeline).append(times["pipeline_s"])
        if traced:
            self_times, exact = workloads.layer_numbers(tracer, counter_delta)
            exact.update(counts)
            tally.check("tracer saw every thin_svd call",
                        exact["linalg.thin_svd.calls"] == tracer.calls.get("linalg.thin_svd", 0))
            tally.check("tracer saw every index selection",
                        exact["deim.select_calls"] == tracer.calls.get("deim.deim_interpolant", 0))
            if layer_counts:
                diff = sorted(k for k in exact
                              if not k.endswith(".failures") and exact[k] != layer_counts[0][k])
                tally.check("exact counts repeat across passes", not diff, ", ".join(diff))
            layer_times.append(self_times)
            layer_counts.append(exact)
        else:
            e2e.append(times)
        print(f"pass {index} {'traced' if traced else 'plain'} "
              + " ".join(f"{k}={v:.4g}" for k, v in times.items()), flush=True)
        index += 1
        elapsed = time.perf_counter() - start
        if index >= MIN_PASSES and elapsed + took > args.seconds:
            break
    if args.trace:
        OUT.mkdir(exist_ok=True)
        tracer.write_spans(OUT / f"spans-{args.workload}.jsonl",
                           dict(env, passes=index))
    return {
        "passes": index,
        "e2e": e2e,
        "layer_times": layer_times,
        "layer_counts": layer_counts,
        "errors": errors or {},
        "overhead_s": (statistics.fmean(traced_pipeline) - statistics.fmean(plain_pipeline)
                       if traced_pipeline and plain_pipeline else None),
    }


def per_pass(samples, name):
    """(average over passes, "median=... n=..." note) of one metric."""
    values = [s[name] for s in samples if name in s]
    if not values:
        return None, ""
    return (statistics.fmean(values),
            f"median={statistics.median(values)!r} n={len(values)}")


def main(argv=None):
    args = parse_args(argv)
    pin_threads()
    if not (SRC / "smdeim_rom" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import inputs

    if args.workload not in inputs.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              + ", ".join(inputs.WORKLOADS), file=sys.stderr)
        return 2
    if args.setup_probe:
        seconds, _, _ = inputs.setup(args.workload, args.seed)
        print(json.dumps({"setup_s": seconds}))
        return 0

    seconds, model, cfg = inputs.setup(args.workload, args.seed)
    setup_samples = [seconds] + [probe_setup(args.workload, args.seed)
                                 for _ in range(SETUP_PROBES)]

    import workloads

    strategies = workloads.strategies_for(model, cfg)
    env = environment(args, model, strategies)
    print("env " + json.dumps(env, sort_keys=True))
    tally = workloads.Tally()
    got = run_passes(args, model, cfg, strategies, env, tally)

    metrics = {}
    values, notes = {}, {}
    if args.trace:
        units = workloads.per_layer_units()
        for name in units:
            if units[name] == "s":
                values[name], notes[name] = per_pass(got["layer_times"], name)
            else:
                values[name] = got["layer_counts"][0].get(name) if got["layer_counts"] else None
        values["trace.overhead_s"] = got["overhead_s"]
        errs = got["errors"]
        values["rom.traj_err"] = max(errs.values()) if errs else None
    else:
        units = E2E_UNITS
        for name in units:
            values[name], notes[name] = per_pass(got["e2e"], name)
        values["setup_s"] = statistics.median(setup_samples)
        notes["setup_s"] = f"n={len(setup_samples)}"
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        errs = got["errors"]
        values["rom_traj_err_ratio"] = (max(errs.values()) / errs["tensorial"]
                                        if "tensorial" in errs else None)
        for name in E2E_EXTRA:
            extra, note = per_pass(got["e2e"], name)
            if extra is not None:
                print(f"extra {name} {extra!r} {'ms' if 'ms' in name else 's'} {note}")
    for name, unit in units.items():
        value = values.get(name)
        if hasattr(value, "item"):
            value = value.item()
        print(f"metric {name} {value!r} {unit} {notes.get(name) or ''}".rstrip())
        if value is not None:
            metrics[name] = {"value": value, "unit": unit}
    tally.check("every metric measured", len(metrics) == len(units),
                ", ".join(sorted(set(units) - set(metrics))))
    print(f"passes {got['passes']}")
    print(f"error_rate {tally.failed / tally.attempted!r} "
          f"({tally.failed} failed / {tally.attempted} attempted)")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
