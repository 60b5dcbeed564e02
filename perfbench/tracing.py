"""Spans around the library's public functions, installed from outside.

A `Tracer` replaces a function or method with a wrapper under the exact
name its caller looks up (a module attribute or a class attribute), so no
library file changes.  Each wrapper records one span: name, start, end,
parent span and the run id of the pass it belongs to.  Spans stay in memory
and `write_spans` dumps them when the benchmark ends.

Self time of a span is its duration minus the time its child spans cover;
calls are strictly nested on one thread, so that is the sum of the
children's durations.

Hooks come in two roles:

* "e2e" hooks sit on the top-level calls the end-to-end metrics time
  (full_solve, pod_basis, reduce_model, rom_solve, and the interpolant
  builders the CLI runner calls itself).  They are installed in every run;
  their cost is two clock reads per call on calls that take milliseconds
  to seconds.
* "layer" hooks sit on the inner layers and are installed only in the
  traced run.
"""

import functools
import json
import os
import time
from collections import defaultdict

import numpy as np

_NS = 1e-9


class Tracer:
    """Span recorder with per-pass aggregates."""

    def __init__(self):
        self.spans = []
        self.context = {}
        self._stack = []
        self._next_id = 0
        self._patches = []
        self.begin_pass("setup")

    def begin_pass(self, run_id):
        """Start a fresh set of per-pass aggregates under a new run id."""
        self.run_id = run_id
        self.self_ns = defaultdict(int)
        self.total_ns = defaultdict(int)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.failures = defaultdict(int)
        self.records = []

    # -- wrapping ---------------------------------------------------------

    def wrap(self, name, fn, before=None, after=None, record=False):
        """Wrap fn in a span.

        name is a string or a callable (tracer, args, kwargs) -> string.
        before(tracer, args, kwargs) may return a dict of context entries
        that hold for the duration of the call.  after(tracer, args, kwargs,
        result) may add counts.  record=True appends (name, strategy,
        seconds, args, result) to `records` for the end-to-end metrics.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            saved = None
            if before is not None:
                extra = before(self, args, kwargs)
                if extra:
                    saved = dict(self.context)
                    self.context.update(extra)
            label = name(self, args, kwargs) if callable(name) else name
            strategy = self.context.get("strategy")
            frame = [self._next_id, 0]
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else None
            self._stack.append(frame)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.failures[label.split(".", 1)[0]] += 1
                raise
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                duration = end - start
                if self._stack:
                    self._stack[-1][1] += duration
                self.self_ns[label] += duration - frame[1]
                self.total_ns[label] += duration
                self.calls[label] += 1
                self.spans.append((self.run_id, frame[0], parent, label, start, end))
                if saved is not None:
                    self.context = saved
            if after is not None:
                after(self, args, kwargs, result)
            if record:
                self.records.append((label, strategy, duration * _NS, args, result))
            return result

        return wrapper

    def patch(self, owner, attr, name, **hooks):
        """Replace owner.attr by a traced wrapper; undone by `unpatch_all`."""
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, **hooks))

    def unpatch_all(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output -----------------------------------------------------------

    def seconds(self, label):
        return self.self_ns.get(label, 0) * _NS

    def write_spans(self, path, header):
        """Write one JSON header line, then one JSON list per span:
        [run_id, span_id, parent_id, name, start_ns, end_ns]."""
        with open(path, "w", encoding="utf-8") as f:
            f.write(json.dumps(header, sort_keys=True) + "\n")
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


# -- the hook table -----------------------------------------------------------


def _strategy_of_rm(tracer, args, kwargs):
    return {"strategy": args[0].strategy}


def _strategy_arg(index):
    def before(tracer, args, kwargs):
        return {"strategy": args[index]}

    return before


def _evaluate_label(fallback):
    def label(tracer, args, kwargs):
        return "rom.evaluate." + tracer.context.get("strategy", fallback)

    return label


def _count_entries(tracer, args, kwargs, result):
    tracer.counts["models.sample_jacobian.entries"] += int(np.size(args[2]))


def _count_svd_bytes(tracer, args, kwargs, result):
    tracer.counts["linalg.thin_svd.bytes_in"] += 8 * int(np.size(args[0]))


def _count_read(tracer, args, kwargs, result):
    tracer.counts["io.bytes_read"] += os.path.getsize(args[0])


def install(tracer, trace):
    """Patch the library: e2e hooks always, layer hooks when trace is true."""
    import scipy.sparse.linalg

    import smdeim_rom.bench.runner as runner
    import smdeim_rom.io as aio
    import smdeim_rom.jacobian_approx as japprox
    import smdeim_rom.models as models
    import smdeim_rom.pod as pod
    import smdeim_rom.rom as rom
    from smdeim_rom.models.quadratic import QuadraticOperator

    # end-to-end stopwatches, under the names the benchmark and the runner
    # look up
    for owner in (models, runner):
        tracer.patch(owner, "full_solve", "models.full_solve", record=True)
    for owner in (pod, runner):
        tracer.patch(owner, "pod_basis", "pod.pod_basis", record=True)
    for owner in (rom, runner):
        tracer.patch(owner, "reduce_model", "rom.reduce_model", record=True)
        tracer.patch(owner, "rom_solve", "rom.rom_solve",
                     before=_strategy_of_rm, record=True)
    tracer.patch(runner, "build_smdeim", "jacobian_approx.build_smdeim", record=True)
    tracer.patch(runner, "build_mdeim_reference",
                 "jacobian_approx.build_mdeim_reference", record=True)
    tracer.patch(runner, "build_rom_artifact", "bench.build_rom_artifact",
                 before=_strategy_arg(3))
    for cmd in ("cmd_simulate", "cmd_offline", "cmd_online"):
        tracer.patch(runner, cmd, "bench." + cmd)
    if not trace:
        return

    # models
    tracer.patch(scipy.sparse.linalg, "splu", "models.splu")
    for meth in ("rhs", "jacobian", "jacobian_values", "sample_nl_rows"):
        tracer.patch(QuadraticOperator, meth, "models." + meth)
    tracer.patch(QuadraticOperator, "sample_jacobian", "models.sample_jacobian",
                 after=_count_entries)

    # rom
    tracer.patch(rom, "build_tensor_core", "rom.build_tensor_core")
    tracer.patch(rom.TensorCore, "rhs", "rom.reduced_rhs")
    tracer.patch(rom.MatrixInterpolantJacobian, "__init__", "rom.reducer_precompute")
    for cls, strategy in (
        (rom.TensorialJacobian, "tensorial"),
        (rom.DirectProjectionJacobian, "direct-projection"),
        (rom.DirectionalDerivativeJacobian, "directional-derivative"),
        (rom.DeimFunctionJacobian, "deim"),
        (rom.MatrixInterpolantJacobian, "smdeim"),
    ):
        tracer.patch(cls, "evaluate", _evaluate_label(strategy))

    # linalg, deim and jacobian_approx, in every namespace that calls them
    tracer.patch(rom, "solve_dense", "linalg.solve_dense")
    for owner in (rom, pod, japprox, runner):
        tracer.patch(owner, "thin_svd", "linalg.thin_svd", after=_count_svd_bytes)
    for owner in (rom, japprox, runner):
        tracer.patch(owner, "deim_interpolant", "deim.deim_interpolant")
    tracer.patch(rom, "build_smdeim", "jacobian_approx.build_smdeim")
    tracer.patch(rom, "build_mdeim_reference", "jacobian_approx.build_mdeim_reference")

    # pod and snapshots
    tracer.patch(pod.PodBasis, "lift", "pod.lift")
    tracer.patch(japprox, "scatter", "snapshots.scatter")

    # io, as the runner reaches it through the module object
    for fn in ("save_snapshots", "append_block", "save_pod_basis", "save_reduced_model"):
        tracer.patch(aio, fn, "io.save")
    for fn in ("load_trajectory", "load_reduced_model", "load_interpolant",
               "load_pod_basis"):
        tracer.patch(aio, fn, "io.load")
    for fn in ("load_snapshots", "read_blocks"):
        tracer.patch(aio, fn, "io.load", after=_count_read)

    # bench
    tracer.patch(runner, "run_online_point", "bench.run_online_point",
                 before=_strategy_arg(4))
