"""Workload definitions and their seeded inputs.

Standard library only: the set-up time the benchmark reports starts before
numpy and the package are imported, so this module must not import them at
load time.

Every size uses k = 25 modes, m = 30 interpolation modes and gamma = 1.0.
Seed 0 gives the paper defaults.  Other seeds draw the Burgers peak
amplitude u0_peak from [3.0, 3.5], which keeps the cell Reynolds number
below 2 on both Burgers grids, and the shallow water perturbation height h2
within 10% of 133.  The library receives only these generated parameters.
"""

import random
import time

K = 25
M = 30
GAMMA = 1.0

# Why each workload is in the benchmark:
# * burgers-199: online time is per-call overhead, mostly the per-entry
#   sampling loop; the only size where the vectorized mdeim-reference route
#   fits under the memory guard, so it sets offline time and peak memory.
# * burgers-1999: the same k, m, stencil and n_t with 10x the unknowns;
#   n-independent layers should repeat their burgers-199 numbers while the
#   lift, splu, rhs and U^T J U projection grow (the paper's central claim).
# * swe-3393: two ADI stages with explicit halves, 5 quadratic pairs and
#   ~16-entry stencil rows; tensor-core projection dominates offline time
#   and per-evaluation cost dominates online time.
# * cli-swe-741: simulate -> offline -> online through the CLI runner on a
#   fresh output directory every pass, so artifact io and the held-out
#   metric evaluation of bench.runner are measured too.
WORKLOADS = {
    "burgers-199": {"kind": "library", "model": "burgers", "n": 201},
    "burgers-1999": {"kind": "library", "model": "burgers", "n": 2001},
    "swe-3393": {"kind": "library", "model": "swe", "nx": 41, "ny": 31},
    "cli-swe-741": {"kind": "cli", "model": "swe", "nx": 21, "ny": 15},
}

SWE_H2 = 133.0


def draw_params(workload, seed):
    """Model parameters for a workload and seed (seed 0: paper defaults)."""
    spec = WORKLOADS[workload]
    rng = random.Random(seed)
    if spec["model"] == "burgers":
        peak = 3.5 if seed == 0 else rng.uniform(3.0, 3.5)
        return {"n": spec["n"], "u0_peak": peak}
    fixed = seed == 0 or spec["kind"] == "cli"
    h2 = SWE_H2 if fixed else SWE_H2 * rng.uniform(0.9, 1.1)
    return {"nx_points": spec["nx"], "ny_points": spec["ny"], "h2": h2}


def cli_config_text(seed, strategies):
    """Config file for the CLI workload.

    The config format has no key for the shallow water initial condition,
    so this workload runs the default h2 for every seed; the seed reaches
    the program as run.seed only.
    """
    spec = WORKLOADS["cli-swe-741"]
    return "\n".join([
        "model = swe",
        f"swe.nx = {spec['nx']}",
        f"swe.ny = {spec['ny']}",
        f"rom.k = {K}",
        f"rom.m = {M}",
        f"pod.gamma = {GAMMA}",
        "rom.strategy = " + ", ".join(strategies),
        f"run.seed = {seed}",
        "run.out = out",
    ]) + "\n"


def setup(workload, seed):
    """Import the package and build the workload's models, timed.

    Returns (seconds, model, cfg); cfg is the parsed config of the CLI
    workload and None otherwise.
    """
    start = time.perf_counter()
    import smdeim_rom
    from smdeim_rom.bench import config, runner
    from smdeim_rom.models import burgers, swe

    spec = WORKLOADS[workload]
    params = draw_params(workload, seed)
    cfg = None
    if spec["kind"] == "cli":
        # every strategy but the vectorized reference, which the memory
        # guard refuses at this size
        strategies = [s for s in smdeim_rom.STRATEGIES if s != "mdeim-reference"]
        cfg = config.parse_config_text(cli_config_text(seed, strategies))
        model = runner.build_model(cfg, {"nx": spec["nx"], "ny": spec["ny"]})
    elif spec["model"] == "burgers":
        model = burgers.build_burgers(**params)
    else:
        model = swe.build_swe(**params)
    return time.perf_counter() - start, model, cfg
