"""Tests of the benchmark itself.

    python3 -m pytest perfbench

The traced runs take about 20 s each on two cores.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import inputs
import run

ROOT = Path(__file__).resolve().parent.parent


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )


def _result(done):
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_benchmark_json_names_every_metric_the_code_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    assert {w["name"] for w in spec["workloads"]} <= set(inputs.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == workloads.per_layer_units()
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_seed_zero_is_the_paper_default_and_other_seeds_stay_in_range():
    assert inputs.draw_params("burgers-199", 0)["u0_peak"] == 3.5
    assert inputs.draw_params("swe-3393", 0)["h2"] == 133.0
    for seed in range(1, 50):
        peak = inputs.draw_params("burgers-1999", seed)["u0_peak"]
        h2 = inputs.draw_params("swe-3393", seed)["h2"]
        assert 3.0 <= peak <= 3.5
        assert 0.9 * 133.0 <= h2 <= 1.1 * 133.0
        assert inputs.draw_params("swe-3393", seed) == inputs.draw_params("swe-3393", seed)
    assert inputs.draw_params("burgers-199", 1) != inputs.draw_params("burgers-199", 2)


@pytest.mark.parametrize("workload", ["burgers-199", "cli-swe-741"])
def test_exact_counts_repeat_across_runs_with_the_same_seed(workload):
    first = _result(_run("--workload", workload, "--seed", "4", "--seconds", "1",
                         "--trace", "1"))
    second = _result(_run("--workload", workload, "--seed", "4", "--seconds", "1",
                          "--trace", "1"))
    assert first["correct"] and second["correct"]
    assert first["failed"] == 0
    counts = {name for name, m in first["metrics"].items() if m["unit"] != "s"}
    assert "models.sample_flops" in counts and "io.bytes_written" in counts
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name
    assert first["metrics"]["models.newton_iters"]["value"] > 0


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("--workload", "burgers-199", "--seed", "0", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
