"""Benchmark driver: config grammar, CLI exit codes, resume
semantics, parallel parity, deterministic outputs, and the held-out
metrics against dense oracles.

End-to-end runs use a deliberately tiny Burgers setup (n=31, 20 steps) so a
full sweep takes well under a second.  Determinism is asserted on the
results CSV after masking the wall-clock columns (offline/online seconds and
the timestamp), which are the only fields allowed to vary between runs.
"""

import dataclasses
import importlib.util
import inspect
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from smdeim_rom import instrumentation
from smdeim_rom import io as artifact_io
from smdeim_rom import rom
from smdeim_rom.bench import config, runner
from smdeim_rom.bench.cli import main
from smdeim_rom.bench.config import (
    ConfigError,
    ExperimentConfig,
    parse_config_text,
    validate_config,
    with_overrides,
)
from smdeim_rom.bench.runner import CSV_COLUMNS, unit_list
from smdeim_rom.deim import deim_interpolant
from smdeim_rom.jacobian_approx import (
    RankError,
    approximate_matrix,
    build_smdeim,
)
from smdeim_rom.linalg import SvdResult, thin_svd
from smdeim_rom.pod import pod_basis
from smdeim_rom.rom import HeldoutProbe, heldout_errors

TINY = """
# tiny grid for driver tests
model = burgers
burgers.n = 31
burgers.n_t = 21
burgers.t_final = 1.0
pod.gamma = 1.0
rom.k = 4
rom.m = 6
rom.strategy = smdeim, tensorial
run.seed = 0
run.out = {out}
"""

MASKED = ("offline_seconds", "online_seconds", "timestamp")


def write_config(tmp_path, name="bench.cfg", out=None, extra=""):
    out = out if out is not None else tmp_path / "out"
    path = tmp_path / name
    path.write_text(TINY.format(out=out) + extra, encoding="utf-8")
    return path, out


def read_rows(csv_file):
    lines = csv_file.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    assert header == list(CSV_COLUMNS)
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def masked(rows):
    return [
        {k: ("" if k in MASKED else v) for k, v in row.items()} for row in rows
    ]


# -- config grammar -------------------------------------------------------


def test_parse_defaults_and_types():
    cfg = parse_config_text("model = burgers\n")
    assert cfg.burgers_n == (201,)
    assert cfg.k_list == (25,)
    assert cfg.gamma == 1.0
    assert cfg.strategies == ("smdeim",)
    assert cfg.seeds == (0,)


def test_parse_lists_and_comments():
    cfg = parse_config_text(
        "model = burgers\n"
        "burgers.n = 51, 101 # grid sweep\n"
        "# full-line comment\n"
        "rom.strategy = smdeim, deim, tensorial\n"
        "rom.m = 5,10,20\n"
    )
    assert cfg.burgers_n == (51, 101)
    assert cfg.strategies == ("smdeim", "deim", "tensorial")
    assert cfg.m_list == (5, 10, 20)


def test_hash_mark_inside_value_is_not_a_comment(tmp_path):
    cfg = parse_config_text("run.out = results#v2\n")
    assert cfg.out_dir == "results#v2"


def test_unknown_key_names_key_and_line():
    with pytest.raises(ConfigError) as err:
        parse_config_text("model = burgers\nrom.modes = 5\n")
    assert "line 2" in str(err.value) and "rom.modes" in str(err.value)


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config_text("rom.k = 5\nrom.k = 6\n")
    assert "duplicate" in str(err.value)


def test_missing_equals_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config_text("just a line\n")
    assert "key=value" in str(err.value)


def test_type_errors_name_the_key():
    with pytest.raises(ConfigError) as err:
        parse_config_text("rom.k = five\n")
    assert "rom.k" in str(err.value)
    with pytest.raises(ConfigError):
        parse_config_text("pod.centered = maybe\n")


def test_validation_rules():
    with pytest.raises(ConfigError):
        parse_config_text("model = heat\n")
    with pytest.raises(ConfigError):
        parse_config_text("rom.strategy = galerkin\n")
    with pytest.raises(ConfigError):
        parse_config_text("pod.gamma = 0\n")
    with pytest.raises(ConfigError):
        parse_config_text("pod.gamma = 1.2\n")
    with pytest.raises(ConfigError):
        parse_config_text("burgers.u0_peak = -1\n")
    with pytest.raises(ConfigError):
        validate_config(ExperimentConfig(m_list=(), strategies=("smdeim",)))
    # m is not required when no sampled strategy is configured
    validate_config(ExperimentConfig(m_list=(), strategies=("tensorial",)))
    # numbers that must be positive and finite, for either model
    for model in ("burgers", "swe"):
        for key, value in (("burgers.mu", "0"), ("burgers.t_final", "-1"),
                           ("swe.dt", "0"), ("rom.newton_tol", "0"),
                           ("rom.newton_tol", "nan"), ("guard.n", "0"),
                           ("guard.n", "-3"), ("burgers.mu", "inf"),
                           ("burgers.t_final", "inf"), ("burgers.u0_peak", "inf"),
                           ("swe.dt", "infinity"), ("rom.h", "inf"),
                           ("rom.newton_tol", "inf"), ("rom.h", "-inf")):
            with pytest.raises(ConfigError, match=f"key '{key}': must be positive"):
                parse_config_text(f"model = {model}\n{key} = {value}\n")
    validate_config(ExperimentConfig(guard_n=1, newton_tol=1e-300, h=1e300))


@pytest.mark.parametrize("key, first, other", [
    ("burgers.n", "31", "41"),
    ("swe.nx", "21", "25"),
    ("swe.ny", "15", "9"),
    ("rom.k", "5", "4"),
    ("rom.m", "8", "6"),
    ("rom.strategy", "smdeim", "tensorial"),
    ("run.seed", "0", "1"),
])
def test_repeated_list_entry_is_rejected(key, first, other):
    # a repeated entry would train and evaluate one grid point twice, and
    # two workers could write the same artifact
    value = repr(first) if key == "rom.strategy" else first
    with pytest.raises(ConfigError, match=f"key '{key}': repeated entry {value}"):
        parse_config_text(f"{key} = {first}, {other}, {first}\n")
    parse_config_text(f"{key} = {first}, {other}\n")


def test_non_finite_or_repeated_value_exits_2_naming_the_key(tmp_path, capsys):
    # with newton_tol = inf every Newton solve would stop after one update
    # and count as converged
    for k_line, message in (
        ("rom.k = 4\nrom.newton_tol = inf",
         "key 'rom.newton_tol': must be positive and finite, got inf"),
        ("rom.k = 4, 4", "key 'rom.k': repeated entry 4"),
    ):
        path, _ = write_config(tmp_path)
        text = path.read_text(encoding="utf-8").replace("rom.k = 4", k_line)
        path.write_text(text, encoding="utf-8")
        assert main(["simulate", "--config", str(path)]) == 2
        assert message in capsys.readouterr().err


def test_swe_grid_needs_five_points_each_way(tmp_path, capsys):
    # build_swe rejects fewer than 5 points per direction, so the config
    # must too: a bare ValueError from the model would exit 1
    for key in ("swe.nx", "swe.ny"):
        with pytest.raises(ConfigError) as err:
            parse_config_text(f"model = swe\n{key} = 4\n")
        assert key in str(err.value) and "at least 5" in str(err.value)
    parse_config_text("model = swe\nswe.nx = 5\nswe.ny = 5\n")
    bad = tmp_path / "swe.cfg"
    bad.write_text(f"model = swe\nswe.ny = 4\nrun.out = {tmp_path}\n",
                   encoding="utf-8")
    assert main(["simulate", "--config", str(bad)]) == 2
    assert "swe.ny" in capsys.readouterr().err


def test_removed_key_is_unknown(tmp_path, capsys):
    path, _ = write_config(tmp_path, extra="pod.difference_quotients = true\n")
    assert main(["simulate", "--config", str(path)]) == 2
    assert "unknown key 'pod.difference_quotients'" in capsys.readouterr().err


def test_config_keys_and_fields_match_one_to_one():
    # a field no key sets would be a knob nothing can turn
    keyed = sorted(field for field, _ in config._KEYS.values())
    assert keyed == sorted(f.name for f in dataclasses.fields(ExperimentConfig))


def test_with_overrides():
    cfg = ExperimentConfig(seeds=(0, 1), out_dir="x")
    cfg2 = with_overrides(cfg, out_dir="y", seed=7)
    assert cfg2.out_dir == "y"
    assert cfg2.seeds == (7,)
    # untouched without arguments
    cfg3 = with_overrides(cfg)
    assert cfg3.seeds == (0, 1) and cfg3.out_dir == "x"


def test_unit_list_order_and_m_consumption():
    cfg = ExperimentConfig(
        burgers_n=(31,), k_list=(4, 8), m_list=(6,),
        strategies=("smdeim", "tensorial"),
    )
    units = unit_list(cfg)
    assert [(s, k, m) for _, s, k, m in units] == [
        ("smdeim", 4, 6), ("smdeim", 8, 6), ("tensorial", 4, None),
        ("tensorial", 8, None),
    ]


# -- CLI end to end -------------------------------------------------------


def test_sweep_writes_expected_rows(tmp_path):
    cfg_path, out = write_config(tmp_path)
    assert main(["sweep", "--config", str(cfg_path)]) == 0
    rows = read_rows(out / "results.csv")
    assert [r["strategy"] for r in rows] == ["full", "smdeim", "tensorial"]
    smdeim = rows[1]
    assert smdeim["status"] == "ok"
    # n records the state dimension (29 interior unknowns of the 31-point grid)
    assert smdeim["n"] == "29" and smdeim["k"] == "4" and smdeim["m"] == "6"
    assert float(smdeim["traj_l2_err"]) < 0.2
    assert float(smdeim["jac_frob_err"]) < 0.2
    # tensorial has no sampled-matrix metric
    assert rows[2]["m"] == "" and rows[2]["jac_frob_err"] == ""
    assert float(rows[0]["mean_newton_iters"]) > 1.0


def test_sweep_is_deterministic_across_directories(tmp_path):
    cfg1, out1 = write_config(tmp_path, name="a.cfg", out=tmp_path / "o1")
    cfg2, out2 = write_config(tmp_path, name="b.cfg", out=tmp_path / "o2")
    assert main(["sweep", "--config", str(cfg1)]) == 0
    assert main(["sweep", "--config", str(cfg2)]) == 0
    assert masked(read_rows(out1 / "results.csv")) == masked(
        read_rows(out2 / "results.csv")
    )


def test_second_sweep_is_a_no_op(tmp_path):
    cfg_path, out = write_config(tmp_path)
    assert main(["sweep", "--config", str(cfg_path)]) == 0
    first = (out / "results.csv").read_bytes()
    assert main(["sweep", "--config", str(cfg_path)]) == 0
    assert (out / "results.csv").read_bytes() == first


def test_split_pipeline_matches_sweep(tmp_path):
    # centered, the basis reads the row means of the states, which sweep
    # takes from the built set and the split pipeline from the loaded one
    for case, extra in (("plain", ""), ("centered", "pod.centered = true\n")):
        cfg_a, out_a = write_config(tmp_path, name=f"split-{case}.cfg",
                                    out=tmp_path / f"split-{case}", extra=extra)
        assert main(["simulate", "--config", str(cfg_a)]) == 0
        assert main(["offline", "--config", str(cfg_a)]) == 0
        assert main(["online", "--config", str(cfg_a)]) == 0
        cfg_b, out_b = write_config(tmp_path, name=f"swp-{case}.cfg",
                                    out=tmp_path / f"swp-{case}", extra=extra)
        assert main(["sweep", "--config", str(cfg_b)]) == 0
        rows = read_rows(out_a / "results.csv")
        assert all(r["status"] == "ok" for r in rows)
        assert masked(rows) == masked(read_rows(out_b / "results.csv"))


def test_parallel_jobs_match_sequential(tmp_path, monkeypatch):
    cfg_a, out_a = write_config(tmp_path, name="seq.cfg", out=tmp_path / "seq")
    cfg_b, out_b = write_config(tmp_path, name="par.cfg", out=tmp_path / "par")
    assert main(["sweep", "--config", str(cfg_a)]) == 0
    assert main(["sweep", "--config", str(cfg_b), "--jobs", "2"]) == 0
    assert masked(read_rows(out_a / "results.csv")) == masked(
        read_rows(out_b / "results.csv")
    )
    # two models, each unit sharing its model's factorizations: the split
    # commands with --jobs 2 give the sequential rows and plot series
    counts = CommandCounts(monkeypatch)
    seq, par = tmp_path / "cseq", tmp_path / "cpar"
    made = {}
    for out, jobs in ((seq, "1"), (par, "2")):
        path = tmp_path / f"{out.name}.cfg"
        path.write_text(CONTRACT.format(out=out), encoding="utf-8")
        for cmd in ("simulate", "offline", "online"):
            made[cmd, jobs] = counts.run(cmd, path, jobs)
    # with a pool, this process factors nothing (the workers make every
    # SVD, the spectra's too) and reads no snapshot file whole: its
    # full-solve record reads only the TRAJ block of each stage-0 file
    assert made["offline", "1"]["svds"] == 2 * 3
    for cmd in ("simulate", "offline", "online"):
        assert made[cmd, "2"]["svds"] == 0
        assert made[cmd, "2"]["selections"] == 0
        assert made[cmd, "2"]["cores"] == 0
    assert made["offline", "2"]["snapshot_reads"] == []
    assert made["online", "2"]["snapshot_reads"] == []
    rows = read_rows(seq / "results.csv")
    assert len(rows) == 2 * (1 + 2 * 2 * 2 + 2)
    assert all(r["status"] == "ok" for r in rows)
    assert masked(rows) == masked(read_rows(par / "results.csv"))
    names = sorted(p.name for p in (seq / "plotdata").iterdir())
    assert names == sorted(p.name for p in (par / "plotdata").iterdir())
    for name in names:
        assert (seq / "plotdata" / name).read_bytes() == (
            par / "plotdata" / name
        ).read_bytes()


# -- one model context per command ----------------------------------------

CONTRACT = """
model = burgers
burgers.n = 31, 41
burgers.n_t = 21
burgers.t_final = 1.0
pod.gamma = 1.0
rom.k = 4, 6
rom.m = 6, 8
rom.strategy = deim, smdeim, tensorial
run.out = {out}
"""


class CommandCounts:
    """Model builds, tensor-core builds, SVDs, DEIM selections and
    snapshot-file reads, each with the arrays it asked for, made while the
    wrapped commands run."""

    def __init__(self, monkeypatch):
        self.builds = 0
        self.cores = 0
        self.snapshot_reads = []
        build_model = runner.build_model
        build_tensor_core = rom.build_tensor_core

        def counted_build(*args, **kwargs):
            self.builds += 1
            return build_model(*args, **kwargs)

        def counted_core(*args, **kwargs):
            self.cores += 1
            return build_tensor_core(*args, **kwargs)

        def counted_reader(read):
            def wrapper(path, *args, **kwargs):
                if path.name.startswith("snap-"):
                    self.snapshot_reads.append((path.name, *args, *kwargs.values()))
                return read(path, *args, **kwargs)

            return wrapper

        monkeypatch.setattr(runner, "build_model", counted_build)
        monkeypatch.setattr(rom, "build_tensor_core", counted_core)
        for name in ("load_snapshots", "read_blocks"):
            monkeypatch.setattr(
                artifact_io, name, counted_reader(getattr(artifact_io, name))
            )

    def run(self, cmd, cfg_path, jobs="1"):
        self.builds = 0
        self.cores = 0
        self.snapshot_reads = []
        before = instrumentation.snapshot()
        assert main([cmd, "--config", str(cfg_path), "--jobs", jobs]) == 0
        after = instrumentation.snapshot()
        return {
            "builds": self.builds,
            "cores": self.cores,
            "svds": after["thin_svd_calls"] - before["thin_svd_calls"],
            "selections": after["deim_select_calls"] - before["deim_select_calls"],
            "snapshot_reads": sorted(self.snapshot_reads),
        }


def contract_config(tmp_path, name):
    path = tmp_path / f"{name}.cfg"
    path.write_text(CONTRACT.format(out=tmp_path / name), encoding="utf-8")
    return path


def test_offline_builds_each_model_once_and_factors_each_matrix_once(
    tmp_path, monkeypatch
):
    counts = CommandCounts(monkeypatch)
    cfg_path = contract_config(tmp_path, "out")
    assert counts.run("simulate", cfg_path)["svds"] == 0
    offline = counts.run("offline", cfg_path)
    # per Burgers model (one stage): the state, Jacobian and nonlinear-term
    # snapshot matrices, each read alone and factored once; one selection
    # per stage, m and sampled strategy, shared by both k
    assert offline["builds"] == 2
    # one tensor core per (model, k) and operator, shared by the three
    # strategies; a Burgers model has one operator
    assert offline["cores"] == 2 * 2
    assert offline["svds"] == 2 * 3
    assert offline["selections"] == 2 * 2 * 2
    assert offline["snapshot_reads"] == sorted(
        (p.name, (block,))
        for p in (tmp_path / "out" / "artifacts").glob("snap-*")
        for block in ("jacobian", "nonlinear", "states")
    )
    spectra = sorted(p.name for p in (tmp_path / "out" / "plotdata").iterdir())
    assert spectra == [
        "burgers-n31-jacobian-singulars-s0.tsv",
        "burgers-n41-jacobian-singulars-s0.tsv",
    ]


def test_online_factors_nothing_and_reads_each_snapshot_file_once(
    tmp_path, monkeypatch
):
    counts = CommandCounts(monkeypatch)
    cfg_path = contract_config(tmp_path, "out")
    counts.run("simulate", cfg_path)
    counts.run("offline", cfg_path)
    online = counts.run("online", cfg_path)
    assert online["builds"] == 2
    assert online["cores"] == 0
    assert online["svds"] == 0
    assert online["selections"] == 0
    assert len(online["snapshot_reads"]) == 2
    assert len(set(online["snapshot_reads"])) == 2


def test_repeated_passes_in_one_process_repeat_their_counts(tmp_path, monkeypatch):
    # a cache kept across commands would make the second pass cheaper
    counts = CommandCounts(monkeypatch)
    passes = []
    for name in ("first", "second"):
        cfg_path = contract_config(tmp_path, name)
        passes.append([
            counts.run(cmd, cfg_path) for cmd in ("simulate", "offline", "online")
        ])
    assert passes[0] == passes[1]
    assert passes[1][1]["svds"] == 2 * 3
    assert masked(read_rows(tmp_path / "first" / "results.csv")) == masked(
        read_rows(tmp_path / "second" / "results.csv")
    )


def test_no_context_outlives_a_command(tmp_path, monkeypatch):
    cfg = parse_config_text(TINY.format(out=tmp_path / "out"))
    runner.cmd_offline(cfg)
    assert runner._contexts == {}
    held = []

    def failing(*args, **kwargs):
        held.append(len(runner._contexts))
        raise RuntimeError("unit failed")

    monkeypatch.setattr(runner, "run_online_point", failing)
    with pytest.raises(RuntimeError, match="unit failed"):
        runner.cmd_online(cfg)
    assert held == [1]
    assert runner._contexts == {}


def test_mdeim_reference_trains_once_per_stage_and_m(tmp_path, monkeypatch):
    text = CONTRACT.format(out=tmp_path / "out")
    text = text.replace("burgers.n = 31, 41", "burgers.n = 31").replace(
        "deim, smdeim, tensorial", "mdeim-reference"
    )
    cfg = parse_config_text(text)
    calls = []
    build = runner.build_mdeim_reference

    def counted(snap, m, **kwargs):
        calls.append(m)
        return build(snap, m, **kwargs)

    monkeypatch.setattr(runner, "build_mdeim_reference", counted)
    runner.cmd_offline(cfg)
    # one Burgers stage, m = 6 and 8, each shared by k = 4 and 6
    assert sorted(calls) == [6, 8]
    assert len(list(runner.artifact_dir(cfg).glob("rom-*-mdeim-reference-*"))) == 4


def test_online_reads_only_the_stage_0_snapshots(tmp_path, monkeypatch):
    # the held-out probes are stage-0 states; no online unit needs another
    # stage's snapshots
    text = SWE_SMALL.format(out=tmp_path / "out").replace(
        "deim, smdeim", "deim, smdeim, tensorial"
    )
    cfg = parse_config_text(text)
    runner.cmd_offline(cfg)
    reads = []
    load = artifact_io.load_snapshots

    def counted(path, *args, **kwargs):
        reads.append(Path(path).name)
        return load(path, *args, **kwargs)

    monkeypatch.setattr(artifact_io, "load_snapshots", counted)
    runner.cmd_online(cfg)
    assert [name.rsplit("-", 1)[1] for name in reads] == ["s0.smdm"]
    rows = read_rows(runner.csv_path(cfg))
    assert sorted(r["strategy"] for r in rows if r["status"] == "ok") == [
        "deim", "full", "smdeim", "tensorial"
    ]


def _arrays_in(obj):
    """The numpy arrays held in obj, through containers and attributes."""
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, (list, tuple)):
        items = obj
    elif isinstance(obj, dict):
        items = obj.values()
    elif hasattr(obj, "__dict__"):
        items = vars(obj).values()
    else:
        return []
    return [a for item in items for a in _arrays_in(item)]


def test_offline_context_keeps_no_snapshot_block(tmp_path, monkeypatch):
    # what the context holds as offline ends: each SVD with the max(rom.m)
    # leading columns the selections read, and no array that spans the
    # snapshot columns (a states, nonlinear or jacobian block)
    cfg = parse_config_text(SWE_SMALL.format(out=tmp_path / "out").replace(
        "rom.m = 12", "rom.m = 12, 7"))
    kept = []
    drop = runner._drop_contexts

    def keep_then_drop():
        kept.extend(runner._contexts.values())
        drop()

    monkeypatch.setattr(runner, "_drop_contexts", keep_then_drop)
    runner.cmd_offline(cfg)
    (ctx,) = kept
    svds = {key: v for key, v in ctx._memo.items() if isinstance(v, SvdResult)}
    assert sorted(svds) == sorted(
        (block, j) for block in ("jacobian", "nonlinear") for j in (0, 1)
    )
    n_cols = artifact_io.load_snapshots(
        runner.snap_paths(cfg, ctx.model)[0], ("states",))[0].shape[1]
    for svd in svds.values():
        assert svd.u.shape[1] == svd.w.shape[1] == 12
        assert svd.w.shape[0] == svd.singulars.size == n_cols
    held = _arrays_in(ctx._memo)
    assert held and not [a.shape for a in held if a.ndim == 2 and a.shape[1] == n_cols]


def run_context(cfg, run):
    """The ModelContext of a session FullRun, its snapshots saved where the
    context reads them."""
    runner.artifact_dir(cfg).mkdir(parents=True)
    for path, snap in zip(runner.snap_paths(cfg, run.model), run.snaps):
        artifact_io.save_snapshots(path, snap)
    return runner.ModelContext(cfg, run.model, run.trajectory,
                               run.stats.mean_iterations, run.stats.online_seconds)


def _same_interp(a, b):
    # the projector's memory layout too: BLAS products round by it
    return (
        np.array_equal(a.indexes, b.indexes)
        and np.array_equal(a.projector, b.projector)
        and a.projector.flags.f_contiguous == b.projector.flags.f_contiguous
        and a.inv_norm == b.inv_norm
    )


def test_shared_products_equal_direct_calls_bit_for_bit(tmp_path):
    text = CONTRACT.format(out=tmp_path / "out").replace("rom.k = 4, 6", "rom.k = 4, 6, 100")
    cfg = parse_config_text(text)
    runner.cmd_simulate(cfg)
    ctx = runner.ModelContext.open(cfg, {"n": 31}, simulate=False)
    snap = artifact_io.load_snapshots(runner.snap_paths(cfg, ctx.model)[0])
    for k in (4, 6, 100):
        got = ctx.basis(k)
        want = pod_basis(snap.states, gamma=1.0, k_max=k)
        assert got.k == want.k
        assert got.u.flags.c_contiguous
        for field in ("u", "singulars", "mean"):
            assert np.array_equal(getattr(got, field), getattr(want, field))
    for m in (6, 8):
        got = ctx.interpolant("smdeim", 0, m)
        want = build_smdeim(snap, m)
        assert _same_interp(got.interp, want.interp)
        assert np.array_equal(got.sample_rows, want.sample_rows)
        assert np.array_equal(got.sample_cols, want.sample_cols)
        assert np.array_equal(got.singulars, want.singulars)
        assert _same_interp(
            ctx.interpolant("deim", 0, m),
            deim_interpolant(thin_svd(snap.nonlinear).u, m),
        )
    with pytest.raises(RankError):
        ctx.interpolant("deim", 0, snap.n_cols + 1)


def test_deim_artifact_holds_the_stage_0_deim_block(tmp_path, swe_run):
    cfg = ExperimentConfig(model="swe", out_dir=str(tmp_path))
    ctx = run_context(cfg, swe_run)
    model, snaps, traj = ctx.model, swe_run.snaps, ctx.traj
    path = runner.build_rom_artifact(cfg, model, ctx, "deim", 25, 30)
    got = artifact_io.load_interpolant(path, model, stage=0)
    assert _same_interp(got, deim_interpolant(thin_svd(snaps[0].nonlinear).u, 30))
    # the bare header, stage 0's interpolant, the only one online reads, and
    # the reduced model, which embeds its basis: no snapshot set and no
    # standalone basis block
    assert [t for t, _ in artifact_io.read_blocks(path)] == [
        artifact_io.TAG_DEIM, artifact_io.TAG_REDM
    ]
    assert path.read_bytes()[:12] == artifact_io.MAGIC + (4).to_bytes(4, "little") + b"DEIM"
    with pytest.raises(artifact_io.FormatError, match=r"stages present: \[0\]"):
        artifact_io.load_interpolant(path, model, stage=1)
    with pytest.raises(artifact_io.FormatError, match="no 'SNAP' block"):
        artifact_io.load_snapshots(path)
    # an artifact written without its interpolant
    rm = artifact_io.load_reduced_model(path, model)
    path.unlink()
    artifact_io.save_reduced_model(path, rm)
    missing = r"no 'DEIM' or 'MINT' block for stage 0 \(stages present: \[\]\)"
    with pytest.raises(artifact_io.FormatError, match=missing):
        runner.run_online_point(cfg, model, ctx, traj, "deim", 25, 30)


def test_rom_artifact_starts_from_a_fresh_file(tmp_path):
    # a .tmp left by an interrupted build is not appended to
    cfg = parse_config_text(TINY.format(out=tmp_path / "out"))
    runner.cmd_offline(cfg)
    config_hash = runner.build_model(cfg, {"n": 31}).config_hash
    path = runner.rom_artifact_path(cfg, config_hash, "smdeim", 4, 6)
    want = path.read_bytes()
    stale = path.with_name(path.name + ".tmp")
    stale.write_bytes(want[:100])
    path.unlink()
    runner.cmd_offline(cfg)
    assert not stale.exists()
    assert path.stat().st_size == len(want)
    assert [t for t, _ in artifact_io.read_blocks(path)] == [
        artifact_io.TAG_MINT, artifact_io.TAG_REDM
    ]


def test_interrupted_simulate_leaves_no_snapshot_file(tmp_path, monkeypatch):
    # each stage file is renamed into place once whole, stage 0's after its
    # TRAJ block: a simulate cut short before then leaves none, so the
    # rerun simulates afresh
    cfg = parse_config_text(SWE_SMALL.format(out=tmp_path / "out"))
    save = artifact_io.save_trajectory

    def fail_once(*args):
        monkeypatch.setattr(artifact_io, "save_trajectory", save)
        raise OSError("interrupted")

    monkeypatch.setattr(artifact_io, "save_trajectory", fail_once)
    with pytest.raises(OSError, match="interrupted"):
        runner.cmd_simulate(cfg)
    model = runner.build_model(cfg, {"nx": 11, "ny": 9})
    paths = runner.snap_paths(cfg, model)
    assert len(paths) == 2 and not any(p.exists() for p in paths)
    assert runner.cmd_simulate(cfg) == 0
    assert [t for t, _ in artifact_io.read_blocks(paths[0])] == [
        artifact_io.TAG_SNAP, artifact_io.TAG_TRAJ
    ]
    assert not list(runner.artifact_dir(cfg).glob("*.tmp"))
    runner.cmd_offline(cfg)
    assert runner.cmd_online(cfg) == 0
    rows = read_rows(runner.csv_path(cfg))
    assert sorted(r["strategy"] for r in rows if r["status"] == "ok") == [
        "deim", "full", "smdeim"
    ]


def test_online_without_offline_fails_with_exit_3(tmp_path, capsys):
    cfg_path, out = write_config(tmp_path)
    assert main(["online", "--config", str(cfg_path)]) == 3
    err = capsys.readouterr().err
    assert "snapshot artifact" in err and "simulate" in err


@pytest.mark.parametrize("key, built, wanted", [
    ("pod.gamma", "1.0", "0.9"),
    ("pod.centered", "False", "True"),
    ("rom.h", "0.01", "0.02"),
    ("rom.newton_tol", "1e-10", "1e-09"),
    ("rom.newton_cap", "50", "40"),
])
def test_online_refuses_artifacts_built_under_other_settings(
    tmp_path, capsys, key, built, wanted
):
    cfg_path, out = write_config(tmp_path)
    assert main(["offline", "--config", str(cfg_path)]) == 0
    text = cfg_path.read_text(encoding="utf-8")
    if key == "pod.gamma":
        text = text.replace("pod.gamma = 1.0", f"pod.gamma = {wanted}")
    else:
        text += f"{key} = {wanted}\n"
    other = tmp_path / "other.cfg"
    other.write_text(text, encoding="utf-8")
    capsys.readouterr()
    assert main(["online", "--config", str(other)]) == 3
    err = capsys.readouterr().err
    assert f"{key} = {built}, the config has {wanted}" in err
    assert all(r["strategy"] == "full" for r in read_rows(out / "results.csv"))


def test_unreadable_model_artifact_exits_3_naming_it(tmp_path, capsys):
    cfg_path, out = write_config(tmp_path)
    assert main(["offline", "--config", str(cfg_path)]) == 0
    (path,) = (out / "artifacts").glob("rom-*-smdeim-*.smdm")
    whole = path.read_bytes()
    old = [(artifact_io.MAGIC + version.to_bytes(4, "little") + whole[8:],
            f"format version {version};") for version in (1, 2, 3)]
    for raw, says in [(whole[:-10], "truncated"), *old]:
        path.write_bytes(raw)
        capsys.readouterr()
        assert main(["online", "--config", str(cfg_path)]) == 3
        err = capsys.readouterr().err
        assert str(path) in err and says in err
        assert "Traceback" not in err
    assert all(r["strategy"] == "full" for r in read_rows(out / "results.csv"))


def test_bad_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("model = heat\n", encoding="utf-8")
    assert main(["sweep", "--config", str(bad)]) == 2
    assert "model" in capsys.readouterr().err
    assert main(["sweep", "--config", str(tmp_path / "missing.cfg")]) == 2
    assert main(["sweep", "--config", str(bad), "--jobs", "0"]) == 2


def test_seed_and_out_overrides(tmp_path):
    cfg_path, _ = write_config(tmp_path)
    alt = tmp_path / "alt"
    assert main(
        ["sweep", "--config", str(cfg_path), "--out", str(alt), "--seed", "9"]
    ) == 0
    rows = read_rows(alt / "results.csv")
    assert {r["seed"] for r in rows} == {"9"}


def test_plotdata_series(tmp_path):
    cfg_path, out = write_config(tmp_path)
    assert main(["sweep", "--config", str(cfg_path)]) == 0
    pd = out / "plotdata"
    spectrum = pd / "burgers-n31-jacobian-singulars-s0.tsv"
    assert spectrum.exists()
    lines = spectrum.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "mode\tsingular_value"
    vals = [float(line.split("\t")[1]) for line in lines[1:]]
    assert all(x >= y for x, y in zip(vals, vals[1:]))
    series = pd / "burgers-n31-smdeim-k4-jac_frob_err-vs-m.tsv"
    assert series.exists()
    body = series.read_text(encoding="utf-8").splitlines()
    assert body[0] == "m\tjac_frob_err"
    assert body[1].startswith("6\t")
    traj = pd / "burgers-n31-smdeim-m6-traj_l2_err-vs-k.tsv"
    assert traj.exists()


def test_online_reads_only_the_redm_and_stage_0_payloads(tmp_path, file_reads):
    # of each reduced-model file: the frame headers, walked by its two
    # loaders, and the REDM and stage-0 interpolant payloads; of the
    # snapshot files: stage 0's frame headers, TRAJ payload, and the
    # scalars and states of its SNAP payload
    cfg = parse_config_text(SWE_SMALL.format(out=tmp_path / "out").replace(
        "deim, smdeim", "deim, smdeim, tensorial"))
    runner.cmd_offline(cfg)
    file_reads.clear()
    runner.cmd_online(cfg)
    reads = dict(file_reads.bytes)
    rom_files = sorted(runner.artifact_dir(cfg).glob("rom-*"))
    assert len(rom_files) == 3
    (snap0,) = runner.artifact_dir(cfg).glob("snap-*-s0.smdm")
    assert sorted(reads) == sorted(p.name for p in [*rom_files, snap0])
    blocks = artifact_io.read_blocks(snap0)
    assert [t for t, _ in blocks] == [artifact_io.TAG_SNAP, artifact_io.TAG_TRAJ]
    payload = blocks[0][1]
    ident = int.from_bytes(payload[:4], "little")
    scalars = 4 + ident + 4 * 8  # ident, n, n_cols, r and dt
    n, n_cols = (int.from_bytes(payload[4 + ident + 8 * i:][:8], "little")
                 for i in range(2))
    frames = 8 + 12 * len(blocks)  # walked by each of its two loaders
    states = 1 + 8 * n * n_cols  # the order flag and the values
    want = 2 * frames + len(blocks[1][1]) + scalars + states
    assert reads[snap0.name] == want
    for path in rom_files:
        # the stage-0 interpolant, when there is one, then the reduced
        # model; load_interpolant stops at its block, load_reduced_model
        # walks every frame
        blocks = artifact_io.read_blocks(path)
        want = 8 + 12 * len(blocks) + len(blocks[-1][1])
        if "tensorial" in path.name:
            assert [t for t, _ in blocks] == [artifact_io.TAG_REDM]
        else:
            tag, stage0 = blocks[0]
            assert tag in (artifact_io.TAG_DEIM, artifact_io.TAG_MINT)
            assert int.from_bytes(stage0[:8], "little") == 0
            want += 8 + 12 + len(stage0)
        assert reads[path.name] == want, path.name


def test_failed_point_is_recorded_not_raised(tmp_path):
    # m beyond the snapshot rank: the point fails, the run continues
    cfg_path, out = write_config(tmp_path, extra="rom.newton_cap = 50\n")
    text = cfg_path.read_text(encoding="utf-8").replace("rom.m = 6", "rom.m = 6, 500")
    cfg_path.write_text(text, encoding="utf-8")
    assert main(["sweep", "--config", str(cfg_path)]) == 0
    rows = read_rows(out / "results.csv")
    by_key = {(r["strategy"], r["m"]): r for r in rows}
    assert by_key[("smdeim", "6")]["status"] == "ok"
    assert by_key[("smdeim", "500")]["status"].startswith("failed:RankError")
    assert by_key[("smdeim", "500")]["traj_l2_err"] == ""


# -- held-out metrics -----------------------------------------------------

SWE_SMALL = """
model = swe
swe.nx = 11
swe.ny = 9
rom.k = 10
rom.m = 12
rom.strategy = deim, smdeim
run.out = {out}
"""


def dense_jacobians(cfg, strategy, k, m, count=None):
    """(true, approximate) stage-0 Jacobians as dense n-by-n arrays at the
    first count held-out probes (all of them by default)."""
    params = {"nx": cfg.swe_nx[0], "ny": cfg.swe_ny[0]}
    model = runner.build_model(cfg, params)
    snap = artifact_io.load_snapshots(runner.snap_paths(cfg, model)[0])
    op = model.stages[0].op
    path = runner.rom_artifact_path(cfg, model.config_hash, strategy, k, m)
    basis = artifact_io.load_reduced_model(path, model).basis
    if strategy == "smdeim":
        mi = artifact_io.load_interpolant(path, model, stage=0)
    else:
        fn_interp = deim_interpolant(thin_svd(snap.nonlinear).u, m)
    stride = cfg.heldout_stride
    for i in list(range(stride - 1, snap.n_cols, stride))[:count]:
        x = basis.lift(basis.project(snap.states[:, i]))
        true = op.jacobian(x).toarray()
        if strategy == "smdeim":
            samples = op.sample_jacobian(x, mi.sample_rows, mi.sample_cols)
            approx = approximate_matrix(mi, samples).toarray()
        else:
            rows = op.sample_nl_rows(x, fn_interp.indexes)
            approx = op.linear.toarray() + fn_interp.projector @ rows.toarray()
        yield true, approx


def dense_sv1_err(cfg, strategy, k, m):
    """sv1_err recomputed with dense n-by-n Jacobians and a full SVD."""
    errs = []
    for true, approx in dense_jacobians(cfg, strategy, k, m, cfg.sv_probes):
        sv_true = np.linalg.svd(true, compute_uv=False)[0]
        sv_app = np.linalg.svd(approx, compute_uv=False)[0]
        errs.append(abs(sv_app - sv_true) / sv_true)
    return float(np.mean(errs))


def test_sv1_err_matches_dense_svd_and_jobs(tmp_path):
    seq, par = tmp_path / "seq", tmp_path / "par"
    for out, jobs in ((seq, "1"), (par, "2")):
        path = tmp_path / f"{out.name}.cfg"
        path.write_text(SWE_SMALL.format(out=out), encoding="utf-8")
        assert main(["sweep", "--config", str(path), "--jobs", jobs]) == 0
    rows = read_rows(seq / "results.csv")
    assert masked(rows) == masked(read_rows(par / "results.csv"))
    cfg = parse_config_text(SWE_SMALL.format(out=seq))
    checked = 0
    for row in rows:
        if row["strategy"] == "full":
            continue
        assert row["status"] == "ok"
        expect = dense_sv1_err(cfg, row["strategy"], 10, 12)
        assert abs(float(row["sv1_err"]) - expect) <= 1e-12
        checked += 1
    assert checked == 2


def test_deim_jac_frob_err_matches_dense_oracle(tmp_path):
    # deim's L + P R is summed as one sparse matrix; the oracle forms it dense
    out = tmp_path / "out"
    text = SWE_SMALL.format(out=out).replace("deim, smdeim", "deim")
    path = tmp_path / "deim.cfg"
    path.write_text(text, encoding="utf-8")
    assert main(["sweep", "--config", str(path)]) == 0
    (row,) = [r for r in read_rows(out / "results.csv") if r["strategy"] == "deim"]
    assert row["status"] == "ok"
    errs = [np.linalg.norm(approx - true) / np.linalg.norm(true)
            for true, approx in dense_jacobians(parse_config_text(text), "deim", 10, 12)]
    assert len(errs) > 1
    want = float(np.mean(errs))
    assert abs(float(row["jac_frob_err"]) - want) <= 1e-13 * want


@pytest.mark.parametrize("name, strategy", [
    ("swe", "deim"), ("swe", "smdeim"), ("burgers", "mdeim-reference"),
])
def test_library_heldout_errors_reproduce_the_runner_row(tmp_path, name, strategy):
    # from the artifact's reduced model and interpolant and stage 0's
    # states alone, bit for bit
    cfg = dataclasses.replace(
        parse_config_text((SWE_SMALL if name == "swe" else TINY).format(out=tmp_path)),
        strategies=(strategy,),
    )
    runner.cmd_sweep(cfg)
    (row,) = [r for r in read_rows(runner.csv_path(cfg)) if r["strategy"] == strategy]
    assert row["status"] == "ok"
    model = runner.build_model(cfg, runner.model_param_combos(cfg)[0])
    path = runner.rom_artifact_path(cfg, model.config_hash, strategy,
                                    cfg.k_list[0], cfg.m_list[0])
    rm = artifact_io.load_reduced_model(path, model)
    (states,) = artifact_io.load_snapshots(runner.snap_paths(cfg, model)[0], ("states",))
    stride = cfg.heldout_stride
    probes = [HeldoutProbe(model.stages[0].op, rm.basis, states[:, i])
              for i in range(stride - 1, states.shape[1], stride)]
    got = heldout_errors(rm, probes, artifact_io.load_interpolant(path, model), cfg.sv_probes)
    assert len(probes) > 1
    assert got == {metric: float(row[metric])
                   for metric in ("jac_frob_err", "red_jac_frob_err", "sv1_err")}


@pytest.mark.parametrize("strategy", ["deim", "smdeim"])
def test_heldout_metrics_form_no_dense_square_matrix(
    tmp_path, monkeypatch, swe_run, strategy
):
    # The peak is taken from the end of the reduced solve, so it covers the
    # held-out evaluation, where an n-by-n float64 array alone would take
    # 8 n^2 bytes (the evaluation, reading stage 0's states for the probes
    # first, peaks near 0.4 of that here for smdeim, 0.85 for deim).  The
    # whole call peaks near 1.15 times 8 n^2, as it also holds the loaded
    # reduced model and the stage-0 interpolant with its r-by-m bases.
    cfg = ExperimentConfig(model="swe", out_dir=str(tmp_path))
    ctx = run_context(cfg, swe_run)
    model, traj = ctx.model, ctx.traj
    runner.build_rom_artifact(cfg, model, ctx, strategy, 25, 30)
    after_solve = []
    rom_solve = runner.rom_solve

    def solve_then_reset_peak(*args, **kwargs):
        out = rom_solve(*args, **kwargs)
        tracemalloc.reset_peak()
        after_solve.append(tracemalloc.get_traced_memory()[0])
        return out

    monkeypatch.setattr(runner, "rom_solve", solve_then_reset_peak)
    tracemalloc.start()
    try:
        result = runner.run_online_point(cfg, model, ctx, traj, strategy, 25, 30)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result["status"] == "ok" and result["sv1_err"] is not None
    assert len(after_solve) == 1
    assert peak - after_solve[0] < 8 * model.n ** 2


# -- the benchmark's hooks ------------------------------------------------

# perfbench/tracing.py wraps runner names through runner.__dict__ and reads
# the strategy from a positional argument, so these must hold for its
# records (offline_s among them) to see the runner's calls.
TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_benchmark_hooks_reach_the_runner(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer, trace=True)  # KeyError names a lost hook
        originals = list(tracer._patches)
        patched = {attr for owner, attr, _ in originals if owner is runner}
        io_hooks = [fn for owner, _, fn in originals if owner is artifact_io]
    finally:
        tracer.unpatch_all()
    assert {"build_smdeim", "build_mdeim_reference", "build_rom_artifact",
            "run_online_point"} <= patched
    assert patched <= set(vars(runner))
    for fn, index in ((runner.build_rom_artifact, 3), (runner.run_online_point, 4)):
        assert list(inspect.signature(fn).parameters).index("strategy") == index
    # the io hooks count bytes from the path, their first positional argument
    assert len(io_hooks) >= 8
    for fn in io_hooks:
        assert list(inspect.signature(fn).parameters)[0] == "path", fn.__name__
    assert all(vars(owner)[attr] is fn for owner, attr, fn in originals)
    calls = []
    build = runner.build_smdeim

    def counted(*args, **kwargs):
        calls.append(args[1])
        return build(*args, **kwargs)

    monkeypatch.setattr(runner, "build_smdeim", counted)
    cfg = parse_config_text(TINY.format(out=tmp_path / "out"))
    runner.cmd_offline(cfg)
    assert calls == [6]


def test_benchmark_traced_counts_match_the_counters():
    # The benchmark's traced pass checks that its thin_svd and
    # deim_interpolant hooks saw every call the counters did; a kernel
    # reached under a name it does not wrap would fail that check.
    import smdeim_rom.models as models
    import smdeim_rom.pod as pod
    from smdeim_rom.models.burgers import build_burgers

    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    model = build_burgers(n=31, n_t=41)
    before = instrumentation.snapshot()
    try:
        tracing.install(tracer, True)
        _, _, snaps = models.full_solve(model)
        basis = pod.pod_basis(snaps[0].states, gamma=1.0, k_max=6)
        built = [rom.reduce_model(model, basis, strategy, snapshots=snaps, m=8)
                 for strategy in rom.STRATEGIES]
        for rm in built:
            rom.rom_solve(rm, 11)
    finally:
        tracer.unpatch_all()
    after = instrumentation.snapshot()
    assert len(built) == 6
    for counter, label in (("thin_svd_calls", "linalg.thin_svd"),
                           ("deim_select_calls", "deim.deim_interpolant")):
        assert tracer.calls[label] > 0
        assert after[counter] - before[counter] == tracer.calls[label], counter
