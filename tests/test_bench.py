"""Benchmark driver: config grammar, hashing, CLI exit codes, resume
semantics, parallel parity, deterministic outputs, and the held-out
metrics against dense oracles.

End-to-end runs use a deliberately tiny Burgers setup (n=31, 20 steps) so a
full sweep takes well under a second.  Determinism is asserted on the
results CSV after masking the wall-clock columns (offline/online seconds and
the timestamp), which are the only fields allowed to vary between runs.
"""

import tracemalloc

import numpy as np
import pytest

from smdeim_rom import io as artifact_io
from smdeim_rom.bench import runner
from smdeim_rom.bench.cli import main
from smdeim_rom.bench.config import (
    ConfigError,
    ExperimentConfig,
    canonical_config,
    config_hash,
    parse_config_text,
    validate_config,
    with_overrides,
)
from smdeim_rom.bench.runner import CSV_COLUMNS, unit_list
from smdeim_rom.deim import deim_interpolant
from smdeim_rom.jacobian_approx import deim_function_jacobian, sample_and_approximate
from smdeim_rom.linalg import thin_svd

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


def test_canonical_config_excludes_out_dir():
    a = ExperimentConfig(out_dir="one")
    b = ExperimentConfig(out_dir="two")
    assert canonical_config(a) == canonical_config(b)
    assert config_hash(a) == config_hash(b)
    c = ExperimentConfig(m_list=(31,))
    assert config_hash(a) != config_hash(c)
    assert "burgers.u0_peak" in canonical_config(a)


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
    cfg_a, out_a = write_config(tmp_path, name="split.cfg", out=tmp_path / "split")
    assert main(["simulate", "--config", str(cfg_a)]) == 0
    assert main(["offline", "--config", str(cfg_a)]) == 0
    assert main(["online", "--config", str(cfg_a)]) == 0
    cfg_b, out_b = write_config(tmp_path, name="swp.cfg", out=tmp_path / "swp")
    assert main(["sweep", "--config", str(cfg_b)]) == 0
    assert masked(read_rows(out_a / "results.csv")) == masked(
        read_rows(out_b / "results.csv")
    )


def test_parallel_jobs_match_sequential(tmp_path):
    cfg_a, out_a = write_config(tmp_path, name="seq.cfg", out=tmp_path / "seq")
    cfg_b, out_b = write_config(tmp_path, name="par.cfg", out=tmp_path / "par")
    assert main(["sweep", "--config", str(cfg_a)]) == 0
    assert main(["sweep", "--config", str(cfg_b), "--jobs", "2"]) == 0
    assert masked(read_rows(out_a / "results.csv")) == masked(
        read_rows(out_b / "results.csv")
    )


def test_online_without_offline_fails_with_exit_3(tmp_path, capsys):
    cfg_path, out = write_config(tmp_path)
    assert main(["online", "--config", str(cfg_path)]) == 3
    err = capsys.readouterr().err
    assert "snapshot artifact" in err and "simulate" in err


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


def test_online_reads_each_model_artifact_once(tmp_path, monkeypatch):
    cfg_path, out = write_config(tmp_path)
    assert main(["offline", "--config", str(cfg_path)]) == 0
    read = []
    read_blocks = artifact_io.read_blocks

    def counted(path):
        read.append(path.name)
        return read_blocks(path)

    monkeypatch.setattr(artifact_io, "read_blocks", counted)
    assert main(["online", "--config", str(cfg_path)]) == 0
    model_reads = sorted(name for name in read if name.startswith("rom-"))
    assert len(model_reads) == 2  # smdeim and tensorial
    assert len(set(model_reads)) == 2


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


def dense_sv1_err(cfg, strategy, k, m):
    """sv1_err recomputed with dense n-by-n Jacobians and a full SVD."""
    model = runner.build_model(cfg, {"nx": cfg.swe_nx[0], "ny": cfg.swe_ny[0]})
    snap = runner.load_snapshot_artifacts(cfg, model)[0][0]
    op = model.stages[0].op
    path = runner.rom_artifact_path(cfg, model.config_hash, strategy, k, m)
    basis = artifact_io.load_reduced_model(path, model).basis
    if strategy == "smdeim":
        mi = artifact_io.load_interpolant(path, stage=0)
    else:
        fn_interp = deim_interpolant(thin_svd(snap.nonlinear).u, m)
    stride = cfg.heldout_stride
    probes = list(range(stride - 1, snap.n_cols, stride))[: cfg.sv_probes]
    errs = []
    for i in probes:
        x = basis.lift(basis.project(snap.states[:, i]))
        true = op.jacobian(x).toarray()
        if strategy == "smdeim":
            approx = sample_and_approximate(mi, op, x).toarray()
        else:
            rows = op.sample_nl_rows(x, fn_interp.indexes)
            approx = op.linear.toarray() + deim_function_jacobian(fn_interp, rows)
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


@pytest.mark.parametrize("strategy", ["deim", "smdeim"])
def test_heldout_metrics_form_no_dense_square_matrix(
    tmp_path, monkeypatch, swe_run, strategy
):
    # The peak is taken from the end of the reduced solve, so it covers the
    # held-out evaluation, where an n-by-n float64 array alone would take
    # 8 n^2 bytes (the evaluation peaks near 0.4 of that here).  The whole
    # call peaks higher, up to 1.9 times 8 n^2, on loading the artifact
    # before the solve: the reader holds the file's bytes, the parsed
    # reduced model and the stage-0 interpolant with its r-by-m bases.
    cfg = ExperimentConfig(model="swe", out_dir=str(tmp_path))
    model, snaps, traj = swe_run.model, swe_run.snaps, swe_run.trajectory
    runner.artifact_dir(cfg).mkdir(parents=True)
    runner.build_rom_artifact(cfg, model, snaps, strategy, 25, 30)
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
        result = runner.run_online_point(cfg, model, snaps, traj, strategy, 25, 30)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result["status"] == "ok" and result["sv1_err"] is not None
    assert len(after_solve) == 1
    assert peak - after_solve[0] < 8 * model.n ** 2
