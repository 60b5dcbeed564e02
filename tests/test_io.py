"""Artifact container: bit-exact round trips, block framing, and the
diagnostic failure modes for corrupt or mismatched files.

Every round trip is checked with array_equal (no tolerance): the format
stores raw little-endian float64, so serialization must not perturb values.
"""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from smdeim_rom import io as artifact_io
from smdeim_rom.deim import DeimInterpolant, deim_interpolant
from smdeim_rom.jacobian_approx import (
    MatrixInterpolant,
    build_mdeim_reference,
    build_smdeim,
)
from smdeim_rom.linalg import thin_svd
from smdeim_rom.models import full_solve
from smdeim_rom.models.burgers import build_burgers
from smdeim_rom.models.swe import build_swe
from smdeim_rom.pod import PodBasis, pod_basis
from smdeim_rom.rom import (
    JACOBIANS,
    HeldoutProbe,
    ReducedModel,
    ReducedStage,
    TensorCore,
    heldout_errors,
    reduce_model,
    rom_solve,
)
from smdeim_rom.snapshots import SnapshotSet, SparsityPattern


@pytest.fixture(scope="module")
def setup():
    model = build_burgers(n=31, n_t=21)
    traj, _, snaps = full_solve(model, 21)
    basis = pod_basis(snaps[0].states, gamma=1.0, k_max=5)
    return model, traj, snaps, basis


def test_snapshot_round_trip_bit_exact(tmp_path, setup):
    _, _, snaps, _ = setup
    path = tmp_path / "snap.bin"
    artifact_io.save_snapshots(path, snaps[0])
    back = artifact_io.load_snapshots(path)
    assert back.model_id == snaps[0].model_id
    assert back.config_hash == snaps[0].config_hash
    assert back.stage == snaps[0].stage
    assert back.dt == snaps[0].dt
    assert back.pattern == snaps[0].pattern
    assert np.array_equal(back.states, snaps[0].states)
    assert np.array_equal(back.nonlinear, snaps[0].nonlinear)
    assert np.array_equal(back.jacobian, snaps[0].jacobian)


def _traced_peak(load):
    """(what load() returns, the peak bytes traced while it ran)."""
    tracemalloc.start()
    try:
        got = load()
        return got, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_load_snapshots_holds_each_byte_once(tmp_path, swe_run):
    # each array is read straight into its own buffer, in the column-major
    # order full_solve builds it in: no payload-sized buffer and no copy
    built = swe_run.snaps[0]
    path = tmp_path / "snap.bin"
    artifact_io.save_snapshots(path, built)
    names = ("states", "nonlinear", "jacobian")
    for arrays in (None, ("states",), ("jacobian", "states")):
        got, peak = _traced_peak(lambda: artifact_io.load_snapshots(path, arrays))
        if arrays is None:
            blocks = [getattr(got, name) for name in names]
            held = blocks + [got.pattern.rows, got.pattern.cols]
            assert got.pattern == built.pattern
        else:
            blocks = held = list(got)
        returned = sum(a.nbytes for a in held)
        assert peak <= 1.1 * returned, arrays
        for name, block in zip(arrays or names, blocks):
            assert np.array_equal(block, getattr(built, name))
            assert block.flags.f_contiguous and getattr(built, name).flags.f_contiguous


def _arrays(obj):
    """Every array that obj, a loader's result, holds, but a pattern's: a
    loader rebinds the model's and reads none."""
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, tuple):
        return [a for item in obj for a in _arrays(item)]
    if hasattr(obj, "__dict__") and not isinstance(obj, SparsityPattern):
        return [a for item in vars(obj).values() for a in _arrays(item)]
    return []


@pytest.mark.parametrize("block", ["trajectory", "pod", "mint", "deim"])
def test_loaders_hold_each_byte_once(tmp_path, swe_run, swe_basis, block):
    # every array is read straight into a buffer in its built order, which
    # the loader returns
    snap = swe_run.snaps[0]
    path = tmp_path / "art.bin"
    if block == "trajectory":
        built, load = swe_run.trajectory, artifact_io.load_trajectory
        artifact_io.save_trajectory(path, built, 2.5)
    elif block == "pod":
        built, load = swe_basis, artifact_io.load_pod_basis
        artifact_io.save_pod_basis(path, built)
    else:
        built = (build_smdeim(snap, 30) if block == "mint"
                 else deim_interpolant(thin_svd(snap.nonlinear).u, 30))
        artifact_io.save_interpolant(path, built, 0)

        def load(p):
            return artifact_io.load_interpolant(p, swe_run.model)
    got, peak = _traced_peak(lambda: load(path))
    assert peak <= 1.1 * sum(a.nbytes for a in _arrays(got))
    if block == "trajectory":
        _assert_same_array(got[0], built, block)
    else:
        _assert_fields_equal(got, built)


@pytest.mark.parametrize("tag", ["SNAP", "PODB", "DEIM", "MINT", "TRAJ", "REDM"])
def test_savers_hold_no_copy_of_a_block(tmp_path, swe_run, swe_basis, tag):
    # each contiguous array is streamed from its own buffer and each length
    # patched in after, so no saver holds a copy of its largest array; each
    # case is (save, the largest array, what load reads back of it)
    model, snap = swe_run.model, swe_run.snaps[0]
    if tag == "SNAP":
        save, largest, load = (lambda p: artifact_io.save_snapshots(p, snap), snap.jacobian,
                               lambda p: artifact_io.load_snapshots(p).jacobian)
    elif tag == "PODB":
        save, largest, load = (lambda p: artifact_io.save_pod_basis(p, swe_basis),
                               swe_basis.u, lambda p: artifact_io.load_pod_basis(p).u)
    elif tag == "DEIM":
        interp = deim_interpolant(thin_svd(snap.nonlinear).u, 30)
        save, largest, load = (lambda p: artifact_io.save_interpolant(p, interp, 0),
                               interp.projector,
                               lambda p: artifact_io.load_interpolant(p, model).projector)
    elif tag == "MINT":
        mi = build_smdeim(snap, 30)
        save, largest, load = (lambda p: artifact_io.save_interpolant(p, mi, 0),
                               mi.interp.projector,
                               lambda p: artifact_io.load_interpolant(p, model).interp.projector)
    elif tag == "TRAJ":
        save, largest, load = (lambda p: artifact_io.save_trajectory(p, swe_run.trajectory, 2.5),
                               swe_run.trajectory, lambda p: artifact_io.load_trajectory(p)[0])
    else:
        rm = reduce_model(model, swe_basis, "smdeim", snapshots=swe_run.snaps, m=30)
        largest = rm.stages[0].jacobian.reducer
        assert largest.nbytes > rm.stages[0].core.quad.nbytes
        save, load = (lambda p: artifact_io.save_reduced_model(p, rm), lambda p: (
            artifact_io.load_reduced_model(p, model).stages[0].jacobian.reducer))
    path = tmp_path / "art.bin"
    _, peak = _traced_peak(lambda: save(path))
    assert peak <= 0.1 * largest.nbytes
    assert [t for t, _ in artifact_io.read_blocks(path)] == [tag]
    _assert_same_array(load(path), largest, tag)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(artifact_io.FormatError) as err:
        artifact_io.load_snapshots(path)
    assert "magic" in str(err.value)


def test_unsupported_version_rejected(tmp_path, setup):
    # 1 to 3 are the versions of earlier layouts: in 1 the snapshot body
    # came before any block, 2 stored every array column-major with no
    # order flag, and 3 stored a DEIM basis and a MINT block's pattern
    _, _, snaps, _ = setup
    path = tmp_path / "snap.bin"
    artifact_io.save_snapshots(path, snaps[0])
    raw = bytearray(path.read_bytes())
    loaders = (artifact_io.load_snapshots, artifact_io.read_blocks,
               artifact_io.load_trajectory, artifact_io.load_pod_basis,
               lambda p: artifact_io.load_interpolant(p, None),
               lambda p: artifact_io.load_reduced_model(p, None))
    for version in (1, 2, 3, 99):
        raw[4] = version  # format version field
        path.write_bytes(bytes(raw))
        for load in loaders:
            with pytest.raises(artifact_io.FormatError) as err:
                load(path)
            assert str(err.value).startswith(f"{path}: ")
            assert f"format version {version};" in str(err.value)


def test_every_file_is_the_header_then_blocks(tmp_path, setup):
    model, _, snaps, basis = setup
    header = artifact_io.MAGIC + (4).to_bytes(4, "little")
    assert artifact_io.FORMAT_VERSION == 4
    snap_path = tmp_path / "snap.bin"
    artifact_io.save_snapshots(snap_path, snaps[0])
    raw = snap_path.read_bytes()
    assert raw[:8] == header
    assert raw[8:12] == b"SNAP"
    assert int.from_bytes(raw[12:20], "little") == len(raw) - 20
    # a block appended to an absent file starts it with the bare header
    rm = reduce_model(model, basis, "tensorial")
    rom_path = tmp_path / "rom.bin"
    artifact_io.save_reduced_model(rom_path, rm)
    raw = rom_path.read_bytes()
    assert raw[:8] == header
    assert raw[8:12] == b"REDM"
    assert int.from_bytes(raw[12:20], "little") == len(raw) - 20
    assert [t for t, _ in artifact_io.read_blocks(rom_path)] == ["REDM"]


def test_bad_order_flag_rejected_naming_file_and_offset(tmp_path):
    at = 8 + 12 + 4 * 8  # header, frame, then n, n_t, mean_iters, solve_seconds
    path = tmp_path / "art.bin"
    artifact_io.save_trajectory(path, np.ones((3, 4)), 2.0)
    raw = bytearray(path.read_bytes())
    assert raw[at:at + 1] == b"C"
    raw[at] = ord("X")
    path.write_bytes(bytes(raw))
    with pytest.raises(artifact_io.FormatError) as err:
        artifact_io.load_trajectory(path)
    assert str(err.value) == f"{path}: bad array order flag b'X' at offset {at}"


def test_truncation_rejected(tmp_path, setup):
    _, _, snaps, _ = setup
    path = tmp_path / "snap.bin"
    artifact_io.save_snapshots(path, snaps[0])
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(artifact_io.FormatError) as err:
        artifact_io.load_snapshots(path)
    assert "truncated" in str(err.value)
    assert str(err.value).startswith(f"{path}: ")


_TEXT = (("text", "str"),)


def _text(value):
    return (_TEXT, {"text": value})


def _zeros(count):
    """A field list of one array of count zeros: b"C" and 8 * count bytes."""
    return (("zeros", ("f8", count)),), {"zeros": np.zeros(count)}


def test_block_framing_appends_in_order(tmp_path, setup):
    # each block's length, and a nested list's, is patched in once written,
    # after the blocks already in the file
    _, _, snaps, _ = setup
    path = tmp_path / "art.bin"
    artifact_io.save_snapshots(path, snaps[0])
    artifact_io.append_block(path, "AAAA", _text("first"))
    artifact_io.append_block(path, "BBBB", _text("sec"), _text("ond"))
    artifact_io.append_block(path, "AAAA", ((("inner", _TEXT),), {"inner": {"text": "third"}}))
    assert artifact_io.read_blocks(path)[1:] == [
        ("AAAA", b"\x05\0\0\0first"),
        ("BBBB", b"\x03\0\0\0sec\x03\0\0\0ond"),
        ("AAAA", b"\x09" + bytes(7) + b"\x05\0\0\0third"),
    ]
    assert artifact_io.read_blocks(path)[0][0] == artifact_io.TAG_SNAP
    with pytest.raises(ValueError):
        artifact_io.append_block(path, "TOOLONG")


def test_read_blocks_holds_one_copy_of_the_file(tmp_path, setup):
    # each payload is read once into its own buffer, and nothing holds the
    # whole file besides
    _, _, snaps, _ = setup
    path = tmp_path / "art.bin"
    artifact_io.save_snapshots(path, snaps[0])
    for tag in ("AAAA", "BBBB"):
        artifact_io.append_block(path, tag, _zeros(1 << 17))
    size = path.stat().st_size
    blocks, peak = _traced_peak(lambda: artifact_io.read_blocks(path))
    assert [(t, bytes(p)) for t, p in blocks[-2:]] == [
        ("AAAA", b"C" + bytes(1 << 20)), ("BBBB", b"C" + bytes(1 << 20)),
    ]
    assert peak < 1.5 * size


def test_truncated_block_frame_rejected(tmp_path, setup):
    _, _, snaps, _ = setup
    path = tmp_path / "art.bin"
    artifact_io.save_snapshots(path, snaps[0])
    with open(path, "ab") as f:
        f.write(b"AAAA\x05")  # half a length field
    with pytest.raises(artifact_io.FormatError):
        artifact_io.read_blocks(path)


def test_pod_block_round_trip(tmp_path, setup):
    _, _, snaps, basis = setup
    path = tmp_path / "art.bin"
    artifact_io.save_snapshots(path, snaps[0])
    artifact_io.save_pod_basis(path, basis)
    back = artifact_io.load_pod_basis(path)
    assert back.k == basis.k
    assert back.gamma == basis.gamma
    assert back.centered == basis.centered
    assert np.array_equal(back.u, basis.u)
    assert np.array_equal(back.singulars, basis.singulars)
    assert np.array_equal(back.mean, basis.mean)


def test_deim_block_round_trip(tmp_path, rng):
    v = thin_svd(rng.standard_normal((25, 6))).u
    interp = deim_interpolant(v)
    path = tmp_path / "art.bin"
    artifact_io.save_interpolant(path, interp, 0)
    back = artifact_io.load_interpolant(path, None, 0)  # a DEIM block reads no model
    # in the layout deim_interpolant builds it in
    assert back.projector.flags.f_contiguous
    assert np.array_equal(back.indexes, interp.indexes)
    assert np.array_equal(back.projector, interp.projector)
    assert back.inv_norm == interp.inv_norm


@pytest.mark.parametrize("route", ["sparse", "vectorized"])
def test_interpolant_block_round_trip(tmp_path, setup, route):
    model, _, snaps, _ = setup
    mi = (
        build_smdeim(snaps[0], 6)
        if route == "sparse"
        else build_mdeim_reference(snaps[0], 6)
    )
    path = tmp_path / "art.bin"
    artifact_io.save_snapshots(path, snaps[0])
    artifact_io.save_interpolant(path, mi, 0)
    back = artifact_io.load_interpolant(path, model, stage=0)
    assert back.mode == mi.mode
    assert back.pattern is model.stages[0].op.pattern
    assert back.pattern == mi.pattern
    assert np.array_equal(back.sample_rows, mi.sample_rows)
    assert np.array_equal(back.sample_cols, mi.sample_cols)
    assert np.array_equal(back.interp.projector, mi.interp.projector)
    assert np.array_equal(back.singulars, mi.singulars)
    with pytest.raises(artifact_io.FormatError):
        artifact_io.load_interpolant(path, model, stage=1)


@pytest.mark.parametrize("kind", ["deim", "smdeim"])
def test_missing_interpolant_stage_lists_the_stages_present(tmp_path, setup, kind):
    model, _, snaps, _ = setup
    if kind == "deim":
        interp = deim_interpolant(thin_svd(snaps[0].nonlinear).u, 6)
    else:
        interp = build_smdeim(snaps[0], 6)
    path = tmp_path / "art.bin"
    artifact_io.save_snapshots(path, snaps[0])
    for stage in (2, 0):
        artifact_io.save_interpolant(path, interp, stage)
    assert [t for t, _ in artifact_io.read_blocks(path)][1:] == (
        [artifact_io.TAG_DEIM if kind == "deim" else artifact_io.TAG_MINT] * 2
    )
    with pytest.raises(artifact_io.FormatError) as err:
        artifact_io.load_interpolant(path, model, stage=1)
    assert str(err.value) == (f"{path}: no 'DEIM' or 'MINT' block for stage 1 "
                              "(stages present: [0, 2])")
    assert type(artifact_io.load_interpolant(path, model, stage=0)) is type(interp)


def test_interpolant_of_another_stage_rejected(tmp_path, swe_run):
    # a MINT block of stage 0 stored as stage 1 does not fit stage 1's pattern
    model, snaps = swe_run.model, swe_run.snaps
    assert model.stages[0].op.pattern != model.stages[1].op.pattern
    path = tmp_path / "art.bin"
    artifact_io.save_interpolant(path, build_smdeim(snaps[0], 30), 1)
    with pytest.raises(artifact_io.FormatError) as err:
        artifact_io.load_interpolant(path, model, 1)
    assert str(err.value).startswith(f"{path}: stage 1 interpolant")


@pytest.mark.parametrize(
    "strategy", ["tensorial", "direct-projection", "directional-derivative",
                 "deim", "smdeim", "mdeim-reference"]
)
def test_reduced_model_round_trip_replays_identically(tmp_path, setup, strategy):
    model, _, snaps, basis = setup
    kwargs = {}
    if strategy in ("deim", "smdeim", "mdeim-reference"):
        kwargs = {"snapshots": snaps, "m": 6}
    rm = reduce_model(model, basis, strategy, **kwargs)
    path = tmp_path / f"{strategy}.bin"
    artifact_io.save_snapshots(path, snaps[0])
    artifact_io.save_reduced_model(path, rm)
    back = artifact_io.load_reduced_model(path, model)
    assert back.strategy == strategy
    assert back.k == rm.k
    assert np.array_equal(back.initial_reduced, rm.initial_reduced)
    t1, s1 = rom_solve(rm, 21)
    t2, s2 = rom_solve(back, 21)
    assert np.array_equal(t1, t2)
    assert s1.iterations == s2.iterations


def test_loaders_read_only_their_payloads(tmp_path, setup, file_reads):
    # the frame headers they walk, then their own payload: none of the
    # snapshot block, the other stage's interpolant or the basis
    model, _, snaps, basis = setup
    mis = [build_smdeim(snaps[0], m) for m in (6, 5)]
    rm = reduce_model(model, basis, "smdeim", prebuilt={0: mis[0]}, snapshots=snaps, m=6)
    path = tmp_path / "art.bin"
    artifact_io.save_snapshots(path, snaps[0])
    artifact_io.save_interpolant(path, mis[1], 1)
    artifact_io.save_pod_basis(path, basis)
    artifact_io.save_interpolant(path, mis[0], 0)
    artifact_io.save_reduced_model(path, rm)
    blocks = artifact_io.read_blocks(path)[1:]
    file_reads.clear()
    frames = 8 + 12 * (1 + len(blocks))  # the header and every frame header
    back = artifact_io.load_reduced_model(path, model)
    assert np.array_equal(rom_solve(back, 21)[0], rom_solve(rm, 21)[0])
    assert file_reads.total == frames + len(blocks[3][1])
    file_reads.clear()
    back_mi = artifact_io.load_interpolant(path, model, stage=0)
    assert np.array_equal(back_mi.interp.projector, mis[0].interp.projector)
    # the walk stops at its block; of the stage-1 block it reads the stage
    assert file_reads.total == 8 + 12 * 4 + 8 + len(blocks[2][1])
    file_reads.clear()
    artifact_io.load_pod_basis(path)
    assert file_reads.total == frames + len(blocks[1][1])


@pytest.fixture(scope="module")
def swe_11x9():
    model = build_swe(nx_points=11, ny_points=9)
    return model, full_solve(model, model.default_n_t)[2]


@pytest.mark.parametrize("strategy", ["deim", "smdeim", "mdeim-reference"])
def test_loaded_artifact_rounds_as_the_built_one(tmp_path, setup, swe_11x9, strategy):
    # held-out errors of the loaded reduced model and stage-0 interpolant
    # equal the built ones' bit for bit, as every array loads in the layout
    # its builder made
    if strategy == "mdeim-reference":
        model, _, snaps, basis = setup
        m = 6
    else:
        model, snaps = swe_11x9
        basis, m = pod_basis(snaps[0].states, gamma=1.0, k_max=10), 12
    build = {"deim": lambda snap: deim_interpolant(thin_svd(snap.nonlinear).u, m),
             "smdeim": lambda snap: build_smdeim(snap, m),
             "mdeim-reference": lambda snap: build_mdeim_reference(snap, m)}[strategy]
    interps = [build(snap) for snap in snaps]
    rm = reduce_model(model, basis, strategy, m=m, prebuilt=dict(enumerate(interps)))
    path = tmp_path / "rom.bin"
    for stage, interp in enumerate(interps):
        artifact_io.save_interpolant(path, interp, stage)
    artifact_io.save_reduced_model(path, rm)
    op = model.stages[0].op
    probes = [HeldoutProbe(op, basis, x) for x in snaps[0].states.T[1::4]]
    built = heldout_errors(rm, probes, interps[0], sv_probes=2)
    loaded = heldout_errors(artifact_io.load_reduced_model(path, model), probes,
                            artifact_io.load_interpolant(path, model), sv_probes=2)
    assert None not in built.values()
    assert loaded == built


def test_reduced_model_identity_mismatch(tmp_path, setup):
    model, _, snaps, basis = setup
    rm = reduce_model(model, basis, "tensorial")
    path = tmp_path / "art.bin"
    artifact_io.save_snapshots(path, snaps[0])
    artifact_io.save_reduced_model(path, rm)
    other = build_burgers(n=31, n_t=21, mu=0.02)
    with pytest.raises(artifact_io.FormatError) as err:
        artifact_io.load_reduced_model(path, other)
    assert "built for" in str(err.value)
    assert str(err.value).startswith(f"{path}: ")


def test_trajectory_block_round_trip(tmp_path, setup, rng):
    _, _, snaps, _ = setup
    path = tmp_path / "art.bin"
    artifact_io.save_snapshots(path, snaps[0])
    traj = rng.standard_normal((5, 9))
    artifact_io.save_trajectory(path, traj, 3.25, 0.125)
    back, mean_iters, seconds = artifact_io.load_trajectory(path)
    assert np.array_equal(back, traj)
    assert mean_iters == 3.25
    assert seconds == 0.125


def test_missing_block_reports_tag(tmp_path, setup):
    _, _, snaps, _ = setup
    path = tmp_path / "art.bin"
    artifact_io.save_snapshots(path, snaps[0])
    with pytest.raises(artifact_io.FormatError) as err:
        artifact_io.load_trajectory(path)
    assert artifact_io.TAG_TRAJ in str(err.value)
    assert str(err.value).startswith(f"{path}: ")


def test_load_trajectory_reads_only_its_block(tmp_path, setup, file_reads, rng):
    _, _, snaps, _ = setup
    path = tmp_path / "art.bin"
    traj = rng.standard_normal((5, 9))
    artifact_io.save_snapshots(path, snaps[0])
    artifact_io.save_trajectory(path, traj + 1.0, 1.0)
    artifact_io.append_block(path, "AAAA", _zeros(1 << 13))
    artifact_io.save_trajectory(path, traj, 3.25, 0.125)
    artifact_io.append_block(path, "BBBB", _zeros(1 << 13))
    payload = artifact_io.read_blocks(path)[3][1]
    file_reads.clear()
    artifact_io.read_blocks(path)
    assert file_reads.total == path.stat().st_size  # the counter sees whole reads
    file_reads.clear()
    back, mean_iters, seconds = artifact_io.load_trajectory(path)
    assert np.array_equal(back, traj) and (mean_iters, seconds) == (3.25, 0.125)
    assert file_reads.total < len(payload) + 1024


def test_load_trajectory_rejects_truncated_frames(tmp_path, setup):
    _, _, snaps, _ = setup
    path = tmp_path / "art.bin"
    artifact_io.save_snapshots(path, snaps[0])
    artifact_io.save_trajectory(path, np.ones((3, 4)), 2.0)
    payload = artifact_io.read_blocks(path)[-1][1]
    whole = path.read_bytes()
    for cut in (len(payload) // 2, len(payload) + 6):  # in the payload, the frame
        path.write_bytes(whole[:-cut])
        with pytest.raises(artifact_io.FormatError) as err:
            artifact_io.load_trajectory(path)
        assert "truncated" in str(err.value)
        assert str(err.value).startswith(f"{path}: ")


# -- FormatError paths of the REDM block ----------------------------------


def _redm_file(path, payload):
    """path rewritten as the bare header and one REDM block of payload."""
    header = artifact_io.MAGIC + artifact_io.FORMAT_VERSION.to_bytes(4, "little")
    path.write_bytes(header + b"REDM" + len(payload).to_bytes(8, "little") + payload)
    return path


def _redm_payload(path, rm):
    """The payload of rm's REDM block, saved to path as a fresh file."""
    path.unlink(missing_ok=True)
    artifact_io.save_reduced_model(path, rm)
    ((_, payload),) = artifact_io.read_blocks(path)
    return bytes(payload)


def test_reduced_model_unknown_jacobian_kind(tmp_path, setup):
    model, _, snaps, basis = setup
    rm = reduce_model(model, basis, "smdeim", snapshots=snaps, m=6)
    path = tmp_path / "art.bin"
    payload = _redm_payload(path, rm)
    kind = b"\x06\x00\x00\x00matrix"
    assert payload.count(kind) == 1
    _redm_file(path, payload.replace(kind, b"\x06\x00\x00\x00matrox"))
    with pytest.raises(artifact_io.FormatError) as err:
        artifact_io.load_reduced_model(path, model)
    assert "matrox" in str(err.value)
    assert str(err.value).startswith(f"{path}: ")


def test_reduced_model_stage_count_mismatch(tmp_path, swe_small):
    model, basis = swe_small
    rm = reduce_model(model, basis, "tensorial")
    rm.stages = rm.stages[:1]
    path = tmp_path / "art.bin"
    artifact_io.save_reduced_model(path, rm)
    with pytest.raises(artifact_io.FormatError) as err:
        artifact_io.load_reduced_model(path, model)
    assert "1 stages, model has 2" in str(err.value)
    assert str(err.value).startswith(f"{path}: ")


def test_reduced_model_cut_short_anywhere_is_a_format_error(tmp_path, swe_small):
    # every prefix, including each one ending inside a stage core, the
    # explicit core, the kind string or the strategy fields, as a whole
    # block and as a file cut inside the block
    model, basis = swe_small
    path = tmp_path / "art.bin"
    for strategy in ("tensorial", "directional-derivative"):
        rm = reduce_model(model, basis, strategy)
        payload = _redm_payload(path, rm)
        whole = path.read_bytes()
        for cut in range(len(payload)):
            _redm_file(path, payload[:cut])
            with pytest.raises(artifact_io.FormatError, match="truncated") as err:
                artifact_io.load_reduced_model(path, model)
            assert str(err.value).startswith(f"{path}: ")
            path.write_bytes(whole[: len(whole) - len(payload) + cut])
            with pytest.raises(artifact_io.FormatError, match="truncated"):
                artifact_io.load_reduced_model(path, model)


# -- round-trip properties over random shapes -----------------------------

_names = st.text(
    st.characters(exclude_characters=";", exclude_categories=("Cs",)), max_size=6
)
_floats = st.floats(allow_nan=False)


@pytest.fixture(scope="module")
def swe_small():
    """A two-stage model with explicit halves and a k=3 basis of it."""
    model = build_swe(nx_points=5, ny_points=5)
    _, _, snaps = full_solve(model, 6)
    return model, pod_basis(snaps[0].states, gamma=1.0, k_max=3)


def _random(seed):
    return np.random.default_rng(seed)


@st.composite
def _patterns(draw, n):
    coords = sorted(draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)))))
    rows = np.array([c[0] for c in coords], dtype=np.int64)
    cols = np.array([c[1] for c in coords], dtype=np.int64)
    return SparsityPattern(n=n, rows=rows, cols=cols)


@st.composite
def _laid_out(draw, a):
    """a in C order, in Fortran order or as a view contiguous in neither."""
    layout = draw(st.sampled_from(["C", "F", "strided"]))
    if layout == "F":
        return np.asfortranarray(a)
    return np.repeat(a, 2, axis=-1)[..., ::2] if layout == "strided" else a


@st.composite
def _deim_interpolants(draw, d=None):
    d = draw(st.integers(1, 6)) if d is None else d
    m = draw(st.integers(1, 4))
    rng = _random(draw(st.integers(0, 2**32)))
    return DeimInterpolant(
        indexes=rng.integers(0, d, m),
        projector=draw(_laid_out(rng.standard_normal((d, m)))),
        inv_norm=draw(_floats),
    )


def _assert_same_array(got, want, name):
    # equal, and in the order it was written in: C for a non-contiguous one
    assert np.array_equal(got, want), name
    fortran = want.flags.f_contiguous and not want.flags.c_contiguous
    assert got.flags["F_CONTIGUOUS" if fortran else "C_CONTIGUOUS"], name


def _assert_fields_equal(back, orig):
    for name, value in vars(orig).items():
        got = getattr(back, name)
        if isinstance(value, np.ndarray):
            _assert_same_array(got, value, name)
        elif isinstance(value, DeimInterpolant):
            _assert_fields_equal(got, value)
        else:
            assert got == value, name


@given(n=st.integers(1, 5), n_cols=st.integers(0, 4), data=st.data())
def test_snapshot_body_round_trips(tmp_path_factory, n, n_cols, data):
    pattern = data.draw(_patterns(n))
    rng = _random(data.draw(st.integers(0, 2**32)))
    snap = SnapshotSet(
        model_id=data.draw(_names),
        config_hash=data.draw(_names),
        stage=data.draw(_names),
        dt=data.draw(_floats),
        pattern=pattern,
        states=data.draw(_laid_out(rng.standard_normal((n, n_cols)))),
        nonlinear=data.draw(_laid_out(rng.standard_normal((n, n_cols)))),
        jacobian=data.draw(_laid_out(rng.standard_normal((pattern.r, n_cols)))),
    )
    path = tmp_path_factory.getbasetemp() / "snap.bin"
    artifact_io.save_snapshots(path, snap)
    raw = path.read_bytes()
    ((tag, payload),) = artifact_io.read_blocks(path)
    assert tag == artifact_io.TAG_SNAP and bytes(payload) == raw[20:]
    back = artifact_io.load_snapshots(path)
    _assert_fields_equal(back, snap)
    artifact_io.save_snapshots(path, back)
    assert path.read_bytes() == raw


def _round_trip(tmp_path_factory, save, load, built):
    """What load(path) reads back after save(path, built) writes a fresh
    file, once it is checked that save writes what was read to a second
    file byte for byte."""
    paths = [tmp_path_factory.getbasetemp() / name for name in ("first.bin", "again.bin")]
    for path in paths:
        path.unlink(missing_ok=True)
    save(paths[0], built)
    back = load(paths[0])
    save(paths[1], back)
    assert paths[1].read_bytes() == paths[0].read_bytes()
    return back


@given(n=st.integers(1, 6), data=st.data())
def test_pod_block_round_trips(tmp_path_factory, n, data):
    k = data.draw(st.integers(1, n))
    rng = _random(data.draw(st.integers(0, 2**32)))
    basis = PodBasis(
        u=data.draw(_laid_out(rng.standard_normal((n, k)))),
        singulars=rng.standard_normal(data.draw(st.integers(0, 8))),
        k=k,
        gamma=data.draw(_floats),
        centered=data.draw(st.booleans()),
        mean=rng.standard_normal(n),
    )
    back = _round_trip(tmp_path_factory, artifact_io.save_pod_basis,
                       artifact_io.load_pod_basis, basis)
    _assert_fields_equal(back, basis)


@given(interp=_deim_interpolants(), stage=st.integers(0, 2**64 - 1))
def test_deim_block_round_trips(tmp_path_factory, interp, stage):
    back = _round_trip(tmp_path_factory,
                       lambda p, x: artifact_io.save_interpolant(p, x, stage),
                       lambda p: artifact_io.load_interpolant(p, None, stage), interp)
    _assert_fields_equal(back, interp)


def _model_of(pattern, n_stages):
    """What load_interpolant reads of a model: each stage's pattern."""
    stage = SimpleNamespace(op=SimpleNamespace(pattern=pattern))
    return SimpleNamespace(stages=[stage] * n_stages)


@given(mode=st.sampled_from(["sparse", "vectorized"]), n=st.integers(1, 5),
       stage=st.integers(0, 3), data=st.data())
def test_mint_block_round_trips(tmp_path_factory, mode, n, stage, data):
    pattern = data.draw(_patterns(n).filter(lambda p: p.r > 0))
    interp = data.draw(_deim_interpolants(pattern.r if mode == "sparse" else n * n))
    index = interp.indexes
    rng = _random(data.draw(st.integers(0, 2**32)))
    mi = MatrixInterpolant(
        mode=mode,
        pattern=pattern,
        interp=interp,
        sample_rows=pattern.rows[index] if mode == "sparse" else index % n,
        sample_cols=pattern.cols[index] if mode == "sparse" else index // n,
        singulars=rng.standard_normal(data.draw(st.integers(0, 8))),
    )
    model = _model_of(pattern, stage + 1)
    back = _round_trip(tmp_path_factory,
                       lambda p, x: artifact_io.save_interpolant(p, x, stage),
                       lambda p: artifact_io.load_interpolant(p, model, stage), mi)
    _assert_fields_equal(back, mi)


@given(n=st.integers(1, 6), n_t=st.integers(0, 5), mean_iters=_floats,
       seconds=_floats, seed=st.integers(0, 2**32), data=st.data())
def test_traj_block_round_trips(tmp_path_factory, n, n_t, mean_iters, seconds, seed,
                                data):
    traj = data.draw(_laid_out(_random(seed).standard_normal((n, n_t))))
    back, back_iters, back_seconds = _round_trip(
        tmp_path_factory, lambda p, t: artifact_io.save_trajectory(p, *t),
        artifact_io.load_trajectory, (traj, mean_iters, seconds))
    _assert_same_array(back, traj, "trajectory")
    assert (back_iters, back_seconds) == (mean_iters, seconds)


def _random_core(rng, draw, k):
    return TensorCore(const=rng.standard_normal(k),
                      lin=draw(_laid_out(rng.standard_normal((k, k)))),
                      quad=draw(_laid_out(rng.standard_normal((k, k, k)))))


def _random_parts(kind, rng, draw, n, k):
    if kind == "directional-derivative":
        return {"h": draw(st.floats(1e-6, 1.0))}
    m = draw(st.integers(1, 4))
    if kind == "deim":
        return {"indexes": rng.integers(0, n, m),
                "left": draw(_laid_out(rng.standard_normal((k, m)))),
                "lin_reduced": draw(_laid_out(rng.standard_normal((k, k))))}
    if kind == "matrix":
        return {"reducer": draw(_laid_out(rng.standard_normal((k * k, m)))),
                "sample_rows": rng.integers(0, n, m),
                "sample_cols": rng.integers(0, n, m)}
    return {}


@pytest.mark.parametrize("kind", sorted(JACOBIANS))
@given(data=st.data())
def test_reduced_model_block_round_trips(tmp_path_factory, swe_small, kind, data):
    model, _ = swe_small
    n = model.n
    k = data.draw(st.integers(1, 4))
    rng = _random(data.draw(st.integers(0, 2**32)))
    basis = PodBasis(u=data.draw(_laid_out(rng.standard_normal((n, k)))),
                     singulars=rng.standard_normal(k), k=k, gamma=1.0,
                     centered=data.draw(st.booleans()), mean=rng.standard_normal(n))
    stages = []
    for stage in model.stages:
        core = _random_core(rng, data.draw, k)
        parts = _random_parts(kind, rng, data.draw, n, k)
        stages.append(ReducedStage(
            name=data.draw(_names),
            fraction=data.draw(_floats),
            core=core,
            explicit_core=(_random_core(rng, data.draw, k)
                           if data.draw(st.booleans()) else None),
            jacobian=JACOBIANS[kind].from_parts(stage.op, basis, core, **parts),
        ))
    rm = ReducedModel(
        model_id=model.model_id, config_hash=model.config_hash,
        strategy=data.draw(_names), basis=basis, dt=data.draw(_floats),
        stages=stages, initial_reduced=rng.standard_normal(k),
        newton_tol=data.draw(_floats), newton_cap=data.draw(st.integers(0, 2**64 - 1)),
        offline_seconds=data.draw(_floats),
        m=data.draw(st.none() | st.integers(0, 2**63 - 1)), h=data.draw(_floats),
    )
    back = _round_trip(tmp_path_factory, artifact_io.save_reduced_model,
                       lambda p: artifact_io.load_reduced_model(p, model), rm)
    for name in ("model_id", "config_hash", "strategy", "dt", "newton_tol",
                 "newton_cap", "offline_seconds", "m", "h"):
        assert getattr(back, name) == getattr(rm, name), name
    assert np.array_equal(back.initial_reduced, rm.initial_reduced)
    _assert_fields_equal(back.basis, rm.basis)
    for got, st_orig in zip(back.stages, rm.stages, strict=True):
        assert (got.name, got.fraction) == (st_orig.name, st_orig.fraction)
        _assert_fields_equal(got.core, st_orig.core)
        if st_orig.explicit_core is None:
            assert got.explicit_core is None
        else:
            _assert_fields_equal(got.explicit_core, st_orig.explicit_core)
        assert got.jacobian.kind == kind
        orig_parts = st_orig.jacobian.parts()
        assert got.jacobian.parts().keys() == orig_parts.keys()
        for name, value in orig_parts.items():
            if isinstance(value, np.ndarray):
                _assert_same_array(got.jacobian.parts()[name], value, name)
            else:
                assert got.jacobian.parts()[name] == value, name
