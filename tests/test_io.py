"""Artifact container: bit-exact round trips, block framing, and the
diagnostic failure modes for corrupt or mismatched files.

Every round trip is checked with array_equal (no tolerance): the format
stores raw little-endian float64, so serialization must not perturb values.
"""

import tracemalloc

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
    """Every array that obj, a loader's result, holds."""
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, tuple):
        return [a for item in obj for a in _arrays(item)]
    if hasattr(obj, "__dict__"):
        return [a for item in vars(obj).values() for a in _arrays(item)]
    return []


@pytest.mark.parametrize("block", ["trajectory", "pod", "mint", "deim"])
def test_loaders_hold_each_byte_once(tmp_path, swe_run, swe_basis, block):
    # every array is read straight into a buffer in its built order, which
    # the loader returns
    snap = swe_run.snaps[0]
    if block == "trajectory":
        built, load = swe_run.trajectory, artifact_io.load_trajectory
        tag, payload = artifact_io.TAG_TRAJ, artifact_io.traj_block(built, 2.5)
    elif block == "pod":
        built, load = swe_basis, artifact_io.load_pod_basis
        tag, payload = artifact_io.TAG_POD, artifact_io.pod_block(built)
    else:
        built = (build_smdeim(snap, 30) if block == "mint"
                 else deim_interpolant(thin_svd(snap.nonlinear).u, 30))
        load = artifact_io.load_interpolant
        tag, payload = artifact_io.interpolant_block(built, 0)
    path = _block_file(tmp_path / "art.bin", tag, payload)
    got, peak = _traced_peak(lambda: load(path))
    assert peak <= 1.1 * sum(a.nbytes for a in _arrays(got))
    if block == "trajectory":
        _assert_same_array(got[0], built, block)
    else:
        _assert_fields_equal(got, built)


def test_save_snapshots_holds_no_copy_of_a_block(tmp_path, swe_run):
    # each contiguous array is written from its own buffer, so the
    # writer holds no copy of the Jacobian block, the largest
    built = swe_run.snaps[0]
    path = tmp_path / "snap.bin"
    tracemalloc.start()
    try:
        artifact_io.save_snapshots(path, built)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.1 * built.jacobian.nbytes
    assert np.array_equal(artifact_io.load_snapshots(path).jacobian, built.jacobian)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(artifact_io.FormatError) as err:
        artifact_io.load_snapshots(path)
    assert "magic" in str(err.value)


def test_unsupported_version_rejected(tmp_path, setup):
    # 1 and 2 are the versions of earlier layouts: in 1 the snapshot body
    # came before any block, and 2 stored every array column-major with no
    # order flag
    _, _, snaps, _ = setup
    path = tmp_path / "snap.bin"
    artifact_io.save_snapshots(path, snaps[0])
    raw = bytearray(path.read_bytes())
    loaders = (artifact_io.load_snapshots, artifact_io.read_blocks,
               artifact_io.load_trajectory, artifact_io.load_pod_basis,
               artifact_io.load_interpolant,
               lambda p: artifact_io.load_reduced_model(p, None))
    for version in (1, 2, 99):
        raw[4] = version  # format version field
        path.write_bytes(bytes(raw))
        for load in loaders:
            with pytest.raises(artifact_io.FormatError) as err:
                load(path)
            assert str(err.value).startswith(f"{path}: ")
            assert f"format version {version};" in str(err.value)


def test_every_file_is_the_header_then_blocks(tmp_path, setup):
    model, _, snaps, basis = setup
    header = artifact_io.MAGIC + (3).to_bytes(4, "little")
    assert artifact_io.FORMAT_VERSION == 3
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
    payload = artifact_io.redm_block(rm)
    assert rom_path.read_bytes() == (
        header + b"REDM" + len(payload).to_bytes(8, "little") + payload
    )
    assert [t for t, _ in artifact_io.read_blocks(rom_path)] == ["REDM"]


def test_bad_order_flag_rejected_naming_file_and_offset(tmp_path):
    payload = artifact_io.traj_block(np.ones((3, 4)), 2.0)
    at = 8 + 12 + 4 * 8  # header, frame, then n, n_t, mean_iters, solve_seconds
    path = _block_file(tmp_path / "art.bin", artifact_io.TAG_TRAJ, payload)
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


def test_block_framing_appends_in_order(tmp_path, setup):
    _, _, snaps, _ = setup
    path = tmp_path / "art.bin"
    artifact_io.save_snapshots(path, snaps[0])
    artifact_io.append_block(path, "AAAA", b"first")
    artifact_io.append_block(path, "BBBB", b"second")
    artifact_io.append_block(path, "AAAA", b"third")
    assert artifact_io.read_blocks(path)[1:] == [
        ("AAAA", b"first"), ("BBBB", b"second"), ("AAAA", b"third"),
    ]
    assert artifact_io.read_blocks(path)[0][0] == artifact_io.TAG_SNAP
    with pytest.raises(ValueError):
        artifact_io.append_block(path, "TOOLONG", b"")


def test_read_blocks_holds_one_copy_of_the_file(tmp_path, setup):
    # each payload is read once into its own buffer, and nothing holds the
    # whole file besides
    _, _, snaps, _ = setup
    path = tmp_path / "art.bin"
    artifact_io.save_snapshots(path, snaps[0])
    for tag in ("AAAA", "BBBB"):
        artifact_io.append_block(path, tag, bytes(1 << 20))
    size = path.stat().st_size
    tracemalloc.start()
    try:
        blocks = artifact_io.read_blocks(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [(t, bytes(p)) for t, p in blocks[-2:]] == [
        ("AAAA", bytes(1 << 20)), ("BBBB", bytes(1 << 20)),
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
    artifact_io.append_block(path, *artifact_io.interpolant_block(interp, 0))
    back = artifact_io.load_interpolant(path, 0)
    # each in the layout deim_interpolant builds it in
    assert back.projector.flags.f_contiguous and back.basis.flags.c_contiguous
    assert np.array_equal(back.basis, interp.basis)
    assert np.array_equal(back.indexes, interp.indexes)
    assert np.array_equal(back.projector, interp.projector)
    assert back.inv_norm == interp.inv_norm


@pytest.mark.parametrize("route", ["sparse", "vectorized"])
def test_interpolant_block_round_trip(tmp_path, setup, route):
    _, _, snaps, _ = setup
    mi = (
        build_smdeim(snaps[0], 6)
        if route == "sparse"
        else build_mdeim_reference(snaps[0], 6)
    )
    path = tmp_path / "art.bin"
    artifact_io.save_snapshots(path, snaps[0])
    artifact_io.append_block(path, *artifact_io.interpolant_block(mi, 0))
    back = artifact_io.load_interpolant(path, stage=0)
    assert back.mode == mi.mode
    assert back.pattern == mi.pattern
    assert np.array_equal(back.sample_rows, mi.sample_rows)
    assert np.array_equal(back.sample_cols, mi.sample_cols)
    assert np.array_equal(back.interp.projector, mi.interp.projector)
    assert np.array_equal(back.singulars, mi.singulars)
    with pytest.raises(artifact_io.FormatError):
        artifact_io.load_interpolant(path, stage=1)


@pytest.mark.parametrize("kind", ["deim", "smdeim"])
def test_missing_interpolant_stage_lists_the_stages_present(tmp_path, setup, kind):
    _, _, snaps, _ = setup
    if kind == "deim":
        interp = deim_interpolant(thin_svd(snaps[0].nonlinear).u, 6)
    else:
        interp = build_smdeim(snaps[0], 6)
    path = tmp_path / "art.bin"
    _artifact_with_blocks(path, snaps[0], artifact_io.interpolant_block(interp, 2),
                          artifact_io.interpolant_block(interp, 0))
    assert [t for t, _ in artifact_io.read_blocks(path)][1:] == (
        [artifact_io.TAG_DEIM if kind == "deim" else artifact_io.TAG_MINT] * 2
    )
    with pytest.raises(artifact_io.FormatError) as err:
        artifact_io.load_interpolant(path, stage=1)
    assert str(err.value) == (f"{path}: no 'DEIM' or 'MINT' block for stage 1 "
                              "(stages present: [0, 2])")
    assert type(artifact_io.load_interpolant(path, stage=2)) is type(interp)


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
    blocks = [artifact_io.interpolant_block(mis[1], 1),
              (artifact_io.TAG_POD, artifact_io.pod_block(basis)),
              artifact_io.interpolant_block(mis[0], 0),
              (artifact_io.TAG_REDM, artifact_io.redm_block(rm))]
    _artifact_with_blocks(path, snaps[0], *blocks)
    file_reads.clear()
    frames = 8 + 12 * (1 + len(blocks))  # the header and every frame header
    back = artifact_io.load_reduced_model(path, model)
    assert np.array_equal(rom_solve(back, 21)[0], rom_solve(rm, 21)[0])
    assert file_reads.total == frames + len(blocks[3][1])
    file_reads.clear()
    back_mi = artifact_io.load_interpolant(path, stage=0)
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
        artifact_io.append_block(path, *artifact_io.interpolant_block(interp, stage))
    artifact_io.save_reduced_model(path, rm)
    op = model.stages[0].op
    probes = [HeldoutProbe(op, basis, x) for x in snaps[0].states.T[1::4]]
    built = heldout_errors(rm, probes, interps[0], sv_probes=2)
    loaded = heldout_errors(artifact_io.load_reduced_model(path, model), probes,
                            artifact_io.load_interpolant(path), sv_probes=2)
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
    artifact_io.append_block(
        path, artifact_io.TAG_TRAJ, artifact_io.traj_block(traj, 3.25, 0.125)
    )
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


def _artifact_with_blocks(path, snap, *blocks):
    artifact_io.save_snapshots(path, snap)
    for tag, payload in blocks:
        artifact_io.append_block(path, tag, payload)


def test_load_trajectory_reads_only_its_block(tmp_path, setup, file_reads, rng):
    _, _, snaps, _ = setup
    path = tmp_path / "art.bin"
    traj = rng.standard_normal((5, 9))
    payload = artifact_io.traj_block(traj, 3.25, 0.125)
    earlier = artifact_io.traj_block(traj + 1.0, 1.0)
    _artifact_with_blocks(path, snaps[0], (artifact_io.TAG_TRAJ, earlier),
                          ("AAAA", bytes(1 << 16)), (artifact_io.TAG_TRAJ, payload),
                          ("BBBB", bytes(1 << 16)))
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
    payload = artifact_io.traj_block(np.ones((3, 4)), 2.0)
    _artifact_with_blocks(path, snaps[0], (artifact_io.TAG_TRAJ, payload))
    whole = path.read_bytes()
    for cut in (len(payload) // 2, len(payload) + 6):  # in the payload, the frame
        path.write_bytes(whole[:-cut])
        with pytest.raises(artifact_io.FormatError) as err:
            artifact_io.load_trajectory(path)
        assert "truncated" in str(err.value)
        assert str(err.value).startswith(f"{path}: ")


# -- FormatError paths of the REDM block ----------------------------------


def _block_file(path, tag, payload):
    """path rewritten as the bare header and one tag block of payload."""
    path.unlink(missing_ok=True)
    artifact_io.append_block(path, tag, payload)
    return path


def _redm_file(path, payload):
    return _block_file(path, artifact_io.TAG_REDM, payload)


def test_reduced_model_unknown_jacobian_kind(tmp_path, setup):
    model, _, snaps, basis = setup
    rm = reduce_model(model, basis, "smdeim", snapshots=snaps, m=6)
    payload = artifact_io.redm_block(rm)
    kind = b"\x06\x00\x00\x00matrix"
    assert payload.count(kind) == 1
    bad = payload.replace(kind, b"\x06\x00\x00\x00matrox")
    path = _redm_file(tmp_path / "art.bin", bad)
    with pytest.raises(artifact_io.FormatError) as err:
        artifact_io.load_reduced_model(path, model)
    assert "matrox" in str(err.value)
    assert str(err.value).startswith(f"{path}: ")


def test_reduced_model_stage_count_mismatch(tmp_path, swe_small):
    model, basis = swe_small
    rm = reduce_model(model, basis, "tensorial")
    rm.stages = rm.stages[:1]
    path = _redm_file(tmp_path / "art.bin", artifact_io.redm_block(rm))
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
        payload = artifact_io.redm_block(rm)
        whole = _redm_file(path, payload).read_bytes()
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
def _deim_interpolants(draw):
    d = draw(st.integers(1, 6))
    m = draw(st.integers(1, 4))
    rng = _random(draw(st.integers(0, 2**32)))
    return DeimInterpolant(
        basis=draw(_laid_out(rng.standard_normal((d, m)))),
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
    payload = artifact_io.pod_block(basis)
    path = tmp_path_factory.getbasetemp() / "pod.bin"
    back = artifact_io.load_pod_basis(_block_file(path, artifact_io.TAG_POD, payload))
    _assert_fields_equal(back, basis)
    assert artifact_io.pod_block(back) == payload


@given(interp=_deim_interpolants(), stage=st.integers(0, 2**64 - 1))
def test_deim_block_round_trips(tmp_path_factory, interp, stage):
    block = artifact_io.interpolant_block(interp, stage)
    path = _block_file(tmp_path_factory.getbasetemp() / "deim.bin", *block)
    back = artifact_io.load_interpolant(path, stage)
    _assert_fields_equal(back, interp)
    assert artifact_io.interpolant_block(back, stage) == block


@given(mode=st.sampled_from(["sparse", "vectorized"]), n=st.integers(1, 5),
       interp=_deim_interpolants(), stage=st.integers(0, 2**64 - 1), data=st.data())
def test_mint_block_round_trips(tmp_path_factory, mode, n, interp, stage, data):
    rng = _random(data.draw(st.integers(0, 2**32)))
    mi = MatrixInterpolant(
        mode=mode,
        pattern=data.draw(_patterns(n)),
        interp=interp,
        sample_rows=rng.integers(0, n, interp.m),
        sample_cols=rng.integers(0, n, interp.m),
        singulars=rng.standard_normal(data.draw(st.integers(0, 8))),
    )
    block = artifact_io.interpolant_block(mi, stage)
    path = _block_file(tmp_path_factory.getbasetemp() / "mint.bin", *block)
    back = artifact_io.load_interpolant(path, stage)
    _assert_fields_equal(back, mi)
    assert artifact_io.interpolant_block(back, stage) == block


@given(n=st.integers(1, 6), n_t=st.integers(0, 5), mean_iters=_floats,
       seconds=_floats, seed=st.integers(0, 2**32), data=st.data())
def test_traj_block_round_trips(tmp_path_factory, n, n_t, mean_iters, seconds, seed,
                                data):
    traj = data.draw(_laid_out(_random(seed).standard_normal((n, n_t))))
    payload = artifact_io.traj_block(traj, mean_iters, seconds)
    path = tmp_path_factory.getbasetemp() / "traj.bin"
    _block_file(path, artifact_io.TAG_TRAJ, payload)
    back, back_iters, back_seconds = artifact_io.load_trajectory(path)
    _assert_same_array(back, traj, "trajectory")
    assert (back_iters, back_seconds) == (mean_iters, seconds)
    assert artifact_io.traj_block(back, back_iters, back_seconds) == payload


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
    payload = artifact_io.redm_block(rm)
    path = _redm_file(tmp_path_factory.getbasetemp() / f"redm-{kind}.bin", payload)
    back = artifact_io.load_reduced_model(path, model)
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
    assert artifact_io.redm_block(back) == payload
