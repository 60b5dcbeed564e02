"""Artifact container: bit-exact round trips, block framing, and the
diagnostic failure modes for corrupt or mismatched files.

Every round trip is checked with array_equal (no tolerance): the format
stores raw little-endian float64, so serialization must not perturb values.
"""

import tracemalloc

import numpy as np
import pytest

from smdeim_rom import io as artifact_io
from smdeim_rom.deim import deim_interpolant
from smdeim_rom.jacobian_approx import build_mdeim_reference, build_smdeim
from smdeim_rom.linalg import thin_svd
from smdeim_rom.models import full_solve
from smdeim_rom.models.burgers import build_burgers
from smdeim_rom.pod import pod_basis
from smdeim_rom.rom import reduce_model, rom_solve


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


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(artifact_io.FormatError) as err:
        artifact_io.load_snapshots(path)
    assert "magic" in str(err.value)


def test_unsupported_version_rejected(tmp_path, setup):
    _, _, snaps, _ = setup
    path = tmp_path / "snap.bin"
    artifact_io.save_snapshots(path, snaps[0])
    raw = bytearray(path.read_bytes())
    raw[4] = 99  # format version field
    path.write_bytes(bytes(raw))
    with pytest.raises(artifact_io.FormatError) as err:
        artifact_io.load_snapshots(path)
    assert "version" in str(err.value)


def test_truncation_rejected(tmp_path, setup):
    _, _, snaps, _ = setup
    path = tmp_path / "snap.bin"
    artifact_io.save_snapshots(path, snaps[0])
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(artifact_io.FormatError) as err:
        artifact_io.load_snapshots(path)
    assert "truncated" in str(err.value)


def test_block_framing_appends_in_order(tmp_path, setup):
    _, _, snaps, _ = setup
    path = tmp_path / "art.bin"
    artifact_io.save_snapshots(path, snaps[0])
    artifact_io.append_block(path, "AAAA", b"first")
    artifact_io.append_block(path, "BBBB", b"second")
    artifact_io.append_block(path, "AAAA", b"third")
    assert artifact_io.read_blocks(path) == [
        ("AAAA", b"first"), ("BBBB", b"second"), ("AAAA", b"third"),
    ]
    with pytest.raises(ValueError):
        artifact_io.append_block(path, "TOOLONG", b"")


def test_read_blocks_holds_one_copy_of_the_file(tmp_path, setup):
    # payloads are views into the buffer read from disk, not copies of it
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


def test_deim_block_round_trip(rng):
    v = thin_svd(rng.standard_normal((25, 6))).u
    interp = deim_interpolant(v)
    back = artifact_io.parse_deim_block(artifact_io.deim_block(interp))
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
    artifact_io.append_block(path, artifact_io.TAG_MINT, artifact_io.mint_block(mi, stage=0))
    back = artifact_io.load_interpolant(path, stage=0)
    assert back.mode == mi.mode
    assert back.pattern == mi.pattern
    assert np.array_equal(back.sample_rows, mi.sample_rows)
    assert np.array_equal(back.sample_cols, mi.sample_cols)
    assert np.array_equal(back.interp.projector, mi.interp.projector)
    assert np.array_equal(back.singulars, mi.singulars)
    with pytest.raises(artifact_io.FormatError):
        artifact_io.load_interpolant(path, stage=1)


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


def test_loaders_parse_given_blocks_without_reading(tmp_path, setup):
    model, _, snaps, basis = setup
    mi = build_smdeim(snaps[0], 6)
    rm = reduce_model(model, basis, "smdeim", prebuilt={0: mi}, snapshots=snaps, m=6)
    path = tmp_path / "art.bin"
    artifact_io.save_snapshots(path, snaps[0])
    artifact_io.append_block(path, artifact_io.TAG_MINT, artifact_io.mint_block(mi))
    artifact_io.save_reduced_model(path, rm)
    blocks = artifact_io.read_blocks(path)
    path.unlink()
    back = artifact_io.load_reduced_model(path, model, blocks=blocks)
    assert np.array_equal(rom_solve(back, 21)[0], rom_solve(rm, 21)[0])
    back_mi = artifact_io.load_interpolant(path, stage=0, blocks=blocks)
    assert np.array_equal(back_mi.interp.projector, mi.interp.projector)


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
