"""Binary persistence for snapshots, bases, interpolants and reduced models.

One file format serves all artifacts: a snapshot body (magic "SMDM",
format version, model identity, dimensions, pattern coordinates, and the
three value blocks) followed by zero or more tagged blocks, each framed as
a 4-byte ASCII tag plus a u64 payload length.  Everything is little-endian;
floats are 64-bit; matrices are stored column-major.

Block tags:

* "PODB" - a basis (spectrum, mean, retained modes).
* "DEIM" - an interpolant (indexes as u64, basis/projector as f64 blocks).
* "MINT" - a matrix interpolant (mode tag, pattern, nested DEIM payload,
  sample coordinates, training spectrum), prefixed by its stage index.
* "REDM" - a reduced model (basis plus per-stage cores and the strategy
  payload); loading rebinds it to a freshly built full model after checking
  the stored model identity.
* "TRAJ" - a full-order trajectory with its mean Newton iteration count.
"""

import io as _io
import struct
from pathlib import Path

import numpy as np

from .deim import DeimInterpolant
from .jacobian_approx import MatrixInterpolant
from .pod import PodBasis
from .rom import (
    DeimFunctionJacobian,
    DirectProjectionJacobian,
    DirectionalDerivativeJacobian,
    MatrixInterpolantJacobian,
    ReducedModel,
    ReducedStage,
    TensorCore,
    TensorialJacobian,
)
from .snapshots import SnapshotSet, SparsityPattern

__all__ = [
    "FormatError",
    "save_snapshots",
    "load_snapshots",
    "append_block",
    "read_blocks",
    "pod_block",
    "parse_pod_block",
    "deim_block",
    "parse_deim_block",
    "mint_block",
    "parse_mint_block",
    "redm_block",
    "traj_block",
    "parse_traj_block",
    "save_pod_basis",
    "load_pod_basis",
    "load_interpolant",
    "load_trajectory",
    "save_reduced_model",
    "load_reduced_model",
]

MAGIC = b"SMDM"
FORMAT_VERSION = 1

TAG_POD = "PODB"
TAG_DEIM = "DEIM"
TAG_MINT = "MINT"
TAG_REDM = "REDM"
TAG_TRAJ = "TRAJ"


class FormatError(ValueError):
    """The file does not conform to the artifact format."""


# -- raw writers --------------------------------------------------------


def _put_u32(f, v):
    f.write(struct.pack("<I", int(v)))


def _put_u64(f, v):
    f.write(struct.pack("<Q", int(v)))


def _put_i64(f, v):
    f.write(struct.pack("<q", int(v)))


def _put_f64(f, v):
    f.write(struct.pack("<d", float(v)))


def _put_str(f, s):
    raw = s.encode("utf-8")
    _put_u32(f, len(raw))
    f.write(raw)


def _put_f64_block(f, a):
    f.write(np.asarray(a, dtype="<f8").tobytes(order="F"))


def _put_u64_block(f, a):
    f.write(np.ascontiguousarray(a, dtype="<u8").tobytes())


class _Cursor:
    """Sequential reader over an in-memory buffer."""

    def __init__(self, buf, off=0):
        self.buf = buf
        self.off = off

    @property
    def remaining(self):
        return len(self.buf) - self.off

    def take(self, nbytes):
        if self.off + nbytes > len(self.buf):
            raise FormatError(
                f"truncated data: wanted {nbytes} bytes at offset {self.off}, "
                f"have {len(self.buf) - self.off}"
            )
        piece = self.buf[self.off : self.off + nbytes]
        self.off += nbytes
        return piece

    def u32(self):
        return struct.unpack("<I", self.take(4))[0]

    def u64(self):
        return struct.unpack("<Q", self.take(8))[0]

    def i64(self):
        return struct.unpack("<q", self.take(8))[0]

    def f64(self):
        return struct.unpack("<d", self.take(8))[0]

    def text(self):
        return bytes(self.take(self.u32())).decode("utf-8")

    def f64_block(self, shape):
        count = 1
        for dim in shape:
            count *= int(dim)
        raw = self.take(8 * count)
        return np.frombuffer(raw, dtype="<f8").reshape(shape, order="F").copy()

    def u64_block(self, count):
        raw = self.take(8 * int(count))
        return np.frombuffer(raw, dtype="<u8").astype(np.int64)


# -- snapshot body -------------------------------------------------------


def save_snapshots(path, snap):
    """Write one snapshot set to path as a fresh artifact file (no blocks)."""
    with open(path, "wb") as f:
        f.write(MAGIC)
        _put_u32(f, FORMAT_VERSION)
        _put_str(f, f"{snap.model_id};{snap.config_hash};{snap.stage}")
        _put_u64(f, snap.n)
        _put_u64(f, snap.n_cols)
        _put_u64(f, snap.pattern.r)
        _put_f64(f, snap.dt)
        coords = np.empty((snap.pattern.r, 2), dtype="<u8")
        coords[:, 0] = snap.pattern.rows
        coords[:, 1] = snap.pattern.cols
        f.write(coords.tobytes(order="C"))
        _put_f64_block(f, snap.states)
        _put_f64_block(f, snap.nonlinear)
        _put_f64_block(f, snap.jacobian)


def _read_body(cur):
    if bytes(cur.take(4)) != MAGIC:
        raise FormatError("bad magic; not an artifact file")
    version = cur.u32()
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported format version {version}")
    ident = cur.text()
    parts = ident.split(";")
    model_id = parts[0]
    config_hash = parts[1] if len(parts) > 1 else ""
    stage = parts[2] if len(parts) > 2 else ""
    n = cur.u64()
    n_cols = cur.u64()
    r = cur.u64()
    dt = cur.f64()
    coords = cur.u64_block(2 * r).reshape(r, 2)
    pattern = SparsityPattern(n=int(n), rows=coords[:, 0], cols=coords[:, 1])
    states = cur.f64_block((n, n_cols))
    nonlinear = cur.f64_block((n, n_cols))
    jacobian = cur.f64_block((r, n_cols))
    return SnapshotSet(
        model_id=model_id,
        config_hash=config_hash,
        stage=stage,
        dt=dt,
        pattern=pattern,
        states=states,
        nonlinear=nonlinear,
        jacobian=jacobian,
        meta={},
    )


def _read_file(path):
    buf = memoryview(Path(path).read_bytes())
    cur = _Cursor(buf)
    snap = _read_body(cur)
    blocks = []
    while cur.remaining:
        if cur.remaining < 12:
            raise FormatError(f"truncated block frame at offset {cur.off}")
        tag = bytes(cur.take(4)).decode("ascii")
        length = cur.u64()
        blocks.append((tag, cur.take(length)))
    return snap, blocks


def load_snapshots(path):
    """Read the snapshot body of an artifact file."""
    snap, _ = _read_file(path)
    return snap


def append_block(path, tag, payload):
    """Append one tagged block to an existing artifact file."""
    raw = tag.encode("ascii")
    if len(raw) != 4:
        raise ValueError(f"tag must be 4 ASCII characters, got {tag!r}")
    with open(path, "ab") as f:
        f.write(raw)
        _put_u64(f, len(payload))
        f.write(payload)


def read_blocks(path):
    """All (tag, payload) blocks of an artifact file, in file order.

    Payloads are read-only memoryviews into one buffer holding the file.
    """
    _, blocks = _read_file(path)
    return blocks


def _last_block(path, tag, blocks=None):
    if blocks is None:
        blocks = read_blocks(path)
    payloads = [p for t, p in blocks if t == tag]
    if not payloads:
        raise FormatError(f"no {tag!r} block in {path}")
    return payloads[-1]


# -- block payloads ------------------------------------------------------


def pod_block(basis):
    f = _io.BytesIO()
    n, k = basis.u.shape
    _put_u64(f, n)
    _put_u64(f, k)
    _put_u64(f, basis.singulars.size)
    _put_f64(f, basis.gamma)
    _put_u32(f, 1 if basis.centered else 0)
    _put_f64_block(f, basis.mean)
    _put_f64_block(f, basis.u)
    _put_f64_block(f, basis.singulars)
    return f.getvalue()


def parse_pod_block(payload):
    cur = _Cursor(payload)
    n = cur.u64()
    k = cur.u64()
    n_sing = cur.u64()
    gamma = cur.f64()
    centered = bool(cur.u32())
    mean = cur.f64_block((n,))
    u = cur.f64_block((n, k))
    singulars = cur.f64_block((n_sing,))
    return PodBasis(
        u=u, singulars=singulars, k=int(k), gamma=gamma,
        centered=centered, mean=mean,
    )


def deim_block(interp):
    f = _io.BytesIO()
    _put_u64(f, interp.d)
    _put_u64(f, interp.m)
    _put_u64_block(f, interp.indexes)
    _put_f64_block(f, interp.basis)
    _put_f64_block(f, interp.projector)
    _put_f64(f, interp.inv_norm)
    return f.getvalue()


def parse_deim_block(payload):
    cur = _Cursor(payload)
    d = cur.u64()
    m = cur.u64()
    indexes = cur.u64_block(m)
    basis = cur.f64_block((d, m))
    projector = cur.f64_block((d, m))
    inv_norm = cur.f64()
    return DeimInterpolant(
        basis=basis, indexes=indexes, projector=projector, inv_norm=inv_norm
    )


def mint_block(mi, stage=0):
    f = _io.BytesIO()
    _put_u64(f, stage)
    _put_str(f, mi.mode)
    _put_u64(f, mi.pattern.n)
    _put_u64(f, mi.pattern.r)
    coords = np.empty((mi.pattern.r, 2), dtype="<u8")
    coords[:, 0] = mi.pattern.rows
    coords[:, 1] = mi.pattern.cols
    f.write(coords.tobytes(order="C"))
    nested = deim_block(mi.interp)
    _put_u64(f, len(nested))
    f.write(nested)
    _put_u64(f, mi.m)
    _put_u64_block(f, mi.sample_rows)
    _put_u64_block(f, mi.sample_cols)
    _put_u64(f, mi.singulars.size)
    _put_f64_block(f, mi.singulars)
    return f.getvalue()


def parse_mint_block(payload):
    """Returns (stage, MatrixInterpolant)."""
    cur = _Cursor(payload)
    stage = int(cur.u64())
    mode = cur.text()
    n = cur.u64()
    r = cur.u64()
    coords = cur.u64_block(2 * r).reshape(r, 2)
    pattern = SparsityPattern(n=int(n), rows=coords[:, 0], cols=coords[:, 1])
    interp = parse_deim_block(cur.take(cur.u64()))
    m = cur.u64()
    sample_rows = cur.u64_block(m)
    sample_cols = cur.u64_block(m)
    n_sing = cur.u64()
    singulars = cur.f64_block((n_sing,))
    return stage, MatrixInterpolant(
        mode=mode,
        pattern=pattern,
        interp=interp,
        sample_rows=sample_rows,
        sample_cols=sample_cols,
        singulars=singulars,
    )


def _put_core(f, core):
    _put_f64_block(f, core.const)
    _put_f64_block(f, core.lin)
    _put_f64_block(f, core.quad)


def _take_core(cur, k):
    const = cur.f64_block((k,))
    lin = cur.f64_block((k, k))
    quad = cur.f64_block((k, k, k))
    return TensorCore(const=const, lin=lin, quad=quad)


def redm_block(rm):
    f = _io.BytesIO()
    _put_str(f, rm.model_id)
    _put_str(f, rm.config_hash)
    _put_str(f, rm.strategy)
    _put_f64(f, rm.dt)
    k = rm.k
    _put_u64(f, k)
    _put_f64(f, rm.newton_tol)
    _put_u64(f, rm.newton_cap)
    _put_f64(f, rm.offline_seconds)
    m_meta = rm.meta.get("m")
    _put_i64(f, -1 if m_meta is None else m_meta)
    _put_f64(f, rm.meta.get("h", 0.01))
    pod = pod_block(rm.basis)
    _put_u64(f, len(pod))
    f.write(pod)
    _put_f64_block(f, rm.initial_reduced)
    _put_u64(f, len(rm.stages))
    for st in rm.stages:
        _put_str(f, st.name)
        _put_f64(f, st.fraction)
        _put_core(f, st.core)
        _put_u32(f, 1 if st.explicit_core is not None else 0)
        if st.explicit_core is not None:
            _put_core(f, st.explicit_core)
        jac = st.jacobian
        if isinstance(jac, TensorialJacobian):
            _put_str(f, "tensorial")
        elif isinstance(jac, DirectProjectionJacobian):
            _put_str(f, "direct-projection")
        elif isinstance(jac, DirectionalDerivativeJacobian):
            _put_str(f, "directional-derivative")
            _put_f64(f, jac.h)
        elif isinstance(jac, DeimFunctionJacobian):
            _put_str(f, "deim")
            m = jac.indexes.size
            _put_u64(f, m)
            _put_u64_block(f, jac.indexes)
            _put_f64_block(f, jac.left)
            _put_f64_block(f, jac.lin_reduced)
        elif isinstance(jac, MatrixInterpolantJacobian):
            _put_str(f, "matrix")
            m = jac.reducer.shape[1]
            _put_u64(f, m)
            _put_f64_block(f, jac.reducer)
            _put_u64_block(f, jac.sample_rows)
            _put_u64_block(f, jac.sample_cols)
        else:
            raise TypeError(f"cannot persist jacobian strategy {type(jac).__name__}")
    return f.getvalue()


def _parse_redm(payload, model):
    cur = _Cursor(payload)
    model_id = cur.text()
    config_hash = cur.text()
    strategy = cur.text()
    dt = cur.f64()
    k = int(cur.u64())
    newton_tol = cur.f64()
    newton_cap = int(cur.u64())
    offline_seconds = cur.f64()
    m_meta = cur.i64()
    h_meta = cur.f64()
    basis = parse_pod_block(cur.take(cur.u64()))
    initial_reduced = cur.f64_block((k,))
    n_stages = int(cur.u64())
    if model.model_id != model_id or model.config_hash != config_hash:
        raise FormatError(
            f"artifact was built for {model_id};{config_hash}, the supplied "
            f"model is {model.model_id};{model.config_hash}"
        )
    if len(model.stages) != n_stages:
        raise FormatError(
            f"artifact stores {n_stages} stages, model has {len(model.stages)}"
        )
    stages = []
    for j in range(n_stages):
        name = cur.text()
        fraction = cur.f64()
        core = _take_core(cur, k)
        explicit = _take_core(cur, k) if cur.u32() else None
        kind = cur.text()
        op = model.stages[j].op
        if kind == "tensorial":
            jac = TensorialJacobian(core)
        elif kind == "direct-projection":
            jac = DirectProjectionJacobian(op, basis.u)
        elif kind == "directional-derivative":
            jac = DirectionalDerivativeJacobian(op, basis.u, h=cur.f64())
        elif kind == "deim":
            m = cur.u64()
            indexes = cur.u64_block(m)
            left = cur.f64_block((k, m))
            lin_reduced = cur.f64_block((k, k))
            jac = DeimFunctionJacobian.from_parts(
                op, basis, indexes, left, lin_reduced
            )
        elif kind == "matrix":
            m = cur.u64()
            reducer = cur.f64_block((k * k, m))
            sample_rows = cur.u64_block(m)
            sample_cols = cur.u64_block(m)
            jac = MatrixInterpolantJacobian.from_parts(
                op, basis, reducer, sample_rows, sample_cols
            )
        else:
            raise FormatError(f"unknown jacobian payload kind {kind!r}")
        stages.append(
            ReducedStage(
                name=name,
                fraction=fraction,
                core=core,
                explicit_core=explicit,
                jacobian=jac,
            )
        )
    return ReducedModel(
        model_id=model_id,
        config_hash=config_hash,
        strategy=strategy,
        basis=basis,
        dt=dt,
        stages=stages,
        initial_reduced=initial_reduced,
        newton_tol=newton_tol,
        newton_cap=newton_cap,
        offline_seconds=offline_seconds,
        meta={"m": None if m_meta < 0 else int(m_meta), "h": h_meta},
    )


def traj_block(trajectory, mean_iters, solve_seconds=0.0):
    f = _io.BytesIO()
    n, n_t = trajectory.shape
    _put_u64(f, n)
    _put_u64(f, n_t)
    _put_f64(f, mean_iters)
    _put_f64(f, solve_seconds)
    _put_f64_block(f, trajectory)
    return f.getvalue()


def parse_traj_block(payload):
    """Returns (trajectory, mean_iters, solve_seconds)."""
    cur = _Cursor(payload)
    n = cur.u64()
    n_t = cur.u64()
    mean_iters = cur.f64()
    solve_seconds = cur.f64()
    trajectory = cur.f64_block((n, n_t))
    return trajectory, mean_iters, solve_seconds


# -- convenience wrappers -----------------------------------------------


def save_pod_basis(path, basis):
    append_block(path, TAG_POD, pod_block(basis))


def load_pod_basis(path):
    return parse_pod_block(_last_block(path, TAG_POD))


def load_interpolant(path, stage=0, blocks=None):
    """The matrix interpolant of one stage.  blocks, the file's
    read_blocks(path) result when the caller already holds it, saves
    reading the file again."""
    found = []
    for tag, payload in read_blocks(path) if blocks is None else blocks:
        if tag == TAG_MINT:
            got_stage, mi = parse_mint_block(payload)
            if got_stage == stage:
                return mi
            found.append(got_stage)
    raise FormatError(
        f"no matrix-interpolant block for stage {stage} in {path}"
        + (f" (stages present: {sorted(found)})" if found else "")
    )


def load_trajectory(path):
    return parse_traj_block(_last_block(path, TAG_TRAJ))


def save_reduced_model(path, rm):
    append_block(path, TAG_REDM, redm_block(rm))


def load_reduced_model(path, model, blocks=None):
    """Rebuild a persisted reduced model, rebinding operator references to
    the supplied full model (which must match the stored identity).  blocks
    is as in load_interpolant."""
    return _parse_redm(_last_block(path, TAG_REDM, blocks), model)
