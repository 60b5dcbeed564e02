"""Binary persistence for snapshots, bases, interpolants and reduced models.

Every artifact file is a header (magic "SMDM", u32 format version) and zero
or more tagged blocks, each framed as a 4-byte ASCII tag plus a u64 payload
length; a snapshot set is one more block.  Everything is little-endian.

Every layout is a field list, declared once below: a tuple of (name, kind)
fields that _pack writes in order and _Cursor.fields reads back.  A kind is

* a scalar, "u32", "u64", "i64" or "f64";
* "str", a u32 byte count and the UTF-8 bytes;
* a nested field list, a u64 byte count and its payload;
* an array, ("f8" | "u8", *dims), of float64 or uint64 values: a one-byte
  order flag, "C" or "F", then the values in that order.  A dimension is an
  int, the name of an earlier field of the same list or of an enclosing one
  (the reader's scope), or a tuple of those, their product.

The writer takes each dimension field from the shapes of the arrays that
name it, and the reader returns every field but those (u8 arrays as int64),
so both handle the same mapping of names to values.  Each array is written
in its own memory order, C for one contiguous in neither, and read back in
the order its flag names, so a loaded object has the layout its builder
made and BLAS products with it round as on the built one.

Block tags: "SNAP" a snapshot set (_SNAP); "PODB" a basis (_POD); "DEIM"
the interpolant of one stage of a deim reduced model (_STAGE_DEIM: the
stage, then _DEIM); "MINT" a matrix interpolant (_MINT); "TRAJ" a
full-order trajectory with its mean Newton iteration count (_TRAJ); "REDM"
a reduced model: _REDM, then per stage _STAGE, the explicit core (_CORE)
when its flag is set, the Jacobian kind (_KIND) and that kind's _PARTS.
A block stores only what its loader reads: a MINT block keeps its stage
pattern's n and r, not the pattern, and a DEIM interpolant is its
projector.  Loading a reduced model or a MINT block rebinds it to a freshly
built full model (a MINT block to its stage's pattern) after checking that
it was built for it.

One writer, append_block, streams a block to the file, each contiguous
array from its own buffer, and patches each length in once its payload is
written.  Every reader walks the frame headers through one seeking cursor
over the open file and reads only the payloads it wants, each array of them
straight into a buffer of its own, which it returns: each side holds each
array byte once.  Every FormatError a loader raises names the file.
"""

import contextlib
import math
import os
import struct

import numpy as np

from .deim import DeimInterpolant
from .jacobian_approx import MatrixInterpolant
from .pod import PodBasis
from .rom import JACOBIANS, ReducedModel, ReducedStage, TensorCore
from .snapshots import SnapshotSet, SparsityPattern

__all__ = [
    "FormatError",
    "save_snapshots",
    "load_snapshots",
    "append_block",
    "read_blocks",
    "save_pod_basis",
    "load_pod_basis",
    "save_interpolant",
    "load_interpolant",
    "save_trajectory",
    "load_trajectory",
    "save_reduced_model",
    "load_reduced_model",
]

MAGIC = b"SMDM"
FORMAT_VERSION = 4

TAG_SNAP = "SNAP"
TAG_POD = "PODB"
TAG_DEIM = "DEIM"
TAG_MINT = "MINT"
TAG_REDM = "REDM"
TAG_TRAJ = "TRAJ"


class FormatError(ValueError):
    """The file does not conform to the artifact format."""


# -- field lists ---------------------------------------------------------

_SNAP = (
    ("ident", "str"),  # "model_id;config_hash;stage"
    ("n", "u64"), ("n_cols", "u64"), ("r", "u64"), ("dt", "f64"),
    ("coords", ("u8", 2, "r")),  # row and column of each pattern entry
    ("states", ("f8", "n", "n_cols")), ("nonlinear", ("f8", "n", "n_cols")),
    ("jacobian", ("f8", "r", "n_cols")),
)

_POD = (
    ("n", "u64"), ("k", "u64"), ("n_sing", "u64"),
    ("gamma", "f64"), ("centered", "u32"),
    ("mean", ("f8", "n")), ("u", ("f8", "n", "k")), ("singulars", ("f8", "n_sing")),
)

_DEIM = (
    ("d", "u64"), ("m", "u64"),
    ("indexes", ("u8", "m")), ("projector", ("f8", "d", "m")),
    ("inv_norm", "f64"),
)

_STAGE_DEIM = (("stage", "u64"), *_DEIM)

_MINT = (
    ("stage", "u64"), ("mode", "str"), ("n", "u64"), ("r", "u64"),
    ("interp", _DEIM),
    ("m", "u64"), ("sample_rows", ("u8", "m")), ("sample_cols", ("u8", "m")),
    ("n_sing", "u64"), ("singulars", ("f8", "n_sing")),
)

_TRAJ = (
    ("n", "u64"), ("n_t", "u64"), ("mean_iters", "f64"), ("solve_seconds", "f64"),
    ("trajectory", ("f8", "n", "n_t")),
)

_REDM = (
    ("model_id", "str"), ("config_hash", "str"), ("strategy", "str"),
    ("dt", "f64"), ("k", "u64"), ("newton_tol", "f64"), ("newton_cap", "u64"),
    ("offline_seconds", "f64"), ("m", "i64"), ("h", "f64"),  # m = -1: none
    ("basis", _POD),
    ("initial_reduced", ("f8", "k")),
    ("n_stages", "u64"),
)

# the stage lists below take the dimension k from the enclosing _REDM
_CORE = (
    ("const", ("f8", "k")), ("lin", ("f8", "k", "k")), ("quad", ("f8", "k", "k", "k")),
)

_STAGE = (("name", "str"), ("fraction", "f64"), *_CORE, ("explicit", "u32"))

_KIND = (("kind", "str"),)

# the fields of each Jacobian kind, as its parts() gives them
_PARTS = {
    "tensorial": (),
    "direct-projection": (),
    "directional-derivative": (("h", "f64"),),
    "deim": (
        ("m", "u64"), ("indexes", ("u8", "m")),
        ("left", ("f8", "k", "m")), ("lin_reduced", ("f8", "k", "k")),
    ),
    "matrix": (
        ("m", "u64"), ("reducer", ("f8", ("k", "k"), "m")),
        ("sample_rows", ("u8", "m")), ("sample_cols", ("u8", "m")),
    ),
}


# -- the codec -----------------------------------------------------------

_SCALARS = {
    kind: struct.Struct(fmt)
    for kind, fmt in (("u32", "<I"), ("u64", "<Q"), ("i64", "<q"), ("f64", "<d"))
}
_ARRAYS = {"f8": "<f8", "u8": "<u8"}
# what a reader returns: u8 arrays are indexes, below 2**63, read as int64
_LOADED = {"f8": "<f8", "u8": "<i8"}


def _extent(dim, scope):
    if isinstance(dim, str):
        return scope[dim]
    return math.prod(_extent(d, scope) for d in dim) if isinstance(dim, tuple) else dim


@contextlib.contextmanager
def _sized(out):
    """Write a u64 byte count to the seekable binary stream out, then what
    the with block writes there, and patch the count in once it is done."""
    at = out.tell()
    out.write(bytes(8))
    yield
    end = out.tell()
    out.seek(at)
    out.write(_SCALARS["u64"].pack(end - at - 8))
    out.seek(end)


def _pack(fields, values, out):
    """Write values, a mapping from field name to value, to the seekable
    binary stream out as the field list fields."""
    dims = {}
    for name, kind in fields:
        if kind[0] in _ARRAYS:
            for dim, size in zip(kind[1:], np.shape(values[name]), strict=True):
                if dims.setdefault(dim, size) != size:
                    raise ValueError(f"{name}: {dim} is {size}, elsewhere {dims[dim]}")
    for name, kind in fields:
        value = dims[name] if name in dims else values[name]
        if kind == "str":
            raw = value.encode("utf-8")
            out.write(_SCALARS["u32"].pack(len(raw)) + raw)
        elif isinstance(kind, str):
            cast = float if kind == "f64" else int
            out.write(_SCALARS[kind].pack(cast(value)))
        elif kind[0] in _ARRAYS:
            array = np.asarray(value, dtype=_ARRAYS[kind[0]])
            flags = array.flags
            order = "F" if flags.f_contiguous and not flags.c_contiguous else "C"
            out.write(order.encode("ascii"))
            out.write(array.ravel(order=order))  # a view, unless non-contiguous
        else:
            with _sized(out):
                _pack(kind, value, out)


class _Cursor:
    """Sequential reader over the bytes off to end of an open binary file;
    it reads only what it takes, and each array straight into the array's
    own buffer."""

    def __init__(self, f, off, end):
        self.f = f
        self.off = off
        self.end = end

    def skip(self, nbytes):
        """Move past nbytes; returns the offset they start at."""
        have = self.end - self.off
        if nbytes > have:
            raise FormatError(
                f"truncated data: wanted {nbytes} bytes at offset {self.off}, "
                f"have {have}"
            )
        self.off += nbytes
        return self.off - nbytes

    def take(self, nbytes):
        self.f.seek(self.skip(nbytes))
        return memoryview(self.f.read(nbytes))

    def sub(self, nbytes):
        """A cursor over the next nbytes, which this one moves past."""
        start = self.skip(nbytes)
        return _Cursor(self.f, start, self.off)

    def scalar(self, kind):
        return _SCALARS[kind].unpack(self.take(_SCALARS[kind].size))[0]

    def array(self, shape, code):
        """The next array of the given shape and kind code, read straight
        into a buffer of its own in the order its flag names."""
        flag = bytes(self.take(1))
        if flag not in (b"C", b"F"):
            raise FormatError(f"bad array order flag {flag!r} at offset {self.off - 1}")
        order = flag.decode("ascii")
        out = np.empty(shape, dtype=_LOADED[code], order=order)
        self.f.seek(self.skip(out.nbytes))
        got = self.f.readinto(out.reshape(-1, order=order))
        if got != out.nbytes:
            raise FormatError(f"truncated data: wanted {out.nbytes} bytes at "
                              f"offset {self.off - out.nbytes}, got {got}")
        return out

    def fields(self, fields, scope=None, only=None):
        """Read the field list fields, as _pack wrote it, into a mapping from
        field name to value, dimension fields left out.  scope maps the
        fields of an enclosing list to their values; only, when given, names
        the arrays to read, and the cursor moves past the others."""
        scope = dict(scope or {})
        dims = set()
        for name, kind in fields:
            if kind == "str":
                scope[name] = bytes(self.take(self.scalar("u32"))).decode("utf-8")
            elif isinstance(kind, str):
                scope[name] = self.scalar(kind)
            elif kind[0] in _ARRAYS:
                dims.update(kind[1:])
                shape = [_extent(dim, scope) for dim in kind[1:]]
                if only is None or name in only:
                    scope[name] = self.array(shape, kind[0])
                else:
                    self.skip(1 + 8 * math.prod(shape))
            else:
                scope[name] = self.sub(self.scalar("u64")).fields(kind)
        return {f: scope[f] for f, _ in fields if f in scope and f not in dims}


# -- header and block framing ---------------------------------------------

_HEADER = MAGIC + _SCALARS["u32"].pack(FORMAT_VERSION)


def append_block(path, tag, *lists):
    """Append one tagged block to the artifact file path, writing the
    header first when the file is absent or empty.  Its payload is lists,
    (field list, values) pairs, each streamed to the file by _pack in turn;
    the frame's length is patched in once they are written."""
    raw = tag.encode("ascii")
    if len(raw) != 4:
        raise ValueError(f"tag must be 4 ASCII characters, got {tag!r}")
    # not "ab": a file opened for appending writes at its end whatever seek says
    with os.fdopen(os.open(path, os.O_RDWR | os.O_CREAT, 0o666), "r+b") as f:
        if f.seek(0, os.SEEK_END) == 0:
            f.write(_HEADER)
        f.write(raw)
        with _sized(f):
            for fields, values in lists:
                _pack(fields, values, f)


def save_snapshots(path, snap):
    """Write one snapshot set to path as a fresh artifact file: the header
    and a SNAP block."""
    ident = f"{snap.model_id};{snap.config_hash};{snap.stage}"
    coords = np.stack((snap.pattern.rows, snap.pattern.cols))
    open(path, "wb").close()
    append_block(path, TAG_SNAP, (_SNAP, {**vars(snap), "ident": ident, "coords": coords}))


@contextlib.contextmanager
def _reading(path):
    """A _Cursor past the header of the artifact file path; a
    FormatError raised in the with block names the file."""
    try:
        with open(path, "rb") as f:
            cur = _Cursor(f, 0, os.fstat(f.fileno()).st_size)
            if bytes(cur.take(4)) != MAGIC:
                raise FormatError("bad magic; not an artifact file")
            if (version := cur.scalar("u32")) != FORMAT_VERSION:
                raise FormatError(f"unsupported format version {version}; "
                                  f"this build reads version {FORMAT_VERSION}")
            yield cur
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from None


def _frames(cur):
    """(tag, payload offset, payload length) of each block, in file order.
    At each step the cursor stands at the payload, which the caller may
    read or not; the walk goes on from the payload's end."""
    while cur.off < cur.end:
        tag = bytes(cur.take(4)).decode("ascii", "backslashreplace")
        length = cur.scalar("u64")
        start = cur.skip(length)
        cur.off = start
        yield tag, start, length
        cur.off = start + length


@contextlib.contextmanager
def _last_block(path, tag):
    """A _Cursor over the payload of the last tag block of the artifact
    file path, which the with block reads alone."""
    with _reading(path) as cur:
        spans = [(off, n) for got, off, n in _frames(cur) if got == tag]
        if not spans:
            raise FormatError(f"no {tag!r} block")
        cur.off, n = spans[-1]
        yield cur.sub(n)


def load_snapshots(path, arrays=None):
    """The snapshot set of an artifact file's SNAP block.

    With arrays, a tuple of names among "states", "nonlinear" and
    "jacobian", it returns just those arrays, in that order; of the payload
    it then reads only them and the scalars before them.
    """
    with _last_block(path, TAG_SNAP) as cur:
        snap = cur.fields(_SNAP, only=arrays)
    if arrays is not None:
        return tuple(snap[name] for name in arrays)
    ident = (snap.pop("ident").split(";") + ["", ""])[:3]
    rows, cols = snap.pop("coords")
    pattern = SparsityPattern(n=snap["states"].shape[0], rows=rows, cols=cols)
    return SnapshotSet(*ident, pattern=pattern, **snap)


def read_blocks(path):
    """All (tag, payload) blocks of an artifact file, in file order, each
    payload read alone into its own buffer."""
    with _reading(path) as cur:
        return [(tag, cur.take(n)) for tag, _, n in _frames(cur)]


# -- savers and loaders of the other blocks -------------------------------


def save_pod_basis(path, basis):
    append_block(path, TAG_POD, (_POD, vars(basis)))


def _pod_basis(fields):
    centered = bool(fields["centered"])
    return PodBasis(**{**fields, "centered": centered}, k=fields["u"].shape[1])


def load_pod_basis(path):
    with _last_block(path, TAG_POD) as cur:
        return _pod_basis(cur.fields(_POD))


def save_interpolant(path, interp, stage):
    """Append one stage's interpolant to path: a DEIM block for a
    DeimInterpolant, a MINT block for a MatrixInterpolant, which stores its
    pattern's n and r but not the pattern."""
    if isinstance(interp, DeimInterpolant):
        return append_block(path, TAG_DEIM, (_STAGE_DEIM, {**vars(interp), "stage": stage}))
    pattern = interp.pattern
    append_block(path, TAG_MINT, (_MINT, {**vars(interp), "stage": stage, "n": pattern.n,
                                          "r": pattern.r, "interp": vars(interp.interp)}))


def _matrix_interpolant(mi, model, stage):
    """The MatrixInterpolant of a MINT block's fields, bound to the pattern
    of the model's stage, on which it must have been built: its n and r, and
    the sample coordinates its indexes name there."""
    n, r, index = mi.pop("n"), mi.pop("r"), mi["interp"]["indexes"]
    pattern = model.stages[stage].op.pattern if stage < len(model.stages) else None
    sparse = mi["mode"] == "sparse"
    fits = pattern is not None and (n, r) == (pattern.n, pattern.r) and np.all(
        (index >= 0) & (index < (r if sparse else n * n)))
    if fits:
        want = (pattern.rows[index], pattern.cols[index]) if sparse else (index % n, index // n)
        fits = all(map(np.array_equal, (mi["sample_rows"], mi["sample_cols"]), want))
    if not fits:
        raise FormatError(f"stage {stage} interpolant (n={n}, r={r}) was not built "
                          f"on the model's stage {stage} pattern")
    return MatrixInterpolant(pattern=pattern, interp=DeimInterpolant(**mi.pop("interp")), **mi)


def load_interpolant(path, model, stage=0):
    """The interpolant of one stage of model: the MatrixInterpolant of a
    MINT block, bound to the stage's pattern, or the DeimInterpolant of a
    DEIM block, whichever the file holds.  Of the interpolant blocks before
    it, it reads only the stage, their first field."""
    found = []
    with _reading(path) as cur:
        for tag, _, n in _frames(cur):
            if tag not in (TAG_DEIM, TAG_MINT):
                continue
            block = cur.sub(n)
            found.append(block.scalar("u64"))
            if found[-1] != stage:
                continue
            if tag == TAG_DEIM:
                return DeimInterpolant(**block.fields(_DEIM))
            return _matrix_interpolant(block.fields(_MINT[1:]), model, stage)
        raise FormatError(f"no {TAG_DEIM!r} or {TAG_MINT!r} block for stage "
                          f"{stage} (stages present: {sorted(found)})")


def save_trajectory(path, trajectory, mean_iters, solve_seconds=0.0):
    append_block(path, TAG_TRAJ, (_TRAJ, {"trajectory": trajectory, "mean_iters": mean_iters,
                                          "solve_seconds": solve_seconds}))


def load_trajectory(path):
    """(trajectory, mean_iters, solve_seconds), read from the last TRAJ
    block alone."""
    with _last_block(path, TAG_TRAJ) as cur:
        traj = cur.fields(_TRAJ)
    return traj["trajectory"], traj["mean_iters"], traj["solve_seconds"]


def save_reduced_model(path, rm):
    lists = [(_REDM, {**vars(rm), "m": -1 if rm.m is None else rm.m,
                      "basis": vars(rm.basis), "n_stages": len(rm.stages)})]
    for st in rm.stages:
        explicit = st.explicit_core
        lists.append((_STAGE, {**vars(st.core), "name": st.name, "fraction": st.fraction,
                               "explicit": explicit is not None}))
        if explicit is not None:
            lists.append((_CORE, vars(explicit)))
        lists += [(_KIND, {"kind": st.jacobian.kind}),
                  (_PARTS[st.jacobian.kind], st.jacobian.parts())]
    append_block(path, TAG_REDM, *lists)


def _core(fields):
    return TensorCore(*(fields.pop(name) for name, _ in _CORE))


def load_reduced_model(path, model):
    """Rebuild a persisted reduced model from the last REDM block, rebinding
    operator references to the supplied full model (which must match the
    stored identity)."""
    with _last_block(path, TAG_REDM) as cur:
        rm = cur.fields(_REDM)
        if model.model_id != rm["model_id"] or model.config_hash != rm["config_hash"]:
            raise FormatError(
                f"artifact was built for {rm['model_id']};{rm['config_hash']}, the "
                f"supplied model is {model.model_id};{model.config_hash}"
            )
        n_stages = rm.pop("n_stages")
        if len(model.stages) != n_stages:
            raise FormatError(
                f"artifact stores {n_stages} stages, model has {len(model.stages)}"
            )
        rm["basis"] = basis = _pod_basis(rm["basis"])
        scope = {"k": rm["initial_reduced"].size}
        stages = []
        for stage in model.stages:
            st = cur.fields(_STAGE, scope)
            core = _core(st)
            explicit = _core(cur.fields(_CORE, scope)) if st.pop("explicit") else None
            kind = cur.fields(_KIND)["kind"]
            if kind not in _PARTS:
                raise FormatError(f"unknown jacobian payload kind {kind!r}")
            parts = cur.fields(_PARTS[kind], scope)
            jac = JACOBIANS[kind].from_parts(stage.op, basis, core, **parts)
            stages.append(
                ReducedStage(**st, core=core, explicit_core=explicit, jacobian=jac)
            )
    if rm["m"] < 0:
        rm["m"] = None
    return ReducedModel(**rm, stages=stages)
