"""File formats: scenes (.fgs), planes (PLNE), voxel grids (VOXG), point sets
(PNTS or whitespace text), camera rigs and prompt banks (JSON), plus a tiny
PGM preview emitter.

All binary payloads are little-endian; floats are stored as f32 regardless of
the float64 math used in memory.  Magic-number or length mismatches raise
FormatError.

Depth planes use NaN to mark invalid pixels, and a loaded depth follows
`core.depth_validity`'s rule too: a NaN, non-finite or <= Z_NEAR (0.1 m)
pixel is "no depth".
"""

from __future__ import annotations

import json
import numbers
import os
import struct
import warnings
from pathlib import Path

import numpy as np

from .core import CameraView, GaussianScene, depth_validity
from .errors import FormatError, InvalidInputError, NumericalDegeneracyError
from .voxel import EMPTY_LABEL, TextBank, TextBankEntry, VoxelGrid

FGS_MAGIC = b"FGSC"
PLANE_MAGIC = b"PLNE"
VOXEL_MAGIC = b"VOXG"
POINTS_MAGIC = b"PNTS"


def _read_exact(f, n: int, what: str) -> bytes:
    # A corrupt header can declare sizes far beyond the file; refuse those
    # before asking the OS for the bytes.
    if n > os.fstat(f.fileno()).st_size - f.tell():
        raise FormatError(f"truncated file while reading {what}")
    buf = f.read(n)
    if len(buf) != n:
        raise FormatError(f"truncated file while reading {what}")
    return buf


def _expect_magic(f, magic: bytes, path):
    got = f.read(len(magic))
    if got != magic:
        raise FormatError(f"{path}: expected magic {magic!r}, got {got!r}")


def jsonable(x):
    """Plain-JSON copy of `x`; non-finite floats become None."""
    if isinstance(x, dict):
        return {k: jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    if isinstance(x, np.integer):
        return int(x)
    if isinstance(x, (np.floating, float)):
        x = float(x)
        return x if np.isfinite(x) else None
    if isinstance(x, np.ndarray):
        return jsonable(x.tolist())
    return x


def dump_json(obj, fh) -> None:
    """Write `jsonable(obj)` as strict JSON (no NaN/Infinity), plus a newline."""
    json.dump(jsonable(obj), fh, indent=2, allow_nan=False)
    fh.write("\n")


# ---------------------------------------------------------------------------
# Scenes: magic, u32 version, u32 N, u32 F, u32 layer count, layer offsets,
# then N records of f32 (mu[3], s[3], r[4], sigma, f[F]).
# ---------------------------------------------------------------------------

def save_scene(path, scene: GaussianScene) -> None:
    """Write `scene`; a value past float32's range is refused before the
    file is opened, since `load_scene` would refuse the inf it becomes."""
    n, fdim = len(scene), scene.feature_dim
    rec = np.empty((n, 11 + fdim), dtype="<f4")
    with np.errstate(over="ignore"):
        rec[:, 0:3] = scene.mu
        rec[:, 3:6] = scene.scale
        rec[:, 6:10] = scene.quat
        rec[:, 10] = scene.opacity
        rec[:, 11:] = scene.feature
    if not np.all(np.isfinite(rec)):
        raise NumericalDegeneracyError(
            f"{path}: scene values overflow the file's float32 records")
    with open(path, "wb") as f:
        f.write(FGS_MAGIC)
        f.write(struct.pack("<4I", 1, n, fdim, scene.layer_count))
        f.write(np.asarray(scene.layer_offsets, dtype="<u4").tobytes())
        f.write(rec.tobytes())


def load_scene(path) -> GaussianScene:
    with open(path, "rb") as f:
        _expect_magic(f, FGS_MAGIC, path)
        version, n, fdim, layers = struct.unpack("<4I", _read_exact(f, 16, "scene header"))
        if version != 1:
            raise FormatError(f"{path}: unsupported scene version {version}")
        offsets = np.frombuffer(_read_exact(f, 4 * layers, "layer offsets"), dtype="<u4")
        rec = np.frombuffer(_read_exact(f, 4 * n * (11 + fdim), "scene records"),
                            dtype="<f4").reshape(n, 11 + fdim).astype(np.float64)
    try:
        return GaussianScene(rec[:, 0:3], rec[:, 3:6], rec[:, 6:10], rec[:, 10],
                             rec[:, 11:], tuple(int(o) for o in offsets))
    except InvalidInputError as e:
        raise FormatError(f"{path}: {e}") from e


# ---------------------------------------------------------------------------
# Planes: magic, u32 H, u32 W, u32 C, f32 data row-major.
# Depth planes are single-channel with NaN marking invalid pixels.
# ---------------------------------------------------------------------------

def save_plane(path, array: np.ndarray) -> None:
    a = np.asarray(array, dtype=np.float64)
    if a.ndim == 2:
        a = a[:, :, None]
    if a.ndim != 3:
        raise InvalidInputError("plane must be (H, W) or (H, W, C)")
    with open(path, "wb") as f:
        f.write(PLANE_MAGIC)
        f.write(struct.pack("<3I", *a.shape))
        f.write(a.astype("<f4").tobytes())


def load_plane(path) -> np.ndarray:
    with open(path, "rb") as f:
        _expect_magic(f, PLANE_MAGIC, path)
        h, w, c = struct.unpack("<3I", _read_exact(f, 12, "plane header"))
        data = np.frombuffer(_read_exact(f, 4 * h * w * c, "plane data"), dtype="<f4")
    out = data.astype(np.float64).reshape(h, w, c)
    return out[:, :, 0] if c == 1 else out


def save_depth_plane(path, depth: np.ndarray, valid: np.ndarray | None = None) -> None:
    d = np.asarray(depth, dtype=np.float64).copy()
    if valid is not None:
        d[~np.asarray(valid, dtype=bool)] = np.nan
    save_plane(path, d)


def load_depth_plane(path):
    """Returns (depth, valid), valid by `depth_validity`'s rule; invalid
    pixels come back as 0."""
    d = load_plane(path)
    if d.ndim != 2:
        raise FormatError(f"{path}: depth plane must be single-channel")
    valid = depth_validity(d)
    return np.where(valid, d, 0.0), valid


# ---------------------------------------------------------------------------
# Voxel grids: magic, u32 dims[3], f32 origin[3], f32 voxel size,
# f32 occupancy mass per voxel, u16 label per voxel (0xFFFF = empty).
# Voxels are flattened in C order over (ix, iy, iz).
# ---------------------------------------------------------------------------

def save_voxel_grid(path, grid: VoxelGrid) -> None:
    if np.any(grid.labels >= 0xFFFF):
        raise InvalidInputError("labels exceed the u16 range of the format")
    labels = grid.labels.astype(np.int64).copy()
    labels[labels == EMPTY_LABEL] = 0xFFFF
    with open(path, "wb") as f:
        f.write(VOXEL_MAGIC)
        f.write(struct.pack("<3I", *grid.dims))
        f.write(struct.pack("<3f", *grid.origin))
        f.write(struct.pack("<f", grid.voxel_size))
        f.write(grid.occ_mass.astype("<f4").tobytes())
        f.write(labels.astype("<u2").tobytes())


def load_voxel_grid(path) -> VoxelGrid:
    with open(path, "rb") as f:
        _expect_magic(f, VOXEL_MAGIC, path)
        nx, ny, nz = struct.unpack("<3I", _read_exact(f, 12, "voxel dims"))
        origin = struct.unpack("<3f", _read_exact(f, 12, "voxel origin"))
        (vs,) = struct.unpack("<f", _read_exact(f, 4, "voxel size"))
        count = nx * ny * nz
        occ = np.frombuffer(_read_exact(f, 4 * count, "occupancy"), dtype="<f4")
        lab = np.frombuffer(_read_exact(f, 2 * count, "labels"), dtype="<u2")
    labels = lab.astype(np.int32).copy()
    labels[labels == 0xFFFF] = EMPTY_LABEL
    try:
        return VoxelGrid(np.array(origin, dtype=np.float64), float(vs),
                         occ.astype(np.float64).reshape(nx, ny, nz),
                         labels.reshape(nx, ny, nz))
    except InvalidInputError as e:
        raise FormatError(f"{path}: {e}") from e


# ---------------------------------------------------------------------------
# Point sets: binary magic + u32 N + f32 xyz, or whitespace-separated text.
# ---------------------------------------------------------------------------

def save_points(path, points: np.ndarray) -> None:
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    with open(path, "wb") as f:
        f.write(POINTS_MAGIC)
        f.write(struct.pack("<I", pts.shape[0]))
        f.write(pts.astype("<f4").tobytes())


def load_points(path) -> np.ndarray:
    with open(path, "rb") as f:
        head = f.read(4)
        if head == POINTS_MAGIC:
            (n,) = struct.unpack("<I", _read_exact(f, 4, "point count"))
            if n == 0:
                raise FormatError(f"{path}: PNTS binary holds no points")
            data = np.frombuffer(_read_exact(f, 12 * n, "points"), dtype="<f4")
            return data.astype(np.float64).reshape(n, 3)
    # fall back to whitespace XYZ text
    try:
        with warnings.catch_warnings():
            # a text with no rows warns, and is refused below
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            pts = np.loadtxt(path, dtype=np.float64, ndmin=2)
    except ValueError as e:
        raise FormatError(f"{path}: neither a PNTS binary nor XYZ text ({e})") from e
    if pts.size == 0:
        raise FormatError(f"{path}: XYZ text holds no points")
    if pts.shape[1] != 3:
        raise FormatError(f"{path}: expected 3 columns, got {pts.shape[1]}")
    return pts


# ---------------------------------------------------------------------------
# Camera rigs: JSON index with per-view intrinsics, 3x4 row-major pose
# (camera -> ego) and optional plane paths relative to the JSON file.
# ---------------------------------------------------------------------------

def save_rig(path, views: list[CameraView]) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    entries = []
    for i, v in enumerate(views):
        pose = np.concatenate([v.rotation, v.translation[:, None]], axis=1)
        entry = {
            "fx": v.fx, "fy": v.fy, "cx": v.cx, "cy": v.cy,
            "width": v.width, "height": v.height,
            "pose": [[float(x) for x in row] for row in pose],
            "timestamp": v.timestamp,
        }
        if v.ref_depth is not None:
            entry["depth"] = f"view{i:03d}_depth.plne"
            save_depth_plane(path.parent / entry["depth"], v.ref_depth, v.ref_valid)
        if v.ref_feature is not None:
            entry["feature"] = f"view{i:03d}_feature.plne"
            save_plane(path.parent / entry["feature"], v.ref_feature)
        if v.photo is not None:
            entry["photo"] = f"view{i:03d}_photo.plne"
            save_plane(path.parent / entry["photo"], v.photo)
        entries.append(entry)
    path.write_text(json.dumps({"views": entries}, indent=2))


# JSON field readers for the loaders below and the spec/config parsers: a
# value of the wrong JSON type raises TypeError, which `read_object` reports
# as a FormatError.  Nothing is coerced: "7" is not a number and 1.9 not an int.

def json_float(v) -> float:
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        raise TypeError(f"expected a number, got {v!r}")
    return float(v)


def json_int(v) -> int:
    """An integer; a float with an integral value, such as 2.0, is one too."""
    if isinstance(v, float) and v.is_integer():
        return int(v)
    if isinstance(v, bool) or not isinstance(v, numbers.Integral):
        raise TypeError(f"expected an integer, got {v!r}")
    return int(v)


def json_bool(v) -> bool:
    if not isinstance(v, bool):
        raise TypeError(f"expected true or false, got {v!r}")
    return v


def json_str(v) -> str:
    if not isinstance(v, str):
        raise TypeError(f"expected a string, got {v!r}")
    return v


def json_list(v, item=None) -> list:
    """A list (or tuple), each element read with `item` when given."""
    if not isinstance(v, (list, tuple)):
        raise TypeError(f"expected a list, got {v!r}")
    return list(v) if item is None else [item(x) for x in v]


def json_optional(read):
    """`read`, except that null reads as None."""
    return lambda v: None if v is None else read(v)


def read_object(doc, readers: dict, what: str, required=()) -> dict:
    """{key: readers[key](doc[key])} for each key of `readers` in `doc`.

    `doc` not being an object, a `required` key missing, or a reader's
    TypeError, ValueError or OverflowError is a FormatError naming `what`
    and the field.  A reader's InvalidInputError (a range check) and nested
    FormatErrors pass through.  Once every field is read, a key that
    `readers` lacks is an InvalidInputError: a misspelt key never falls
    back silently to the default.
    """
    if not isinstance(doc, dict):
        raise FormatError(f"{what} must be a JSON object, got {type(doc).__name__}")
    for key in required:
        if key not in doc:
            raise FormatError(f"{what}: missing field {key!r}")
    out = {}
    for key in (k for k in readers if k in doc):
        try:
            out[key] = readers[key](doc[key])
        except InvalidInputError:
            raise
        except (TypeError, ValueError, OverflowError) as e:
            raise FormatError(f"{what}: malformed field {key!r} ({e})") from e
    unknown = set(doc) - set(readers)
    if unknown:
        raise InvalidInputError(f"unknown {what} keys: {sorted(unknown)}")
    return out


def load_json_object(path) -> dict:
    """The JSON object stored at `path`; anything else is a FormatError."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as e:  # JSONDecodeError or UnicodeDecodeError
        raise FormatError(f"{path}: invalid JSON ({e})") from e
    if not isinstance(doc, dict):
        raise FormatError(f"{path} must be a JSON object, got {type(doc).__name__}")
    return doc


def _pose(v) -> np.ndarray:
    pose = np.asarray(json_list(v, lambda row: json_list(row, json_float)))
    if pose.shape != (3, 4):
        raise ValueError("pose must be 3x4 row-major")
    return pose


def load_rig(path) -> list[CameraView]:
    path = Path(path)

    def plane(read):
        # an absent, null or empty plane path means no plane
        return lambda v: read(path.parent / json_str(v)) if v else None

    fields = {"fx": json_float, "fy": json_float, "cx": json_float,
              "cy": json_float, "width": json_int, "height": json_int,
              "timestamp": json_int, "pose": _pose,
              "depth": plane(lambda p: load_depth_plane(p)[0]),
              "feature": plane(lambda p: np.atleast_3d(load_plane(p))),
              "photo": plane(load_plane)}
    required = ("fx", "fy", "cx", "cy", "width", "height", "pose")

    def view(entry):
        kw = read_object(entry, fields, f"{path}: rig view", required)
        pose = kw.pop("pose")
        kw["rotation"], kw["translation"] = pose[:, :3], pose[:, 3]
        kw["ref_depth"] = kw.pop("depth", None)   # CameraView derives ref_valid
        kw["ref_feature"] = kw.pop("feature", None)
        # CameraView's own range checks (e.g. fx <= 0) are invalid input
        return CameraView(**kw)

    return read_object(load_json_object(path),
                       {"views": lambda v: json_list(v, view)},
                       str(path), required=("views",))["views"]


# ---------------------------------------------------------------------------
# Prompt banks: JSON list of {class, prompts, embedding_path}; embeddings are
# (P, F) planes, one row per prompt.
# ---------------------------------------------------------------------------

def save_bank(path, bank: TextBank) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    classes = []
    for i, entry in enumerate(bank.entries):
        emb_name = f"bank{i:03d}_{_safe_name(entry.class_name)}.plne"
        save_plane(path.parent / emb_name, entry.embeddings)
        classes.append({"class": entry.class_name, "prompts": entry.prompts,
                        "embedding_path": emb_name})
    path.write_text(json.dumps(
        {"classes": classes, "empty_class": bank.empty_class}, indent=2))


def _safe_name(name: str) -> str:
    return "".join(c if c.isalnum() else "_" for c in name)


def load_bank(path) -> TextBank:
    path = Path(path)
    fields = {"class": json_str, "prompts": lambda v: json_list(v, json_str),
              "embedding_path": lambda v: load_plane(path.parent / json_str(v))}

    def entry(c):
        kw = read_object(c, fields, f"{path}: bank entry", required=tuple(fields))
        return TextBankEntry(kw["class"], kw["prompts"], kw["embedding_path"])

    kw = read_object(load_json_object(path),
                     {"classes": lambda v: json_list(v, entry),
                      "empty_class": json_optional(json_str)},
                     str(path), required=("classes",))
    return TextBank(kw.pop("classes"), **kw)


# ---------------------------------------------------------------------------
# Previews: 8-bit binary PGM (P5).
# ---------------------------------------------------------------------------

def write_pgm(path, gray: np.ndarray) -> None:
    """Write an (H, W) array already scaled to [0, 255]."""
    g = np.clip(np.asarray(gray), 0, 255).astype(np.uint8)
    if g.ndim != 2:
        raise InvalidInputError("PGM wants a 2-D array")
    with open(path, "wb") as f:
        f.write(f"P5\n{g.shape[1]} {g.shape[0]}\n255\n".encode())
        f.write(g.tobytes())


def depth_preview(path, depth: np.ndarray, valid: np.ndarray | None = None) -> None:
    """Min-max normalized depth preview; invalid pixels are black."""
    d = np.asarray(depth, dtype=np.float64)
    v = np.ones(d.shape, dtype=bool) if valid is None else np.asarray(valid, dtype=bool)
    out = np.zeros(d.shape)
    if np.any(v):
        lo, hi = d[v].min(), d[v].max()
        span = hi - lo if hi > lo else 1.0
        out[v] = 1.0 + 254.0 * (d[v] - lo) / span
    write_pgm(path, out)
