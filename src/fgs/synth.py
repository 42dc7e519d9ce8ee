"""Deterministic synthetic scenes with analytic ground truth.

Fixtures are built from boxes and spheres whose class features are mutually
orthonormal vectors, so depth maps (ray-traced), semantic voxel grids
(center-inside tests) and retrieval targets are all exact by construction
and independent of the rendering code they are used to test.  Everything is
a pure function of the spec and its seed.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .core import CameraView, GaussianScene, Z_NEAR
from .errors import InvalidInputError
from .io import (dump_json, json_bool, json_float, json_int, json_list,
                 json_optional, json_str, jsonable, load_json_object,
                 read_object)
from .voxel import EMPTY_LABEL, GridSpec, TextBank, VoxelGrid, orthonormal_bank

DEFAULT_IMAGE = (120, 160)     # (height, width)
DEFAULT_HFOV_DEG = 72.0


def _rotz(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


@dataclass
class Primitive:
    """A labeled solid: axis-aligned box (optional z-yaw) or sphere.

    `size` holds full box extents; for spheres only size[0] (the radius) is
    used.  `name` identifies the primitive inside a spec, e.g. to omit one
    from the sampled scene while keeping it in the reference views.
    """

    shape: str
    class_name: str
    center: np.ndarray
    size: np.ndarray
    yaw: float = 0.0
    name: str = ""

    def __post_init__(self):
        if self.shape not in ("box", "sphere"):
            raise InvalidInputError(f"unknown primitive shape {self.shape!r}")
        self.center = np.asarray(self.center, dtype=np.float64).reshape(3)
        self.size = np.asarray(self.size, dtype=np.float64).reshape(3)
        if self.shape == "box" and not np.all((0 < self.size) & (self.size < np.inf)):
            raise InvalidInputError("box extents must be positive and finite")
        if self.shape == "sphere" and not 0 < self.size[0] < np.inf:
            raise InvalidInputError("sphere radius must be positive and finite")
        if not math.isfinite(self.yaw):
            raise InvalidInputError(f"primitive yaw must be finite, got {self.yaw}")
        if not self.name:
            self.name = self.class_name

    @property
    def radius(self) -> float:
        return float(self.size[0])

    def contains(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(points)
        if self.shape == "sphere":
            return np.linalg.norm(points - self.center, axis=1) <= self.radius
        local = (points - self.center) @ _rotz(self.yaw)
        return np.all(np.abs(local) <= self.size / 2.0 + 1e-12, axis=1)

    def surface_area(self) -> float:
        if self.shape == "sphere":
            return 4.0 * math.pi * self.radius ** 2
        sx, sy, sz = self.size
        return 2.0 * (sx * sy + sy * sz + sx * sz)

    def sample_surface(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if n == 0:
            return np.zeros((0, 3))
        if self.shape == "sphere":
            v = rng.standard_normal((n, 3))
            v /= np.maximum(np.linalg.norm(v, axis=1, keepdims=True), 1e-12)
            return self.center + self.radius * v
        half = self.size / 2.0
        # Faces 0..5 = (-x, +x, -y, +y, -z, +z), chosen by area.
        areas = np.repeat([self.size[1] * self.size[2],
                           self.size[0] * self.size[2],
                           self.size[0] * self.size[1]], 2)
        face = rng.choice(6, size=n, p=areas / areas.sum())
        pts = rng.uniform(-1.0, 1.0, size=(n, 3)) * half
        axis = face // 2
        sign = np.where(face % 2 == 0, -1.0, 1.0)
        pts[np.arange(n), axis] = sign * half[axis]
        return pts @ _rotz(self.yaw).T + self.center

    def ray_hits(self, origin: np.ndarray, dirs: np.ndarray) -> np.ndarray:
        """Smallest ray parameter > Z_NEAR per direction, inf on miss.

        Directions are depth-parametrized (unit camera-z), so the returned
        parameter is the hit's camera depth.
        """
        dirs = np.atleast_2d(dirs)
        if self.shape == "sphere":
            oc = origin - self.center
            a = np.einsum("nd,nd->n", dirs, dirs)
            b = 2.0 * dirs @ oc
            c = oc @ oc - self.radius ** 2
            disc = b * b - 4.0 * a * c
            hit = disc >= 0.0
            sq = np.sqrt(np.where(hit, disc, 0.0))
            t0 = (-b - sq) / (2.0 * a)
            t1 = (-b + sq) / (2.0 * a)
            t = np.where(t0 > Z_NEAR, t0, t1)
            return np.where(hit & (t > Z_NEAR), t, np.inf)
        r = _rotz(self.yaw)
        ob = (origin - self.center) @ r
        db = dirs @ r
        half = self.size / 2.0
        tlo = np.full(dirs.shape[0], -np.inf)
        thi = np.full(dirs.shape[0], np.inf)
        for a in range(3):
            with np.errstate(divide="ignore", invalid="ignore"):
                t1 = (-half[a] - ob[a]) / db[:, a]
                t2 = (half[a] - ob[a]) / db[:, a]
            para = np.abs(db[:, a]) < 1e-15
            inside = np.abs(ob[a]) <= half[a]
            lo = np.where(para, np.where(inside, -np.inf, np.inf), np.minimum(t1, t2))
            hi = np.where(para, np.where(inside, np.inf, -np.inf), np.maximum(t1, t2))
            tlo = np.maximum(tlo, lo)
            thi = np.minimum(thi, hi)
        t = np.where(tlo > Z_NEAR, tlo, thi)
        return np.where((tlo <= thi) & (t > Z_NEAR), t, np.inf)


@dataclass
class RingSpec:
    """One circle of cameras, evenly spaced, all at the same pitch.

    Cameras sit on a circle of `radius` at `height` and face the circle's
    axis when `inward` (the default) or away from it otherwise.  Each ring is
    one arrival wave for incremental consumers, so rings double as the unit
    of view scheduling.
    """

    count: int
    radius: float
    height: float
    pitch_deg: float
    offset_deg: float = 0.0
    inward: bool = True

    def __post_init__(self):
        if self.count < 0:
            raise InvalidInputError(f"ring camera count must be non-negative, "
                                    f"got {self.count}")
        if not (math.isfinite(self.pitch_deg) and math.isfinite(self.offset_deg)):
            raise InvalidInputError("ring pitch and offset must be finite, got "
                                    f"{self.pitch_deg} and {self.offset_deg}")


@dataclass
class RigSpec:
    """Camera rig: a list of rings sharing one intrinsics block.

    The default is a three-ring surveillance layout matched to the stock
    room fixture: a steep interior ring that sees the room but nothing
    outside its walls, then two exterior camera pairs (east/west, then
    north/south) that each reveal their own sides' outer wall faces and
    curb ring.  Later rings therefore always expose surfaces no earlier
    ring has seen.  Every ring keeps well clear of all surfaces along its
    optical axes, which keeps near-plane footprint blowup out of the
    rendered images.
    """

    rings: list[RingSpec] = field(default_factory=lambda: [
        RingSpec(8, 2.3, 4.6, -75.0, 0.0),
        RingSpec(2, 7.5, 4.5, -30.0, 0.0),
        RingSpec(2, 7.5, 4.5, -30.0, 90.0)])
    height: int = DEFAULT_IMAGE[0]
    width: int = DEFAULT_IMAGE[1]
    hfov_deg: float = DEFAULT_HFOV_DEG

    def __post_init__(self):
        if self.height <= 0 or self.width <= 0:
            raise InvalidInputError(f"rig image size must be positive, got "
                                    f"{self.height}x{self.width}")
        if not 0 < self.hfov_deg < 180:
            raise InvalidInputError(f"rig hfov_deg must lie in (0, 180), got "
                                    f"{self.hfov_deg}")

    @property
    def focal(self) -> float:
        return (self.width / 2.0) / math.tan(math.radians(self.hfov_deg) / 2.0)


@dataclass
class SynthSpec:
    """Full description of a synthetic fixture; seed determines everything."""

    seed: int = 0
    feature_dim: int = 16
    primitives: list[Primitive] = field(default_factory=list)
    rig: RigSpec = field(default_factory=RigSpec)
    grid: GridSpec | None = None
    n_gaussians: int = 6000
    gaussian_scale: float = 0.1
    gaussian_opacity: float = 0.9
    depth_noise: float = 0.0
    pose_noise: float = 0.0

    def __post_init__(self):
        if self.seed < 0:
            raise InvalidInputError(f"seed must be non-negative, got {self.seed}")
        if self.n_gaussians < 0:
            raise InvalidInputError(
                f"n_gaussians must be non-negative, got {self.n_gaussians}")
        if not (0 <= self.depth_noise < np.inf and 0 <= self.pose_noise < np.inf):
            raise InvalidInputError("depth and pose noise must be finite and "
                                    f"non-negative, got {self.depth_noise} and "
                                    f"{self.pose_noise}")

    @property
    def class_names(self) -> list[str]:
        seen = []
        for p in self.primitives:
            if p.class_name not in seen:
                seen.append(p.class_name)
        return seen

    def to_dict(self) -> dict:
        """The JSON form `from_dict` reads: every dataclass field, with each
        primitive's `class_name` written as "class"."""
        d = jsonable(asdict(self))
        for p in d["primitives"]:
            p["class"] = p.pop("class_name")
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "SynthSpec":
        """Spec from its `to_dict` form; an omitted key takes its default.

        A document that is not an object, a missing required field or a
        field of the wrong type is a FormatError; the range checks of the
        spec and of its rig, rings, primitives and grid stay invalid input.
        """
        return cls(**read_object(d, _SPEC_FIELDS, "synth spec"))

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            dump_json(self.to_dict(), fh)

    @classmethod
    def load(cls, path) -> "SynthSpec":
        return cls.from_dict(load_json_object(path))


# Field tables of SynthSpec.from_dict, one per JSON object of the spec.

def _floats(v) -> list[float]:
    return json_list(v, json_float)


def _ring(d) -> RingSpec:
    return RingSpec(**read_object(d, _RING_FIELDS, "synth spec ring",
                                  ("count", "radius", "height", "pitch_deg")))


def _primitive(d) -> Primitive:
    kw = read_object(d, _PRIMITIVE_FIELDS, "synth spec primitive",
                     ("shape", "class", "center", "size"))
    kw["class_name"] = kw.pop("class")
    return Primitive(**kw)


_RING_FIELDS = {"count": json_int, "radius": json_float, "height": json_float,
                "pitch_deg": json_float, "offset_deg": json_float,
                "inward": json_bool}
# An empty ring list keeps the default rings.
_RIG_FIELDS = {"rings": lambda v: json_list(v, _ring) or RigSpec().rings,
               "height": json_int, "width": json_int, "hfov_deg": json_float}
_GRID_FIELDS = {"origin": _floats, "dims": lambda v: json_list(v, json_int),
                "voxel_size": json_float}
_PRIMITIVE_FIELDS = {"shape": json_str, "class": json_str, "center": _floats,
                     "size": _floats, "yaw": json_float, "name": json_str}
_SPEC_FIELDS = {
    "seed": json_int, "feature_dim": json_int,
    "primitives": lambda v: json_list(v, _primitive),
    "rig": lambda v: RigSpec(**read_object(v, _RIG_FIELDS, "synth spec rig")),
    "grid": json_optional(lambda v: GridSpec(**read_object(
        v, _GRID_FIELDS, "synth spec grid", tuple(_GRID_FIELDS)))),
    "n_gaussians": json_int, "gaussian_scale": json_float,
    "gaussian_opacity": json_float, "depth_noise": json_float,
    "pose_noise": json_float,
}


@dataclass
class SynthResult:
    scene: GaussianScene
    views: list[CameraView]
    gt_grid: VoxelGrid
    bank: TextBank
    spec: SynthSpec
    # View-arrival groups (sizes, in view order): one per camera ring.
    # Incremental consumers treat these as time steps.
    view_waves: tuple[int, ...] = ()


# ---------------------------------------------------------------------------
# Rig construction
# ---------------------------------------------------------------------------

def _camera(rig: RigSpec, rotation: np.ndarray, position: np.ndarray,
            index: int) -> CameraView:
    f = rig.focal
    return CameraView(fx=f, fy=f, cx=(rig.width - 1) / 2.0,
                      cy=(rig.height - 1) / 2.0, width=rig.width,
                      height=rig.height, rotation=rotation,
                      translation=position, timestamp=index)


def build_rig(rig: RigSpec) -> list[CameraView]:
    """Ring cameras, each pitched and facing along (or against) the radius.

    Camera axes follow image convention (x right, y down, z forward); the
    rotation stored on each view maps camera to ego coordinates.
    """
    views = []
    idx = 0
    for ring in rig.rings:
        for k in range(ring.count):
            theta = math.radians(ring.offset_deg + 360.0 * k / ring.count)
            heading = theta + math.pi if ring.inward else theta
            pitch = math.radians(ring.pitch_deg)
            ch, sh = math.cos(heading), math.sin(heading)
            cp, sp = math.cos(pitch), math.sin(pitch)
            forward = np.array([ch * cp, sh * cp, sp])
            right = np.array([sh, -ch, 0.0])
            down = np.cross(forward, right)
            rot = np.stack([right, down, forward], axis=1)
            pos = np.array([ring.radius * math.cos(theta),
                            ring.radius * math.sin(theta), ring.height])
            views.append(_camera(rig, rot, pos, idx))
            idx += 1
    return views


def perturb_poses(views: list[CameraView], std_dev: float,
                  seed: int = 0) -> list[CameraView]:
    """Add zero-mean normal noise to every camera translation."""
    if std_dev < 0:
        raise InvalidInputError("pose noise std must be non-negative")
    if std_dev == 0.0:
        return list(views)
    rng = np.random.default_rng(seed)
    return [replace(v, translation=v.translation + rng.normal(0.0, std_dev, 3))
            for v in views]


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------

def trace_depth(view: CameraView, primitives: list[Primitive]):
    """Analytic (depth, hit-primitive-index) maps for one camera.

    Depth is camera-z of the nearest intersection; index is -1 where no
    primitive is hit.
    """
    dirs = view.pixel_rays().reshape(-1, 3) @ view.rotation.T
    origin = view.center
    t = np.full((len(primitives), dirs.shape[0]), np.inf)
    for i, prim in enumerate(primitives):
        t[i] = prim.ray_hits(origin, dirs)
    best = np.argmin(t, axis=0)
    depth = t[best, np.arange(dirs.shape[0])]
    hit = np.isfinite(depth)
    idx = np.where(hit, best, -1)
    return (np.where(hit, depth, np.nan).reshape(view.height, view.width),
            idx.reshape(view.height, view.width).astype(np.int32))


def rasterize_gt(primitives: list[Primitive], grid: GridSpec,
                 class_names: list[str]) -> VoxelGrid:
    """Ground-truth grid: a voxel is occupied iff its center lies inside a
    primitive; the first containing primitive (spec order) assigns the label.
    """
    centers = grid.centers_flat()
    labels = np.full(centers.shape[0], EMPTY_LABEL, dtype=np.int32)
    for prim in primitives:
        cls = class_names.index(prim.class_name)
        inside = prim.contains(centers) & (labels == EMPTY_LABEL)
        labels[inside] = cls
    occ = (labels != EMPTY_LABEL).astype(np.float64)
    return VoxelGrid(grid.origin, grid.voxel_size,
                     occ.reshape(grid.dims), labels.reshape(grid.dims))


def sample_scene(spec: SynthSpec, bank: TextBank,
                 omit=(), rng=None) -> GaussianScene:
    """Surface-sampled Gaussian scene, Gaussian count split by surface area
    (largest remainder).  Primitives named in `omit` are skipped.
    """
    rng = rng or np.random.default_rng(spec.seed)
    prims = [p for p in spec.primitives if p.name not in omit]
    if not prims:
        raise InvalidInputError("no primitives left to sample")
    areas = np.array([p.surface_area() for p in prims])
    quota = spec.n_gaussians * areas / areas.sum()
    counts = np.floor(quota).astype(int)
    order = np.argsort(-(quota - counts), kind="stable")
    counts[order[:spec.n_gaussians - counts.sum()]] += 1

    names = [e.class_name for e in bank.entries]
    mus, feats = [], []
    for prim, n in zip(prims, counts):
        mus.append(prim.sample_surface(int(n), rng))
        emb = bank.entries[names.index(prim.class_name)].embeddings[0]
        feats.append(np.tile(emb, (int(n), 1)))
    mu = np.concatenate(mus, axis=0)
    n = mu.shape[0]
    return GaussianScene(
        mu=mu,
        scale=np.full((n, 3), spec.gaussian_scale),
        quat=np.tile([1.0, 0.0, 0.0, 0.0], (n, 1)),
        opacity=np.full(n, spec.gaussian_opacity),
        feature=np.concatenate(feats, axis=0),
    )


def gen_scene(spec: SynthSpec, omit_from_scene=()) -> SynthResult:
    """Scene + reference views + GT grid + text bank for a spec.

    `omit_from_scene` drops named primitives from the sampled Gaussians only;
    reference depth/feature planes and the GT grid always use the full
    primitive list (that asymmetry is how under-reconstruction fixtures are
    made).
    """
    if not spec.primitives:
        raise InvalidInputError("spec has no primitives")
    unknown = set(omit_from_scene) - {p.name for p in spec.primitives}
    if unknown:
        raise InvalidInputError(f"unknown primitive names: {sorted(unknown)}")
    rng = np.random.default_rng(spec.seed)
    bank = orthonormal_bank(spec.class_names + ["empty"], spec.feature_dim,
                            seed=spec.seed)
    scene = sample_scene(spec, bank, omit=omit_from_scene, rng=rng)

    class_of_prim = np.array([spec.class_names.index(p.class_name)
                              for p in spec.primitives])
    emb = np.stack([bank.entries[c].embeddings[0]
                    for c in range(len(spec.class_names))])
    views = []
    for view in build_rig(spec.rig):
        depth, prim_idx = trace_depth(view, spec.primitives)
        hit = prim_idx >= 0     # ray hits lie beyond Z_NEAR: ref_valid == hit
        if spec.depth_noise > 0:
            noise = rng.normal(0.0, spec.depth_noise, depth.shape)
            depth = np.where(hit, np.maximum(depth + noise, 2 * Z_NEAR), depth)
        feat = np.zeros(depth.shape + (spec.feature_dim,))
        feat[hit] = emb[class_of_prim[prim_idx[hit]]]
        views.append(replace(view, ref_depth=depth, ref_feature=feat))
    if spec.pose_noise > 0:
        views = perturb_poses(views, spec.pose_noise, seed=spec.seed)

    grid = spec.grid or GridSpec(np.array([-4.0, -4.0, 0.0]), (10, 10, 4), 0.8)
    gt = rasterize_gt(spec.primitives, grid, spec.class_names)
    waves = tuple(r.count for r in spec.rig.rings if r.count > 0)
    return SynthResult(scene=scene, views=views, gt_grid=gt, bank=bank,
                       spec=spec, view_waves=waves)


# ---------------------------------------------------------------------------
# Stock fixtures
# ---------------------------------------------------------------------------

def room_spec(seed: int = 0) -> SynthSpec:
    """Walled room with an outside curb ring, on a 10x10x4 grid of 0.8 m
    voxels.

    The layout is tuned to the default rig in two ways.  First, every slab
    is thin and sits on a voxel-center plane, so GT occupancy is exactly one
    voxel wide and the predicted feature mass lands where the GT label is;
    vertical gaps keep each surface far enough from foreign voxel centers
    that kernel spill stays below the occupancy threshold.  Second, the
    curb ring and the outer wall faces are invisible from inside the room,
    and each exterior camera pair faces only its own two sides, so
    consuming the rig one ring at a time always exposes surfaces that no
    earlier Gaussian explains (rays through them land on the floor far
    behind, well past the selection threshold).
    """
    wall = dict(shape="box", class_name="wall")
    curb = dict(shape="box", class_name="curb")
    prims = [
        Primitive("box", "ground", (0.0, 0.0, 0.40), (7.6, 7.6, 0.12), name="ground"),
        Primitive(center=(2.8, 0.0, 1.03), size=(0.2, 5.8, 0.46), name="wall_east", **wall),
        Primitive(center=(-2.8, 0.0, 1.03), size=(0.2, 5.8, 0.46), name="wall_west", **wall),
        Primitive(center=(0.0, 2.8, 1.03), size=(5.8, 0.2, 0.46), name="wall_north", **wall),
        Primitive(center=(0.0, -2.8, 1.03), size=(5.8, 0.2, 0.46), name="wall_south", **wall),
        Primitive(center=(3.6, 0.0, 1.13), size=(0.4, 7.6, 0.46), name="curb_east", **curb),
        Primitive(center=(-3.6, 0.0, 1.13), size=(0.4, 7.6, 0.46), name="curb_west", **curb),
        Primitive(center=(0.0, 3.6, 1.13), size=(7.6, 0.4, 0.46), name="curb_north", **curb),
        Primitive(center=(0.0, -3.6, 1.13), size=(7.6, 0.4, 0.46), name="curb_south", **curb),
        Primitive("box", "panel", (-1.2, -0.8, 1.03), (0.2, 1.0, 0.46), name="panel_a"),
        Primitive("box", "panel", (0.8, 1.2, 1.03), (1.0, 0.2, 0.46), name="panel_b"),
        Primitive("box", "pillar", (1.2, -1.2, 1.26), (0.2, 0.2, 1.6), name="pillar"),
    ]
    return SynthSpec(seed=seed, feature_dim=16, primitives=prims,
                     grid=GridSpec(np.array([-4.0, -4.0, 0.0]), (10, 10, 4), 0.8))


def missing_wall_fixture(seed: int = 0) -> SynthResult:
    """Room fixture whose east wall exists in the references but carries no
    Gaussians: rays through it see past the scene, so its pixels are exactly
    the under-reconstructed set."""
    return gen_scene(room_spec(seed), omit_from_scene=("wall_east",))
