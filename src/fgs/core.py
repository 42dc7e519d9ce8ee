"""Core scene types and camera geometry.

Everything lives in a fixed right-handed "ego" frame: Gaussian means, voxel
grids and sampled points are ego-frame coordinates in meters; camera poses map
camera coordinates into ego coordinates.  Quaternions are (w, x, y, z) and are
renormalized on ingest.  Pixel coordinates follow the usual convention
u = column, v = row, with pixel centers at integer coordinates.

`GaussianScene` is the one Gaussian record: every kernel, and every
reference that takes Gaussians one at a time, reads Gaussian i as row i of
its arrays.

`CameraView` owns the pinhole model: the projection of camera-frame points
to pixels, the pixel rays that lift pixels back, and the image-bounds test
are each written once there, and every other module calls them.  Depth
always means the camera-frame z coordinate (not ray length), so
``backproject`` and ``project_points`` are exact inverses of each other for
any pixel with valid depth.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import InvalidInputError

# Near-plane depth in meters. Projections at or below this are discarded
# (behind-camera signal) everywhere in the package.
Z_NEAR = 0.1


def _finite(a: np.ndarray, name: str) -> np.ndarray:
    if not np.all(np.isfinite(a)):
        raise InvalidInputError(f"{name} contains non-finite values")
    return a


def _as_float(x, shape: tuple, name: str) -> np.ndarray:
    a = np.asarray(x, dtype=np.float64)
    if a.shape != shape:
        raise InvalidInputError(f"{name} must have shape {shape}, got {a.shape}")
    return _finite(a, name)


# ---------------------------------------------------------------------------
# Quaternions and covariances
# ---------------------------------------------------------------------------

_QUAT_SCALE_FROM = 2.0 ** 500  # |component| past which a row is scaled for its norm


def unit_quats(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit rows of an (N, 4) quaternion array, and the mask of rows whose
    norm is below 1e-8: those are zero quaternions, which the caller refuses
    or replaces, and their unit rows are zero.

    A row whose largest |component| passes 2^500 is first scaled by an exact
    power of two, since its norm would overflow from about 1.3e154 and the
    row come out as zeros; every other row keeps the bits of r / |r|.
    """
    r = np.asarray(r, dtype=np.float64)
    big = np.abs(r).max(axis=1)
    e = np.where(big > _QUAT_SCALE_FROM, np.frexp(big)[1], 0)
    r = np.ldexp(r, -e[:, None])
    norms = np.linalg.norm(r, axis=1)
    zero = norms < 1e-8
    unit = np.divide(r, norms[:, None], out=np.zeros_like(r),
                     where=~zero[:, None])
    return unit, zero


def quats_to_rotmats(r: np.ndarray) -> np.ndarray:
    """Rotation matrices (N, 3, 3) of an (N, 4) array of (w, x, y, z)
    quaternions.  Rows are renormalized, so q and -q (and any positive
    scaling) give the same matrix; a (near-)zero-norm row is refused."""
    unit, zero = unit_quats(r)
    if np.any(zero):
        raise InvalidInputError("zero-norm quaternion in batch")
    w, x, y, z = unit.T
    m = np.empty((unit.shape[0], 3, 3))
    m[:, 0, 0] = 1.0 - 2.0 * (y * y + z * z)
    m[:, 0, 1] = 2.0 * (x * y - w * z)
    m[:, 0, 2] = 2.0 * (x * z + w * y)
    m[:, 1, 0] = 2.0 * (x * y + w * z)
    m[:, 1, 1] = 1.0 - 2.0 * (x * x + z * z)
    m[:, 1, 2] = 2.0 * (y * z - w * x)
    m[:, 2, 0] = 2.0 * (x * z - w * y)
    m[:, 2, 1] = 2.0 * (y * z + w * x)
    m[:, 2, 2] = 1.0 - 2.0 * (x * x + y * y)
    return m


def covariance3d(s, r) -> np.ndarray:
    """World-frame covariance R diag(s^2) R^T of an anisotropic Gaussian.

    `s` are the per-axis standard deviations (meters, strictly positive) and
    `r` the orientation quaternion.  The result is symmetric PSD with
    eigenvalues equal to s^2 up to rounding.
    """
    s = _as_float(s, (3,), "scale")
    if np.any(s <= 0.0):
        raise InvalidInputError("scales must be strictly positive")
    rot = quats_to_rotmats(_as_float(r, (4,), "quaternion")[None])[0]
    cov = (rot * s**2) @ rot.T
    return 0.5 * (cov + cov.T)  # exact symmetry despite rounding


# ---------------------------------------------------------------------------
# The scene
# ---------------------------------------------------------------------------

IDENTITY_QUAT = np.array([1.0, 0.0, 0.0, 0.0])


class GaussianScene:
    """An ordered collection of feature Gaussians grown in layers.

    The package's one Gaussian record, stored struct-of-arrays: Gaussian i
    is row i of `mu` (N, 3) center, `scale` (N, 3) per-axis stddev (> 0),
    `quat` (N, 4) unit quaternion, `opacity` (N,) in [0, 1] and `feature`
    (N, F), and the rules on those fields are checked here and nowhere
    else.  `layer_offsets` holds cumulative counts, one entry per growth
    layer (non-decreasing, last == len(scene)); earlier layers are
    immutable prefixes of later scenes.
    """

    def __init__(self, mu, scale, quat, opacity, feature, layer_offsets=None):
        mu = np.asarray(mu, dtype=np.float64)
        n = mu.shape[0] if mu.ndim == 2 else -1
        if mu.ndim != 2 or mu.shape != (n, 3):
            raise InvalidInputError("mu must be (N, 3)")
        scale = np.asarray(scale, dtype=np.float64)
        quat = np.asarray(quat, dtype=np.float64)
        opacity = np.asarray(opacity, dtype=np.float64)
        feature = np.asarray(feature, dtype=np.float64)
        if scale.shape != (n, 3) or quat.shape != (n, 4) or opacity.shape != (n,):
            raise InvalidInputError("scale/quat/opacity shapes inconsistent with mu")
        if feature.ndim != 2 or feature.shape[0] != n:
            raise InvalidInputError("feature must be (N, F)")
        for name, a in (("mu", mu), ("scale", scale), ("quat", quat),
                        ("opacity", opacity), ("feature", feature)):
            _finite(a, name)
        if n and np.any(scale <= 0.0):
            raise InvalidInputError("scales must be strictly positive")
        if n and (np.any(opacity < 0.0) or np.any(opacity > 1.0)):
            raise InvalidInputError("opacities must lie in [0, 1]")
        quat, zero = unit_quats(quat)
        if np.any(zero):
            raise InvalidInputError("zero-norm quaternion")
        if layer_offsets is None:
            layer_offsets = (n,) if n else (0,)
        layer_offsets = tuple(int(o) for o in layer_offsets)
        if not layer_offsets or layer_offsets[-1] != n:
            raise InvalidInputError("last layer offset must equal the Gaussian count")
        if layer_offsets[0] < 0 or any(nxt < prev for prev, nxt in zip(layer_offsets, layer_offsets[1:])):
            raise InvalidInputError("layer offsets must be non-decreasing and non-negative")

        self.mu = mu
        self.scale = scale
        self.quat = quat
        self.opacity = opacity
        self.feature = feature
        self.layer_offsets = layer_offsets
        for a in (self.mu, self.scale, self.quat, self.opacity, self.feature):
            a.setflags(write=False)

    # -- shape ---------------------------------------------------------------
    def __len__(self) -> int:
        return self.mu.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.feature.shape[1]

    @property
    def layer_count(self) -> int:
        return len(self.layer_offsets)

    def layer_slice(self, b: int) -> slice:
        """Index slice of layer b (0 = base)."""
        if not 0 <= b < self.layer_count:
            raise InvalidInputError(f"layer {b} out of range [0, {self.layer_count})")
        lo = 0 if b == 0 else self.layer_offsets[b - 1]
        return slice(lo, self.layer_offsets[b])

    # -- construction ----------------------------------------------------------
    @classmethod
    def empty(cls, feature_dim: int):
        return cls(np.zeros((0, 3)), np.zeros((0, 3)), np.zeros((0, 4)),
                   np.zeros((0,)), np.zeros((0, feature_dim)), (0,))

    def with_layer(self, mu, scale, quat, opacity, feature) -> "GaussianScene":
        """New scene = this scene plus one appended layer (possibly empty)."""
        mu = np.asarray(mu, dtype=np.float64).reshape(-1, 3)
        k = mu.shape[0]
        return GaussianScene(
            np.concatenate([self.mu, mu]),
            np.concatenate([self.scale, np.asarray(scale, dtype=np.float64).reshape(k, 3)]),
            np.concatenate([self.quat, np.asarray(quat, dtype=np.float64).reshape(k, 4)]),
            np.concatenate([self.opacity, np.asarray(opacity, dtype=np.float64).reshape(k)]),
            np.concatenate([self.feature, np.asarray(feature, dtype=np.float64).reshape(k, self.feature_dim)]),
            self.layer_offsets + (len(self) + k,),
        )

    def geometry(self) -> "GaussianScene":
        """The same Gaussians with feature width 0, sharing this scene's
        arrays (nothing is copied or validated again).  Rendering it gives
        the full render's depth, `valid` and `acc_alpha` bit for bit, and
        skips the feature sums."""
        view = copy.copy(self)
        view.feature = self.feature[:, :0]
        return view

    def replace(self, **arrays) -> "GaussianScene":
        """Copy with some of mu/scale/quat/opacity/feature swapped out."""
        kw = dict(mu=self.mu, scale=self.scale, quat=self.quat,
                  opacity=self.opacity, feature=self.feature)
        kw.update(arrays)
        return GaussianScene(layer_offsets=self.layer_offsets, **kw)


# ---------------------------------------------------------------------------
# Cameras
# ---------------------------------------------------------------------------

def depth_validity(depth: np.ndarray, valid: np.ndarray | None = None) -> np.ndarray:
    """`valid` as a bool mask of depth's shape or, when None, the rule for a
    reference depth plane: a pixel holds a depth when finite and > Z_NEAR."""
    if valid is None:
        return np.isfinite(depth) & (depth > Z_NEAR)
    valid = np.asarray(valid, dtype=bool)
    if valid.shape != np.shape(depth):
        raise InvalidInputError("validity mask shape mismatch")
    return valid


def rig_feature_dim(views: Sequence[CameraView], default: int | None = None) -> int | None:
    """Width of the views' feature planes (`default` if none has one); planes
    of different widths are invalid input."""
    widths = {v.ref_feature.shape[2] for v in views if v.ref_feature is not None}
    if len(widths) > 1:
        raise InvalidInputError(f"views disagree on feature dimension: {sorted(widths)}")
    return widths.pop() if widths else default


@dataclass
class CameraView:
    """A pinhole camera with pose (camera -> ego) and optional reference planes.

    ``ref_depth`` is metric depth with ``ref_valid`` marking trustworthy
    pixels; ``ref_feature`` is an (H, W, F) feature image; ``photo`` is an
    (H, W, 3) image in [0, 1].  All planes are optional and row-major.
    """

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int
    rotation: np.ndarray = field(default_factory=lambda: np.eye(3))   # cam -> ego
    translation: np.ndarray = field(default_factory=lambda: np.zeros(3))
    timestamp: int = 0
    ref_depth: np.ndarray | None = None
    ref_valid: np.ndarray | None = None
    ref_feature: np.ndarray | None = None
    photo: np.ndarray | None = None

    def __post_init__(self):
        if not (0 < self.fx < np.inf and 0 < self.fy < np.inf):
            raise InvalidInputError("focal lengths must be positive and finite")
        if not (np.isfinite(self.cx) and np.isfinite(self.cy)):
            raise InvalidInputError("principal point must be finite")
        if self.width <= 0 or self.height <= 0:
            raise InvalidInputError("image dimensions must be positive")
        self.rotation = _as_float(self.rotation, (3, 3), "rotation")
        if not np.allclose(self.rotation @ self.rotation.T, np.eye(3), atol=1e-6):
            raise InvalidInputError("camera rotation is not orthonormal")
        self.translation = _as_float(self.translation, (3,), "translation")
        if self.ref_depth is not None:
            self.ref_depth = np.asarray(self.ref_depth, dtype=np.float64)
            if self.ref_depth.shape != (self.height, self.width):
                raise InvalidInputError("ref_depth shape mismatch")
            self.ref_valid = depth_validity(self.ref_depth, self.ref_valid)
        if self.ref_feature is not None:
            self.ref_feature = np.asarray(self.ref_feature, dtype=np.float64)
            if (self.ref_feature.ndim != 3
                    or self.ref_feature.shape[:2] != (self.height, self.width)):
                raise InvalidInputError("ref_feature shape mismatch")
            _finite(self.ref_feature, "ref_feature")

    # -- frame transforms -----------------------------------------------------
    def ego_to_cam(self, points: np.ndarray) -> np.ndarray:
        return (np.asarray(points, dtype=np.float64) - self.translation) @ self.rotation

    def cam_to_ego(self, points: np.ndarray) -> np.ndarray:
        return np.asarray(points, dtype=np.float64) @ self.rotation.T + self.translation

    @property
    def center(self) -> np.ndarray:
        """Camera center in the ego frame."""
        return self.translation

    # -- the pinhole model -----------------------------------------------------
    def cam_to_pixel(self, pc: np.ndarray):
        """Pixel coordinates (u, v) of camera-frame points (M, 3); only points
        in front of the camera give meaningful ones."""
        z = pc[:, 2]
        return self.fx * pc[:, 0] / z + self.cx, self.fy * pc[:, 1] / z + self.cy

    def in_image(self, uv: np.ndarray) -> np.ndarray:
        """Whether pixel coordinates (M, 2) lie in the rectangle of pixel
        centres, 0 <= u <= W-1 and 0 <= v <= H-1; a NaN row does not."""
        u, v = uv[:, 0], uv[:, 1]
        return (u >= 0) & (u <= self.width - 1) & (v >= 0) & (v <= self.height - 1)

    def pixel_rays(self) -> np.ndarray:
        """(H, W, 3) camera-frame directions with unit z (depth-parametrized)."""
        u = np.arange(self.width, dtype=np.float64)
        v = np.arange(self.height, dtype=np.float64)
        du = (u - self.cx) / self.fx
        dv = (v - self.cy) / self.fy
        rays = np.empty((self.height, self.width, 3))
        rays[..., 0] = du[None, :]
        rays[..., 1] = dv[:, None]
        rays[..., 2] = 1.0
        return rays


def project_points(points: np.ndarray, cam: CameraView):
    """Vectorized projection: (uv (M, 2), z (M,), in_front (M,) bool).

    uv rows for points at or behind the near plane are NaN.
    """
    pc = cam.ego_to_cam(points)
    z = pc[:, 2]
    in_front = z > Z_NEAR
    with np.errstate(divide="ignore", invalid="ignore"):
        uv = np.stack(cam.cam_to_pixel(pc), axis=1)
    uv[~in_front] = np.nan
    return uv, z, in_front


def backproject(cam: CameraView, depth: np.ndarray, valid: np.ndarray | None = None) -> np.ndarray:
    """Lift a depth map to ego-frame points, one per valid pixel.

    Pixels are taken in row-major order over the validity mask (default:
    `depth_validity`'s rule on `depth`, whatever plane it is).  Round-trips
    with `project_points` to sub-1e-4 precision by construction.
    """
    depth = np.asarray(depth, dtype=np.float64)
    if depth.shape != (cam.height, cam.width):
        raise InvalidInputError("depth shape mismatch")
    vs, us = np.nonzero(depth_validity(depth, valid))
    return cam.cam_to_ego(cam.pixel_rays()[vs, us] * depth[vs, us, None])


# ---------------------------------------------------------------------------
# Render output
# ---------------------------------------------------------------------------

@dataclass
class RenderOutput:
    """Per-pixel blend results: expected depth, feature sum, opacity mass.

    `depth` is NaN-free (invalid pixels hold 0 and are flagged False in
    `valid`); `feature` is the unnormalized alpha-weighted feature sum;
    `acc_alpha` the accumulated blend weight in [0, 1].  The counts are the
    tiled renderer's work: (tile, row) keys its 3-sigma boxes bin, those
    culled as out of reach, tiles blended, (row, pixel) alphas evaluated,
    and the (row, pixel) entries of the opacity-0 row that pads a tile
    shorter than its blend step (all 0 from the oracle).
    """

    depth: np.ndarray      # (H, W)
    feature: np.ndarray    # (H, W, F)
    acc_alpha: np.ndarray  # (H, W)
    valid: np.ndarray      # (H, W) bool
    binned_rows: int = 0
    culled_rows: int = 0
    blended_tiles: int = 0
    pairs_evaluated: int = 0
    padded_pairs: int = 0
