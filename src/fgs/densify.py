"""Progressive scene growth from depth residuals.

A scene starts as a farthest-point-sampled subset of the pseudo point cloud
(all reference depths backprojected into the ego frame).  Each growth layer
renders the current scene, finds pixels whose rendered depth overshoots the
reference by more than a threshold, backprojects those pixels, and adds a
budgeted farthest-point subset as fresh Gaussians.  Existing Gaussians are
never touched: every previous layer is a byte-identical prefix of the grown
scene.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import CameraView, GaussianScene, IDENTITY_QUAT, RenderOutput, backproject
from .errors import InsufficientPointsError, InvalidInputError
from .raster import render

# Residual threshold default: half the target occupancy voxel size.
GAMMA = 0.2
INIT_SCALE = 0.2     # isotropic stddev (m) of freshly spawned Gaussians
INIT_OPACITY = 0.5


@dataclass
class DensifyConfig:
    gamma: float = GAMMA
    base_count: int = 4000
    layer_budgets: tuple[int, ...] = (1000, 1000)
    init_scale: float = INIT_SCALE
    init_opacity: float = INIT_OPACITY
    select_mode: str = "signed"
    feature_dim: int = 16

    def __post_init__(self):
        if self.gamma <= 0 or self.init_scale <= 0:
            raise InvalidInputError("gamma and init_scale must be positive")
        if self.base_count <= 0 or any(b <= 0 for b in self.layer_budgets):
            raise InvalidInputError("base count and layer budgets must be positive")
        if self.select_mode not in ("signed", "absolute"):
            raise InvalidInputError("select_mode must be 'signed' or 'absolute'")
        if not 0.0 <= self.init_opacity <= 1.0:
            raise InvalidInputError("init_opacity must lie in [0, 1]")


def fps(points: np.ndarray, k: int) -> np.ndarray:
    """Greedy farthest-point sampling; returns k indices in selection order.

    Fully deterministic: the first pick is index 0 and every later pick is
    the point maximizing the distance to the chosen set, ties broken by
    lowest index.

    Each round reads the coordinates as contiguous 1-D columns and adds the
    squared differences left to right, (x-xi)^2 + (y-yi)^2 + ..., into two
    reused buffers.  For D < 8 that is the order in which NumPy reduces a
    row, so the distances, and hence the picks, are bit-identical to
    `np.sum((points - points[i]) ** 2, axis=1)`.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise InvalidInputError("points must be (N, D)")
    n = points.shape[0]
    if not 1 <= k <= n:
        raise InvalidInputError(f"need 1 <= k <= {n}, got k={k}")
    cols = [np.ascontiguousarray(points[:, j]) for j in range(points.shape[1])]
    acc, term = np.zeros(n), np.empty(n)
    dist2 = np.full(n, np.inf)
    chosen = np.empty(k, dtype=int)
    chosen[0] = 0
    for i in range(1, k):
        last = chosen[i - 1]
        for j, col in enumerate(cols):
            out = acc if j == 0 else term
            np.subtract(col, col[last], out=out)
            np.multiply(out, out, out=out)
            if j:
                np.add(acc, term, out=acc)
        np.minimum(dist2, acc, out=dist2)
        chosen[i] = np.argmax(dist2)  # argmax takes the lowest index on ties
    return chosen


def fps_oracle(points: np.ndarray, k: int) -> np.ndarray:
    """Reference sampler: recomputes every point-to-set distance each round."""
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    if not 1 <= k <= n:
        raise InvalidInputError(f"need 1 <= k <= {n}, got k={k}")
    chosen = [0]
    for _ in range(1, k):
        diff = points[:, None, :] - points[chosen][None, :, :]
        d = np.sum(diff ** 2, axis=2).min(axis=1)
        chosen.append(int(np.argmax(d)))    # lowest index on ties
    return np.asarray(chosen, dtype=int)


def feature_dim_of(views: list[CameraView]) -> int:
    """Feature width of the first view with a feature plane, else the default."""
    return next((v.ref_feature.shape[2] for v in views if v.ref_feature is not None),
                DensifyConfig.feature_dim)


def pooled_backprojection(views: list[CameraView]) -> np.ndarray:
    """Ego-frame union of every view's valid reference-depth backprojection."""
    clouds = [backproject(v, v.ref_depth, v.ref_valid)
              for v in views if v.ref_depth is not None]
    if not clouds:
        return np.zeros((0, 3))
    return np.concatenate(clouds, axis=0)


def _spawn(points: np.ndarray, cfg: DensifyConfig):
    k = points.shape[0]
    return (points,
            np.full((k, 3), cfg.init_scale),
            np.tile(IDENTITY_QUAT, (k, 1)),
            np.full(k, cfg.init_opacity),
            np.zeros((k, cfg.feature_dim)))


def base_init(views: list[CameraView], cfg: DensifyConfig) -> GaussianScene:
    """Layer-0 scene: FPS of the pooled pseudo cloud, isotropic fresh Gaussians.

    Fresh Gaussians share the configured scale/opacity, identity orientation,
    and an all-zero feature vector.
    """
    cloud = pooled_backprojection(views)
    if cloud.shape[0] < cfg.base_count:
        raise InsufficientPointsError(
            f"pseudo cloud has {cloud.shape[0]} points, need {cfg.base_count}")
    picks = fps(cloud, cfg.base_count)
    mu, s, q, o, f = _spawn(cloud[picks], cfg)
    return GaussianScene(mu, s, q, o, f, (cfg.base_count,))


def select_under_represented(rendered: RenderOutput, ref_depth: np.ndarray,
                             ref_valid: np.ndarray | None, gamma: float = GAMMA,
                             mode: str = "signed") -> np.ndarray:
    """Boolean mask of reference pixels the scene fails to explain.

    signed: rendered - reference > gamma (strictly); pixels the render leaves
    invalid count as +infinity residual.  absolute: |rendered - reference| >
    gamma with the same invalid-pixel rule.  Pixels without valid reference
    depth are never selected.
    """
    ref_depth = np.asarray(ref_depth, dtype=np.float64)
    if ref_depth.shape != rendered.depth.shape:
        raise InvalidInputError("reference/rendered shapes differ")
    if mode not in ("signed", "absolute"):
        raise InvalidInputError("mode must be 'signed' or 'absolute'")
    ref_ok = (np.ones_like(ref_depth, dtype=bool) if ref_valid is None
              else np.asarray(ref_valid, dtype=bool))
    resid = np.where(rendered.valid, rendered.depth - ref_depth, np.inf)
    if mode == "absolute":
        resid = np.abs(resid)
    return ref_ok & (resid > gamma)


def selection_residual(renders: list[RenderOutput], views: list[CameraView],
                       selected: list[np.ndarray]) -> float:
    """Mean |rendered - reference| pooled over every view's selected pixels.

    `renders`, `views` and `selected` run in parallel, one entry per view.
    Views with no selected pixel are skipped, so they need no reference
    depth.  Render-invalid pixels are excluded (their residual is
    unbounded); returns inf when none of the selected pixels is resolved.
    """
    diffs = []
    for out, v, sel in zip(renders, views, selected):
        if not np.any(sel):
            continue
        m = np.asarray(sel, dtype=bool) & out.valid
        diffs.append(np.abs(out.depth[m] - np.asarray(v.ref_depth)[m]))
    pooled = np.concatenate(diffs) if diffs else np.zeros(0)
    return float(pooled.mean()) if pooled.size else float("inf")


@dataclass
class DensifyReport:
    """What one growth layer did; `selected` holds one pixel mask per view.

    The residual after growth is `selection_residual(after_renders, views,
    report.selected)`, from renders of the grown scene.
    """

    layer: int
    selected: list[np.ndarray] = field(default_factory=list)
    selected_per_view: list[int] = field(default_factory=list)
    candidate_points: int = 0
    added: int = 0
    residual_before: float = float("inf")


def densify_layer(scene: GaussianScene, views: list[CameraView], cfg: DensifyConfig,
                  layer: int, renders: list[RenderOutput] | None = None):
    """Grow one layer; returns (grown scene, DensifyReport).

    `layer` = b >= 1 must equal the scene's current layer count.  Candidate
    pixels from every view are backprojected and pooled; an FPS subset of at
    most this layer's budget becomes fresh Gaussians appended after the
    existing ones (which stay byte-identical).  An empty candidate set yields
    a zero-growth layer, not an error.  Pre-computed `renders` (one per view,
    same order) are used when given.
    """
    if layer < 1 or layer != scene.layer_count:
        raise InvalidInputError(
            f"layer must equal the current layer count {scene.layer_count}, got {layer}")
    if layer - 1 >= len(cfg.layer_budgets):
        raise InvalidInputError(f"no budget configured for layer {layer}")
    if cfg.feature_dim != scene.feature_dim:
        raise InvalidInputError("config feature_dim does not match the scene")
    budget = cfg.layer_budgets[layer - 1]

    report = DensifyReport(layer=layer)
    clouds, used = [], []
    for vi, v in enumerate(views):
        if v.ref_depth is None:
            out = None
            sel = np.zeros((v.height, v.width), dtype=bool)
        else:
            out = renders[vi] if renders is not None else render(scene, v)
            sel = select_under_represented(out, v.ref_depth, v.ref_valid,
                                           cfg.gamma, cfg.select_mode)
        used.append(out)
        report.selected.append(sel)
        report.selected_per_view.append(int(np.count_nonzero(sel)))
        if np.any(sel):
            clouds.append(backproject(v, v.ref_depth, sel))
    report.residual_before = selection_residual(used, views, report.selected)

    pool = np.concatenate(clouds, axis=0) if clouds else np.zeros((0, 3))
    report.candidate_points = int(pool.shape[0])
    report.added = min(budget, pool.shape[0])
    picks = fps(pool, report.added) if report.added else []
    return scene.with_layer(*_spawn(pool[picks], cfg)), report
