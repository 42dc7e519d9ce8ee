"""Progressive scene growth from depth residuals.

A scene starts as a farthest-point-sampled subset of the pseudo point cloud
(all reference depths backprojected into the ego frame).  Each growth layer
renders the current scene, finds pixels whose rendered depth overshoots the
reference by more than a threshold (one signed rule: a render in front of
the reference is never selected), backprojects those pixels, and adds a
budgeted farthest-point subset as fresh Gaussians.  Existing Gaussians are
never touched: every previous layer is a byte-identical prefix of the grown
scene.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from .core import (CameraView, GaussianScene, IDENTITY_QUAT, RenderOutput,
                   backproject, depth_validity)
from .errors import InsufficientPointsError, InvalidInputError
from .raster import render

# Residual threshold default: half the target occupancy voxel size.
GAMMA = 0.2
INIT_SCALE = 0.2     # isotropic stddev (m) of freshly spawned Gaussians
INIT_OPACITY = 0.5


def check_budget(*budgets) -> None:
    """Base counts and layer budgets are positive integers."""
    if any(not isinstance(b, numbers.Integral) or b <= 0 for b in budgets):
        raise InvalidInputError(
            "base count and layer budgets must be positive integers")


def _check_gamma(gamma) -> None:
    if not 0 < gamma < np.inf:
        raise InvalidInputError("gamma must be positive and finite")


@dataclass
class DensifyConfig:
    """Base init's settings: how many Gaussians it picks, and their width."""

    base_count: int = 4000
    feature_dim: int = 16

    def __post_init__(self):
        check_budget(self.base_count)


# Mean points per grid cell in `fps`.  It sets the speed, never the picks:
# on the seed-0 pipeline's three FPS calls, 16-128 points per cell gave
# 0.40-0.58 s in total, within run-to-run noise of one another.
_POINTS_PER_CELL = 64


def _grid_cells(points: np.ndarray) -> np.ndarray:
    """Flat cell id of each point in a uniform grid over the bounding box,
    with the same number of cells on every axis and about
    _POINTS_PER_CELL points per cell on average."""
    n, d = points.shape
    side = max(1, round((n / _POINTS_PER_CELL) ** (1.0 / d)))
    cell = np.zeros(n, dtype=np.int64)
    lo, hi = points.min(axis=0), points.max(axis=0)
    # a flat axis (0 * inf) or an overflowing extent only coarsens the grid
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for j in range(d):
            f = np.nan_to_num((points[:, j] - lo[j]) * (side / (hi[j] - lo[j])))
            cell = cell * side + np.clip(f, 0, side - 1).astype(np.int64)
    return cell


def fps(points: np.ndarray, k: int) -> np.ndarray:
    """Greedy farthest-point sampling; returns k indices in selection order.

    Fully deterministic: the first pick is index 0 and every later pick is
    the point maximizing the distance to the chosen set, ties broken by
    lowest index.  Points must be finite.

    Cells.  The points are stably sorted into a uniform grid over their
    bounding box (`_grid_cells`), so a cell is a contiguous slice whose
    points keep their original order.  Each cell keeps the box [lo, hi] of
    its points, the largest `dist2` (squared distance to the chosen set) of
    its points and the lowest original index attaining it.  A round computes, for every cell at once, the
    squared distance from the last pick q to the box, and recomputes only
    the cells where that bound lies below the cell's largest `dist2`; the
    next pick is the lowest original index among the cells whose maximum
    is the largest.

    Exact skips.  A point's distance is computed, as in the plain sampler,
    from coordinate columns: (x-qx)^2 + (y-qy)^2 + ..., each difference and
    square rounded once and the terms added left to right.  The bound is
    the same expression with each difference replaced by the box gap,
    max(lo - q, q - hi, 0), using the same operations in the same order.
    Every point of the cell has |x - qx| >= gap as real numbers, and IEEE
    rounding is monotone (underflow to zero and overflow to inf included),
    so each rounded term, and hence the rounded sum, of the point is at
    least the bound's.  A skipped cell has bound >= its maximum `dist2`, so
    min(dist2, distance) could not change any of its points: no margin is
    needed.

    Same picks.  Recomputed points use exactly the arithmetic above, so
    `dist2` holds the same bits as when every point is updated every round.
    For D < 8 that is the order in which NumPy reduces a row, so the picks
    are bit-identical to greedy FPS on `np.sum((points - points[i]) ** 2,
    axis=1)`.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] == 0:
        raise InvalidInputError("points must be (N, D) with D >= 1")
    n = points.shape[0]
    if not 1 <= k <= n:
        raise InvalidInputError(f"need 1 <= k <= {n}, got k={k}")
    if not np.isfinite(points).all():
        raise InvalidInputError("points must be finite")
    cell = _grid_cells(points)
    order = np.argsort(cell, kind="stable")   # sorted position -> index
    cell = cell[order]
    starts = np.flatnonzero(np.r_[True, cell[1:] != cell[:-1]])
    counts = np.diff(np.r_[starts, n])
    cols = [points[order, j] for j in range(points.shape[1])]
    lo = np.stack([np.minimum.reduceat(c, starts) for c in cols])   # (D, C)
    hi = np.stack([np.maximum.reduceat(c, starts) for c in cols])
    gap, far = np.empty_like(lo), np.empty_like(lo)
    dist2 = np.full(n, np.inf)
    cell_max = np.full(len(starts), np.inf)
    cell_arg = order[starts]   # lowest index attaining each cell's maximum
    chosen = np.empty(k, dtype=int)
    chosen[0] = 0
    for i in range(1, k):
        q = points[chosen[i - 1]]
        qc = q[:, None]
        np.subtract(lo, qc, out=gap)
        np.subtract(qc, hi, out=far)
        np.maximum(gap, far, out=gap)
        np.maximum(gap, 0.0, out=gap)
        np.multiply(gap, gap, out=gap)
        bound = gap[0]
        for row in gap[1:]:    # left to right, like a point's terms
            bound = bound + row
        moved = np.flatnonzero(bound < cell_max)
        if moved.size:
            # sorted positions of the moved cells' points, cell by cell
            cnt = counts[moved]
            seg = np.cumsum(cnt) - cnt
            at = np.arange(seg[-1] + cnt[-1]) + np.repeat(starts[moved] - seg, cnt)
            for j, col in enumerate(cols):
                term = col[at]
                np.subtract(term, q[j], out=term)
                np.multiply(term, term, out=term)
                acc = term if j == 0 else np.add(acc, term, out=acc)
            np.minimum(acc, dist2[at], out=acc)
            dist2[at] = acc
            top = np.maximum.reduceat(acc, seg)
            hit = np.flatnonzero(acc == np.repeat(top, cnt))
            cell_arg[moved] = order[at[hit[np.searchsorted(hit, seg)]]]
            cell_max[moved] = top
        chosen[i] = cell_arg[cell_max == cell_max.max()].min()
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


def pooled_backprojection(views: list[CameraView]) -> np.ndarray:
    """Ego-frame union of every view's valid reference-depth backprojection."""
    clouds = [backproject(v, v.ref_depth, v.ref_valid)
              for v in views if v.ref_depth is not None]
    if not clouds:
        return np.zeros((0, 3))
    return np.concatenate(clouds, axis=0)


def _spawn(points: np.ndarray, feature_dim: int):
    k = points.shape[0]
    return (points,
            np.full((k, 3), INIT_SCALE),
            np.tile(IDENTITY_QUAT, (k, 1)),
            np.full(k, INIT_OPACITY),
            np.zeros((k, feature_dim)))


def base_init(views: list[CameraView], cfg: DensifyConfig) -> GaussianScene:
    """Layer-0 scene: FPS of the pooled pseudo cloud, isotropic fresh Gaussians.

    Fresh Gaussians share scale INIT_SCALE, opacity INIT_OPACITY, identity
    orientation and an all-zero feature vector.
    """
    cloud = pooled_backprojection(views)
    if cloud.shape[0] < cfg.base_count:
        raise InsufficientPointsError(
            f"pseudo cloud has {cloud.shape[0]} points, need {cfg.base_count}")
    picks = fps(cloud, cfg.base_count)
    mu, s, q, o, f = _spawn(cloud[picks], cfg.feature_dim)
    return GaussianScene(mu, s, q, o, f, (cfg.base_count,))


def select_under_represented(rendered: RenderOutput, ref_depth: np.ndarray,
                             ref_valid: np.ndarray | None,
                             gamma: float = GAMMA) -> np.ndarray:
    """Boolean mask of reference pixels the scene fails to explain.

    A pixel is selected where the rendered depth overshoots the reference
    by more than gamma (rendered - reference > gamma, strictly): the scene
    has nothing at the reference surface there.  Pixels the render leaves
    invalid count as a +infinity residual.  Pixels without valid reference
    depth (`ref_valid`, or `depth_validity`'s rule when it is None) are
    never selected.  `gamma` must be positive and finite.
    """
    _check_gamma(gamma)
    ref_depth = np.asarray(ref_depth, dtype=np.float64)
    if ref_depth.shape != rendered.depth.shape:
        raise InvalidInputError("reference/rendered shapes differ")
    ref_ok = depth_validity(ref_depth, ref_valid)
    resid = np.where(rendered.valid, rendered.depth - ref_depth, np.inf)
    return ref_ok & (resid > gamma)


def selection_residual(renders: list[RenderOutput], views: list[CameraView],
                       selected: list[np.ndarray]) -> float:
    """Mean |rendered - reference| pooled over every view's selected pixels.

    `renders`, `views` and `selected` run in parallel, one entry per view.
    Views with no selected pixel are skipped, so they need no reference
    depth and no render (None serves).  Render-invalid pixels are excluded
    (their residual is unbounded); returns inf when none of the selected
    pixels is resolved.
    """
    diffs = []
    for out, v, sel in zip(renders, views, selected):
        if not np.any(sel):
            continue
        m = np.asarray(sel, dtype=bool) & out.valid
        diffs.append(np.abs(out.depth[m] - np.asarray(v.ref_depth)[m]))
    pooled = np.concatenate(diffs) if diffs else np.zeros(0)
    return float(pooled.mean()) if pooled.size else float("inf")


def residual_after(scene: GaussianScene, views: list[CameraView],
                   selected: list[np.ndarray]) -> tuple[float, list[RenderOutput]]:
    """`selection_residual` of `scene` over the `selected` pixel masks (one
    per view), and the renders it took.

    Only the views with a selected pixel are rendered, one after another on
    the calling thread, and each only at the tiles that hold its selected
    pixels (`render`'s `mask`).  Those pixels have the bits of a full
    render of `scene.geometry()`, so the residual is too.
    """
    geometry = scene.geometry()
    renders = [render(geometry, v, mask=sel) if np.any(sel) else None
               for v, sel in zip(views, selected)]
    return (selection_residual(renders, views, selected),
            [out for out in renders if out is not None])


@dataclass
class DensifyReport:
    """What one growth layer did; `selected` holds one pixel mask per view.

    The residual after growth is `residual_after(grown, views,
    report.selected)`, from renders of the grown scene at the selected
    pixels.
    """

    layer: int
    selected: list[np.ndarray] = field(default_factory=list)
    selected_per_view: list[int] = field(default_factory=list)
    candidate_points: int = 0
    added: int = 0
    residual_before: float = float("inf")


def densify_layer(scene: GaussianScene, views: list[CameraView], budget: int,
                  renders: list[RenderOutput] | None = None,
                  gamma: float = GAMMA):
    """Grow one layer of at most `budget` Gaussians; returns (grown scene,
    DensifyReport).

    The new layer's index is the scene's current layer count.  Pixels that
    `select_under_represented` picks at `gamma` in every view are
    backprojected and pooled; an FPS subset of at most `budget` becomes
    fresh Gaussians of the scene's feature width, appended after the
    existing ones (which stay byte-identical).  An empty candidate set
    yields a zero-growth layer, not an error.  Pre-computed `renders` (one
    per view, same order) are used when given; only their depth and
    validity are read, so renders of `scene.geometry()` serve.  `budget`
    and `gamma` are checked before anything is rendered.
    """
    check_budget(budget)
    _check_gamma(gamma)
    layer = scene.layer_count
    report = DensifyReport(layer=layer)
    geometry = scene.geometry()
    clouds, used = [], []
    for vi, v in enumerate(views):
        if v.ref_depth is None:
            out = None
            sel = np.zeros((v.height, v.width), dtype=bool)
        else:
            out = renders[vi] if renders is not None else render(geometry, v)
            sel = select_under_represented(out, v.ref_depth, v.ref_valid, gamma)
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
    return scene.with_layer(*_spawn(pool[picks], scene.feature_dim)), report
