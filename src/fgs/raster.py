"""Depth/feature rasterization of Gaussian scenes.

Each Gaussian is projected to an anisotropic 2-D footprint (local-affine
covariance mapping plus a low-pass floor), then blended per pixel
front-to-back in a single global depth order.  The blend semantics are shared
verbatim by the two renderers:

* alpha = min(0.99, opacity * exp(-q/2)) with q the squared Mahalanobis
  distance of the pixel to the footprint; alpha is zero beyond the 3-sigma
  support ellipse or below the 1/255 floor;
* a Gaussian contributes alpha * T, T the product of (1 - alpha) over all
  Gaussians in front of it; contributions are zero once T drops below 1e-4
  (the saturation floor), which the tiled path exploits to stop early;
* expected depth is the normalized weighted sum (invalid when the weight
  total is below 1e-6), clamped to the [min, max] depth range of the pixel's
  contributing Gaussians so convexity survives floating-point division; the
  feature image is the unnormalized weighted sum.

`render` is the production tiled path.  It bins footprints to tiles (16x16
by default) with one stable sort of (tile, footprint) keys and blends each
tile's rows in chunks of 64.  Three kinds of work that cannot reach an output
are skipped, each exactly:

* tile culling: a footprint's 3-sigma box can overlap a tile whose pixel
  centres its ellipse never reaches.  Binning takes the minimum of q over
  the tile's rectangle of pixel centres and drops the key when that minimum
  lies beyond the row's support, min(9, 2 ln(opacity / floor)), plus a
  rounding margin; the dropped row's alpha is exactly 0 at every pixel of
  the tile, so T and every sum are unchanged (only chunk boundaries move,
  which can move the last bits of a sum);
* exp only inside the support: `_alpha_block` takes exp and the opacity
  product only where q <= 9 and leaves the other pairs at 0;
* live-pixel compaction: before each chunk the tile's saturated pixels are
  dropped.  T never increases along a pixel's rows, so a pixel whose T fell
  below the floor gets weight 0 from every later row and its sums are
  final.  The tile ends when no pixel is live.  The compacted block is laid
  out so that every pixel gets the same bits as in an uncompacted one
  (`_live_columns`).

A scene with feature width 0 (`GaussianScene.geometry()`) renders depth,
`valid` and `acc_alpha` bit-identical to the full scene and skips the
feature sums; callers that read only geometry render it.  `render` reports
its work on the output: binned and culled (tile, row) keys and the
(row, pixel) pairs it evaluated.

`render_oracle` evaluates every surviving Gaussian at every pixel with its
own covariance inversion and no tiling or early termination.  The two agree
to float accumulation order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import CameraView, FeatureGaussian, GaussianScene, RenderOutput, Z_NEAR, quats_to_rotmats
from .errors import InvalidInputError, NumericalDegeneracyError

LOW_PASS = 0.3          # px^2 added to both footprint eigenvalues
ALPHA_MAX = 0.99
ALPHA_FLOOR = 1.0 / 255.0
SUPPORT_RADIUS = 3.0    # Mahalanobis support of a footprint, in sigmas
T_STOP = 1e-4           # saturation floor on transmittance
EPS_ACC = 1e-6          # minimum blend mass for a valid depth
TILE = 16


@dataclass
class Projected2D:
    """A Gaussian's screen-space footprint (survivors of culling only)."""

    mean2d: np.ndarray    # (2,) pixel coordinates (u, v)
    cov2d: np.ndarray     # (2, 2) SPD footprint covariance, px^2
    z_cam: float          # camera-frame depth, > Z_NEAR
    opacity: float
    source_index: int     # index into the originating scene


class _ProjectedArrays:
    """Struct-of-arrays form of the surviving footprints, depth-sorted."""

    __slots__ = ("mean2d", "cov", "z", "opacity", "src")

    def __init__(self, mean2d, cov, z, opacity, src):
        self.mean2d = mean2d  # (M, 2)
        self.cov = cov        # (M, 3) packed (a, b, c) of [[a, b], [b, c]]
        self.z = z            # (M,)
        self.opacity = opacity
        self.src = src        # (M,) indices into the scene


def _project_scene(scene: GaussianScene, cam: CameraView) -> _ProjectedArrays:
    """Project all Gaussians, cull, and sort by (z_cam, scene index)."""
    n = len(scene)
    if n == 0:
        e = np.empty
        return _ProjectedArrays(e((0, 2)), e((0, 3)), e(0), e(0), np.empty(0, dtype=int))
    pc = cam.ego_to_cam(scene.mu)
    z = pc[:, 2]
    front = z > Z_NEAR
    idx = np.nonzero(front)[0]
    pc, z = pc[front], z[front]

    u = cam.fx * pc[:, 0] / z + cam.cx
    v = cam.fy * pc[:, 1] / z + cam.cy

    # footprint: J (W Sigma W^T) J^T + low-pass, with A = W R diag(s) so that
    # W Sigma W^T = A A^T and the 2x2 result is (J A)(J A)^T
    rot = quats_to_rotmats(scene.quat[front])
    a3 = np.einsum("ij,njk->nik", cam.rotation.T, rot) * scene.scale[front][:, None, :]
    inv_z = 1.0 / z
    j = np.zeros((z.size, 2, 3))
    j[:, 0, 0] = cam.fx * inv_z
    j[:, 0, 2] = -cam.fx * pc[:, 0] * inv_z * inv_z
    j[:, 1, 1] = cam.fy * inv_z
    j[:, 1, 2] = -cam.fy * pc[:, 1] * inv_z * inv_z
    b = np.einsum("nij,njk->nik", j, a3)
    cov_a = np.einsum("nk,nk->n", b[:, 0], b[:, 0]) + LOW_PASS
    cov_b = np.einsum("nk,nk->n", b[:, 0], b[:, 1])
    cov_c = np.einsum("nk,nk->n", b[:, 1], b[:, 1]) + LOW_PASS

    rx = SUPPORT_RADIUS * np.sqrt(cov_a)
    ry = SUPPORT_RADIUS * np.sqrt(cov_c)
    on_screen = ((u + rx >= 0.0) & (u - rx <= cam.width - 1.0)
                 & (v + ry >= 0.0) & (v - ry <= cam.height - 1.0))

    order = np.lexsort((idx[on_screen], z[on_screen]))
    sel = np.nonzero(on_screen)[0][order]
    return _ProjectedArrays(
        np.stack([u, v], axis=1)[sel],
        np.stack([cov_a, cov_b, cov_c], axis=1)[sel],
        z[sel], scene.opacity[front][sel], idx[sel],
    )


def project_gaussian(g: FeatureGaussian, cam: CameraView, source_index: int = 0):
    """Project one Gaussian; returns Projected2D, or None when culled.

    Culling (None) happens behind the near plane or when the 3-sigma screen
    bounding box misses the image; it is a signal, not an error.
    """
    scene = GaussianScene(g.mu[None], g.s[None], g.r[None],
                          np.array([g.sigma]), g.f[None])
    p = _project_scene(scene, cam)
    if p.z.size == 0:
        return None
    a, b, c = p.cov[0]
    return Projected2D(p.mean2d[0], np.array([[a, b], [b, c]]),
                       float(p.z[0]), float(p.opacity[0]), source_index)


def alpha_at(p2d: Projected2D, pixel) -> float:
    """Blend weight of one footprint at one (u, v) pixel position.

    Zero beyond the 3-sigma support or below the 1/255 floor; capped at 0.99.
    """
    cov = np.asarray(p2d.cov2d, dtype=np.float64)
    det = cov[0, 0] * cov[1, 1] - cov[0, 1] * cov[1, 0]
    if not np.isfinite(det) or det <= 1e-12:
        raise NumericalDegeneracyError("singular 2-D footprint covariance")
    du = float(pixel[0]) - float(p2d.mean2d[0])
    dv = float(pixel[1]) - float(p2d.mean2d[1])
    q = (cov[1, 1] * du * du - 2.0 * cov[0, 1] * du * dv + cov[0, 0] * dv * dv) / det
    if q > SUPPORT_RADIUS * SUPPORT_RADIUS:
        return 0.0
    alpha = min(ALPHA_MAX, float(p2d.opacity) * float(np.exp(-0.5 * q)))
    return alpha if alpha >= ALPHA_FLOOR else 0.0


def _alpha_block(proj: _ProjectedArrays, rows, us, vs):
    """(G, P) alpha matrix of footprint rows `rows` at flat pixels (us, vs).

    q = (c du du - 2 b du dv + a dv dv) / det is evaluated left to right in
    two (G, P) buffers; exp and the opacity product are taken only inside
    the support, and every other pair stays 0.
    """
    a = proj.cov[rows, 0][:, None]
    b = proj.cov[rows, 1][:, None]
    c = proj.cov[rows, 2][:, None]
    det = a * c - b * b
    if np.any(det <= 1e-12):
        raise NumericalDegeneracyError("singular 2-D footprint covariance")
    du = us[None, :] - proj.mean2d[rows, 0][:, None]
    dv = vs[None, :] - proj.mean2d[rows, 1][:, None]
    q = c * du
    q *= du
    np.multiply(2.0 * b, du, out=du)
    du *= dv
    q -= du
    np.multiply(a, dv, out=du)
    du *= dv
    q += du
    q /= det
    inside = q <= SUPPORT_RADIUS * SUPPORT_RADIUS      # NaN falls outside
    q *= -0.5
    alpha = np.zeros_like(q)
    with np.errstate(under="ignore"):
        np.exp(q, out=alpha, where=inside)
    np.multiply(alpha, proj.opacity[rows][:, None], out=alpha, where=inside)
    np.minimum(alpha, ALPHA_MAX, out=alpha)
    alpha[alpha < ALPHA_FLOOR] = 0.0
    return alpha


def _live_columns(t_run):
    """Tile pixels still to blend, or an empty array once all are saturated.

    The depth GEMV and the feature GEMM must give each pixel the bits it
    gets in an uncompacted block.  OpenBLAS's gemv sums a block's pixels in
    groups of four and its last `P mod 4` pixels in another order, so each
    pixel keeps its place in one or the other: the tile's last `P mod 4`
    pixels stay at the end until the tile ends, and the live pixels before
    them are padded with saturated ones to a multiple of four, at least four
    (a one-pixel block would also turn the feature GEMM into a GEMV).
    Padding pixels get weight 0, as they would in the uncompacted block.
    """
    live = t_run >= T_STOP
    if not live.any():
        return np.empty(0, dtype=int)
    p = t_run.size
    m = p - p % 4
    keep = live[:m]
    count = np.count_nonzero(keep)
    need = min(m, max(4, -(-count // 4) * 4))
    keep[np.flatnonzero(~keep)[:need - count]] = True
    return np.concatenate([np.flatnonzero(keep), np.arange(m, p)])


def _blend_block(proj, rows, us, vs, feature, chunk=64):
    """Front-to-back blend of the given footprints over one flat pixel block.

    Returns (depth_num, weight_sum, feature_sum (F, P), zmin, zmax, pairs):
    zmin and zmax are the contributing depth range per pixel and pairs the
    number of (row, pixel) alphas evaluated.  Processes the depth-sorted rows
    in chunks, carrying transmittance; before each chunk it drops the pixels
    that have saturated (`_live_columns`) and it stops once none is left.
    With F = 0 there is no feature sum to take.
    """
    p = us.size
    pairs = 0
    num = np.zeros(p)
    den = np.zeros(p)
    feat = np.zeros((feature.shape[1], p))
    zmin = np.full(p, np.inf)
    zmax = np.full(p, -np.inf)
    t_run = np.ones(p)
    cols = np.arange(p)
    for lo in range(0, len(rows), chunk):
        if lo:
            cols = _live_columns(t_run)
            if cols.size == 0:
                break
        sub = rows[lo:lo + chunk]
        z = proj.z[sub]
        t0 = t_run[cols]
        alpha = _alpha_block(proj, sub, us[cols], vs[cols])
        pairs += alpha.size
        cum = np.cumprod(1.0 - alpha, axis=0)
        w = np.empty_like(cum)
        w[0] = t0
        np.multiply(cum[:-1], t0, out=w[1:])
        w[w < T_STOP] = 0.0                 # w holds T before each row here
        w *= alpha
        num[cols] += z @ w
        den[cols] += w.sum(axis=0)
        if feat.shape[0]:
            feat[:, cols] += feature[proj.src[sub]].T @ w
        # rows are depth-sorted: the range is the first and last hit row
        hit = w > 0.0
        first = hit.argmax(axis=0)
        some = hit[first, np.arange(cols.size)]
        zmin[cols] = np.minimum(zmin[cols], np.where(some, z[first], np.inf))
        last = sub.size - 1 - hit[::-1].argmax(axis=0)
        zmax[cols] = np.where(some, z[last], zmax[cols])
        t_run[cols] = t0 * cum[-1]
    return num, den, feat, zmin, zmax, pairs


def _finish(num, den, feat, zmin, zmax, h, w, fdim, **counts):
    valid = den >= EPS_ACC
    depth = np.zeros(h * w)
    # clamp to the contributing range: mathematically a no-op, but it keeps
    # the convexity invariant exact under floating-point division
    depth[valid] = np.clip(num[valid] / den[valid], zmin[valid], zmax[valid])
    return RenderOutput(
        depth=depth.reshape(h, w),
        feature=feat.T.reshape(h, w, fdim),
        acc_alpha=den.reshape(h, w),
        valid=valid.reshape(h, w),
        **counts,
    )


def _tile_min_q(proj: _ProjectedArrays, row, tx, ty, tile: int, w: int, h: int):
    """Minimum of each row's q over its key's rectangle of pixel centres.

    The rectangle is the tile's, clipped at the image edge.  q is convex,
    so the minimum is 0 when the footprint centre lies inside the rectangle
    and otherwise lies on an edge; on each edge the other coordinate's free
    minimiser, clamped to the edge, gives that edge's minimum.
    """
    a, b, c = proj.cov[row].T
    mx, my = proj.mean2d[row].T
    x0 = tx * tile - mx
    x1 = np.minimum(tx * tile + tile, w) - 1 - mx
    y0 = ty * tile - my
    y1 = np.minimum(ty * tile + tile, h) - 1 - my
    det = a * c - b * b

    def q(du, dv):
        return (c * du * du - 2.0 * b * du * dv + a * dv * dv) / det

    qmin = np.minimum.reduce([q(x0, np.clip(b * x0 / a, y0, y1)),
                              q(x1, np.clip(b * x1 / a, y0, y1)),
                              q(np.clip(b * y0 / c, x0, x1), y0),
                              q(np.clip(b * y1 / c, x0, x1), y1)])
    inside = (x0 <= 0.0) & (x1 >= 0.0) & (y0 <= 0.0) & (y1 >= 0.0)
    return np.where(inside, 0.0, qmin)


def _bin_rows(proj: _ProjectedArrays, tile: int, w: int, h: int):
    """Footprint rows per tile, in depth order: (tile ids, row bounds, rows,
    culled key count).

    Every footprint is expanded into one (tile, row) key per tile of its
    3-sigma screen box.  A key is culled when q exceeds the row's reach over
    the whole tile (`_tile_min_q`): beyond min(9, 2 ln(opacity / floor))
    alpha is 0.  The reach is widened by a margin above q's rounding error,
    a few ulps times the footprint's condition number (trace / LOW_PASS
    bounds it), so a culled row has alpha exactly 0 at every pixel of its
    tile.  One stable sort by tile then groups the kept keys while keeping
    each tile's rows in the global depth order.
    """
    ntx = (w + tile - 1) // tile
    nty = (h + tile - 1) // tile
    rx = SUPPORT_RADIUS * np.sqrt(proj.cov[:, 0])
    ry = SUPPORT_RADIUS * np.sqrt(proj.cov[:, 2])
    tx0 = np.clip(((proj.mean2d[:, 0] - rx) // tile).astype(int), 0, ntx - 1)
    tx1 = np.clip(((proj.mean2d[:, 0] + rx) // tile).astype(int), 0, ntx - 1)
    ty0 = np.clip(((proj.mean2d[:, 1] - ry) // tile).astype(int), 0, nty - 1)
    ty1 = np.clip(((proj.mean2d[:, 1] + ry) // tile).astype(int), 0, nty - 1)
    nx = tx1 - tx0 + 1
    count = nx * (ty1 - ty0 + 1)
    row = np.repeat(np.arange(proj.z.size), count)
    k = np.arange(row.size) - np.repeat(np.cumsum(count) - count, count)
    tx = tx0[row] + k % nx[row]
    ty = ty0[row] + k // nx[row]

    with np.errstate(divide="ignore"):
        reach = np.minimum(SUPPORT_RADIUS * SUPPORT_RADIUS,
                           2.0 * np.log(proj.opacity / ALPHA_FLOOR))
    reach += 1e-12 * (1.0 + (proj.cov[:, 0] + proj.cov[:, 2]) / LOW_PASS)
    keep = ~(_tile_min_q(proj, row, tx, ty, tile, w, h) > reach[row])  # NaN kept
    key = (ty * ntx + tx)[keep]
    row = row[keep]
    order = np.argsort(key, kind="stable")
    key, row = key[order], row[order]
    tiles, start = np.unique(key, return_index=True)
    return tiles, np.append(start, key.size), row, int(keep.size - row.size)


def render(scene: GaussianScene, cam: CameraView, tile: int = TILE,
           threads: int = 1) -> RenderOutput:
    """Tile-binned front-to-back blend of the whole scene into one view.

    Gaussians are binned to the tiles their support can reach, in one
    global depth order (ties by scene index), so results are independent of
    `tile` up to float accumulation order.  Tiles are blended one after
    another: `threads` is validated (>= 1) but does not affect rendering.
    It stays only because perfbench/run.py and perfbench/selftest.py pass it.
    The output carries the work counts: (tile, row) keys binned and culled,
    and (row, pixel) pairs evaluated.
    """
    if tile <= 0 or threads <= 0:
        raise InvalidInputError("tile size and thread count must be positive")
    proj = _project_scene(scene, cam)
    h, w, fdim = cam.height, cam.width, scene.feature_dim
    num = np.zeros(h * w)
    den = np.zeros(h * w)
    feat = np.zeros((fdim, h * w))
    zmin = np.full(h * w, np.inf)
    zmax = np.full(h * w, -np.inf)

    ntx = (w + tile - 1) // tile
    tiles, bounds, binned, culled = _bin_rows(proj, tile, w, h)
    pairs = 0
    for t, lo, hi in zip(tiles, bounds[:-1], bounds[1:]):
        ty, tx = divmod(int(t), ntx)
        x0, x1 = tx * tile, min((tx + 1) * tile, w)
        y0, y1 = ty * tile, min((ty + 1) * tile, h)
        uu, vv = np.meshgrid(np.arange(x0, x1, dtype=np.float64),
                             np.arange(y0, y1, dtype=np.float64))
        tn, td, tf, tlo, thi, tp = _blend_block(proj, binned[lo:hi], uu.ravel(),
                                                vv.ravel(), scene.feature)
        pairs += tp
        flat = (vv.astype(int) * w + uu.astype(int)).ravel()
        num[flat] = tn
        den[flat] = td
        feat[:, flat] = tf
        zmin[flat] = tlo
        zmax[flat] = thi
    return _finish(num, den, feat, zmin, zmax, h, w, fdim,
                   binned_rows=binned.size + culled, culled_rows=culled,
                   pairs_evaluated=pairs)


def render_oracle(scene: GaussianScene, cam: CameraView) -> RenderOutput:
    """Reference renderer: every surviving Gaussian at every pixel.

    Same blend semantics as `render` but with no tiling and no early
    termination; footprint inverses go through np.linalg.inv.  Quadratic in
    scene size times pixels - for verification, not production.
    """
    proj = _project_scene(scene, cam)
    h, w, fdim = cam.height, cam.width, scene.feature_dim
    m = proj.z.size
    num = np.zeros(h * w)
    den = np.zeros(h * w)
    feat = np.zeros((fdim, h * w))
    zmin = np.full(h * w, np.inf)
    zmax = np.full(h * w, -np.inf)
    if m == 0:
        return _finish(num, den, feat, zmin, zmax, h, w, fdim)

    cov = np.empty((m, 2, 2))
    cov[:, 0, 0] = proj.cov[:, 0]
    cov[:, 0, 1] = cov[:, 1, 0] = proj.cov[:, 1]
    cov[:, 1, 1] = proj.cov[:, 2]
    prec = np.linalg.inv(cov)
    f_sorted = scene.feature[proj.src]

    uu, vv = np.meshgrid(np.arange(w, dtype=np.float64),
                         np.arange(h, dtype=np.float64))
    us, vs = uu.ravel(), vv.ravel()
    chunk = max(1, int(3e6 / m))
    for lo in range(0, h * w, chunk):
        cu, cv = us[lo:lo + chunk], vs[lo:lo + chunk]
        du = cu[None, :] - proj.mean2d[:, 0][:, None]
        dv = cv[None, :] - proj.mean2d[:, 1][:, None]
        q = (prec[:, 0, 0][:, None] * du * du
             + 2.0 * prec[:, 0, 1][:, None] * du * dv
             + prec[:, 1, 1][:, None] * dv * dv)
        inside = q <= SUPPORT_RADIUS * SUPPORT_RADIUS
        with np.errstate(under="ignore"):
            alpha = proj.opacity[:, None] * np.exp(np.where(inside, -0.5 * q, -np.inf))
        np.minimum(alpha, ALPHA_MAX, out=alpha)
        alpha[alpha < ALPHA_FLOOR] = 0.0

        cum = np.cumprod(1.0 - alpha, axis=0)
        t_before = np.empty_like(cum)
        t_before[0] = 1.0
        t_before[1:] = cum[:-1]
        wgt = alpha * t_before
        wgt[t_before < T_STOP] = 0.0
        num[lo:lo + chunk] = proj.z @ wgt
        den[lo:lo + chunk] = wgt.sum(axis=0)
        feat[:, lo:lo + chunk] = f_sorted.T @ wgt
        zc = np.where(wgt > 0.0, proj.z[:, None], np.inf)
        zmin[lo:lo + chunk] = zc.min(axis=0)
        zc = np.where(wgt > 0.0, proj.z[:, None], -np.inf)
        zmax[lo:lo + chunk] = zc.max(axis=0)
    return _finish(num, den, feat, zmin, zmax, h, w, fdim)
