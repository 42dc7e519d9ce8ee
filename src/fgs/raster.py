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

`render` is the production tiled path.  It bins footprints to 8x8 tiles with
one stable sort of (tile, footprint) keys and blends the tiles as a
wavefront (`_blend_group`): tiles go in groups of 32 (2048 pixels) taken in
order of their binned row count, so a group's tiles are of like length, and
step k of a group blends chunk k, rows 64k..64k+63 of each tile's
depth-ordered list, of every tile in the group still running, in one set of
NumPy calls.  A step ends at the last row of its longest running tile: the
last step of a group is shorter than 64 rows when its tiles are.  A tile
shorter than the step is padded with a row of opacity 0, whose alpha is
exactly 0; a tile leaves the group when its rows run out or every one of its
pixels has T below the floor.  Each pixel still gets the bits of a blend of
its tile alone, chunk by chunk.  The alpha and weight arithmetic is per
pair.  The depth and feature sums of a step run over runs of tiles
(`_runs`), the maximal slices of tiles with the same number of rows in the
step: each run is one batched depth GEMV and one batched feature GEMM, and
item i of a batch is tile i's own call, on its own rows and its 64 pixels
with the strides of a call for it alone, so its bits are that call's on
whichever BLAS kernel runs.  K is the tiles' real rows, never the step's
n: zero-weight pad rows in a GEMV move depth bits.  A tile clipped by the
image edge takes the same path on its full lattice: its pixels outside the
image start with T = 0, so their weights are exactly 0, and they are never
written out.  Which tiles share a group or a run, and how many pad rows a
step carries, cannot change a bit.

The tile (`TILE`) is 8x8 because most evaluated pairs have alpha 0: the 34 seed-0
pipeline renders evaluate 92.9 M pairs on 8x8 tiles and 155.4 M on 16x16.
A saturated pixel of a running tile is evaluated and gets weight 0: a
compacted block would have to keep every pixel's BLAS order.

What binning and blending read about a footprint is one record,
`_ProjectedArrays`, which derives q's coefficients and det and the 3-sigma
half-extents once when it is built (scaling a row whose covariance is too
large for q's arithmetic by a power of two); q has one formula
(`_quad_form`), and both renderers reject a singular footprint (det <=
1e-10 a c, `_singular`) once, on projection (`_project_drawable`).

Work that cannot reach an output is skipped exactly:

* tile culling (`_bin_rows`): a (tile, row) key of the footprint's 3-sigma
  box is dropped when the row's alpha is exactly 0 at every pixel centre of
  the tile, so T and every sum are unchanged (only chunk boundaries move,
  which can move the last bits of a sum);
* saturated tiles: a tile stops once T is below the floor at all of its
  pixels, since T never increases along a pixel's rows.

A scene with feature width 0 (`GaussianScene.geometry()`) renders depth,
`valid` and `acc_alpha` bit-identical to the full scene and skips the
feature sums; callers that read only geometry render it.  `render` reports
its work on the output: binned and culled (tile, row) keys, the (row,
pixel) pairs it evaluated and the pad row's (row, lattice pixel) entries.

`render_oracle` evaluates every surviving Gaussian at every pixel with its
own covariance inversion and no tiling or early termination.  The two agree
to float accumulation order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import CameraView, GaussianScene, RenderOutput, Z_NEAR, quats_to_rotmats
from .errors import InvalidInputError, NumericalDegeneracyError

LOW_PASS = 0.3          # px^2 added to both footprint eigenvalues
ALPHA_MAX = 0.99
ALPHA_FLOOR = 1.0 / 255.0
SUPPORT_RADIUS = 3.0    # Mahalanobis support of a footprint, in sigmas
T_STOP = 1e-4           # saturation floor on transmittance
EPS_ACC = 1e-6          # minimum blend mass for a valid depth
TILE = 8
CHUNK = 64              # rows per blend step
_GROUP_TILES = 32       # tiles per step's NumPy calls: 2048 pixels; 32 renders
                        # faster than 8, 16 or 64 with length-sorted groups
_BIN_KEYS = 16384       # (tile, row) keys culled per NumPy call
_Q_SCALE_FROM = 2.0 ** 500  # covariance entry past which a row is scaled for q
# det and q's numerator are differences of terms of size a c, each rounded
# to an ulp of it, so q's relative rounding error is a few ulps of a c over
# det: at det = 1e-10 a c that is a few 1e-6 of q, inside the two renderers'
# 1e-5 agreement.  A thinner footprint is singular.
_SINGULAR = 1e-10
_RANK = np.arange(1, CHUNK + 1, dtype=np.int8)[:, None, None]


@dataclass
class Projected2D:
    """A Gaussian's screen-space footprint (survivors of culling only)."""

    mean2d: np.ndarray    # (2,) pixel coordinates (u, v)
    cov2d: np.ndarray     # (2, 2) SPD footprint covariance, px^2
    z_cam: float          # camera-frame depth, > Z_NEAR
    opacity: float
    source_index: int     # index into the originating scene


class _ProjectedArrays:
    """Struct-of-arrays record of the surviving footprints, depth-sorted.

    q's coefficients `qcov`, its denominator det and the 3-sigma
    half-extents rx, ry are derived here and nowhere else.  q = (c du du -
    2 b du dv + a dv dv) / det keeps its value when a, b, c and det share a
    factor.  A row with max(a, c) past 2^500 px^2, where a * c or q's
    numerator could overflow, takes 2^-e with max(a, c) < 2^e: `qcov` is
    its (a, b, c) times 2^-e and det is (a c - b b) 2^-e, which stays
    finite.  A power of two scales exactly, and every other row has qcov =
    cov and det = a c - b b.
    """

    __slots__ = ("mean2d", "cov", "z", "opacity", "src", "qcov", "det", "rx", "ry")

    def __init__(self, mean2d, cov, z, opacity, src):
        self.mean2d = mean2d  # (M, 2)
        self.cov = cov        # (M, 3) packed (a, b, c) of [[a, b], [b, c]]
        self.z = z            # (M,)
        self.opacity = opacity
        self.src = src        # (M,) indices into the scene
        a, b, c = cov.T
        big = np.fmax(a, c)
        e = np.where(big > _Q_SCALE_FROM, np.frexp(big)[1], 0)
        self.qcov = np.ldexp(cov, -e[:, None])
        qa, qb, _ = self.qcov.T
        with np.errstate(all="ignore"):      # a non-finite row: dropped on projection
            self.det = qa * c - qb * b
        self.rx = SUPPORT_RADIUS * np.sqrt(a)
        self.ry = SUPPORT_RADIUS * np.sqrt(c)

    def take(self, sel):
        """The record of rows `sel`, its derived fields gathered, not re-formed."""
        return self._of(getattr(self, name)[sel] for name in self.__slots__)

    def padded(self):
        """The record with `_PAD` appended as row M, derived fields included."""
        return self._of(np.concatenate([getattr(self, name), getattr(_PAD, name)])
                        for name in self.__slots__)

    @classmethod
    def _of(cls, values):
        """A record of the given values, in slot order, nothing derived."""
        out = object.__new__(cls)
        for name, value in zip(cls.__slots__, values):
            setattr(out, name, value)
        return out


# The row that pads a tile shorter than a blend step: its opacity 0 gives
# alpha exactly 0 at every pixel.
_PAD = _ProjectedArrays(np.zeros((1, 2)), np.array([[1.0, 0.0, 1.0]]), np.zeros(1),
                        np.zeros(1), np.zeros(1, dtype=np.intp))


def _project_scene(scene: GaussianScene, cam: CameraView) -> _ProjectedArrays:
    """Project all Gaussians, cull, and sort by (z_cam, scene index)."""
    pc = cam.ego_to_cam(scene.mu)
    z = pc[:, 2]
    front = z > Z_NEAR
    idx = np.nonzero(front)[0]
    pc, z = pc[front], z[front]
    u, v = cam.cam_to_pixel(pc)

    # footprint: J (W Sigma W^T) J^T + low-pass, with A = W R diag(s) so that
    # W Sigma W^T = A A^T and the 2x2 result is (J A)(J A)^T.  Each entry of
    # A and of J A adds its terms over j = 0, 1, 2 in turn, the order of the
    # einsums this replaced (same bits), and J's zero entries are left out
    rot = quats_to_rotmats(scene.quat[front])
    scale, w_rot = scene.scale[front], cam.rotation.T
    a0, a1, a2 = ((w_rot[i, 0] * rot[:, 0] + w_rot[i, 1] * rot[:, 1] + w_rot[i, 2] * rot[:, 2])
                  * scale for i in range(3))
    inv_z = (1.0 / z)[:, None]
    b = np.stack([cam.fx * inv_z * a0 + (-cam.fx * pc[:, :1] * inv_z * inv_z) * a2,
                  cam.fy * inv_z * a1 + (-cam.fy * pc[:, 1:2] * inv_z * inv_z) * a2], axis=1)
    cov_a = np.einsum("nk,nk->n", b[:, 0], b[:, 0]) + LOW_PASS
    cov_b = np.einsum("nk,nk->n", b[:, 0], b[:, 1])
    cov_c = np.einsum("nk,nk->n", b[:, 1], b[:, 1]) + LOW_PASS

    every = _ProjectedArrays(np.stack([u, v], axis=1), np.stack([cov_a, cov_b, cov_c], axis=1),
                             z, scene.opacity[front], idx)
    rx, ry = every.rx, every.ry
    # a covariance that overflowed has no footprint either renderer can draw
    on_screen = (np.isfinite(every.cov).all(axis=1)
                 & (u + rx >= 0.0) & (u - rx <= cam.width - 1.0)
                 & (v + ry >= 0.0) & (v - ry <= cam.height - 1.0))
    order = np.lexsort((idx[on_screen], z[on_screen]))
    return every.take(np.nonzero(on_screen)[0][order])


def _singular(det, ac):
    """Whether a footprint whose a c is `ac` (times its row's scale, like
    its det) is singular: det <= `_SINGULAR` a c, or not a number."""
    return ~(det > _SINGULAR * ac)


def _project_drawable(scene: GaussianScene, cam: CameraView) -> _ProjectedArrays:
    """`_project_scene`, refusing a singular footprint (`_singular` on the
    record's det and qa c, so scaled where its row is): the one rule by
    which both renderers reject what neither can draw."""
    proj = _project_scene(scene, cam)
    if np.any(_singular(proj.det, proj.qcov[:, 0] * proj.cov[:, 2])):
        raise NumericalDegeneracyError("singular 2-D footprint covariance")
    return proj


def project_gaussian(scene: GaussianScene, i: int, cam: CameraView):
    """Project row i of the scene; returns Projected2D (`source_index` i),
    or None when culled.

    Culling (None) happens behind the near plane or when the 3-sigma screen
    bounding box misses the image; it is a signal, not an error.
    """
    if not 0 <= i < len(scene):
        raise InvalidInputError(f"Gaussian {i} out of range [0, {len(scene)})")
    row = slice(i, i + 1)
    p = _project_scene(GaussianScene(scene.mu[row], scene.scale[row], scene.quat[row],
                                     scene.opacity[row], scene.feature[row]), cam)
    if p.z.size == 0:
        return None
    a, b, c = p.cov[0]
    return Projected2D(p.mean2d[0], np.array([[a, b], [b, c]]),
                       float(p.z[0]), float(p.opacity[0]), i)


def alpha_at(p2d: Projected2D, pixel) -> float:
    """Blend weight of one footprint at one (u, v) pixel position.

    Zero beyond the 3-sigma support or below the 1/255 floor; capped at 0.99.
    A singular footprint (`_singular`, as the renderers refuse it) raises.
    """
    cov = np.asarray(p2d.cov2d, dtype=np.float64)
    det = cov[0, 0] * cov[1, 1] - cov[0, 1] * cov[1, 0]
    if _singular(det, cov[0, 0] * cov[1, 1]):
        raise NumericalDegeneracyError("singular 2-D footprint covariance")
    du = float(pixel[0]) - float(p2d.mean2d[0])
    dv = float(pixel[1]) - float(p2d.mean2d[1])
    q = (cov[1, 1] * du * du - 2.0 * cov[0, 1] * du * dv + cov[0, 0] * dv * dv) / det
    if q > SUPPORT_RADIUS * SUPPORT_RADIUS:
        return 0.0
    alpha = min(ALPHA_MAX, float(p2d.opacity) * float(np.exp(-0.5 * q)))
    return alpha if alpha >= ALPHA_FLOOR else 0.0


def _quad_form(a, b, c, det, du, dv):
    """q = (c du du - 2 b du dv + a dv dv) / det, the squared Mahalanobis
    distance, evaluated left to right in one buffer: each pair gets the same
    bits whatever the layout of the broadcast."""
    q = 2.0 * b * du * dv
    np.subtract(c * du * du, q, out=q)
    q += a * dv * dv
    q /= det
    return q


def _alpha_block(proj: _ProjectedArrays, rows, us, vs):
    """Alpha of footprint rows `rows` at pixels (us, vs), in their broadcast
    shape: (G, 1) rows at (P,) pixels give (G, P).

    exp runs over the whole block with q capped at 1400: exp(-700) is still
    a normal number, and exp is many times slower on the underflows,
    infinities and NaNs past it.  Pairs outside the support (NaN q among
    them) and below the floor are then zeroed by one multiply.
    """
    q = _quad_form(*(proj.qcov[rows, k] for k in range(3)), proj.det[rows],
                   us - proj.mean2d[rows, 0], vs - proj.mean2d[rows, 1])
    keep = q <= SUPPORT_RADIUS * SUPPORT_RADIUS      # NaN falls outside
    np.fmin(q, 1400.0, out=q)
    q *= -0.5
    np.exp(q, out=q)
    q *= proj.opacity[rows]
    np.minimum(q, ALPHA_MAX, out=q)
    keep &= q >= ALPHA_FLOOR
    q *= keep
    return q


def _runs(count):
    """The runs of one blend step, as (start, stop) slices of its tiles:
    the maximal slices of tiles with equal row counts `count`."""
    cut = np.flatnonzero(count[1:] != count[:-1]) + 1
    edges = [0, *cut.tolist(), count.size]
    return list(zip(edges[:-1], edges[1:]))


def _blend_group(proj, feature, rows, nrows, x0, y0, w, h, out, work):
    """Front-to-back blend of a group of tiles, one chunk step at a time.

    `rows` (K, B) holds the depth-ordered rows of the B tiles whose corners
    are (x0, y0), `nrows` of them each, padded with the opacity-0 row up to
    the longest tile's K.  A step blends n = min(64, rows left in its
    longest running tile) rows of every running tile.  Each tile's block is
    its 8x8 lattice of pixels; the lattice pixels outside the image start
    with T = 0 and are never written out.  Alpha is taken on the (8, 8, n,
    B) lattice: q's terms in du alone and in dv alone are then (1, 8, n, B)
    and (8, 1, n, B), and every broadcast runs along contiguous (n, B) rows.
    The blend reads alpha as (n, B, P), so that each row of a step is one
    contiguous array.  A step's depth and feature sums take one batched
    `matmul` each per run of tiles of equal row count (`_runs`), over
    `wgt[:g, s:e]` with g the run's rows, whether or not the image edge
    clips a tile of the run.  A tile that stops writes its sums to `out`
    (num, den, feat, zmin, zmax) and leaves the group.  `work` holds three
    buffers of at least 64 * B * P floats.  Returns the (row, pixel) pairs
    evaluated, padding excluded, and the pad row's (row, lattice pixel)
    entries.
    """
    b, p, fdim = x0.size, TILE * TILE, feature.shape[1]
    lattice = np.arange(TILE)
    xs, ys = x0[:, None] + lattice, y0[:, None] + lattice       # (B, TILE)
    flat = (ys[:, :, None] * w + xs[:, None, :]).reshape(b, p)
    in_image = ((ys < h)[:, :, None] & (xs < w)[:, None, :]).reshape(b, p)
    us = np.ascontiguousarray(xs.T, dtype=np.float64)[None, :, None, :]
    vs = np.ascontiguousarray(ys.T, dtype=np.float64)[:, None, None, :]
    t_run = in_image.astype(np.float64)                # padding: T = 0
    num = np.zeros((b, p))
    den = np.zeros((b, p))
    feat = np.zeros((fdim, b, p))
    zmin = np.full((b, p), np.inf)
    zmax = np.full((b, p), -np.inf)
    pairs = padded = 0
    for lo in range(0, rows.shape[0], CHUNK):
        n = min(CHUNK, int(nrows.max()) - lo)       # the step ends at the last real row
        sub = rows[lo:lo + n]
        z = proj.z[sub]
        alpha, cum, wgt = (x[:n * b * p].reshape(n, b, p) for x in work)
        np.copyto(alpha, _alpha_block(proj, sub, us, vs).reshape(p, n, b)
                  .transpose(1, 2, 0))
        # the running product row by row: np.cumprod's one strided loop
        # per pixel takes twice as long for the same products
        np.subtract(1.0, alpha, out=cum)
        prev = cum[0]
        for row in cum[1:]:
            np.multiply(row, prev, out=row)
            prev = row
        wgt[0] = t_run
        np.multiply(cum[:-1], t_run, out=wgt[1:])
        np.copyto(wgt, 0.0, where=wgt < T_STOP)  # wgt holds T before each row here
        wgt *= alpha
        den += wgt.sum(axis=0)
        count = np.minimum(nrows - lo, n)
        # each tile's rows of the step are one contiguous (g, F) block
        fs = feature[proj.src[sub.T]] if fdim else None
        for s, e in _runs(count):
            g = int(count[s])
            # item i of each batch is tile s + i's own GEMV and GEMM: the
            # same g, the same 64 lattice pixels, the same strides
            wr = wgt[:g, s:e].transpose(1, 0, 2)
            num[s:e] += (z[:g, s:e].T[:, None] @ wr)[:, 0]
            if fdim:
                feat[:, s:e] += (fs[s:e, :g].transpose(0, 2, 1) @ wr).transpose(1, 0, 2)
        pairs += int(count @ in_image.sum(axis=1))
        padded += (n * b - int(count.sum())) * p
        # rows are depth-sorted: the range is the first and last hit row
        # and each pixel's hit rows' largest rank gives its last (first) one
        hit = (wgt > 0.0).view(np.int8)
        rank = _RANK[:n]
        last = (hit * rank).max(axis=0) - 1               # -1: no hit
        first = n - (hit * rank[::-1]).max(axis=0)        # n: no hit
        some = last >= 0
        tiles = np.arange(b)[:, None]
        zmin = np.minimum(zmin, np.where(some, z[first % n, tiles], np.inf))
        zmax = np.where(some, z[last, tiles], zmax)
        t_run = t_run * cum[-1]
        running = (t_run >= T_STOP).any(axis=1) & (nrows > lo + CHUNK)
        if not running.all():
            done = ~running
            at = flat[done][in_image[done]]
            for dst, src in zip(out, (num, den, feat, zmin, zmax)):
                dst[..., at] = src[..., done, :][..., in_image[done]]
            if not running.any():
                break
            rows = rows[:, running]
            # kept C-ordered, so that alpha's temporaries are too
            us, vs = (np.ascontiguousarray(x[..., running]) for x in (us, vs))
            nrows = nrows[running]
            flat, in_image, t_run, num, den, feat, zmin, zmax = (
                x[..., running, :] for x in (flat, in_image, t_run, num, den, feat,
                                             zmin, zmax))
            b = nrows.size
    return pairs, padded


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
    a, b, c = (proj.qcov[row, k] for k in range(3))
    mx, my = proj.mean2d[row, 0], proj.mean2d[row, 1]
    x0 = tx * tile - mx
    x1 = np.minimum(tx * tile + tile, w) - 1 - mx
    y0 = ty * tile - my
    y1 = np.minimum(ty * tile + tile, h) - 1 - my
    du = np.stack([x0, x1, np.clip(b * y0 / c, x0, x1), np.clip(b * y1 / c, x0, x1)])
    dv = np.stack([np.clip(b * x0 / a, y0, y1), np.clip(b * x1 / a, y0, y1), y0, y1])
    qmin = _quad_form(a, b, c, proj.det[row], du, dv).min(axis=0)
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
    # clipped before the cast: a box past the int range would wrap
    tx0 = np.clip((proj.mean2d[:, 0] - proj.rx) // tile, 0, ntx - 1).astype(int)
    tx1 = np.clip((proj.mean2d[:, 0] + proj.rx) // tile, 0, ntx - 1).astype(int)
    ty0 = np.clip((proj.mean2d[:, 1] - proj.ry) // tile, 0, nty - 1).astype(int)
    ty1 = np.clip((proj.mean2d[:, 1] + proj.ry) // tile, 0, nty - 1).astype(int)
    nx = tx1 - tx0 + 1
    count = nx * (ty1 - ty0 + 1)
    row = np.repeat(np.arange(proj.z.size), count)
    k = np.arange(row.size) - np.repeat(np.cumsum(count) - count, count)
    tx = tx0[row] + k % nx[row]
    ty = ty0[row] + k // nx[row]

    # an overflowing margin is +inf: such a row is never culled
    with np.errstate(divide="ignore", over="ignore"):
        reach = np.minimum(SUPPORT_RADIUS * SUPPORT_RADIUS,
                           2.0 * np.log(proj.opacity / ALPHA_FLOOR))
        reach += 1e-12 * (1.0 + (proj.cov[:, 0] + proj.cov[:, 2]) / LOW_PASS)
    # q's minimum in blocks of keys whose temporaries stay in cache
    qmin = np.empty(row.size)
    for lo in range(0, row.size, _BIN_KEYS):
        blk = slice(lo, lo + _BIN_KEYS)
        qmin[blk] = _tile_min_q(proj, row[blk], tx[blk], ty[blk], tile, w, h)
    keep = ~(qmin > reach[row])                                     # NaN kept
    key = (ty * ntx + tx)[keep]
    row = row[keep]
    # a stable sort of keys of 16 bits or fewer is a radix sort
    order = np.argsort(key.astype(np.min_scalar_type(ntx * nty - 1)), kind="stable")
    key, row = key[order], row[order]
    tiles, start = np.unique(key, return_index=True)
    return tiles, np.append(start, key.size), row, int(keep.size - row.size)


def render(scene: GaussianScene, cam: CameraView, threads: int = 1) -> RenderOutput:
    """Tile-binned front-to-back blend of the whole scene into one view.

    Gaussians are binned to the `TILE` x `TILE` tiles their support can
    reach, in one global depth order (ties by scene index).  Tiles are
    blended `_GROUP_TILES` at a time (`_blend_group`), in order of their
    row count, in the calling thread: `threads` is validated (>= 1) but
    does not affect rendering.  It stays only because perfbench/run.py and
    perfbench/selftest.py pass it.  The output carries the work counts:
    (tile, row) keys binned and culled, (row, pixel) pairs evaluated, and
    the pad row's entries.
    """
    if threads <= 0:
        raise InvalidInputError("thread count must be positive")
    proj = _project_drawable(scene, cam)
    h, w, fdim = cam.height, cam.width, scene.feature_dim
    out = (np.zeros(h * w), np.zeros(h * w), np.zeros((fdim, h * w)),
           np.full(h * w, np.inf), np.full(h * w, -np.inf))
    tiles, bounds, binned, culled = _bin_rows(proj, TILE, w, h)
    binned = np.append(binned, proj.z.size)     # position -1 reads the pad row
    proj = proj.padded()
    # three (64, B, P) buffers for every step: allocating blocks this
    # large each time costs as many page faults
    work = np.empty((3, CHUNK * _GROUP_TILES * TILE * TILE))
    ntx = (w + TILE - 1) // TILE
    # groups of tiles of like length: a group pads only to its longest tile
    by_length = np.argsort(np.diff(bounds), kind="stable")
    pairs = padded = 0
    for g in range(0, tiles.size, _GROUP_TILES):
        sel = by_length[g:g + _GROUP_TILES]
        lo, hi = bounds[:-1][sel], bounds[1:][sel]
        idx = lo[:, None] + np.arange((hi - lo).max())
        rows = binned[np.where(idx < hi[:, None], idx, -1)].T
        ty, tx = np.divmod(tiles[sel], ntx)
        group_pairs, group_padded = _blend_group(proj, scene.feature, rows, hi - lo,
                                                 tx * TILE, ty * TILE, w, h, out, work)
        pairs += group_pairs
        padded += group_padded
    return _finish(*out, h, w, fdim, binned_rows=binned.size - 1 + culled,
                   culled_rows=culled, pairs_evaluated=pairs, padded_pairs=padded)


def render_oracle(scene: GaussianScene, cam: CameraView) -> RenderOutput:
    """Reference renderer: every surviving Gaussian at every pixel.

    Same blend semantics as `render` but with no tiling and no early
    termination; footprint inverses go through np.linalg.inv.  Quadratic in
    scene size times pixels - for verification, not production.
    """
    proj = _project_drawable(scene, cam)
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
