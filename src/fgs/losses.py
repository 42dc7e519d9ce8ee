"""Self-supervision losses over rendered depth and feature images.

Depth is supervised directly (L1 + scale-aware log term) and indirectly
through photometric consistency: the rendered depth warps each source photo
onto the target and the per-pixel minimum of an SSIM/L1 mix over sources is
averaged.  Features are supervised by cosine plus squared-error terms.  The
weighted total groups terms exactly as they are consumed downstream, so the
breakdown doubles as a diagnostics report.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Z_NEAR
from .errors import EmptyInputError, InvalidInputError
from .sampling import bilinear_sample

LAMBDA_SILOG = 0.15
LAMBDA_TEMP = 10.0
LAMBDA_MSE = 10.0
LAMBDA_VAR = 0.5     # variance focus of the silog term (1 = scale invariant)
SSIM_C1 = 0.01 ** 2
SSIM_C2 = 0.03 ** 2
SSIM_WEIGHT = 0.85


def _valid_mask(shape, valid):
    if valid is None:
        return np.ones(shape, dtype=bool)
    v = np.asarray(valid, dtype=bool)
    if v.shape != shape:
        raise InvalidInputError("validity mask shape mismatch")
    return v


def l1_depth(ref: np.ndarray, pred: np.ndarray, valid=None) -> float:
    """Mean absolute depth error over valid pixels."""
    ref = np.asarray(ref, dtype=np.float64)
    pred = np.asarray(pred, dtype=np.float64)
    if ref.shape != pred.shape:
        raise InvalidInputError("depth shapes differ")
    v = _valid_mask(ref.shape, valid)
    if not np.any(v):
        raise EmptyInputError("no valid pixels for the L1 depth loss")
    return float(np.mean(np.abs(pred[v] - ref[v])))


def silog(ref: np.ndarray, pred: np.ndarray, valid=None,
          lambda_var: float = LAMBDA_VAR) -> float:
    """Log-depth error mean(g^2) - lambda_var * mean(g)^2, g = ln pred - ln ref.

    With lambda_var = 1 this is the variance of g and thus invariant to a
    common rescaling of both depths.
    """
    ref = np.asarray(ref, dtype=np.float64)
    pred = np.asarray(pred, dtype=np.float64)
    if ref.shape != pred.shape:
        raise InvalidInputError("depth shapes differ")
    v = _valid_mask(ref.shape, valid)
    if not np.any(v):
        raise EmptyInputError("no valid pixels for the silog loss")
    r, p = ref[v], pred[v]
    if np.any(r <= 0.0) or np.any(p <= 0.0):
        raise InvalidInputError("silog needs strictly positive depths")
    g = np.log(p) - np.log(r)
    return float(np.mean(g * g) - lambda_var * np.mean(g) ** 2)


# ---------------------------------------------------------------------------
# Photometric warping loss
# ---------------------------------------------------------------------------

def _avg3(img: np.ndarray) -> np.ndarray:
    from scipy.ndimage import uniform_filter  # here, so that `import fgs` loads no SciPy
    return uniform_filter(img, size=(3, 3, 1), mode="mirror")


def ssim(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-pixel SSIM with a 3x3 window and reflection padding, channel mean."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 3:
        raise InvalidInputError("ssim wants two (H, W, C) images of equal shape")
    mx, my = _avg3(x), _avg3(y)
    sx = _avg3(x * x) - mx * mx
    sy = _avg3(y * y) - my * my
    sxy = _avg3(x * y) - mx * my
    n = (2.0 * mx * my + SSIM_C1) * (2.0 * sxy + SSIM_C2)
    d = (mx * mx + my * my + SSIM_C1) * (sx + sy + SSIM_C2)
    return (n / d).mean(axis=2)


def warp_photo(src_photo: np.ndarray, depth: np.ndarray, rel_pose,
               intrinsics, valid=None):
    """Backproject target pixels with `depth`, map them through `rel_pose`
    (R, t: target camera -> source camera) and sample the source photo.

    Returns (warped (H, W, C), ok (H, W)); pixels that fall outside the
    source image, behind its near plane, or lack valid depth are flagged and
    filled with the target-side fallback of zero.
    """
    src_photo = np.asarray(src_photo, dtype=np.float64)
    depth = np.asarray(depth, dtype=np.float64)
    h, w = depth.shape
    fx, fy, cx, cy = intrinsics
    r, t = rel_pose
    r = np.asarray(r, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    v = _valid_mask(depth.shape, valid) & (depth > Z_NEAR)

    uu, vv = np.meshgrid(np.arange(w, dtype=np.float64),
                         np.arange(h, dtype=np.float64))
    xn = (uu - cx) / fx
    yn = (vv - cy) / fy
    pts = np.stack([xn * depth, yn * depth, depth], axis=-1).reshape(-1, 3)
    ps = pts @ r.T + t
    zs = ps[:, 2]
    ok = v.ravel() & (zs > Z_NEAR)
    with np.errstate(divide="ignore", invalid="ignore"):
        us = fx * ps[:, 0] / zs + cx
        vs = fy * ps[:, 1] / zs + cy
    ok &= (us >= 0) & (us <= w - 1) & (vs >= 0) & (vs <= h - 1)

    warped = np.zeros((h * w, src_photo.shape[2]))
    if np.any(ok):
        warped[ok] = bilinear_sample(src_photo, us[ok], vs[ok])
    return warped.reshape(h, w, -1), ok.reshape(h, w)


def photometric_temporal(target: np.ndarray, sources: list[np.ndarray],
                         depth: np.ndarray, rel_poses: list, intrinsics,
                         valid=None) -> float:
    """Min-over-sources photometric error, averaged over covered pixels.

    Per source the per-pixel cost is 0.85 * (1 - SSIM)/2 + 0.15 * |diff|
    (channel means); each pixel keeps its cheapest valid source and pixels no
    source covers are dropped.  Raises when nothing overlaps.
    """
    target = np.asarray(target, dtype=np.float64)
    if target.ndim != 3:
        raise InvalidInputError("photos must be (H, W, C)")
    if len(sources) != len(rel_poses):
        raise InvalidInputError("one relative pose per source is required")
    if not sources:
        raise InvalidInputError("at least one source photo is required")
    best = np.full(target.shape[:2], np.inf)
    for src, pose in zip(sources, rel_poses):
        src = np.asarray(src, dtype=np.float64)
        if src.shape != target.shape:
            raise InvalidInputError("source/target photo shapes differ")
        warped, ok = warp_photo(src, depth, pose, intrinsics, valid)
        s = ssim(target, warped)
        l1 = np.abs(warped - target).mean(axis=2)
        cost = SSIM_WEIGHT * (1.0 - s) / 2.0 + (1.0 - SSIM_WEIGHT) * l1
        better = ok & (cost < best)
        best[better] = cost[better]
    covered = np.isfinite(best)
    if not np.any(covered):
        raise EmptyInputError("no pixel is covered by any warped source")
    return float(np.mean(best[covered]))


# ---------------------------------------------------------------------------
# Feature losses and the weighted total
# ---------------------------------------------------------------------------

def feat_loss(ref: np.ndarray, pred: np.ndarray, valid=None):
    """(cosine term, squared-error term) between feature images.

    cosine term: mean of 1 - cos(ref, pred) over valid pixels where both
    vectors have nonzero norm (others are excluded).  Squared-error term:
    mean over valid pixels of the squared L2 norm of the difference.
    """
    ref = np.asarray(ref, dtype=np.float64)
    pred = np.asarray(pred, dtype=np.float64)
    if ref.shape != pred.shape or ref.ndim != 3:
        raise InvalidInputError("feature images must be (H, W, F) of equal shape")
    v = _valid_mask(ref.shape[:2], valid)
    if not np.any(v):
        raise EmptyInputError("no valid pixels for the feature loss")
    a = ref[v]
    b = pred[v]
    na = np.linalg.norm(a, axis=1)
    nb = np.linalg.norm(b, axis=1)
    both = (na > 1e-12) & (nb > 1e-12)
    if np.any(both):
        cos = np.einsum("nf,nf->n", a[both], b[both]) / (na[both] * nb[both])
        cos_term = float(np.mean(1.0 - cos))
    else:
        cos_term = 0.0
    mse_term = float(np.mean(np.sum((b - a) ** 2, axis=1)))
    return cos_term, mse_term


@dataclass
class LossWeights:
    lambda_silog: float = LAMBDA_SILOG
    lambda_temp: float = LAMBDA_TEMP
    lambda_mse: float = LAMBDA_MSE
    lambda_depth: float = 1.0
    lambda_feat: float = 1.0


@dataclass
class LossComponents:
    l1: float = 0.0
    silog: float = 0.0
    temporal: float = 0.0
    cos: float = 0.0
    mse: float = 0.0


def total_loss(parts: LossComponents, weights: LossWeights | None = None):
    """Weighted total and its breakdown.

    depth group = l1 + lambda_silog * silog + lambda_temp * temporal;
    feature group = cos + lambda_mse * mse; the total mixes the two groups
    with lambda_depth / lambda_feat.
    """
    w = weights or LossWeights()
    depth_group = parts.l1 + w.lambda_silog * parts.silog + w.lambda_temp * parts.temporal
    feat_group = parts.cos + w.lambda_mse * parts.mse
    total = w.lambda_depth * depth_group + w.lambda_feat * feat_group
    return total, {
        "l1": parts.l1, "silog": parts.silog, "temporal": parts.temporal,
        "cos": parts.cos, "mse": parts.mse,
        "depth_group": depth_group, "feat_group": feat_group, "total": total,
    }
