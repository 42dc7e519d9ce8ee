"""Per-Gaussian feature sampling from the views' feature planes.

`refine_scene` projects each Gaussian's center into every view that
carries a feature plane, reads the plane there by bilinear interpolation
(`sample_features`), and replaces the Gaussian's feature with the uniform
mean over the views that see it (`aggregate`); geometry is kept.  It runs
over every Gaussian of the scene in chunks of `REFINE_CHUNK` rows.  The
sampler always gates occlusion at `OCCLUSION_MARGIN`, in the pipeline's
refine stage and in `fgs refine` alike.

`place_samples` maps unit-cube offsets into a Gaussian's ellipsoid, where
every sample stays within Mahalanobis sqrt(3) of the center.
"""

from __future__ import annotations

import numpy as np

from .core import (CameraView, GaussianScene, project_points, quats_to_rotmats,
                   rig_feature_dim)
from .errors import InvalidInputError

REFINE_CHUNK = 2048   # Gaussians per `refine_scene` step
OCCLUSION_MARGIN = 0.3   # meters; see `sample_features`


# ---------------------------------------------------------------------------
# Placement
# ---------------------------------------------------------------------------

def place_samples(mu: np.ndarray, scale: np.ndarray, quat: np.ndarray,
                  offsets: np.ndarray) -> np.ndarray:
    """Map unit-cube offsets into each Gaussian's ellipsoid: mu + R (s * delta).

    `mu`, `scale` and `quat` are the (m, 3), (m, 3), (m, 4) rows of m
    Gaussians and `offsets` is (m, n, 3); the result is (m, n, 3).  With
    |delta|_inf <= 1 every sample has squared Mahalanobis distance
    |delta|^2 <= 3, i.e. it stays within sqrt(3) sigma of its center.
    """
    offsets = np.asarray(offsets, dtype=np.float64)
    mu = np.asarray(mu, dtype=np.float64)
    if offsets.ndim != 3 or offsets.shape[2] != 3 or offsets.shape[0] != mu.shape[0]:
        raise InvalidInputError("offsets must be (m, n, 3), one block per Gaussian")
    if np.any(np.abs(offsets) > 1.0 + 1e-12):
        raise InvalidInputError("offsets must lie in the unit cube")
    local = np.asarray(scale, dtype=np.float64)[:, None, :] * offsets
    return mu[:, None, :] + np.einsum("mij,mnj->mni", quats_to_rotmats(quat), local)


# ---------------------------------------------------------------------------
# Feature plane lookup
# ---------------------------------------------------------------------------

def bilinear_sample(plane: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Bilinear interpolation at (u, v) with texel centers on integer coords.

    Callers must pass in-bounds coordinates (0 <= u <= W-1, 0 <= v <= H-1);
    boundary coordinates resolve exactly to edge texels.
    """
    plane = np.asarray(plane, dtype=np.float64)
    squeeze = plane.ndim == 2
    if squeeze:
        plane = plane[:, :, None]
    h, w = plane.shape[:2]
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    u0 = np.clip(np.floor(u), 0, max(w - 2, 0)).astype(int)
    v0 = np.clip(np.floor(v), 0, max(h - 2, 0)).astype(int)
    u1 = np.minimum(u0 + 1, w - 1)
    v1 = np.minimum(v0 + 1, h - 1)
    fu = (u - u0)[:, None]
    fv = (v - v0)[:, None]
    out = ((1 - fu) * (1 - fv) * plane[v0, u0]
           + fu * (1 - fv) * plane[v0, u1]
           + (1 - fu) * fv * plane[v1, u0]
           + fu * fv * plane[v1, u1])
    return out[:, 0] if squeeze else out


def sample_features(points: np.ndarray, views: list[CameraView]):
    """Project ego points into every feature-carrying view and interpolate.

    Returns (features (M, L, F), valid (M, L)) over the views that carry a
    feature plane; a point is valid in a view when it projects in front of
    the near plane and inside the image rectangle.  Rows of invalid pairs
    are zero.

    A point is also invalid in a view whose reference depth at the nearest
    pixel is more than OCCLUSION_MARGIN closer than the point itself: the
    point sits behind the visible surface and the plane there describes the
    occluder, not it.  Pixels without a valid reference depth are left
    ungated.
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    fdim = rig_feature_dim(views)
    if fdim is None:
        raise InvalidInputError("no view carries a feature plane")
    feat_views = [v for v in views if v.ref_feature is not None]
    m = points.shape[0]
    feats = np.zeros((m, len(feat_views), fdim))
    valid = np.zeros((m, len(feat_views)), dtype=bool)
    for l, v in enumerate(feat_views):
        uv, z, _ = project_points(points, v)
        ok = v.in_image(uv)
        if v.ref_depth is not None and np.any(ok):
            iu, iv = np.rint(uv[ok]).astype(int).T
            ref_z = v.ref_depth[iv, iu]
            known = v.ref_valid[iv, iu]
            ok[np.flatnonzero(ok)[known & (z[ok] > ref_z + OCCLUSION_MARGIN)]] = False
        if np.any(ok):
            feats[ok, l] = bilinear_sample(v.ref_feature, *uv[ok].T)
        valid[:, l] = ok
    return feats, valid


# ---------------------------------------------------------------------------
# Aggregation and the whole-scene pass
# ---------------------------------------------------------------------------

def aggregate(features: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """Per-Gaussian uniform mean of its valid views' features.

    `features` is (m, L, F) and `valid` (m, L): m Gaussians seen from L
    views.  Returns (m, F); a row with no valid view is zero, and the
    caller keeps that Gaussian's previous feature.
    """
    features = np.asarray(features, dtype=np.float64)
    valid = np.asarray(valid, dtype=bool)
    if features.ndim != 3 or valid.shape != features.shape[:2]:
        raise InvalidInputError("features must be (m, L, F) with matching validity")
    w = valid.astype(np.float64)
    totals = w.sum(axis=1)
    w = w / np.where(totals > 0.0, totals, 1.0)[:, None]
    return np.einsum("ml,mlf->mf", w, features)


def refine_scene(scene: GaussianScene, views: list[CameraView]) -> GaussianScene:
    """One center-sample pass over every Gaussian.

    Each Gaussian's feature becomes the uniform mean of the feature planes
    at its center over the views that see it, occlusion gated
    (`sample_features`).  Geometry and layer structure are kept, a Gaussian
    no view sees keeps its feature, and rows go `REFINE_CHUNK` at a time.
    """
    width = rig_feature_dim(views, scene.feature_dim)
    if width != scene.feature_dim:
        raise InvalidInputError(f"refinement writes {width}-wide features into "
                                f"a scene of width {scene.feature_dim}")
    feature = scene.feature.copy()
    for lo in range(0, len(scene), REFINE_CHUNK):
        rows = slice(lo, lo + REFINE_CHUNK)
        feats, valid = sample_features(scene.mu[rows], views)
        seen = valid.any(axis=1)[:, None]
        feature[rows] = np.where(seen, aggregate(feats, valid), feature[rows])
    return scene.replace(feature=feature)
