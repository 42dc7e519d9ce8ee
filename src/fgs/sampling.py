"""Anisotropic per-Gaussian feature sampling and decoding.

Each Gaussian turns its query vector (here: its own feature) into a handful
of offsets inside its unit ball via tanh, places them in the ellipsoid
spanned by its rotation and scales (so every sample stays within Mahalanobis
sqrt(3) <= 3 of the center), reads feature planes from all views by bilinear
interpolation, and aggregates the valid (point, view) pairs with a
softmax-weighted mean.  A set of small affine heads decodes the aggregate
back into a Gaussian update with bounded position shift and floored scales.

The four steps - `gen_offsets`, `place_samples`, `aggregate`,
`decode_update` - work on row batches of m Gaussians at once, and
`refine_scene` composes them over every Gaussian of the scene, in chunks of
`REFINE_CHUNK` rows.

All heads are plain ReLU MLPs with loadable weights; `heads=None` selects the
weight-free fallback: center sampling, uniform aggregation, geometry kept,
feature replaced by the aggregate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (CameraView, GaussianScene, IDENTITY_QUAT, project_points,
                   quats_to_rotmats, rig_feature_dim, unit_quats)
from .errors import InvalidInputError, NumericalDegeneracyError

N_OFFSETS = 16
DELTA_MAX = 2.0   # meters; bound on a decoded position update
S_MIN = 0.01      # meters; floor on decoded scales
REFINE_CHUNK = 2048   # Gaussians per `refine_scene` step
# meters; the occlusion gate's margin in the pipeline's refine stage and in
# `fgs refine` (see `sample_features`)
OCCLUSION_MARGIN = 0.3


# ---------------------------------------------------------------------------
# Affine stacks
# ---------------------------------------------------------------------------

class Mlp:
    """Affine layers with ReLU between them and a raw (linear) output."""

    def __init__(self, layers: list[tuple[np.ndarray, np.ndarray]]):
        if not layers:
            raise InvalidInputError("an MLP needs at least one affine layer")
        self.layers = []
        for w, b in layers:
            w = np.asarray(w, dtype=np.float64)
            b = np.asarray(b, dtype=np.float64)
            if w.ndim != 2 or b.shape != (w.shape[0],):
                raise InvalidInputError("affine layer wants (out, in) weight and (out,) bias")
            self.layers.append((w, b))
        for (w0, _), (w1, _) in zip(self.layers, self.layers[1:]):
            if w1.shape[1] != w0.shape[0]:
                raise InvalidInputError("consecutive layer dimensions do not chain")

    @property
    def in_dim(self) -> int:
        return self.layers[0][0].shape[1]

    @property
    def out_dim(self) -> int:
        return self.layers[-1][0].shape[0]

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        single = x.ndim == 1
        h = x[None, :] if single else x
        if h.shape[1] != self.in_dim:
            raise InvalidInputError(f"MLP expects input dim {self.in_dim}, got {h.shape[1]}")
        for i, (w, b) in enumerate(self.layers):
            h = h @ w.T + b
            if i + 1 < len(self.layers):
                h = np.maximum(h, 0.0)
        return h[0] if single else h

    @classmethod
    def seeded(cls, dims: list[int], rng: np.random.Generator) -> "Mlp":
        layers = []
        for din, dout in zip(dims, dims[1:]):
            layers.append((rng.standard_normal((dout, din)) / np.sqrt(din),
                           np.zeros(dout)))
        return cls(layers)


@dataclass
class DecodeHeads:
    """Bundle of decode-side heads (all consuming the same input width)."""

    offset: Mlp            # query -> 3 * n_offsets, squashed by tanh
    feat: Mlp              # aggregate -> new feature (raw)
    geo: Mlp               # aggregate -> (d_mu[3], s_raw[3], r_raw[4], sigma_raw)
    weights: Mlp | None = None  # query -> one aggregation logit per sample point
    delta_max: float = DELTA_MAX
    s_min: float = S_MIN

    def __post_init__(self):
        if self.offset.out_dim % 3:
            raise InvalidInputError("offset head output must be a multiple of 3")
        if self.geo.out_dim != 11:
            raise InvalidInputError("geometry head must output 11 values")
        if self.weights is not None and self.weights.out_dim != self.n_offsets:
            raise InvalidInputError("weights head must output one logit per sample point")

    @property
    def n_offsets(self) -> int:
        return self.offset.out_dim // 3

    @classmethod
    def seeded(cls, query_dim: int, feature_dim: int, n_offsets: int = N_OFFSETS,
               hidden: tuple[int, ...] = (64,), seed: int = 0) -> "DecodeHeads":
        rng = np.random.default_rng(seed)
        h = list(hidden)
        return cls(
            offset=Mlp.seeded([query_dim, *h, 3 * n_offsets], rng),
            feat=Mlp.seeded([feature_dim, *h, feature_dim], rng),
            geo=Mlp.seeded([feature_dim, *h, 11], rng),
            weights=Mlp.seeded([query_dim, *h, n_offsets], rng),
        )

    # -- sidecar (de)serialization -------------------------------------------
    def to_tensors(self) -> dict[str, np.ndarray]:
        out = {"meta.delta_max": np.array(self.delta_max),
               "meta.s_min": np.array(self.s_min)}
        for name, mlp in (("offset", self.offset), ("feat", self.feat),
                          ("geo", self.geo), ("agg", self.weights)):
            if mlp is None:
                continue
            for i, (w, b) in enumerate(mlp.layers):
                out[f"{name}.{i}.weight"] = w
                out[f"{name}.{i}.bias"] = b
        return out

    @classmethod
    def from_tensors(cls, tensors: dict[str, np.ndarray]) -> "DecodeHeads":
        def build(name):
            n = len([k for k in tensors if k.startswith(f"{name}.") and k.endswith(".weight")])
            keys = [(f"{name}.{i}.weight", f"{name}.{i}.bias") for i in range(n)]
            missing = [k for pair in keys for k in pair if k not in tensors]
            if missing:
                raise InvalidInputError(f"sidecar is missing head tensors {missing}")
            return Mlp([(tensors[w], tensors[b]) for w, b in keys]) if keys else None

        def scalar(name, default):
            v = np.asarray(tensors.get(name, default))
            if v.size != 1:
                raise InvalidInputError(f"sidecar tensor {name} must hold one "
                                        f"value, got shape {v.shape}")
            return float(v.item())
        offset, feat, geo = build("offset"), build("feat"), build("geo")
        if offset is None or feat is None or geo is None:
            raise InvalidInputError("sidecar is missing offset/feat/geo head tensors")
        return cls(offset=offset, feat=feat, geo=geo, weights=build("agg"),
                   delta_max=scalar("meta.delta_max", DELTA_MAX),
                   s_min=scalar("meta.s_min", S_MIN))


# ---------------------------------------------------------------------------
# Offsets and placement
# ---------------------------------------------------------------------------

def gen_offsets(queries: np.ndarray, heads: DecodeHeads) -> np.ndarray:
    """(m, n, 3) offsets in the open unit cube: tanh of the offset head."""
    queries = np.asarray(queries, dtype=np.float64)
    if queries.ndim != 2:
        raise InvalidInputError("queries must be (m, Q)")
    raw = heads.offset(queries)
    return np.tanh(raw).reshape(queries.shape[0], heads.n_offsets, 3)


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


def check_occlusion_margin(occlusion_margin) -> None:
    """An occlusion margin is None or a finite distance of at least 0."""
    if occlusion_margin is not None and not 0 <= occlusion_margin < np.inf:
        raise InvalidInputError(f"occlusion margin must be finite and "
                                f"non-negative, got {occlusion_margin}")


def sample_features(points: np.ndarray, views: list[CameraView],
                    occlusion_margin: float | None = None):
    """Project ego points into every feature-carrying view and interpolate.

    Returns (features (M, L, F), valid (M, L)) over the views that carry a
    feature plane; a point is valid in a view when it projects in front of
    the near plane and inside the image rectangle.  Rows of invalid pairs
    are zero.

    With `occlusion_margin` set, a point is additionally invalid in a view
    whose reference depth at the nearest pixel is more than the margin
    closer than the point itself: the point sits behind the visible surface
    and the plane there describes the occluder, not it.  Pixels without a
    valid reference depth are left ungated.
    """
    check_occlusion_margin(occlusion_margin)
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
        if occlusion_margin is not None and v.ref_depth is not None and np.any(ok):
            iu, iv = np.rint(uv[ok]).astype(int).T
            ref_z = v.ref_depth[iv, iu]
            known = v.ref_valid[iv, iu]
            ok[np.flatnonzero(ok)[known & (z[ok] > ref_z + occlusion_margin)]] = False
        if np.any(ok):
            feats[ok, l] = bilinear_sample(v.ref_feature, *uv[ok].T)
        valid[:, l] = ok
    return feats, valid


# ---------------------------------------------------------------------------
# Aggregation and decoding
# ---------------------------------------------------------------------------

def aggregate(features: np.ndarray, valid: np.ndarray,
              weights_head: Mlp | None = None,
              queries: np.ndarray | None = None) -> np.ndarray:
    """Per-Gaussian softmax-weighted mean of valid (point, view) feature pairs.

    `features` is (m, n, L, F) and `valid` (m, n, L): m Gaussians with n
    sample points each, seen from L views.  Logits come from the weights
    head applied to each Gaussian's query, one per sample point, shared
    across views (so permuting the view list only reorders the summation).
    Without a weights head the mean is uniform.  Returns (m, F); a row with
    no valid pair is zero, and the caller keeps that Gaussian's previous
    state.
    """
    features = np.asarray(features, dtype=np.float64)
    valid = np.asarray(valid, dtype=bool)
    if features.ndim != 4 or valid.shape != features.shape[:3]:
        raise InvalidInputError("features must be (m, n, L, F) with matching validity")
    if weights_head is None:
        w = valid.astype(np.float64)
    else:
        if queries is None:
            raise InvalidInputError("a weights head needs the query vectors")
        logits = weights_head(np.asarray(queries, dtype=np.float64))
        if logits.shape != features.shape[:2]:
            raise InvalidInputError("weights head must emit one logit per sample point")
        z = np.where(valid, logits[:, :, None], -np.inf)
        zmax = z.max(axis=(1, 2), keepdims=True)
        w = np.exp(z - np.where(np.isfinite(zmax), zmax, 0.0))
        w[~valid] = 0.0
    totals = w.sum(axis=(1, 2))
    w = w / np.where(totals > 0.0, totals, 1.0)[:, None, None]
    return np.einsum("mnl,mnlf->mf", w, features)


def decode_update(f_a: np.ndarray, heads: DecodeHeads, mu_prev: np.ndarray):
    """Decode (m, F) aggregated features into the Gaussians' next state.

    Returns (mu, scale, quat, opacity, feature) rows.  Position moves from
    `mu_prev` by at most delta_max per axis (tanh-bounded residual), scales
    are softplus-floored at s_min, opacity is squashed to (0, 1) and the
    orientation is the raw quaternion, normalized once the rows enter a
    scene (identity when its norm vanishes).  The feature head output is
    taken raw.
    """
    from scipy.special import expit  # here, so that `import fgs` loads no SciPy
    f_a = np.asarray(f_a, dtype=np.float64)
    new_f = heads.feat(f_a)
    geo = heads.geo(f_a)
    if not (np.all(np.isfinite(geo)) and np.all(np.isfinite(new_f))):
        raise NumericalDegeneracyError("decode heads produced non-finite values")
    mu = mu_prev + heads.delta_max * np.tanh(geo[:, 0:3])
    s = np.logaddexp(0.0, geo[:, 3:6]) + heads.s_min
    r_raw = geo[:, 6:10]
    r = np.where(unit_quats(r_raw)[1][:, None], IDENTITY_QUAT, r_raw)
    return mu, s, r, expit(geo[:, 10]), new_f


# ---------------------------------------------------------------------------
# Whole-scene refinement pass
# ---------------------------------------------------------------------------

def refine_scene(scene: GaussianScene, views: list[CameraView],
                 heads: DecodeHeads | None = None,
                 occlusion_margin: float | None = None) -> GaussianScene:
    """One sampling + aggregation (+ decode) pass over every Gaussian.

    With heads, each Gaussian is replaced by its decoded update; without heads,
    geometry is kept and the feature becomes the uniform aggregate of the
    center sample across views.  Gaussians with zero valid pairs are kept
    unchanged either way.  Layer structure is preserved, and rows go
    `REFINE_CHUNK` at a time.  `occlusion_margin` is forwarded to the plane
    sampler.
    """
    width = (heads.feat.out_dim if heads is not None
             else rig_feature_dim(views, scene.feature_dim))
    if width != scene.feature_dim:
        raise InvalidInputError(f"refinement writes {width}-wide features into "
                                f"a scene of width {scene.feature_dim}")
    out = [a.copy() for a in (scene.mu, scene.scale, scene.quat,
                              scene.opacity, scene.feature)]
    for lo in range(0, len(scene), REFINE_CHUNK):
        sel = np.arange(lo, min(lo + REFINE_CHUNK, len(scene)))
        queries = scene.feature[sel]
        if heads is None:
            pts = scene.mu[sel][:, None, :]                      # center sample only
        else:
            pts = place_samples(scene.mu[sel], scene.scale[sel], scene.quat[sel],
                                gen_offsets(queries, heads))
        m, n = pts.shape[:2]
        feats, valid = sample_features(pts.reshape(-1, 3), views,
                                       occlusion_margin=occlusion_margin)
        feats = feats.reshape(m, n, feats.shape[1], -1)
        valid = valid.reshape(m, n, -1)
        f_a = aggregate(feats, valid, None if heads is None else heads.weights,
                        queries)
        seen = valid.any(axis=(1, 2))
        upd = sel[seen]
        if heads is None:
            out[4][upd] = f_a[seen]                              # feature only
        else:
            for dst, val in zip(out, decode_update(f_a[seen], heads, scene.mu[upd])):
                dst[upd] = val

    return GaussianScene(*out, scene.layer_offsets)
