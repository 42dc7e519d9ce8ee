"""Feature sampling tests: placement, interpolation, aggregation, refinement.

Hand anchors:

* placement is mu + R (s * delta) with |delta|_inf <= 1, so the squared
  Mahalanobis distance delta^T delta never exceeds 3 (checked against an
  explicit Sigma^-1 built from the covariance);
* bilinear at (0.5, 0.5) over texels [[0, 1], [2, 3]] is their plain mean
  1.5; at integer corners it resolves to the corner texel exactly.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from fgs.core import CameraView, GaussianScene, covariance3d
from fgs.errors import InvalidInputError
from fgs.sampling import (aggregate, bilinear_sample, place_samples,
                          refine_scene, sample_features)


def _camera(width=64, height=48, fx=60.0, **kw):
    return CameraView(fx=fx, fy=fx, cx=(width - 1) / 2.0, cy=(height - 1) / 2.0,
                      width=width, height=height, rotation=np.eye(3),
                      translation=np.zeros(3), **kw)


def _gaussian(mu=(0.0, 0.0, 5.0), s=(0.3, 0.2, 0.4), r=(1, 0, 0, 0), sigma=0.8):
    """A one-Gaussian scene."""
    return GaussianScene([mu], [s], [r], [sigma], np.ones((1, 4)))


# ---------------------------------------------------------------------------
# Placement
# ---------------------------------------------------------------------------

def _place(g, offsets):
    """place_samples for a one-Gaussian scene and its (n, 3) offsets."""
    return place_samples(g.mu, g.scale, g.quat, offsets[None])[0]


def test_place_samples_axis_aligned():
    g = _gaussian()
    npt.assert_allclose(_place(g, np.zeros((3, 3))), np.tile(g.mu, (3, 1)))
    moved = _place(g, np.array([[1.0, 0.0, 0.0]]))
    npt.assert_allclose(moved[0], g.mu[0] + [g.scale[0, 0], 0.0, 0.0], atol=1e-12)
    with pytest.raises(InvalidInputError):
        _place(g, np.array([[1.2, 0.0, 0.0]]))
    with pytest.raises(InvalidInputError):
        place_samples(g.mu, g.scale, g.quat, np.zeros((3, 3)))


def test_place_samples_respects_mahalanobis_bound():
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(200):
        g = _gaussian(rng.normal(size=3), rng.uniform(0.05, 2.0, 3), rng.normal(size=4))
        offs = rng.uniform(-1.0, 1.0, size=(50, 3))
        pts = _place(g, offs)
        prec = np.linalg.inv(covariance3d(g.scale[0], g.quat[0]))
        d = pts - g.mu
        q = np.einsum("nd,de,ne->n", d, prec, d)
        worst = max(worst, float(q.max()))
        assert np.all(q <= 3.0 + 1e-9)
    assert worst > 2.0  # the bound is tight, not vacuous


# ---------------------------------------------------------------------------
# Bilinear interpolation
# ---------------------------------------------------------------------------

def test_bilinear_four_texel_average():
    plane = np.array([[0.0, 1.0], [2.0, 3.0]])
    npt.assert_allclose(bilinear_sample(plane, [0.5], [0.5]), [1.5])
    npt.assert_allclose(bilinear_sample(plane, [1.0], [0.0]), [1.0])
    npt.assert_allclose(bilinear_sample(plane, [1.0], [1.0]), [3.0])  # far corner
    npt.assert_allclose(bilinear_sample(plane, [0.25], [0.0]), [0.25])


def test_bilinear_constant_plane_and_channels():
    plane = np.full((5, 7, 3), 2.5)
    us = np.array([0.0, 6.0, 3.3, 1.7])
    vs = np.array([0.0, 4.0, 2.2, 0.1])
    npt.assert_allclose(bilinear_sample(plane, us, vs), 2.5)
    multi = np.stack([np.arange(35.0).reshape(5, 7),
                      np.arange(35.0).reshape(5, 7) * 2], axis=2)
    out = bilinear_sample(multi, [2.5], [1.5])
    npt.assert_allclose(out[0, 1], 2.0 * out[0, 0])


def test_bilinear_matches_scipy_in_the_interior():
    from scipy.ndimage import map_coordinates
    rng = np.random.default_rng(31)
    plane = rng.normal(size=(9, 11))
    u = rng.uniform(0.0, 10.0, size=64)
    v = rng.uniform(0.0, 8.0, size=64)
    want = map_coordinates(plane, np.stack([v, u]), order=1, mode="nearest")
    npt.assert_allclose(bilinear_sample(plane, u, v), want, atol=1e-12)


# ---------------------------------------------------------------------------
# Plane sampling with occlusion gating
# ---------------------------------------------------------------------------

def test_sample_features_exact_pixel_and_bounds():
    feat = np.zeros((2, 2, 3))
    feat[0, 0] = [1.0, 2.0, 3.0]
    feat[1, 1] = [4.0, 5.0, 6.0]
    cam = CameraView(fx=1.0, fy=1.0, cx=0.0, cy=0.0, width=2, height=2,
                     rotation=np.eye(3), translation=np.zeros(3),
                     ref_feature=feat)
    feats, valid = sample_features(np.array([[0.0, 0.0, 1.0],
                                             [0.5, 0.5, 1.0],
                                             [5.0, 0.0, 1.0]]), [cam])
    assert valid.tolist() == [[True], [True], [False]]
    npt.assert_allclose(feats[0, 0], [1.0, 2.0, 3.0])
    npt.assert_allclose(feats[1, 0], np.mean(feat.reshape(4, 3), axis=0))
    npt.assert_array_equal(feats[2, 0], 0.0)
    with pytest.raises(InvalidInputError):
        sample_features(np.zeros((1, 3)), [_camera()])  # no feature plane


def test_sample_features_occlusion_margin():
    feat = np.ones((48, 64, 2))
    depth = np.full((48, 64), 2.0)
    cam = _camera(ref_feature=feat, ref_depth=depth)
    behind = np.array([[0.0, 0.0, 3.0]])
    _, ungated = sample_features(behind, [cam])
    assert ungated[0, 0]
    _, gated = sample_features(behind, [cam], occlusion_margin=0.5)
    assert not gated[0, 0]
    _, loose = sample_features(behind, [cam], occlusion_margin=1.5)
    assert loose[0, 0]
    # unknown reference depth leaves the point ungated
    shy = _camera(ref_feature=feat, ref_depth=depth,
                  ref_valid=np.zeros((48, 64), dtype=bool))
    _, unknown = sample_features(behind, [shy], occlusion_margin=0.5)
    assert unknown[0, 0]
    # a margin of 0 gates at the surface itself; a negative one is refused
    on_surface = np.array([[0.0, 0.0, 2.0]])
    assert sample_features(on_surface, [cam], occlusion_margin=0.0)[1][0, 0]
    for margin in (-1.0, -1e-9, np.nan, np.inf):
        with pytest.raises(InvalidInputError, match="occlusion margin"):
            sample_features(on_surface, [cam], occlusion_margin=margin)


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def test_aggregate_uniform_cases():
    a = np.array([1.0, 2.0])
    b = np.array([3.0, 6.0])
    feats = np.tile(np.stack([a, b])[None], (3, 1, 1))  # 3 Gaussians, 2 views
    valid = np.array([[True, True], [True, False], [False, False]])
    got = aggregate(feats, valid)
    npt.assert_allclose(got[0], (a + b) / 2.0)
    npt.assert_allclose(got[1], a)
    npt.assert_array_equal(got[2], 0.0)           # no valid pair: zero row


# ---------------------------------------------------------------------------
# Whole-scene refinement
# ---------------------------------------------------------------------------

def _plane_views(c1, c2, fdim=4):
    """Two identity-pose cameras with constant feature planes c1 and c2."""
    views = []
    for c in (c1, c2):
        feat = np.full((48, 64, fdim), float(c))
        views.append(_camera(ref_feature=feat,
                             ref_depth=np.full((48, 64), 50.0)))
    return views


def _grid_scene(n=6, fdim=4, z=5.0, seed=0):
    rng = np.random.default_rng(seed)
    mu = np.stack([rng.uniform(-2, 2, n), rng.uniform(-1.5, 1.5, n),
                   np.full(n, z)], axis=1)
    quat = rng.normal(size=(n, 4))
    return GaussianScene(mu, rng.uniform(0.1, 0.3, (n, 3)),
                         quat / np.linalg.norm(quat, axis=1, keepdims=True),
                         rng.uniform(0.2, 0.9, n), rng.normal(size=(n, fdim)))


def _with_unseen_row(scene):
    """`scene` plus one Gaussian behind every camera, with feature 9."""
    behind = GaussianScene(np.array([[0.0, 0.0, -5.0]]), np.full((1, 3), 0.2),
                           np.array([[1.0, 0, 0, 0]]), np.array([0.5]),
                           np.full((1, scene.feature_dim), 9.0))
    return GaussianScene(*(np.concatenate([a, b]) for a, b in zip(
        (scene.mu, scene.scale, scene.quat, scene.opacity, scene.feature),
        (behind.mu, behind.scale, behind.quat, behind.opacity, behind.feature))))


def test_refine_sets_center_sample_mean():
    views = _plane_views(1.0, 3.0)
    scene = _with_unseen_row(_grid_scene())
    out = refine_scene(scene, views)
    npt.assert_array_equal(out.mu, scene.mu)        # geometry untouched
    npt.assert_array_equal(out.scale, scene.scale)
    npt.assert_allclose(out.feature[:-1], 2.0)      # (1 + 3) / 2 everywhere seen
    npt.assert_array_equal(out.feature[-1], 9.0)    # unseen Gaussian kept
    assert out.layer_offsets == scene.layer_offsets


def test_refine_across_chunk_boundaries_matches_per_gaussian_mean(monkeypatch):
    """Rows refined two at a time get the bits of the default chunking, and
    each seen row the plain mean of its center's plane values over the views
    that see it."""
    import fgs.sampling
    rng = np.random.default_rng(6)
    fdim = 4
    views = [replace(v, ref_feature=rng.normal(size=(48, 64, fdim)))
             for v in _plane_views(0.0, 0.0, fdim)]
    scene = _with_unseen_row(_grid_scene(4, fdim=fdim, seed=8))
    whole = refine_scene(scene, views)
    monkeypatch.setattr(fgs.sampling, "REFINE_CHUNK", 2)   # crosses chunk boundaries
    out = refine_scene(scene, views)
    assert np.array_equal(out.feature, whole.feature)

    seen_rows = []
    for i in range(len(scene)):
        feats, valid = sample_features(scene.mu[i:i + 1], views)
        seen = valid[0]
        want = feats[0, seen].mean(axis=0) if seen.any() else scene.feature[i]
        npt.assert_allclose(out.feature[i], want, atol=1e-12)
        seen_rows.append(bool(seen.any()))
    assert seen_rows == [True] * 4 + [False]
    npt.assert_array_equal(out.feature[-1], 9.0)           # unseen row kept
    npt.assert_array_equal(out.mu, scene.mu)


def test_refine_respects_occlusion_margin():
    fdim = 4
    near = _camera(ref_feature=np.full((48, 64, fdim), 5.0),
                   ref_depth=np.full((48, 64), 2.0))
    scene = _grid_scene(3, fdim=fdim, z=4.0)
    out = refine_scene(scene, [near], occlusion_margin=0.5)
    npt.assert_array_equal(out.feature, scene.feature)  # everything occluded
