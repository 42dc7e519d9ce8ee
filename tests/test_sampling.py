"""Feature sampling tests: offsets, placement, interpolation, aggregation.

Hand anchors:

* an MLP with layers [[1], [-1]] -> ReLU -> [[1, 1]] computes
  relu(x) + relu(-x) = |x|;
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

from fgs.core import CameraView, GaussianScene, covariance3d, quats_to_rotmats
from fgs.errors import InvalidInputError, NumericalDegeneracyError
from fgs.sampling import (DecodeHeads, DELTA_MAX, Mlp, N_OFFSETS, S_MIN,
                          aggregate, bilinear_sample, decode_update,
                          gen_offsets, place_samples, refine_scene,
                          sample_features)


def _zero_heads(query_dim=4, feature_dim=4, n_offsets=4):
    z = lambda o, i: (np.zeros((o, i)), np.zeros(o))
    return DecodeHeads(offset=Mlp([z(3 * n_offsets, query_dim)]),
                       feat=Mlp([z(feature_dim, feature_dim)]),
                       geo=Mlp([z(11, feature_dim)]))


def _camera(width=64, height=48, fx=60.0, **kw):
    return CameraView(fx=fx, fy=fx, cx=(width - 1) / 2.0, cy=(height - 1) / 2.0,
                      width=width, height=height, rotation=np.eye(3),
                      translation=np.zeros(3), **kw)


def _gaussian(mu=(0.0, 0.0, 5.0), s=(0.3, 0.2, 0.4), r=(1, 0, 0, 0), sigma=0.8):
    """A one-Gaussian scene."""
    return GaussianScene([mu], [s], [r], [sigma], np.ones((1, 4)))


# ---------------------------------------------------------------------------
# MLPs and heads
# ---------------------------------------------------------------------------

def test_mlp_computes_abs_with_hand_weights():
    mlp = Mlp([(np.array([[1.0], [-1.0]]), np.zeros(2)),
               (np.array([[1.0, 1.0]]), np.zeros(1))])
    for x in (-3.0, -0.5, 0.0, 2.0):
        npt.assert_allclose(mlp(np.array([x])), [abs(x)])
    npt.assert_allclose(mlp(np.array([[-3.0], [2.0]])), [[3.0], [2.0]])


def test_mlp_validation():
    with pytest.raises(InvalidInputError):
        Mlp([])
    with pytest.raises(InvalidInputError):
        Mlp([(np.zeros((2, 3)), np.zeros(3))])  # bias length != out dim
    with pytest.raises(InvalidInputError):
        Mlp([(np.zeros((2, 3)), np.zeros(2)),
             (np.zeros((1, 5)), np.zeros(1))])  # 5 != 2 chain break
    mlp = Mlp([(np.zeros((2, 3)), np.zeros(2))])
    with pytest.raises(InvalidInputError):
        mlp(np.zeros(4))


def test_mlp_seeded_is_deterministic():
    a = Mlp.seeded([4, 8, 3], np.random.default_rng(5))
    b = Mlp.seeded([4, 8, 3], np.random.default_rng(5))
    x = np.random.default_rng(0).normal(size=4)
    npt.assert_array_equal(a(x), b(x))


def test_decode_heads_validation_and_roundtrip():
    heads = DecodeHeads.seeded(4, 6, n_offsets=8, seed=3)
    assert heads.n_offsets == 8
    clone = DecodeHeads.from_tensors(heads.to_tensors())
    x = np.random.default_rng(1).normal(size=4)
    npt.assert_array_equal(clone.offset(x), heads.offset(x))
    f = np.random.default_rng(2).normal(size=6)
    npt.assert_array_equal(clone.geo(f), heads.geo(f))
    npt.assert_array_equal(clone.weights(x), heads.weights(x))
    assert clone.delta_max == heads.delta_max and clone.s_min == heads.s_min

    z = lambda o, i: Mlp([(np.zeros((o, i)), np.zeros(o))])
    with pytest.raises(InvalidInputError):
        DecodeHeads(offset=z(10, 4), feat=z(4, 4), geo=z(11, 4))  # 10 % 3 != 0
    with pytest.raises(InvalidInputError):
        DecodeHeads(offset=z(12, 4), feat=z(4, 4), geo=z(9, 4))   # geo != 11
    with pytest.raises(InvalidInputError):
        DecodeHeads(offset=z(12, 4), feat=z(4, 4), geo=z(11, 4), weights=z(3, 4))
    with pytest.raises(InvalidInputError):
        DecodeHeads.from_tensors({"offset.0.weight": np.zeros((12, 4)),
                                  "offset.0.bias": np.zeros(12)})
    partial = heads.to_tensors()
    del partial["geo.0.bias"]
    with pytest.raises(InvalidInputError, match="geo.0.bias"):
        DecodeHeads.from_tensors(partial)


# ---------------------------------------------------------------------------
# Offsets and placement
# ---------------------------------------------------------------------------

def _place(g, offsets):
    """place_samples for a one-Gaussian scene and its (n, 3) offsets."""
    return place_samples(g.mu, g.scale, g.quat, offsets[None])[0]


def test_gen_offsets_zero_head_and_range():
    heads = _zero_heads()
    npt.assert_array_equal(gen_offsets(np.ones((2, 4)), heads), np.zeros((2, 4, 3)))
    seeded = DecodeHeads.seeded(4, 4, n_offsets=N_OFFSETS, seed=7)
    offs = gen_offsets(np.random.default_rng(0).normal(size=(3, 4)), seeded)
    assert offs.shape == (3, N_OFFSETS, 3)
    assert np.all(np.abs(offs) < 1.0)
    with pytest.raises(InvalidInputError):
        gen_offsets(np.ones(4), seeded)           # one query, not a batch


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
    feats = np.tile(np.stack([a, b])[None, None], (3, 1, 1, 1))  # 3 Gaussians, 1 point, 2 views
    valid = np.array([[[True, True]], [[True, False]], [[False, False]]])
    got = aggregate(feats, valid)
    npt.assert_allclose(got[0], (a + b) / 2.0)
    npt.assert_allclose(got[1], a)
    npt.assert_array_equal(got[2], 0.0)           # no valid pair: zero row


def test_aggregate_matches_softmax_oracle_and_view_permutation():
    rng = np.random.default_rng(12)
    head = Mlp.seeded([5, 16], rng)
    queries = rng.normal(size=(2, 5))
    feats = rng.normal(size=(2, 16, 3, 4))
    valid = rng.random((2, 16, 3)) < 0.6
    valid[:, 0, 0] = True
    got = aggregate(feats, valid, weights_head=head, queries=queries)

    for i in range(2):
        logits = head(queries[i])
        z = np.where(valid[i], logits[:, None], -np.inf)
        w = np.exp(z - z.max())
        w[~valid[i]] = 0.0
        w /= w.sum()
        want = np.einsum("nl,nlf->f", w, feats[i])
        npt.assert_allclose(got[i], want, atol=1e-12)

    perm = [2, 0, 1]
    again = aggregate(feats[:, :, perm], valid[:, :, perm], weights_head=head,
                      queries=queries)
    npt.assert_allclose(again, got, atol=1e-12)


def test_aggregate_requires_query_with_weights_head():
    head = Mlp.seeded([5, 4], np.random.default_rng(0))
    with pytest.raises(InvalidInputError):
        aggregate(np.zeros((1, 4, 2, 3)), np.ones((1, 4, 2), dtype=bool),
                  weights_head=head)


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------

def test_decode_update_zero_heads_fixture():
    heads = _zero_heads()
    g = _gaussian()
    mu, s, r, sigma, f = decode_update(np.ones((1, 4)), heads, g.mu)
    npt.assert_array_equal(mu, g.mu)                           # tanh(0) = 0
    npt.assert_allclose(s[0], np.log(2.0) + S_MIN)             # softplus(0) + floor
    npt.assert_array_equal(r[0], [1, 0, 0, 0])                 # zero-norm fallback
    assert sigma[0] == 0.5                                     # logistic(0)
    npt.assert_array_equal(f[0], 0.0)


def test_decode_update_position_bound():
    rng = np.random.default_rng(3)
    heads = DecodeHeads.seeded(4, 4, n_offsets=4, seed=11)
    g = _gaussian()
    mu, s, _, sigma, _ = decode_update(rng.normal(size=(50, 4)) * 10.0, heads,
                                       np.tile(g.mu, (50, 1)))
    assert np.all(np.abs(mu - g.mu) <= DELTA_MAX)
    assert np.all(s >= S_MIN) and np.all((0.0 < sigma) & (sigma < 1.0))


def test_decode_update_rejects_non_finite():
    heads = _zero_heads()
    heads.geo.layers[0] = (heads.geo.layers[0][0],
                           np.full(11, np.inf))
    with pytest.raises(NumericalDegeneracyError):
        decode_update(np.ones((1, 4)), heads, np.zeros((1, 3)))


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


def test_refine_without_heads_sets_center_sample_mean():
    views = _plane_views(1.0, 3.0)
    scene = _grid_scene()
    behind = GaussianScene(np.array([[0.0, 0.0, -5.0]]), np.full((1, 3), 0.2),
                           np.array([[1.0, 0, 0, 0]]), np.array([0.5]),
                           np.full((1, 4), 9.0))
    scene = GaussianScene(*(np.concatenate([a, b]) for a, b in zip(
        (scene.mu, scene.scale, scene.quat, scene.opacity, scene.feature),
        (behind.mu, behind.scale, behind.quat, behind.opacity, behind.feature))))
    out = refine_scene(scene, views, heads=None)
    npt.assert_array_equal(out.mu, scene.mu)        # geometry untouched
    npt.assert_array_equal(out.scale, scene.scale)
    npt.assert_allclose(out.feature[:-1], 2.0)      # (1 + 3) / 2 everywhere seen
    npt.assert_array_equal(out.feature[-1], 9.0)    # unseen Gaussian kept
    assert out.layer_offsets == scene.layer_offsets


def _refine_one(scene, i, views, heads):
    """Per-Gaussian reference for one decoded refinement step of row i, as
    a one-Gaussian scene.

    Written out from the definitions (tanh offsets, mu + R (s * delta),
    softmax over valid pairs, tanh / softplus / logistic decode) rather
    than through the batched sampling functions.
    """
    mu, s, f = scene.mu[i], scene.scale[i], scene.feature[i]
    offs = np.tanh(heads.offset(f)).reshape(heads.n_offsets, 3)
    pts = mu + (s * offs) @ quats_to_rotmats(scene.quat[i:i + 1])[0].T
    feats, valid = sample_features(pts, views)
    if not np.any(valid):
        return GaussianScene([mu], [s], [scene.quat[i]], [scene.opacity[i]], [f])
    z = np.where(valid, heads.weights(f)[:, None], -np.inf)
    w = np.exp(z - z.max())
    w[~valid] = 0.0
    f_a = np.einsum("nl,nlf->f", w / w.sum(), feats)
    geo = heads.geo(f_a)
    r = geo[6:10] if np.linalg.norm(geo[6:10]) >= 1e-8 else [1.0, 0.0, 0.0, 0.0]
    return GaussianScene([mu + heads.delta_max * np.tanh(geo[0:3])],
                         [np.log1p(np.exp(geo[3:6])) + heads.s_min], [r],
                         [1.0 / (1.0 + np.exp(-geo[10]))], [heads.feat(f_a)])


def test_refine_with_heads_matches_per_gaussian_composition(monkeypatch):
    import fgs.sampling
    monkeypatch.setattr(fgs.sampling, "REFINE_CHUNK", 2)   # crosses chunk boundaries
    rng = np.random.default_rng(6)
    fdim = 4
    views = [replace(v, ref_feature=rng.normal(size=(48, 64, fdim)))
             for v in _plane_views(0.0, 0.0, fdim)]
    scene = _grid_scene(5, fdim=fdim, seed=8)
    heads = DecodeHeads.seeded(fdim, fdim, n_offsets=6, seed=21)
    out = refine_scene(scene, views, heads=heads)

    for i in range(len(scene)):
        expected = _refine_one(scene, i, views, heads)
        npt.assert_allclose(out.mu[i], expected.mu[0], atol=1e-9)
        npt.assert_allclose(out.scale[i], expected.scale[0], atol=1e-9)
        npt.assert_allclose(out.feature[i], expected.feature[0], atol=1e-9)
        npt.assert_allclose(out.opacity[i], expected.opacity[0], atol=1e-9)


def test_refine_with_heads_respects_occlusion_margin():
    fdim = 4
    near = _camera(ref_feature=np.full((48, 64, fdim), 5.0),
                   ref_depth=np.full((48, 64), 2.0))
    scene = _grid_scene(3, fdim=fdim, z=4.0)
    out = refine_scene(scene, [near], heads=None, occlusion_margin=0.5)
    npt.assert_array_equal(out.feature, scene.feature)  # everything occluded
