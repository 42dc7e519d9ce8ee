"""Rasterizer tests: footprint projection, blend weights, and both renderers.

Hand-computed anchors used below:

* isotropic Gaussian on the optical axis, s = 0.1 m, depth 5 m, fx = fy = 500:
  the projection Jacobian is diag(fx/z, fy/z) = diag(100, 100) on axis, so
  cov2d = (0.1 * 100)^2 I + 0.3 I = diag(100.3, 100.3);
* two on-axis Gaussians at depths 2 and 4 with opacity 0.6 seen at the
  principal pixel: alpha_1 = alpha_2 = 0.6, w_1 = 0.6, w_2 = 0.6 * 0.4 = 0.24,
  so depth = (0.6*2 + 0.24*4) / 0.84 = 18/7 and acc_alpha = 0.84;
* a stack of opacity-0.99 Gaussians saturates transmittance after three:
  T before the fourth is 0.01^3 = 1e-6 < the 1e-4 floor, so only the first
  three contribute.
"""

from __future__ import annotations

import warnings

import numpy as np
import numpy.testing as npt
import pytest

from fgs import raster
from fgs.core import Z_NEAR, CameraView, GaussianScene, quats_to_rotmats
from fgs.errors import InvalidInputError, NumericalDegeneracyError
from fgs.raster import (ALPHA_FLOOR, ALPHA_MAX, EPS_ACC, LOW_PASS, SUPPORT_RADIUS,
                        Projected2D, T_STOP, TILE, _ProjectedArrays, _alpha_block,
                        _bin_rows, _finish, _project_scene, _tile_min_q, alpha_at,
                        project_gaussian, render, render_oracle)


def _camera(fx=500.0, fy=500.0, cx=32.0, cy=24.0, width=64, height=48):
    return CameraView(fx=fx, fy=fy, cx=cx, cy=cy, width=width, height=height,
                      rotation=np.eye(3), translation=np.zeros(3))


def _axis_scene(zs, opacity, feature_rows, s=0.5):
    zs = np.asarray(zs, dtype=np.float64)
    n = zs.size
    return GaussianScene(
        mu=np.stack([np.zeros(n), np.zeros(n), zs], axis=1),
        scale=np.full((n, 3), s),
        quat=np.tile([1.0, 0.0, 0.0, 0.0], (n, 1)),
        opacity=np.full(n, opacity) if np.isscalar(opacity) else np.asarray(opacity),
        feature=np.asarray(feature_rows, dtype=np.float64),
    )


def _random_scene(rng, n, fdim=6):
    quat = rng.normal(size=(n, 4))
    return GaussianScene(
        mu=rng.uniform([-3.0, -2.0, 0.8], [3.0, 2.0, 9.0], size=(n, 3)),
        scale=rng.uniform(0.05, 0.4, size=(n, 3)),
        quat=quat / np.linalg.norm(quat, axis=1, keepdims=True),
        opacity=rng.uniform(0.1, 0.99, size=n),
        feature=rng.normal(size=(n, fdim)),
    )


# ---------------------------------------------------------------------------
# Projection
# ---------------------------------------------------------------------------

def test_on_axis_footprint_matches_jacobian_arithmetic():
    scene = GaussianScene([[9.0, 9.0, 9.0], [0, 0, 5.0]], [[0.2] * 3, [0.1] * 3],
                          [[1, 0, 0, 0]] * 2, [0.5, 0.8], np.ones((2, 2)))
    p = project_gaussian(scene, 1, _camera())
    assert p is not None and p.source_index == 1
    npt.assert_allclose(p.mean2d, [32.0, 24.0], atol=1e-12)
    npt.assert_allclose(p.cov2d, np.diag([100.3, 100.3]), atol=1e-9)
    assert p.z_cam == 5.0 and p.opacity == 0.8
    for i in (-1, 2):
        with pytest.raises(InvalidInputError):
            project_gaussian(scene, i, _camera())


def _einsum_footprints(scene, cam):
    """The footprint chain with the two (n, 3, 3) einsums, written out:
    A = W R diag(s) and J A as einsums over j, culled and sorted as
    `_project_scene` does.  Returns (cov, z, src) of the survivors."""
    pc = cam.ego_to_cam(scene.mu)
    front = pc[:, 2] > Z_NEAR
    idx = np.nonzero(front)[0]
    pc = pc[front]
    z = pc[:, 2]
    u, v = cam.cam_to_pixel(pc)
    rot = quats_to_rotmats(scene.quat[front])
    a3 = np.einsum("ij,njk->nik", cam.rotation.T, rot) * scene.scale[front][:, None, :]
    inv_z = 1.0 / z
    j = np.zeros((z.size, 2, 3))
    j[:, 0, 0] = cam.fx * inv_z
    j[:, 0, 2] = -cam.fx * pc[:, 0] * inv_z * inv_z
    j[:, 1, 1] = cam.fy * inv_z
    j[:, 1, 2] = -cam.fy * pc[:, 1] * inv_z * inv_z
    b = np.einsum("nij,njk->nik", j, a3)
    cov = np.stack([np.einsum("nk,nk->n", b[:, 0], b[:, 0]) + LOW_PASS,
                    np.einsum("nk,nk->n", b[:, 0], b[:, 1]),
                    np.einsum("nk,nk->n", b[:, 1], b[:, 1]) + LOW_PASS], axis=1)
    rx, ry = SUPPORT_RADIUS * np.sqrt(cov[:, 0]), SUPPORT_RADIUS * np.sqrt(cov[:, 2])
    keep = (np.isfinite(cov).all(axis=1)
            & (u + rx >= 0.0) & (u - rx <= cam.width - 1.0)
            & (v + ry >= 0.0) & (v - ry <= cam.height - 1.0))
    order = np.lexsort((idx[keep], z[keep]))
    return cov[keep][order], z[keep][order], idx[keep][order]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_projection_has_the_bits_of_the_einsum_chain(seed):
    """`_project_scene` sums A = W R diag(s) and J A column by column: its
    cov, z and src equal the einsum chain's bit for bit, with the same
    survivors, on random anisotropic scenes seen from rotated, moved
    cameras.  A fifth of the rows has scales of 1e100-1e200, whose
    covariance passes 2^500 or overflows (and is dropped)."""
    rng = np.random.default_rng(seed)
    n = 2000
    scale = rng.uniform(0.01, 0.6, size=(n, 3))
    huge = rng.random(n) < 0.2
    scale[huge] *= 10.0 ** rng.uniform(100.0, 200.0, size=(huge.sum(), 1))
    scene = GaussianScene(mu=rng.uniform([-4.0, -3.0, -2.0], [4.0, 3.0, 10.0], size=(n, 3)),
                          scale=scale, quat=rng.normal(size=(n, 4)),
                          opacity=rng.uniform(0.1, 0.9, size=n), feature=np.zeros((n, 2)))
    survivors = []
    for turn in rng.normal(size=(4, 4)):
        cam = CameraView(fx=rng.uniform(30.0, 80.0), fy=rng.uniform(30.0, 80.0),
                         cx=23.0, cy=16.0, width=47, height=33,
                         rotation=quats_to_rotmats(turn[None])[0],
                         translation=rng.normal(size=3) * 0.5)
        proj = _project_scene(scene, cam)
        with np.errstate(over="ignore", invalid="ignore"):
            cov, z, src = _einsum_footprints(scene, cam)
        assert np.array_equal(proj.src, src)
        assert np.array_equal(proj.z, z)
        assert np.array_equal(proj.cov, cov)
        survivors.append((src.size, int(huge[src].sum()), np.fmax(cov[:, 0], cov[:, 2]).max()))
    # every view keeps huge rows and drops some rows; rows past 2^500 survive
    assert all(0 < kept < n and big > 0 for kept, big, _ in survivors)
    assert max(top for _, _, top in survivors) > 2.0 ** 500


def test_projection_culls_behind_and_offscreen():
    scene = GaussianScene([[0, 0, -5.0], [0, 0, 0.1], [10.0, 0, 5.0]],
                          [[0.1] * 3, [0.1] * 3, [0.01] * 3], [[1, 0, 0, 0]] * 3,
                          [0.8] * 3, np.ones((3, 2)))
    cam = _camera()
    assert project_gaussian(scene, 0, cam) is None  # behind
    assert project_gaussian(scene, 1, cam) is None  # at the plane: z > z_near is strict
    assert project_gaussian(scene, 2, cam) is None  # ~1000 px past the border


def test_alpha_at_fixtures():
    p = Projected2D(np.array([0.0, 0.0]), np.eye(2), 5.0, 0.8, 0)
    assert alpha_at(p, (0.0, 0.0)) == 0.8                       # zero offset
    one_sigma = Projected2D(np.array([0.0, 0.0]), np.eye(2), 5.0, 1.0, 0)
    npt.assert_allclose(alpha_at(one_sigma, (1.0, 0.0)), np.exp(-0.5))
    assert alpha_at(one_sigma, (3.1, 0.0)) == 0.0               # beyond 3 sigma
    transparent = Projected2D(np.array([0.0, 0.0]), np.eye(2), 5.0, 0.0, 0)
    assert alpha_at(transparent, (0.0, 0.0)) == 0.0             # below 1/255 floor
    saturating = Projected2D(np.array([0.0, 0.0]), np.eye(2), 5.0, 1.0, 0)
    assert alpha_at(saturating, (0.0, 0.0)) == ALPHA_MAX        # capped at 0.99
    faint = Projected2D(np.array([0.0, 0.0]), np.eye(2), 5.0, ALPHA_FLOOR / 2, 0)
    assert alpha_at(faint, (0.0, 0.0)) == 0.0


def test_alpha_block_is_the_opacity_multiply_inside_the_support():
    """Pinned bit for bit against min(0.99, opacity * exp(-q/2)): pairs past
    the 3-sigma support (q = 9.0601 would still clear the floor at opacity
    1) or beyond exp's normal range, pairs below the 1/255 floor, and a NaN
    q all give alpha exactly 0."""
    proj = _ProjectedArrays(np.array([[0.0, 0.0], [0.0, 0.0], [np.nan, 0.0]]),
                            np.array([[1.0, 0.0, 1.0]] * 3),
                            np.array([5.0, 6.0, 7.0]), np.array([1.0, 0.028, 0.9]),
                            np.arange(3))
    us = np.array([0.0, 1.0, 2.0, 3.0, 3.01, 60.0])
    alpha = _alpha_block(proj, np.arange(3)[:, None], us, np.zeros(6))
    q = us * us
    assert np.array_equal(alpha[0, :4], np.minimum(1.0 * np.exp(-0.5 * q[:4]), ALPHA_MAX))
    assert np.array_equal(alpha[0, 4:], [0.0, 0.0])
    assert np.array_equal(alpha[1, :2], 0.028 * np.exp(-0.5 * q[:2]))
    assert 0.028 * np.exp(-2.0) < ALPHA_FLOOR and np.array_equal(alpha[1, 2:], np.zeros(4))
    assert np.array_equal(alpha[2], np.zeros(6))       # NaN q


def test_alpha_at_rejects_singular_footprint():
    p = Projected2D(np.array([0.0, 0.0]), np.zeros((2, 2)), 5.0, 0.8, 0)
    with pytest.raises(NumericalDegeneracyError):
        alpha_at(p, (0.0, 0.0))
    # the renderers' rule, relative to a c = 1e12: det ~ 20 is below
    # 1e-10 a c (though far above any absolute floor), det ~ 2000 is not
    for off, singular in ((1e-5, True), (1e-3, False)):
        b = 1e6 - off
        p = Projected2D(np.array([0.0, 0.0]), np.array([[1e6, b], [b, 1e6]]), 5.0, 0.8, 0)
        if singular:
            with pytest.raises(NumericalDegeneracyError):
                alpha_at(p, (0.0, 0.0))
        else:
            assert alpha_at(p, (0.0, 0.0)) == 0.8


# ---------------------------------------------------------------------------
# Blending
# ---------------------------------------------------------------------------

def test_render_empty_scene():
    out = render(GaussianScene.empty(4), _camera())
    assert not out.valid.any()
    npt.assert_array_equal(out.depth, 0.0)
    npt.assert_array_equal(out.feature, 0.0)
    npt.assert_array_equal(out.acc_alpha, 0.0)


def test_single_gaussian_center_pixel_depth_exact():
    f = np.array([[1.0, -2.0, 3.0]])
    scene = _axis_scene([5.0], 1.0, f)
    out = render(scene, _camera())
    assert out.valid[24, 32]
    assert out.depth[24, 32] == 5.0                     # single-term ratio, clamped
    npt.assert_allclose(out.feature[24, 32], 0.99 * f[0], atol=1e-15)
    npt.assert_allclose(out.acc_alpha[24, 32], 0.99)


def test_two_gaussian_hand_blend():
    f = np.array([[1.0, 0.0], [0.0, 1.0]])
    scene = _axis_scene([2.0, 4.0], 0.6, f)
    out = render(scene, _camera())
    npt.assert_allclose(out.depth[24, 32], 18.0 / 7.0, atol=1e-12)
    npt.assert_allclose(out.acc_alpha[24, 32], 0.84, atol=1e-12)
    npt.assert_allclose(out.feature[24, 32], [0.6, 0.24], atol=1e-12)


def test_equal_depth_ties_blend_in_index_order():
    f = np.array([[1.0, 0.0], [0.0, 1.0]])
    scene = _axis_scene([3.0, 3.0], [0.8, 0.5], f)
    out = render(scene, _camera())
    # index 0 blends first: w0 = 0.8, w1 = 0.5 * (1 - 0.8) = 0.1
    npt.assert_allclose(out.feature[24, 32], [0.8, 0.1], atol=1e-12)
    npt.assert_allclose(out.acc_alpha[24, 32], 0.9, atol=1e-12)


def test_transmittance_floor_stops_contributions():
    n = 8
    zs = 2.0 + np.arange(n, dtype=np.float64)
    feats = np.eye(n)
    scene = _axis_scene(zs, 0.99, feats, s=0.3)
    out = render(scene, _camera())
    w = out.feature[24, 32]
    npt.assert_allclose(w[:3], [0.99, 0.99 * 0.01, 0.99 * 1e-4], atol=1e-12)
    npt.assert_array_equal(w[3:], 0.0)   # T fell below the 1e-4 floor
    assert 2.0 <= out.depth[24, 32] <= 4.0
    oracle = render_oracle(scene, _camera())
    npt.assert_allclose(out.depth, oracle.depth, atol=1e-12)


def test_validity_threshold_on_tiny_mass():
    # One Gaussian whose center alpha is just above the 1/255 floor: the pixel
    # mass stays below EPS_ACC only when alpha itself is zeroed by the floor.
    scene = _axis_scene([5.0], ALPHA_FLOOR * 0.99, np.ones((1, 2)))
    out = render(scene, _camera())
    assert not out.valid.any()
    scene2 = _axis_scene([5.0], 0.01, np.ones((1, 2)))
    out2 = render(scene2, _camera())
    assert out2.valid[24, 32] and out2.acc_alpha[24, 32] >= EPS_ACC


def test_render_rejects_bad_tile_and_threads():
    # the tile is the constant TILE: no tile size can be passed
    scene = _axis_scene([5.0], 0.5, np.ones((1, 2)))
    with pytest.raises(TypeError):
        render(scene, _camera(), tile=16)
    with pytest.raises(InvalidInputError):
        render(scene, _camera(), threads=0)


# ---------------------------------------------------------------------------
# Tiled path against the per-pixel oracle
# ---------------------------------------------------------------------------

def test_tiled_matches_oracle_on_random_scenes():
    rng = np.random.default_rng(1234)
    for (h, w) in ((48, 64), (33, 47), (16, 16)):
        cam = CameraView(fx=60.0, fy=55.0, cx=(w - 1) / 2, cy=(h - 1) / 2,
                         width=w, height=h, rotation=np.eye(3),
                         translation=np.zeros(3))
        scene = _random_scene(rng, 80)
        a = render(scene, cam)
        b = render_oracle(scene, cam)
        npt.assert_array_equal(a.valid, b.valid)
        npt.assert_allclose(a.depth, b.depth, atol=1e-9)
        npt.assert_allclose(a.feature, b.feature, atol=1e-9)
        npt.assert_allclose(a.acc_alpha, b.acc_alpha, atol=1e-9)
        assert np.all(np.isfinite(a.depth))  # invalid pixels hold 0, never NaN


@pytest.mark.parametrize("scale, quat", [
    pytest.param([1e150] * 3, [1.0, 0.0, 0.0, 0.0], id="1e+150"),
    pytest.param([1e200] * 3, [1.0, 0.0, 0.0, 0.0], id="1e+200"),
    pytest.param([1e100, 1e98, 5e99], [0.9, 0.2, 0.3, 0.25], id="rotated-1e+100"),
])
def test_huge_footprints_render_as_the_oracle_does(scale, quat):
    """At 1e150 the footprint's box is far past the int range and a * c
    would overflow: the row is scaled for q, and it covers the view.  At
    1e200 its covariance overflows too, and both renderers drop it.  Rotated
    at 1e100, a * c and b * b would both overflow (inf - inf); scaled, the
    det is finite and the footprint covers the view.  Either way no warning
    escapes."""
    w, h = 47, 33
    cam = CameraView(fx=40.0, fy=40.0, cx=(w - 1) / 2, cy=(h - 1) / 2, width=w, height=h,
                     rotation=np.eye(3), translation=np.zeros(3))
    quat = np.array(quat) / np.linalg.norm(quat)
    scene = GaussianScene(mu=np.array([[0.3, -0.2, 4.0], [0.0, 0.0, 5.0]]),
                          scale=np.array([[0.2, 0.3, 0.2], scale]),
                          quat=np.array([[1.0, 0.0, 0.0, 0.0], quat]),
                          opacity=np.array([0.7, 0.5]),
                          feature=np.array([[1.0, 0.0], [0.0, 1.0]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = render(scene, cam)
    ref = render_oracle(scene, cam)
    npt.assert_array_equal(out.valid, ref.valid)
    assert out.valid.all() == (scale[0] != 1e200) and out.valid.any()
    for name in ("depth", "feature", "acc_alpha"):
        npt.assert_allclose(getattr(out, name), getattr(ref, name), rtol=0, atol=1e-9)


@pytest.mark.parametrize("quat", [[1.0, 0.0, 0.0, 0.0], [0.9, 0.2, 0.3, 0.25]],
                         ids=["identity", "rotated"])
def test_overflow_sweep_renders_as_the_oracle_does(quat):
    """Scales (s, s/2, s/5) at z = 5, s from 1e140 to 1e160: q's numerator
    c du du + a dv dv passes the float range near s = 1e152, where an
    unscaled row drew fewer pixels than the oracle; from 1e154 the
    covariance itself overflows and both renderers drop the footprint.
    Every scale agrees with the oracle to criterion 01's 1e-5, and no
    warning escapes."""
    w, h = 47, 33
    cam = CameraView(fx=40.0, fy=40.0, cx=(w - 1) / 2, cy=(h - 1) / 2, width=w, height=h,
                     rotation=np.eye(3), translation=np.zeros(3))
    quat = np.array([quat]) / np.linalg.norm(quat)
    drawn = []
    for s in 10.0 ** np.arange(140, 161):
        scene = GaussianScene(mu=np.array([[0.0, 0.0, 5.0]]),
                              scale=np.array([[s, s / 2, s / 5]]), quat=quat,
                              opacity=np.array([0.5]), feature=np.array([[1.0, 0.0]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = render(scene, cam)
        ref = render_oracle(scene, cam)
        npt.assert_array_equal(out.valid, ref.valid, err_msg=f"s = {s:g}")
        for name in ("depth", "feature", "acc_alpha"):
            npt.assert_allclose(getattr(out, name), getattr(ref, name), rtol=0,
                                atol=1e-5, err_msg=f"{name}, s = {s:g}")
        drawn.append(int(out.valid.sum()))
    assert drawn == [w * h] * 14 + [0] * 7     # 1e140..1e153 cover the view


def test_render_rejects_a_singular_footprint():
    """A needle 1e8 m long and 1e-3 m thin, turned 45 degrees about the
    optical axis at z = 5: its footprint's a * c and b * b round to the
    same value, so its det is exactly 0.  Both renderers refuse it by the
    same rule; the oracle does not reach its matrix inverse."""
    cam = _camera(fx=40.0, fy=40.0, cx=23.0, cy=16.0, width=47, height=33)
    turn = np.pi / 8
    scene = GaussianScene(mu=np.array([[0.0, 0.0, 5.0]]), scale=np.array([[1e8, 1e-3, 1e-3]]),
                          quat=np.array([[np.cos(turn), 0.0, 0.0, np.sin(turn)]]),
                          opacity=np.array([0.5]), feature=np.array([[1.0, 0.0]]))
    assert _project_scene(scene, cam).det.tolist() == [0.0]
    for renderer in (render, render_oracle):
        with pytest.raises(NumericalDegeneracyError):
            renderer(scene, cam)


@pytest.mark.parametrize("quat", [[1.0, 0.0, 0.0, 0.0], [0.9, 0.2, 0.3, 0.25],
                                  [np.cos(np.pi / 16), 0.0, 0.0, np.sin(np.pi / 16)]],
                         ids=["identity", "rotated", "turned"])
def test_singular_sweep_renders_as_the_oracle_does_or_both_refuse(quat):
    """One Gaussian of scales (s, 0.4, 0.4), s = 1e6, 1e8, ..., 1e152, at
    z = 5.  Turned off the image axes, its footprint's minor eigenvalue
    sinks below the rounding of a c, and an absolute rule on det let some
    rounding noise through: `render` drew those footprints while the
    oracle's inverse raised NumPy's LinAlgError, or the two disagreed.  Every
    case is now refused by both renderers, or drawn by both to criterion
    01's 1e-5; on the axes (identity) every case is drawn."""
    w, h = 47, 33
    cam = _camera(fx=40.0, fy=40.0, cx=(w - 1) / 2, cy=(h - 1) / 2, width=w, height=h)
    quat = np.array([quat]) / np.linalg.norm(quat)
    drawn = 0
    for k in range(6, 153, 2):
        scene = GaussianScene(mu=np.array([[0.0, 0.0, 5.0]]),
                              scale=np.array([[10.0 ** k, 0.4, 0.4]]), quat=quat,
                              opacity=np.array([0.5]), feature=np.array([[1.0, 0.0]]))
        try:
            out = render(scene, cam)
        except NumericalDegeneracyError:
            with pytest.raises(NumericalDegeneracyError):
                render_oracle(scene, cam)
            continue
        ref = render_oracle(scene, cam)
        npt.assert_array_equal(out.valid, ref.valid, err_msg=f"s = 1e{k}")
        for name in ("depth", "feature", "acc_alpha"):
            npt.assert_allclose(getattr(out, name), getattr(ref, name), rtol=0,
                                atol=1e-5, err_msg=f"{name}, s = 1e{k}")
        drawn += 1
    if quat[0, 0] == 1.0:
        assert drawn == 74


def test_render_invariant_to_tile_size_and_threads():
    # render's 8x8 tiles against the one-tile-at-a-time blend on other tiles
    rng = np.random.default_rng(77)
    scene = _random_scene(rng, 120)
    cam = _camera(fx=60.0, fy=60.0, cx=31.5, cy=23.5)
    base = render(scene, cam)
    for tile in (5, 11, 64):
        other = _reference_render(scene, cam, tile=tile)
        npt.assert_allclose(other.depth, base.depth, atol=1e-12)
        npt.assert_allclose(other.feature, base.feature, atol=1e-12)
    threaded = render(scene, cam, threads=4)
    for name in ("depth", "feature", "acc_alpha", "valid"):
        npt.assert_array_equal(getattr(threaded, name), getattr(base, name))


def _replay_pixel(scene, cam, u, v):
    """Independent per-pixel front-to-back blend via the public scalar API."""
    projected = []
    for i in range(len(scene)):
        p = project_gaussian(scene, i, cam)
        if p is not None:
            projected.append(p)
    projected.sort(key=lambda p: (p.z_cam, p.source_index))
    t = 1.0
    num = den = 0.0
    zs = []
    for p in projected:
        a = alpha_at(p, (u, v))
        w = a * t if t >= T_STOP else 0.0
        if w > 0.0:
            num += w * p.z_cam
            den += w
            zs.append(p.z_cam)
        t *= 1.0 - a
    return num, den, zs


def test_depth_is_convex_combination_of_contributors():
    rng = np.random.default_rng(5150)
    scene = _random_scene(rng, 60)
    cam = _camera(fx=60.0, fy=60.0, cx=31.5, cy=23.5)
    out = render(scene, cam)
    vs, us = np.nonzero(out.valid)
    order = rng.permutation(vs.size)[:100]
    for v, u in zip(vs[order], us[order]):
        num, den, zs = _replay_pixel(scene, cam, float(u), float(v))
        assert den >= EPS_ACC and zs
        assert min(zs) <= out.depth[v, u] <= max(zs)   # exact containment
        npt.assert_allclose(out.depth[v, u],
                            np.clip(num / den, min(zs), max(zs)), atol=1e-9)


# ---------------------------------------------------------------------------
# The grouped blend against a blend of one tile at a time, bit for bit
# ---------------------------------------------------------------------------

def _box_keys(proj, tile, w, h):
    """Every (tile id, row) of each footprint's 3-sigma box, written out."""
    ntx, nty = (w + tile - 1) // tile, (h + tile - 1) // tile
    rx = SUPPORT_RADIUS * np.sqrt(proj.cov[:, 0])
    ry = SUPPORT_RADIUS * np.sqrt(proj.cov[:, 2])
    # clipped before the cast: a box past the int range would wrap
    tx0 = np.clip((proj.mean2d[:, 0] - rx) // tile, 0, ntx - 1).astype(int)
    tx1 = np.clip((proj.mean2d[:, 0] + rx) // tile, 0, ntx - 1).astype(int)
    ty0 = np.clip((proj.mean2d[:, 1] - ry) // tile, 0, nty - 1).astype(int)
    ty1 = np.clip((proj.mean2d[:, 1] + ry) // tile, 0, nty - 1).astype(int)
    return [(ty * ntx + tx, i) for i in range(proj.z.size)
            for ty in range(ty0[i], ty1[i] + 1)
            for tx in range(tx0[i], tx1[i] + 1)]


def _tile_reached(proj, reach, i, tx, ty, tile, w, h):
    """The culling rule on one (tile, row) key in scalar arithmetic: keep
    the row unless q exceeds its reach over the whole rectangle of the
    tile's pixel centres, whose minimum is 0 when the footprint centre lies
    inside and otherwise the least of the four edge minima."""
    a, b, c = (float(x) for x in proj.cov[i])
    mx, my = (float(x) for x in proj.mean2d[i])
    x0, x1 = tx * tile - mx, min(tx * tile + tile, w) - 1 - mx
    y0, y1 = ty * tile - my, min(ty * tile + tile, h) - 1 - my
    det = a * c - b * b

    def q(du, dv):
        return (c * du * du - 2.0 * b * du * dv + a * dv * dv) / det

    def clamp(x, lo, hi):
        return min(max(x, lo), hi)
    if x0 <= 0.0 <= x1 and y0 <= 0.0 <= y1:
        qmin = 0.0
    else:
        qmin = min(q(x0, clamp(b * x0 / a, y0, y1)), q(x1, clamp(b * x1 / a, y0, y1)),
                   q(clamp(b * y0 / c, x0, x1), y0), q(clamp(b * y1 / c, x0, x1), y1))
    return not qmin > reach[i]


def _reference_render(scene, cam, tile=TILE, chunk=64, cull=True):
    """The tiled renderer, one tile at a time and written out.

    Footprints are binned by a Python loop over their 3-sigma boxes, which
    keeps (with `cull`) only the tiles the row's support can reach
    (`_tile_reached`), every chunk blends every pixel of the tile's full
    `tile` x `tile` lattice until all of them are saturated, and the depth
    range comes from np.where reductions.  Lattice pixels outside the image
    start with T = 0 and are dropped before the sums are written.
    """
    proj = _project_scene(scene, cam)
    h, w, fdim = cam.height, cam.width, scene.feature_dim
    num, den = np.zeros(h * w), np.zeros(h * w)
    feat = np.zeros((fdim, h * w))
    zmin, zmax = np.full(h * w, np.inf), np.full(h * w, -np.inf)
    ntx, nty = (w + tile - 1) // tile, (h + tile - 1) // tile
    # a row's reach: alpha is 0 beyond q = 9 and below the 1/255 floor,
    # widened by a margin above q's rounding error
    with np.errstate(divide="ignore"):
        reach = np.minimum(SUPPORT_RADIUS * SUPPORT_RADIUS,
                           2.0 * np.log(proj.opacity / ALPHA_FLOOR))
    reach += 1e-12 * (1.0 + (proj.cov[:, 0] + proj.cov[:, 2]) / LOW_PASS)
    bins = [[] for _ in range(ntx * nty)]
    for t, i in _box_keys(proj, tile, w, h):
        ty, tx = divmod(t, ntx)
        if not cull or _tile_reached(proj, reach, i, tx, ty, tile, w, h):
            bins[t].append(i)
    for t, rows in enumerate(bins):
        if not rows:
            continue
        ty, tx = divmod(t, ntx)
        uu, vv = np.meshgrid(np.arange(tx * tile, (tx + 1) * tile, dtype=np.float64),
                             np.arange(ty * tile, (ty + 1) * tile, dtype=np.float64))
        us, vs = uu.ravel(), vv.ravel()
        inside_image = (us < w) & (vs < h)
        flat = (vs * w + us).astype(int)[inside_image]
        t_run = np.where(inside_image, 1.0, 0.0)
        for lo in range(0, len(rows), chunk):
            sub = np.asarray(rows[lo:lo + chunk])
            a, b, c = (proj.cov[sub, k][:, None] for k in range(3))
            du = us[None, :] - proj.mean2d[sub, 0][:, None]
            dv = vs[None, :] - proj.mean2d[sub, 1][:, None]
            q = (c * du * du - 2.0 * b * du * dv + a * dv * dv) / (a * c - b * b)
            inside = q <= SUPPORT_RADIUS * SUPPORT_RADIUS
            with np.errstate(under="ignore"):
                alpha = proj.opacity[sub][:, None] * np.exp(np.where(inside, -0.5 * q, -np.inf))
            np.minimum(alpha, ALPHA_MAX, out=alpha)
            alpha[alpha < ALPHA_FLOOR] = 0.0
            cum = np.cumprod(1.0 - alpha, axis=0)
            t_before = np.empty_like(cum)
            t_before[0] = t_run
            t_before[1:] = cum[:-1] * t_run
            wgt = alpha * t_before
            wgt[t_before < T_STOP] = 0.0
            num[flat] += (proj.z[sub] @ wgt)[inside_image]
            den[flat] += wgt.sum(axis=0)[inside_image]
            feat[:, flat] += (scene.feature[proj.src[sub]].T @ wgt)[:, inside_image]
            zc = np.where(wgt > 0.0, proj.z[sub][:, None], np.inf)
            zmin[flat] = np.minimum(zmin[flat], zc.min(axis=0)[inside_image])
            zc = np.where(wgt > 0.0, proj.z[sub][:, None], -np.inf)
            zmax[flat] = np.maximum(zmax[flat], zc.max(axis=0)[inside_image])
            t_run = t_run * cum[-1]
            if t_run.max() < T_STOP:
                break
    return _finish(num, den, feat, zmin, zmax, h, w, fdim)


def _dense_scene(rng, n):
    """Many overlapping footprints: tiles get hundreds of rows, and the
    opaque ones saturate part of a tile while the rest stays live."""
    quat = rng.normal(size=(n, 4))
    return GaussianScene(
        mu=rng.uniform([-2.5, -2.0, 1.0], [2.5, 2.0, 9.0], size=(n, 3)),
        scale=rng.uniform(0.03, 0.5, size=(n, 3)),
        quat=quat / np.linalg.norm(quat, axis=1, keepdims=True),
        opacity=np.where(rng.random(n) < 0.5, 0.99, rng.uniform(0.05, 0.6, size=n)),
        feature=rng.normal(size=(n, 7)),
    )


@pytest.mark.parametrize("h,w", [(33, 47), (45, 61), (37, 29), (18, 35), (30, 27)])
def test_default_tile_is_bit_identical_to_one_tile_at_a_time(h, w):
    # 8x8 tiles clipped in width, in height and in both: corners of 7x1,
    # 5x5, 3x2 and 3x6 pixels hold pixel counts that are not multiples of 4,
    # and a tile clipped in width is not a prefix of its lattice
    assert ((w % TILE) * (h % TILE)) % 4
    rng = np.random.default_rng(h * 1000 + w)
    cam = CameraView(fx=40.0, fy=40.0, cx=(w - 1) / 2, cy=(h - 1) / 2,
                     width=w, height=h, rotation=np.eye(3), translation=np.zeros(3))
    scene = _dense_scene(rng, 600)
    ref = _reference_render(scene, cam)
    saturated = ref.acc_alpha >= 1.0 - T_STOP
    tiles = [saturated[y:y + TILE, x:x + TILE]
             for y in range(0, h, TILE) for x in range(0, w, TILE)]
    assert any(0 < t.sum() < t.size for t in tiles)   # saturated and live pixels
    for threads in (1, 3):
        out = render(scene, cam, threads=threads)
        for name in ("depth", "feature", "acc_alpha", "valid"):
            assert np.array_equal(getattr(out, name), getattr(ref, name)), name


@pytest.mark.parametrize("h,w,group", [(33, 47, 16), (45, 61, 3)])
def test_compaction_is_bit_identical_to_the_uncompacted_blend(h, w, group, monkeypatch):
    # `group` tiles blend together; a tile that stops leaves its group while
    # the others run on, whereas the reference blends every tile alone
    monkeypatch.setattr(raster, "_GROUP_TILES", group)
    rng = np.random.default_rng(h * 1000 + w)
    cam = CameraView(fx=40.0, fy=40.0, cx=(w - 1) / 2, cy=(h - 1) / 2,
                     width=w, height=h, rotation=np.eye(3), translation=np.zeros(3))
    scene = _dense_scene(rng, 600)
    _, bounds, _, _ = _bin_rows(_project_scene(scene, cam), TILE, w, h)
    # render groups the tiles in order of row count
    steps = -(-np.sort(np.diff(bounds)) // raster.CHUNK)
    # some group's tiles run for different numbers of steps: one leaves early
    assert any(np.ptp(steps[g:g + group]) > 0 for g in range(0, steps.size, group))
    ref = _reference_render(scene, cam)
    for threads in (1, 3):
        out = render(scene, cam, threads=threads)
        for name in ("depth", "feature", "acc_alpha", "valid"):
            assert np.array_equal(getattr(out, name), getattr(ref, name)), name


def _record_steps(monkeypatch):
    """The blend steps of the renders to come, as they run: each step's
    tile corners x0, y0 and its (n, B) block of footprint rows."""
    steps = []
    real = raster._alpha_block

    def recording(proj, rows, us, vs):
        steps.append((us[0, 0, 0].astype(int), vs[0, 0, 0].astype(int), rows.copy()))
        return real(proj, rows, us, vs)
    monkeypatch.setattr(raster, "_alpha_block", recording)
    return steps


def _centred_camera(h, w):
    """fx = fy = 40 px, the principal point at the image centre."""
    return CameraView(fx=40.0, fy=40.0, cx=(w - 1) / 2, cy=(h - 1) / 2,
                      width=w, height=h, rotation=np.eye(3), translation=np.zeros(3))


@pytest.mark.parametrize("h,w,size", [(45, 61, 600), (33, 47, 300)])
def test_each_step_ends_at_the_last_row_of_its_longest_running_tile(h, w, size, monkeypatch):
    """The blend schedule, without a clock.  Each step evaluates
    min(CHUNK, rows left in its longest running tile) rows; a tile's real
    rows are the next ones of its depth-ordered list and the rest of the
    step is the pad row; the groups are the tiles in order of row count,
    `_GROUP_TILES` at a time; and the output counts the steps' real pairs
    and pad entries."""
    rng = np.random.default_rng(h * 1000 + w)
    cam = _centred_camera(h, w)
    scene = _dense_scene(rng, size)
    proj = _project_scene(scene, cam)
    tiles, bounds, binned, _ = _bin_rows(proj, TILE, w, h)
    of_tile = {int(t): binned[lo:hi] for t, lo, hi in zip(tiles, bounds[:-1], bounds[1:])}
    ntx = -(-w // TILE)
    steps = _record_steps(monkeypatch)
    out = render(scene, cam)
    groups, pairs, padded = [], 0, 0
    for x0, y0, sub in steps:
        ids = (y0 // TILE * ntx + x0 // TILE).tolist()
        lo = of_tile[ids[0]].tolist().index(sub[0, 0])
        left = [of_tile[t].size - lo for t in ids]
        n = sub.shape[0]
        assert n == min(raster.CHUNK, max(left))
        for i, (t, g) in enumerate(zip(ids, left)):
            g = min(g, n)
            assert np.array_equal(sub[:g, i], of_tile[t][lo:lo + g])
            assert (sub[g:, i] == proj.z.size).all()           # the pad row
            pairs += g * (min(x0[i] + TILE, w) - x0[i]) * (min(y0[i] + TILE, h) - y0[i])
            padded += (n - g) * TILE * TILE
        if lo == 0:
            groups.append(ids)
    by_length = tiles[np.argsort(np.diff(bounds), kind="stable")].tolist()
    assert groups == [by_length[g:g + raster._GROUP_TILES]
                      for g in range(0, len(by_length), raster._GROUP_TILES)]
    assert any(sub.shape[0] < raster.CHUNK for _, _, sub in steps)
    assert (out.pairs_evaluated, out.padded_pairs) == (pairs, padded)
    assert 0 < padded < pairs


@pytest.mark.parametrize("h,w", [(37, 29), (18, 35)])
def test_a_short_last_step_holding_a_clipped_tile_is_bit_identical(h, w, monkeypatch):
    """A step shorter than CHUNK that blends a tile clipped by the image
    edge gives every pixel the bits of the tile blended alone."""
    rng = np.random.default_rng(h * 100 + w)
    cam = _centred_camera(h, w)
    scene = _random_scene(rng, 150, fdim=5)
    steps = _record_steps(monkeypatch)
    out = render(scene, cam)
    assert any(sub.shape[0] < raster.CHUNK
               and ((x0 + TILE > w) | (y0 + TILE > h)).any() for x0, y0, sub in steps)
    ref = _reference_render(scene, cam)
    for name in ("depth", "feature", "acc_alpha", "valid"):
        assert np.array_equal(getattr(out, name), getattr(ref, name)), name


def test_steps_sum_runs_of_equal_row_count_with_the_bits_of_one_tile_at_a_time(monkeypatch):
    """Each step sums its tiles' depth and features in runs: the maximal
    slices of tiles with one row count in the step, tiles clipped by the
    image edge included.  Here some step holds several runs, and some run
    of several tiles holds a clipped tile; every pixel still gets the bits
    of its tile blended alone."""
    h, w = 45, 61
    cam = _centred_camera(h, w)
    scene = _dense_scene(np.random.default_rng(h * 1000 + w), 600)
    steps = _record_steps(monkeypatch)
    runs, real = [], raster._runs

    def recording(count):
        out = real(count)
        runs.append(out)
        return out
    monkeypatch.setattr(raster, "_runs", recording)
    out = render(scene, cam)
    pad = _project_scene(scene, cam).z.size
    assert len(runs) == len(steps)
    clipped_in_a_run = False
    for (x0, y0, sub), step in zip(steps, runs):
        count = (sub != pad).sum(axis=0)              # each tile's real rows
        clipped = (x0 + TILE > w) | (y0 + TILE > h)
        assert [s for s, _ in step] == [0] + [e for _, e in step[:-1]]
        assert step[-1][1] == count.size
        for s, e in step:
            assert (count[s:e] == count[s]).all()
            clipped_in_a_run |= e - s > 1 and clipped[s:e].any()
        for (_, e), _ in zip(step, step[1:]):         # no two runs could merge
            assert count[e - 1] != count[e]
    assert any(len(step) > 1 for step in runs)
    assert clipped_in_a_run
    ref = _reference_render(scene, cam)
    for name in ("depth", "feature", "acc_alpha", "valid"):
        assert np.array_equal(getattr(out, name), getattr(ref, name)), name


# ---------------------------------------------------------------------------
# Tile culling and the render's work counts
# ---------------------------------------------------------------------------

def _culling_scene(rng, kind, n=300):
    """Random footprints, all rotated: mixed opacities, or faint ones around
    the 1/255 floor, or thin needles whose boxes hold many missed tiles."""
    quat = rng.normal(size=(n, 4))
    scale = rng.uniform(0.03, 0.5, size=(n, 3))
    opacity = rng.uniform(0.05, 0.99, size=n)
    if kind == "faint":
        opacity = rng.uniform(0.0, 0.03, size=n)
    elif kind == "needles":
        scale[:, 0] = rng.uniform(0.005, 0.02, size=n)
        scale[:, 1] = rng.uniform(0.4, 1.2, size=n)
    return GaussianScene(
        mu=rng.uniform([-2.5, -2.0, 1.0], [2.5, 2.0, 9.0], size=(n, 3)),
        scale=scale, quat=quat / np.linalg.norm(quat, axis=1, keepdims=True),
        opacity=opacity, feature=rng.normal(size=(n, 3)))


@pytest.mark.parametrize("kind", ["mixed", "faint", "needles"])
@pytest.mark.parametrize("h,w,tile", [(37, 53, 16), (37, 53, 7), (20, 16, 16)])
def test_culled_rows_have_zero_alpha_on_every_pixel_of_their_tile(kind, h, w, tile):
    """Brute force: every (tile, row) key of a 3-sigma box that binning
    drops has alpha exactly 0 at every pixel of the tile, partial edge
    tiles included; the kept keys are the rest of the boxes' keys."""
    rng = np.random.default_rng([h, w, tile, ord(kind[0])])
    cam = CameraView(fx=40.0, fy=40.0, cx=(w - 1) / 2, cy=(h - 1) / 2,
                     width=w, height=h, rotation=np.eye(3), translation=np.zeros(3))
    proj = _project_scene(_culling_scene(rng, kind), cam)
    tiles, bounds, rows, culled = _bin_rows(proj, tile, w, h)
    kept = {(int(t), int(i)) for t, lo, hi in zip(tiles, bounds[:-1], bounds[1:])
            for i in rows[lo:hi]}
    boxes = set(_box_keys(proj, tile, w, h))
    assert kept <= boxes and len(kept) == rows.size
    dropped = sorted(boxes - kept)
    assert len(dropped) == culled > 0
    ntx = (w + tile - 1) // tile
    for t in {t for t, _ in dropped}:
        ty, tx = divmod(t, ntx)
        uu, vv = np.meshgrid(np.arange(tx * tile, min(tx * tile + tile, w), dtype=np.float64),
                             np.arange(ty * tile, min(ty * tile + tile, h), dtype=np.float64))
        block = np.array([i for d, i in dropped if d == t])[:, None]
        assert not _alpha_block(proj, block, uu.ravel(), vv.ravel()).any(), t


@pytest.mark.parametrize("h,w", [(33, 47), (30, 26)])
def test_culled_and_unculled_renders_agree(h, w):
    rng = np.random.default_rng(h + w)
    cam = CameraView(fx=40.0, fy=40.0, cx=(w - 1) / 2, cy=(h - 1) / 2,
                     width=w, height=h, rotation=np.eye(3), translation=np.zeros(3))
    scene = _dense_scene(rng, 600)
    out = render(scene, cam)
    assert out.culled_rows > 0
    ref = _reference_render(scene, cam, cull=False)
    npt.assert_array_equal(out.valid, ref.valid)
    for name in ("depth", "feature", "acc_alpha"):
        npt.assert_allclose(getattr(out, name), getattr(ref, name), rtol=0, atol=1e-12)


def test_render_counts_its_work():
    """Faint footprints never saturate a pixel, so every kept row is
    evaluated at every pixel of its tile."""
    rng = np.random.default_rng(8)
    scene = _culling_scene(rng, "mixed", n=30).replace(opacity=np.full(30, 0.2))
    cam = _camera(fx=60.0, fy=60.0, cx=31.5, cy=23.5, width=61, height=45)
    proj = _project_scene(scene, cam)
    tiles, bounds, _, culled = _bin_rows(proj, TILE, 61, 45)
    kept = np.diff(bounds)
    # 8 tiles across; the last column and row of tiles are partial
    ntx = -(-61 // TILE)
    pixels = [(min(tx * TILE + TILE, 61) - tx * TILE) * (min(ty * TILE + TILE, 45) - ty * TILE)
              for ty, tx in (divmod(int(t), ntx) for t in tiles)]
    out = render(scene, cam)
    assert out.binned_rows == len(_box_keys(proj, TILE, 61, 45)) == kept.sum() + culled
    assert out.culled_rows == culled > 0
    assert out.pairs_evaluated == int(np.dot(kept, pixels))
    assert render_oracle(scene, cam).pairs_evaluated == 0


def test_geometry_view_renders_the_same_geometry_without_features():
    rng = np.random.default_rng(31)
    scene = _dense_scene(rng, 300)
    geometry = scene.geometry()
    assert len(geometry) == len(scene) and geometry.feature_dim == 0
    assert geometry.layer_offsets == scene.layer_offsets
    for name in ("mu", "scale", "quat", "opacity"):
        assert getattr(geometry, name) is getattr(scene, name)
    assert geometry.feature.shape == (300, 0) and not geometry.feature.flags.writeable
    assert scene.feature_dim == 7                 # the scene is untouched
    cam = _camera(fx=40.0, fy=40.0, cx=23.0, cy=16.0, width=47, height=33)
    full, geo = render(scene, cam), render(geometry, cam)
    assert geo.feature.shape == (33, 47, 0)
    for name in ("depth", "valid", "acc_alpha", "binned_rows", "culled_rows",
                 "pairs_evaluated"):
        assert np.array_equal(getattr(geo, name), getattr(full, name)), name


def test_culling_margin_keeps_a_row_that_rounding_puts_just_outside():
    """A tilted footprint whose q at pixel (16, 24) lies within an ulp of
    the 3-sigma bound: the rectangle minimum of tile (1, 1) computes to just
    above 9, yet the pixel's alpha is not 0.  Only the rounding margin keeps
    the row in that tile.  Binning runs on 16x16 tiles here: on render's 8x8
    tiles this minimum computes to just below 9, and the margin never acts."""
    proj = _ProjectedArrays(np.array([[10.974560767979762, 20.424145849942192]]),
                            np.array([[2.8061154971920184, 1.9966930915188625,
                                       2.5711442027104985]]),
                            np.array([5.0]), np.array([0.9]), np.array([0]))
    one = np.array([0])
    assert _tile_min_q(proj, one, np.array([1]), np.array([1]), 16, 64, 64)[0] > 9.0
    assert _alpha_block(proj, one[:, None], np.array([16.0]), np.array([24.0]))[0, 0] > 0.0
    tiles, _, _, _ = _bin_rows(proj, 16, 64, 64)
    assert 1 * 4 + 1 in tiles.tolist()
