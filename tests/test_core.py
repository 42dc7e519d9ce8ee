"""Core geometry tests: quaternions, covariances, cameras, scene layers.

Oracles used here are independent of the library code paths:

* quaternion rotation is cross-checked by conjugation, v' = q v q*, expanded
  with the Hamilton product by hand;
* projection is cross-checked with a 4x4 homogeneous pipeline: x_cam =
  (T_ce)^-1 [p; 1], then u = fx x/z + cx, v = fy y/z + cy;
* covariance eigenvalues must equal the squared scales: R diag(s^2) R^T is
  similar to diag(s^2).
"""

from __future__ import annotations

import numpy as np
import numpy.testing as npt
import pytest

from fgs.core import (CameraView, GaussianScene, Z_NEAR, backproject, covariance3d,
                      depth_validity, project_points, quats_to_rotmats,
                      rig_feature_dim, unit_quats)
from fgs.errors import InvalidInputError
from fgs.raster import _project_scene


def _quat_mul(a, b):
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return np.array([
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    ])


def _rotate_by_conjugation(q, v):
    """v' = q (0, v) q^-1 written out with the Hamilton product."""
    q = q / np.linalg.norm(q)
    qc = q * np.array([1.0, -1.0, -1.0, -1.0])
    return _quat_mul(_quat_mul(q, np.array([0.0, *v])), qc)[1:]


def _camera(fx=100.0, fy=120.0, cx=31.5, cy=23.5, width=64, height=48,
            rotation=None, translation=None, **kw):
    return CameraView(fx=fx, fy=fy, cx=cx, cy=cy, width=width, height=height,
                      rotation=np.eye(3) if rotation is None else rotation,
                      translation=np.zeros(3) if translation is None else translation,
                      **kw)


def _yaw_pitch_rotation(yaw, pitch):
    cy_, sy = np.cos(yaw), np.sin(yaw)
    cp, sp = np.cos(pitch), np.sin(pitch)
    rz = np.array([[cy_, -sy, 0.0], [sy, cy_, 0.0], [0.0, 0.0, 1.0]])
    rx = np.array([[1.0, 0.0, 0.0], [0.0, cp, -sp], [0.0, sp, cp]])
    return rz @ rx


# ---------------------------------------------------------------------------
# Quaternions and covariances
# ---------------------------------------------------------------------------

def test_quat_identity_and_z_flip():
    rot = quats_to_rotmats(np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]]))
    npt.assert_array_equal(rot[0], np.eye(3))
    npt.assert_allclose(rot[1], np.diag([-1.0, -1.0, 1.0]), atol=1e-15)


def test_zero_norm_quaternion_is_refused():
    """The two places that take a quaternion from outside refuse a zero one:
    the scene on ingest and `quats_to_rotmats` (and through it
    `covariance3d`); the scene renormalizes any other."""
    with pytest.raises(InvalidInputError):
        quats_to_rotmats(np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]]))
    with pytest.raises(InvalidInputError):
        covariance3d([0.1, 0.2, 0.3], [0.0, 0.0, 0.0, 0.0])
    kw = dict(mu=np.zeros((2, 3)), scale=np.ones((2, 3)), opacity=np.full(2, 0.5),
              feature=np.zeros((2, 1)))
    with pytest.raises(InvalidInputError):
        GaussianScene(quat=[[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]], **kw)
    scene = GaussianScene(quat=[[3.0, 4.0, 0.0, 0.0], [0.0, 0.0, 0.0, 2.0]], **kw)
    npt.assert_allclose(np.linalg.norm(scene.quat, axis=1), 1.0)


def test_quaternion_norm_past_float64_overflow():
    """A finite row's norm overflows from about 1.3e154; scaled by a power of
    two first, (1e200, 0, 0, 0) is the identity rotation, not the zero
    quaternion, and rows below 2^500 keep the bits of q / |q|."""
    big = np.array([[1e200, 0.0, 0.0, 0.0], [-3.0 * 2.0**900, 2.0**902, 0.0, 0.0]])
    unit, zero = unit_quats(big)
    npt.assert_array_equal(unit, [[1.0, 0.0, 0.0, 0.0], [-0.6, 0.8, 0.0, 0.0]])
    assert not zero.any()
    npt.assert_array_equal(quats_to_rotmats(big[:1])[0], np.eye(3))
    kw = dict(mu=np.zeros((2, 3)), scale=np.ones((2, 3)), opacity=np.full(2, 0.5),
              feature=np.zeros((2, 1)))
    npt.assert_array_equal(GaussianScene(quat=big, **kw).quat, unit)
    qs = np.random.default_rng(5).normal(size=(50, 4)) * 10.0 ** np.arange(-5, 145, 3)[:, None]
    qs[7] = 0.0
    unit, zero = unit_quats(qs)
    npt.assert_array_equal(zero, np.arange(50) == 7)
    keep = ~zero
    npt.assert_array_equal(unit[keep], qs[keep] / np.linalg.norm(qs[keep], axis=1)[:, None])


def test_quat_rotation_matches_conjugation_oracle():
    rng = np.random.default_rng(11)
    qs = rng.normal(size=(25, 4))
    for q, r in zip(qs, quats_to_rotmats(qs)):
        npt.assert_allclose(r @ r.T, np.eye(3), atol=1e-9)
        npt.assert_allclose(np.linalg.det(r), 1.0, atol=1e-12)
        for v in np.eye(3):
            npt.assert_allclose(r @ v, _rotate_by_conjugation(q, v), atol=1e-12)


def test_quat_sign_and_scale_invariance():
    rng = np.random.default_rng(3)
    q = rng.normal(size=4)
    rot = quats_to_rotmats(np.stack([q, -q, 2.5 * q]))
    npt.assert_allclose(rot[0], rot[1], atol=1e-15)
    npt.assert_allclose(rot[0], rot[2], atol=1e-12)


def test_quats_to_rotmats_matches_scalar_path():
    """A batch's rows equal one-row calls, the path `covariance3d` takes."""
    rng = np.random.default_rng(4)
    qs = rng.normal(size=(40, 4))
    batch = quats_to_rotmats(qs)
    for i, q in enumerate(qs):
        npt.assert_allclose(batch[i], quats_to_rotmats(q[None])[0], atol=1e-14)
        npt.assert_allclose(covariance3d([1.0, 2.0, 3.0], q),
                            (batch[i] * [1.0, 4.0, 9.0]) @ batch[i].T, atol=1e-13)
    with pytest.raises(InvalidInputError):
        quats_to_rotmats(np.zeros((2, 4)))


def test_covariance3d_axis_aligned():
    npt.assert_allclose(covariance3d([1.0, 1.0, 1.0], [1, 0, 0, 0]),
                        np.eye(3), atol=1e-15)
    npt.assert_allclose(covariance3d([2.0, 1.0, 1.0], [1, 0, 0, 0]),
                        np.diag([4.0, 1.0, 1.0]), atol=1e-15)


def test_covariance3d_eigenvalues_are_squared_scales():
    rng = np.random.default_rng(9)
    s = np.array([2.0, 1.0, 0.5])
    for _ in range(10):
        cov = covariance3d(s, rng.normal(size=4))
        npt.assert_allclose(cov, cov.T)  # exactly symmetric
        npt.assert_allclose(np.sort(np.linalg.eigvalsh(cov)),
                            [0.25, 1.0, 4.0], atol=1e-12)


def test_covariance3d_rejects_bad_scales():
    with pytest.raises(InvalidInputError):
        covariance3d([1.0, -1.0, 1.0], [1, 0, 0, 0])
    with pytest.raises(InvalidInputError):
        covariance3d([1.0, 0.0, 1.0], [1, 0, 0, 0])


# ---------------------------------------------------------------------------
# GaussianScene
# ---------------------------------------------------------------------------

def _one(mu=(0, 0, 5), s=(0.1, 0.2, 0.3), r=(1, 0, 0, 0), sigma=0.7, f=(1.0,) * 4):
    return GaussianScene([mu], [s], [r], [sigma], [f])


def test_scene_row_validation():
    g = _one(r=(2, 0, 0, 0))
    npt.assert_allclose(g.quat[0], [1, 0, 0, 0])  # renormalized on ingest
    npt.assert_allclose(np.linalg.eigvalsh(covariance3d(g.scale[0], g.quat[0])),
                        np.sort(np.array([0.1, 0.2, 0.3]) ** 2), atol=1e-15)
    with pytest.raises(InvalidInputError):
        _one(s=(0.1, -0.2, 0.3))
    with pytest.raises(InvalidInputError):
        _one(sigma=1.2)
    with pytest.raises(InvalidInputError):
        _one(mu=(0, 0, np.nan))


def _scene(n=5, fdim=3, seed=0):
    rng = np.random.default_rng(seed)
    quat = rng.normal(size=(n, 4))
    return GaussianScene(
        mu=rng.normal(size=(n, 3)),
        scale=rng.uniform(0.1, 0.5, size=(n, 3)),
        quat=quat,
        opacity=rng.uniform(0.1, 0.9, size=n),
        feature=rng.normal(size=(n, fdim)),
    )


def test_scene_shape_validation():
    s = _scene()
    assert len(s) == 5 and s.feature_dim == 3
    npt.assert_allclose(np.linalg.norm(s.quat, axis=1), 1.0, atol=1e-12)
    with pytest.raises(InvalidInputError):
        GaussianScene(np.zeros((2, 3)), np.ones((3, 3)), np.tile([1, 0, 0, 0], (2, 1)),
                      np.zeros(2), np.zeros((2, 3)))
    with pytest.raises(InvalidInputError):
        GaussianScene(np.zeros((2, 3)), np.ones((2, 3)), np.tile([1, 0, 0, 0], (2, 1)),
                      np.array([0.5, 1.5]), np.zeros((2, 3)))


def test_scene_arrays_are_read_only():
    s = _scene()
    with pytest.raises(ValueError):
        s.mu[0, 0] = 1.0


def test_scene_layers_grow_and_slice():
    s = _scene(4)
    assert s.layer_offsets == (4,) and s.layer_count == 1
    grown = s.with_layer(np.zeros((2, 3)), np.full((2, 3), 0.2),
                         np.tile([1, 0, 0, 0], (2, 1)), np.full(2, 0.5),
                         np.zeros((2, 3)))
    assert grown.layer_offsets == (4, 6)
    assert grown.layer_slice(0) == slice(0, 4)
    assert grown.layer_slice(1) == slice(4, 6)
    npt.assert_array_equal(grown.mu[:4], s.mu)  # prefix untouched
    empty = grown.with_layer(np.zeros((0, 3)), np.zeros((0, 3)),
                             np.zeros((0, 4)), np.zeros(0), np.zeros((0, 3)))
    assert empty.layer_offsets == (4, 6, 6)  # zero-growth layer is legal
    with pytest.raises(InvalidInputError):
        grown.layer_slice(2)


def test_scene_layer_offset_validation():
    _scene(4).replace(mu=np.zeros((4, 3)))  # same count: fine
    kw = dict(mu=np.zeros((3, 3)), scale=np.ones((3, 3)),
              quat=np.tile([1, 0, 0, 0], (3, 1)), opacity=np.full(3, 0.5),
              feature=np.zeros((3, 2)))
    with pytest.raises(InvalidInputError):
        GaussianScene(layer_offsets=(2,), **kw)       # last != N
    with pytest.raises(InvalidInputError):
        GaussianScene(layer_offsets=(2, 1, 3), **kw)  # decreasing


def test_scene_replace_and_empty():
    s = _scene(3)
    s2 = s.replace(opacity=np.full(3, 0.25))
    npt.assert_array_equal(s2.mu, s.mu)
    npt.assert_array_equal(s2.opacity, np.full(3, 0.25))
    empty = GaussianScene.empty(7)
    assert len(empty) == 0 and empty.feature_dim == 7 and empty.layer_offsets == (0,)


# ---------------------------------------------------------------------------
# Cameras and projection
# ---------------------------------------------------------------------------

def test_camera_rejects_bad_rotation_and_intrinsics():
    with pytest.raises(InvalidInputError):
        _camera(rotation=np.eye(3) * 2.0)
    with pytest.raises(InvalidInputError):
        _camera(fx=-1.0)
    with pytest.raises(InvalidInputError):
        _camera(width=0)
    for bad in ({"fx": np.nan}, {"fy": np.inf}, {"cx": np.nan}, {"cy": -np.inf}):
        with pytest.raises(InvalidInputError, match="must be"):
            _camera(**bad)


def test_camera_ref_depth_default_validity():
    depth = np.full((48, 64), 5.0)
    depth[0, 0] = np.nan
    depth[0, 1] = 0.05  # below the near plane
    cam = _camera(ref_depth=depth)
    assert not cam.ref_valid[0, 0] and not cam.ref_valid[0, 1]
    assert cam.ref_valid[10, 10]


def test_camera_refuses_a_feature_plane_of_wrong_shape_or_not_finite():
    assert _camera(ref_feature=np.zeros((48, 64, 0))).ref_feature.shape == (48, 64, 0)
    for bad in (np.zeros((48, 64)), np.zeros((64, 48, 3)), np.zeros((48, 64, 3, 1))):
        with pytest.raises(InvalidInputError, match="ref_feature shape mismatch"):
            _camera(ref_feature=bad)
    for value in (np.nan, np.inf, -np.inf):
        plane = np.zeros((48, 64, 3))
        plane[10, 10, 0] = value
        with pytest.raises(InvalidInputError, match="ref_feature contains non-finite"):
            _camera(ref_feature=plane)


def test_depth_validity_rule_and_explicit_masks():
    depth = np.array([[np.nan, np.inf, -np.inf, 0.0],
                      [0.05, Z_NEAR, np.nextafter(Z_NEAR, 1.0), 5.0]])
    npt.assert_array_equal(depth_validity(depth),
                           [[False, False, False, False],
                            [False, False, True, True]])
    # an explicit mask is taken as given, as bools
    mask = np.eye(2, 4, dtype=int)
    npt.assert_array_equal(depth_validity(depth, mask), mask.astype(bool))
    with pytest.raises(InvalidInputError, match="shape mismatch"):
        depth_validity(depth, np.ones((4, 2), dtype=bool))
    with pytest.raises(InvalidInputError, match="shape mismatch"):
        _camera(ref_depth=np.ones((48, 64)), ref_valid=np.ones((64, 48), dtype=bool))


def test_rig_feature_dim_shared_width_default_and_disagreement():
    plain = _camera()
    eight = _camera(ref_feature=np.zeros((48, 64, 8)))
    four = _camera(ref_feature=np.zeros((48, 64, 4)))
    assert rig_feature_dim([plain, eight, eight]) == 8
    assert rig_feature_dim([plain], 16) == 16
    assert rig_feature_dim([]) is None
    with pytest.raises(InvalidInputError, match=r"disagree on feature dimension: \[4, 8\]"):
        rig_feature_dim([eight, plain, four], 16)


def test_frame_transforms_round_trip():
    rng = np.random.default_rng(21)
    cam = _camera(rotation=_yaw_pitch_rotation(0.4, -0.9),
                  translation=np.array([1.0, -2.0, 3.0]))
    pts = rng.normal(size=(50, 3)) * 4.0
    npt.assert_allclose(cam.cam_to_ego(cam.ego_to_cam(pts)), pts, atol=1e-12)
    npt.assert_allclose(cam.ego_to_cam(cam.center[None])[0], np.zeros(3), atol=1e-12)


def test_project_point_on_axis_and_behind():
    cam = _camera()
    uv, z, front = project_points(np.array([[0.0, 0.0, 5.0],
                                            [0.0, 0.0, 0.0],       # camera center
                                            [0.0, 0.0, Z_NEAR]]),  # at the plane
                                  cam)
    npt.assert_array_equal(uv[0], [cam.cx, cam.cy])
    npt.assert_array_equal(z, [5.0, 0.0, Z_NEAR])
    npt.assert_array_equal(front, [True, False, False])
    assert np.all(np.isnan(uv[1:]))


def test_project_point_matches_homogeneous_oracle():
    rng = np.random.default_rng(33)
    cam = _camera(rotation=_yaw_pitch_rotation(-0.7, 0.3),
                  translation=np.array([0.5, 1.5, -0.25]))
    t_ce = np.eye(4)
    t_ce[:3, :3] = cam.rotation
    t_ce[:3, 3] = cam.translation
    t_ec = np.linalg.inv(t_ce)
    pts = rng.uniform(-5, 5, size=(50, 3))
    uv, z, front = project_points(pts, cam)
    for i, p in enumerate(pts):
        xc = (t_ec @ np.array([*p, 1.0]))[:3]
        npt.assert_allclose(z[i], xc[2], atol=1e-10)
        if xc[2] <= Z_NEAR:
            assert not front[i] and np.all(np.isnan(uv[i]))
            continue
        assert front[i]
        npt.assert_allclose(uv[i], [cam.fx * xc[0] / xc[2] + cam.cx,
                                    cam.fy * xc[1] / xc[2] + cam.cy], atol=1e-10)


def test_project_points_batch_matches_scalar():
    rng = np.random.default_rng(5)
    cam = _camera(rotation=_yaw_pitch_rotation(0.2, -0.5),
                  translation=np.array([2.0, 0.0, 1.0]))
    pts = rng.uniform(-6, 6, size=(100, 3))
    uv, z, front = project_points(pts, cam)
    for i, p in enumerate(pts):
        uv1, z1, front1 = project_points(p[None, :], cam)
        assert front1[0] == front[i]
        npt.assert_allclose(np.r_[uv1[0], z1], np.r_[uv[i], z[i]], atol=1e-12)


def test_in_image_is_the_closed_rectangle_of_pixel_centres():
    cam = _camera()
    eps = 1e-9
    inside = np.array([[0.0, 0.0], [63.0, 47.0], [0.0, 47.0], [63.0, 0.0]])
    outside = np.array([[-eps, 10.0], [63.0 + eps, 10.0], [10.0, -eps],
                        [10.0, 47.0 + eps], [np.nan, 10.0], [10.0, np.nan]])
    npt.assert_array_equal(cam.in_image(inside), True)
    npt.assert_array_equal(cam.in_image(outside), False)


def test_backproject_lifts_pixel_rays_bit_for_bit():
    cam = _camera(rotation=np.eye(3), translation=np.zeros(3))
    depth = np.random.default_rng(3).uniform(0.5, 9.0, size=(48, 64))
    depth[5, 7] = np.nan
    vs, us = np.nonzero(np.isfinite(depth))
    npt.assert_array_equal(backproject(cam, depth),
                           cam.pixel_rays()[vs, us] * depth[vs, us, None])


def test_raster_projection_is_project_points_bit_for_bit():
    rng = np.random.default_rng(12)
    cam = _camera(rotation=_yaw_pitch_rotation(0.3, -0.4),
                  translation=np.array([0.5, -0.5, -6.0]))
    n = 200
    scene = GaussianScene(rng.uniform(-3, 3, size=(n, 3)),
                          np.full((n, 3), 0.05), np.tile([1.0, 0, 0, 0], (n, 1)),
                          np.full(n, 0.5), np.zeros((n, 1)))
    proj = _project_scene(scene, cam)
    assert 0 < proj.src.size < n
    uv, _, front = project_points(scene.mu, cam)
    assert np.all(front[proj.src])
    npt.assert_array_equal(proj.mean2d, uv[proj.src])


def test_backproject_single_center_pixel():
    cam = _camera()
    depth = np.zeros((48, 64))
    # cx/cy land between pixels; use a pixel at an exact integer location
    depth[24, 32] = 4.0
    pts = backproject(cam, depth, depth > 0)
    assert pts.shape == (1, 3)
    npt.assert_allclose(pts[0], [(32 - cam.cx) / cam.fx * 4.0,
                                 (24 - cam.cy) / cam.fy * 4.0, 4.0], atol=1e-12)


def test_backproject_project_round_trip():
    cam = _camera(rotation=_yaw_pitch_rotation(1.0, -1.2),
                  translation=np.array([3.0, -1.0, 2.0]))
    rng = np.random.default_rng(17)
    depth = rng.uniform(1.0, 9.0, size=(4, 4))
    cam_small = _camera(width=4, height=4, cx=1.5, cy=1.5,
                        rotation=cam.rotation, translation=cam.translation)
    pts = backproject(cam_small, depth)
    uv, z, front = project_points(pts, cam_small)
    assert np.all(front)
    vs, us = np.nonzero(np.ones((4, 4), dtype=bool))
    npt.assert_allclose(uv[:, 0], us, atol=1e-9)
    npt.assert_allclose(uv[:, 1], vs, atol=1e-9)
    npt.assert_allclose(z, depth[vs, us], atol=1e-12)


def test_backproject_empty_and_shape_errors():
    cam = _camera()
    assert backproject(cam, np.full((48, 64), np.nan)).shape == (0, 3)
    with pytest.raises(InvalidInputError):
        backproject(cam, np.zeros((2, 2)))


def test_pixel_rays_reconstruct_backprojection():
    cam = _camera()
    rays = cam.pixel_rays()
    assert rays.shape == (48, 64, 3)
    npt.assert_array_equal(rays[..., 2], 1.0)
    npt.assert_allclose(rays[24, 32, :2],
                        [(32 - cam.cx) / cam.fx, (24 - cam.cy) / cam.fy])


def test_every_name_in_all_resolves():
    """`from fgs import *` needs every `fgs.__all__` entry to be a name of
    the package: a stale entry breaks it."""
    import fgs
    assert [name for name in fgs.__all__ if not hasattr(fgs, name)] == []
    namespace = {}
    exec("from fgs import *", namespace)
    assert set(fgs.__all__) <= set(namespace)
