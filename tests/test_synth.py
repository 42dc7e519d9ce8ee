"""Synthetic fixture tests: primitives, rigs, ray tracing, ground truth.

Hand anchors:

* a unit sphere at (0, 0, 5) seen from the origin along +z is hit at
  t = 4:  |o + t d - c| = 1 with d = (0, 0, 1) gives t^2 - 10 t + 24 = 0,
  whose smaller root is 4;
* a box face on the plane z = 1.75 is hit by every depth-parametrized ray
  (unit z component) at exactly t = 1.75, regardless of image position —
  the ray parameter is camera depth, not Euclidean distance;
* a box of extents (1, 2, 3) has surface area 2 (1*2 + 2*3 + 1*3) = 22;
* largest-remainder allocation of 4 Gaussians over areas (6, 7) gives
  quotas (24/13, 28/13) -> floors (1, 2) and the leftover goes to the
  larger fraction 0.846, so the counts are (2, 2).
"""

from __future__ import annotations

import math

import numpy as np
import numpy.testing as npt
import pytest

from fgs.core import Z_NEAR, CameraView
from fgs.errors import InvalidInputError
from fgs.synth import (DEFAULT_IMAGE, Primitive, RigSpec, RingSpec,
                       SynthSpec, build_rig, gen_scene, missing_wall_fixture,
                       perturb_poses, rasterize_gt, room_spec, sample_scene,
                       trace_depth)
from fgs.voxel import EMPTY_LABEL, GridSpec, orthonormal_bank


def _rotz(yaw):
    c, s = math.cos(yaw), math.sin(yaw)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _mini_spec(seed=0, n=40):
    prims = [Primitive("box", "slab", (0.0, 0.0, 0.5), (2.0, 2.0, 0.25)),
             Primitive("sphere", "ball", (0.0, 0.0, 2.0), (0.5, 1.0, 1.0))]
    rig = RigSpec(rings=[RingSpec(2, 3.0, 2.5, -35.0)],
                  height=24, width=32, hfov_deg=70.0)
    return SynthSpec(seed=seed, feature_dim=6, primitives=prims, rig=rig,
                     grid=GridSpec(np.array([-2.0, -2.0, 0.0]), (5, 5, 4), 0.8),
                     n_gaussians=n, gaussian_scale=0.05)


def _identity_camera(fx=2.0, size=5):
    return CameraView(fx=fx, fy=fx, cx=(size - 1) / 2.0, cy=(size - 1) / 2.0,
                      width=size, height=size, rotation=np.eye(3),
                      translation=np.zeros(3))


# ---------------------------------------------------------------------------
# Primitives
# ---------------------------------------------------------------------------

def test_primitive_validation_and_default_name():
    with pytest.raises(InvalidInputError):
        Primitive("cone", "x", (0, 0, 0), (1, 1, 1))
    with pytest.raises(InvalidInputError):
        Primitive("box", "x", (0, 0, 0), (1, -1, 1))
    with pytest.raises(InvalidInputError):
        Primitive("sphere", "x", (0, 0, 0), (0.0, 1, 1))
    assert Primitive("box", "wall", (0, 0, 0), (1, 1, 1)).name == "wall"
    assert Primitive("box", "wall", (0, 0, 0), (1, 1, 1), name="w0").name == "w0"


def test_box_contains_respects_yaw():
    plain = Primitive("box", "x", (0, 0, 0), (2.0, 4.0, 6.0))
    assert plain.contains(np.array([[1.0, 2.0, 3.0]]))[0]       # corner is inside
    assert not plain.contains(np.array([[1.1, 0.0, 0.0]]))[0]
    quarter = Primitive("box", "x", (0, 0, 0), (2.0, 4.0, 6.0), yaw=np.pi / 2)
    assert quarter.contains(np.array([[1.9, 0.9, 0.0]]))[0]     # swapped axes
    assert not quarter.contains(np.array([[1.9, 1.1, 0.0]]))[0]


def test_sphere_contains_boundary():
    ball = Primitive("sphere", "x", (1.0, 0.0, 0.0), (2.0, 9.0, 9.0))
    assert ball.radius == 2.0
    got = ball.contains(np.array([[3.0, 0.0, 0.0], [3.1, 0.0, 0.0]]))
    assert got.tolist() == [True, False]


def test_surface_area_hand_values():
    assert Primitive("box", "x", (0, 0, 0), (1.0, 2.0, 3.0)).surface_area() == 22.0
    npt.assert_allclose(
        Primitive("sphere", "x", (0, 0, 0), (2.0, 1, 1)).surface_area(),
        16.0 * np.pi)


def test_sample_surface_lands_on_the_boundary():
    rng = np.random.default_rng(2)
    box = Primitive("box", "x", (1.0, 2.0, 3.0), (0.4, 2.0, 1.0), yaw=0.7)
    pts = box.sample_surface(300, rng)
    local = (pts - box.center) @ _rotz(0.7)
    half = box.size / 2.0
    assert np.all(np.abs(local) <= half + 1e-9)
    on_face = np.isclose(np.abs(local), half, atol=1e-9)
    assert np.all(on_face.any(axis=1))                 # every point on some face
    for axis in range(3):
        for sign in (-1.0, 1.0):
            assert np.any(np.isclose(local[:, axis], sign * half[axis], atol=1e-9))

    ball = Primitive("sphere", "x", (0.0, 1.0, 0.0), (0.7, 1, 1))
    pts = ball.sample_surface(128, rng)
    npt.assert_allclose(np.linalg.norm(pts - ball.center, axis=1), 0.7,
                        atol=1e-12)
    assert box.sample_surface(0, rng).shape == (0, 3)


def test_ray_hits_sphere_hand_case():
    ball = Primitive("sphere", "x", (0.0, 0.0, 5.0), (1.0, 1, 1))
    origin = np.zeros(3)
    t = ball.ray_hits(origin, np.array([[0.0, 0.0, 1.0],
                                        [0.0, 0.0, -1.0],
                                        [1.0, 0.0, 0.0]]))
    assert t[0] == 4.0
    assert np.isinf(t[1]) and np.isinf(t[2])
    # from inside, the exit hit is returned
    inside = ball.ray_hits(np.array([0.0, 0.0, 5.0]), np.array([[0.0, 0.0, 1.0]]))
    npt.assert_allclose(inside, [1.0])


def test_ray_hits_box_slabs_and_depth_parametrization():
    box = Primitive("box", "x", (0.0, 0.0, 5.0), (6.0, 6.0, 2.0))
    origin = np.zeros(3)
    t = box.ray_hits(origin, np.array([[0.0, 0.0, 1.0],
                                       [0.5, 0.0, 1.0],
                                       [1.0, 0.0, 0.0],
                                       [0.0, 0.0, -1.0]]))
    assert t[0] == 4.0
    assert t[1] == 4.0          # slanted ray, same entry plane, same depth
    assert np.isinf(t[2]) and np.isinf(t[3])
    inside = box.ray_hits(np.array([0.0, 0.0, 5.0]), np.array([[1.0, 0.0, 0.0]]))
    npt.assert_allclose(inside, [3.0])


# ---------------------------------------------------------------------------
# Rig construction
# ---------------------------------------------------------------------------

def test_rig_focal_from_horizontal_fov():
    rig = RigSpec(height=48, width=64, hfov_deg=90.0)
    npt.assert_allclose(rig.focal, 32.0)
    default = RigSpec()
    npt.assert_allclose(default.focal,
                        (DEFAULT_IMAGE[1] / 2.0) / math.tan(math.radians(36.0)))


def test_build_rig_geometry_inward_ring():
    rig = RigSpec(rings=[RingSpec(4, 2.0, 3.0, 0.0)], height=24, width=32,
                  hfov_deg=70.0)
    views = build_rig(rig)
    assert len(views) == 4
    npt.assert_allclose(views[0].center, [2.0, 0.0, 3.0], atol=1e-12)
    npt.assert_allclose(views[1].center, [0.0, 2.0, 3.0], atol=1e-12)
    # inward horizontal camera: optical axis points at the ring axis
    npt.assert_allclose(views[0].rotation[:, 2], [-1.0, 0.0, 0.0], atol=1e-12)
    npt.assert_allclose(views[1].rotation[:, 2], [0.0, -1.0, 0.0], atol=1e-12)
    for v in views:
        npt.assert_allclose(v.rotation.T @ v.rotation, np.eye(3), atol=1e-12)
        npt.assert_allclose(np.linalg.det(v.rotation), 1.0, atol=1e-12)
    assert [v.timestamp for v in views] == [0, 1, 2, 3]


def test_build_rig_outward_and_pitch():
    down = build_rig(RigSpec(rings=[RingSpec(1, 1.0, 5.0, -90.0)]))
    npt.assert_allclose(down[0].rotation[:, 2], [0.0, 0.0, -1.0], atol=1e-12)
    out = build_rig(RigSpec(rings=[RingSpec(1, 1.0, 0.0, 0.0, inward=False)]))
    npt.assert_allclose(out[0].rotation[:, 2], [1.0, 0.0, 0.0], atol=1e-12)
    assert len(build_rig(RigSpec())) == 12      # stock 8 + 2 + 2 layout


def test_perturb_poses():
    views = build_rig(RigSpec(rings=[RingSpec(3, 2.0, 1.0, -20.0)]))
    same = perturb_poses(views, 0.0)
    assert all(a is b for a, b in zip(same, views))
    moved = perturb_poses(views, 0.05, seed=3)
    again = perturb_poses(views, 0.05, seed=3)
    for v, m, a in zip(views, moved, again):
        assert np.all(m.translation != v.translation)
        npt.assert_array_equal(m.translation, a.translation)
        npt.assert_array_equal(m.rotation, v.rotation)
    with pytest.raises(InvalidInputError):
        perturb_poses(views, -0.1)


# ---------------------------------------------------------------------------
# Spec serialization
# ---------------------------------------------------------------------------

def test_spec_roundtrip_through_dict_and_file(tmp_path):
    for spec in (_mini_spec(seed=5, n=23), room_spec(seed=2)):
        back = SynthSpec.from_dict(spec.to_dict())
        assert back.seed == spec.seed
        assert back.feature_dim == spec.feature_dim
        assert back.n_gaussians == spec.n_gaussians
        assert back.class_names == spec.class_names
        assert len(back.primitives) == len(spec.primitives)
        for a, b in zip(spec.primitives, back.primitives):
            assert (a.shape, a.class_name, a.name, a.yaw) == \
                (b.shape, b.class_name, b.name, b.yaw)
            npt.assert_array_equal(a.center, b.center)
            npt.assert_array_equal(a.size, b.size)
        assert [r.__dict__ for r in back.rig.rings] == \
            [r.__dict__ for r in spec.rig.rings]
        npt.assert_array_equal(back.grid.origin, spec.grid.origin)
        assert back.grid.dims == spec.grid.dims

    path = tmp_path / "spec.json"
    spec = _mini_spec(seed=9)
    spec.save(path)
    loaded = SynthSpec.load(path)
    assert loaded.to_dict() == spec.to_dict()


# ---------------------------------------------------------------------------
# Ray-traced references
# ---------------------------------------------------------------------------

def test_trace_depth_center_pixel_and_misses():
    cam = _identity_camera(fx=2.0, size=5)
    ball = Primitive("sphere", "x", (0.0, 0.0, 5.0), (1.0, 1, 1))
    depth, idx = trace_depth(cam, [ball])
    assert depth.shape == (5, 5) and idx.shape == (5, 5)
    assert depth[2, 2] == 4.0 and idx[2, 2] == 0
    assert np.isnan(depth[0, 0]) and idx[0, 0] == -1


def test_trace_depth_occlusion_and_depth_convention():
    cam = _identity_camera(fx=2.0, size=5)
    ball = Primitive("sphere", "x", (0.0, 0.0, 5.0), (1.0, 1, 1))
    screen = Primitive("box", "y", (0.0, 0.0, 2.0), (4.0, 4.0, 0.5))
    depth, idx = trace_depth(cam, [ball, screen])
    npt.assert_array_equal(depth, 1.75)     # camera depth, also off-axis
    npt.assert_array_equal(idx, 1)          # the screen wins everywhere


# ---------------------------------------------------------------------------
# Ground-truth grids
# ---------------------------------------------------------------------------

def test_rasterize_gt_center_inside_and_first_wins():
    grid = GridSpec(np.zeros(3), (2, 1, 1), 1.0)    # centers x = 0.5 and 1.5
    first = Primitive("box", "a", (0.5, 0.5, 0.5), (0.6, 0.6, 0.6))
    both = Primitive("box", "b", (1.0, 0.5, 0.5), (1.8, 0.8, 0.8))
    gt = rasterize_gt([first, both], grid, ["a", "b"])
    assert gt.labels[0, 0, 0] == 0          # covered by both, first wins
    assert gt.labels[1, 0, 0] == 1
    npt.assert_array_equal(gt.occ_mass, [[[1.0]], [[1.0]]])

    gt = rasterize_gt([first], grid, ["a"])
    assert gt.labels[1, 0, 0] == EMPTY_LABEL
    assert gt.occ_mass[1, 0, 0] == 0.0


def test_room_fixture_census():
    spec = room_spec()
    assert spec.class_names == ["ground", "wall", "curb", "panel", "pillar"]
    result = gen_scene(spec)
    gt = result.gt_grid
    counts = np.bincount(gt.labels[gt.occupied], minlength=5)
    npt.assert_array_equal(counts, [100, 28, 36, 4, 2])
    assert gt.occupied.sum() == 170
    assert result.view_waves == (8, 2, 2)
    assert len(result.views) == 12
    assert result.bank.class_names == spec.class_names + ["empty"]
    assert len(result.scene) == spec.n_gaussians


# ---------------------------------------------------------------------------
# Scene sampling
# ---------------------------------------------------------------------------

def test_sample_scene_largest_remainder_allocation():
    prims = [Primitive("box", "a", (0, 0, 0), (1.0, 1.0, 1.0)),      # area 6
             Primitive("box", "b", (5, 0, 0), (2.0, 1.0, 0.5))]     # area 7
    spec = SynthSpec(primitives=prims, n_gaussians=4, feature_dim=4)
    bank = orthonormal_bank(["a", "b", "empty"], 4)
    scene = sample_scene(spec, bank, rng=np.random.default_rng(0))
    assert len(scene) == 4
    e_a = bank.entries[0].embeddings[0]
    n_a = int(np.sum(np.all(scene.feature == e_a, axis=1)))
    assert n_a == 2                          # fraction 0.846 beats 0.154

    thirteen = SynthSpec(primitives=prims, n_gaussians=13, feature_dim=4)
    scene = sample_scene(thirteen, bank, rng=np.random.default_rng(0))
    n_a = int(np.sum(np.all(scene.feature == e_a, axis=1)))
    assert n_a == 6 and len(scene) == 13     # exact quotas 6 and 7


def test_sample_scene_omit_and_constant_attributes():
    spec = _mini_spec(n=30)
    bank = orthonormal_bank(["slab", "ball", "empty"], 6)
    scene = sample_scene(spec, bank, omit=("ball",),
                         rng=np.random.default_rng(1))
    assert len(scene) == 30
    npt.assert_array_equal(scene.scale, 0.05)
    npt.assert_array_equal(scene.opacity, 0.9)
    npt.assert_array_equal(scene.quat, np.tile([1.0, 0, 0, 0], (30, 1)))
    e_ball = bank.entries[1].embeddings[0]
    assert not np.any(np.all(scene.feature == e_ball, axis=1))
    with pytest.raises(InvalidInputError):
        sample_scene(spec, bank, omit=("slab", "ball"))


# ---------------------------------------------------------------------------
# Full generation
# ---------------------------------------------------------------------------

def test_gen_scene_is_deterministic_and_annotates_views():
    a = gen_scene(_mini_spec())
    b = gen_scene(_mini_spec())
    npt.assert_array_equal(a.scene.mu, b.scene.mu)
    npt.assert_array_equal(a.scene.feature, b.scene.feature)
    assert a.view_waves == (2,)
    for va, vb in zip(a.views, b.views):
        npt.assert_array_equal(va.ref_depth, vb.ref_depth)
        assert va.ref_feature is not None

    view = a.views[0]
    assert np.isnan(view.ref_depth[~view.ref_valid]).all()
    norms = np.linalg.norm(view.ref_feature, axis=2)
    npt.assert_allclose(norms[view.ref_valid], 1.0, atol=1e-12)
    npt.assert_array_equal(norms[~view.ref_valid], 0.0)
    assert view.ref_valid.any() and not view.ref_valid.all()


def test_gen_scene_feature_planes_match_traced_classes():
    result = gen_scene(_mini_spec())
    spec = result.spec
    emb = {name: result.bank.entries[i].embeddings[0]
           for i, name in enumerate(spec.class_names)}
    view = result.views[1]
    depth, idx = trace_depth(view, spec.primitives)
    npt.assert_array_equal(view.ref_valid, np.isfinite(depth))
    for r, c in zip(*np.nonzero(view.ref_valid)):
        name = spec.primitives[idx[r, c]].class_name
        npt.assert_array_equal(view.ref_feature[r, c], emb[name])


def test_gen_scene_noise_knobs():
    import dataclasses
    noisy = dataclasses.replace(_mini_spec(), depth_noise=0.05, pose_noise=0.02)
    clean = gen_scene(_mini_spec())
    out = gen_scene(noisy)
    again = gen_scene(noisy)
    v0, vn, va = clean.views[0], out.views[0], again.views[0]
    npt.assert_array_equal(vn.ref_depth[vn.ref_valid], va.ref_depth[va.ref_valid])
    assert np.any(vn.ref_depth[vn.ref_valid] != v0.ref_depth[v0.ref_valid])
    assert np.all(vn.ref_depth[vn.ref_valid] > 0.0)
    assert np.any(vn.translation != v0.translation)
    npt.assert_array_equal(vn.rotation, v0.rotation)


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("noise", [{}, {"depth_noise": 0.15}, {"pose_noise": 0.05}],
                         ids=["clean", "depth_noise", "pose_noise"])
def test_reference_masks_follow_the_near_plane_rule(seed, noise):
    """Every fixture mask is the reference-depth rule, finite and beyond
    Z_NEAR, applied to its plane: ray hits lie beyond the near plane and
    depth noise is clamped to 2 Z_NEAR, so no plane holds a depth the rule
    drops."""
    import dataclasses
    result = gen_scene(dataclasses.replace(room_spec(seed), **noise))
    for v in result.views:
        assert v.ref_valid.dtype == bool
        npt.assert_array_equal(v.ref_valid,
                               np.isfinite(v.ref_depth) & (v.ref_depth > Z_NEAR))
        assert v.ref_valid.any()


def test_gen_scene_rejects_unknown_omissions():
    with pytest.raises(InvalidInputError):
        gen_scene(_mini_spec(), omit_from_scene=("roof",))
    with pytest.raises(InvalidInputError):
        gen_scene(SynthSpec(primitives=[]))


def test_missing_wall_fixture_omits_only_the_east_wall():
    missing = missing_wall_fixture()
    east = next(p for p in missing.spec.primitives if p.name == "wall_east")
    # probe the wall's core, away from the corners it shares with the
    # north/south walls (whose surface samples graze the full wall box)
    probe = Primitive("box", "probe", east.center,
                      (east.size[0] + 1e-9, 4.0, east.size[2]))
    assert not probe.contains(missing.scene.mu).any()
    # the references and ground truth still know the wall
    full = gen_scene(room_spec())
    assert probe.contains(full.scene.mu).any()
    npt.assert_array_equal(missing.gt_grid.labels, full.gt_grid.labels)
    assert len(missing.scene) == missing.spec.n_gaussians
