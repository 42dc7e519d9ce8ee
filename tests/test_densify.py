"""Densification tests: FPS, residual selection, and layer growth.

The growth fixture is a camera staring at a far wall of Gaussians at depth
8 m whose reference depth was then overwritten with 4 m inside a central
rectangle: rendered-minus-reference is ~4 m > gamma there and ~0 elsewhere,
so the selected set must equal the rectangle exactly and every spawned
Gaussian must come from its backprojection.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from fgs.core import Z_NEAR, CameraView, GaussianScene, RenderOutput, backproject
from fgs.densify import (DensifyConfig, INIT_OPACITY, INIT_SCALE, base_init,
                         densify_layer, fps, fps_oracle, pooled_backprojection,
                         select_under_represented, selection_residual)
from fgs.errors import InsufficientPointsError, InvalidInputError
from fgs.raster import render


def _camera(width=64, height=48, fx=60.0):
    return CameraView(fx=fx, fy=fx, cx=(width - 1) / 2.0, cy=(height - 1) / 2.0,
                      width=width, height=height, rotation=np.eye(3),
                      translation=np.zeros(3))


def _wall_scene(z=8.0, nx=18, ny=14, half_x=4.4, half_y=3.4):
    xs = np.linspace(-half_x, half_x, nx)
    ys = np.linspace(-half_y, half_y, ny)
    gx, gy = np.meshgrid(xs, ys)
    mu = np.stack([gx.ravel(), gy.ravel(), np.full(gx.size, z)], axis=1)
    n = mu.shape[0]
    return GaussianScene(mu, np.full((n, 3), 0.35),
                         np.tile([1.0, 0.0, 0.0, 0.0], (n, 1)),
                         np.full(n, 0.95), np.zeros((n, 4)))


def _rect_mask(h, w, v0, v1, u0, u1):
    m = np.zeros((h, w), dtype=bool)
    m[v0:v1, u0:u1] = True
    return m


def _made_output(depth, valid):
    depth = np.asarray(depth, dtype=np.float64)
    return RenderOutput(depth=depth, feature=np.zeros(depth.shape + (1,)),
                        acc_alpha=valid.astype(np.float64), valid=valid)


# ---------------------------------------------------------------------------
# Farthest-point sampling
# ---------------------------------------------------------------------------

def test_fps_collinear_endpoints():
    pts = np.arange(10.0)[:, None]
    npt.assert_array_equal(fps(pts, 2), [0, 9])
    npt.assert_array_equal(fps(pts, 3), [0, 9, 4])  # 4 and 5 tie; lowest wins


def test_fps_k_equals_n_and_bounds():
    pts = np.random.default_rng(0).normal(size=(7, 3))
    assert set(fps(pts, 7)) == set(range(7))
    with pytest.raises(InvalidInputError):
        fps(pts, 8)
    with pytest.raises(InvalidInputError):
        fps(pts, 0)
    with pytest.raises(InvalidInputError):
        fps(pts.ravel(), 2)


def test_fps_matches_quadratic_oracle():
    rng = np.random.default_rng(42)
    for trial in range(10):
        n = int(rng.integers(5, 60))
        k = int(rng.integers(1, min(n, 12) + 1))
        pts = rng.normal(size=(n, 3))
        npt.assert_array_equal(fps(pts, k), fps_oracle(pts, k))


def test_fps_oracle_equality_with_duplicate_points():
    base = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [2.0, 2.0]])
    pts = np.concatenate([base, base, base])  # heavy ties everywhere
    for k in (2, 5, 9):
        npt.assert_array_equal(fps(pts, k), fps_oracle(pts, k))


def _fps_rowwise(points, k):
    """FPS with distances from the row reduction `np.sum(..., axis=1)`: the
    formula the column-wise sampler must reproduce bit for bit."""
    points = np.asarray(points, dtype=np.float64)
    chosen = [0]
    dist2 = np.sum((points - points[0]) ** 2, axis=1)
    for _ in range(1, k):
        chosen.append(int(np.argmax(dist2)))
        np.minimum(dist2, np.sum((points - points[chosen[-1]]) ** 2, axis=1),
                   out=dist2)
    return np.asarray(chosen)


def _lattice(side, d):
    axes = np.meshgrid(*[np.arange(side, dtype=np.float64)] * d, indexing="ij")
    return np.stack([a.ravel() for a in axes], axis=1)


def _tied_clouds(side, d, seed):
    """An integer lattice (exact distance ties everywhere), the same lattice
    shuffled and scaled, and a cloud holding each of its points twice."""
    rng = np.random.default_rng(seed)
    lattice = _lattice(side, d)
    shuffled = 0.1 * lattice[rng.permutation(len(lattice))]
    half = shuffled[:len(shuffled) // 2]
    return lattice, shuffled, np.concatenate([half, half[::-1]])


@pytest.mark.parametrize("d, side", [(1, 40), (2, 7), (3, 4)])
def test_fps_matches_oracle_on_tied_clouds(d, side):
    for pts in _tied_clouds(side, d, seed=d):
        for k in (2, 7, 19):
            npt.assert_array_equal(fps(pts, k), fps_oracle(pts, k))


@pytest.mark.parametrize("d, side", [(1, 5000), (2, 71), (3, 17)])
def test_fps_matches_rowwise_formula_on_tied_clouds(d, side):
    rng = np.random.default_rng(d)
    clouds = _tied_clouds(side, d, seed=d) + (rng.normal(size=(5000, d)),)
    for pts in clouds:
        npt.assert_array_equal(fps(pts, 300), _fps_rowwise(pts, 300))


def test_fps_accepts_strided_and_float32_input_without_modifying_it():
    rng = np.random.default_rng(7)
    wide = rng.normal(size=(5000, 4))
    view = wide[:, :3]  # rows 32 bytes apart, columns not contiguous
    before = wide.copy()
    want = _fps_rowwise(np.ascontiguousarray(view), 300)
    npt.assert_array_equal(fps(view, 300), want)
    npt.assert_array_equal(wide, before)

    pts32 = (0.1 * _lattice(17, 3)).astype(np.float32)
    before32 = pts32.copy()
    npt.assert_array_equal(fps(pts32, 300), _fps_rowwise(pts32, 300))
    npt.assert_array_equal(pts32, before32)
    assert pts32.dtype == np.float32

    contiguous = np.ascontiguousarray(view)
    before = contiguous.copy()
    fps(contiguous, 300)  # float64 input is read in place, never written
    npt.assert_array_equal(contiguous, before)


def test_fps_rejects_non_finite_points():
    for bad in (np.nan, np.inf, -np.inf):
        pts = np.array([[0.0, 0.0], [bad, 0.0], [1.0, 1.0], [3.0, 3.0]])
        with pytest.raises(InvalidInputError):
            fps(pts, 3)
    with pytest.raises(InvalidInputError):
        fps(np.zeros((4, 0)), 2)  # points without coordinates


# Cell pruning.  `fps` recomputes only the grid cells whose box a pick can
# reach; these clouds put hundreds of points in some cells and one in
# others, tie every distance, or push the squares into underflow or
# overflow.  Each must give exactly the picks of both references.

def _assert_same_picks(pts, k):
    got = fps(pts, k)
    npt.assert_array_equal(got, _fps_rowwise(pts, k))
    npt.assert_array_equal(got, fps_oracle(pts, k))


def _clustered(d, seed, blob=400, lone=12):
    """Three tight blobs and a few lone points spread over a 10-wide box."""
    rng = np.random.default_rng(seed)
    centres = rng.uniform(0.0, 10.0, size=(3, d))
    blobs = [c + 0.3 * rng.normal(size=(blob, d)) for c in centres]
    pts = np.concatenate(blobs + [rng.uniform(0.0, 10.0, size=(lone, d))])
    return pts[rng.permutation(len(pts))]


@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_fps_pruning_on_clustered_clouds(d):
    pts = _clustered(d, seed=d)
    _assert_same_picks(pts, 120)
    # rounded to a 0.1 grid, many distances tie or differ by a few roundings
    _assert_same_picks(np.round(pts, 1), 120)
    _assert_same_picks(_clustered(d, seed=10 + d, blob=60, lone=20), 200)  # k = n


def test_fps_pruning_when_every_cell_maximum_is_zero():
    _assert_same_picks(np.full((300, 3), 2.5), 300)
    rng = np.random.default_rng(5)
    corners = _lattice(2, 3) * 4.0
    copies = np.repeat(corners, 40, axis=0)[rng.permutation(8 * 40)]
    _assert_same_picks(copies, 30)  # 8 distinct picks, then index 0 on ties


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("scale", [1e-160, 1e153, 1e155])
def test_fps_pruning_where_squares_underflow_or_overflow(scale):
    # near 1e-160 the squares are subnormal, one rounding step apart; near
    # 1e155 most of them are inf
    for d in (1, 3):
        _assert_same_picks(scale * _clustered(d, seed=d), 200)


def test_fps_pruning_on_float32_and_strided_clouds():
    pts = _clustered(3, seed=8)
    _assert_same_picks(pts.astype(np.float32), 120)
    wide = np.repeat(pts, 2, axis=1)
    _assert_same_picks(wide[:, ::2], 120)  # columns 16 bytes apart


# ---------------------------------------------------------------------------
# Pseudo cloud and base layer
# ---------------------------------------------------------------------------

def test_pooled_backprojection_unions_views():
    cam = _camera()
    d1 = np.full((48, 64), 5.0)
    d2 = np.full((48, 64), np.nan)
    d2[10, 10] = 3.0
    v1 = replace(cam, ref_depth=d1)
    v2 = replace(cam, ref_depth=d2)
    bare = _camera()  # no depth: contributes nothing
    cloud = pooled_backprojection([v1, bare, v2])
    assert cloud.shape == (48 * 64 + 1, 3)
    npt.assert_allclose(cloud[:-1], backproject(v1, d1, v1.ref_valid))
    npt.assert_allclose(cloud[-1], backproject(v2, d2, v2.ref_valid)[0])
    assert pooled_backprojection([bare]).shape == (0, 3)


def test_base_init_spawns_configured_gaussians():
    cam = _camera()
    view = replace(cam, ref_depth=np.full((48, 64), 6.0))
    cfg = DensifyConfig(base_count=50, feature_dim=5)
    scene = base_init([view], cfg)
    assert len(scene) == 50 and scene.layer_offsets == (50,)
    npt.assert_array_equal(scene.scale, INIT_SCALE)
    npt.assert_array_equal(scene.opacity, INIT_OPACITY)
    npt.assert_array_equal(scene.quat, np.tile([1, 0, 0, 0], (50, 1)))
    npt.assert_array_equal(scene.feature, 0.0)
    # the picks are the FPS subset of the pooled cloud
    cloud = pooled_backprojection([view])
    npt.assert_allclose(scene.mu, cloud[fps(cloud, 50)])


def test_base_init_requires_enough_pixels():
    cam = _camera(width=8, height=8)
    view = replace(cam, cx=3.5, cy=3.5, ref_depth=np.full((8, 8), 6.0))
    with pytest.raises(InsufficientPointsError):
        base_init([view], DensifyConfig(base_count=65, feature_dim=4))


def test_base_init_rejects_a_non_finite_pixel_marked_valid():
    depth = np.full((48, 64), 6.0)
    depth[5, 7] = np.nan
    view = replace(_camera(), ref_depth=depth,
                   ref_valid=np.ones((48, 64), dtype=bool))
    with pytest.raises(InvalidInputError):
        base_init([view], DensifyConfig(base_count=50, feature_dim=5))


# ---------------------------------------------------------------------------
# Selection semantics
# ---------------------------------------------------------------------------

def test_selection_strict_at_gamma(monkeypatch):
    # GAMMA = 0.25 keeps every probe value exactly representable, so the
    # "difference equals GAMMA" pixel really sits on the boundary
    monkeypatch.setattr("fgs.densify.GAMMA", 0.25)
    ref = np.full((2, 2), 5.0)
    valid = np.ones((2, 2), dtype=bool)
    depth = np.array([[5.25, 5.25 + 1e-9],
                      [5.0, 5.25 - 1.5]])
    out = _made_output(depth, valid)
    sel = select_under_represented(out, ref, valid)
    npt.assert_array_equal(sel, [[False, True], [False, False]])


def test_selection_treats_render_invalid_as_infinite():
    ref = np.full((2, 2), 5.0)
    out = _made_output(np.full((2, 2), 5.0),
                       np.array([[True, False], [True, False]]))
    sel = select_under_represented(out, ref, None)
    npt.assert_array_equal(sel, [[False, True], [False, True]])
    # ... but pixels without reference depth are never selected
    ref_ok = np.array([[True, True], [True, False]])
    sel2 = select_under_represented(out, ref, ref_ok)
    npt.assert_array_equal(sel2, [[False, True], [False, False]])


def test_selection_without_a_mask_applies_the_reference_depth_rule():
    # NaN, infinite and near-plane references hold no depth: neither a render
    # that covers nothing (+inf residual) nor one far behind them selects them
    ref = np.array([[np.nan, np.inf, 0.0, 0.05, Z_NEAR, 5.0]])
    for covered in (False, True):
        out = _made_output(np.full((1, 6), 1e3), np.full((1, 6), covered))
        sel = select_under_represented(out, ref, None)
        npt.assert_array_equal(sel, [[False] * 5 + [True]])


def test_selection_shape_errors():
    out = _made_output(np.zeros((2, 2)), np.ones((2, 2), dtype=bool))
    with pytest.raises(InvalidInputError):
        select_under_represented(out, np.zeros((3, 3)), None)


def test_selection_residual_excludes_unresolved_pixels():
    out = _made_output(np.array([[5.0, 6.0, 9.0]]),
                       np.array([[True, True, False]]))
    view = replace(_camera(3, 1), ref_depth=np.full((1, 3), 5.0))
    sel = np.ones((1, 3), dtype=bool)
    assert selection_residual([out], [view], [sel]) == pytest.approx(0.5)
    none_resolved = _made_output(np.zeros((1, 3)), np.zeros((1, 3), dtype=bool))
    assert selection_residual([none_resolved], [view], [sel]) == np.inf


def test_selection_residual_pools_pixels_across_views():
    a = _made_output(np.array([[5.0, 6.0]]), np.ones((1, 2), dtype=bool))
    b = _made_output(np.array([[9.0, 9.0]]), np.array([[True, False]]))
    view = replace(_camera(2, 1), ref_depth=np.full((1, 2), 5.0))
    sel = np.ones((1, 2), dtype=bool)
    # pixel mean (0 + 1 + 4) / 3, not the mean of the per-view means
    assert selection_residual([a, b], [view, view], [sel, sel]) == pytest.approx(5.0 / 3.0)
    assert selection_residual([], [], []) == np.inf
    # a view with nothing selected is skipped; it needs no reference depth
    blind = _camera(2, 1)
    assert selection_residual([a, b, a], [view, view, blind],
                              [sel, sel, ~sel]) == pytest.approx(5.0 / 3.0)


# ---------------------------------------------------------------------------
# Layer growth
# ---------------------------------------------------------------------------

def _wall_fixture():
    scene = _wall_scene()
    cam = _camera()
    out = render(scene, cam)
    assert out.valid.all()
    ref = out.depth.copy()
    hole = _rect_mask(48, 64, 14, 34, 20, 44)
    ref[hole] = 4.0
    view = replace(cam, ref_depth=ref, ref_valid=np.ones((48, 64), dtype=bool))
    return scene, view, hole


def test_selected_set_equals_masked_residual_region():
    scene, view, hole = _wall_fixture()
    out = render(scene, view)
    sel = select_under_represented(out, view.ref_depth, view.ref_valid)
    npt.assert_array_equal(sel, hole)


def test_densify_layer_budget_membership_and_prefix():
    scene, view, hole = _wall_fixture()
    grown, report = densify_layer(scene, [view], 100)
    npt.assert_array_equal(report.selected[0], hole)
    assert report.selected_per_view == [int(hole.sum())]
    assert report.candidate_points == int(hole.sum())
    assert report.added == 100 and len(grown) == len(scene) + 100
    assert grown.layer_offsets == (len(scene), len(scene) + 100)
    for name in ("mu", "scale", "quat", "opacity", "feature"):
        npt.assert_array_equal(getattr(grown, name)[:len(scene)],
                               getattr(scene, name))
    # every spawn comes from the selected pixels' backprojection
    pool = backproject(view, view.ref_depth, hole)
    new = grown.mu[len(scene):]
    assert all(np.any(np.all(pool == p, axis=1)) for p in new)
    npt.assert_array_equal(grown.scale[len(scene):], INIT_SCALE)
    npt.assert_array_equal(grown.opacity[len(scene):], INIT_OPACITY)
    # one grown layer strictly reduces the selected-set residual
    after = selection_residual([render(grown, view)], [view], report.selected)
    assert after < report.residual_before


def test_densify_layer_masks_views_without_reference_depth():
    scene, view, hole = _wall_fixture()
    blind = replace(view, ref_depth=None, ref_valid=None)
    grown, report = densify_layer(scene, [blind, view], 100)
    assert report.selected_per_view == [0, int(hole.sum())]
    assert report.selected[0].shape == hole.shape and not report.selected[0].any()
    after = selection_residual([render(grown, v) for v in (blind, view)],
                               [blind, view], report.selected)
    assert after < report.residual_before


def test_densify_layer_takes_all_candidates_under_budget():
    scene, view, hole = _wall_fixture()
    grown, _ = densify_layer(scene, [view], 10 ** 6)
    assert len(grown) == len(scene) + int(hole.sum())


def test_densify_layer_zero_growth_on_perfect_scene():
    scene = _wall_scene()
    cam = _camera()
    out = render(scene, cam)
    view = replace(cam, ref_depth=out.depth.copy(), ref_valid=out.valid.copy())
    grown, report = densify_layer(scene, [view], 50)
    assert len(grown) == len(scene)
    assert grown.layer_offsets == (len(scene), len(scene))
    assert report.added == 0 and report.candidate_points == 0


def test_densify_layer_accepts_precomputed_renders():
    scene, view, _ = _wall_fixture()
    direct, _ = densify_layer(scene, [view], 64)
    cached, _ = densify_layer(scene, [view], 64, renders=[render(scene, view)])
    npt.assert_array_equal(direct.mu, cached.mu)


def test_densify_layer_new_rows_take_the_scene_width():
    """The grown rows are as wide as the scene's features, whatever feature
    planes the rig has (here none); each growth call spends its own budget."""
    scene, view, _ = _wall_fixture()
    assert view.ref_feature is None and scene.feature_dim == 4
    grown, report = densify_layer(scene, [view], 64)
    regrown, again = densify_layer(grown, [view], 8)
    assert (report.layer, again.layer) == (1, 2) and regrown.layer_count == 3
    assert grown.feature.shape == (len(scene) + 64, 4)
    assert regrown.feature.shape == (len(grown) + again.added, 4)
    npt.assert_array_equal(regrown.feature[len(scene):], 0.0)


def test_densify_layer_validates_arguments(monkeypatch):
    """A budget that is not a positive integer is refused before anything
    is rendered."""
    scene, view, _ = _wall_fixture()
    monkeypatch.setattr("fgs.densify.render",
                        lambda *a: pytest.fail("densify_layer rendered"))
    for budget in (0, -1, 2.5):
        with pytest.raises(InvalidInputError, match="budgets must be positive"):
            densify_layer(scene, [view], budget)


def test_densify_config_validation():
    for count in (0, -3, 2.0):
        with pytest.raises(InvalidInputError, match="budgets must be positive"):
            DensifyConfig(base_count=count)
