"""Acceptance suite: twelve pinned behavioural criteria, one printed
[PASS]/[FAIL] line each (run with `pytest tests/test_acceptance.py -v -s`
to see every line; captured output is shown on failure anyway).

The criteria and their tolerances:

 1. tiled renderer vs. per-pixel oracle, 100 random scenes (N <= 200,
    images <= 128x128, F = 16): max-abs <= 1e-5 on depth / feature /
    acc_alpha, under 60 s single-threaded;
 2. rendered depth at 1000 random valid pixels lies inside the exact
    [min, max] range of the contributing Gaussians' camera depths;
 3. on the missing-wall fixture no selected pixel has residual <= 0.2 m,
    and the mean residual over the selected set strictly decreases after
    one 1000-budget densification, under 30 s;
 4. farthest-point sampling equals the O(N^2 k) greedy oracle index-for-
    index on 50 random instances (N <= 500, k <= 64);
 5. attention prefix invariance: for 20 weight seeds and (x_prev, x_total)
    in {(4,6), (100,150), (4000,5000)} at D = 64, the first x_prev output
    rows of the masked full run match the prefix-only run to 1e-6;
 6. 10^4 random (Gaussian, offset) sample placements satisfy the
    Mahalanobis <= 3 bound with zero violations; bilinear interpolation
    reproduces the 4-texel hand fixture to 1e-7 (plane [[1,2],[3,4]]:
    (0.5, 0.5) -> 2.5, (0.25, 0) -> 1.25);
 7. voxelizer and point queries match dense accumulation to 1e-6 with the
    cutoff off (50 instances, N <= 100, grid <= 32^3); with cutoff 3 on
    sub-voxel-scale instances the relative error is <= 2e-3 (relative to
    masses >= 1e-2, one decade below the occupancy threshold — truncated
    tails beyond 3 sigma are bounded by N * exp(-15.8) ~ 1.4e-5);
 8. every hand-computed loss fixture reproduces to 1e-9: L1 offset cases
    and {(1,2),(2,2),(4,1)} -> 4/3; silog {ln 2, 0} at lambda 0.5 ->
    (3/8) ln^2 2 and scale invariance at lambda 1 (<= 1e-12, float log
    precision); photometric zero cases and exact-reprojection warp
    (<= 1e-3); feature-loss scale/orthogonality cases; unit components
    under stock weights (0.15, 10, 10) -> 11.15 + 11 = 22.15;
 9. metric fixtures exact: IoU {TP=1, FP=1, FN=1} -> 1/3, AP fixtures
    (1.0, 1/n reversed, {0.9+, 0.8-, 0.7+} -> 5/6), and a full-true
    visibility mask changes mAP by <= 1e-12;
10. the end-to-end default pipeline on seeds 0..4 reaches mIoU >= 0.85
    and retrieval mAP >= 0.95 against analytic ground truth;
11. per-layer render time and (row, pixel) pairs evaluated are
    non-decreasing across the 4000/5000/6000 default layer counts on seeds
    0..4 (each layer's prefix of the written scene rendered into the views
    of its waves; layers 0 and 1 reproduce the report rows' pairs), and
    the tiled renderer is >= 10x the oracle at N = 10000, 180x320;
12. scene and grid artifacts are byte-identical across two runs and
    across thread counts {1, 8} (timings excluded from the comparison).
"""

from __future__ import annotations

import hashlib
import json
import math
import pathlib
import time

import numpy as np
import pytest

from fgs.attention import AttentionWeights, asa_forward
from fgs.core import CameraView, GaussianScene, covariance3d
from fgs.densify import (densify_layer, fps, fps_oracle,
                         select_under_represented)
from fgs.losses import (LossComponents, LossWeights, feat_loss, l1_depth,
                        photometric_temporal, silog, total_loss)
from fgs.io import load_scene
from fgs.pipeline import PipelineConfig, _render_views, run_pipeline
from fgs.raster import T_STOP, alpha_at, project_gaussian, render, render_oracle
from fgs.sampling import bilinear_sample, place_samples
from fgs.synth import gen_scene, missing_wall_fixture, room_spec
from fgs.voxel import (GridSpec, VoxelGrid, average_precision, eval_map,
                       eval_miou, orthonormal_bank, query_points, voxelize,
                       voxelize_oracle)

EMPTY = -1


def _verdict(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d} {name}: {detail}")
    assert ok, f"criterion {num:02d} {name}: {detail}"


def _camera(w, h, fx):
    return CameraView(fx=fx, fy=fx, cx=(w - 1) / 2.0, cy=(h - 1) / 2.0,
                      width=w, height=h, rotation=np.eye(3),
                      translation=np.zeros(3))


def _random_scene(rng, n, fdim=16, z_low=0.05, z_high=12.0):
    quat = rng.normal(size=(n, 4))
    return GaussianScene(
        mu=np.column_stack([rng.uniform(-4.0, 4.0, n),
                            rng.uniform(-3.0, 3.0, n),
                            rng.uniform(z_low, z_high, n)]),
        scale=rng.uniform(0.02, 0.4, size=(n, 3)),
        quat=quat / np.linalg.norm(quat, axis=1, keepdims=True),
        opacity=rng.uniform(0.0, 1.0, size=n),
        feature=rng.normal(size=(n, fdim)),
    )


def _speed_scene(n, fdim, seed):
    """Criterion 11's scene: n Gaussians spread over a 12 x 8 x 13.5 m box
    in front of the camera."""
    rng = np.random.default_rng(seed)
    quat = rng.normal(size=(n, 4))
    return GaussianScene(
        mu=rng.uniform([-6.0, -4.0, 0.5], [6.0, 4.0, 14.0], size=(n, 3)),
        scale=rng.uniform(0.05, 0.3, size=(n, 3)),
        quat=quat / np.linalg.norm(quat, axis=1, keepdims=True),
        opacity=rng.uniform(0.2, 0.95, size=n),
        feature=rng.normal(size=(n, fdim)),
    )


@pytest.fixture(scope="module")
def room_runs(tmp_path_factory):
    """Five seeded default-pipeline runs plus the determinism re-runs.

    Shared across criteria 10-12: seed 0 is run three times (twice at one
    thread, once at eight) and seeds 1-4 once, all with artifacts on disk.
    `dirs[seed]` is each seed's first run.
    """
    base = tmp_path_factory.mktemp("accept")
    dirs = {"t1_a": str(base / "seed0_t1_a"),
            "t1_b": str(base / "seed0_t1_b"),
            "t8": str(base / "seed0_t8")}
    dirs.update({seed: str(base / f"seed{seed}") for seed in (1, 2, 3, 4)})
    dirs[0] = dirs["t1_a"]
    reports = {0: run_pipeline(PipelineConfig(seed=0, threads=1,
                                              out_dir=dirs["t1_a"]))}
    for seed in (1, 2, 3, 4):
        reports[seed] = run_pipeline(PipelineConfig(seed=seed, threads=1,
                                                    out_dir=dirs[seed]))
    run_pipeline(PipelineConfig(seed=0, threads=1, out_dir=dirs["t1_b"]))
    run_pipeline(PipelineConfig(seed=0, threads=8, out_dir=dirs["t8"]))
    return reports, dirs


# ---------------------------------------------------------------------------
# 1. Tiled renderer vs. per-pixel oracle
# ---------------------------------------------------------------------------

def test_criterion_01_render_oracle_equivalence():
    rng = np.random.default_rng(11)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 201))
        h, w = (int(rng.integers(16, 129)) for _ in range(2))
        scene = _random_scene(rng, n)
        cam = _camera(w, h, fx=float(rng.uniform(0.5, 0.8)) * w)
        a = render(scene, cam, threads=1)
        b = render_oracle(scene, cam)
        worst = max(worst,
                    float(np.abs(a.depth - b.depth).max()),
                    float(np.abs(a.feature - b.feature).max()),
                    float(np.abs(a.acc_alpha - b.acc_alpha).max()))
        assert np.array_equal(a.valid, b.valid)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-5 and elapsed < 60.0
    _verdict(1, "tiled render matches per-pixel oracle", ok,
             f"max|diff| = {worst:.3e} (tol 1e-5), "
             f"100 scenes in {elapsed:.1f}s (< 60s)")


# ---------------------------------------------------------------------------
# 2. Depth convexity at valid pixels
# ---------------------------------------------------------------------------

def _contributing_depths(proj_sorted, u, v):
    """Independent per-pixel pass: camera depths blended at pixel (u, v)."""
    t = 1.0
    depths = []
    for p in proj_sorted:
        a = alpha_at(p, (u, v))
        if a == 0.0:
            continue
        if t < T_STOP:
            break
        depths.append(p.z_cam)
        t *= 1.0 - a
    return depths


def test_criterion_02_depth_inside_contributing_range():
    rng = np.random.default_rng(21)
    checked, violations = 0, 0
    scene_idx = 0
    while checked < 1000:
        scene = _random_scene(rng, 80, z_low=0.5)
        cam = _camera(64, 64, fx=40.0)
        out = render(scene, cam, threads=1)
        proj = [p for i in range(len(scene))
                for p in [project_gaussian(scene, i, cam)]
                if p is not None]
        proj.sort(key=lambda p: (p.z_cam, p.source_index))
        vv, uu = np.nonzero(out.valid)
        order = rng.permutation(vv.size)
        for idx in order[:1000 - checked]:
            v, u = int(vv[idx]), int(uu[idx])
            depths = _contributing_depths(proj, float(u), float(v))
            if not depths or not min(depths) <= out.depth[v, u] <= max(depths):
                violations += 1
            checked += 1
        scene_idx += 1
        assert scene_idx < 20, "not enough valid pixels to sample"
    ok = violations == 0
    _verdict(2, "depth stays inside contributing z range", ok,
             f"{violations} violations over {checked} pixels (exact containment)")


# ---------------------------------------------------------------------------
# 3. Selection soundness + densification progress
# ---------------------------------------------------------------------------

def _selection_residual(renders, views, masks):
    pooled = [np.abs(out.depth[sel & out.valid] - v.ref_depth[sel & out.valid])
              for out, v, sel in zip(renders, views, masks)]
    pooled = np.concatenate(pooled)
    return float(pooled.mean()), pooled.size


def test_criterion_03_selection_sound_and_densify_progresses():
    t0 = time.perf_counter()
    fixture = missing_wall_fixture(0)
    scene, views = fixture.scene, fixture.views
    renders = [render(scene, v) for v in views]
    masks = [select_under_represented(out, v.ref_depth, v.ref_valid, gamma=0.2)
             for out, v in zip(renders, views)]
    n_selected = int(sum(m.sum() for m in masks))
    unsound = sum(int(np.sum((out.depth - v.ref_depth)[m & out.valid] <= 0.2))
                  for out, v, m in zip(renders, views, masks))

    grown, _ = densify_layer(scene, views, 1000, renders=renders)
    after_renders = [render(grown, v) for v in views]
    before, _ = _selection_residual(renders, views, masks)
    after, _ = _selection_residual(after_renders, views, masks)
    elapsed = time.perf_counter() - t0

    ok = n_selected > 0 and unsound == 0 and after < before and elapsed < 30.0
    _verdict(3, "selection sound, densify strictly improves", ok,
             f"{n_selected} px selected, {unsound} with residual <= 0.2m, "
             f"mean residual {before:.3f} -> {after:.3f} m, "
             f"{len(grown) - len(scene)} added, {elapsed:.1f}s (< 30s)")


# ---------------------------------------------------------------------------
# 4. Farthest-point sampling vs. greedy oracle
# ---------------------------------------------------------------------------

def test_criterion_04_fps_matches_greedy_oracle():
    rng = np.random.default_rng(41)
    mismatches = 0
    for _ in range(50):
        n = int(rng.integers(5, 501))
        k = int(rng.integers(1, min(64, n) + 1))
        pts = rng.normal(size=(n, 3)) * rng.uniform(0.5, 3.0)
        if not np.array_equal(fps(pts, k), fps_oracle(pts, k)):
            mismatches += 1
    ok = mismatches == 0
    _verdict(4, "farthest-point sampling equals greedy oracle", ok,
             f"{mismatches} mismatched instances of 50 "
             f"(N <= 500, k <= 64, exact index equality)")


# ---------------------------------------------------------------------------
# 5. Attention prefix invariance
# ---------------------------------------------------------------------------

def test_criterion_05_attention_prefix_invariance():
    worst = 0.0
    for seed in range(20):
        weights = AttentionWeights.seeded(64, heads=8, seed=seed)
        rng = np.random.default_rng(1000 + seed)
        for x_prev, x_total in ((4, 6), (100, 150), (4000, 5000)):
            q = rng.normal(size=(x_total, 64))
            pos = rng.uniform(-50.0, 50.0, size=(x_total, 3))
            full = asa_forward(q, pos, weights, x_prev)
            prefix = asa_forward(q[:x_prev], pos[:x_prev], weights, x_prev)
            worst = max(worst, float(np.abs(full[:x_prev] - prefix).max()))
    ok = worst <= 1e-6
    _verdict(5, "prefix rows unmoved by suffix growth", ok,
             f"max|diff| = {worst:.3e} over 20 seeds x 3 sizes (tol 1e-6)")


# ---------------------------------------------------------------------------
# 6. Sample containment + bilinear fixture
# ---------------------------------------------------------------------------

def test_criterion_06_sample_containment_and_bilinear():
    rng = np.random.default_rng(61)
    violations = 0
    for _ in range(100):                      # 100 Gaussians x 100 offsets
        scene = _random_scene(rng, 1)
        offsets = rng.uniform(-1.0, 1.0, size=(100, 3))
        pts = place_samples(scene.mu, scene.scale, scene.quat, offsets[None])[0]
        d = pts - scene.mu[0]
        cov = covariance3d(scene.scale[0], scene.quat[0])
        q = np.einsum("nj,nj->n", d, np.linalg.solve(cov, d.T).T)
        violations += int(np.sum(q > 3.0))

    plane = np.array([[1.0, 2.0], [3.0, 4.0]])
    mid = bilinear_sample(plane, np.array([0.5]), np.array([0.5]))[0]
    edge = bilinear_sample(plane, np.array([0.25]), np.array([0.0]))[0]
    bil = max(abs(mid - 2.5), abs(edge - 1.25))

    ok = violations == 0 and bil <= 1e-7
    _verdict(6, "Mahalanobis bound + bilinear hand fixture", ok,
             f"{violations} violations of q <= 3 over 10^4 pairs, "
             f"bilinear error {bil:.2e} (tol 1e-7)")


# ---------------------------------------------------------------------------
# 7. Voxelizer vs. dense accumulation
# ---------------------------------------------------------------------------

def _query_brute(scene, pts):
    occ = np.zeros(pts.shape[0])
    feat = np.zeros((pts.shape[0], scene.feature_dim))
    for i in range(len(scene)):
        cov = covariance3d(scene.scale[i], scene.quat[i])
        d = pts - scene.mu[i]
        q = np.einsum("nj,nj->n", d, np.linalg.solve(cov, d.T).T)
        w = np.exp(-0.5 * q)
        occ += scene.opacity[i] * w
        feat += w[:, None] * scene.feature[i]
    return occ, feat


def test_criterion_07_voxelizer_oracle_equivalence():
    rng = np.random.default_rng(71)
    bank = orthonormal_bank(["a", "b", "c", "empty"], 8, seed=0)

    worst_off = 0.0                           # cutoff disabled: absolute
    for _ in range(50):
        n = int(rng.integers(1, 101))
        dims = tuple(int(d) for d in rng.integers(4, 33, size=3))
        voxel = float(rng.uniform(0.3, 0.7))
        origin = rng.uniform(-1.0, 1.0, size=3)
        grid = GridSpec(origin, dims, voxel)
        span = origin + np.array(dims) * voxel
        scene = GaussianScene(
            mu=rng.uniform(origin, span, size=(n, 3)),
            scale=rng.uniform(0.05, 0.35, size=(n, 3)),
            quat=(lambda r: r / np.linalg.norm(r, axis=1, keepdims=True))(
                rng.normal(size=(n, 4))),
            opacity=rng.uniform(0.1, 1.0, size=n),
            feature=rng.normal(size=(n, 8)),
        )
        a = voxelize(scene, bank, grid, cutoff=None)
        b = voxelize_oracle(scene, bank, grid)
        worst_off = max(worst_off, float(np.abs(a.occ_mass - b.occ_mass).max()))
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.occupied, b.occupied)
        pts = np.vstack([rng.uniform(origin, span, size=(20, 3)),
                         scene.mu[:10] + rng.normal(scale=0.05, size=(min(n, 10), 3))])
        qo, qf = query_points(scene, pts, cutoff=None)
        bo, bf = _query_brute(scene, pts)
        worst_off = max(worst_off, float(np.abs(qo - bo).max()),
                        float(np.abs(qf - bf).max()))

    # Cutoff 3: sub-voxel scales 0.06-0.12 voxel, centers jittered by at
    # most 0.05 voxel.  Every (probe, Gaussian) pair is then either within
    # sqrt(3) * 0.1 voxel <= 3 sigma_min (always inside the cutoff) or at
    # least 0.83 voxel >= 6.9 sigma_max away (truncated mass <= 5e-11), so
    # the relative error against masses >= 1e-2 stays far below 2e-3.
    worst_rel = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 101))
        dims = tuple(int(d) for d in rng.integers(4, 13, size=3))
        voxel = float(rng.uniform(0.3, 0.8))
        grid = GridSpec(np.zeros(3), dims, voxel)
        centers = grid.centers_flat()
        picks = centers[rng.integers(0, centers.shape[0], size=n)]
        scene = GaussianScene(
            mu=picks + rng.uniform(-0.05, 0.05, size=(n, 3)) * voxel,
            scale=rng.uniform(0.06, 0.12, size=(n, 3)) * voxel,
            quat=(lambda r: r / np.linalg.norm(r, axis=1, keepdims=True))(
                rng.normal(size=(n, 4))),
            opacity=rng.uniform(0.1, 1.0, size=n),
            feature=rng.normal(size=(n, 8)),
        )
        c = voxelize(scene, bank, grid, cutoff=3.0)
        d = voxelize_oracle(scene, bank, grid)
        rel = np.abs(c.occ_mass - d.occ_mass) / np.maximum(d.occ_mass, 1e-2)
        worst_rel = max(worst_rel, float(rel.max()))
        pts = picks[:20] + rng.uniform(-0.05, 0.05, size=(min(n, 20), 3)) * voxel
        qc, _ = query_points(scene, pts, cutoff=3.0)
        qn, _ = query_points(scene, pts, cutoff=None)
        worst_rel = max(worst_rel, float(
            (np.abs(qc - qn) / np.maximum(qn, 1e-2)).max()))

    ok = worst_off <= 1e-6 and worst_rel <= 2e-3
    _verdict(7, "voxelize/query match dense accumulation", ok,
             f"cutoff off max|diff| = {worst_off:.2e} (tol 1e-6), "
             f"cutoff 3 max rel = {worst_rel:.2e} (tol 2e-3)")


# ---------------------------------------------------------------------------
# 8. Loss fixtures
# ---------------------------------------------------------------------------

def _warp_fixture_error():
    """Photometric error when the source is the exact reprojection of the
    target: fx * tx / Z = 20 * 0.4 / 4 = 2 pixels, an integral shift.

    The texture is zeroed on the two columns the shift pushes past the
    source's right edge: the warp 0-fills those (uncounted) pixels, and
    zero texture there keeps the SSIM windows of their counted neighbours
    consistent between the target and the warped image.
    """
    h, w, fx, z, tx = 16, 24, 20.0, 4.0, 0.4
    uu, vv = np.meshgrid(np.arange(w + 2, dtype=np.float64),
                         np.arange(h, dtype=np.float64))
    texture = np.sin(0.7 * uu) + 0.5 * np.cos(0.9 * vv + 0.3 * uu)
    texture[:, w:] = 0.0
    target = texture[:, 2:, None]            # target(u) == texture(u + 2)
    source = texture[:, :w, None]            # source(u + 2) == target(u)
    depth = np.full((h, w), z)
    pose = (np.eye(3), np.array([tx, 0.0, 0.0]))
    return photometric_temporal(target, [source], depth, [pose],
                                (fx, fx, (w - 1) / 2.0, (h - 1) / 2.0))


def test_criterion_08_loss_fixtures():
    rng = np.random.default_rng(81)
    errs = {}

    d = rng.uniform(1.0, 5.0, size=(6, 7))
    errs["l1 zero"] = l1_depth(d, d)
    errs["l1 offset"] = abs(l1_depth(d, d + 0.5) - 0.5)
    three = (np.array([[1.0, 2.0, 4.0]]), np.array([[2.0, 2.0, 1.0]]))
    errs["l1 4/3"] = abs(l1_depth(*three) - 4.0 / 3.0)

    errs["silog zero"] = silog(d, d)
    two = (np.array([[1.0, 1.0]]), np.array([[2.0, 1.0]]))
    errs["silog 3/8 ln^2 2"] = abs(silog(*two, lambda_var=0.5)
                                   - 0.375 * math.log(2.0) ** 2)
    errs["silog scale inv"] = abs(silog(d, 3.7 * d, lambda_var=1.0)) * 1e3
    # 1e-12 target scaled onto the shared 1e-9 scale (float log precision).

    img = rng.uniform(0.0, 1.0, size=(12, 16, 3))
    depth = np.full((12, 16), 3.0)
    pose = (np.eye(3), np.zeros(3))
    intr = (10.0, 10.0, 7.5, 5.5)
    errs["photo identical"] = photometric_temporal(img, [img], depth,
                                                   [pose], intr)
    flat = np.full((12, 16, 1), 0.42)
    errs["photo constant"] = photometric_temporal(flat, [flat.copy()],
                                                  depth * 2.0, [pose], intr)
    warp_err = _warp_fixture_error()

    f = rng.normal(size=(5, 6, 4))
    cos0, mse0 = feat_loss(f, f)
    errs["feat identical"] = max(abs(cos0), abs(mse0))
    cos2, mse2 = feat_loss(f, 2.0 * f)
    errs["feat doubled"] = max(abs(cos2),
                               abs(mse2 - float(np.mean(np.sum(f ** 2, -1)))))
    e1 = np.zeros((1, 1, 2))
    e2 = np.zeros((1, 1, 2))
    e1[..., 0] = 1.0
    e2[..., 1] = 1.0
    errs["feat orthogonal"] = abs(feat_loss(e1, e2)[0] - 1.0)

    zero_total, _ = total_loss(LossComponents(0.0, 0.0, 0.0, 0.0, 0.0))
    errs["total zero"] = abs(zero_total)
    unit = LossComponents(1.0, 1.0, 1.0, 1.0, 1.0)
    total, parts = total_loss(unit)
    errs["total 22.15"] = max(abs(parts["depth_group"] - 11.15),
                              abs(parts["feat_group"] - 11.0),
                              abs(total - 22.15))
    _, doubled = total_loss(unit, LossWeights(lambda_feat=2.0))
    errs["feat weight linear"] = abs(doubled["total"] - doubled["depth_group"]
                                     - 2.0 * parts["feat_group"])

    worst = max(errs.values())
    ok = worst <= 1e-9 and warp_err <= 1e-3
    worst_name = max(errs, key=errs.get)
    _verdict(8, "hand-computed loss fixtures", ok,
             f"worst fixture error = {worst:.2e} ({worst_name}; tol 1e-9), "
             f"reprojection warp = {warp_err:.2e} (tol 1e-3)")


# ---------------------------------------------------------------------------
# 9. Metric fixtures
# ---------------------------------------------------------------------------

def _label_grid(labels):
    labels = np.asarray(labels, dtype=np.int32).reshape(-1, 1, 1)
    return VoxelGrid(np.zeros(3), 0.4, np.zeros(labels.shape), labels)


def test_criterion_09_metric_fixtures():
    same = _label_grid([0, 1, EMPTY, 1])
    perfect = eval_miou(same, same)
    third = eval_miou(_label_grid([1, 1, EMPTY, EMPTY]),
                      _label_grid([1, EMPTY, 1, EMPTY]))
    disjoint = eval_miou(_label_grid([0, EMPTY]), _label_grid([EMPTY, 0]))
    miou_ok = (perfect.miou == 1.0 and third.per_class[1] == 1.0 / 3.0
               and disjoint.miou == 0.0)

    ap_perfect = average_precision(np.array([0.9, 0.8, 0.2, 0.1]),
                                   np.array([True, True, False, False]))
    ap_reversed = average_precision(np.array([4.0, 3.0, 2.0, 1.0]),
                                    np.array([False, False, False, True]))
    ap_hand = average_precision(np.array([0.9, 0.8, 0.7]),
                                np.array([True, False, True]))
    ap_ok = (ap_perfect == 1.0 and ap_reversed == 0.25
             and abs(ap_hand - 5.0 / 6.0) <= 1e-15)

    rng = np.random.default_rng(91)
    scores = rng.normal(size=(3, 40))
    gt = rng.uniform(size=(3, 40)) < 0.3
    gt[:, 0] = True                           # every query keeps a positive
    plain = eval_map(scores, gt)
    masked = eval_map(scores, gt, visible=np.ones(40, dtype=bool))
    vis_gap = abs(plain.map - masked.map)

    ok = miou_ok and ap_ok and vis_gap <= 1e-12
    _verdict(9, "hand-counted metric fixtures", ok,
             f"IoU(1/3) = {third.per_class[1]:.6f}, AP fixture = {ap_hand:.6f}"
             f" (want 5/6), full-true mask gap = {vis_gap:.1e} (tol 1e-12)")


# ---------------------------------------------------------------------------
# 10. End-to-end quality over five seeds
# ---------------------------------------------------------------------------

def test_criterion_10_pipeline_closes_the_loop(room_runs):
    reports, _ = room_runs
    mious, maps = [], []
    for seed in range(5):
        metrics = reports[seed]["stages"][-1]["metrics"]
        mious.append(metrics["miou"])
        maps.append(metrics["map"])
    ok = min(mious) >= 0.85 and min(maps) >= 0.95
    _verdict(10, "end-to-end mIoU / retrieval mAP", ok,
             f"mIoU min {min(mious):.3f} (>= 0.85), "
             f"mAP min {min(maps):.3f} (>= 0.95) over seeds 0-4")


# ---------------------------------------------------------------------------
# 11. Performance shape
# ---------------------------------------------------------------------------

def _layer_renders(scene, fixture, layer):
    """Full renders of `layer`'s prefix of `scene`'s geometry into the views
    of waves 0..`layer`, as the pipeline renders a layer, and their wall
    time."""
    n = scene.layer_offsets[layer]
    prefix = GaussianScene(scene.mu[:n], scene.scale[:n], scene.quat[:n],
                           scene.opacity[:n], scene.feature[:n, :0])
    views = fixture.views[:sum(fixture.view_waves[:layer + 1])]
    t0 = time.perf_counter()
    outs = _render_views(prefix, views)
    return outs, time.perf_counter() - t0


def test_criterion_11_performance_shape(room_runs):
    # Each layer has more Gaussians and more views than the one before, so
    # its renders evaluate at least as many (row, pixel) pairs: a count
    # check next to the wall-clock one, which noise cannot flip.  The
    # pipeline renders its last layer only where a stage reads it, so every
    # layer's renders are made here from the written scene (refine keeps
    # the geometry; the file rounds it to float32), and layers 0 and 1
    # must reproduce the pipeline's own rows.
    reports, dirs = room_runs
    monotone = pairs_monotone = reproduced = True
    times0 = pairs0 = None
    for seed in range(5):
        layers = reports[seed]["layers"]
        assert [row["count"] for row in layers] == [4000, 5000, 6000]
        scene = load_scene(str(pathlib.Path(dirs[seed]) / "scene.fgs"))
        fixture = gen_scene(room_spec(seed))
        times, pairs = [], []
        for layer in range(3):
            outs, seconds = _layer_renders(scene, fixture, layer)
            times.append(seconds)
            pairs.append(sum(out.pairs_evaluated for out in outs))
        reproduced &= pairs[:2] == [row["pairs_evaluated"] for row in layers[:2]]
        monotone &= all(a <= b for a, b in zip(times, times[1:]))
        pairs_monotone &= all(a <= b for a, b in zip(pairs, pairs[1:]))
        if seed == 0:
            times0, pairs0 = [f"{t:.2f}" for t in times], pairs
    # 10k Gaussians into a 180x320 camera
    scene, cam = _speed_scene(10000, 16, 0), _camera(320, 180, 160.0)
    t0 = time.perf_counter()
    render(scene, cam, threads=1)
    t1 = time.perf_counter()
    render_oracle(scene, cam)
    speedup = (time.perf_counter() - t1) / (t1 - t0)
    ok = monotone and pairs_monotone and reproduced and speedup >= 10.0
    _verdict(11, "layer times and work monotone + tiled speedup", ok,
             f"seed-0 layer render seconds {times0} (non-decreasing x5 seeds: "
             f"{monotone}), pairs evaluated {pairs0} (non-decreasing x5 "
             f"seeds: {pairs_monotone}; layers 0-1 equal the reports' rows: "
             f"{reproduced}), tiled {speedup:.1f}x oracle (>= 10x)")


def test_growth_rows_count_the_pseudo_clouds(room_runs):
    """Each layer's growth row names the cloud its FPS ran on: seed 0's
    8 init views of 120x160 pixels, then the two densify candidate pools,
    161,590 points in all."""
    reports, _ = room_runs
    for seed in range(5):
        growth = [row["growth"] for row in reports[seed]["layers"]]
        assert [g["picks"] for g in growth] == [4000, 1000, 1000]
        assert growth[0]["cloud_points"] == 8 * 120 * 160
    clouds = [row["growth"]["cloud_points"] for row in reports[0]["layers"]]
    assert clouds == [153600, 6585, 1405] and sum(clouds) == 161590


# ---------------------------------------------------------------------------
# 12. Bytewise determinism
# ---------------------------------------------------------------------------

def test_seed0_artifact_digests(room_runs):
    """Seed 0's default-pipeline artifacts are pinned by sha256 prefix.  A
    change that moves their bits updates these and says why."""
    _, dirs = room_runs
    out = pathlib.Path(dirs["t1_a"])
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()[:16]
               for name in ("scene.fgs", "grid.voxg")}
    assert digests == {"scene.fgs": "3a1972856d4bedaa",
                       "grid.voxg": "dc4a8059bb1814c6"}


def _strip_volatile(obj):
    """Drop timings, artifact paths, and the recorded thread count: the
    criterion is about results, not about how long they took or how many
    workers produced them."""
    if isinstance(obj, dict):
        return {k: _strip_volatile(v) for k, v in obj.items()
                if k not in ("time_s", "artifacts", "threads")}
    if isinstance(obj, list):
        return [_strip_volatile(v) for v in obj]
    return obj


def test_criterion_12_bytewise_determinism(room_runs):
    _, dirs = room_runs
    paths = [pathlib.Path(dirs[k]) for k in ("t1_a", "t1_b", "t8")]
    same_bytes = all(
        (p / name).read_bytes() == (paths[0] / name).read_bytes()
        for p in paths[1:] for name in ("scene.fgs", "grid.voxg"))
    stripped = [_strip_volatile(json.loads((p / "report.json").read_text()))
                for p in paths]
    same_report = stripped[0] == stripped[1] == stripped[2]
    ok = same_bytes and same_report
    _verdict(12, "artifacts byte-identical across runs/threads", ok,
             f"scene.fgs + grid.voxg identical over two runs and threads "
             f"{{1,8}}: {same_bytes}; timing-stripped reports equal: "
             f"{same_report}")
