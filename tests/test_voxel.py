"""Voxelization, text-prompt retrieval, and metric tests.

Hand anchors:

* an isotropic Gaussian (s = 0.5, opacity 0.8) contributes exactly 0.8 at
  its own center and 0.8 * exp(-0.32) one voxel (0.4 m) away, since
  q = 0.4^2 / 0.5^2 = 0.64;
* with an orthonormal bank, a feature 2 * e_c has similarity 2 for class c
  and 0 elsewhere, so its softmax probability is e^2 / (e^2 + C - 1);
* scores (0.9, 0.8, 0.7, 0.6) with truth (1, 0, 1, 0) hit at ranks 1 and 3,
  giving AP = (1/1 + 2/3) / 2 = 5/6;
* prediction {0,1,2} vs truth {0,3} for one class is IoU = 1 / (1+2+1) = 1/4.
"""

from __future__ import annotations

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from fgs.core import GaussianScene, covariance3d, quats_to_rotmats
from fgs.errors import EmptyInputError, InvalidInputError
from fgs.voxel import (DEFAULT_CUTOFF, EMPTY_LABEL, GridSpec, PAIR_BLOCK, TAU_OCC,
                       TextBank, TextBankEntry, VoxelGrid, _accumulate_kernel,
                       _BallQuery, average_precision, eval_map, eval_miou,
                       orthonormal_bank, query_points, retrieval_scores,
                       text_probs, voxelize, voxelize_oracle)

ROOT = Path(__file__).resolve().parents[1]


def _single(mu=(0.0, 0.0, 0.0), s=0.5, opacity=0.8, f=None, fdim=4):
    feature = np.zeros((1, fdim)) if f is None else np.asarray(f, dtype=float)[None, :]
    return GaussianScene(np.asarray(mu, dtype=float)[None, :],
                         np.full((1, 3), s), np.array([[1.0, 0, 0, 0]]),
                         np.array([opacity]), feature)


def _random_scene(rng, n, fdim=4, span=1.5):
    mu = rng.uniform(-span, span, size=(n, 3))
    quat = rng.normal(size=(n, 4))
    return GaussianScene(mu, rng.uniform(0.1, 0.6, (n, 3)),
                         quat / np.linalg.norm(quat, axis=1, keepdims=True),
                         rng.uniform(0.1, 1.0, n), rng.normal(size=(n, fdim)))


def _grid(n=5, voxel=0.4):
    half = n * voxel / 2.0
    return GridSpec(origin=np.full(3, -half), dims=(n, n, n), voxel_size=voxel)


# ---------------------------------------------------------------------------
# Text bank
# ---------------------------------------------------------------------------

def test_bank_entry_normalizes_and_validates():
    entry = TextBankEntry("wall", ["a wall"], np.array([[3.0, 4.0]]))
    npt.assert_allclose(entry.embeddings, [[0.6, 0.8]])
    with pytest.raises(InvalidInputError):
        TextBankEntry("wall", ["a", "b"], np.array([[1.0, 0.0]]))
    with pytest.raises(InvalidInputError):
        TextBankEntry("wall", ["a"], np.zeros((1, 2)))
    for bad in (np.nan, np.inf):
        with pytest.raises(InvalidInputError, match="non-finite embedding"):
            TextBankEntry("wall", ["a"], np.array([[1.0, bad]]))


def test_bank_properties_and_empty_index():
    bank = orthonormal_bank(["empty", "wall", "ground"], dim=4)
    assert bank.class_names == ["empty", "wall", "ground"]
    assert bank.num_classes == 3 and bank.feature_dim == 4
    assert bank.empty_index == 0
    assert orthonormal_bank(["wall"], 4, empty_class=None).empty_index is None
    assert orthonormal_bank(["wall"], 4, empty_class="sky").empty_index is None
    gram = np.vstack([e.embeddings for e in bank.entries])
    npt.assert_allclose(gram @ gram.T, np.eye(3), atol=1e-12)
    with pytest.raises(InvalidInputError):
        orthonormal_bank(["a", "b", "c"], dim=2)
    with pytest.raises(InvalidInputError):
        TextBank([])
    with pytest.raises(InvalidInputError):
        TextBank([TextBankEntry("a", ["a"], np.ones((1, 2))),
                  TextBankEntry("b", ["b"], np.ones((1, 3)))])


def test_similarity_multi_prompt_reduction():
    e0 = np.array([1.0, 0.0, 0.0])
    e1 = np.array([0.0, 1.0, 0.0])
    bank = TextBank([TextBankEntry("thing", ["p1", "p2"], np.stack([e0, e1]))],
                    empty_class=None)
    f = np.array([0.6, 0.8, 0.0])
    npt.assert_allclose(bank.similarity(f), [[0.8]])
    with pytest.raises(InvalidInputError):
        bank.similarity(np.ones(2))


def test_text_probs_hand_value_and_normalization():
    bank = orthonormal_bank(["a", "b", "c"], dim=3, empty_class=None)
    f = 2.0 * bank.entries[1].embeddings[0]
    p = text_probs(f, bank)
    assert p.shape == (3,)
    npt.assert_allclose(p.sum(), 1.0, atol=1e-12)
    npt.assert_allclose(p[1], np.exp(2.0) / (np.exp(2.0) + 2.0), atol=1e-12)
    batch = text_probs(np.stack([f, f]), bank)
    npt.assert_array_equal(batch[0], batch[1])
    npt.assert_allclose(batch[0], p)


# ---------------------------------------------------------------------------
# Grid containers
# ---------------------------------------------------------------------------

def test_gridspec_centers_and_validation():
    grid = GridSpec(origin=[1.0, 2.0, 3.0], dims=(2, 1, 3), voxel_size=0.5)
    centers = grid.centers_flat()
    assert centers.shape == (6, 3)
    npt.assert_allclose(centers[0], [1.25, 2.25, 3.25])
    # x-major (i, j, k) raveling: last axis fastest
    npt.assert_allclose(centers[1], [1.25, 2.25, 3.75])
    npt.assert_allclose(centers[3], [1.75, 2.25, 3.25])
    with pytest.raises(InvalidInputError):
        GridSpec(origin=np.zeros(3), dims=(0, 2, 2))
    with pytest.raises(InvalidInputError):
        GridSpec(origin=np.zeros(3), dims=(2, 2, 2), voxel_size=0.0)
    for origin, size in [((np.nan, 0, 0), 0.4), ((0, np.inf, 0), 0.4),
                         (np.zeros(3), np.nan), (np.zeros(3), np.inf)]:
        with pytest.raises(InvalidInputError):
            GridSpec(origin=origin, dims=(2, 2, 2), voxel_size=size)
        with pytest.raises(InvalidInputError):
            VoxelGrid(origin, size, np.zeros((2, 2, 2)), np.zeros((2, 2, 2)))


def test_voxelgrid_centers_match_spec_and_validation():
    grid = _grid(3)
    vg = VoxelGrid(grid.origin, grid.voxel_size, np.zeros((3, 3, 3)),
                   np.full((3, 3, 3), EMPTY_LABEL))
    npt.assert_allclose(vg.centers().reshape(-1, 3), grid.centers_flat())
    assert not vg.occupied.any()
    assert vg.dims == (3, 3, 3)
    with pytest.raises(InvalidInputError):
        VoxelGrid(np.zeros(3), 0.4, np.zeros((3, 3, 3)), np.zeros((3, 3)))
    with pytest.raises(InvalidInputError):
        VoxelGrid(np.zeros(3), -0.4, np.zeros((3, 3, 3)), np.zeros((3, 3, 3)))


# ---------------------------------------------------------------------------
# Voxelization
# ---------------------------------------------------------------------------

def test_voxelize_single_gaussian_hand_masses():
    bank = orthonormal_bank(["empty", "wall"], dim=4)
    scene = _single(f=3.0 * bank.entries[1].embeddings[0])
    grid = _grid(5)  # centers at -0.8, -0.4, 0.0, 0.4, 0.8 per axis
    out = voxelize(scene, bank, grid)
    npt.assert_allclose(out.occ_mass[2, 2, 2], 0.8, atol=1e-12)
    npt.assert_allclose(out.occ_mass[3, 2, 2], 0.8 * np.exp(-0.32), atol=1e-12)
    assert out.labels[2, 2, 2] == 1
    # the all-(0.8, 0.8, 0.8) corner: q = 3 * 0.64 / 0.25... use the exact mass
    corner = 0.8 * np.exp(-0.5 * 3 * 0.8**2 / 0.25)
    npt.assert_allclose(out.occ_mass[4, 4, 4], corner, atol=1e-12)
    assert corner < TAU_OCC and out.labels[4, 4, 4] == EMPTY_LABEL
    assert out.class_probs is not None


def test_voxelize_empty_class_and_threshold_edge():
    bank = orthonormal_bank(["empty", "wall"], dim=4)
    grid = _grid(3)
    sky = _single(opacity=0.9, f=3.0 * bank.entries[0].embeddings[0])
    out = voxelize(sky, bank, grid)
    assert np.all(out.labels == EMPTY_LABEL)       # argmax empty never labels
    assert out.occ_mass[1, 1, 1] > TAU_OCC

    edge = _single(opacity=TAU_OCC, f=3.0 * bank.entries[1].embeddings[0])
    out = voxelize(edge, bank, grid)
    assert out.occ_mass[1, 1, 1] == TAU_OCC        # k = 1 exactly at the center
    assert out.labels[1, 1, 1] == 1                # >= is inclusive


def test_voxelize_tie_breaks_to_lowest_class_index():
    bank = orthonormal_bank(["a", "b"], dim=4, empty_class=None)
    scene = _single(opacity=0.9, f=np.zeros(4))    # uniform class probabilities
    out = voxelize(scene, bank, _grid(3))
    assert out.labels[1, 1, 1] == 0


def test_voxelize_matches_dense_oracle_without_cutoff():
    rng = np.random.default_rng(42)
    bank = orthonormal_bank(["empty", "wall", "ground"], dim=4, seed=1)
    scene = _random_scene(rng, 20)
    grid = _grid(6)
    fast = voxelize(scene, bank, grid, cutoff=None)
    slow = voxelize_oracle(scene, bank, grid)
    npt.assert_allclose(fast.occ_mass, slow.occ_mass, atol=1e-9)
    npt.assert_allclose(fast.class_probs, slow.class_probs, atol=1e-9)
    npt.assert_array_equal(fast.labels, slow.labels)


def test_voxelize_cutoff_matches_truncated_oracle_exactly():
    rng = np.random.default_rng(7)
    bank = orthonormal_bank(["empty", "wall"], dim=4, seed=2)
    scene = _random_scene(rng, 12)
    grid = _grid(6)
    fast = voxelize(scene, bank, grid, cutoff=DEFAULT_CUTOFF)

    centers = grid.centers_flat()
    occ = np.zeros(centers.shape[0])
    probs = text_probs(scene.feature, bank)
    for i in range(len(scene)):
        prec = np.linalg.inv(covariance3d(scene.scale[i], scene.quat[i]))
        d = centers - scene.mu[i]
        q = np.einsum("md,de,me->m", d, prec, d)
        k = np.where(q <= DEFAULT_CUTOFF**2, np.exp(-0.5 * q), 0.0)
        occ += k * scene.opacity[i]
    npt.assert_allclose(fast.occ_mass, occ.reshape(grid.dims), atol=1e-9)
    assert probs.shape == (12, 2)


def test_voxelize_cutoff_only_removes_far_mass():
    bank = orthonormal_bank(["empty", "wall"], dim=4)
    scene = _single(s=0.1, opacity=0.9, f=3.0 * bank.entries[1].embeddings[0])
    grid = _grid(7)
    full = voxelize(scene, bank, grid, cutoff=None)
    cut = voxelize(scene, bank, grid, cutoff=3.0)
    assert np.all(cut.occ_mass <= full.occ_mass + 1e-15)
    # 3 sigma of 0.1 m is 0.3 m: anything two voxels out is exactly zero
    assert cut.occ_mass[3, 3, 3] == full.occ_mass[3, 3, 3]
    assert cut.occ_mass[6, 3, 3] == 0.0 and full.occ_mass[6, 3, 3] > 0.0


def _reference_voxelize(scene, bank, grid, tau_occ=TAU_OCC, cutoff=DEFAULT_CUTOFF):
    """The per-Gaussian box loop `voxelize` replaced, written out.

    Each Gaussian touches the voxels of its axis-aligned box
    |x_d - mu_d| <= cutoff * sqrt(Sigma_dd), widened by floor/ceil, and
    builds its local coordinates separably over the box's three axes.
    """
    nx, ny, nz = grid.dims
    occ = np.zeros((nx, ny, nz))
    cls = np.zeros((nx, ny, nz, bank.num_classes))
    if len(scene):
        probs = text_probs(scene.feature, bank)
        rot = quats_to_rotmats(scene.quat)
        inv_var = 1.0 / scene.scale**2
        axes = [grid.origin[d] + (np.arange(n) + 0.5) * grid.voxel_size
                for d, n in zip(range(3), (nx, ny, nz))]
        cov_diag = np.einsum("nij,nj,nij->ni", rot, scene.scale**2, rot)
        for i in range(len(scene)):
            if cutoff is None:
                sl = (slice(0, nx), slice(0, ny), slice(0, nz))
            else:
                radius = cutoff * np.sqrt(cov_diag[i])
                lo = np.floor((scene.mu[i] - radius - grid.origin) / grid.voxel_size - 0.5)
                hi = np.ceil((scene.mu[i] + radius - grid.origin) / grid.voxel_size - 0.5)
                lo = np.clip(lo.astype(int), 0, grid.dims)
                hi = np.clip(hi.astype(int) + 1, 0, grid.dims)
                if np.any(lo >= hi):
                    continue
                sl = tuple(slice(a, b) for a, b in zip(lo, hi))
            dx = axes[0][sl[0]] - scene.mu[i][0]
            dy = axes[1][sl[1]] - scene.mu[i][1]
            dz = axes[2][sl[2]] - scene.mu[i][2]
            lx = (dx[:, None, None, None] * rot[i][0][None, None, None, :]
                  + dy[None, :, None, None] * rot[i][1][None, None, None, :]
                  + dz[None, None, :, None] * rot[i][2][None, None, None, :])
            q = np.einsum("xyzd,d->xyz", lx * lx, inv_var[i])
            k = np.exp(-0.5 * q)
            if cutoff is not None:
                k[q > cutoff * cutoff] = 0.0
            occ[sl] += k * scene.opacity[i]
            cls[sl] += k[..., None] * probs[i]
    labels = np.argmax(cls, axis=-1).astype(np.int32)
    occupied = occ >= tau_occ
    if bank.empty_index is not None:
        occupied &= labels != bank.empty_index
    labels[~occupied] = EMPTY_LABEL
    return VoxelGrid(grid.origin, grid.voxel_size, occ, labels, cls)


def _lattice_scene(grid, fdim=4):
    """Isotropic Gaussians on voxel centers with scales k * voxel / 3 for
    k = 1..6, so q = 3**2 falls exactly on the centers k voxels out, and
    q = 1**2 on those k / 3 voxels out when k is 3 or 6."""
    centers = grid.centers_flat()
    pick = np.arange(0, centers.shape[0], 37)
    k = 1 + np.arange(pick.size) % 6
    s = (k * grid.voxel_size / 3)[:, None].repeat(3, axis=1)
    rng = np.random.default_rng(5)
    return GaussianScene(centers[pick], s, np.tile([1.0, 0, 0, 0], (pick.size, 1)),
                         rng.uniform(0.1, 1.0, pick.size),
                         rng.normal(size=(pick.size, fdim)))


def test_voxelize_is_bit_identical_to_the_box_loop():
    bank = orthonormal_bank(["empty", "wall", "ground"], dim=4, seed=1)
    rng = np.random.default_rng(11)
    lattice = _grid(9)
    many = GridSpec(origin=[-2.2, -2.2, -2.0], dims=(22, 22, 20), voxel_size=0.2)
    near = _random_scene(rng, 5)
    far = GaussianScene(near.mu + 50.0, near.scale, near.quat, near.opacity,
                        near.feature)                # no voxel within any cutoff
    cases = [(_lattice_scene(lattice), lattice),
             (_lattice_scene(GridSpec([0.1, -0.3, 0.7], (9, 8, 7), 0.25)),
              GridSpec([0.1, -0.3, 0.7], (9, 8, 7), 0.25)),
             (_random_scene(rng, 25), _grid(7, voxel=0.3)),  # rotated, anisotropic
             (_random_scene(rng, 200, span=2.0), many),
             (GaussianScene.empty(4), _grid(3)),
             (far, _grid(3))]
    # the large case spans many blocks, and without a cutoff one Gaussian's
    # pairs fill more than a block
    assert many.centers_flat().shape[0] > PAIR_BLOCK
    for scene, grid in cases:
        for cutoff in (3.0, 1.0, None):
            fast = voxelize(scene, bank, grid, cutoff=cutoff)
            ref = _reference_voxelize(scene, bank, grid, cutoff=cutoff)
            assert np.array_equal(fast.occ_mass, ref.occ_mass), (len(scene), cutoff)
            assert np.array_equal(fast.class_probs, ref.class_probs), (len(scene), cutoff)
            npt.assert_array_equal(fast.labels, ref.labels)
    big, _ = cases[3]
    d = many.centers_flat()[:, None, :] - big.mu[None, :, :]
    pairs = np.count_nonzero(np.linalg.norm(d, axis=2) <= 3.0 * big.scale.max(axis=1))
    assert pairs > 4 * PAIR_BLOCK


def test_voxelize_rejects_feature_dim_mismatch():
    bank = orthonormal_bank(["empty", "wall"], dim=8)
    with pytest.raises(InvalidInputError):
        voxelize(_single(fdim=4), bank, _grid(3))
    with pytest.raises(InvalidInputError):
        voxelize_oracle(_single(fdim=4), bank, _grid(3))


def test_voxelize_empty_scene_is_all_empty():
    bank = orthonormal_bank(["empty", "wall"], dim=4)
    out = voxelize(GaussianScene.empty(4), bank, _grid(3))
    assert np.all(out.labels == EMPTY_LABEL)
    npt.assert_array_equal(out.occ_mass, 0.0)


# ---------------------------------------------------------------------------
# Point queries and retrieval
# ---------------------------------------------------------------------------

def test_query_points_center_and_falloff():
    f = np.array([1.0, -2.0, 0.5, 3.0])
    scene = _single(mu=(1.0, 2.0, 3.0), s=0.5, opacity=0.8, f=f)
    pts = np.array([[1.0, 2.0, 3.0], [1.4, 2.0, 3.0]])
    p_occ, p_feat = query_points(scene, pts)
    npt.assert_allclose(p_occ, [0.8, 0.8 * np.exp(-0.32)], atol=1e-12)
    npt.assert_allclose(p_feat[0], f, atol=1e-12)
    npt.assert_allclose(p_feat[1], f * np.exp(-0.32), atol=1e-12)


def test_query_points_transparent_gaussian_keeps_feature_mass():
    f = np.array([2.0, 0.0, 0.0, 0.0])
    scene = _single(opacity=0.0, f=f)
    p_occ, p_feat = query_points(scene, np.zeros((1, 3)))
    npt.assert_allclose(p_occ, [0.0])
    npt.assert_allclose(p_feat[0], f)


def test_query_points_cutoff_and_edges():
    scene = _single(s=0.5)
    far = np.array([[2.0, 0.0, 0.0]])        # 4 sigma out
    p_occ, _ = query_points(scene, far, cutoff=3.0)
    assert p_occ[0] == 0.0
    p_occ, _ = query_points(scene, far, cutoff=None)
    assert p_occ[0] > 0.0

    empty_occ, empty_feat = query_points(GaussianScene.empty(4), np.zeros((2, 3)))
    npt.assert_array_equal(empty_occ, 0.0)
    assert empty_feat.shape == (2, 4)
    with pytest.raises(InvalidInputError):
        query_points(scene, np.zeros((2, 2)))
    for pts in (np.zeros((0, 3)), np.zeros((2, 3))):
        for cutoff in (3.0, None):
            for sc in (scene, GaussianScene.empty(4)):
                p_occ, p_feat = query_points(sc, pts, cutoff=cutoff)
                assert p_occ.shape == (len(pts),) and p_feat.shape == (len(pts), 4)
    with pytest.raises(InvalidInputError):
        query_points(scene, np.array([[0.0, 0.0, 0.0], [np.nan, 0.0, 1.0]]))
    with pytest.raises(InvalidInputError):
        query_points(scene, np.array([[np.inf, 0.0, 0.0]]), cutoff=None)


@pytest.mark.parametrize("cutoff", [0.0, -1.0, np.nan, np.inf])
def test_cutoff_must_be_none_or_positive_and_finite(cutoff):
    bank = orthonormal_bank(["empty", "wall"], dim=4)
    with pytest.raises(InvalidInputError):
        query_points(_single(), np.zeros((1, 3)), cutoff=cutoff)
    with pytest.raises(InvalidInputError):
        voxelize(_single(), bank, _grid(3), cutoff=cutoff)


@pytest.mark.parametrize("tau_occ", [np.nan, np.inf, -np.inf])
def test_tau_occ_must_be_finite(tau_occ):
    bank = orthonormal_bank(["empty", "wall"], dim=4)
    for vox in (voxelize, voxelize_oracle):
        with pytest.raises(InvalidInputError):
            vox(_single(), bank, _grid(3), tau_occ=tau_occ)


def test_query_points_at_voxel_centers_is_voxelize_occupancy():
    rng = np.random.default_rng(3)
    bank = orthonormal_bank(["empty", "wall"], dim=4)
    scene = _random_scene(rng, 30)
    grid = _grid(6)
    for cutoff in (3.0, None):
        p_occ, _ = query_points(scene, grid.centers_flat(), cutoff=cutoff)
        occ = voxelize(scene, bank, grid, cutoff=cutoff).occ_mass
        assert np.array_equal(p_occ.reshape(grid.dims), occ)


def test_retrieval_scores_pick_the_right_class():
    bank = orthonormal_bank(["empty", "wall", "ground"], dim=6, seed=3)
    e_wall = bank.entries[1].embeddings[0]
    e_ground = bank.entries[2].embeddings[0]
    mu = np.array([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0]])
    scene = GaussianScene(mu, np.full((2, 3), 0.3),
                          np.tile([1.0, 0, 0, 0], (2, 1)), np.array([0.9, 0.9]),
                          np.stack([2.0 * e_wall, 2.0 * e_ground]))
    pts = np.array([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0], [100.0, 100.0, 100.0]])
    scores, p_occ = retrieval_scores(scene, bank, pts)
    assert scores.shape == (3, 3) and p_occ.shape == (3,)
    npt.assert_allclose(scores[1, 0], 2.0, atol=1e-9)   # wall at the wall point
    npt.assert_allclose(scores[2, 1], 2.0, atol=1e-9)   # ground at the ground point
    assert np.argmax(scores[:, 0]) == 1 and np.argmax(scores[:, 1]) == 2
    npt.assert_allclose(scores[:, 2], 0.0, atol=1e-12)  # empty space scores nothing
    npt.assert_allclose(p_occ[2], 0.0, atol=1e-12)


def _dense_accumulate(points, scene, weights, cutoff):
    """Every Gaussian against every point, in scene order, with the pairs
    at q > cutoff**2 masked to zero."""
    rot = quats_to_rotmats(scene.quat)
    inv_var = 1.0 / scene.scale**2
    acc = np.zeros((points.shape[0], weights.shape[1]))
    for i in range(len(scene)):
        d = points - scene.mu[i]
        local = d[:, 0:1] * rot[i][0] + d[:, 1:2] * rot[i][1] + d[:, 2:3] * rot[i][2]
        q = np.einsum("md,d->m", local * local, inv_var[i])
        k = np.exp(-0.5 * q)
        k[q > cutoff * cutoff] = 0.0
        acc += k[:, None] * weights[i]
    return acc


def test_ball_query_kernel_is_bit_identical_to_dense_masked_sums():
    rng = np.random.default_rng(29)
    pts = rng.uniform(-1.0, 1.0, (3000, 3))
    wide = rng.random(60) < 0.25
    scale = np.where(wide, 5.0, 0.05)[:, None] * rng.uniform(1.0, 1.5, (60, 3))
    base = _random_scene(rng, 60, span=1.2)          # partly outside the points too
    skewed = GaussianScene(base.mu, scale, base.quat, base.opacity, base.feature)
    base = _random_scene(rng, 20)
    outside = GaussianScene(base.mu + [6.0, 0.0, 0.0], base.scale, base.quat,
                            base.opacity, base.feature)  # no point within any cutoff
    # radii a billionth of the points' spread but one as wide as it: with a
    # cell per median radius the keys would overflow and the wide Gaussian
    # would span about 1e18 columns
    base = _random_scene(rng, 40, span=900.0)
    scale = base.scale * np.where(np.arange(40) < 39, 1e-6, 1e3)[:, None]
    spread = GaussianScene(base.mu, scale, base.quat, base.opacity, base.feature)
    layouts = [(skewed, pts), (outside, pts),
               (_random_scene(rng, 30), pts[rng.integers(0, 40, 500)]),  # duplicates
               (_random_scene(rng, 30), pts[:1]),
               (_random_scene(rng, 30), np.zeros((0, 3))),
               (GaussianScene.empty(4), pts),
               (spread, np.concatenate([spread.mu[:20] + 2e-7, pts]))]
    for scene, points in layouts:
        weights = np.column_stack([scene.opacity, scene.feature])
        for cutoff in (3.0, 1.0):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = _accumulate_kernel(points, scene, weights, cutoff)
                want = _dense_accumulate(points, scene, weights, cutoff)
            assert np.array_equal(got, want), (len(scene), len(points), cutoff)
    # a narrow Gaussian's candidates stay local though a quarter are 100x wider
    query = _BallQuery(pts, skewed.mu, 3.0 * skewed.scale.max(axis=1))
    assert query.counts[wide].min() == len(pts)
    assert query.counts[~wide].max() < len(pts) // 10


def test_default_loop_imports_no_scipy():
    """`import fgs`, the CLI, voxelize and retrieval load no SciPy module.
    Run in a fresh interpreter: other tests load SciPy into this one."""
    script = "\n".join([
        "import sys",
        "import numpy as np",
        "import fgs, fgs.cli",
        "from fgs.core import GaussianScene",
        "from fgs.voxel import GridSpec, orthonormal_bank, retrieval_scores, voxelize",
        "rng = np.random.default_rng(0)",
        "quat = rng.normal(size=(40, 4))",
        "scene = GaussianScene(rng.uniform(-1, 1, (40, 3)), rng.uniform(0.1, 0.5, (40, 3)),",
        "                      quat, rng.uniform(0, 1, 40), rng.normal(size=(40, 4)))",
        "bank = orthonormal_bank(['empty', 'wall'], dim=4)",
        "grid = voxelize(scene, bank, GridSpec(np.full(3, -1.0), (5, 5, 5), 0.4))",
        "scores, _ = retrieval_scores(scene, bank, rng.uniform(-1, 1, (50, 3)))",
        "assert grid.occupied.any() and np.all(np.isfinite(scores))",
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
    ])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def _label_grid(labels):
    labels = np.asarray(labels, dtype=np.int32).reshape(-1, 1, 1)
    return VoxelGrid(np.zeros(3), 0.4, np.zeros(labels.shape, dtype=float), labels)


def test_miou_hand_case_and_exclusions():
    pred = _label_grid([1, 1, 1, EMPTY_LABEL, 0])
    gt = _label_grid([1, EMPTY_LABEL, EMPTY_LABEL, 1, 0])
    res = eval_miou(pred, gt)
    npt.assert_allclose(res.per_class[1], 0.25)
    npt.assert_allclose(res.per_class[0], 1.0)
    npt.assert_allclose(res.miou, 0.625)
    assert res.evaluated_classes == [0, 1]

    res = eval_miou(pred, gt, class_ids=[0, 1, 7])
    assert 7 not in res.per_class and res.evaluated_classes == [0, 1]

    one_sided = eval_miou(_label_grid([2, EMPTY_LABEL]),
                          _label_grid([EMPTY_LABEL, EMPTY_LABEL] ), class_ids=[2])
    npt.assert_allclose(one_sided.per_class[2], 0.0)


def test_miou_ignore_mask_and_errors():
    pred = _label_grid([1, 1, 0])
    gt = _label_grid([1, 0, 0])
    assert eval_miou(pred, gt).miou < 1.0
    ignore = np.zeros((3, 1, 1), dtype=bool)
    ignore[1] = True
    assert eval_miou(pred, gt, ignore=ignore).miou == 1.0
    with pytest.raises(InvalidInputError):
        eval_miou(pred, _label_grid([1, 0]))
    with pytest.raises(InvalidInputError):
        eval_miou(pred, gt, ignore=np.zeros((2, 1, 1), dtype=bool))
    with pytest.raises(EmptyInputError):
        eval_miou(_label_grid([EMPTY_LABEL]), _label_grid([EMPTY_LABEL]))


def test_miou_refuses_grids_of_other_origin_or_voxel_size():
    """The grids must describe the same voxels, not only as many of them;
    origin and voxel size are compared at float32, the precision of a
    `.voxg` header, so a grid read back from a file still matches its
    float64 source."""
    labels = np.array([1, 0, 1], dtype=np.int32).reshape(3, 1, 1)
    mass = np.zeros(labels.shape)
    gt = VoxelGrid(np.array([-4.0, -4.0, 0.0]), 0.8, mass, labels)
    read_back = VoxelGrid(np.float32(gt.origin).astype(np.float64),
                          float(np.float32(0.8)), mass, labels)
    assert read_back.voxel_size != gt.voxel_size
    assert eval_miou(read_back, gt).miou == 1.0
    assert eval_miou(gt, read_back).miou == 1.0
    for origin, size in (([0.0, 0.0, 0.0], 0.8), ([-4.0, -4.0, 0.0], 0.4),
                         ([-4.0, -4.0, 1e-3], 0.8), ([-4.0, -4.0, 0.0], 0.8001)):
        with pytest.raises(InvalidInputError, match="origin or voxel size"):
            eval_miou(VoxelGrid(np.array(origin), size, mass, labels), gt)


def test_average_precision_hand_cases():
    ap = average_precision(np.array([0.9, 0.8, 0.7, 0.6]),
                           np.array([True, False, True, False]))
    npt.assert_allclose(ap, 5.0 / 6.0, atol=1e-12)
    assert average_precision(np.array([0.9, 0.1]), np.array([True, False])) == 1.0
    assert average_precision(np.array([0.1, 0.9]), np.array([True, False])) == 0.5
    # ties resolve by original index (stable sort)
    assert average_precision(np.zeros(2), np.array([True, False])) == 1.0
    assert average_precision(np.zeros(2), np.array([False, True])) == 0.5


def test_average_precision_errors():
    with pytest.raises(EmptyInputError):
        average_precision(np.array([1.0, 2.0]), np.array([False, False]))
    with pytest.raises(InvalidInputError):
        average_precision(np.array([1.0, 2.0]), np.array([True]))
    with pytest.raises(InvalidInputError):
        average_precision(np.ones((2, 2)), np.ones((2, 2), dtype=bool))


def test_map_means_queries_and_restricts_visibility():
    scores = np.array([[0.9, 0.8, 0.7, 0.6],
                       [0.6, 0.7, 0.8, 0.9]])
    gt = np.array([[True, False, True, False],
                   [False, False, False, True]])
    res = eval_map(scores, gt)
    npt.assert_allclose(res.per_query[0], 5.0 / 6.0)
    npt.assert_allclose(res.per_query[1], 1.0)
    npt.assert_allclose(res.map, (5.0 / 6.0 + 1.0) / 2.0)

    # hiding the false positive ahead of query 0's second hit lifts its AP
    visible = np.array([True, False, True, True])
    res = eval_map(scores, gt, visible=visible)
    npt.assert_allclose(res.per_query[0], 1.0)


def test_map_warns_on_empty_queries():
    scores = np.array([[0.9, 0.1], [0.5, 0.5]])
    gt = np.array([[True, False], [False, False]])
    with pytest.warns(UserWarning):
        res = eval_map(scores, gt)
    assert list(res.per_query) == [0]
    with pytest.raises(EmptyInputError):
        with pytest.warns(UserWarning):
            eval_map(scores, np.zeros_like(gt, dtype=bool))
    with pytest.raises(InvalidInputError):
        eval_map(scores, gt[:, :1])
    with pytest.raises(InvalidInputError):
        eval_map(scores, gt, visible=np.array([True]))
