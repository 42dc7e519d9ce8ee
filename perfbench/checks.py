"""Output checks for the benchmark workloads.

Every check compares a program output against a computation made here,
without calling the fgs function under test, or against a property the
output must have.  None compares against a stored copy of earlier output.
A check raises `CheckFailed` with the reason; it returns nothing on success.
"""

from __future__ import annotations

import hashlib

import numpy as np
from scipy.spatial import cKDTree


class CheckFailed(Exception):
    pass


def require(ok, msg):
    if not ok:
        raise CheckFailed(msg)


# ---------------------------------------------------------------------------
# Independent geometry
# ---------------------------------------------------------------------------

def rotations(quat):
    """(N, 3, 3) rotation matrices of (w, x, y, z) quaternions."""
    q = np.asarray(quat, dtype=np.float64)
    w, x, y, z = (q / np.linalg.norm(q, axis=1, keepdims=True)).T
    return np.stack([
        np.stack([1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)], -1),
        np.stack([2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)], -1),
        np.stack([2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)], -1),
    ], axis=1)


def kernel_sums(points, scene, weights, cutoff, block=256):
    """Dense Sum_i exp(-q_i/2) w_i at each point, with q_i the squared
    Mahalanobis distance to Gaussian i of `scene`.

    Returns (inside, outside): the sums over the pairs with q <= cutoff**2
    and over the rest.  `weights` is (N, W); results are (M, W).
    """
    points = np.asarray(points, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    mu, inv_var, rot = scene.mu, 1.0 / scene.scale ** 2, rotations(scene.quat)
    inside = np.zeros((points.shape[0], weights.shape[1]))
    outside = np.zeros_like(inside)
    for lo in range(0, mu.shape[0], block):
        sl = slice(lo, lo + block)
        d = points[None, :, :] - mu[sl, None, :]                  # (g, m, 3)
        local = np.einsum("gmd,gde->gme", d, rot[sl])
        q = np.einsum("gme,ge->gm", local * local, inv_var[sl])
        k = np.exp(-0.5 * q)
        near = q <= cutoff * cutoff
        inside += np.einsum("gm,gw->mw", np.where(near, k, 0.0), weights[sl])
        outside += np.einsum("gm,gw->mw", np.where(near, 0.0, k), weights[sl])
    return inside, outside


def softmax_probs(features, embeddings):
    """Per-Gaussian softmax over single-prompt class similarities."""
    sims = features @ embeddings.T
    e = np.exp(sims - sims.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def bank_embeddings(bank):
    """(C, F) first-prompt embedding of every class."""
    return np.stack([entry.embeddings[0] for entry in bank.entries])


def backproject_views(views):
    """Ego-frame points of every valid reference-depth pixel, row-major per
    view, views in order."""
    clouds = []
    for v in views:
        rows, cols = np.nonzero(v.ref_valid)
        z = v.ref_depth[rows, cols]
        cam = np.stack([(cols - v.cx) / v.fx * z, (rows - v.cy) / v.fy * z, z], axis=1)
        clouds.append(cam @ v.rotation.T + v.translation)
    return np.concatenate(clouds, axis=0)


def box_labels(primitives, class_names, centers, grow=0.0):
    """Analytic ground truth: per centre, the class of the first yaw-free
    box that contains it once grown by `grow` along each axis (-1 for none).

    With `grow` equal to the voxel edge this marks the voxels that touch a
    primitive.
    """
    labels = np.full(centers.shape[0], -1)
    for p in primitives:
        require(p.shape == "box" and p.yaw == 0.0, "fixture has a non-axis-aligned primitive")
        hit = np.all(np.abs(centers - p.center) <= (p.size + grow) / 2.0 + 1e-12, axis=1)
        labels[hit & (labels < 0)] = class_names.index(p.class_name)
    return labels


def grid_centers(origin, dims, voxel_size):
    axes = [origin[d] + (np.arange(dims[d]) + 0.5) * voxel_size for d in range(3)]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)


# ---------------------------------------------------------------------------
# room-pipeline
# ---------------------------------------------------------------------------

def check_report(report, base_count, budgets):
    counts = [row["count"] for row in report["layers"]]
    want = [base_count + sum(budgets[:i]) for i in range(len(budgets) + 1)]
    require(counts == want, f"layer sizes {counts}, expected {want}")
    dens = [s for s in report["stages"] if s["name"] == "densify"]
    require(len(dens) == len(budgets), f"{len(dens)} densify stages for {len(budgets)} budgets")
    for s in dens:
        require(s["residual_after"] < s["residual_before"],
                 f"layer {s['layer']}: residual {s['residual_before']} -> {s['residual_after']}")
    m = report["stages"][-1]["metrics"]
    require(m["miou"] >= 0.85 and m["map"] >= 0.95,
             f"mIoU {m['miou']} (floor 0.85), mAP {m['map']} (floor 0.95)")


def check_miou(pred_labels, gt_labels, reported):
    """Recompute mIoU over the classes present on either side."""
    ious = []
    for c in np.union1d(np.unique(pred_labels), np.unique(gt_labels)):
        if c < 0:
            continue
        p, g = pred_labels == c, gt_labels == c
        ious.append(np.count_nonzero(p & g) / np.count_nonzero(p | g))
    miou = float(np.mean(ious))
    require(abs(miou - reported) <= 1e-12, f"mIoU recomputed {miou}, reported {reported}")
    require(miou >= 0.85, f"mIoU {miou} below 0.85")


def check_fps_sequence(cloud, picked, tol=1e-5):
    """`picked` (in pick order, possibly float32-rounded) is a greedy
    farthest-point sequence of `cloud` started at cloud point 0.

    Each pick's distance to the earlier picks never increases, and no cloud
    point lies farther from all picks than the last pick did.  At prefix
    lengths 1, 2, 4, ... the next pick's distance must also equal the
    largest distance of any cloud point to that prefix.
    """
    dist, idx = cKDTree(cloud).query(picked)
    require(dist.max() <= tol, f"a pick lies {dist.max():.3g} from every cloud point")
    require(np.linalg.norm(cloud[idx[0]] - cloud[0]) <= tol, "first pick is not cloud point 0")
    pts = cloud[idx]
    k = pts.shape[0]
    gaps = np.empty(k)            # distance of pick i to picks 0..i-1
    gaps[0] = np.inf
    for lo in range(1, k, 256):
        hi = min(k, lo + 256)
        d2 = ((pts[lo:hi, None, :] - pts[None, :hi, :]) ** 2).sum(axis=2)
        d2[np.arange(hi)[None, :] >= np.arange(lo, hi)[:, None]] = np.inf
        gaps[lo:hi] = np.sqrt(d2.min(axis=1))
    rise = np.flatnonzero(gaps[2:] > gaps[1:-1] * (1 + 1e-9))
    require(rise.size == 0, f"pick {rise[0] + 2 if rise.size else 0} lies farther from "
             "the earlier picks than the pick before it")
    far = cKDTree(pts).query(cloud)[0].max()
    require(far <= gaps[-1] * (1 + 1e-9),
             f"a cloud point lies {far} from the picks, beyond the last pick's {gaps[-1]}")
    prefix = 1
    while prefix < k:
        far = cKDTree(pts[:prefix]).query(cloud)[0].max()
        require(abs(far - gaps[prefix]) <= 1e-9 * far,
                 f"pick {prefix} lies {gaps[prefix]} from the earlier picks, "
                 f"but a cloud point lies {far} from them")
        prefix *= 2


# ---------------------------------------------------------------------------
# scene-kernels: render
# ---------------------------------------------------------------------------

RENDER_PLANES = ("depth", "feature", "acc_alpha", "valid")


def digest(out):
    """SHA-256 of a render's planes: equal digests mean bit-identical renders."""
    h = hashlib.sha256()
    for name in RENDER_PLANES:
        h.update(np.ascontiguousarray(getattr(out, name)).tobytes())
    return h.hexdigest()


def crop(out, y0, x0, size):
    """The size x size window of a render whose top-left pixel is (y0, x0)."""
    return {name: getattr(out, name)[y0:y0 + size, x0:x0 + size].copy()
            for name in RENDER_PLANES}


def check_identical(a, b, what):
    """`a` and `b` list one render digest per view."""
    bad = [i for i, (x, y) in enumerate(zip(a, b)) if x != y]
    require(len(a) == len(b) and not bad, f"{what}: views {bad} differ")


def check_window(oracle, window, what, tol=1e-5):
    """`oracle` rendered the camera cropped to `window` (from `crop`)."""
    require(np.array_equal(oracle.valid, window["valid"]), f"{what}: valid mask differs")
    v = oracle.valid
    for name, a, b in (("depth", oracle.depth[v], window["depth"][v]),
                       ("acc_alpha", oracle.acc_alpha, window["acc_alpha"]),
                       ("feature", oracle.feature, window["feature"])):
        err = float(np.abs(a - b).max()) if a.size else 0.0
        require(err <= tol, f"{what}: {name} off by {err:.3g} (tol {tol})")


# ---------------------------------------------------------------------------
# scene-kernels: voxel
# ---------------------------------------------------------------------------

def _close(a, b, rel, what):
    err = np.abs(a - b) / np.maximum(1.0, np.abs(b))
    worst = float(err.max()) if err.size else 0.0
    require(worst <= rel, f"{what}: relative error {worst:.3g} (tol {rel})")


def check_voxel_box(scene, bank, centers, occ, cls, oracle_occ, oracle_cls, cutoff):
    """`occ`/`cls` are voxelize's masses at `centers`; `oracle_*` are
    voxelize_oracle's.  Voxelize must equal the dense sum over the pairs
    inside the cutoff, and the oracle that sum plus the pairs outside it."""
    w = np.column_stack([scene.opacity,
                         softmax_probs(scene.feature, bank_embeddings(bank))])
    inside, outside = kernel_sums(centers, scene, w, cutoff)
    _close(occ, inside[:, 0], 1e-9, "voxelize occupancy")
    _close(cls, inside[:, 1:], 1e-9, "voxelize class mass")
    _close(oracle_occ, inside[:, 0] + outside[:, 0], 1e-9, "voxelize_oracle occupancy")
    _close(oracle_cls, inside[:, 1:] + outside[:, 1:], 1e-9, "voxelize_oracle class mass")


def check_query(scene, bank, points, scores, p_occ, cutoff, tol=1e-6):
    """retrieval_scores at `points`: query_points' opacity sum and the
    class scores of its feature sum, against sums computed here."""
    w = np.column_stack([scene.opacity, scene.feature])
    inside, _ = kernel_sums(points, scene, w, cutoff)
    _close(p_occ, inside[:, 0], tol, "query opacity sum")
    _close(scores, bank_embeddings(bank) @ inside[:, 1:].T, tol, "query class scores")
