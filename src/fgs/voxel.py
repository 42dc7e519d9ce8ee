"""Gaussian-to-voxel occupancy, text-prompt classification, and metrics.

A scene is converted to a dense grid by accumulating each Gaussian's
unnormalized density at voxel centers, weighted by opacity (occupancy mass)
or by its class-probability vector (semantics).  Point-wise accumulation of
opacity and raw features supports open-vocabulary retrieval at arbitrary
query points.  Both score a multi-prompt class by one rule, the max over
its prompts (`TextBank.similarity`).  Evaluation helpers (IoU / average
precision) operate on the resulting grids and score tables.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .core import GaussianScene, covariance3d, quats_to_rotmats
from .errors import EmptyInputError, InvalidInputError

# Default decision threshold on accumulated opacity mass.
TAU_OCC = 0.1
# Default Mahalanobis support radius for accumulation (None disables).
DEFAULT_CUTOFF = 3.0
# In-memory label for unoccupied voxels (0xFFFF on disk).
EMPTY_LABEL = -1
# Most candidate (Gaussian, point) pairs the accumulation kernel takes at once.
PAIR_BLOCK = 8192


# ---------------------------------------------------------------------------
# Text bank
# ---------------------------------------------------------------------------

@dataclass
class TextBankEntry:
    class_name: str
    prompts: list[str]
    embeddings: np.ndarray  # (P, F), one unit-norm row per prompt

    def __post_init__(self):
        self.embeddings = np.atleast_2d(np.asarray(self.embeddings, dtype=np.float64))
        if self.embeddings.ndim != 2:
            raise InvalidInputError(
                f"class {self.class_name!r}: embeddings must be (P, F), got "
                f"shape {self.embeddings.shape}")
        if self.embeddings.shape[0] != len(self.prompts):
            raise InvalidInputError(
                f"class {self.class_name!r}: {len(self.prompts)} prompts but "
                f"{self.embeddings.shape[0]} embeddings")
        if not np.all(np.isfinite(self.embeddings)):
            raise InvalidInputError(f"class {self.class_name!r}: non-finite embedding")
        norms = np.linalg.norm(self.embeddings, axis=1)
        if np.any(norms < 1e-8):
            raise InvalidInputError(f"class {self.class_name!r}: zero-norm embedding")
        self.embeddings = self.embeddings / norms[:, None]


@dataclass
class TextBank:
    """Ordered set of promptable classes; one entry may be the empty/sky class.

    The empty class participates in the per-Gaussian softmax but an argmax win
    for it means "unoccupied", it is never emitted as a voxel label.
    """

    entries: list[TextBankEntry]
    empty_class: str | None = "empty"

    def __post_init__(self):
        if not self.entries:
            raise InvalidInputError("text bank must contain at least one class")
        dims = {e.embeddings.shape[1] for e in self.entries}
        if len(dims) != 1:
            raise InvalidInputError("all bank embeddings must share one dimension")

    @property
    def class_names(self) -> list[str]:
        return [e.class_name for e in self.entries]

    @property
    def num_classes(self) -> int:
        return len(self.entries)

    @property
    def feature_dim(self) -> int:
        return self.entries[0].embeddings.shape[1]

    @property
    def empty_index(self) -> int | None:
        if self.empty_class is None:
            return None
        names = self.class_names
        return names.index(self.empty_class) if self.empty_class in names else None

    def similarity(self, features: np.ndarray) -> np.ndarray:
        """(N, C) per-class similarity of (N, F) features.

        A multi-prompt class scores the max over its prompts.
        """
        features = np.atleast_2d(np.asarray(features, dtype=np.float64))
        if features.shape[1] != self.feature_dim:
            raise InvalidInputError("feature dimension does not match bank")
        out = np.empty((features.shape[0], self.num_classes))
        for c, entry in enumerate(self.entries):
            dots = features @ entry.embeddings.T  # (N, P)
            out[:, c] = dots.max(axis=1)
        return out


def orthonormal_bank(class_names, dim, seed=0, empty_class="empty") -> TextBank:
    """Synthetic bank with mutually orthonormal single-prompt embeddings."""
    if dim < len(class_names):
        raise InvalidInputError("need dim >= number of classes for orthonormal bank")
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    entries = [TextBankEntry(name, [name], basis[i][None, :])
               for i, name in enumerate(class_names)]
    return TextBank(entries, empty_class=empty_class)


def text_probs(features: np.ndarray, bank: TextBank) -> np.ndarray:
    """Softmax over per-class text similarities; rows sum to 1.

    Accepts one (F,) vector or an (N, F) batch; returns (C,) or (N, C).
    """
    single = np.asarray(features).ndim == 1
    sims = bank.similarity(features)
    sims = sims - sims.max(axis=1, keepdims=True)
    e = np.exp(sims)
    probs = e / e.sum(axis=1, keepdims=True)
    return probs[0] if single else probs


# ---------------------------------------------------------------------------
# Voxel grid
# ---------------------------------------------------------------------------

def _check_geometry(origin, voxel_size) -> None:
    if not (np.all(np.isfinite(origin)) and 0 < voxel_size < np.inf):
        raise InvalidInputError(f"grid origin must be finite and voxel size positive "
                                f"and finite, got {origin} and {voxel_size}")


@dataclass
class VoxelGrid:
    """Dense grid of occupancy mass and class labels.

    Voxel (i, j, k) is centered at origin + (i+0.5, j+0.5, k+0.5)*voxel_size.
    `labels` uses EMPTY_LABEL (-1) for unoccupied voxels and indices into the
    producing bank's class list otherwise.  `class_probs` optionally keeps the
    accumulated per-class mass field.
    """

    origin: np.ndarray          # (3,) low corner, ego frame
    voxel_size: float
    occ_mass: np.ndarray        # (nx, ny, nz) float
    labels: np.ndarray          # (nx, ny, nz) int32
    class_probs: np.ndarray | None = None  # (nx, ny, nz, C)

    def __post_init__(self):
        self.origin = np.asarray(self.origin, dtype=np.float64).reshape(3)
        self.voxel_size = float(self.voxel_size)
        _check_geometry(self.origin, self.voxel_size)
        self.occ_mass = np.asarray(self.occ_mass, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int32)
        if self.occ_mass.ndim != 3 or self.labels.shape != self.occ_mass.shape:
            raise InvalidInputError("occ_mass/labels must be matching 3-D arrays")

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.occ_mass.shape

    @property
    def occupied(self) -> np.ndarray:
        return self.labels != EMPTY_LABEL

    def centers(self) -> np.ndarray:
        """(nx, ny, nz, 3) voxel center coordinates."""
        spec = GridSpec(self.origin, self.dims, self.voxel_size)
        return spec.centers_flat().reshape(*self.dims, 3)


@dataclass
class GridSpec:
    origin: np.ndarray
    dims: tuple[int, int, int]
    voxel_size: float = 0.4

    def __post_init__(self):
        self.origin = np.asarray(self.origin, dtype=np.float64).reshape(3)
        self.dims = tuple(int(d) for d in self.dims)
        if len(self.dims) != 3:
            # a ValueError like a short origin's, so a spec field is malformed
            raise ValueError(f"grid dims must be three counts, got {self.dims}")
        if any(d <= 0 for d in self.dims):
            raise InvalidInputError("grid dims must be positive")
        _check_geometry(self.origin, self.voxel_size)

    def centers_flat(self) -> np.ndarray:
        nx, ny, nz = self.dims
        ax = [self.origin[d] + (np.arange(n) + 0.5) * self.voxel_size
              for d, n in zip(range(3), (nx, ny, nz))]
        gx, gy, gz = np.meshgrid(*ax, indexing="ij")
        return np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1)


def check_cutoff(cutoff) -> None:
    """A Mahalanobis cutoff is None or a positive, finite radius."""
    if cutoff is not None and not (0 < cutoff < np.inf):
        raise InvalidInputError(
            f"cutoff must be None or positive and finite, got {cutoff}")


def check_tau(tau_occ) -> None:
    """An occupancy threshold is a finite number."""
    if not np.isfinite(tau_occ):
        raise InvalidInputError(f"tau_occ must be finite, got {tau_occ}")


class _BallQuery:
    """Candidate points near each centre: every point within `radius[i]` of
    `centers[i]`, and a few more, found without a tree.

    The points are sorted by the key of a uniform grid of cells, z fastest,
    so the points of one (x, y) column of cells between two z cells are one
    run of the sorted order.  A centre's ball box covers a rectangle of
    columns, each one `searchsorted` range.  Cells are sized from the median
    radius, so a wide Gaussian takes more columns rather than every centre
    scanning every point; no axis has more than about sqrt(M) cells, so a
    box never takes more than about M columns.
    """

    def __init__(self, points, centers, radius):
        self.points, self.centers, self.r2 = points, centers, radius * radius
        low = points.min(axis=0)
        span = points.max(axis=0) - low
        cell = np.maximum(np.median(radius), span / np.ceil(np.sqrt(len(points))))
        dims = np.floor(span / cell) + 1
        with np.errstate(over="ignore"):  # a centre far outside: clipped below
            box_lo = np.floor((centers - radius[:, None] - low) / cell)
            box_hi = np.floor((centers + radius[:, None] - low) / cell)
        inside = np.all((box_hi >= 0) & (box_lo < dims), axis=1)
        box_lo = np.clip(box_lo, 0, dims - 1).astype(np.intp)
        box_hi = np.clip(box_hi, 0, dims - 1).astype(np.intp)
        ny, nz = dims[1:].astype(np.intp)
        cells = np.floor((points - low) / cell).astype(np.intp)
        keys = (cells[:, 0] * ny + cells[:, 1]) * nz + cells[:, 2]
        self.order = np.argsort(keys, kind="stable")
        keys = keys[self.order]
        # one (x, y) column per row, grouped by centre in scene order
        side = box_hi[:, 1] - box_lo[:, 1] + 1
        ncols = np.where(inside, (box_hi[:, 0] - box_lo[:, 0] + 1) * side, 0)
        self.col_g = np.repeat(np.arange(len(centers)), ncols)
        j = np.arange(self.col_g.size) - np.repeat(np.cumsum(ncols) - ncols, ncols)
        lo, sd = box_lo[self.col_g], side[self.col_g]
        base = ((lo[:, 0] + j // sd) * ny + lo[:, 1] + j % sd) * nz
        self.start = np.searchsorted(keys, base + lo[:, 2], side="left")
        self.stop = np.searchsorted(keys, base + box_hi[self.col_g, 2], side="right")
        self.col_off = np.concatenate([[0], np.cumsum(ncols)])
        run_ends = np.concatenate([[0], np.cumsum(self.stop - self.start)])
        self.counts = np.diff(run_ends[self.col_off])

    def pairs(self, lo, hi):
        """(centre, point) index pairs of centres lo..hi-1 within their
        radius, grouped by centre in order, each point once per centre."""
        cols = slice(self.col_off[lo], self.col_off[hi])
        start = self.start[cols]
        length = self.stop[cols] - start
        first = np.repeat(start - (np.cumsum(length) - length), length)
        p = self.order[first + np.arange(first.size)]
        g = np.repeat(self.col_g[cols], length)
        d = self.points[p] - self.centers[g]
        keep = np.einsum("pd,pd->p", d, d) <= self.r2[g]
        return g[keep], p[keep]


def _accumulate_kernel(points, scene, weights, cutoff):
    """Sum_i exp(-q_i(x) / 2) * weights_i at each point x, q_i(x) being the
    squared Mahalanobis distance from Gaussian i.

    `weights` is (N, C); the result is (M, C).  `cutoff` (if not None)
    zeroes the pairs with q > cutoff**2; only points in a ball of radius
    cutoff * max(scale) around a Gaussian, which holds all of them, are
    evaluated.  Pairs go in blocks of whole Gaussians, and each point adds
    its Gaussians in scene order, as a per-Gaussian loop would.
    """
    check_cutoff(cutoff)
    points = np.asarray(points, dtype=np.float64)
    if not np.all(np.isfinite(points)):
        raise InvalidInputError("points must be finite")
    weights = np.asarray(weights, dtype=np.float64)
    m = points.shape[0]
    acc = np.zeros((weights.shape[1], m))
    if m == 0 or len(scene) == 0:
        return acc.T
    if cutoff is None:
        counts = np.full(len(scene), m)
    else:
        # widened so that rounding cannot drop a point at q = cutoff**2
        radius = cutoff * scene.scale.max(axis=1) * (1 + 1e-9)
        query = _BallQuery(points, scene.mu, radius)
        counts = query.counts
    ends = np.cumsum(counts)
    # Per-pair values run along the last axis, so that each elementwise pass
    # over a block is one long loop over its pairs: rot[3k + j] is every R[k, j].
    rot = quats_to_rotmats(scene.quat).reshape(-1, 9).T.copy()
    inv_var = 1.0 / scene.scale**2
    lo = 0
    while lo < len(scene):
        first = ends[lo] - counts[lo]  # pair index where Gaussian lo starts
        hi = max(lo + 1, int(np.searchsorted(ends, first + PAIR_BLOCK, side="right")))
        if cutoff is None:
            g = np.repeat(np.arange(lo, hi), m)
            p = np.tile(np.arange(m), hi - lo)
        else:
            g, p = query.pairs(lo, hi)
        d = (points.take(p, axis=0) - scene.mu.take(g, axis=0)).T
        r = rot.take(g, axis=1)
        local = d[0] * r[0:3] + d[1] * r[3:6] + d[2] * r[6:9]
        # einsum over C-ordered rows of three adds in the order the per-Gaussian
        # loop did; a written-out sum can differ in the last bit
        q = np.einsum("pd,pd->p", (local * local).T.copy(), inv_var.take(g, axis=0))
        k = np.exp(-0.5 * q)
        if cutoff is not None:
            k[q > cutoff * cutoff] = 0.0
        for row, w in zip(acc, weights.T):
            np.add.at(row, p, k * w[g])  # in pair order, so in scene order per point
        lo = hi
    return acc.T


def voxelize(scene: GaussianScene, bank: TextBank, grid: GridSpec,
             tau_occ: float = TAU_OCC,
             cutoff: float | None = DEFAULT_CUTOFF) -> VoxelGrid:
    """Accumulate a scene into an occupancy + semantics grid.

    Per voxel center x: occupancy mass V_o(x) = sum_i k_i(x) * opacity_i and
    class mass V_p(x) = sum_i k_i(x) * p_i with k_i the unnormalized Gaussian
    density and p_i the per-Gaussian text-probability vector.  A voxel is
    occupied iff V_o >= tau_occ and the argmax class (ties -> lowest index)
    is not the bank's empty class; its label is that argmax.

    Each Gaussian contributes only to voxel centers within Mahalanobis
    radius `cutoff`; `cutoff=None` disables truncation entirely.
    """
    if bank.feature_dim != scene.feature_dim:
        raise InvalidInputError("bank/scene feature dimensions differ")
    check_tau(tau_occ)
    weights = np.column_stack([scene.opacity, text_probs(scene.feature, bank)])
    acc = _accumulate_kernel(grid.centers_flat(), scene, weights, cutoff)
    occ = acc[:, 0].reshape(grid.dims)
    cls = acc[:, 1:].reshape(*grid.dims, bank.num_classes)
    labels = np.argmax(cls, axis=-1).astype(np.int32)  # ties -> lowest index
    occupied = occ >= tau_occ
    if bank.empty_index is not None:
        occupied &= labels != bank.empty_index
    labels[~occupied] = EMPTY_LABEL
    return VoxelGrid(grid.origin, grid.voxel_size, occ, labels, cls)


def voxelize_oracle(scene: GaussianScene, bank: TextBank, grid: GridSpec,
                    tau_occ: float = TAU_OCC) -> VoxelGrid:
    """Reference accumulation: every Gaussian against every voxel, no cutoff.

    Kept deliberately simple (explicit covariance inverses, dense evaluation)
    as the comparison target for `voxelize`.
    """
    if bank.feature_dim != scene.feature_dim:
        raise InvalidInputError("bank/scene feature dimensions differ")
    check_tau(tau_occ)
    centers = grid.centers_flat()
    occ = np.zeros(centers.shape[0])
    cls = np.zeros((centers.shape[0], bank.num_classes))
    for i in range(len(scene)):
        prec = np.linalg.inv(covariance3d(scene.scale[i], scene.quat[i]))
        d = centers - scene.mu[i]
        k = np.exp(-0.5 * np.einsum("md,de,me->m", d, prec, d))
        occ += k * scene.opacity[i]
        cls += k[:, None] * text_probs(scene.feature[i], bank)
    nx, ny, nz = grid.dims
    occ = occ.reshape(nx, ny, nz)
    cls = cls.reshape(nx, ny, nz, bank.num_classes)
    labels = np.argmax(cls, axis=-1).astype(np.int32)
    occupied = occ >= tau_occ
    if bank.empty_index is not None:
        occupied &= labels != bank.empty_index
    labels[~occupied] = EMPTY_LABEL
    return VoxelGrid(grid.origin, grid.voxel_size, occ, labels, cls)


def query_points(scene: GaussianScene, points: np.ndarray,
                 cutoff: float | None = DEFAULT_CUTOFF):
    """Accumulated opacity and raw-feature vectors at arbitrary ego points.

    Returns (p_occ (M,), p_feat (M, F)).  Opacity weights the occupancy
    accumulation only; the feature accumulation sums kernel * feature
    directly, so a fully transparent Gaussian still contributes its feature
    mass.
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if points.ndim != 2 or points.shape[1] != 3:
        raise InvalidInputError("points must be (M, 3)")
    acc = _accumulate_kernel(points, scene,
                             np.column_stack([scene.opacity, scene.feature]), cutoff)
    return acc[:, 0], acc[:, 1:]


def retrieval_scores(scene: GaussianScene, bank: TextBank, points: np.ndarray,
                     cutoff: float | None = DEFAULT_CUTOFF):
    """Per-class retrieval scores at query points: dot(P_f, embedding).

    Multi-prompt classes reduce by max over their prompt embeddings.  Returns
    (scores (C, M), p_occ (M,)).  Scores are mass-weighted (unnormalized), so
    empty space scores near 0 for every class.
    """
    p_occ, p_feat = query_points(scene, points, cutoff=cutoff)
    return bank.similarity(p_feat).T, p_occ


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

@dataclass
class IouResult:
    per_class: dict[int, float]
    miou: float
    evaluated_classes: list[int] = field(default_factory=list)


def eval_miou(pred: VoxelGrid, gt: VoxelGrid, class_ids=None,
              ignore: np.ndarray | None = None) -> IouResult:
    """Per-class intersection-over-union and its mean.

    IoU_c = TP / (TP + FP + FN) counted over non-ignored voxels.  Classes
    absent from both prediction and ground truth are excluded from the mean;
    a class present on exactly one side scores 0.  The grids must match in
    shape, origin and voxel size, the last two compared at float32, the
    precision of a `.voxg` header.
    """
    if pred.labels.shape != gt.labels.shape:
        raise InvalidInputError("prediction/ground-truth grids differ in shape")
    if (np.any(np.float32(pred.origin) != np.float32(gt.origin))
            or np.float32(pred.voxel_size) != np.float32(gt.voxel_size)):
        raise InvalidInputError("prediction/ground-truth grids differ in origin or voxel size")
    keep = np.ones(pred.labels.shape, dtype=bool)
    if ignore is not None:
        ignore = np.asarray(ignore, dtype=bool)
        if ignore.shape != pred.labels.shape:
            raise InvalidInputError("ignore mask shape mismatch")
        keep = ~ignore
    p = pred.labels[keep]
    g = gt.labels[keep]
    if class_ids is None:
        ids = np.union1d(np.unique(p), np.unique(g))
        class_ids = [int(c) for c in ids if c != EMPTY_LABEL]
    per_class: dict[int, float] = {}
    evaluated = []
    for c in class_ids:
        tp = int(np.count_nonzero((p == c) & (g == c)))
        fp = int(np.count_nonzero((p == c) & (g != c)))
        fn = int(np.count_nonzero((p != c) & (g == c)))
        if tp + fp + fn == 0:
            continue  # absent on both sides: excluded
        per_class[c] = tp / (tp + fp + fn)
        evaluated.append(c)
    if not per_class:
        raise EmptyInputError("no class present in either grid")
    return IouResult(per_class, float(np.mean(list(per_class.values()))), evaluated)


def average_precision(scores: np.ndarray, gt: np.ndarray) -> float:
    """Area under the precision-recall curve over all ranks.

    Points are ranked by descending score with ties broken by original index.
    Equals the mean of precision-at-k over the positive ranks.
    """
    scores = np.asarray(scores, dtype=np.float64)
    gt = np.asarray(gt, dtype=bool)
    if scores.shape != gt.shape or scores.ndim != 1:
        raise InvalidInputError("scores/gt must be matching 1-D arrays")
    n_pos = int(np.count_nonzero(gt))
    if n_pos == 0:
        raise EmptyInputError("query has zero positives")
    order = np.argsort(-scores, kind="stable")
    hits = gt[order]
    tp = np.cumsum(hits)
    ranks = np.arange(1, scores.size + 1)
    precision_at_hit = tp[hits] / ranks[hits]
    return float(np.sum(precision_at_hit) / n_pos)


@dataclass
class MapResult:
    per_query: dict[int, float]
    map: float


def eval_map(scores: np.ndarray, gt: np.ndarray,
             visible: np.ndarray | None = None) -> MapResult:
    """Mean average precision over queries; optional visibility restriction.

    `scores` is (Q, M), `gt` a boolean (Q, M); `visible` (if given) is a
    boolean (M,) mask selecting the points that count.  Queries with zero
    positives are excluded with a warning.
    """
    scores = np.asarray(scores, dtype=np.float64)
    gt = np.asarray(gt, dtype=bool)
    if scores.shape != gt.shape or scores.ndim != 2:
        raise InvalidInputError("scores/gt must be matching (Q, M) arrays")
    if visible is not None:
        visible = np.asarray(visible, dtype=bool)
        if visible.shape != (scores.shape[1],):
            raise InvalidInputError("visibility mask must be (M,)")
        scores = scores[:, visible]
        gt = gt[:, visible]
    per_query: dict[int, float] = {}
    for q in range(scores.shape[0]):
        if not np.any(gt[q]):
            warnings.warn(f"query {q} has zero positives; excluded from mAP")
            continue
        per_query[q] = average_precision(scores[q], gt[q])
    if not per_query:
        raise EmptyInputError("every query had zero positives")
    return MapResult(per_query, float(np.mean(list(per_query.values()))))
