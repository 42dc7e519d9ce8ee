"""Stage orchestration: fixture -> init -> grow/refine -> grid -> metrics.

The pipeline interprets an ordered stage list, carries the scene/views/grid
state across stages, and produces a JSON-able report with one entry per
executed stage plus a per-layer table: Gaussian count and wall time at each
layer, the work counts of the layer's renders (`RENDER_COUNTS`), and a
`growth` row for the step that built the layer (pseudo-cloud points, FPS
picks, and the time of base init or of the densify step).  A layer's wall
time is that of its renders, which run concurrently on the CPUs in the
process's affinity set (`taskset` pins a run to fewer), plus its refine.
Refinement runs over every Gaussian without decode heads and keeps the
geometry (`fgs refine --heads` decodes with them), so only init and densify
change it, and the renders they leave behind always show the current scene.
Every stage runs with its module's fixed settings: densify selects pixels
by one signed depth rule (`select_under_represented`) at `densify.GAMMA`,
refine gates occlusion at `sampling.OCCLUSION_MARGIN`, and voxelize and
eval use `voxel.TAU_OCC` and `voxel.DEFAULT_CUTOFF`.
Timings never influence artifacts, so runs with identical config and seed
write byte-identical scene and grid files whatever the CPU count.
"""

from __future__ import annotations

import os
import re
import threading
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .core import CameraView, GaussianScene, project_points, rig_feature_dim
from .densify import (DensifyConfig, base_init, check_budget, densify_layer,
                      selection_residual)
# perfbench's tracer wraps select_under_represented on this module too.
from .densify import select_under_represented  # noqa: F401
from .errors import FgsError, InvalidInputError
from .io import (dump_json, json_int, json_list, json_optional,
                 json_str, jsonable, read_object, save_scene, save_voxel_grid)
from .raster import RenderOutput, render
from .sampling import OCCLUSION_MARGIN, refine_scene
from .synth import SynthSpec, gen_scene, room_spec
from .voxel import (DEFAULT_CUTOFF, GridSpec, TextBank, VoxelGrid, eval_map,
                    eval_miou, retrieval_scores, voxelize)

STAGES = ("synth", "init", "densify", "refine", "voxelize", "eval")
DEFAULT_STAGES = ("synth", "init", "densify", "refine", "densify", "refine",
                  "voxelize", "eval")
_GRAMMAR = "synth (init (refine | (densify refine)* densify?) (voxelize eval?)?)?"
# The same grammar over one letter per stage.
_LETTERS = dict(zip(STAGES, "sidrve"))
_GRAMMAR_RE = re.compile(r"(s(i(r|(dr)*d?)(ve?)?)?)?")
# RenderOutput's work counts, summed into each layer row.
RENDER_COUNTS = ("binned_rows", "culled_rows", "pairs_evaluated", "padded_pairs")


def validate_stages(stages) -> tuple[str, ...]:
    """Enforce the stage grammar:
    synth (init (refine | (densify refine)* densify?) (voxelize eval?)?)?

    Each stage needs every stage before it: views, the bank and the GT grid
    come only from synth.  An empty list is a no-op pipeline.  After init, a
    lone refine fills in features without growth; a growth loop alternates
    densify and refine, and may end on a densify.
    """
    stages = tuple(stages)
    for s in stages:
        if s not in STAGES:
            raise InvalidInputError(f"unknown stage {s!r}")
    if not _GRAMMAR_RE.fullmatch("".join(_LETTERS[s] for s in stages)):
        raise InvalidInputError(f"stage list {list(stages)} does not follow "
                                f"the grammar {_GRAMMAR}")
    return stages


@dataclass
class PipelineConfig:
    """Stage list, fixture, artifact directory and growth budgets.

    Views arrive in waves, one per camera ring of the fixture
    (`SynthResult.view_waves`): init consumes the first wave and each
    densify round activates the next one, so later layers grow where newly
    arrived views expose unexplained pixels.

    `seed` names the fixture: the stock room of that seed, or `spec` with
    its seed replaced.  Left at None, it is the spec's seed, else 0.
    Init picks `base_count` Gaussians, and densify round b adds at most
    `layer_budgets[b - 1]`.
    """

    stages: tuple[str, ...] = DEFAULT_STAGES
    seed: int | None = None
    # No effect: renders run on every CPU in the process's affinity set
    # whatever it says.  Kept while perfbench/run.py, edited only on its
    # own, passes it.
    threads: int = 1
    out_dir: str | None = None
    spec: SynthSpec | None = None
    base_count: int = DensifyConfig.base_count
    layer_budgets: tuple[int, ...] = (1000, 1000)

    def __post_init__(self):
        if self.seed is None:
            self.seed = 0 if self.spec is None else self.spec.seed
        self.stages = validate_stages(self.stages)
        if self.threads < 1:
            raise InvalidInputError("threads must be >= 1")
        # The stages' own checks, so that a bad setting fails here and not
        # after the stages before it have run.
        self.fixture_spec()
        check_budget(self.base_count, *self.layer_budgets)
        grows = self.stages.count("densify")
        if grows > len(self.layer_budgets):
            raise InvalidInputError(
                f"{grows} densify stages need {grows} layer budgets, "
                f"got {len(self.layer_budgets)}")

    def fixture_spec(self) -> SynthSpec:
        """The spec the synth stage builds, checked by SynthSpec itself: the
        stock room of `seed`, or `spec` with its seed replaced."""
        if self.spec is None:
            return room_spec(self.seed)
        return replace(self.spec, seed=self.seed)

    @classmethod
    def from_dict(cls, d: dict) -> "PipelineConfig":
        """Config from a JSON object, e.g. the CLI's `--config` file.

        Unknown keys are invalid input, and so are the spec's own range
        checks; a document that is not an object or a field of the wrong
        JSON type is a FormatError.
        """
        return cls(**read_object(d, _CONFIG_FIELDS, "pipeline config"))


def _path(v) -> str | os.PathLike:
    if not isinstance(v, (str, os.PathLike)):
        raise TypeError(f"expected a path string, got {v!r}")
    return v


def _spec(v) -> SynthSpec:
    return v if isinstance(v, SynthSpec) else SynthSpec.from_dict(v)


# How PipelineConfig.from_dict reads each field; a key missing here is unknown.
_CONFIG_FIELDS = {
    "stages": lambda v: tuple(json_list(v, json_str)),
    "seed": json_int, "out_dir": json_optional(_path),
    "spec": json_optional(_spec), "base_count": json_int,
    "layer_budgets": lambda v: tuple(json_list(v, json_int)),
}


def _render_views(scene: GaussianScene,
                  views: list[CameraView]) -> list[RenderOutput]:
    """`render(scene, v)` for each of `views`, returned in view order.

    The calling thread and one thread per further CPU in the process's
    affinity set, at most one per view, each take the next view not yet
    taken until none is left, so a thread whose CPU is slowed renders a
    smaller share.  NumPy and OpenBLAS release the interpreter lock in
    their kernels, so whole views overlap, and each output has the bits of
    its view rendered alone.  A thread stops at its first error; every
    thread is joined before the first error in view order is raised (views
    are taken in order, so every view before it was rendered).
    """
    n = min(len(views), len(os.sched_getaffinity(0)))
    out: list = [None] * len(views)
    todo, lock = iter(range(len(views))), threading.Lock()

    def share() -> None:
        while True:
            with lock:
                i = next(todo, None)
            if i is None:
                return
            try:
                out[i] = render(scene, views[i])
            except Exception as e:  # raised on the calling thread below
                out[i] = e
                return

    workers = [threading.Thread(target=share) for _ in range(1, n)]
    for w in workers:
        w.start()
    try:
        share()
    finally:
        for w in workers:
            w.join()
    for o in out:
        if isinstance(o, Exception):
            raise o
    return out


@dataclass
class _State:
    """The config, the report the stages build, and the run they share."""

    config: PipelineConfig
    report: dict
    views: list[CameraView] = field(default_factory=list)
    waves: tuple[int, ...] = ()
    active: list[CameraView] = field(default_factory=list)
    renders: list[RenderOutput] = field(default_factory=list)
    bank: TextBank | None = None
    gt: VoxelGrid | None = None
    scene: GaussianScene | None = None
    pred: VoxelGrid | None = None

    def arrive(self, layer: int) -> list[CameraView]:
        """Activate the views of waves 0..`layer` (once the waves run out,
        the last one stays)."""
        self.active = self.views[:sum(self.waves[:layer + 1])]
        return self.active

    def render_active(self, growth: dict) -> None:
        """Render the scene's geometry into every active view (the stages
        read only depth and validity), the views concurrently
        (`_render_views`), and append the newest layer's row: `growth`, the
        row of the step that built the layer, the wall time of these
        concurrent renders (refine adds its own) and the renders' work
        counts."""
        t0 = time.perf_counter()
        self.renders = _render_views(self.scene.geometry(), self.active)
        self.report["layers"].append({
            "index": self.scene.layer_count - 1, "count": len(self.scene),
            "views": len(self.active), "time_s": time.perf_counter() - t0,
            "growth": growth, **{name: sum(getattr(out, name) for out in self.renders)
                                 for name in RENDER_COUNTS}})


def _synth(st: _State) -> dict:
    spec = st.config.fixture_spec()
    result = gen_scene(spec)
    st.views, st.bank, st.gt = result.views, result.bank, result.gt_grid
    st.waves = result.view_waves
    return {"views": len(st.views), "view_waves": list(st.waves),
            "classes": spec.class_names}


def _init(st: _State) -> dict:
    active = st.arrive(0)
    cfg = DensifyConfig(base_count=st.config.base_count,
                        feature_dim=rig_feature_dim(active, DensifyConfig.feature_dim))
    t0 = time.perf_counter()
    st.scene = base_init(active, cfg)
    grow_s = time.perf_counter() - t0
    # backproject emits one pseudo-cloud point per valid pixel
    st.render_active({"cloud_points": sum(int(np.count_nonzero(v.ref_valid))
                                          for v in active
                                          if v.ref_depth is not None),
                      "picks": len(st.scene), "time_s": grow_s})
    return {"count": len(st.scene), "views_active": len(active)}


def _densify(st: _State) -> dict:
    layer = st.scene.layer_count
    active = st.arrive(layer)
    # Render the scene into the views that just arrived, so that their
    # unexplained pixels can be selected.
    st.renders += _render_views(st.scene.geometry(), active[len(st.renders):])
    t0 = time.perf_counter()
    st.scene, growth = densify_layer(st.scene, active,
                                     st.config.layer_budgets[layer - 1],
                                     renders=st.renders)
    st.render_active({"cloud_points": growth.candidate_points,
                      "picks": growth.added,
                      "time_s": time.perf_counter() - t0})
    return {"layer": layer, "added": growth.added,
            "views_active": len(active),
            "selected_pixels_per_view": growth.selected_per_view,
            "residual_before": growth.residual_before,
            "residual_after": selection_residual(st.renders, active,
                                                 growth.selected)}


def _refine(st: _State) -> dict:
    t0 = time.perf_counter()
    st.scene = refine_scene(st.scene, st.active, occlusion_margin=OCCLUSION_MARGIN)
    st.report["layers"][-1]["time_s"] += time.perf_counter() - t0
    return {"count": len(st.scene)}


def _voxelize(st: _State) -> dict:
    gspec = GridSpec(st.gt.origin, st.gt.dims, st.gt.voxel_size)
    st.pred = voxelize(st.scene, st.bank, gspec)
    return {"occupied": int(st.pred.occupied.sum()),
            "dims": list(st.pred.dims)}


def _eval(st: _State) -> dict:
    iou = eval_miou(st.pred, st.gt)
    names = [e.class_name for e in st.bank.entries]
    metrics = {
        "miou": iou.miou,
        "iou_per_class": {names[c]: v for c, v in iou.per_class.items()},
    }
    if np.any(st.gt.occupied):
        mp = retrieval_map(st.scene, st.bank, st.gt)
        metrics["map"] = mp["map"]
        metrics["ap_per_class"] = mp["per_class"]
    return {"metrics": metrics}


_RUN = {"synth": _synth, "init": _init, "densify": _densify,
        "refine": _refine, "voxelize": _voxelize, "eval": _eval}


def run_pipeline(config: PipelineConfig) -> dict:
    """Execute the configured stages; returns the run report.

    A stage failure is re-raised with the stage name prepended, leaving the
    error type (and hence the CLI exit code) intact.
    """
    st = _State(config, {"seed": config.seed, "threads": config.threads,
                         "stages": [], "layers": []})
    for name in config.stages:
        t0 = time.perf_counter()
        try:
            fields = _RUN[name](st)
        except FgsError as e:
            raise type(e)(f"stage '{name}' failed: {e}") from e
        st.report["stages"].append(jsonable(
            {"name": name, **fields, "time_s": time.perf_counter() - t0}))
    if config.out_dir is not None:
        _write_artifacts(st)
    return st.report


def retrieval_map(scene: GaussianScene, bank: TextBank, gt: VoxelGrid,
                  cutoff: float | None = DEFAULT_CUTOFF,
                  views: list[CameraView] | None = None) -> dict:
    """Retrieval mAP of the scene's text scores at the occupied GT voxels.

    Every non-empty bank class is one query, ranked over the occupied voxel
    centres and judged against the GT labels.  With `views`, only centres
    that project in front of and inside at least one camera are ranked.
    Returns map, per_class (class name -> AP), visible_points (None
    without views) and points.
    """
    occ = gt.occupied.ravel()
    if not np.any(occ):
        raise InvalidInputError("ground-truth grid has no occupied voxels")
    points = GridSpec(gt.origin, gt.dims, gt.voxel_size).centers_flat()[occ]
    labels = gt.labels.ravel()[occ]
    scores, _ = retrieval_scores(scene, bank, points, cutoff=cutoff)
    material = [c for c in range(bank.num_classes) if c != bank.empty_index]
    if not material:
        raise InvalidInputError("text bank has no class besides its empty class")
    rows = np.stack([labels == c for c in material])
    visible = None if views is None else _visible_mask(points, views)
    result = eval_map(scores[material], rows, visible=visible)
    names = [e.class_name for e in bank.entries]
    return {"map": result.map,
            "per_class": {names[material[q]]: v
                          for q, v in result.per_query.items()},
            "visible_points": None if visible is None else int(visible.sum()),
            "points": int(points.shape[0])}


def _visible_mask(points: np.ndarray, views: list[CameraView]) -> np.ndarray:
    vis = np.zeros(points.shape[0], dtype=bool)
    for v in views:
        vis |= v.in_image(project_points(points, v)[0])
    return vis


def _write_artifacts(st: _State) -> None:
    out_dir = st.config.out_dir
    os.makedirs(out_dir, exist_ok=True)
    arts = {}
    if st.scene is not None:
        path = os.path.join(out_dir, "scene.fgs")
        save_scene(path, st.scene)
        arts["scene"] = path
    if st.pred is not None:
        path = os.path.join(out_dir, "grid.voxg")
        save_voxel_grid(path, st.pred)
        arts["grid"] = path
    st.report["artifacts"] = arts
    with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8") as fh:
        dump_json(st.report, fh)
