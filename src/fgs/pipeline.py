"""Stage orchestration: fixture -> init -> grow/refine -> grid -> metrics.

The pipeline interprets an ordered stage list, carries the scene/views/grid
state across stages, and produces a JSON-able report with one entry per
executed stage plus a per-layer table: Gaussian count and wall time at each
layer, and a `growth` row for the step that built the layer (pseudo-cloud
points, FPS picks, and the time of base init or of the densify step).
Timings never influence artifacts, so runs with identical config and seed
write byte-identical scene and grid files regardless of thread count.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

import numpy as np

from .core import CameraView, GaussianScene, project_points
from .densify import (DensifyConfig, GAMMA, base_init, densify_layer,
                      feature_dim_of, fps, selection_residual)
# perfbench's tracer wraps select_under_represented on this module too.
from .densify import select_under_represented  # noqa: F401
from .errors import FgsError, InvalidInputError
from .io import (dump_json, json_float, json_int, json_list, json_optional,
                 json_str, jsonable, read_object, save_scene, save_voxel_grid)
from .raster import RenderOutput, render, render_oracle
from .sampling import DecodeHeads, refine_scene
from .synth import SynthSpec, gen_scene, room_spec
from .voxel import (DEFAULT_CUTOFF, GridSpec, TAU_OCC, TextBank, VoxelGrid,
                    eval_map, eval_miou, retrieval_scores, voxelize,
                    voxelize_oracle)

STAGES = ("synth", "init", "densify", "refine", "voxelize", "eval")
DEFAULT_STAGES = ("synth", "init", "densify", "refine", "densify", "refine",
                  "voxelize", "eval")


def validate_stages(stages) -> tuple[str, ...]:
    """Enforce the stage grammar: synth? init (densify refine)* voxelize? eval?

    An empty list is a no-op pipeline.  eval needs voxelize, everything past
    init needs init, and every densify is immediately followed by a refine.
    """
    stages = tuple(stages)
    for s in stages:
        if s not in STAGES:
            raise InvalidInputError(f"unknown stage {s!r}")
    if not stages:
        return stages
    rank = {"synth": 0, "init": 1, "densify": 2, "refine": 2,
            "voxelize": 3, "eval": 4}
    ranks = [rank[s] for s in stages]
    if ranks != sorted(ranks):
        raise InvalidInputError("stages out of order; expected "
                                "synth? init (densify refine)* voxelize? eval?")
    for name, limit in (("synth", 1), ("init", 1), ("voxelize", 1), ("eval", 1)):
        if stages.count(name) > limit:
            raise InvalidInputError(f"stage {name!r} may appear at most once")
    pairs = [s for s in stages if rank[s] == 2]
    if pairs and "init" not in stages:
        raise InvalidInputError("densify/refine require an init stage")
    if pairs:
        if pairs[0] == "refine" and len(pairs) > 1:
            # A lone refine directly after init is allowed (feature fill-in);
            # any growth loop must alternate densify -> refine.
            raise InvalidInputError("refine before the first densify")
        tail = pairs[1:] if pairs[0] == "refine" else pairs
        if any(tail[i] != ("densify", "refine")[i % 2] for i in range(len(tail))):
            raise InvalidInputError("densify must be followed by refine")
    if "eval" in stages and "voxelize" not in stages:
        raise InvalidInputError("eval requires a voxelize stage")
    if "voxelize" in stages and "init" not in stages:
        raise InvalidInputError("voxelize requires an init stage")
    return stages


@dataclass
class PipelineConfig:
    """Stage list plus every stage's knobs.

    Views arrive in waves (the fixture's camera rings, then its nadir
    block): init consumes the first wave and each densify round activates
    the next one, so later layers grow where newly arrived views expose
    unexplained pixels.  `view_waves = ()` disables this and activates all
    views at once.
    """

    stages: tuple[str, ...] = DEFAULT_STAGES
    seed: int = 0
    threads: int = 1
    out_dir: str | None = None
    spec: SynthSpec | None = None
    base_count: int = 4000
    layer_budgets: tuple[int, ...] = (1000, 1000)
    gamma: float = GAMMA
    select_mode: str = "signed"
    occlusion_margin: float | None = 0.3
    tau_occ: float = TAU_OCC
    cutoff: float | None = DEFAULT_CUTOFF
    heads: DecodeHeads | None = None
    refine_which: str = "all"
    view_waves: tuple[int, ...] | None = None

    def __post_init__(self):
        self.stages = validate_stages(self.stages)
        if self.threads < 1:
            raise InvalidInputError("threads must be >= 1")

    @classmethod
    def from_dict(cls, d: dict) -> "PipelineConfig":
        """Config from a JSON object, e.g. the CLI's `--config` file.

        Unknown keys are invalid input, and so are the spec's own range
        checks; a document that is not an object or a field of the wrong
        JSON type is a FormatError.
        """
        kw = read_object(d, _CONFIG_FIELDS, "pipeline config")
        bad = set(d) - set(_CONFIG_FIELDS)
        if bad:
            raise InvalidInputError(f"unknown pipeline config keys: {sorted(bad)}")
        return cls(**kw)


def _ints(v) -> tuple[int, ...]:
    return tuple(json_list(v, json_int))


def _path(v) -> str | os.PathLike:
    if not isinstance(v, (str, os.PathLike)):
        raise TypeError(f"expected a path string, got {v!r}")
    return v


def _spec(v) -> SynthSpec:
    return v if isinstance(v, SynthSpec) else SynthSpec.from_dict(v)


def _heads(v) -> DecodeHeads:
    if not isinstance(v, DecodeHeads):
        raise TypeError("heads must be a DecodeHeads; a config file cannot hold one")
    return v


# How PipelineConfig.from_dict reads each field; a key missing here is unknown.
_CONFIG_FIELDS = {
    "stages": lambda v: tuple(json_list(v, json_str)),
    "seed": json_int, "threads": json_int, "out_dir": json_optional(_path),
    "spec": json_optional(_spec), "base_count": json_int,
    "layer_budgets": _ints, "gamma": json_float, "select_mode": json_str,
    "occlusion_margin": json_optional(json_float), "tau_occ": json_float,
    "cutoff": json_optional(json_float), "heads": json_optional(_heads),
    "refine_which": json_str, "view_waves": json_optional(_ints),
}


@dataclass
class _State:
    scene: GaussianScene | None = None
    views: list[CameraView] | None = None
    bank: TextBank | None = None
    gt: VoxelGrid | None = None
    pred: VoxelGrid | None = None
    renders: list[RenderOutput] | None = None
    wave_ends: list[int] = field(default_factory=list)
    wave_idx: int = 0

    @property
    def active(self) -> list[CameraView]:
        if not self.wave_ends:
            return self.views
        return self.views[:self.wave_ends[min(self.wave_idx,
                                              len(self.wave_ends) - 1)]]


def _render_all(scene, views, threads):
    t0 = time.perf_counter()
    outs = [render(scene, v, threads=threads) for v in views]
    return outs, time.perf_counter() - t0


def run_pipeline(config: PipelineConfig) -> dict:
    """Execute the configured stages; returns the run report.

    A stage failure is re-raised with the stage name prepended, leaving the
    error type (and hence the CLI exit code) intact.
    """
    report: dict = {"seed": config.seed, "threads": config.threads,
                    "stages": [], "layers": []}
    st = _State()
    dconf = None

    for stage in config.stages:
        t0 = time.perf_counter()
        try:
            if stage == "synth":
                spec = config.spec or room_spec(config.seed)
                result = gen_scene(spec)
                st.views, st.bank, st.gt = result.views, result.bank, result.gt_grid
                waves = (result.view_waves if config.view_waves is None
                         else config.view_waves)
                st.wave_ends = list(np.cumsum(waves)) if waves else []
                entry = {"name": stage, "views": len(st.views),
                         "view_waves": list(waves),
                         "classes": spec.class_names}

            elif stage == "init":
                if st.views is None:
                    raise InvalidInputError("init needs views (run synth first "
                                            "or provide a rig)")
                if config.view_waves is not None:
                    st.wave_ends = list(np.cumsum(config.view_waves))
                active = st.active
                dconf = DensifyConfig(gamma=config.gamma,
                                      base_count=config.base_count,
                                      layer_budgets=config.layer_budgets,
                                      select_mode=config.select_mode,
                                      feature_dim=feature_dim_of(active))
                t_grow = time.perf_counter()
                st.scene = base_init(active, dconf)
                # backproject emits one pseudo-cloud point per valid pixel
                growth = {"cloud_points": sum(int(np.count_nonzero(v.ref_valid))
                                              for v in active
                                              if v.ref_depth is not None),
                          "picks": len(st.scene),
                          "time_s": time.perf_counter() - t_grow}
                entry = {"name": stage, "count": len(st.scene),
                         "views_active": len(active)}
                st.renders, render_s = _render_all(st.scene, active,
                                                   config.threads)
                report["layers"].append({"index": 0, "count": len(st.scene),
                                         "views": len(active),
                                         "time_s": render_s,
                                         "growth": growth})

            elif stage == "densify":
                layer = st.scene.layer_count
                # Next wave of views arrives; render the scene into them so
                # their unexplained pixels can be selected.
                st.wave_idx += 1
                active = st.active
                if len(active) > len(st.renders):
                    fresh, _ = _render_all(st.scene, active[len(st.renders):],
                                           config.threads)
                    st.renders = st.renders + fresh
                t_grow = time.perf_counter()
                st.scene, growth = densify_layer(st.scene, active, dconf, layer,
                                                 renders=st.renders)
                grow_s = time.perf_counter() - t_grow
                stage_s = time.perf_counter() - t0
                st.renders, render_s = _render_all(st.scene, active,
                                                   config.threads)
                after = selection_residual(st.renders, active, growth.selected)
                entry = {"name": stage, "layer": layer,
                         "added": growth.added,
                         "views_active": len(active),
                         "selected_pixels_per_view": growth.selected_per_view,
                         "residual_before": growth.residual_before,
                         "residual_after": after,
                         "time_s": stage_s}
                report["layers"].append({
                    "index": layer, "count": len(st.scene),
                    "views": len(active), "time_s": render_s,
                    "growth": {"cloud_points": growth.candidate_points,
                               "picks": growth.added,
                               "time_s": grow_s}})
                report["stages"].append(jsonable(entry))
                continue

            elif stage == "refine":
                active = st.active
                st.scene = refine_scene(st.scene, active, heads=config.heads,
                                        which=config.refine_which,
                                        occlusion_margin=config.occlusion_margin)
                refine_s = time.perf_counter() - t0
                if config.heads is not None:
                    st.renders, render_s = _render_all(st.scene, active,
                                                       config.threads)
                    refine_s += render_s
                report["layers"][-1]["time_s"] += refine_s
                entry = {"name": stage, "which": config.refine_which,
                         "count": len(st.scene), "time_s": refine_s}
                report["stages"].append(jsonable(entry))
                continue

            elif stage == "voxelize":
                if st.bank is None or st.gt is None:
                    raise InvalidInputError("voxelize needs a bank and grid "
                                            "geometry from the synth stage")
                gspec = GridSpec(st.gt.origin, st.gt.dims, st.gt.voxel_size)
                st.pred = voxelize(st.scene, st.bank, gspec,
                                   tau_occ=config.tau_occ, cutoff=config.cutoff)
                entry = {"name": stage, "occupied": int(st.pred.occupied.sum()),
                         "dims": list(st.pred.dims)}

            elif stage == "eval":
                entry = {"name": stage}
                entry.update(_evaluate(st, config))

        except FgsError as e:
            raise type(e)(f"stage '{stage}' failed: {e}") from e
        entry.setdefault("time_s", time.perf_counter() - t0)
        report["stages"].append(jsonable(entry))

    if config.out_dir is not None:
        _write_artifacts(config.out_dir, st, report)
    return report


def _evaluate(st: _State, config: PipelineConfig) -> dict:
    if st.pred is None or st.gt is None:
        raise InvalidInputError("eval needs a voxelized prediction and GT")
    iou = eval_miou(st.pred, st.gt)
    names = [e.class_name for e in st.bank.entries]
    metrics = {
        "miou": iou.miou,
        "iou_per_class": {names[c]: v for c, v in iou.per_class.items()},
    }
    if np.any(st.gt.occupied):
        mp = retrieval_map(st.scene, st.bank, st.gt, cutoff=config.cutoff)
        metrics["map"] = mp["map"]
        metrics["ap_per_class"] = mp["per_class"]
    return {"metrics": jsonable(metrics)}


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
        uv, _, front = project_points(points, v)
        vis |= (front & (uv[:, 0] >= 0) & (uv[:, 0] <= v.width - 1)
                & (uv[:, 1] >= 0) & (uv[:, 1] <= v.height - 1))
    return vis


def _write_artifacts(out_dir: str, st: _State, report: dict) -> None:
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
    report["artifacts"] = arts
    with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8") as fh:
        dump_json(report, fh)


# ---------------------------------------------------------------------------
# Benchmarks
# ---------------------------------------------------------------------------

def _bench_scene(n: int, fdim: int, seed: int) -> GaussianScene:
    rng = np.random.default_rng(seed)
    quat = rng.normal(size=(n, 4))
    return GaussianScene(
        mu=rng.uniform([-6.0, -4.0, 0.5], [6.0, 4.0, 14.0], size=(n, 3)),
        scale=rng.uniform(0.05, 0.3, size=(n, 3)),
        quat=quat / np.linalg.norm(quat, axis=1, keepdims=True),
        opacity=rng.uniform(0.2, 0.95, size=n),
        feature=rng.normal(size=(n, fdim)),
    )


def _bench_camera(width=320, height=180) -> CameraView:
    return CameraView(fx=width / 2.0, fy=width / 2.0, cx=(width - 1) / 2.0,
                      cy=(height - 1) / 2.0, width=width, height=height,
                      rotation=np.eye(3), translation=np.zeros(3))


def _median_time(fn, k: int) -> float:
    times = []
    for _ in range(max(1, k)):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


def bench(n_gaussians: int = 10000, image=(180, 320), k: int = 1,
          threads: int = 1, seed: int = 0) -> dict:
    """Median-of-k wall times for the rasterizer (tiled vs. per-pixel
    oracle), the voxelizer (cutoff vs. dense oracle) and FPS."""
    scene = _bench_scene(n_gaussians, 16, seed)
    cam = _bench_camera(image[1], image[0])
    tiled_s = _median_time(lambda: render(scene, cam, threads=threads), k)
    oracle_s = _median_time(lambda: render_oracle(scene, cam), k)

    from .voxel import orthonormal_bank
    bank = orthonormal_bank(["a", "b", "c", "empty"], 16, seed=seed)
    grid = GridSpec(np.array([-6.0, -3.0, 0.0]), (24, 24, 24), 0.5)
    vox_s = _median_time(lambda: voxelize(scene, bank, grid, cutoff=3.0), k)
    vox_oracle_s = _median_time(
        lambda: voxelize_oracle(scene, bank, grid), k)

    rng = np.random.default_rng(seed)
    pts = rng.uniform(-10, 10, size=(20000, 3))
    fps_s = _median_time(lambda: fps(pts, 2000), k)

    return {
        "k": int(max(1, k)),
        "n_gaussians": int(n_gaussians),
        "image": [int(image[0]), int(image[1])],
        "threads": int(threads),
        "render": {"tiled_s": tiled_s, "oracle_s": oracle_s,
                   "speedup": oracle_s / tiled_s if tiled_s > 0 else None},
        "voxelize": {"cutoff_s": vox_s, "oracle_s": vox_oracle_s,
                     "speedup": (vox_oracle_s / vox_s) if vox_s > 0 else None},
        "fps": {"n_points": 20000, "k_picks": 2000, "time_s": fps_s},
    }
