#!/usr/bin/env python3
"""Benchmark for fgs: one named workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  A run builds its inputs from the seed, then
repeats whole rounds of the workload's operations, one caller in a closed
loop, until S seconds have passed (at least one round).  It checks every
output, and prints as its last stdout line one JSON object: `correct`,
`attempted`, `failed` and `metrics`.  Every workload prints the same
metrics: with --trace 0 the end-to-end ones (medians over rounds), with
--trace 1 the layers' public functions are wrapped and the per-layer ones
are printed instead.  Result and trace files go to `.perfbench/` under the root.
"""

import os
import sys

# BLAS would otherwise start one thread per core on top of the render pool;
# held at one thread, the run's compute threads never exceed nproc.  The
# variables must be set before NumPy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import tempfile
import time
import traceback
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
NPROC = len(os.sched_getaffinity(0))
SETUP_PROBES = 7

# The metrics a run prints: --trace 0 gives END_TO_END, --trace 1 PER_LAYER.
# Every workload prints all of them; anything else a run measures goes to
# its result file only.
END_TO_END = ("round_s", "peak_rss_mb", "setup_s")
PER_LAYER = ("densify.fps_s", "densify.fps_points", "densify.backproject_s",
             "raster.render_s", "raster.render_calls", "raster.view_p50_s",
             "voxel.voxelize_self_s", "voxel.text_probs_s", "voxel.query_points_s",
             "voxel.retrieval_scores_self_s", "synth.gen_scene_s")

# scene-kernels sizes.  Render crops checked against render_oracle, per view:
WINDOWS_PER_VIEW, WINDOW = 2, 8
# Base init: FPS_PICKS points from the pseudo cloud of the first views.
FPS_VIEWS, FPS_PICKS = 2, 500
# The room's extent at a quarter of its 0.8 m voxel edge.
FINE_GRID = ((-4.0, -4.0, 0.0), (40, 40, 16), 0.2)
QUERIES_PER_SIDE = 1024   # occupied and empty fine-voxel centres each
CHECK_QUERIES = 32        # per side, checked against sums made here
CHECK_BOX = (10, 10, 8)   # fine voxels compared with the dense oracle


def import_fgs():
    if not (SRC / "fgs" / "__init__.py").is_file():
        sys.exit(f"perfbench: no fgs sources under {SRC}; run from a checkout "
                 "of the repository")
    sys.path.insert(0, str(SRC))
    import fgs  # noqa: F401


# ---------------------------------------------------------------------------
# Workloads.  Each has setup(seed) -> inputs, op(inputs) -> (timings,
# output) with the round's wall time as timings["round_s"],
# repeat(output, first) checking a later round against the first,
# check(inputs, first) and, for traced runs, wrap(tracer) and
# layer_metrics(spans, output).  Operations are called through their
# module attributes so that a tracer's wrappers see them.
# ---------------------------------------------------------------------------

class RoomPipeline:
    """The default pipeline on the stock room, writing its artifacts."""

    ops_per_round = 1

    def setup(self, seed):
        tmp = OUT / "tmp"
        tmp.mkdir(parents=True, exist_ok=True)
        # criterion 10 sets its quality floors on room seeds 0-4
        return {"seed": seed % 5, "tmp": tmp}

    def op(self, inp):
        from fgs import io, pipeline
        with tempfile.TemporaryDirectory(dir=inp["tmp"]) as d:
            cfg = pipeline.PipelineConfig(seed=inp["seed"], threads=1, out_dir=d)
            t0 = time.perf_counter()
            report = pipeline.run_pipeline(cfg)
            dt = time.perf_counter() - t0
            scene = io.load_scene(os.path.join(d, "scene.fgs"))
            grid = io.load_voxel_grid(os.path.join(d, "grid.voxg"))
        out = {"report": report, "mu0": scene.mu[scene.layer_slice(0)],
               "labels": grid.labels, "sizes": (cfg.base_count, cfg.layer_budgets)}
        return {"round_s": dt}, out

    def repeat(self, out, first):
        import numpy as np
        import checks
        checks.require(np.array_equal(out["mu0"], first["mu0"])
                       and np.array_equal(out["labels"], first["labels"])
                       and _strip(out["report"]) == _strip(first["report"]),
                       "the pipeline's artifacts or report changed between rounds")

    def check(self, inp, first):
        import checks
        from fgs import synth
        report = first["report"]
        checks.check_report(report, *first["sizes"])
        spec = synth.room_spec(inp["seed"])
        fix = synth.gen_scene(spec)
        g = spec.grid
        gt = checks.box_labels(spec.primitives, spec.class_names,
                               checks.grid_centers(g.origin, g.dims, g.voxel_size))
        checks.check_miou(first["labels"].ravel(), gt,
                          report["stages"][-1]["metrics"]["miou"])
        init = next(s for s in report["stages"] if s["name"] == "init")
        cloud = checks.backproject_views(fix.views[:init["views_active"]])
        checks.check_fps_sequence(cloud, first["mu0"])

    def wrap(self, tr):
        from fgs import densify, pipeline, sampling, voxel
        view_ids = {}

        def note_views(a, kw, result):
            view_ids.update({id(v): i for i, v in enumerate(result.views)})
        tr.wrap(pipeline, "run_pipeline", "pipeline")
        tr.wrap(pipeline, "gen_scene", "synth.gen_scene", note_views)
        tr.wrap(pipeline, "base_init", "densify.base_init")
        tr.wrap(pipeline, "densify_layer", "densify.densify_layer")
        for mod in (pipeline, densify):
            tr.wrap(mod, "select_under_represented", "densify.select")
            tr.wrap(mod, "render", "raster.render",
                    lambda a, kw, r: view_ids.get(id(a[1])))
        tr.wrap(densify, "backproject", "densify.backproject")
        tr.wrap(densify, "fps", "densify.fps", lambda a, kw, r: len(a[0]))
        tr.wrap(pipeline, "refine_scene", "sampling.refine_scene")
        tr.wrap(sampling, "sample_features", "sampling.sample_features")
        tr.wrap(pipeline, "voxelize", "voxel.voxelize")
        tr.wrap(pipeline, "retrieval_scores", "voxel.retrieval_scores")
        for name in ("text_probs", "query_points"):
            tr.wrap(voxel, name, f"voxel.{name}")
        for name in ("eval_miou", "eval_map"):
            tr.wrap(pipeline, name, "voxel.eval")
        for name in ("save_scene", "save_voxel_grid"):
            tr.wrap(pipeline, name, "io.save")

    def layer_metrics(self, spans, out):
        from tracing import self_total, total
        m = kernel_metrics(spans)
        m.update({
            "synth.gen_scene_s": total(spans, "synth.gen_scene"),
            # the rest go to the result file only: the other workload does
            # not call these functions
            "densify.select_s": total(spans, "densify.select"),
            "densify.select_calls": sum(s[0] == "densify.select" for s in spans),
            "densify.densify_layer_self_s": self_total(spans, "densify.densify_layer"),
            "sampling.refine_scene_s": total(spans, "sampling.refine_scene"),
            "sampling.sample_features_s": total(spans, "sampling.sample_features"),
            "voxel.eval_s": total(spans, "voxel.eval"),
            "io.save_s": total(spans, "io.save"),
            "pipeline.self_s": self_total(spans, "pipeline"),
        })
        # Layer 0 runs from base_init to the first render of a view that
        # arrived after init; layer k from there to the first render of a
        # view from the next wave, the last layer to the end of its refine.
        active = [s["views_active"] for s in out["report"]["stages"]
                  if s["name"] in ("init", "densify")]
        renders = [s for s in spans if s[0] == "raster.render"]
        bounds = [next(s[1] for s in spans if s[0] == "densify.base_init")]
        for seen in active[:-1]:
            bounds.append(next(s[1] for s in renders if s[4] >= seen))
        bounds.append(max(s[2] for s in spans if s[0] == "sampling.refine_scene"))
        for k in range(len(active)):
            m[f"layer{k}_s"] = bounds[k + 1] - bounds[k]
        return m


class SceneKernels:
    """The loop's hot kernels, one call after another, on the fixture's
    opaque ground-truth scene: every rig view rendered, base init (FPS) on
    the first views' pseudo cloud, voxelize onto a fine grid, retrieval at
    occupied and empty centres of that grid."""

    ops_per_round = 4

    def setup(self, seed):
        import numpy as np
        import checks
        from fgs import synth, voxel
        spec = synth.room_spec(seed)
        fix = synth.gen_scene(spec)
        rng = np.random.default_rng(seed)
        views = fix.views
        windows = [(i, int(rng.integers(0, v.height - WINDOW + 1)),
                    int(rng.integers(0, v.width - WINDOW + 1)))
                   for i, v in enumerate(views) for _ in range(WINDOWS_PER_VIEW)]
        origin, dims, size = FINE_GRID
        grid = voxel.GridSpec(np.array(origin), dims, size)
        centers = checks.grid_centers(grid.origin, dims, size)
        touched = checks.box_labels(spec.primitives, spec.class_names,
                                    centers, grow=size) >= 0
        pick = [rng.choice(np.flatnonzero(side), QUERIES_PER_SIDE, replace=False)
                for side in (touched, ~touched)]
        sample = np.concatenate([rng.choice(QUERIES_PER_SIDE, CHECK_QUERIES, replace=False)
                                 + k * QUERIES_PER_SIDE for k in range(2)])
        box = tuple(int(rng.integers(0, d - b + 1)) for d, b in zip(dims, CHECK_BOX))
        return {"scene": fix.scene, "bank": fix.bank, "views": views,
                "windows": windows, "fps_views": views[:FPS_VIEWS], "grid": grid,
                "points": centers[np.concatenate(pick)], "sample": sample, "box": box}

    def op(self, inp):
        import checks
        from fgs import densify, raster, voxel
        scene, bank = inp["scene"], inp["bank"]
        t0 = time.perf_counter()
        renders = [raster.render(scene, v, threads=1) for v in inp["views"]]
        t1 = time.perf_counter()
        cfg = densify.DensifyConfig(base_count=FPS_PICKS, feature_dim=scene.feature_dim)
        base = densify.base_init(inp["fps_views"], cfg)
        t2 = time.perf_counter()
        vg = voxel.voxelize(scene, bank, inp["grid"])
        t3 = time.perf_counter()
        scores, p_occ = voxel.retrieval_scores(scene, bank, inp["points"])
        t4 = time.perf_counter()
        # Keep render digests and the checked windows only, so that memory
        # holds one pass whatever the number of rounds.
        out = {"digests": [checks.digest(r) for r in renders],
               "windows": [checks.crop(renders[i], y0, x0, WINDOW)
                           for i, y0, x0 in inp["windows"]],
               "mu0": base.mu, "vg": vg, "scores": scores, "p_occ": p_occ}
        return {"round_s": t4 - t0, "render_s": t1 - t0, "fps_s": t2 - t1,
                "voxelize_s": t3 - t2, "query_s": t4 - t3}, out

    def repeat(self, out, first):
        import numpy as np
        import checks
        checks.check_identical(out["digests"], first["digests"], "renders")
        a, b = out["vg"], first["vg"]
        checks.require(np.array_equal(out["mu0"], first["mu0"])
                       and np.array_equal(a.occ_mass, b.occ_mass)
                       and np.array_equal(a.class_probs, b.class_probs)
                       and np.array_equal(a.labels, b.labels)
                       and np.array_equal(out["scores"], first["scores"])
                       and np.array_equal(out["p_occ"], first["p_occ"]),
                       "FPS, voxelize or retrieval output changed between rounds")

    def check(self, inp, first):
        import numpy as np
        import checks
        from fgs import raster, voxel
        scene, bank, grid = inp["scene"], inp["bank"], inp["grid"]
        # Renders: the tile pool must not change a bit; windows match the oracle.
        t0 = time.perf_counter()
        mt = [checks.digest(raster.render(scene, v, threads=NPROC)) for v in inp["views"]]
        self.render_mt_s = time.perf_counter() - t0
        checks.check_identical(mt, first["digests"], f"threads={NPROC}")
        for (i, y0, x0), window in zip(inp["windows"], first["windows"]):
            v = inp["views"][i]
            cam = replace(v, cx=v.cx - x0, cy=v.cy - y0, width=WINDOW, height=WINDOW,
                          ref_depth=None, ref_valid=None, ref_feature=None, photo=None)
            checks.check_window(raster.render_oracle(scene, cam), window,
                                f"view {i} window ({y0}, {x0})")
        # Base init: FPS_PICKS greedy farthest points of the pooled cloud.
        checks.require(first["mu0"].shape[0] == FPS_PICKS,
                       f"base init made {first['mu0'].shape[0]} Gaussians, not {FPS_PICKS}")
        checks.check_fps_sequence(checks.backproject_views(inp["fps_views"]), first["mu0"])
        # Voxelize on a seeded box, against dense sums and the oracle.
        vg = first["vg"]
        lo = np.array(inp["box"])
        sl = tuple(slice(a, a + b) for a, b in zip(lo, CHECK_BOX))
        sub = voxel.GridSpec(grid.origin + lo * grid.voxel_size, CHECK_BOX, grid.voxel_size)
        oracle = voxel.voxelize_oracle(scene, bank, sub)
        checks.check_voxel_box(scene, bank,
                               checks.grid_centers(sub.origin, CHECK_BOX, sub.voxel_size),
                               vg.occ_mass[sl].ravel(),
                               vg.class_probs[sl].reshape(-1, bank.num_classes),
                               oracle.occ_mass.ravel(),
                               oracle.class_probs.reshape(-1, bank.num_classes),
                               voxel.DEFAULT_CUTOFF)
        # Retrieval on a seeded sample of the query points.
        s = inp["sample"]
        checks.check_query(scene, bank, inp["points"][s], first["scores"][:, s],
                           first["p_occ"][s], voxel.DEFAULT_CUTOFF)

    def wrap(self, tr):
        from fgs import densify, raster, synth, voxel
        tr.wrap(synth, "gen_scene", "synth.gen_scene")
        tr.wrap(raster, "render", "raster.render")
        tr.wrap(densify, "backproject", "densify.backproject")
        tr.wrap(densify, "fps", "densify.fps", lambda a, kw, r: len(a[0]))
        for name in ("voxelize", "text_probs", "retrieval_scores", "query_points"):
            tr.wrap(voxel, name, f"voxel.{name}")

    def layer_metrics(self, spans, out):
        return kernel_metrics(spans)


def kernel_metrics(spans):
    """The per-layer metrics both workloads report, from one round's spans."""
    from tracing import self_total, total
    return {
        "densify.fps_s": total(spans, "densify.fps"),
        "densify.fps_points": sum(s[4] for s in spans if s[0] == "densify.fps"),
        "densify.backproject_s": total(spans, "densify.backproject"),
        "raster.render_s": total(spans, "raster.render"),
        "raster.render_calls": sum(s[0] == "raster.render" for s in spans),
        "raster.view_p50_s": statistics.median(s[2] - s[1] for s in spans
                                               if s[0] == "raster.render"),
        "voxel.voxelize_self_s": self_total(spans, "voxel.voxelize"),
        "voxel.text_probs_s": total(spans, "voxel.text_probs"),
        "voxel.query_points_s": total(spans, "voxel.query_points"),
        "voxel.retrieval_scores_self_s": self_total(spans, "voxel.retrieval_scores"),
    }


WORKLOADS = {"room-pipeline": RoomPipeline, "scene-kernels": SceneKernels}


def _strip(report):
    """A report without its timings and artifact paths."""
    if isinstance(report, dict):
        return {k: _strip(v) for k, v in report.items()
                if k not in ("time_s", "artifacts")}
    if isinstance(report, list):
        return [_strip(v) for v in report]
    return report


def _unit(name):
    return "count" if name.endswith(("_points", "_calls")) else "s"


def probe_setup(workload, seed):
    """Wall time from starting a fresh interpreter to the end of the
    workload's set-up, as the first timed operation would see it."""
    cmd = [sys.executable, __file__, "--setup-probe", "--workload", workload,
           "--seed", str(seed)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        proc.stdout.read()
        if proc.wait() != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe exited with {proc.returncode}")
    return t1 - t0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    import_fgs()
    wl = WORKLOADS[args.workload]()
    if args.setup_probe:
        wl.setup(args.seed)
        print("ready", flush=True)
        return 0

    import checks
    from tracing import Tracer, dump, total

    tracer = None
    if args.trace:
        tracer = Tracer()
        wl.wrap(tracer)
    try:
        inp = wl.setup(args.seed)
        setup_spans = tracer.take() if tracer else []

        rounds, per_round_layers, all_spans = [], [], []
        first, attempted, failed = None, 0, 0
        op_errors, errors = [], []
        loop_t0 = time.perf_counter()
        while True:
            attempted += wl.ops_per_round
            try:
                times, out = wl.op(inp)
            except Exception:
                failed += wl.ops_per_round
                op_errors.append(traceback.format_exc())
            else:
                rounds.append(times)
                if first is None:
                    first = out
                else:
                    try:
                        wl.repeat(out, first)
                    except checks.CheckFailed as e:
                        errors.append(f"round {len(rounds)}: {e}")
                if tracer:
                    spans = tracer.take()
                    all_spans.append(spans)
                    per_round_layers.append(wl.layer_metrics(spans, out))
                # the next round runs holding only the first round's output,
                # so peak memory does not depend on the number of rounds
                del out
            if time.perf_counter() - loop_t0 >= args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        if tracer:
            tracer.restore()

    if first is not None:
        try:
            wl.check(inp, first)
        except Exception as e:  # a check that cannot finish fails the run too
            errors.append(f"check failed: {type(e).__name__}: {e}")
    else:
        errors.append("no operation succeeded")

    layers, setups = {}, []
    if args.trace:
        layers = dict(per_round_layers[0]) if per_round_layers else {}
        for key in layers:
            values = [r[key] for r in per_round_layers]
            if _unit(key) == "count":
                if len(set(values)) != 1:
                    errors.append(f"count {key} differs between rounds: {values}")
            else:
                layers[key] = statistics.median(values)
        if total(setup_spans, "synth.gen_scene"):
            layers["synth.gen_scene_s"] = total(setup_spans, "synth.gen_scene")
        metrics = {k: {"value": layers[k], "unit": _unit(k)}
                   for k in PER_LAYER if k in layers}
    else:
        setups = [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
        metrics = {"peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
                   "setup_s": {"value": statistics.median(setups), "unit": "s"}}
        if rounds:
            metrics["round_s"] = {"value": statistics.median(r["round_s"] for r in rounds),
                                  "unit": "s"}
    missing = [k for k in (PER_LAYER if args.trace else END_TO_END) if k not in metrics]
    if missing:
        errors.append(f"metrics not measured: {missing}")

    for e in op_errors + errors:
        print(e, file=sys.stderr)
    result = {"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"result-{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({**result, "rounds": rounds, "setups": setups, "layers": layers,
                   "render_mt_s": getattr(wl, "render_mt_s", None),
                   "errors": op_errors + errors, "nproc": NPROC}, fh, indent=1)
    if tracer:
        with open(OUT / f"trace-{stem}.json", "w", encoding="utf-8") as fh:
            json.dump({"setup": dump(setup_spans), "rounds": [dump(s) for s in all_spans]}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
