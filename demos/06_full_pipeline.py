"""
End-to-end pipeline: synth -> init -> densify -> refine -> voxelize -> eval
===========================================================================

The pipeline runner consumes the rig in arrival waves: the base layer is
fit to the first camera ring, each densify stage activates the next ring
and fills in whatever those new views expose, refine re-samples features
across everything active, and the finished scene is voxelized and scored
against ground truth.  Artifacts (scene, grid, report) land in the output
directory and reload bit-for-bit.  Takes ~15 s at the default sizes.

Same thing from a shell:

    fgs pipeline --out /tmp/run --seed 0
"""

import json
import tempfile

from fgs import PipelineConfig, run_pipeline
from fgs.io import load_scene, load_voxel_grid

out = tempfile.mkdtemp(prefix="fgs_pipeline_")
report = run_pipeline(PipelineConfig(seed=0, out_dir=out))

# One line per stage, with the numbers that stage is about.
for entry in report["stages"]:
    name = entry["name"]
    if name == "synth":
        detail = (f"{entry['views']} views in waves {entry['view_waves']}, "
                  f"classes {entry['classes']}")
    elif name == "init":
        detail = (f"{entry['count']} base Gaussians from "
                  f"{entry['views_active']} views")
    elif name == "densify":
        detail = (f"layer {entry['layer']}: +{entry['added']}, residual "
                  f"{entry['residual_before']:.3f} -> "
                  f"{entry['residual_after']:.3f} m")
    elif name == "refine":
        detail = f"{entry['count']} Gaussians"
    elif name == "voxelize":
        detail = f"{entry['occupied']} occupied voxels in {entry['dims']}"
    else:
        detail = json.dumps(entry["metrics"], default=str)
    print(f"{name:9s} {entry['time_s']:6.2f}s  {detail}")

# The layer table: how the scene grew, how long each layer's renders took
# (refine time is folded into its layer; after the last densify only the
# tiles holding its selected pixels are rendered), and the growth step that
# built it: FPS picks out of the pseudo cloud, and its own time.
for l in report["layers"]:
    g = l["growth"]
    print(f"layer {l['index']}: {l['count']} Gaussians over {l['views']} "
          f"views, render+refine {l['time_s']:.2f}s; growth "
          f"{g['picks']} of {g['cloud_points']} points in {g['time_s']:.2f}s")

# Artifacts round-trip through their binary formats.
scene = load_scene(report["artifacts"]["scene"])
grid = load_voxel_grid(report["artifacts"]["grid"])
print(f"reloaded scene: {len(scene)} Gaussians, layer offsets "
      f"{scene.layer_offsets}")
print(f"reloaded grid:  dims {grid.dims}, "
      f"{int(grid.occupied.sum())} occupied")
print(f"artifacts in {out}")
