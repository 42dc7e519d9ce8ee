"""
Rendering a feature-Gaussian room: tiled blender vs. dense reference
====================================================================

Build the stock walled-room fixture, splat it into one of its own rig
cameras with the tile-binned renderer, and check the result against the
dense per-pixel reference blender.  Both walk the same global depth
order, so depth, feature, and accumulated-alpha planes agree to machine
precision.  A grayscale depth preview is written next to this script's
output directory for eyeballing.
"""

import tempfile
import time

import numpy as np

from fgs import gen_scene, render, render_oracle, room_spec
from fgs.io import depth_preview

# The fixture is fully seeded: scene Gaussians, reference views, ground
# truth grid, and text bank all come from one spec.
result = gen_scene(room_spec(seed=0))
scene, views = result.scene, result.views
print(f"scene: {len(scene)} Gaussians, feature dim {scene.feature_dim}")
print(f"rig:   {len(views)} cameras, {views[0].width}x{views[0].height} px")

cam = views[0]

# Tile-binned path (the fast one): 8x8 tiles are blended as a wavefront,
# 16 tiles per 64-row step; a saturated pixel of a running tile gets weight
# 0, and a tile stops once all its pixels are saturated.
t0 = time.perf_counter()
fast = render(scene, cam)
fast_s = time.perf_counter() - t0

# Dense reference: every Gaussian blended into every pixel it touches,
# no tiling, no culling shortcuts beyond the shared support rules.
t0 = time.perf_counter()
ref = render_oracle(scene, cam)
ref_s = time.perf_counter() - t0

# Agreement on every output plane the renderer produces.  The `valid`
# mask marks pixels with enough accumulated mass to define a depth.
both = fast.valid & ref.valid
print(f"valid pixels: {int(fast.valid.sum())} of {cam.width * cam.height}"
      f" (masks identical: {bool(np.array_equal(fast.valid, ref.valid))})")
print(f"max |depth diff|:   {np.abs(fast.depth[both] - ref.depth[both]).max():.3e}")
print(f"max |feature diff|: {np.abs(fast.feature[both] - ref.feature[both]).max():.3e}")
print(f"max |alpha diff|:   {np.abs(fast.acc_alpha - ref.acc_alpha).max():.3e}")
print(f"tiled {fast_s:.3f}s vs dense {ref_s:.3f}s "
      f"({ref_s / fast_s:.1f}x faster)")

# Depth preview: near = bright, far = dark, invalid = black.
out = tempfile.mkdtemp(prefix="fgs_render_")
depth_preview(f"{out}/view0_depth.pgm", fast.depth, fast.valid)
print(f"wrote {out}/view0_depth.pgm")
