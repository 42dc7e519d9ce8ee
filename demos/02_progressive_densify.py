"""
Progressive densification: finding and filling an unexplained wall
==================================================================

The missing-wall fixture renders a room whose east wall exists in every
reference depth map but carries no Gaussians.  Rays through the gap sail
past the scene, so the rendered depth overshoots the reference there by
far more than the selection threshold.  One densification layer
backprojects those pixels, thins the pooled cloud with farthest-point
sampling, and appends fresh Gaussians -- after which the residual over
the originally selected pixels collapses.
"""

import numpy as np

from fgs import (DensifyConfig, densify_layer, fps, fps_oracle,
                 missing_wall_fixture, render, selection_residual)

fix = missing_wall_fixture(seed=0)
scene, views = fix.scene, fix.views
print(f"scene without the east wall: {len(scene)} Gaussians")

# Render every reference view once and grow layer 1.  densify_layer marks
# the pixels whose rendered depth exceeds the reference by more than gamma
# (signed mode: only overshoot counts -- the scene seeing *past* a surface
# it should hit) and reports the mean |rendered - reference| over them.
cfg = DensifyConfig(gamma=0.2, layer_budgets=(1000,),
                    feature_dim=scene.feature_dim)
renders = [render(scene, v) for v in views]
grown, report = densify_layer(scene, views, cfg, renders=renders)
print(f"under-represented pixels per view: {report.selected_per_view}")
print(f"candidates pooled: {report.candidate_points}, "
      f"added: {report.added} (budget {cfg.layer_budgets[0]})")
after = selection_residual([render(grown, v) for v in views], views,
                           report.selected)
print(f"selection residual: {report.residual_before:.3f} m -> {after:.3f} m")
print(f"layers now: {grown.layer_count}, offsets {grown.layer_offsets}")

# The thinning step is plain farthest-point sampling; the vectorized
# version must pick the same indices as the quadratic textbook loop.
rng = np.random.default_rng(7)
cloud = rng.normal(size=(400, 3))
picks = fps(cloud, 32)
print(f"fps matches the quadratic reference: "
      f"{bool(np.array_equal(picks, fps_oracle(cloud, 32)))} "
      f"(first picks {picks[:4].tolist()})")
