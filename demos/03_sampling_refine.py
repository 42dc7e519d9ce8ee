"""
Plane-feature sampling, decode heads, and order-free attention
==============================================================

Refinement treats each Gaussian as a query: offsets placed inside its
3-sigma body are projected into every camera, features are pulled off
the reference planes with bilinear interpolation, aggregated across
views, and (when decode heads are present) turned into a full geometry
+ feature update.  Without heads the pass is a feature-only center
sample.  The cross-view aggregator is masked multi-head attention whose
earlier rows provably ignore later ones -- so streaming views in waves
matches one big batch.
"""

import numpy as np

from fgs import (AttentionWeights, DecodeHeads, asa_forward, bilinear_sample,
                 covariance3d, gen_offsets, gen_scene, place_samples,
                 refine_scene, room_spec)

rng = np.random.default_rng(0)

# --- bilinear interpolation, the primitive under all plane sampling ----
plane = np.array([[1.0, 2.0], [3.0, 4.0]])[..., None]
val = bilinear_sample(plane, np.array([0.5]), np.array([0.5]))[0, 0]
print(f"bilinear center of [[1,2],[3,4]] = {val} (exact 2.5)")

# --- offsets stay inside the Gaussian that asked for them --------------
result = gen_scene(room_spec(seed=0))
scene = result.scene
heads = DecodeHeads.seeded(query_dim=scene.feature_dim,
                           feature_dim=scene.feature_dim,
                           n_offsets=8, hidden=(32,), seed=0)
# The sampling steps work on row batches; here the first four Gaussians.
rows = slice(0, 4)
offsets = gen_offsets(scene.feature[rows], heads)            # (4, 8, 3)
samples = place_samples(scene.mu[rows], scene.scale[rows],
                        scene.quat[rows], offsets)           # (4, 8, 3)
q = [np.einsum("ij,ij->i", d, np.linalg.solve(covariance3d(s, r), d.T).T)
     for d, s, r in zip(samples - scene.mu[rows, None], scene.scale[rows],
                        scene.quat[rows])]
print(f"{samples.shape[0] * samples.shape[1]} samples placed, "
      f"max Mahalanobis q = {np.max(q):.3f} (support bound 3.0)")

# --- refinement, with and without decode heads -------------------------
center_only = refine_scene(scene, result.views, heads=None)
moved = np.abs(center_only.feature - scene.feature).mean()
print(f"center-sample pass: mean |feature delta| {moved:.4f}, "
      f"geometry untouched: {bool(np.array_equal(center_only.mu, scene.mu))}")

decoded = refine_scene(scene, result.views, heads=heads)
print(f"decoded pass:       mean |mu delta| "
      f"{np.abs(decoded.mu - scene.mu).mean():.4f}, "
      f"mean |feature delta| "
      f"{np.abs(decoded.feature - scene.feature).mean():.4f}")

# --- attention prefix consistency ---------------------------------------
# Rows for the first x_prev tokens may only attend to each other, so the
# full run restricted to the prefix equals a run on the prefix alone.
dim, n, n_prev = 64, 12, 5
w = AttentionWeights.seeded(dim=dim, heads=8, seed=0)
tokens = rng.normal(size=(n, dim))
pos = rng.normal(size=(n, 3))
full = asa_forward(tokens, pos, w, n_prev)
prefix = asa_forward(tokens[:n_prev], pos[:n_prev], w, n_prev)
print(f"attention prefix max |diff| = "
      f"{np.abs(full[:n_prev] - prefix).max():.3e}")
