"""
Plane-feature sampling, refinement, and order-free attention
============================================================

Refinement projects each Gaussian's center into every camera, pulls
features off the reference planes with bilinear interpolation, and
replaces the Gaussian's feature with their mean over the views that see
it; geometry is kept.  Sample points placed in a Gaussian's body stay
within its 3-sigma support.  The cross-view aggregator is masked multi-head attention whose
earlier rows provably ignore later ones -- so streaming views in waves
matches one big batch.
"""

import numpy as np

from fgs import (AttentionWeights, asa_forward, bilinear_sample, covariance3d,
                 gen_scene, place_samples, refine_scene, room_spec)

rng = np.random.default_rng(0)

# --- bilinear interpolation, the primitive under all plane sampling ----
plane = np.array([[1.0, 2.0], [3.0, 4.0]])[..., None]
val = bilinear_sample(plane, np.array([0.5]), np.array([0.5]))[0, 0]
print(f"bilinear center of [[1,2],[3,4]] = {val} (exact 2.5)")

# --- samples stay inside the Gaussian they belong to -------------------
result = gen_scene(room_spec(seed=0))
scene = result.scene
# Placement works on row batches; here the first four Gaussians, each with
# samples at the eight corners of the unit cube, the farthest offsets.
rows = slice(0, 4)
corners = np.array([[x, y, z] for x in (-1.0, 1.0) for y in (-1.0, 1.0)
                    for z in (-1.0, 1.0)])
offsets = np.tile(corners, (4, 1, 1))                        # (4, 8, 3)
samples = place_samples(scene.mu[rows], scene.scale[rows],
                        scene.quat[rows], offsets)           # (4, 8, 3)
q = [np.einsum("ij,ij->i", d, np.linalg.solve(covariance3d(s, r), d.T).T)
     for d, s, r in zip(samples - scene.mu[rows, None], scene.scale[rows],
                        scene.quat[rows])]
print(f"{samples.shape[0] * samples.shape[1]} samples placed, "
      f"max Mahalanobis q = {np.max(q):.3f} (support bound 3.0)")

# --- refinement: the center-sample pass ---------------------------------
refined = refine_scene(scene, result.views)
moved = np.abs(refined.feature - scene.feature).mean()
print(f"center-sample pass: mean |feature delta| {moved:.4f}, "
      f"geometry untouched: {bool(np.array_equal(refined.mu, scene.mu))}")

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
