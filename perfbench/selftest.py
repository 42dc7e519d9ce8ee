#!/usr/bin/env python3
"""Self-test of the benchmark's checks at a small size.

    python3 perfbench/selftest.py

Each check must accept the program's real output and reject a deliberately
wrong copy of it.  Exits 0 when every case behaves, 1 otherwise.
"""

import sys
from dataclasses import replace

import numpy as np

import run  # sets the BLAS thread variables before NumPy is used

run.import_fgs()

import checks  # noqa: E402
from fgs import densify, raster, synth, voxel  # noqa: E402


def expect(accepts, check, *args):
    try:
        check(*args)
        got = True
    except checks.CheckFailed as e:
        got, why = False, e
    print(f"[{'ok' if got == accepts else 'FAIL'}] {check.__name__} "
          f"{'accepts' if accepts else 'rejects'}"
          + ("" if got else f" ({why})"))
    return got == accepts


def main():
    ok = []
    rng = np.random.default_rng(0)
    fix = synth.gen_scene(replace(synth.room_spec(0), n_gaussians=600))
    scene, bank = fix.scene, fix.bank

    # FPS: real picks, stored as float32 like the scene file, then two swapped.
    cloud = checks.backproject_views(fix.views[:1])
    picked = cloud[densify.fps(cloud, 64)].astype(np.float32)
    ok.append(expect(True, checks.check_fps_sequence, cloud, picked))
    swapped = picked.copy()
    swapped[[5, 40]] = swapped[[40, 5]]
    ok.append(expect(False, checks.check_fps_sequence, cloud, swapped))

    # Render: an oracle window, then one of its pixels moved by 2e-5.
    view = fix.views[0]
    out = raster.render(scene, view)
    y0, x0 = 56, 76
    cam = replace(view, cx=view.cx - x0, cy=view.cy - y0, width=8, height=8,
                  ref_depth=None, ref_valid=None, ref_feature=None, photo=None)
    oracle = raster.render_oracle(scene, cam)
    ok.append(expect(True, checks.check_window, oracle, checks.crop(out, y0, x0, 8), "window"))
    iy, ix = np.argwhere(out.valid[y0:y0 + 8, x0:x0 + 8])[0]
    moved = replace(out, depth=out.depth.copy())
    moved.depth[y0 + iy, x0 + ix] += 2e-5
    ok.append(expect(False, checks.check_window, oracle, checks.crop(moved, y0, x0, 8), "window"))
    mt = [checks.digest(raster.render(scene, view, threads=2))]
    ok.append(expect(True, checks.check_identical, [checks.digest(out)], mt, "threads=2"))
    ok.append(expect(False, checks.check_identical, [checks.digest(moved)], mt, "threads=2"))

    # Voxelize on a small box, then one voxel's mass scaled by 1 + 1e-4.
    grid = voxel.GridSpec(np.array([-1.0, -3.2, 0.2]), (6, 6, 6), 0.2)
    vg = voxel.voxelize(scene, bank, grid)
    orc = voxel.voxelize_oracle(scene, bank, grid)
    c = bank.num_classes
    args = [scene, bank, grid.centers_flat(), vg.occ_mass.ravel(),
            vg.class_probs.reshape(-1, c), orc.occ_mass.ravel(),
            orc.class_probs.reshape(-1, c), voxel.DEFAULT_CUTOFF]
    ok.append(expect(True, checks.check_voxel_box, *args))
    args[3] = args[3].copy()
    args[3][np.argmax(args[3])] *= 1 + 1e-4
    ok.append(expect(False, checks.check_voxel_box, *args))

    # Query: near-surface and random points, then one sum scaled by 1 + 1e-4.
    pts = np.vstack([scene.mu[:16] + rng.normal(scale=0.05, size=(16, 3)),
                     rng.uniform([-4, -4, 0], [4, 4, 3], size=(16, 3))])
    scores, p_occ = voxel.retrieval_scores(scene, bank, pts)
    ok.append(expect(True, checks.check_query, scene, bank, pts, scores, p_occ,
                     voxel.DEFAULT_CUTOFF))
    scaled = p_occ.copy()
    scaled[np.argmax(scaled)] *= 1 + 1e-4
    ok.append(expect(False, checks.check_query, scene, bank, pts, scores, scaled,
                     voxel.DEFAULT_CUTOFF))
    scaled = scores.copy()
    scaled[np.unravel_index(np.argmax(scaled), scaled.shape)] *= 1 + 1e-4
    ok.append(expect(False, checks.check_query, scene, bank, pts, scaled, p_occ,
                     voxel.DEFAULT_CUTOFF))

    print(f"{sum(ok)}/{len(ok)} cases behave")
    return 0 if all(ok) else 1


if __name__ == "__main__":
    sys.exit(main())
