"""Command-line entry point: every pipeline mechanism as a subcommand.

Exit codes: 0 success, 2 invalid input, 3 numerical degeneracy, 4 I/O or
file-format failure.  `--quiet` is accepted by every subcommand; `--seed`
only by `synth` and `pipeline`, the two that read it.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from .core import rig_feature_dim
from .densify import (GAMMA, DensifyConfig, base_init, densify_layer,
                      residual_after)
from .errors import (FormatError, InvalidInputError, NumericalDegeneracyError)
from .io import (depth_preview, dump_json, load_bank, load_json_object,
                 load_points, load_rig, load_scene, load_voxel_grid, save_bank,
                 save_depth_plane, save_plane, save_rig, save_scene,
                 save_voxel_grid)
from .losses import LossComponents, feat_loss, l1_depth, silog, total_loss
from .pipeline import PipelineConfig, retrieval_map, run_pipeline
from .raster import render
from .sampling import OCCLUSION_MARGIN, refine_scene
from .synth import SynthSpec, gen_scene, room_spec
from .voxel import (DEFAULT_CUTOFF, GridSpec, TAU_OCC, eval_miou,
                    retrieval_scores, voxelize)


def _emit(args, payload: dict) -> None:
    if not args.quiet:
        dump_json(payload, sys.stdout)


def _outdir(path) -> None:
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)


def _load_spec(args) -> SynthSpec:
    """The spec file or the stock room, with each given `--seed`,
    `--depth-noise` and `--pose-noise` applied through `replace`, so that
    the spec's own checks run."""
    spec = SynthSpec.load(args.spec) if args.spec else room_spec()
    flags = {"seed": args.seed, "depth_noise": args.depth_noise,
             "pose_noise": args.pose_noise}
    return replace(spec, **{k: v for k, v in flags.items() if v is not None})


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def cmd_synth(args) -> int:
    spec = _load_spec(args)
    result = gen_scene(spec)
    os.makedirs(args.out, exist_ok=True)
    save_scene(os.path.join(args.out, "scene.fgs"), result.scene)
    save_rig(os.path.join(args.out, "rig.json"), result.views)
    save_voxel_grid(os.path.join(args.out, "gt.voxg"), result.gt_grid)
    save_bank(os.path.join(args.out, "bank.json"), result.bank)
    spec.save(os.path.join(args.out, "spec.json"))
    _emit(args, {"out": args.out, "gaussians": len(result.scene),
                 "views": len(result.views),
                 "occupied_voxels": int(result.gt_grid.occupied.sum()),
                 "classes": spec.class_names})
    return 0


def cmd_init(args) -> int:
    views = load_rig(args.rig)
    cfg = DensifyConfig(base_count=args.count,
                        feature_dim=rig_feature_dim(views, DensifyConfig.feature_dim))
    scene = base_init(views, cfg)
    _outdir(args.out)
    save_scene(args.out, scene)
    _emit(args, {"out": args.out, "count": len(scene)})
    return 0


def cmd_densify(args) -> int:
    views = load_rig(args.rig)
    scene = load_scene(args.scene)
    width = rig_feature_dim(views, scene.feature_dim)
    if width != scene.feature_dim:
        raise InvalidInputError(f"the rig's {width}-wide feature planes do not "
                                f"match a scene of width {scene.feature_dim}")
    grown, report = densify_layer(scene, views, args.budget, gamma=args.gamma)
    _outdir(args.out)
    save_scene(args.out, grown)
    # the residual of the float32 file as written, which later commands read
    after, _ = residual_after(load_scene(args.out), views, report.selected)
    _emit(args, {
        "out": args.out, "layer": report.layer,
        "selected_pixels_per_view": report.selected_per_view,
        "added_count": report.added,
        "residual_before": report.residual_before,
        "residual_after": after,
    })
    return 0


def cmd_refine(args) -> int:
    views = load_rig(args.rig)
    scene = load_scene(args.scene)
    refined = refine_scene(scene, views, occlusion_margin=args.occlusion_margin)
    _outdir(args.out)
    save_scene(args.out, refined)
    _emit(args, {"out": args.out, "count": len(refined)})
    return 0


def cmd_render(args) -> int:
    views = load_rig(args.rig)
    if not 0 <= args.view < len(views):
        raise InvalidInputError(f"view index {args.view} out of range "
                                f"(rig has {len(views)} views)")
    scene = load_scene(args.scene)
    # without --out-feature nothing reads the feature plane
    out = render(scene if args.out_feature else scene.geometry(), views[args.view])
    payload = {"view": args.view, "valid_pixels": int(out.valid.sum())}
    if args.out_depth:
        _outdir(args.out_depth)
        save_depth_plane(args.out_depth, out.depth, out.valid)
        payload["depth"] = args.out_depth
    if args.out_feature:
        _outdir(args.out_feature)
        save_plane(args.out_feature, out.feature)
        payload["feature"] = args.out_feature
    if args.preview:
        _outdir(args.preview)
        depth_preview(args.preview, out.depth, out.valid)
        payload["preview"] = args.preview
    _emit(args, payload)
    return 0


def _parse_values(text, count, cast, usage):
    """`count` comma-separated values of type `cast`, else invalid input."""
    try:
        values = tuple(cast(p) for p in text.replace(",", " ").split())
    except ValueError:
        values = ()
    if len(values) != count:
        raise InvalidInputError(f"{usage}, got {text!r}")
    return values


def cmd_voxelize(args) -> int:
    scene = load_scene(args.scene)
    bank = load_bank(args.bank)
    grid = GridSpec(np.array(_parse_values(args.origin, 3, float,
                                           "--origin wants x,y,z")),
                    _parse_values(args.dims, 3, int, "--dims wants nx,ny,nz"),
                    args.voxel_size)
    cutoff = None if args.no_cutoff else args.cutoff
    pred = voxelize(scene, bank, grid, tau_occ=args.tau, cutoff=cutoff)
    _outdir(args.out)
    save_voxel_grid(args.out, pred)
    _emit(args, {"out": args.out, "occupied": int(pred.occupied.sum()),
                 "dims": list(pred.dims)})
    return 0


def cmd_retrieve(args) -> int:
    scene = load_scene(args.scene)
    bank = load_bank(args.bank)
    points = load_points(args.points)
    cutoff = None if args.no_cutoff else args.cutoff
    scores, p_occ = retrieval_scores(scene, bank, points, cutoff=cutoff)
    names = [e.class_name for e in bank.entries]
    best = np.argmax(scores, axis=0)
    payload = {
        "points": points.shape[0],
        "classes": names,
        "best_class": [names[i] for i in best],
        "scores": {n: scores[c].tolist() for c, n in enumerate(names)},
        "occupancy": p_occ.tolist(),
    }
    if args.out:
        _outdir(args.out)
        with open(args.out, "w", encoding="utf-8") as fh:
            dump_json(payload, fh)
        _emit(args, {"out": args.out, "points": points.shape[0]})
    else:
        _emit(args, payload)
    return 0


def cmd_loss(args) -> int:
    views = load_rig(args.rig)
    scene = load_scene(args.scene)
    geometry = scene.geometry()
    l1s, logs, coss, mses = [], [], [], []
    for v in views:
        if v.ref_depth is None:
            continue
        # a view without a reference feature plane reads no rendered one
        out = render(scene if v.ref_feature is not None else geometry, v)
        ok = out.valid & v.ref_valid
        if not np.any(ok):
            continue
        l1s.append(l1_depth(v.ref_depth, out.depth, ok))
        logs.append(silog(v.ref_depth, out.depth, ok))
        if v.ref_feature is not None:
            c, m = feat_loss(v.ref_feature, out.feature, ok)
            coss.append(c)
            mses.append(m)
    if not l1s:
        raise InvalidInputError("no view overlaps the rendered scene")
    parts = LossComponents(
        l1=float(np.mean(l1s)), silog=float(np.mean(logs)), temporal=0.0,
        cos=float(np.mean(coss)) if coss else 0.0,
        mse=float(np.mean(mses)) if mses else 0.0)
    total, breakdown = total_loss(parts)
    breakdown["views_used"] = len(l1s)
    breakdown["temporal_available"] = False
    _emit(args, breakdown)
    return 0


def cmd_eval_miou(args) -> int:
    pred = load_voxel_grid(args.pred)
    gt = load_voxel_grid(args.gt)
    result = eval_miou(pred, gt)
    _emit(args, {"miou": result.miou,
                 "per_class": {str(c): v for c, v in result.per_class.items()},
                 "evaluated_classes": result.evaluated_classes})
    return 0


def cmd_eval_map(args) -> int:
    scene = load_scene(args.scene)
    bank = load_bank(args.bank)
    gt = load_voxel_grid(args.gt)
    views = load_rig(args.rig) if args.rig else None
    _emit(args, retrieval_map(scene, bank, gt, cutoff=args.cutoff, views=views))
    return 0


def cmd_pipeline(args) -> int:
    cfg_dict = load_json_object(args.config) if args.config else {}
    if args.stages is not None:         # "" is the empty stage list
        cfg_dict["stages"] = [s for s in args.stages.split(",") if s]
    if args.seed is not None:
        cfg_dict["seed"] = args.seed
    if args.out:
        cfg_dict["out_dir"] = args.out
    config = PipelineConfig.from_dict(cfg_dict)
    report = run_pipeline(config)
    _emit(args, report)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--quiet", action="store_true",
                        help="suppress the JSON summary on stdout")
    seeded = argparse.ArgumentParser(add_help=False, parents=[common])
    seeded.add_argument("--seed", type=int, default=None,
                        help="random seed (fixture-determining)")

    p = argparse.ArgumentParser(prog="fgs",
                                description="Feature-Gaussian scene toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("synth", parents=[seeded],
                       help="generate a synthetic fixture directory")
    s.add_argument("--spec", help="fixture spec JSON (default: built-in room)")
    s.add_argument("--out", required=True, help="output directory")
    s.add_argument("--depth-noise", type=float, default=None)
    s.add_argument("--pose-noise", type=float, default=None)
    s.set_defaults(func=cmd_synth)

    s = sub.add_parser("init", parents=[common],
                       help="build the base Gaussian layer from a rig")
    s.add_argument("--rig", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--count", type=int, default=DensifyConfig.base_count)
    s.set_defaults(func=cmd_init)

    s = sub.add_parser("densify", parents=[common],
                       help="grow one Gaussian layer where depth disagrees")
    s.add_argument("--rig", required=True)
    s.add_argument("--scene", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--budget", type=int, default=PipelineConfig.layer_budgets[0])
    s.add_argument("--gamma", type=float, default=GAMMA)
    s.set_defaults(func=cmd_densify)

    s = sub.add_parser("refine", parents=[common],
                       help="resample plane features into the scene")
    s.add_argument("--rig", required=True)
    s.add_argument("--scene", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--occlusion-margin", type=float, default=OCCLUSION_MARGIN)
    s.set_defaults(func=cmd_refine)

    s = sub.add_parser("render", parents=[common],
                       help="render depth/feature planes for one view")
    s.add_argument("--rig", required=True)
    s.add_argument("--scene", required=True)
    s.add_argument("--view", type=int, default=0)
    s.add_argument("--out-depth")
    s.add_argument("--out-feature")
    s.add_argument("--preview", help="grayscale depth preview (PGM)")
    s.set_defaults(func=cmd_render)

    s = sub.add_parser("voxelize", parents=[common],
                       help="accumulate the scene into an occupancy grid")
    s.add_argument("--scene", required=True)
    s.add_argument("--bank", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--origin", required=True, help="x,y,z of the low corner")
    s.add_argument("--dims", required=True, help="nx,ny,nz voxel counts")
    s.add_argument("--voxel-size", type=float, default=GridSpec.voxel_size)
    s.add_argument("--tau", type=float, default=TAU_OCC)
    s.add_argument("--cutoff", type=float, default=DEFAULT_CUTOFF)
    s.add_argument("--no-cutoff", action="store_true")
    s.set_defaults(func=cmd_voxelize)

    s = sub.add_parser("retrieve", parents=[common],
                       help="score text classes at query points")
    s.add_argument("--scene", required=True)
    s.add_argument("--bank", required=True)
    s.add_argument("--points", required=True, help="PNTS file or x y z text")
    s.add_argument("--out", help="write the score table to this JSON file")
    s.add_argument("--cutoff", type=float, default=DEFAULT_CUTOFF)
    s.add_argument("--no-cutoff", action="store_true")
    s.set_defaults(func=cmd_retrieve)

    s = sub.add_parser("loss", parents=[common],
                       help="loss breakdown of a scene against its rig")
    s.add_argument("--rig", required=True)
    s.add_argument("--scene", required=True)
    s.set_defaults(func=cmd_loss)

    s = sub.add_parser("eval-miou", parents=[common],
                       help="mean IoU between two voxel grids")
    s.add_argument("--pred", required=True)
    s.add_argument("--gt", required=True)
    s.set_defaults(func=cmd_eval_miou)

    s = sub.add_parser("eval-map", parents=[common],
                       help="retrieval mean average precision at GT voxels")
    s.add_argument("--scene", required=True)
    s.add_argument("--bank", required=True)
    s.add_argument("--gt", required=True)
    s.add_argument("--rig", help="restrict to camera-visible points")
    s.add_argument("--cutoff", type=float, default=DEFAULT_CUTOFF)
    s.set_defaults(func=cmd_eval_map)

    s = sub.add_parser("pipeline", parents=[seeded],
                       help="run configured stages end to end")
    s.add_argument("--config", help="PipelineConfig JSON file")
    s.add_argument("--stages", help="comma-separated stage list override")
    s.add_argument("--out", help="artifact directory")
    s.set_defaults(func=cmd_pipeline)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NumericalDegeneracyError as e:
        print(f"fgs: numerical degeneracy: {e}", file=sys.stderr)
        return 3
    except FormatError as e:
        print(f"fgs: format error: {e}", file=sys.stderr)
        return 4
    except InvalidInputError as e:
        print(f"fgs: invalid input: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"fgs: i/o error: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
