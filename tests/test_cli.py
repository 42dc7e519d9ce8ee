"""Command-line interface tests: every subcommand, exit codes, global flags.

The parser is driven in-process through `main(argv)`, which returns the
exit code instead of calling sys.exit, so each test asserts the code
directly and parses the JSON summary from captured stdout.  Exit codes:
0 success, 2 invalid input, 3 numerical degeneracy, 4 I/O or file-format
failure.

The shared fixture directory is synthesized once with a small spec (5
views of 36 x 48, 250 Gaussians) and reused read-only across tests; each
test writes its own outputs into its function-scoped tmp_path.
"""

from __future__ import annotations

import argparse
import json
import struct
from dataclasses import replace

import numpy as np
import pytest

from fgs.cli import build_parser, main
from fgs.core import Z_NEAR, CameraView, GaussianScene
from fgs.errors import InvalidInputError
from fgs.io import (load_bank, load_depth_plane, load_plane, load_rig,
                    load_scene, load_voxel_grid, save_plane, save_points,
                    save_rig, save_scene)
from fgs.sampling import OCCLUSION_MARGIN, refine_scene
from fgs.synth import Primitive, RigSpec, RingSpec, SynthSpec
from fgs.voxel import GridSpec


def _tiny_spec(seed=3):
    prims = [
        Primitive("box", "ground", (0.0, 0.0, 0.25), (4.0, 4.0, 0.5)),
        Primitive("box", "block", (0.8, 0.6, 0.8), (0.8, 0.8, 1.2)),
    ]
    rig = RigSpec(rings=[RingSpec(3, 2.6, 2.4, -55.0),
                         RingSpec(2, 3.2, 2.2, -35.0, 60.0)],
                  height=36, width=48, hfov_deg=70.0)
    return SynthSpec(seed=seed, feature_dim=8, primitives=prims, rig=rig,
                     grid=GridSpec(np.array([-2.4, -2.4, 0.0]), (6, 6, 3), 0.8),
                     n_gaussians=250, gaussian_scale=0.08)


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_fixture")
    spec_path = root / "spec_in.json"
    _tiny_spec().save(str(spec_path))
    out = root / "fix"
    assert main(["synth", "--spec", str(spec_path), "--out", str(out),
                 "--quiet"]) == 0
    return out


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out.strip() else None
    return code, payload, captured.err


# ---------------------------------------------------------------------------
# Fixture generation
# ---------------------------------------------------------------------------

def test_synth_writes_fixture_and_summary(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    _tiny_spec().save(str(spec_path))
    out = tmp_path / "fix"
    code, payload, _ = _run(capsys, ["synth", "--spec", str(spec_path),
                                     "--out", str(out)])
    assert code == 0
    assert payload["gaussians"] == 250
    assert payload["views"] == 5
    assert payload["occupied_voxels"] > 0
    assert payload["classes"] == ["ground", "block"]
    for name in ("scene.fgs", "rig.json", "gt.voxg", "bank.json", "spec.json"):
        assert (out / name).exists(), name


@pytest.mark.parametrize("extra", [["--seed", "-5"],
                                   ["--depth-noise=-1"], ["--depth-noise", "nan"],
                                   ["--depth-noise", "inf"],
                                   ["--pose-noise=-1"], ["--pose-noise", "nan"],
                                   ["--pose-noise", "inf"]],
                         ids=["negative_seed", "negative_depth_noise",
                              "nan_depth_noise", "inf_depth_noise",
                              "negative_pose_noise", "nan_pose_noise",
                              "inf_pose_noise"])
def test_synth_bad_seed_or_noise_exit_2(tmp_path, capsys, extra):
    out = tmp_path / "fix"
    code, payload, err = _run(capsys, ["synth", "--out", str(out), *extra])
    assert code == 2 and payload is None
    assert "invalid input" in err
    assert not out.exists()


def _spec_json(**changes) -> str:
    """The tiny spec's JSON with some fields changed, which may be values
    SynthSpec itself refuses."""
    return json.dumps({**_tiny_spec().to_dict(), **changes})


def test_synth_spec_with_negative_seed_exit_2(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(_spec_json(seed=-1))
    code, _, err = _run(capsys, ["synth", "--spec", str(spec_path),
                                 "--out", str(tmp_path / "fix")])
    assert code == 2 and "seed" in err


@pytest.mark.parametrize("n, code", [(-5, 2), (0, 0)], ids=["negative", "zero"])
def test_synth_spec_gaussian_count(tmp_path, capsys, n, code):
    """A negative count is invalid input; zero gives an empty ground-truth scene."""
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(_spec_json(n_gaussians=n))
    out = tmp_path / "fix"
    got, payload, err = _run(capsys, ["synth", "--spec", str(spec_path),
                                      "--out", str(out)])
    assert got == code
    if code:
        assert payload is None and "n_gaussians" in err and not out.exists()
    else:
        assert payload["gaussians"] == 0 and len(load_scene(str(out / "scene.fgs"))) == 0


# ---------------------------------------------------------------------------
# Layer growth: init -> densify
# ---------------------------------------------------------------------------

def test_init_then_densify(fixture_dir, tmp_path, capsys):
    rig = str(fixture_dir / "rig.json")
    base = tmp_path / "base.fgs"
    code, payload, _ = _run(capsys, ["init", "--rig", rig,
                                     "--out", str(base), "--count", "80"])
    assert code == 0 and payload["count"] == 80
    scene = load_scene(str(base))
    assert len(scene) == 80 and scene.layer_offsets == (80,)

    grown_path = tmp_path / "grown.fgs"
    code, payload, _ = _run(capsys, ["densify", "--rig", rig,
                                     "--scene", str(base),
                                     "--out", str(grown_path),
                                     "--budget", "40"])
    assert code == 0
    assert payload["layer"] == 1
    assert 0 < payload["added_count"] <= 40
    assert len(payload["selected_pixels_per_view"]) == 5
    assert payload["residual_after"] < payload["residual_before"]
    grown = load_scene(str(grown_path))
    assert grown.layer_offsets == (80, 80 + payload["added_count"])


def test_densify_renders_geometry_only(fixture_dir, tmp_path, monkeypatch,
                                      capsys):
    """densify reads only depth and validity from its renders: both the
    selection renders inside densify_layer and the residual renders of the
    grown scene take the scene's feature-free geometry view.  The residual
    renders are of the views with a selected pixel, at those pixels only."""
    import fgs.cli
    import fgs.densify
    from fgs.raster import render
    rig, base = str(fixture_dir / "rig.json"), str(tmp_path / "base.fgs")
    assert main(["init", "--rig", rig, "--out", base, "--count", "80",
                 "--quiet"]) == 0
    calls = {}

    def recording(name):
        def wrapped(scene, cam, *args, **kwargs):
            calls.setdefault(name, []).append((scene.feature_dim,
                                               kwargs.get("mask") is not None))
            return render(scene, cam, *args, **kwargs)
        return wrapped
    for mod in (fgs.cli, fgs.densify):
        monkeypatch.setattr(mod, "render", recording(mod.__name__))
    code, payload, _ = _run(capsys, ["densify", "--rig", rig, "--scene", base,
                                     "--budget", "40",
                                     "--out", str(tmp_path / "grown.fgs")])
    assert code == 0
    touched = sum(n > 0 for n in payload["selected_pixels_per_view"])
    assert 0 < touched <= 5
    assert calls == {"fgs.densify": [(0, False)] * 5 + [(0, True)] * touched}


def test_densify_residual_after_is_that_of_full_renders(fixture_dir, tmp_path,
                                                        capsys):
    """The residual of the grown scene as written, read from renders of the
    selected tiles only, equals the one over full renders of every view of
    that float32 file, exactly."""
    from fgs.densify import select_under_represented, selection_residual
    from fgs.raster import render
    rig, base = str(fixture_dir / "rig.json"), str(tmp_path / "base.fgs")
    assert main(["init", "--rig", rig, "--out", base, "--count", "80",
                 "--quiet"]) == 0
    out = tmp_path / "grown.fgs"
    code, payload, _ = _run(capsys, ["densify", "--rig", rig, "--scene", base,
                                     "--budget", "40", "--out", str(out)])
    assert code == 0
    views = load_rig(rig)
    before = load_scene(base).geometry()
    selected = [select_under_represented(render(before, v), v.ref_depth,
                                         v.ref_valid) for v in views]
    grown = load_scene(str(out)).geometry()
    full = selection_residual([render(grown, v) for v in views], views,
                              selected)
    assert np.isfinite(full) and payload["residual_after"] == full
    assert payload["residual_after"] < payload["residual_before"]


def test_init_seeds_no_gaussian_at_a_camera_from_zero_filled_depth(
        fixture_dir, tmp_path, capsys):
    """A depth plane written with `save_plane` whose writer filled missing
    pixels with 0 (the loaded planes already hold 0 there) and put 0.0 and
    0.05 at view 0's first two pixels.  Pixel (0, 0) would be the pseudo
    cloud's point 0, the camera centre, and FPS always picks point 0."""
    views = load_rig(fixture_dir / "rig.json")
    rig = tmp_path / "rig.json"
    save_rig(rig, views)
    depth = views[0].ref_depth.copy()
    depth[0, 0], depth[0, 1] = 0.0, 0.05
    save_plane(tmp_path / "view000_depth.plne", depth)
    out = tmp_path / "base.fgs"
    code, _, _ = _run(capsys, ["init", "--rig", str(rig), "--out", str(out),
                               "--count", "80"])
    assert code == 0
    mu = load_scene(str(out)).mu
    for v in views:
        assert np.linalg.norm(mu - v.center, axis=1).min() > Z_NEAR


def test_mixed_feature_widths_refused_by_init_and_densify(fixture_dir, tmp_path,
                                                           capsys):
    views = load_rig(fixture_dir / "rig.json")
    views[1] = replace(views[1], ref_feature=views[1].ref_feature[:, :, :4])
    rig = str(tmp_path / "rig.json")
    save_rig(rig, views)
    for argv in (["init", "--rig", rig, "--count", "80"],
                 ["densify", "--rig", rig,
                  "--scene", str(fixture_dir / "scene.fgs")]):
        out = tmp_path / f"{argv[0]}.fgs"
        code, payload, err = _run(capsys, argv + ["--out", str(out)])
        assert code == 2 and payload is None, argv[0]
        assert "disagree on feature dimension: [4, 8]" in err
        assert not out.exists()


def _narrow_scene(path):
    """A 20-Gaussian scene whose features are 3 wide."""
    rng = np.random.default_rng(0)
    save_scene(str(path), GaussianScene(
        rng.uniform(-1.0, 1.0, (20, 3)), np.full((20, 3), 0.1),
        np.tile([1.0, 0.0, 0.0, 0.0], (20, 1)), np.full(20, 0.5),
        np.zeros((20, 3))))
    return str(path)


def test_densify_rig_of_other_feature_width_exit_2(fixture_dir, tmp_path,
                                                   capsys):
    """The rig's planes are 8 wide; a 3-wide scene cannot grow from them."""
    out = tmp_path / "grown.fgs"
    code, payload, err = _run(capsys, [
        "densify", "--rig", str(fixture_dir / "rig.json"),
        "--scene", _narrow_scene(tmp_path / "narrow.fgs"), "--out", str(out)])
    assert code == 2 and payload is None and "invalid input" in err
    assert not out.exists()


def test_densify_rig_without_feature_planes_keeps_the_scene_width(
        fixture_dir, tmp_path, capsys):
    """With no feature plane in the rig, the new rows take the scene's width."""
    rig = str(fixture_dir / "rig.json")
    base = tmp_path / "base.fgs"
    assert main(["init", "--rig", rig, "--out", str(base), "--count", "80",
                 "--quiet"]) == 0
    bare = str(tmp_path / "bare.json")
    save_rig(bare, [replace(v, ref_feature=None) for v in load_rig(rig)])
    out = tmp_path / "grown.fgs"
    code, payload, _ = _run(capsys, ["densify", "--rig", bare, "--scene",
                                     str(base), "--out", str(out),
                                     "--budget", "40"])
    assert code == 0 and payload["added_count"] > 0
    grown = load_scene(str(out))
    assert grown.feature.shape == (80 + payload["added_count"], 8)


@pytest.mark.parametrize("flag", ["--budget=0", "--budget=-1", "--gamma=0",
                                  "--gamma=-0.2", "--gamma=nan", "--gamma=inf"])
def test_densify_bad_budget_or_gamma_exit_2(fixture_dir, tmp_path, capsys,
                                            monkeypatch, flag):
    """Refused before the first selection render."""
    monkeypatch.setattr("fgs.densify.render",
                        lambda *a: pytest.fail("densify rendered"))
    out = tmp_path / "grown.fgs"
    code, payload, err = _run(capsys, ["densify", "--rig", str(fixture_dir / "rig.json"),
                                       "--scene", str(fixture_dir / "scene.fgs"),
                                       "--out", str(out), flag])
    assert code == 2 and payload is None and "invalid input" in err
    assert not out.exists()


# ---------------------------------------------------------------------------
# Refinement
# ---------------------------------------------------------------------------

def test_refine_resamples_features_and_keeps_geometry(fixture_dir, tmp_path,
                                                     capsys):
    out = tmp_path / "refined.fgs"
    code, payload, _ = _run(capsys, ["refine",
                                     "--rig", str(fixture_dir / "rig.json"),
                                     "--scene", str(fixture_dir / "scene.fgs"),
                                     "--out", str(out)])
    assert code == 0
    assert payload == {"out": str(out), "count": 250}
    before = load_scene(str(fixture_dir / "scene.fgs"))
    after = load_scene(str(out))
    np.testing.assert_array_equal(after.mu, before.mu)   # geometry untouched
    assert np.any(after.feature != before.feature)       # features resampled


def test_refine_gates_occlusion_as_the_pipeline_does(fixture_dir, tmp_path, capsys):
    """Without `--occlusion-margin`, `fgs refine` gates occluded samples by
    the pipeline's margin: its scene file holds the bytes that
    `refine_scene(..., occlusion_margin=OCCLUSION_MARGIN)` saves, and on this
    fixture the gate changes features."""
    out = tmp_path / "cli.fgs"
    code, _, _ = _run(capsys, ["refine", "--rig", str(fixture_dir / "rig.json"),
                               "--scene", str(fixture_dir / "scene.fgs"),
                               "--out", str(out)])
    assert code == 0
    views = load_rig(str(fixture_dir / "rig.json"))
    scene = load_scene(str(fixture_dir / "scene.fgs"))
    gated = refine_scene(scene, views, occlusion_margin=OCCLUSION_MARGIN)
    save_scene(str(tmp_path / "api.fgs"), gated)
    assert out.read_bytes() == (tmp_path / "api.fgs").read_bytes()
    ungated = refine_scene(scene, views, occlusion_margin=None)
    assert np.any(ungated.feature != gated.feature)


def test_refine_scene_of_other_feature_width_exit_2(fixture_dir, tmp_path,
                                                    capsys):
    """The rig's planes are 8 wide; a 3-wide scene cannot take them."""
    scene = _narrow_scene(tmp_path / "narrow.fgs")
    code, _, err = _run(capsys, ["refine", "--rig", str(fixture_dir / "rig.json"),
                                 "--scene", scene,
                                 "--out", str(tmp_path / "r.fgs")])
    assert code == 2 and "3" in err and "8" in err


def test_refine_heads_flag_is_an_argument_error(fixture_dir, tmp_path, capsys):
    """Refine has no decode heads: a command line that names a head file is
    refused, not run as a plain refine."""
    out = tmp_path / "r.fgs"
    with pytest.raises(SystemExit) as exc:
        main(["refine", "--rig", str(fixture_dir / "rig.json"),
              "--scene", str(fixture_dir / "scene.fgs"), "--out", str(out),
              "--heads", str(tmp_path / "h.head")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --heads" in capsys.readouterr().err
    assert not out.exists()


# a negative margin, too, is refused: it would drop the samples lying on
# the visible surface
@pytest.mark.parametrize("margin", ["nan", "inf", "-inf", "-1", "-1e-9"])
def test_refine_non_finite_occlusion_margin_exit_2(fixture_dir, tmp_path,
                                                   capsys, margin):
    code, _, err = _run(capsys, ["refine", "--rig", str(fixture_dir / "rig.json"),
                                 "--scene", str(fixture_dir / "scene.fgs"),
                                 "--out", str(tmp_path / "r.fgs"),
                                 f"--occlusion-margin={margin}"])
    assert code == 2 and "occlusion margin" in err


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def test_render_writes_planes_and_preview(fixture_dir, tmp_path, capsys):
    depth_path = tmp_path / "d.plne"
    feat_path = tmp_path / "f.plne"
    pgm_path = tmp_path / "p.pgm"
    code, payload, _ = _run(capsys, ["render",
                                     "--rig", str(fixture_dir / "rig.json"),
                                     "--scene", str(fixture_dir / "scene.fgs"),
                                     "--view", "0",
                                     "--out-depth", str(depth_path),
                                     "--out-feature", str(feat_path),
                                     "--preview", str(pgm_path)])
    assert code == 0
    assert payload["valid_pixels"] > 0
    depth, valid = load_depth_plane(str(depth_path))
    assert depth.shape == (36, 48)
    assert int(valid.sum()) == payload["valid_pixels"]
    assert load_plane(str(feat_path)).shape == (36, 48, 8)
    assert pgm_path.read_bytes().startswith(b"P5\n48 36\n255\n")


def _recording_render(monkeypatch):
    """The feature widths of the scenes `fgs.cli` renders from now on."""
    import fgs.cli
    from fgs.raster import render
    widths = []

    def recording(scene, cam, *args, **kwargs):
        widths.append(scene.feature_dim)
        return render(scene, cam, *args, **kwargs)
    monkeypatch.setattr(fgs.cli, "render", recording)
    return widths


def test_render_without_feature_plane_renders_geometry_only(fixture_dir, tmp_path,
                                                            monkeypatch):
    """Only --out-feature reads the rendered features: without it `fgs
    render` renders the scene's geometry view, and the depth plane it
    writes is byte-identical."""
    widths = _recording_render(monkeypatch)
    argv = ["render", "--rig", str(fixture_dir / "rig.json"),
            "--scene", str(fixture_dir / "scene.fgs"), "--view", "2", "--quiet"]
    with_feature, without = tmp_path / "with.plne", tmp_path / "without.plne"
    assert main(argv + ["--out-depth", str(with_feature),
                        "--out-feature", str(tmp_path / "f.plne")]) == 0
    assert main(argv + ["--out-depth", str(without),
                        "--preview", str(tmp_path / "p.pgm")]) == 0
    assert widths == [8, 0]
    assert with_feature.read_bytes() == without.read_bytes()


def test_loss_renders_geometry_only_for_views_without_features(fixture_dir, tmp_path,
                                                               capsys, monkeypatch):
    """A view with no reference feature plane reads no rendered one, so `fgs
    loss` renders the scene's geometry view for it; the breakdown equals
    the one from full renders of every view."""
    doc = json.loads((fixture_dir / "rig.json").read_text())
    for i, view in enumerate(doc["views"]):
        view["depth"] = str(fixture_dir / view["depth"])
        feature = view.pop("feature")
        if i in (0, 3):
            view["feature"] = str(fixture_dir / feature)
    rig = tmp_path / "rig.json"
    rig.write_text(json.dumps(doc))
    argv = ["loss", "--rig", str(rig), "--scene", str(fixture_dir / "scene.fgs")]
    widths = _recording_render(monkeypatch)
    code, payload, _ = _run(capsys, argv)
    assert code == 0 and widths == [8, 0, 0, 8, 0]
    monkeypatch.setattr(GaussianScene, "geometry", lambda self: self)
    code, full, _ = _run(capsys, argv)
    assert code == 0 and widths[5:] == [8] * 5
    assert payload == full and payload["views_used"] == 5


def test_render_singular_footprint_exit_3(tmp_path, capsys):
    """A needle 1e8 m long and 1e-3 m thin, turned 45 degrees about the
    optical axis at z = 5: its footprint's det rounds to 0."""
    turn = np.pi / 8
    scene, rig = tmp_path / "needle.fgs", tmp_path / "rig.json"
    save_scene(str(scene), GaussianScene(
        np.array([[0.0, 0.0, 5.0]]), np.array([[1e8, 1e-3, 1e-3]]),
        np.array([[np.cos(turn), 0.0, 0.0, np.sin(turn)]]), np.array([0.5]),
        np.zeros((1, 2))))
    save_rig(str(rig), [CameraView(fx=40.0, fy=40.0, cx=23.0, cy=16.0, width=47, height=33)])
    code, payload, err = _run(capsys, ["render", "--rig", str(rig), "--scene", str(scene)])
    assert code == 3 and payload is None
    assert "numerical degeneracy" in err


def test_render_view_out_of_range_exit_2(fixture_dir, tmp_path, capsys):
    code, _, err = _run(capsys, ["render",
                                 "--rig", str(fixture_dir / "rig.json"),
                                 "--scene", str(fixture_dir / "scene.fgs"),
                                 "--view", "99"])
    assert code == 2
    assert "invalid input" in err and "out of range" in err


# ---------------------------------------------------------------------------
# Voxelization and metrics
# ---------------------------------------------------------------------------

def test_voxelize_then_eval_miou(fixture_dir, tmp_path, capsys):
    pred_path = tmp_path / "pred.voxg"
    code, payload, _ = _run(capsys, ["voxelize",
                                     "--scene", str(fixture_dir / "scene.fgs"),
                                     "--bank", str(fixture_dir / "bank.json"),
                                     "--out", str(pred_path),
                                     "--origin=-2.4,-2.4,0",
                                     "--dims", "6,6,3",
                                     "--voxel-size", "0.8"])
    assert code == 0
    assert payload["dims"] == [6, 6, 3]
    assert 0 < payload["occupied"] <= 6 * 6 * 3
    assert int(load_voxel_grid(str(pred_path)).occupied.sum()) == payload["occupied"]

    code, payload, _ = _run(capsys, ["eval-miou", "--pred", str(pred_path),
                                     "--gt", str(fixture_dir / "gt.voxg")])
    assert code == 0
    assert 0.0 <= payload["miou"] <= 1.0
    assert set(payload["per_class"]) == {str(c) for c in
                                         payload["evaluated_classes"]}


@pytest.mark.parametrize("origin,size", [("-2.4,-2.4,0", "0.4"), ("0,0,0", "0.8")],
                         ids=["voxel_size", "origin"])
def test_eval_miou_grid_of_other_voxels_exit_2(fixture_dir, tmp_path, capsys,
                                               origin, size):
    """A prediction with the ground truth's dims but other voxels is
    refused, not scored."""
    pred_path = tmp_path / "pred.voxg"
    code, _, _ = _run(capsys, ["voxelize",
                               "--scene", str(fixture_dir / "scene.fgs"),
                               "--bank", str(fixture_dir / "bank.json"),
                               "--out", str(pred_path), f"--origin={origin}",
                               "--dims", "6,6,3", "--voxel-size", size])
    assert code == 0
    code, payload, err = _run(capsys, ["eval-miou", "--pred", str(pred_path),
                                       "--gt", str(fixture_dir / "gt.voxg")])
    assert code == 2 and payload is None
    assert "invalid input" in err and "origin or voxel size" in err


def test_voxelize_bad_dims_exit_2(fixture_dir, tmp_path, capsys):
    for origin, dims in (("0,0,0", "6,6"), ("a,b,c", "6,6,3"),
                         ("0,0,0", "4,4,x")):
        code, _, err = _run(capsys, ["voxelize",
                                     "--scene", str(fixture_dir / "scene.fgs"),
                                     "--bank", str(fixture_dir / "bank.json"),
                                     "--out", str(tmp_path / "p.voxg"),
                                     "--origin", origin, "--dims", dims])
        assert code == 2, (origin, dims)
        assert "invalid input" in err


@pytest.mark.parametrize("extra", [
    ["--origin=nan,-4,0"], ["--origin=0,inf,0"], ["--voxel-size", "nan"],
    ["--voxel-size", "inf"], ["--cutoff=-1"], ["--cutoff", "0"],
    ["--cutoff", "nan"], ["--cutoff", "inf"], ["--tau", "nan"],
    ["--tau", "inf"], ["--tau=-inf"],
], ids=["nan_origin", "inf_origin", "nan_voxel_size", "inf_voxel_size",
        "negative_cutoff", "zero_cutoff", "nan_cutoff", "inf_cutoff", "nan_tau",
        "inf_tau", "negative_inf_tau"])
def test_voxelize_non_finite_grid_or_bad_cutoff_exit_2(fixture_dir, tmp_path,
                                                       capsys, extra):
    out = tmp_path / "p.voxg"
    code, _, err = _run(capsys, ["voxelize",
                                 "--scene", str(fixture_dir / "scene.fgs"),
                                 "--bank", str(fixture_dir / "bank.json"),
                                 "--out", str(out), "--origin=-2.4,-2.4,0",
                                 "--dims", "6,6,3", *extra])
    assert code == 2 and "invalid input" in err
    assert not out.exists()


def test_retrieve_scores_points(fixture_dir, tmp_path, capsys):
    pts = tmp_path / "pts.txt"
    pts.write_text("0 0 0.4\n0.8 0.6 0.8\n")
    code, payload, _ = _run(capsys, ["retrieve",
                                     "--scene", str(fixture_dir / "scene.fgs"),
                                     "--bank", str(fixture_dir / "bank.json"),
                                     "--points", str(pts)])
    assert code == 0
    assert payload["points"] == 2
    assert payload["classes"] == ["ground", "block", "empty"]
    assert len(payload["best_class"]) == 2
    assert all(len(v) == 2 for v in payload["scores"].values())

    out = tmp_path / "scores.json"
    code, payload, _ = _run(capsys, ["retrieve",
                                     "--scene", str(fixture_dir / "scene.fgs"),
                                     "--bank", str(fixture_dir / "bank.json"),
                                     "--points", str(pts), "--out", str(out)])
    assert code == 0 and payload == {"out": str(out), "points": 2}
    assert json.loads(out.read_text())["points"] == 2


def test_retrieve_non_finite_point_exit_2(fixture_dir, tmp_path, capsys):
    pts = tmp_path / "pts.txt"
    pts.write_text("0 0 0.4\nnan 0 1\n")
    code, payload, err = _run(capsys, ["retrieve",
                                       "--scene", str(fixture_dir / "scene.fgs"),
                                       "--bank", str(fixture_dir / "bank.json"),
                                       "--points", str(pts)])
    assert code == 2 and payload is None
    assert "invalid input" in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text", ["", "# x y z\n", "\n  \n",
                                  pytest.param(None, id="pnts_count_0")])
def test_retrieve_points_text_without_rows_exit_4(fixture_dir, tmp_path, capsys,
                                                  text):
    """XYZ text with no rows, and (`None`) a PNTS binary of count 0."""
    pts = tmp_path / "pts.txt"
    if text is None:
        save_points(str(pts), np.zeros((0, 3)))
    else:
        pts.write_text(text)
    code, payload, err = _run(capsys, ["retrieve",
                                       "--scene", str(fixture_dir / "scene.fgs"),
                                       "--bank", str(fixture_dir / "bank.json"),
                                       "--points", str(pts)])
    assert code == 4 and payload is None
    assert "holds no points" in err and "Warning" not in err


def test_loss_breakdown(fixture_dir, capsys):
    code, payload, _ = _run(capsys, ["loss",
                                     "--rig", str(fixture_dir / "rig.json"),
                                     "--scene", str(fixture_dir / "scene.fgs")])
    assert code == 0
    for key in ("l1", "silog", "temporal", "cos", "mse",
                "depth_group", "feat_group", "total"):
        assert key in payload, key
    assert payload["views_used"] == 5
    assert payload["temporal_available"] is False
    assert payload["total"] >= 0.0


def test_eval_map(fixture_dir, capsys):
    argv = ["eval-map", "--scene", str(fixture_dir / "scene.fgs"),
            "--bank", str(fixture_dir / "bank.json"),
            "--gt", str(fixture_dir / "gt.voxg")]
    code, payload, _ = _run(capsys, argv)
    assert code == 0
    assert 0.0 <= payload["map"] <= 1.0
    assert set(payload["per_class"]) <= {"ground", "block"}
    assert payload["points"] > 0
    assert payload["visible_points"] is None

    code, payload, _ = _run(capsys, argv + ["--rig",
                                            str(fixture_dir / "rig.json")])
    assert code == 0
    assert 0 <= payload["visible_points"] <= payload["points"]


@pytest.mark.parametrize("offset, value", [(28, np.nan), (28, np.inf), (28, -0.8),
                                           (16, np.nan), (24, np.inf)],
                         ids=["nan_voxel_size", "inf_voxel_size",
                              "negative_voxel_size", "nan_origin", "inf_origin"])
def test_grid_with_bad_geometry_exit_4(fixture_dir, tmp_path, capsys, offset, value):
    data = bytearray((fixture_dir / "gt.voxg").read_bytes())
    data[offset:offset + 4] = struct.pack("<f", value)
    bad = tmp_path / "bad.voxg"
    bad.write_bytes(bytes(data))
    for argv in (["eval-map", "--scene", str(fixture_dir / "scene.fgs"),
                  "--bank", str(fixture_dir / "bank.json"), "--gt", str(bad)],
                 ["eval-miou", "--pred", str(bad),
                  "--gt", str(fixture_dir / "gt.voxg")]):
        code, payload, err = _run(capsys, argv)
        assert code == 4 and payload is None, argv[0]
        assert "format error" in err


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------

def test_pipeline_from_config_with_stage_override(tmp_path, capsys):
    cfg = {"spec": _tiny_spec().to_dict(), "base_count": 60,
           "stages": ["synth", "init", "densify", "refine"]}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "run"
    code, payload, _ = _run(capsys, ["pipeline", "--config", str(cfg_path),
                                     "--out", str(out),
                                     "--stages", "synth,init",
                                     "--seed", "7"])
    assert code == 0
    assert [e["name"] for e in payload["stages"]] == ["synth", "init"]
    assert payload["seed"] == 7
    assert (out / "report.json").exists() and (out / "scene.fgs").exists()
    assert len(load_scene(str(out / "scene.fgs"))) == 60


@pytest.mark.parametrize("key, value, message", [
    ("base_count", 0, "base count and layer budgets must be positive"),
    ("layer_budgets", [100, 0], "base count and layer budgets must be positive"),
])
def test_pipeline_bad_setting_refused_before_any_stage(tmp_path, capsys, key,
                                                       value, message):
    """Each stage's setting is checked when the config is built, even by a
    run that never reaches that stage."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"stages": ["synth"], key: value}))
    out = tmp_path / "run"
    code, payload, err = _run(capsys, ["pipeline", "--config", str(cfg_path),
                                       "--out", str(out)])
    assert code == 2 and payload is None
    assert message in err
    assert not out.exists()


def test_pipeline_bad_config_key_exit_2(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"stages": [], "sigma": 2.0}))
    code, _, err = _run(capsys, ["pipeline", "--config", str(cfg_path)])
    assert code == 2 and "unknown pipeline config" in err


_BOX = {"shape": "box", "class": "a", "center": [0, 0, 1], "size": [1, 1, 1]}
_RING = {"count": 2, "radius": 3, "height": 2, "pitch_deg": -30}
# Spec values that the spec's own types refuse (exit 2).  Each spec holds a
# primitive, so that a run without the checks reaches the rig and the box.
_SPEC_RANGE_CASES = {
    "infinite_yaw": {"primitives": [{**_BOX, "yaw": float("inf")}]},
    "infinite_box_size": {"primitives": [{**_BOX, "size": [float("inf"), 1, 1]}]},
    "infinite_pitch": {"primitives": [_BOX],
                       "rig": {"rings": [{**_RING, "pitch_deg": float("inf")}]}},
    "infinite_offset": {"primitives": [_BOX],
                        "rig": {"rings": [{**_RING, "offset_deg": -float("inf")}]}},
    "infinite_hfov": {"primitives": [_BOX], "rig": {"hfov_deg": float("inf")}},
    "zero_hfov": {"primitives": [_BOX], "rig": {"hfov_deg": 0}},
    "negative_ring_count": {"primitives": [_BOX], "rig": {"rings": [{**_RING, "count": -1}]}},
    "zero_width": {"primitives": [_BOX], "rig": {"width": 0}},
}


@pytest.mark.parametrize("text, code", [
    ("{bad", 4),
    ("[1]", 4),
    ('{"seed": "x"}', 4),
    ('{"spec": [1]}', 4),
    ('{"stages": ["synth"], "spec": {"primitives": [{"shape": "box"}]}}', 4),
    ('{"layer_budgets": 5}', 4),
    ('{"layer_budgets": "12"}', 4),
    ('{"layer_budgets": [1000]}', 2),
    ('{"layer_budgets": []}', 2),
    ('{"seed": 1.9}', 4),
    ('{"stages": ["eval"]}', 2),
    ('{"spec": {"primitives": [{"shape": "cone", "class": "a", '
     '"center": [0, 0, 0], "size": [1, 1, 1]}]}}', 2),
    ('{"spec": {"primitives": [{"shape": "box", "class": "a", '
     '"center": [0, 0, 0], "size": [1, 0, 1]}]}}', 2),
    ('{"threads": 2}', 2),
    ('{"heads": null}', 2),
    ('{"select_mode": "signed"}', 2),
    ('{"refine_which": "all"}', 2),
    ('{"gamma": 0.2}', 2),
    ('{"occlusion_margin": 0.3}', 2),
    ('{"tau_occ": 0.1}', 2),
    ('{"cutoff": 3.0}', 2),
    ('{"view_waves": [3, 2]}', 2),
    ('{"stages": [], "seed": -1}', 2),
    ('{"stages": [], "spec": {"depth_noise": -1}}', 2),
    *[(json.dumps({"stages": ["synth"], "spec": spec}), 2)
      for spec in _SPEC_RANGE_CASES.values()],
], ids=["invalid_json", "not_an_object", "string_seed", "spec_not_an_object",
        "primitive_without_class", "scalar_budgets", "string_budgets",
        "one_budget_two_densifies", "no_budget_two_densifies", "fractional_seed", "eval_without_voxelize", "spec_unknown_shape",
        "spec_flat_box", "threads_key", "heads_key", "select_mode_key",
        "refine_which_key", "gamma_key", "occlusion_margin_key", "tau_occ_key",
        "cutoff_key", "view_waves_key", "negative_seed_no_stages",
        "negative_depth_noise_no_stages", *_SPEC_RANGE_CASES])
def test_malformed_pipeline_config_exit_code(tmp_path, capsys, monkeypatch,
                                             text, code):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text)
    # each case fails before the first stage runs
    monkeypatch.setattr("fgs.pipeline.gen_scene",
                        lambda spec: pytest.fail("the synth stage ran"))
    # `--stages ""` empties the list, except where the config's own stage
    # list, or its budgets for the default one, is what is malformed
    no_stages = ([] if '"stages"' in text or '"layer_budgets"' in text
                 else ["--stages", ""])
    got, payload, err = _run(capsys, ["pipeline", "--config", str(cfg_path),
                                      *no_stages])
    assert got == code and payload is None
    assert ("format error" if code == 4 else "invalid input") in err


def test_pipeline_empty_stages_flag_runs_nothing(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"stages": ["synth"], "seed": 3}))
    code, payload, _ = _run(capsys, ["pipeline", "--config", str(cfg_path),
                                     "--stages", ""])
    assert code == 0
    assert payload["stages"] == [] and payload["seed"] == 3


@pytest.mark.parametrize("argv, config", [
    (["--seed", "-1"], {}),
    ([], {"seed": -2}),
], ids=["negative_seed_flag", "negative_seed_key"])
def test_pipeline_bad_seed_exit_2(tmp_path, capsys, argv, config):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"stages": ["synth", "init"], **config}))
    code, payload, err = _run(capsys, ["pipeline", "--config", str(cfg_path),
                                       *argv])
    assert code == 2 and payload is None
    assert "invalid input" in err


@pytest.mark.parametrize("text, code", [
    ("{bad", 4),
    ("[1]", 4),
    ('{"primitives": [{"shape": "box", "center": [0, 0, 0], '
     '"size": [1, 1, 1]}]}', 4),
    ('{"seed": "x"}', 4),
    ('{"rig": {"rings": [{"count": 2}]}}', 4),
    ('{"rig": {"rings": [{"count": 2.7, "radius": 1, "height": 1, '
     '"pitch_deg": 0}]}}', 4),
    ('{"primitives": [{"shape": "box", "class": "a", '
     '"center": ["0", "0", "0"], "size": [1, 1, 1]}]}', 4),
    ('{"primitives": [{"shape": "cone", "class": "a", "center": [0, 0, 0], '
     '"size": [1, 1, 1]}]}', 2),
    ('{"grid": {"origin": [0, 0, 0], "dims": [6, 6], "voxel_size": 0.5}}', 4),
    *[(json.dumps(spec), 2) for spec in _SPEC_RANGE_CASES.values()],
], ids=["invalid_json", "not_an_object", "primitive_without_class",
        "string_seed", "ring_without_radius", "fractional_ring_count",
        "string_center", "unknown_shape", "two_grid_dims", *_SPEC_RANGE_CASES])
def test_malformed_synth_spec_exit_code(tmp_path, capsys, text, code):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(text)
    got, payload, err = _run(capsys, ["synth", "--spec", str(spec_path),
                                      "--out", str(tmp_path / "out")])
    assert got == code and payload is None
    assert ("format error" if code == 4 else "invalid input") in err
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# Exit codes and global flags
# ---------------------------------------------------------------------------

def test_missing_file_exit_4(tmp_path, capsys):
    code, _, err = _run(capsys, ["init", "--rig", str(tmp_path / "no.json"),
                                 "--out", str(tmp_path / "s.fgs")])
    assert code == 4
    assert "i/o error" in err


def test_corrupt_scene_exit_4(fixture_dir, tmp_path, capsys):
    bad = tmp_path / "bad.fgs"
    bad.write_bytes(b"JUNKxxxxyyyyzzzz")
    code, _, err = _run(capsys, ["voxelize", "--scene", str(bad),
                                 "--bank", str(fixture_dir / "bank.json"),
                                 "--out", str(tmp_path / "p.voxg"),
                                 "--origin", "0,0,0", "--dims", "2,2,2"])
    assert code == 4
    assert "format error" in err


def test_oversized_scene_header_exit_4(fixture_dir, tmp_path, capsys):
    # magic, version 1, N = F = 2^32 - 1, one layer ending at 0: 24 bytes
    bad = tmp_path / "big.fgs"
    bad.write_bytes(b"FGSC" + struct.pack("<5I", 1, 2**32 - 1, 2**32 - 1, 1, 0))
    code, _, err = _run(capsys, ["eval-map", "--scene", str(bad),
                                 "--bank", str(fixture_dir / "bank.json"),
                                 "--gt", str(fixture_dir / "gt.voxg")])
    assert code == 4
    assert "format error" in err


@pytest.mark.parametrize("value", [np.nan, 2.0], ids=["nan_opacity", "opacity_2"])
def test_scene_failing_validation_exit_4(fixture_dir, tmp_path, capsys, value):
    """A scene file whose header and size are right but whose content fails
    the scene's own checks is a format error, as for a voxel grid."""
    data = bytearray((fixture_dir / "scene.fgs").read_bytes())
    _, n, fdim, layers = struct.unpack("<4I", data[4:20])
    assert n > 3
    at = 20 + 4 * layers + 4 * (3 * (11 + fdim) + 10)   # Gaussian 3's opacity
    data[at:at + 4] = struct.pack("<f", value)
    bad = tmp_path / "bad.fgs"
    bad.write_bytes(bytes(data))
    code, payload, err = _run(capsys, ["render", "--rig", str(fixture_dir / "rig.json"),
                                       "--scene", str(bad), "--view", "0"])
    assert code == 4 and payload is None
    assert "format error" in err and "opacit" in err


def _fixture_rig(fixture_dir, out, **view0):
    """The fixture rig, written to `out`, with view 0's fields `view0` replaced."""
    doc = json.loads((fixture_dir / "rig.json").read_text())
    for view in doc["views"]:
        for key in ("depth", "feature"):
            view[key] = str(fixture_dir / view[key])
    doc["views"][0].update(view0)
    out.write_text(json.dumps(doc))
    return str(out)


def _written(tmp_path, save, value) -> bytes:
    path = tmp_path / "valid.bin"
    save(str(path), value)
    return path.read_bytes()


# Per command: the valid file it reads, that file's header field offsets,
# the offset of its u32 count, and the command line for a copy at `bad`.
_BINARY_INPUTS = {
    "render_scene": (
        lambda fx, tmp: (fx / "scene.fgs").read_bytes(), (0, 4, 8, 12, 16, 20), 8,
        lambda fx, bad, tmp: ["render", "--rig", str(fx / "rig.json"),
                              "--scene", bad]),
    "eval_miou_pred": (
        lambda fx, tmp: (fx / "gt.voxg").read_bytes(), (0, 4, 16, 28, 32), 4,
        lambda fx, bad, tmp: ["eval-miou", "--pred", bad,
                              "--gt", str(fx / "gt.voxg")]),
    "init_rig_depth": (
        lambda fx, tmp: (fx / "view000_depth.plne").read_bytes(), (0, 4, 16), 4,
        lambda fx, bad, tmp: ["init", "--out", str(tmp / "s.fgs"), "--rig",
                              _fixture_rig(fx, tmp / "rig.json", depth=bad)]),
    "retrieve_points": (
        lambda fx, tmp: _written(tmp, save_points, np.ones((2, 3))), (0, 4, 8), 4,
        lambda fx, bad, tmp: ["retrieve", "--scene", str(fx / "scene.fgs"),
                              "--bank", str(fx / "bank.json"), "--points", bad]),
}


@pytest.mark.parametrize("command", sorted(_BINARY_INPUTS))
def test_damaged_binary_input_exit_code(fixture_dir, tmp_path, capsys, command):
    """A fixed set of damaged copies of the file the command reads: cut at
    each header field and two bytes into it, the first magic byte flipped,
    the count set to 2**32 - 1.  Each ends in a documented exit code."""
    valid, fields, count_at, argv = _BINARY_INPUTS[command]
    raw = valid(fixture_dir, tmp_path)
    damaged = {"flipped_magic": bytes([raw[0] ^ 0xFF]) + raw[1:],
               "huge_count": (raw[:count_at] + struct.pack("<I", 2**32 - 1)
                              + raw[count_at + 4:])}
    for at in fields:
        damaged[f"cut_at_{at}"] = raw[:at]
        damaged[f"cut_at_{at + 2}"] = raw[:at + 2]
    bad = tmp_path / "bad.bin"
    for name, data in damaged.items():
        bad.write_bytes(data)
        code, payload, _ = _run(capsys, argv(fixture_dir, str(bad), tmp_path))
        assert code in (2, 3, 4) and payload is None, name


_POSE = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]


@pytest.mark.parametrize("view, code", [
    ({"fx": "abc", "fy": 1, "cx": 0, "cy": 0, "width": 2, "height": 2,
      "pose": _POSE}, 4),
    ("view0", 4),
    ({"fx": 1, "fy": 1, "cx": 0, "cy": 0, "width": float("inf"),
      "height": 2, "pose": _POSE}, 4),
    ({"fx": "1.5", "fy": 1, "cx": 0, "cy": 0, "width": 2, "height": 2,
      "pose": _POSE}, 4),
    ({"fx": 1, "fy": 1, "cx": 0, "cy": 0, "width": 2.5, "height": 2,
      "pose": _POSE}, 4),
    ({"fx": 0, "fy": 1, "cx": 0, "cy": 0, "width": 2, "height": 2,
      "pose": _POSE}, 2),
    ({"fx": 1, "fy": float("nan"), "cx": 0, "cy": 0, "width": 2, "height": 2,
      "pose": _POSE}, 2),
    ({"fx": 1, "fy": 1, "cx": 0, "cy": float("-inf"), "width": 2, "height": 2,
      "pose": _POSE}, 2),
], ids=["non_numeric_fx", "view_not_an_object", "infinite_width",
        "numeric_string_fx", "fractional_width", "zero_fx", "nan_fy",
        "infinite_cy"])
def test_malformed_rig_view_exit_code(tmp_path, capsys, view, code):
    rig = tmp_path / "rig.json"
    rig.write_text(json.dumps({"views": [view]}))
    got, _, err = _run(capsys, ["init", "--rig", str(rig),
                                "--out", str(tmp_path / "s.fgs")])
    assert got == code
    assert ("format error" if code == 4 else "invalid input") in err


@pytest.mark.parametrize("command, field", [
    ("init", {"cx": float("nan")}), ("render", {"cx": float("nan")}),
    ("loss", {"cx": float("nan")}), ("refine", {"fx": float("inf")})],
    ids=["init_nan_cx", "render_nan_cx", "loss_nan_cx", "refine_infinite_fx"])
def test_non_finite_intrinsics_exit_2(fixture_dir, tmp_path, capsys, command, field):
    """JSON's NaN and Infinity in one view's intrinsics are invalid input,
    not a view that renders nothing or is silently dropped."""
    scene = str(fixture_dir / "scene.fgs")
    argv = {"init": ["--out", str(tmp_path / "s.fgs")],
            "render": ["--scene", scene, "--view", "0"],
            "loss": ["--scene", scene],
            "refine": ["--scene", scene, "--out", str(tmp_path / "r.fgs")]}[command]
    rig = _fixture_rig(fixture_dir, tmp_path / "rig.json", **field)
    code, payload, err = _run(capsys, [command, "--rig", rig] + argv)
    assert code == 2 and payload is None
    assert "invalid input" in err and "must be" in err


def test_loss_non_finite_feature_plane_exit_2(fixture_dir, tmp_path, capsys):
    """One NaN in view 0's reference feature plane is invalid input, not a
    loss that prints null."""
    doc = json.loads((fixture_dir / "rig.json").read_text())
    plane = load_plane(fixture_dir / doc["views"][0]["feature"]).copy()
    plane[10, 10, 0] = np.nan
    save_plane(tmp_path / "feature0.plne", plane)
    rig = _fixture_rig(fixture_dir, tmp_path / "rig.json",
                       feature=str(tmp_path / "feature0.plne"))
    code, payload, err = _run(capsys, ["loss", "--rig", rig,
                                       "--scene", str(fixture_dir / "scene.fgs")])
    assert code == 2 and payload is None
    assert "invalid input" in err and "ref_feature" in err


def _fixture_bank_doc(fixture_dir):
    doc = json.loads((fixture_dir / "bank.json").read_text())
    for entry in doc["classes"]:
        entry["embedding_path"] = str(fixture_dir / entry["embedding_path"])
    return doc


def test_bank_with_non_finite_embedding_refused(fixture_dir, tmp_path, capsys):
    """One NaN in class 0's embeddings is invalid input, not a class that
    scores lower."""
    doc = _fixture_bank_doc(fixture_dir)
    plane = np.atleast_2d(load_plane(doc["classes"][0]["embedding_path"])).copy()
    plane[0, 0] = np.nan
    doc["classes"][0]["embedding_path"] = str(tmp_path / "class0.plne")
    save_plane(doc["classes"][0]["embedding_path"], plane)
    bank = tmp_path / "bank.json"
    bank.write_text(json.dumps(doc))
    with pytest.raises(InvalidInputError, match="non-finite embedding"):
        load_bank(bank)
    scene, gt = str(fixture_dir / "scene.fgs"), str(fixture_dir / "gt.voxg")
    for argv in (["voxelize", "--scene", scene, "--bank", str(bank),
                  "--out", str(tmp_path / "pred.voxg"), "--origin=-2.4,-2.4,0",
                  "--dims", "6,6,3"],
                 ["eval-map", "--scene", scene, "--bank", str(bank), "--gt", gt]):
        code, payload, err = _run(capsys, argv)
        assert code == 2 and payload is None, argv[0]
        assert "non-finite embedding" in err


def test_bank_with_embeddings_not_a_matrix_refused(fixture_dir, tmp_path, capsys):
    """Class 0's embeddings stored as a (1, F, 3) plane are invalid input
    when the bank is read, before any command scores them."""
    doc = _fixture_bank_doc(fixture_dir)
    plane = np.atleast_2d(load_plane(doc["classes"][0]["embedding_path"]))
    doc["classes"][0]["embedding_path"] = str(tmp_path / "class0.plne")
    save_plane(doc["classes"][0]["embedding_path"],
               np.repeat(plane[:, :, None], 3, axis=2))
    bank = tmp_path / "bank.json"
    bank.write_text(json.dumps(doc))
    with pytest.raises(InvalidInputError, match=r"must be \(P, F\)"):
        load_bank(bank)
    save_points(str(tmp_path / "pts.bin"), np.zeros((2, 3)))
    scene, gt = str(fixture_dir / "scene.fgs"), str(fixture_dir / "gt.voxg")
    for argv in (["voxelize", "--scene", scene, "--bank", str(bank),
                  "--out", str(tmp_path / "pred.voxg"), "--origin=-2.4,-2.4,0",
                  "--dims", "6,6,3"],
                 ["retrieve", "--scene", scene, "--bank", str(bank),
                  "--points", str(tmp_path / "pts.bin")],
                 ["eval-map", "--scene", scene, "--bank", str(bank), "--gt", gt]):
        code, payload, err = _run(capsys, argv)
        assert code == 2 and payload is None, argv[0]
        assert "(P, F)" in err


def test_eval_map_bank_of_only_the_empty_class_exit_2(fixture_dir, tmp_path, capsys):
    """With no class but the empty one there is no query to rank."""
    doc = _fixture_bank_doc(fixture_dir)
    doc["classes"] = [c for c in doc["classes"] if c["class"] == doc["empty_class"]]
    assert len(doc["classes"]) == 1
    bank = tmp_path / "bank.json"
    bank.write_text(json.dumps(doc))
    code, payload, err = _run(capsys, ["eval-map",
                                       "--scene", str(fixture_dir / "scene.fgs"),
                                       "--bank", str(bank),
                                       "--gt", str(fixture_dir / "gt.voxg")])
    assert code == 2 and payload is None
    assert "no class besides its empty class" in err


def test_non_object_bank_exit_4(fixture_dir, tmp_path, capsys):
    bank = tmp_path / "bank.json"
    bank.write_text("5")
    code, _, err = _run(capsys, ["eval-map",
                                 "--scene", str(fixture_dir / "scene.fgs"),
                                 "--bank", str(bank),
                                 "--gt", str(fixture_dir / "gt.voxg")])
    assert code == 4
    assert "format error" in err


@pytest.mark.parametrize("empty_class", [5, [5]], ids=["number", "list"])
def test_bank_empty_class_not_a_string_exit_4(fixture_dir, tmp_path, capsys,
                                              empty_class):
    doc = _fixture_bank_doc(fixture_dir)
    doc["empty_class"] = empty_class
    bank = tmp_path / "bank.json"
    bank.write_text(json.dumps(doc))
    code, payload, err = _run(capsys, ["eval-map",
                                       "--scene", str(fixture_dir / "scene.fgs"),
                                       "--bank", str(bank),
                                       "--gt", str(fixture_dir / "gt.voxg")])
    assert code == 4 and payload is None
    assert "format error" in err and "empty_class" in err


def test_stdout_is_strict_json(fixture_dir, tmp_path, capsys):
    rig = str(fixture_dir / "rig.json")
    base = str(tmp_path / "base.fgs")
    assert main(["init", "--rig", rig, "--out", base, "--count", "80",
                 "--quiet"]) == 0
    # nothing is selected at gamma = 100, so both residuals are infinite
    code = main(["densify", "--rig", rig, "--scene", base, "--gamma", "100",
                 "--out", str(tmp_path / "grown.fgs")])

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")
    payload = json.loads(capsys.readouterr().out, parse_constant=reject)
    assert code == 0 and payload["added_count"] == 0
    assert payload["residual_before"] is None
    assert payload["residual_after"] is None


def test_quiet_suppresses_stdout(fixture_dir, capsys):
    code, payload, err = _run(capsys, ["loss",
                                       "--rig", str(fixture_dir / "rig.json"),
                                       "--scene",
                                       str(fixture_dir / "scene.fgs"),
                                       "--quiet"])
    assert code == 0 and payload is None and err == ""


def _flag_runs(fx, tmp):
    """One command line per subcommand on the fixture, each naming only the
    options it needs: a handler reads every other option at its default."""
    scene, rig, bank = str(fx / "scene.fgs"), str(fx / "rig.json"), str(fx / "bank.json")
    gt, out = str(fx / "gt.voxg"), str(tmp / "out.bin")
    save_points(str(tmp / "pts.bin"), np.zeros((2, 3)))
    return {
        "synth": ["--spec", str(fx / "spec.json"), "--out", str(tmp / "fix")],
        "init": ["--rig", rig, "--out", out, "--count", "80"],
        "densify": ["--rig", rig, "--scene", scene, "--out", out],
        "refine": ["--rig", rig, "--scene", scene, "--out", out],
        "render": ["--rig", rig, "--scene", scene],
        "voxelize": ["--scene", scene, "--bank", bank, "--out", out,
                     "--origin=-2.4,-2.4,0", "--dims", "6,6,3"],
        "retrieve": ["--scene", scene, "--bank", bank, "--points", str(tmp / "pts.bin")],
        "loss": ["--rig", rig, "--scene", scene],
        "eval-miou": ["--pred", gt, "--gt", gt],
        "eval-map": ["--scene", scene, "--bank", bank, "--gt", gt],
        "pipeline": ["--stages", "", "--out", str(tmp / "run")],
    }


def test_every_parsed_option_is_read(fixture_dir, tmp_path):
    """Each handler reads every option its subcommand parses: a flag that
    nothing reads is a setting that silently does nothing."""
    parser = build_parser()
    runs = _flag_runs(fixture_dir, tmp_path)
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert set(runs) == set(sub.choices)
    reads = set()

    class Recording(argparse.Namespace):
        def __getattribute__(self, name):
            reads.add(name)
            return super().__getattribute__(name)

    for command, argv in runs.items():
        args = parser.parse_args([command, *argv], namespace=Recording())
        reads.clear()       # argparse itself reads the namespace it fills
        assert args.func(args) == 0, command
        unread = set(vars(args)) - reads - {"func", "command"}
        assert not unread, f"{command} parses {sorted(unread)} and never reads them"


def test_seed_only_where_it_is_read(fixture_dir):
    with pytest.raises(SystemExit) as exc:
        main(["render", "--rig", str(fixture_dir / "rig.json"),
              "--scene", str(fixture_dir / "scene.fgs"), "--seed", "1"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command, flag, value", [
    ("densify", "--select-mode", "absolute"),
    ("refine", "--which", "newest"),
    ("voxelize", "--reduce", "mean"),
])
def test_no_flag_picks_another_rule(fixture_dir, tmp_path, command, flag, value):
    """Densify selects by one signed depth rule, refine updates every
    Gaussian and a multi-prompt class scores its best prompt: a flag that
    would choose otherwise is an argument error on a command line that runs
    without it."""
    argv = [command, *_flag_runs(fixture_dir, tmp_path)[command], flag, value]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
