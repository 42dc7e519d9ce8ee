"""End-to-end pipeline tests: stage grammar, config, report, artifacts.

The stage grammar is
`synth (init (refine | (densify refine)* densify?) (voxelize eval?)?)?`:
every stage needs synth's fixture, and a single refine directly after
init fills in features without growth.  Views arrive in waves: init
consumes the first wave and every densify round activates the next, so
the report's `views_active` column must grow across rounds.

These tests run the pipeline on a deliberately small fixture (5 views of
36 x 48, 250 sampled Gaussians, a 6 x 6 x 3 grid) so the whole module
stays in the couple-of-seconds range; quality thresholds on the full room
fixture live in the acceptance suite instead.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from fgs.errors import (InsufficientPointsError, InvalidInputError,
                        NumericalDegeneracyError)
from fgs.io import load_scene, load_voxel_grid
from fgs.pipeline import (DEFAULT_STAGES, RENDER_COUNTS, STAGES, PipelineConfig,
                          run_pipeline, validate_stages)
from fgs.raster import TILE
from fgs.synth import Primitive, RigSpec, RingSpec, SynthSpec, room_spec
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


def _tiny_config(out_dir=None, threads=1, **over):
    kw = dict(stages=("synth", "init", "densify", "refine",
                      "voxelize", "eval"),
              seed=3, threads=threads, out_dir=out_dir, spec=_tiny_spec(),
              base_count=120, layer_budgets=(60,))
    kw.update(over)
    return PipelineConfig(**kw)


@pytest.fixture(scope="module")
def full_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    report = run_pipeline(_tiny_config(out_dir=str(out)))
    return report, out


# ---------------------------------------------------------------------------
# Stage grammar
# ---------------------------------------------------------------------------

def test_stage_vocabulary_and_defaults():
    assert set(DEFAULT_STAGES) <= set(STAGES)
    assert validate_stages(DEFAULT_STAGES) == DEFAULT_STAGES
    assert validate_stages([]) == ()
    assert validate_stages(["synth", "init"]) == ("synth", "init")


@pytest.mark.parametrize("stages", [
    ("synth",),
    ("synth", "init", "refine"),                        # lone feature fill-in
    ("synth", "init", "densify", "refine"),
    ("synth", "init", "densify", "refine", "densify"),   # ends on a densify
    ("synth", "init", "voxelize"),
    ("synth", "init", "densify", "refine", "voxelize", "eval"),
])
def test_valid_stage_lists(stages):
    assert validate_stages(stages) == stages


@pytest.mark.parametrize("stages", [
    ("warp",),                                          # unknown stage
    ("init", "synth"),                                  # out of order
    ("synth", "synth", "init"),                         # duplicate synth
    ("synth", "init", "init"),                          # duplicate init
    ("synth", "init", "voxelize", "voxelize"),          # duplicate voxelize
    ("synth", "init", "voxelize", "eval", "eval"),      # duplicate eval
    ("synth", "densify", "refine"),                     # growth without init
    ("synth", "refine"),                                # refine without init
    ("synth", "init", "refine", "densify", "refine"),   # refine before densify
    ("synth", "init", "densify", "densify", "refine"),  # densify not followed
    ("synth", "init", "eval"),                          # eval without voxelize
    ("synth", "voxelize"),                              # voxelize without init
    ("init",),                                          # no synth fixture
    ("init", "densify", "refine", "densify", "refine"),  # no synth fixture
    ("init", "voxelize"),                               # no synth fixture
])
def test_invalid_stage_lists(stages):
    with pytest.raises(InvalidInputError):
        validate_stages(stages)


def _runnable(stages) -> bool:
    """The stage grammar, stated without a regular expression."""
    rest = list(stages)
    if not rest:
        return True
    if rest.pop(0) != "synth":
        return False
    if not rest:
        return True
    if rest.pop(0) != "init":
        return False
    for tail in (["voxelize", "eval"], ["voxelize"]):
        if rest[-len(tail):] == tail:
            del rest[-len(tail):]
            break
    return rest == ["refine"] or all(
        s == ("densify", "refine")[i % 2] for i, s in enumerate(rest))


def test_stage_grammar_on_every_short_list():
    accepted = 0
    for n in range(7):
        for stages in itertools.product(STAGES, repeat=n):
            try:
                ok = validate_stages(stages) == stages
            except InvalidInputError:
                ok = False
            assert ok == _runnable(stages), stages
            accepted += ok
    # (), (synth,) and 15 lists with init: each growth part of r, d, dr,
    # drd, drdr or none, times the tails none, v and ve that fit in six
    assert accepted == 17


# ---------------------------------------------------------------------------
# Config
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(InvalidInputError):
        PipelineConfig(threads=0)
    with pytest.raises(InvalidInputError):
        PipelineConfig(stages=("eval",))
    assert PipelineConfig().stages == DEFAULT_STAGES
    # one budget per densify stage; a config that grows no layer needs none
    for budgets in ((), (1000,)):
        with pytest.raises(InvalidInputError, match="2 densify stages"):
            PipelineConfig(layer_budgets=budgets)
    PipelineConfig(stages=("synth", "init", "refine"), layer_budgets=())


def test_config_checks_its_fixture_spec_when_built():
    """A bad fixture fails when the config is built, not when synth runs,
    and so also with no stage to run."""
    for stages in (("synth",), ()):
        with pytest.raises(InvalidInputError, match="seed must be non-negative"):
            PipelineConfig(seed=-1, stages=stages)
        with pytest.raises(InvalidInputError, match="seed must be non-negative"):
            PipelineConfig(seed=-1, spec=_tiny_spec(), stages=stages)
        with pytest.raises(InvalidInputError, match="noise"):
            PipelineConfig(spec=replace(room_spec(0), depth_noise=-1.0), stages=stages)
        spec = _tiny_spec()
        spec.pose_noise = float("nan")       # set past the spec's own check
        with pytest.raises(InvalidInputError, match="noise"):
            PipelineConfig(spec=spec, stages=stages)


def test_config_from_dict_conversions():
    spec = _tiny_spec()
    cfg = PipelineConfig.from_dict({
        "stages": ["synth", "init"],
        "spec": spec.to_dict(),
        "layer_budgets": [40, 20],
        "seed": 9,
    })
    assert cfg.stages == ("synth", "init")
    assert isinstance(cfg.spec, SynthSpec)
    assert cfg.spec.to_dict() == spec.to_dict()
    assert cfg.layer_budgets == (40, 20)
    assert cfg.seed == 9


def test_config_from_dict_rejects_unknown_keys():
    with pytest.raises(InvalidInputError, match="unknown pipeline config"):
        PipelineConfig.from_dict({"sigma": 1.0})


def test_config_from_dict_reads_every_field():
    # except the no-op thread count, which a config file cannot set
    from fgs.pipeline import _CONFIG_FIELDS
    assert set(_CONFIG_FIELDS) == set(PipelineConfig.__dataclass_fields__) - {"threads"}


def test_config_from_dict_passes_objects_through(tmp_path):
    spec = _tiny_spec()
    cfg = PipelineConfig.from_dict({"spec": spec, "out_dir": tmp_path,
                                    "seed": 3.0})
    assert cfg.spec is spec and cfg.out_dir == tmp_path and cfg.seed == 3


@pytest.mark.parametrize("seed, spec_seed, expected",
                         [(None, None, 0), (5, None, 5), (None, 7, 7), (5, 7, 5)])
def test_report_names_the_seed_of_the_fixture_it_built(monkeypatch, seed,
                                                       spec_seed, expected):
    """A given seed overrides the spec's (as `fgs synth --seed` does); without
    one the spec's seed holds, and without either the stock room's 0."""
    import fgs.pipeline
    built = []
    real = fgs.pipeline.gen_scene
    monkeypatch.setattr(fgs.pipeline, "gen_scene",
                        lambda spec: built.append(spec) or real(spec))
    spec = None if spec_seed is None else _tiny_spec(spec_seed)
    report = run_pipeline(PipelineConfig(seed=seed, spec=spec,
                                         stages=("synth",)))
    assert report["seed"] == expected
    (fixture,) = built
    want = room_spec(expected) if spec is None else _tiny_spec(expected)
    assert fixture.to_dict() == want.to_dict()
    if spec is not None:
        assert spec.seed == spec_seed       # the caller's spec is left alone


# ---------------------------------------------------------------------------
# Full run: report structure
# ---------------------------------------------------------------------------

def test_report_header_and_stage_order(full_run):
    report, _ = full_run
    assert report["seed"] == 3
    assert report["threads"] == 1
    names = [e["name"] for e in report["stages"]]
    assert names == ["synth", "init", "densify", "refine", "voxelize", "eval"]
    assert all("time_s" in e for e in report["stages"])
    json.dumps(report)                      # report must be plain JSON data


def test_report_synth_and_wave_activation(full_run):
    report, _ = full_run
    synth, init, densify = report["stages"][:3]
    assert synth["views"] == 5
    assert synth["view_waves"] == [3, 2]    # ring sizes become waves
    assert synth["classes"] == ["ground", "block"]
    assert init["views_active"] == 3        # first wave only
    assert densify["views_active"] == 5     # second wave has arrived


def test_report_layer_table(full_run):
    report, _ = full_run
    init, densify = report["stages"][1], report["stages"][2]
    layers = report["layers"]
    assert [row["index"] for row in layers] == [0, 1]
    assert layers[0]["count"] == init["count"] == 120
    assert densify["layer"] == 1
    assert 0 <= densify["added"] <= 60
    assert layers[1]["count"] == 120 + densify["added"]
    assert [row["views"] for row in layers] == [3, 5]
    assert all(row["time_s"] > 0 for row in layers)


def test_report_densify_residuals(full_run):
    report, _ = full_run
    densify = report["stages"][2]
    assert len(densify["selected_pixels_per_view"]) == 5
    before, after = densify["residual_before"], densify["residual_after"]
    # A sparse 120-Gaussian base layer leaves plenty of unexplained pixels.
    assert densify["added"] == 60
    assert before is not None and before > 0
    assert after is not None and after < before


def test_densify_selects_once_per_active_view(monkeypatch):
    import fgs.densify
    import fgs.pipeline
    calls = []
    real = fgs.densify.select_under_represented

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)
    # Patch every module that names the function, so a second selection
    # pass outside densify_layer would be counted too.
    for mod in (fgs.densify, fgs.pipeline):
        monkeypatch.setattr(mod, "select_under_represented", counting)
    report = run_pipeline(_tiny_config(
        stages=("synth", "init", "densify", "refine", "densify", "refine"),
        layer_budgets=(60, 60)))
    active = [s["views_active"] for s in report["stages"]
              if s["name"] == "densify"]
    # waves of 3 and 2 views: the second round keeps the last wave
    assert active == [5, 5]
    assert len(calls) == sum(active)


def test_growth_rows_count_every_fps_call(monkeypatch):
    import fgs.densify
    calls = []
    real = fgs.densify.fps

    def counting(points, k):
        calls.append((len(points), k))
        return real(points, k)
    monkeypatch.setattr(fgs.densify, "fps", counting)
    report = run_pipeline(_tiny_config(
        stages=("synth", "init", "densify", "refine", "densify", "refine"),
        layer_budgets=(60, 60)))
    layers = report["layers"]
    growth = [row["growth"] for row in layers]
    # an empty candidate pool grows nothing and never reaches fps
    assert [(g["cloud_points"], g["picks"]) for g in growth
            if g["cloud_points"]] == calls
    counts = [row["count"] for row in layers]
    assert [g["picks"] for g in growth] == [counts[0]] + [
        b - a for a, b in zip(counts, counts[1:])]
    densify = [s for s in report["stages"] if s["name"] == "densify"]
    assert [g["cloud_points"] for g in growth[1:]] == [
        sum(s["selected_pixels_per_view"]) for s in densify]
    assert all(g["time_s"] > 0 for g in growth)


def test_stages_render_geometry_only_and_count_the_work(monkeypatch):
    """Every render the stages make reads only depth and validity, so each
    takes the scene's feature-free geometry view; each layer row sums the
    work counts of the renders that close the layer, and the renders of
    newly arrived views before a densify count in no row.  The last layer
    is rendered only at the tiles of its densify's selected pixels, in the
    views that have one."""
    import fgs.densify
    import fgs.pipeline
    from fgs.raster import render
    outs, masks = [], []

    def recording(scene, cam, *args, **kwargs):
        assert scene.feature_dim == 0
        out = render(scene, cam, *args, **kwargs)
        outs.append(out)      # the renders of one layer may finish in any order
        masks.append(kwargs.get("mask"))
        return out
    for mod in (fgs.pipeline, fgs.densify):
        monkeypatch.setattr(mod, "render", recording)
    report = run_pipeline(_tiny_config(stages=("synth", "init", "densify", "refine")))
    selected = report["stages"][2]["selected_pixels_per_view"]
    touched = sum(n > 0 for n in selected)
    assert 0 < touched <= 5
    # 3 init views and the 2 views of the second wave in full, then the
    # views with a selected pixel at their selected tiles
    assert len(outs) == 3 + 2 + touched
    assert all(m is None for m in masks[:5])
    assert [int(m.sum()) for m in masks[5:]] == [n for n in selected if n]
    tiles = [-(-36 // TILE) * -(-48 // TILE)] * 5
    assert [out.blended_tiles for out in outs[:5]] == tiles
    assert all(0 < out.blended_tiles < tiles[0] for out in outs[5:])
    for row, done in zip(report["layers"], (outs[:3], outs[5:])):
        for name in RENDER_COUNTS:
            assert row[name] == sum(getattr(out, name) for out in done), name
        assert row["binned_rows"] > row["culled_rows"] > 0
        assert row["pairs_evaluated"] > 0
    assert report["layers"][1]["views"] == 5


@pytest.mark.parametrize("stages", [("synth", "init", "densify"), DEFAULT_STAGES])
def test_residual_after_is_that_of_full_renders_of_the_grown_scene(monkeypatch,
                                                                   stages):
    """Whether a densify renders every active view (another densify
    follows) or only the tiles of its selected pixels (the last densify),
    its `residual_after` equals `selection_residual` over full renders of
    the grown scene, bit for bit."""
    import fgs.pipeline
    from fgs.densify import selection_residual
    from fgs.raster import render
    grown = []
    real = fgs.pipeline.densify_layer

    def recording(scene, views, *args, **kwargs):
        result = real(scene, views, *args, **kwargs)
        grown.append((list(views), *result))
        return result
    monkeypatch.setattr(fgs.pipeline, "densify_layer", recording)
    report = run_pipeline(_tiny_config(stages=stages, base_count=60,
                                       layer_budgets=(30, 60)))
    densify = [s for s in report["stages"] if s["name"] == "densify"]
    assert len(densify) == len(grown) == stages.count("densify")
    if len(densify) == 2:
        # the second densify selects pixels in three of the five views
        assert densify[1]["selected_pixels_per_view"].count(0) == 2
    for entry, (views, scene, growth) in zip(densify, grown):
        geometry = scene.geometry()
        full = selection_residual([render(geometry, v) for v in views], views,
                                  growth.selected)
        assert np.isfinite(full) and entry["residual_after"] == full


# ---------------------------------------------------------------------------
# Concurrent renders
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("count", [0, 1, 2, 3, 5])
def test_render_views_returns_the_bits_of_each_view_in_view_order(
        monkeypatch, cpus, count):
    """Whatever the CPU count, the helper returns what `render` gives each
    view alone, in view order.  Earlier views are made to finish later, so
    outputs kept in completion order would come out shuffled."""
    import fgs.pipeline
    from fgs.raster import render
    from fgs.synth import gen_scene
    fixture = gen_scene(_tiny_spec())
    scene, views = fixture.scene.geometry(), fixture.views[:count]
    want = [render(scene, v) for v in views]
    position = {id(v): i for i, v in enumerate(views)}

    def late_first(scene, cam):
        time.sleep(0.01 * (count - position[id(cam)]))
        return render(scene, cam)
    monkeypatch.setattr(fgs.pipeline, "render", late_first)
    monkeypatch.setattr(fgs.pipeline.os, "sched_getaffinity",
                        lambda pid: set(range(cpus)))
    got = fgs.pipeline._render_views(scene, views)
    assert len(got) == count
    for a, b in zip(got, want):
        for name in ("depth", "acc_alpha", "valid"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
        for name in RENDER_COUNTS:
            assert getattr(a, name) == getattr(b, name), name


@pytest.mark.parametrize("on_caller", [False, True])
def test_a_failed_render_reaches_the_caller_after_every_join(monkeypatch,
                                                             on_caller):
    """With two CPUs init's three views are rendered by the calling thread
    and one worker thread: a render that raises on either thread fails the
    stage, and no thread outlives the run."""
    import fgs.pipeline
    from fgs.raster import render
    began, raised = {True: threading.Event(), False: threading.Event()}, []

    def failing_render(scene, cam):
        caller = threading.current_thread() is threading.main_thread()
        began[caller].set()
        # neither thread can take all three views before the other takes one
        assert began[not caller].wait(timeout=60)
        if caller == on_caller and not raised:
            raised.append(cam)
            raise NumericalDegeneracyError("degenerate footprint")
        return render(scene, cam)
    monkeypatch.setattr(fgs.pipeline, "render", failing_render)
    monkeypatch.setattr(fgs.pipeline.os, "sched_getaffinity",
                        lambda pid: {0, 1})
    threads_before = threading.active_count()
    with pytest.raises(NumericalDegeneracyError, match="stage 'init' failed"):
        run_pipeline(_tiny_config(stages=("synth", "init")))
    assert len(raised) == 1
    assert threading.active_count() == threads_before


def test_report_refine_and_voxelize(full_run):
    report, _ = full_run
    refine, voxelize = report["stages"][3], report["stages"][4]
    assert refine["count"] == report["layers"][-1]["count"]
    assert voxelize["dims"] == [6, 6, 3]
    assert 0 < voxelize["occupied"] <= 6 * 6 * 3


def test_report_eval_metrics(full_run):
    report, _ = full_run
    metrics = report["stages"][5]["metrics"]
    assert 0.0 <= metrics["miou"] <= 1.0
    assert set(metrics["iou_per_class"]) <= {"ground", "block"}
    assert 0.0 <= metrics["map"] <= 1.0
    assert set(metrics["ap_per_class"]) <= {"ground", "block"}


def test_artifacts_match_report(full_run):
    report, out = full_run
    scene_path = os.path.join(str(out), "scene.fgs")
    grid_path = os.path.join(str(out), "grid.voxg")
    assert report["artifacts"] == {"scene": scene_path, "grid": grid_path}
    scene = load_scene(scene_path)
    assert len(scene) == report["layers"][-1]["count"]
    assert scene.layer_offsets == (120, len(scene))
    grid = load_voxel_grid(grid_path)
    assert int(grid.occupied.sum()) == report["stages"][4]["occupied"]
    with open(os.path.join(str(out), "report.json"), encoding="utf-8") as fh:
        on_disk = json.load(fh)
    assert on_disk == report


def test_rerun_is_byte_identical_across_thread_counts(full_run, tmp_path):
    _, out = full_run
    run_pipeline(_tiny_config(out_dir=str(tmp_path), threads=2))
    for name in ("scene.fgs", "grid.voxg"):
        a = (out / name).read_bytes()
        b = (tmp_path / name).read_bytes()
        assert a == b, f"{name} differs between threads=1 and threads=2"


# ---------------------------------------------------------------------------
# Edge cases
# ---------------------------------------------------------------------------

def test_empty_stage_list_is_a_noop(tmp_path):
    report = run_pipeline(PipelineConfig(stages=(), out_dir=str(tmp_path)))
    assert report["stages"] == [] and report["layers"] == []
    assert report["artifacts"] == {}
    assert (tmp_path / "report.json").exists()
    assert not (tmp_path / "scene.fgs").exists()


def test_stage_failure_keeps_error_type_and_names_stage():
    # 3 views of 36 x 48 pixels hold fewer than 10,000 pseudo-cloud points
    with pytest.raises(InsufficientPointsError, match="stage 'init' failed"):
        run_pipeline(_tiny_config(stages=("synth", "init"), base_count=10000))

