"""Property-based tests of the JSON readers: rig, bank, pipeline config, spec.

Each example mutates a valid document in one way: it drops a key of some
object, replaces some value (the whole document included) with an
arbitrary JSON value, or wraps the document in a list.  The reader must
either accept the result or raise FormatError, InvalidInputError or
OSError; when it rejects it, the CLI command that reads the same file must
exit with that error's code (4, 2 or 4) and print no traceback.

Examples are derandomized and no example database is kept, so every run
checks the same documents and leaves nothing behind.
"""

from __future__ import annotations

import copy
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fgs.cli import main
from fgs.errors import FormatError, InvalidInputError
from fgs.io import (load_bank, load_json_object, load_rig, save_bank, save_rig,
                    save_scene, save_voxel_grid)
from fgs.pipeline import PipelineConfig
from fgs.synth import Primitive, RigSpec, RingSpec, SynthSpec, gen_scene
from fgs.voxel import GridSpec

EXAMPLES = settings(derandomize=True, database=None, deadline=None,
                    max_examples=60)

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6)


def _tiny_spec() -> SynthSpec:
    prims = [Primitive("box", "ground", (0.0, 0.0, 0.25), (4.0, 4.0, 0.5)),
             Primitive("sphere", "ball", (0.5, 0.5, 1.0), (0.4, 0.4, 0.4),
                       name="ball_a")]
    rig = RigSpec(rings=[RingSpec(2, 2.6, 2.4, -55.0, 10.0, True)],
                  height=12, width=16, hfov_deg=70.0)
    return SynthSpec(seed=1, feature_dim=4, primitives=prims, rig=rig,
                     grid=GridSpec(np.array([-2.4, -2.4, 0.0]), (6, 6, 3), 0.8),
                     n_gaussians=60, gaussian_scale=0.1)


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("json_readers")
    result = gen_scene(_tiny_spec())
    save_rig(root / "rig.json", result.views)
    save_bank(root / "bank.json", result.bank)
    save_scene(root / "scene.fgs", result.scene)
    save_voxel_grid(root / "gt.voxg", result.gt_grid)
    return root


def _paths(node, prefix=()):
    """The path (keys and list indices) of every value in `node`, itself too."""
    yield prefix
    if isinstance(node, dict):
        for k, v in node.items():
            yield from _paths(v, prefix + (k,))
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from _paths(v, prefix + (i,))


def _at(doc, path):
    for step in path:
        doc = doc[step]
    return doc


@st.composite
def _mutants(draw, doc):
    op = draw(st.sampled_from(["drop", "replace", "wrap"]))
    if op == "wrap":
        return [doc]
    doc = copy.deepcopy(doc)
    if op == "drop":
        keys = [p for p in _paths(doc) if p and isinstance(_at(doc, p[:-1]), dict)]
        path = draw(st.sampled_from(keys))
        del _at(doc, path[:-1])[path[-1]]
        return doc
    path = draw(st.sampled_from(list(_paths(doc))))
    value = draw(JSON_VALUES)
    if not path:
        return value
    _at(doc, path[:-1])[path[-1]] = value
    return doc


def _check(read, path, doc, argv):
    """`read(path)` of `doc`, or None when it raises a documented error, and
    then the CLI command `argv` must exit with that error's code."""
    path.write_text(json.dumps(doc))
    try:
        return read(path)
    except FormatError:
        expected = 4
    except InvalidInputError:
        expected = 2
    except OSError:
        expected = 4
    assert main(argv + ["--quiet"]) == expected
    return None


def _config_doc():
    return {"stages": [], "seed": 0, "out_dir": None,
            "spec": _tiny_spec().to_dict(), "base_count": 60,
            "layer_budgets": [40, 20], "gamma": 0.2, "select_mode": "signed",
            "occlusion_margin": 0.3, "tau_occ": 0.5, "cutoff": 3.0,
            "refine_which": "all", "view_waves": [1, 1]}


def test_valid_documents_are_read(fixture_dir):
    assert len(load_rig(fixture_dir / "rig.json")) == 2
    assert load_bank(fixture_dir / "bank.json").class_names == ["ground", "ball", "empty"]
    assert PipelineConfig.from_dict(_config_doc()).view_waves == (1, 1)
    assert SynthSpec.from_dict(_tiny_spec().to_dict()).to_dict() == _tiny_spec().to_dict()


@EXAMPLES
@given(data=st.data())
def test_mutated_rig(fixture_dir, data):
    doc = data.draw(_mutants(json.loads((fixture_dir / "rig.json").read_text())))
    path = fixture_dir / "mutant_rig.json"
    _check(load_rig, path, doc,
           ["init", "--rig", str(path), "--out", str(fixture_dir / "out.fgs")])


@EXAMPLES
@given(data=st.data())
def test_mutated_bank(fixture_dir, data):
    doc = data.draw(_mutants(json.loads((fixture_dir / "bank.json").read_text())))
    path = fixture_dir / "mutant_bank.json"
    bank = _check(load_bank, path, doc,
                  ["eval-map", "--scene", str(fixture_dir / "scene.fgs"),
                   "--bank", str(path), "--gt", str(fixture_dir / "gt.voxg")])
    assert bank is None or bank.empty_class is None or isinstance(bank.empty_class, str)


@EXAMPLES
@given(doc=_mutants(_config_doc()))
def test_mutated_pipeline_config(fixture_dir, doc):
    path = fixture_dir / "mutant_config.json"
    _check(lambda p: PipelineConfig.from_dict(load_json_object(p)), path, doc,
           ["pipeline", "--config", str(path), "--stages", ""])


@EXAMPLES
@given(doc=_mutants(_tiny_spec().to_dict()))
def test_mutated_synth_spec(fixture_dir, doc):
    path = fixture_dir / "mutant_spec.json"
    _check(SynthSpec.load, path, doc,
           ["synth", "--spec", str(path), "--out", str(fixture_dir / "synth_out")])
