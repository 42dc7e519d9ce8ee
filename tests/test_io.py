"""File format tests: binary round trips, sidecars, rigs, banks, previews.

Every binary payload stores floats as little-endian f32, so a round trip of
float64 data is exact only to f32 resolution (relative 2^-24); the tests
therefore use atol/rtol 1e-6 on values of order one.  Values chosen exactly
representable in f32 (multiples of 0.25, small integers) round-trip bit
exactly and are asserted with assert_array_equal.
"""

from __future__ import annotations

import json
import struct

import numpy as np
import numpy.testing as npt
import pytest

from fgs.core import CameraView, GaussianScene
from fgs.errors import FormatError, InvalidInputError, NumericalDegeneracyError
from fgs.io import (json_float, json_int, load_bank, load_depth_plane,
                    load_plane, load_points, load_rig, load_scene, load_tensors,
                    load_voxel_grid, read_object, save_bank, save_depth_plane, save_plane, save_points,
                    save_rig, save_scene, save_tensors, save_voxel_grid,
                    depth_preview, write_pgm)
from fgs.voxel import EMPTY_LABEL, VoxelGrid, orthonormal_bank


def _scene(rng, n=7, fdim=3):
    quat = rng.normal(size=(n, 4))
    base = GaussianScene(rng.uniform(-4, 4, (n, 3)), rng.uniform(0.1, 1.0, (n, 3)),
                         quat / np.linalg.norm(quat, axis=1, keepdims=True),
                         rng.uniform(0.0, 1.0, n), rng.normal(size=(n, fdim)))
    return base.with_layer(np.zeros((2, 3)), np.full((2, 3), 0.25),
                           np.tile([1.0, 0, 0, 0], (2, 1)),
                           np.array([0.5, 0.75]), np.zeros((2, fdim)))


# ---------------------------------------------------------------------------
# Scenes
# ---------------------------------------------------------------------------

def test_scene_roundtrip_preserves_layers(tmp_path):
    scene = _scene(np.random.default_rng(0))
    path = tmp_path / "scene.fgs"
    save_scene(path, scene)
    back = load_scene(path)
    assert back.layer_offsets == scene.layer_offsets == (7, 9)
    npt.assert_allclose(back.mu, scene.mu, rtol=1e-6, atol=1e-6)
    npt.assert_allclose(back.scale, scene.scale, rtol=1e-6)
    npt.assert_allclose(back.quat, scene.quat, rtol=0, atol=1e-6)
    npt.assert_allclose(back.opacity, scene.opacity, rtol=0, atol=1e-7)
    npt.assert_allclose(back.feature, scene.feature, rtol=1e-6, atol=1e-6)


def test_scene_save_is_byte_deterministic(tmp_path):
    scene = _scene(np.random.default_rng(1))
    a, b = tmp_path / "a.fgs", tmp_path / "b.fgs"
    save_scene(a, scene)
    save_scene(b, scene)
    assert a.read_bytes() == b.read_bytes()


def test_scene_past_float32_range_is_refused_before_writing(tmp_path):
    """A finite scale of 1e39 would be stored as inf, which `load_scene`
    refuses; `save_scene` refuses it first and leaves no file."""
    scene = _scene(np.random.default_rng(2))
    big = scene.replace(scale=np.where(np.arange(3) == 1, 1e39, scene.scale))
    path = tmp_path / "big.fgs"
    with pytest.raises(NumericalDegeneracyError, match="float32"):
        save_scene(path, big)
    assert not path.exists()


def test_scene_empty_roundtrip(tmp_path):
    path = tmp_path / "empty.fgs"
    save_scene(path, GaussianScene.empty(5))
    back = load_scene(path)
    assert len(back) == 0 and back.feature_dim == 5
    assert back.layer_offsets == (0,)


def test_scene_format_errors(tmp_path):
    path = tmp_path / "scene.fgs"
    save_scene(path, _scene(np.random.default_rng(2)))
    raw = bytearray(path.read_bytes())

    bad_magic = tmp_path / "magic.fgs"
    bad_magic.write_bytes(b"NOPE" + bytes(raw[4:]))
    with pytest.raises(FormatError):
        load_scene(bad_magic)

    bad_version = tmp_path / "version.fgs"
    raw2 = bytearray(raw)
    raw2[4:8] = (2).to_bytes(4, "little")
    bad_version.write_bytes(bytes(raw2))
    with pytest.raises(FormatError):
        load_scene(bad_version)

    truncated = tmp_path / "short.fgs"
    truncated.write_bytes(bytes(raw[:-10]))
    with pytest.raises(FormatError):
        load_scene(truncated)


# ---------------------------------------------------------------------------
# Planes
# ---------------------------------------------------------------------------

def test_plane_roundtrip_2d_and_3d(tmp_path):
    two_d = np.arange(12, dtype=np.float64).reshape(3, 4)
    save_plane(tmp_path / "a.plne", two_d)
    back = load_plane(tmp_path / "a.plne")
    assert back.ndim == 2
    npt.assert_array_equal(back, two_d)     # small integers are f32-exact

    three_d = np.random.default_rng(3).normal(size=(4, 5, 6))
    save_plane(tmp_path / "b.plne", three_d)
    back = load_plane(tmp_path / "b.plne")
    assert back.shape == (4, 5, 6)
    npt.assert_allclose(back, three_d, rtol=1e-6, atol=1e-7)

    with pytest.raises(InvalidInputError):
        save_plane(tmp_path / "c.plne", np.zeros((2, 2, 2, 2)))
    with pytest.raises(InvalidInputError):
        save_plane(tmp_path / "d.plne", np.zeros(4))


def test_depth_plane_marks_invalid_as_nan(tmp_path):
    depth = np.array([[1.0, 2.0], [3.0, 4.0]])
    valid = np.array([[True, False], [True, True]])
    save_depth_plane(tmp_path / "d.plne", depth, valid)
    back, back_valid = load_depth_plane(tmp_path / "d.plne")
    npt.assert_array_equal(back_valid, valid)
    npt.assert_array_equal(back[valid], depth[valid])
    assert back[0, 1] == 0.0

    save_plane(tmp_path / "multi.plne", np.zeros((2, 2, 3)))
    with pytest.raises(FormatError):
        load_depth_plane(tmp_path / "multi.plne")


def test_loaded_depth_follows_the_near_plane_rule(tmp_path):
    """A depth plane written with `save_plane`, whose writer filled missing
    pixels with 0 (or anything within the near plane) rather than NaN,
    loads with those pixels invalid, on its own and in a rig."""
    depth = np.array([[0.0, 0.05, np.nan, np.inf],
                      [-1.0, 0.09, 0.11, 4.0]])
    expected = np.array([[False, False, False, False],
                         [False, False, True, True]])
    save_plane(tmp_path / "d.plne", depth)
    back, valid = load_depth_plane(tmp_path / "d.plne")
    npt.assert_array_equal(valid, expected)
    npt.assert_array_equal(back[~valid], 0.0)

    rig = tmp_path / "rig.json"
    save_rig(rig, [CameraView(fx=4.0, fy=4.0, cx=1.5, cy=0.5, width=4, height=2,
                              ref_depth=np.full((2, 4), 4.0))])
    save_plane(tmp_path / "view000_depth.plne", depth)
    (view,) = load_rig(rig)
    npt.assert_array_equal(view.ref_valid, expected)
    npt.assert_array_equal(view.ref_depth[expected], back[expected])


def test_plane_format_errors(tmp_path):
    path = tmp_path / "junk.plne"
    path.write_bytes(b"JUNKxxxx")
    with pytest.raises(FormatError):
        load_plane(path)
    short = tmp_path / "short.plne"
    save_plane(short, np.ones((4, 4)))
    short.write_bytes(short.read_bytes()[:-8])
    with pytest.raises(FormatError):
        load_plane(short)


# ---------------------------------------------------------------------------
# Voxel grids
# ---------------------------------------------------------------------------

def test_voxel_grid_roundtrip(tmp_path):
    rng = np.random.default_rng(4)
    labels = rng.integers(-1, 3, size=(3, 4, 2)).astype(np.int32)
    labels[0, 0, 0] = EMPTY_LABEL           # exercise the 0xFFFF mapping
    labels[1, 0, 0] = 2
    occ = np.round(rng.uniform(0, 2, size=(3, 4, 2)) * 4.0) / 4.0
    grid = VoxelGrid(np.array([-1.0, 0.5, 2.25]), 0.25, occ, labels)
    path = tmp_path / "grid.voxg"
    save_voxel_grid(path, grid)
    back = load_voxel_grid(path)
    npt.assert_array_equal(back.origin, grid.origin)    # f32-exact quarters
    assert back.voxel_size == 0.25
    npt.assert_array_equal(back.occ_mass, occ)
    npt.assert_array_equal(back.labels, labels)
    assert back.labels.dtype == np.int32
    assert np.array_equal(back.occupied, labels != EMPTY_LABEL)


def test_voxel_grid_label_range_and_errors(tmp_path):
    big = VoxelGrid(np.zeros(3), 0.4, np.zeros((1, 1, 1)),
                    np.full((1, 1, 1), 0xFFFF, dtype=np.int32))
    with pytest.raises(InvalidInputError):
        save_voxel_grid(tmp_path / "big.voxg", big)

    ok = VoxelGrid(np.zeros(3), 0.4, np.zeros((2, 2, 2)),
                   np.zeros((2, 2, 2), dtype=np.int32))
    path = tmp_path / "grid.voxg"
    save_voxel_grid(path, ok)
    path.write_bytes(path.read_bytes()[:-4])
    with pytest.raises(FormatError):
        load_voxel_grid(path)
    junk = tmp_path / "junk.voxg"
    junk.write_bytes(b"WHAT" + b"\0" * 64)
    with pytest.raises(FormatError):
        load_voxel_grid(junk)


# ---------------------------------------------------------------------------
# Point sets
# ---------------------------------------------------------------------------

def test_points_binary_roundtrip(tmp_path):
    pts = np.random.default_rng(5).uniform(-10, 10, size=(9, 3))
    path = tmp_path / "cloud.pnts"
    save_points(path, pts)
    npt.assert_allclose(load_points(path), pts, rtol=1e-6, atol=1e-5)
    save_points(path, np.zeros((0, 3)))
    with pytest.raises(FormatError, match="holds no points"):
        load_points(path)


def test_points_text_fallback(tmp_path):
    path = tmp_path / "cloud.xyz"
    path.write_text("1 2 3\n4.5 5.5 6.5\n")
    npt.assert_array_equal(load_points(path), [[1, 2, 3], [4.5, 5.5, 6.5]])
    path.write_text("0.25 0.5 0.75\n")
    assert load_points(path).shape == (1, 3)

    path.write_text("1 2\n3 4\n")
    with pytest.raises(FormatError):
        load_points(path)
    path.write_text("not a point cloud at all\n")
    with pytest.raises(FormatError):
        load_points(path)


def test_points_binary_truncation(tmp_path):
    path = tmp_path / "cloud.pnts"
    save_points(path, np.ones((4, 3)))
    path.write_bytes(path.read_bytes()[:-6])
    with pytest.raises(FormatError):
        load_points(path)


# ---------------------------------------------------------------------------
# Named-tensor sidecars
# ---------------------------------------------------------------------------

def test_tensor_sidecar_roundtrip(tmp_path):
    tensors = {
        "meta.heads": np.array(8.0),
        "offset.0.weight": np.random.default_rng(6).normal(size=(12, 4)),
        "offset.0.bias": np.zeros(12),
        "blöck.weight": np.arange(24.0).reshape(2, 3, 4),
    }
    path = tmp_path / "heads.head"
    save_tensors(path, tensors)
    back = load_tensors(path)
    assert list(back) == list(tensors)      # insertion order preserved
    assert back["meta.heads"].shape == ()
    assert back["meta.heads"] == 8.0
    for k in tensors:
        assert back[k].shape == np.asarray(tensors[k]).shape
        npt.assert_allclose(back[k], tensors[k], rtol=1e-6, atol=1e-7)


def test_tensor_sidecar_errors(tmp_path):
    path = tmp_path / "heads.head"
    save_tensors(path, {"w": np.ones(3)})
    raw = bytearray(path.read_bytes())
    raw[4:8] = (9).to_bytes(4, "little")
    bad = tmp_path / "bad.head"
    bad.write_bytes(bytes(raw))
    with pytest.raises(FormatError):
        load_tensors(bad)
    short = tmp_path / "short.head"
    short.write_bytes(path.read_bytes()[:-4])
    with pytest.raises(FormatError):
        load_tensors(short)
    junk = tmp_path / "junk.head"
    junk.write_bytes(b"NOPE")
    with pytest.raises(FormatError):
        load_tensors(junk)
    latin = tmp_path / "latin.head"
    latin.write_bytes(path.read_bytes().replace(b"\x01\x00w", b"\x01\x00\xe9"))
    with pytest.raises(FormatError, match="UTF-8"):
        load_tensors(latin)


# ---------------------------------------------------------------------------
# Declared sizes beyond the file
# ---------------------------------------------------------------------------

BIG = 2**32 - 1

OVERSIZED = {
    "scene": (load_scene, b"FGSC" + struct.pack("<5I", 1, BIG, BIG, 1, 0)),
    "plane": (load_plane, b"PLNE" + struct.pack("<3I", BIG, BIG, BIG)),
    "voxel_grid": (load_voxel_grid, b"VOXG" + struct.pack("<3I", BIG, BIG, BIG)
                   + struct.pack("<4f", 0.0, 0.0, 0.0, 0.5)),
    "points": (load_points, b"PNTS" + struct.pack("<I", BIG)),
    # the element count 2^64 wraps to 0 in 64-bit integer arithmetic
    "tensors": (load_tensors, b"HEAD" + struct.pack("<2I", 1, 1)
                + struct.pack("<H", 1) + b"w"
                + struct.pack("<5I", 4, 2**16, 2**16, 2**16, 2**16)),
}


@pytest.mark.parametrize("fmt", sorted(OVERSIZED))
def test_oversized_declared_size_is_a_format_error(tmp_path, fmt):
    loader, payload = OVERSIZED[fmt]
    path = tmp_path / f"big.{fmt}"
    path.write_bytes(payload)
    with pytest.raises(FormatError):
        loader(path)


# ---------------------------------------------------------------------------
# Camera rigs
# ---------------------------------------------------------------------------

def _view(seed, with_planes=True):
    rng = np.random.default_rng(seed)
    kw = {}
    if with_planes:
        depth = rng.uniform(1.0, 9.0, size=(6, 8))
        valid = rng.random((6, 8)) < 0.8
        kw = dict(ref_depth=depth, ref_valid=valid,
                  ref_feature=rng.normal(size=(6, 8, 3)),
                  photo=rng.uniform(size=(6, 8, 3)))
    theta = rng.uniform(0, 2 * np.pi)
    rot = np.array([[np.cos(theta), 0, np.sin(theta)],
                    [0, 1, 0],
                    [-np.sin(theta), 0, np.cos(theta)]])
    return CameraView(fx=100.0, fy=110.0, cx=3.5, cy=2.5, width=8, height=6,
                      rotation=rot, translation=rng.normal(size=3),
                      timestamp=int(seed), **kw)


def test_rig_roundtrip_with_planes(tmp_path):
    views = [_view(1), _view(2)]
    path = tmp_path / "rig" / "rig.json"
    save_rig(path, views)
    for name in ("view000_depth.plne", "view000_feature.plne",
                 "view001_photo.plne"):
        assert (path.parent / name).exists()
    back = load_rig(path)
    assert len(back) == 2
    for v, b in zip(views, back):
        assert (b.fx, b.fy, b.cx, b.cy) == (v.fx, v.fy, v.cx, v.cy)
        assert (b.width, b.height, b.timestamp) == (v.width, v.height, v.timestamp)
        npt.assert_array_equal(b.rotation, v.rotation)      # JSON floats exact
        npt.assert_array_equal(b.translation, v.translation)
        npt.assert_array_equal(b.ref_valid, v.ref_valid)
        npt.assert_allclose(b.ref_depth[b.ref_valid],
                            v.ref_depth[v.ref_valid], rtol=1e-6)
        npt.assert_allclose(b.ref_feature, v.ref_feature, rtol=1e-6, atol=1e-7)
        npt.assert_allclose(b.photo, v.photo, rtol=1e-6, atol=1e-7)


def test_rig_without_planes(tmp_path):
    path = tmp_path / "rig.json"
    save_rig(path, [_view(3, with_planes=False)])
    doc = json.loads(path.read_text())
    assert "depth" not in doc["views"][0]
    back = load_rig(path)
    assert back[0].ref_depth is None and back[0].photo is None


def test_rig_format_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(FormatError):
        load_rig(bad)
    bad.write_text(json.dumps({"cameras": []}))
    with pytest.raises(FormatError):
        load_rig(bad)
    bad.write_text(json.dumps({"views": [{"fx": 1.0}]}))
    with pytest.raises(FormatError):
        load_rig(bad)
    bad.write_text(json.dumps({"views": [{
        "fx": 1, "fy": 1, "cx": 0, "cy": 0, "width": 2, "height": 2,
        "pose": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}]}))
    with pytest.raises(FormatError):
        load_rig(bad)


# ---------------------------------------------------------------------------
# Prompt banks
# ---------------------------------------------------------------------------

def test_bank_roundtrip(tmp_path):
    bank = orthonormal_bank(["empty", "road sign", "wall"], dim=6, seed=7)
    path = tmp_path / "bank" / "bank.json"
    save_bank(path, bank)
    assert (path.parent / "bank001_road_sign.plne").exists()
    back = load_bank(path)
    assert back.class_names == bank.class_names
    assert back.empty_class == "empty" and back.empty_index == 0
    for a, b in zip(bank.entries, back.entries):
        assert a.prompts == b.prompts
        npt.assert_allclose(a.embeddings, b.embeddings, rtol=0, atol=1e-6)


def test_bank_none_empty_class_and_errors(tmp_path):
    bank = orthonormal_bank(["wall"], dim=4, empty_class=None)
    path = tmp_path / "bank.json"
    save_bank(path, bank)
    assert load_bank(path).empty_class is None

    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2")
    with pytest.raises(FormatError):
        load_bank(bad)
    bad.write_text(json.dumps({"banks": []}))
    with pytest.raises(FormatError):
        load_bank(bad)
    bad.write_text(json.dumps({"classes": [{"class": "wall"}]}))
    with pytest.raises(FormatError):
        load_bank(bad)


@pytest.mark.parametrize("empty_class", [5, [5], True, {"name": "wall"}])
def test_bank_empty_class_must_be_a_string_or_null(tmp_path, empty_class):
    path = tmp_path / "bank.json"
    save_bank(path, orthonormal_bank(["wall", "empty"], dim=4))
    doc = json.loads(path.read_text())
    doc["empty_class"] = "wall"
    path.write_text(json.dumps(doc))
    assert load_bank(path).empty_index == 0
    doc["empty_class"] = empty_class
    path.write_text(json.dumps(doc))
    with pytest.raises(FormatError, match="empty_class"):
        load_bank(path)


def test_read_object_reports_the_field_and_passes_range_errors_through():
    def positive(v):
        if json_float(v) <= 0:
            raise InvalidInputError("must be positive")
        return v

    readers = {"n": json_int, "x": positive,
               "sub": lambda v: read_object(v, {"n": json_int}, "sub", ("n",))}
    assert read_object({"n": 2.0}, readers, "doc") == {"n": 2}
    with pytest.raises(InvalidInputError, match=r"unknown doc keys: \['other'\]"):
        read_object({"n": 2.0, "other": "kept out"}, readers, "doc")
    # the fields are read first: a malformed one outranks an unknown key
    for doc, match in (([1], "doc must be a JSON object"),
                       ({"n": "2", "other": 1}, "doc: malformed field 'n'"),
                       ({}, "doc: missing field 'n'"),
                       ({"n": "2"}, "doc: malformed field 'n'"),
                       ({"n": 1, "sub": {}}, "sub: missing field 'n'"),
                       ({"n": 1, "sub": {"n": 1.5}}, "sub: malformed field 'n'")):
        with pytest.raises(FormatError, match=match):
            read_object(doc, readers, "doc", required=("n",))
    with pytest.raises(InvalidInputError, match="must be positive"):
        read_object({"x": -1}, readers, "doc")


# ---------------------------------------------------------------------------
# Previews
# ---------------------------------------------------------------------------

def test_pgm_bytes(tmp_path):
    path = tmp_path / "img.pgm"
    write_pgm(path, np.array([[0.0, 300.0, -5.0], [128.0, 7.4, 255.0]]))
    raw = path.read_bytes()
    assert raw.startswith(b"P5\n3 2\n255\n")
    assert raw[len(b"P5\n3 2\n255\n"):] == bytes([0, 255, 0, 128, 7, 255])
    with pytest.raises(InvalidInputError):
        write_pgm(path, np.zeros((2, 2, 2)))


def test_depth_preview_normalization(tmp_path):
    path = tmp_path / "depth.pgm"
    depth = np.array([[2.0, 4.0], [6.0, 9.0]])
    valid = np.array([[True, True], [True, False]])
    depth_preview(path, depth, valid)
    payload = path.read_bytes()[len(b"P5\n2 2\n255\n"):]
    assert payload[0] == 1                  # nearest valid pixel
    assert payload[2] == 255                # farthest valid pixel
    assert payload[3] == 0                  # invalid pixel stays black

    flat = tmp_path / "flat.pgm"
    depth_preview(flat, np.full((1, 2), 3.0))
    assert flat.read_bytes()[-2:] == bytes([1, 1])
