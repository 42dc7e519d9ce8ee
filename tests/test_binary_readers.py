"""Property-based tests of the binary loaders: scene, voxel grid, plane,
PNTS point set and tensor sidecar.

Each example damages a valid file in one way: it cuts the file short or
replaces one byte with another value.  The loader must either read the
result or raise an FgsError or OSError, the errors the CLI maps onto its
documented exit codes; anything else (a TypeError, a UnicodeDecodeError)
would end a command in a traceback.

Examples are derandomized and no example database is kept, so every run
checks the same files and leaves nothing behind.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fgs.core import GaussianScene
from fgs.errors import FgsError
from fgs.io import (load_plane, load_points, load_scene, load_tensors,
                    load_voxel_grid, save_plane, save_points, save_scene,
                    save_tensors, save_voxel_grid)
from fgs.sampling import DecodeHeads
from fgs.voxel import VoxelGrid

EXAMPLES = settings(derandomize=True, database=None, deadline=None,
                    max_examples=150)


def _grid() -> VoxelGrid:
    rng = np.random.default_rng(0)
    labels = rng.integers(-1, 3, size=(3, 2, 4)).astype(np.int32)
    return VoxelGrid(np.array([-1.0, 0.5, 0.0]), 0.4,
                     rng.uniform(0.0, 1.0, size=(3, 2, 4)), labels)


def _scene() -> GaussianScene:
    rng = np.random.default_rng(0)
    return GaussianScene(rng.normal(size=(5, 3)), rng.uniform(0.1, 0.5, (5, 3)),
                         rng.normal(size=(5, 4)), rng.uniform(0.2, 0.9, 5),
                         rng.normal(size=(5, 2)), (3, 5))


# loader, writer of one small valid file
FORMATS = {
    "scene": (load_scene, lambda p: save_scene(p, _scene())),
    "voxel_grid": (load_voxel_grid, lambda p: save_voxel_grid(p, _grid())),
    "plane": (load_plane, lambda p: save_plane(
        p, np.arange(24.0).reshape(2, 4, 3))),
    "points": (load_points, lambda p: save_points(
        p, np.arange(15.0).reshape(5, 3))),
    "tensors": (load_tensors, lambda p: save_tensors(
        p, DecodeHeads.seeded(2, 2, n_offsets=1, hidden=(), seed=0).to_tensors())),
}


@st.composite
def _damaged(draw, raw: bytes) -> bytes:
    if draw(st.booleans()):
        return raw[:draw(st.integers(0, len(raw) - 1))]
    i = draw(st.integers(0, len(raw) - 1))
    value = draw(st.integers(0, 255).filter(lambda b: b != raw[i]))
    return raw[:i] + bytes([value]) + raw[i + 1:]


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("binary_readers")
    raw = {}
    for kind, (load, write) in FORMATS.items():
        path = root / kind
        write(path)
        load(path)                          # the undamaged file reads back
        raw[kind] = path.read_bytes()
    return root, raw


# Damaged floats may be signalling NaNs, which warn on the way to their error.
@pytest.mark.filterwarnings("ignore:invalid value encountered in cast")
@pytest.mark.parametrize("kind", sorted(FORMATS))
@EXAMPLES
@given(data=st.data())
def test_damaged_file_raises_only_documented_errors(valid_files, kind, data):
    root, raw = valid_files
    path = root / f"damaged_{kind}"
    path.write_bytes(data.draw(_damaged(raw[kind])))
    try:
        FORMATS[kind][0](path)
    except (FgsError, OSError):
        pass
