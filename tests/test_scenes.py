import numpy as np
import pytest

from dsr.errors import DataError
from dsr.scenes import (
    DEPTH_FAR,
    DEPTH_NEAR,
    ObjectSpec,
    SceneSpec,
    default_scene,
    synth_scene,
)
from dsr.volumes import FrameDims


def test_deterministic():
    spec = default_scene(FrameDims(32, 32, 6), seed=3)
    d1, g1 = synth_scene(spec)
    d2, g2 = synth_scene(spec)
    np.testing.assert_array_equal(d1.values, d2.values)
    np.testing.assert_array_equal(g1.values, g2.values)


def test_seed_changes_texture():
    dims = FrameDims(32, 32, 4)
    _, g1 = synth_scene(default_scene(dims, seed=0))
    _, g2 = synth_scene(default_scene(dims, seed=1))
    assert not np.array_equal(g1.values, g2.values)


@pytest.mark.parametrize("seed", [-1, 1.5])
def test_invalid_seed_rejected(seed):
    with pytest.raises(DataError, match="seed"):
        SceneSpec(dims=FrameDims(8, 8, 2), seed=seed)


def test_guide_stays_in_unit_range():
    _, guide = synth_scene(default_scene(FrameDims(48, 48, 8), seed=0))
    assert guide.values.min() >= 0.0 and guide.values.max() <= 1.0


def test_background_depth_ordering():
    # no objects: depth decreases toward the top plus a small horizontal tilt
    spec = SceneSpec(dims=FrameDims(16, 16, 2))
    depth, _ = synth_scene(spec)
    frame = depth.frames()[0]
    assert np.all(np.diff(frame[:, 0]) < 0)  # bottom of array is deeper
    assert frame.min() >= DEPTH_NEAR - 1e-9
    assert frame.max() <= DEPTH_FAR + 0.3 + 1e-9


def test_object_overrides_depth_and_moves():
    obj = ObjectSpec(x0=2, y0=4, width=5, height=4, depth=2.0, contrast=0.3,
                     vx=2.0)
    spec = SceneSpec(dims=FrameDims(32, 16, 4), objects=(obj,))
    depth, _ = synth_scene(spec)
    frames = depth.frames()
    for t in range(4):
        x, y = obj.position(t)
        assert x == 2 + 2 * t
        region = frames[t, y:y + 4, x:x + 5]
        np.testing.assert_array_equal(region, np.full((4, 5), 2.0))
    # the vacated area returns to background depth
    assert frames[3, 4, 2] > 2.0


def test_object_leaving_frame_rejected():
    obj = ObjectSpec(x0=28, y0=4, width=5, height=4, depth=2.0, contrast=0.3,
                     vx=3.0)
    with pytest.raises(DataError):
        SceneSpec(dims=FrameDims(32, 16, 4), objects=(obj,))


def test_default_scene_has_a_moving_object():
    spec = default_scene(FrameDims(64, 64, 16), seed=0)
    assert len(spec.objects) == 1
    obj = spec.objects[0]
    assert obj.vx != 0.0
    synth_scene(spec)  # stays in bounds for all 16 frames


@pytest.mark.parametrize("dims", [FrameDims(16, 16, 2), FrameDims(24, 32, 8),
                                  FrameDims(64, 64, 16)])
def test_default_scene_scales_to_dims(dims):
    depth, guide = synth_scene(default_scene(dims, seed=0))
    assert depth.dims == dims and guide.dims == dims
