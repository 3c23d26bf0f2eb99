"""Synthetic depth+intensity scenes for experiments and tests.

A scene is an affine background depth ramp with rectangular objects gliding
over it at constant velocity. Each object is closer than the background and
carries its own intensity texture that moves with it, so temporal matching
along the motion has genuinely repeating content. The background texture is
static. All randomness comes from one seeded generator, so a spec always
renders to the identical pair of volumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, check_seed
from .volumes import DepthVolume, FrameDims, IntensityVolume

__all__ = ["ObjectSpec", "SceneSpec", "synth_scene", "default_scene"]

#: The fixed scene look: ramp depths (top, bottom row), texture std, guide level.
DEPTH_NEAR = 7.0
DEPTH_FAR = 10.0
TEXTURE_AMP = 0.05
BASE_INTENSITY = 0.45


@dataclass(frozen=True)
class ObjectSpec:
    """A translating rectangle: top-left start, size, constant depth and
    intensity offset, velocity in pixels per frame."""

    x0: int
    y0: int
    width: int
    height: int
    depth: float
    contrast: float
    vx: float = 0.0
    vy: float = 0.0

    def __post_init__(self):
        for name in ("depth", "contrast", "vx", "vy"):
            if not np.isfinite(getattr(self, name)):
                raise DataError(f"object {name} must be finite, got {getattr(self, name)}")

    def position(self, t: int) -> tuple[int, int]:
        """Top-left corner at frame t, rounded to the pixel grid."""
        return (int(round(self.x0 + self.vx * t)), int(round(self.y0 + self.vy * t)))


@dataclass(frozen=True)
class SceneSpec:
    dims: FrameDims = FrameDims(64, 64, 16)
    seed: int = 0
    objects: tuple[ObjectSpec, ...] = field(default_factory=tuple)

    def __post_init__(self):
        check_seed(self.seed)
        for i, obj in enumerate(self.objects):
            if obj.width < 1 or obj.height < 1:
                raise DataError(f"object {i} has empty extent")
            for t in range(self.dims.frames):
                x, y = obj.position(t)
                if x < 0 or y < 0 or x + obj.width > self.dims.width \
                        or y + obj.height > self.dims.height:
                    raise DataError(
                        f"object {i} leaves the frame at t={t} "
                        f"(top-left ({x}, {y}), size {obj.width}x{obj.height})")


def _background_depth(dims: FrameDims) -> np.ndarray:
    w, h = dims.width, dims.height
    ys = np.arange(h, dtype=np.float64)[:, None]
    xs = np.arange(w, dtype=np.float64)[None, :]
    depth = DEPTH_FAR - (DEPTH_FAR - DEPTH_NEAR) * (ys / max(h - 1, 1))
    # mild horizontal tilt keeps rows from being exactly constant
    return depth + 0.3 * (xs / max(w - 1, 1))


def synth_scene(spec: SceneSpec) -> tuple[DepthVolume, IntensityVolume]:
    """Render the spec into a depth volume and its registered intensity guide."""
    dims = spec.dims
    rng = np.random.default_rng(spec.seed)
    depth_bg = _background_depth(dims)
    bg_texture = TEXTURE_AMP * rng.standard_normal((dims.height, dims.width))
    obj_textures = [TEXTURE_AMP * rng.standard_normal((o.height, o.width))
                    for o in spec.objects]

    depth_frames = np.empty((dims.frames, dims.height, dims.width))
    inten_frames = np.empty_like(depth_frames)
    for t in range(dims.frames):
        d = depth_bg.copy()
        g = BASE_INTENSITY + bg_texture
        for obj, tex in zip(spec.objects, obj_textures):
            x, y = obj.position(t)
            d[y:y + obj.height, x:x + obj.width] = obj.depth
            g[y:y + obj.height, x:x + obj.width] = \
                BASE_INTENSITY + obj.contrast + tex
        depth_frames[t] = d
        inten_frames[t] = np.clip(g, 0.0, 1.0)

    return (DepthVolume.from_frames(depth_frames),
            IntensityVolume.from_frames(inten_frames))


def default_scene(dims: FrameDims = SceneSpec.dims, seed: int = SceneSpec.seed) -> SceneSpec:
    """One bright rectangle sliding right over the ramp, sized to stay in frame."""
    w = max(4, dims.width * 5 // 16)
    h = max(4, dims.height // 4)
    vx = 2.0
    x0 = max(0, dims.width // 16)
    # slow the slide down if the default speed would exit the frame
    travel = dims.width - x0 - w - 1
    if vx * (dims.frames - 1) > travel:
        vx = float(travel // max(dims.frames - 1, 1))
    obj = ObjectSpec(x0=x0, y0=dims.height * 3 // 8, width=w, height=h,
                     depth=2.0, contrast=0.35, vx=vx, vy=0.0)
    return SceneSpec(dims=dims, seed=seed, objects=(obj,))
