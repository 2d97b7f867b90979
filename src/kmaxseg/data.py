"""Deterministic synthetic panoptic scenes.

Images contain 1-5 colored geometric shapes (countable 'thing' classes)
drawn back to front over a flat or gradient background ('stuff'). Ground
truth masks cover visible pixels only, so they never overlap. Generation is
a pure function of (seed, index): the same pair always yields bitwise
identical output.

The two background styles are texture variants of a single background
class, which keeps the toy label space at 4 classes plus void.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .panoptic import PanopticMap

_SHAPE_COLORS = {
    "circle": (0.85, 0.15, 0.15),
    "rectangle": (0.10, 0.70, 0.20),
    "triangle": (0.15, 0.25, 0.85),
}


@dataclass(frozen=True)
class ClassTable:
    """Static class schema: names plus thing/stuff tags."""

    names: tuple
    thing_ids: frozenset

    @property
    def num_classes(self):
        return len(self.names)

    @property
    def stuff_ids(self):
        return frozenset(range(self.num_classes)) - self.thing_ids


@dataclass(frozen=True)
class SceneSpec:
    seed: int = 7
    height: int = 64
    width: int = 64
    min_shapes: int = 1
    max_shapes: int = 5
    shape_kinds: tuple = ("circle", "rectangle", "triangle")
    background_kinds: tuple = ("flat", "gradient")
    color_jitter: float = 0.08
    min_radius: int = 6
    max_radius: int = 13
    min_segment_px: int = 8

    def __post_init__(self):
        if 2 * self.max_radius + 2 > min(self.height, self.width):
            raise ConfigError(
                f"shapes of radius {self.max_radius} cannot fit a "
                f"{self.height}x{self.width} image"
            )
        if not (1 <= self.min_shapes <= self.max_shapes):
            raise ConfigError(
                f"invalid shape count range [{self.min_shapes}, {self.max_shapes}]"
            )
        unknown = set(self.shape_kinds) - set(_SHAPE_COLORS)
        if unknown:
            raise ConfigError(f"unknown shape kinds {sorted(unknown)}")

    def class_table(self):
        names = ("background",) + self.shape_kinds
        return ClassTable(names, frozenset(range(1, len(names))))

    def shape_class_id(self, kind):
        return 1 + self.shape_kinds.index(kind)


def _jitter(rng, base, amp):
    return np.clip(np.asarray(base) + rng.uniform(-amp, amp, 3), 0.0, 1.0)


def _shape_mask(kind, rng, spec, xx, yy):
    h, w = spec.height, spec.width
    r = int(rng.integers(spec.min_radius, spec.max_radius + 1))
    cx = int(rng.integers(r + 1, w - r - 1))
    cy = int(rng.integers(r + 1, h - r - 1))
    if kind == "circle":
        return (xx - cx) ** 2 + (yy - cy) ** 2 <= r * r
    if kind == "rectangle":
        a = int(rng.integers(max(3, r // 2), r + 1))
        b = int(rng.integers(max(3, r // 2), r + 1))
        return (np.abs(xx - cx) <= a) & (np.abs(yy - cy) <= b)
    # triangle with the apex up; sign-agnostic half-plane test so the
    # winding of the vertices cannot empty the mask
    v0 = np.array([cx, cy - r], dtype=float)
    v1 = np.array([cx - r, cy + r], dtype=float)
    v2 = np.array([cx + r, cy + r], dtype=float)
    def half_plane(a, b):
        return (b[0] - a[0]) * (yy - a[1]) - (b[1] - a[1]) * (xx - a[0])
    s0, s1, s2 = half_plane(v0, v1), half_plane(v1, v2), half_plane(v2, v0)
    return ((s0 >= 0) & (s1 >= 0) & (s2 >= 0)) | ((s0 <= 0) & (s1 <= 0) & (s2 <= 0))


def _render(spec, rng):
    h, w = spec.height, spec.width
    yy, xx = np.mgrid[0:h, 0:w]

    kind = spec.background_kinds[int(rng.integers(len(spec.background_kinds)))]
    if kind == "flat":
        color = _jitter(rng, (0.72, 0.72, 0.70), spec.color_jitter)
        img = np.broadcast_to(color, (h, w, 3)).copy()
    else:
        top = _jitter(rng, (0.55, 0.60, 0.65), spec.color_jitter)
        bottom = _jitter(rng, (0.85, 0.87, 0.90), spec.color_jitter)
        t = (yy / max(h - 1, 1))[:, :, None]
        img = top * (1 - t) + bottom * t

    class_map = np.zeros((h, w), dtype=np.int64)
    instance_map = np.zeros((h, w), dtype=np.int64)

    n_shapes = int(rng.integers(spec.min_shapes, spec.max_shapes + 1))
    for i in range(n_shapes):
        shape = spec.shape_kinds[int(rng.integers(len(spec.shape_kinds)))]
        mask = _shape_mask(shape, rng, spec, xx, yy)
        color = _jitter(rng, _SHAPE_COLORS[shape], spec.color_jitter)
        img[mask] = color
        class_map[mask] = spec.shape_class_id(shape)
        instance_map[mask] = i + 1
    return img, PanopticMap(class_map, instance_map), n_shapes


def generate(spec, index):
    """Render scene ``index``; pure function of (spec.seed, index).

    Scenes where occlusion leaves any segment below ``min_segment_px``
    visible pixels are resampled with a derived sub-seed.
    """
    for attempt in range(100):
        rng = np.random.default_rng([spec.seed, index, attempt])
        img, gt, n_shapes = _render(spec, rng)
        areas = np.bincount(gt.instance_map.reshape(-1), minlength=n_shapes + 1)
        if (areas[: n_shapes + 1] >= spec.min_segment_px).all():
            return img, gt
    raise RuntimeError(f"could not render a valid scene for index {index}")


def augment_flip(img, gt, rng, prob=0.5):
    """Horizontally flip image and ground truth together with ``prob``."""
    if rng.random() < prob:
        return np.ascontiguousarray(img[:, ::-1]), gt.flip_horizontal()
    return img, gt


class SyntheticDataset:
    """Pre-rendered train/validation splits of synthetic scenes.

    Train examples use indices 0..train_size-1, validation examples a
    disjoint index range, so the splits never share a scene.
    """

    VAL_OFFSET = 1_000_000

    def __init__(self, spec, train_size, val_size):
        self.spec = spec
        self.class_table = spec.class_table()
        self.train = [generate(spec, i) for i in range(train_size)]
        self.val = [generate(spec, i)
                    for i in range(self.VAL_OFFSET, self.VAL_OFFSET + val_size)]

