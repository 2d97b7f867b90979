"""Deterministic synthetic panoptic scenes.

Images contain 1-5 colored geometric shapes (countable 'thing' classes)
drawn back to front over a flat or gradient background ('stuff'). Ground
truth masks cover visible pixels only, so they never overlap. Generation is
a pure function of (seed, index): the same pair always yields bitwise
identical output. ``SyntheticDataset`` renders each scene the first time it
is read and keeps it (palette-indexed, see below), so a run holds only the
scenes it has read.

The two background styles are texture variants of a single background
class, which keeps the toy label space at 4 classes plus void. The class
table (``CLASS_TABLE``) and the scene ranges are module constants; a
``SceneSpec`` sets only the seed and the image size.

The class and instance maps are drawn as int8, since their ids stay in 0..5
(4 classes, at most ``MAX_SHAPES`` instances): a kept 64x64 scene holds
8 KiB of labels where int64 maps took 64 KiB. ``PanopticMap`` keeps int8
maps as they are, and every consumer widens the ids before computing with
them.

A split does not keep a scene's float64 image (96 KiB at 64x64, 384 KiB at
128x128). Every pixel is either background, whose colour depends only on
the row, or the flat colour of the shape drawn last over it, so the split
keeps a palette of those colours and a uint8 map of indices into it: under
15 KiB per 64x64 scene with the labels. A read rebuilds the image with
one ``np.take``, a copy of the rendered values, so it equals ``generate``'s
image byte for byte.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError
from .panoptic import PanopticMap

_SHAPE_COLORS = {
    "circle": (0.85, 0.15, 0.15),
    "rectangle": (0.10, 0.70, 0.20),
    "triangle": (0.15, 0.25, 0.85),
}
SHAPE_KINDS = tuple(_SHAPE_COLORS)    # thing class ids 1, 2, 3 in this order
BACKGROUND_KINDS = ("flat", "gradient")
MIN_SHAPES, MAX_SHAPES = 1, 5
MIN_RADIUS, MAX_RADIUS = 6, 13
COLOR_JITTER = 0.08
MIN_SEGMENT_PX = 8


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


CLASS_TABLE = ClassTable(("background",) + SHAPE_KINDS,
                         frozenset(range(1, 1 + len(SHAPE_KINDS))))


@dataclass(frozen=True)
class SceneSpec:
    seed: int = 7
    height: int = 64
    width: int = 64

    def __post_init__(self):
        if 2 * MAX_RADIUS + 2 > min(self.height, self.width):
            raise ConfigError(
                f"shapes of radius {MAX_RADIUS} cannot fit a "
                f"{self.height}x{self.width} image"
            )


def _jitter(rng, base, amp):
    return np.clip(np.asarray(base) + rng.uniform(-amp, amp, 3), 0.0, 1.0)


def _shape_mask(kind, rng, spec, xx, yy):
    h, w = spec.height, spec.width
    r = int(rng.integers(MIN_RADIUS, MAX_RADIUS + 1))
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

    kind = BACKGROUND_KINDS[int(rng.integers(len(BACKGROUND_KINDS)))]
    if kind == "flat":
        color = _jitter(rng, (0.72, 0.72, 0.70), COLOR_JITTER)
        img = np.broadcast_to(color, (h, w, 3)).copy()
    else:
        top = _jitter(rng, (0.55, 0.60, 0.65), COLOR_JITTER)
        bottom = _jitter(rng, (0.85, 0.87, 0.90), COLOR_JITTER)
        t = (yy / max(h - 1, 1))[:, :, None]
        img = top * (1 - t) + bottom * t

    class_map = np.zeros((h, w), dtype=np.int8)
    instance_map = np.zeros((h, w), dtype=np.int8)

    n_shapes = int(rng.integers(MIN_SHAPES, MAX_SHAPES + 1))
    for i in range(n_shapes):
        k = int(rng.integers(len(SHAPE_KINDS)))
        shape = SHAPE_KINDS[k]
        mask = _shape_mask(shape, rng, spec, xx, yy)
        color = _jitter(rng, _SHAPE_COLORS[shape], COLOR_JITTER)
        img[mask] = color
        class_map[mask] = 1 + k
        instance_map[mask] = i + 1
    return img, PanopticMap(class_map, instance_map), n_shapes


def generate(spec, index):
    """Render scene ``index``; pure function of (spec.seed, index).

    Scenes where occlusion leaves any segment below ``MIN_SEGMENT_PX``
    visible pixels are resampled with a derived sub-seed.
    """
    for attempt in range(100):
        rng = np.random.default_rng([spec.seed, index, attempt])
        img, gt, n_shapes = _render(spec, rng)
        areas = np.bincount(gt.instance_map.reshape(-1), minlength=n_shapes + 1)
        if (areas[: n_shapes + 1] >= MIN_SEGMENT_PX).all():
            return img, gt
    raise RuntimeError(f"could not render a valid scene for index {index}")


def augment_flip(img, gt, rng, prob=0.5):
    """Horizontally flip image and ground truth together with ``prob``."""
    if rng.random() < prob:
        return np.ascontiguousarray(img[:, ::-1]), gt.flip_horizontal()
    return img, gt


class _Split(Sequence):
    """Read-only sequence of the scenes ``start`` .. ``start + size - 1``.

    Scene ``i`` is rendered by ``generate`` the first time it is read and
    kept as three parts: a float64 palette (one row per image row of
    background colour, then one row per shape colour), a map of indices into
    it (uint8, or uint16 once the palette has more than 256 rows) and the
    int8 label maps. The palette is checked against the render byte for byte
    when the scene is kept. Each read builds a new image from the palette
    with one ``np.take`` (≈20 µs at 64x64, ≈80 µs at 128x128) and returns
    it with the kept ground truth. Both are read-only, so a caller's
    in-place write raises instead of changing every later read. Indexing,
    slicing (which returns a list) and iteration behave like a list's.
    """

    def __init__(self, spec, start, size):
        self._spec, self._start = spec, start
        self._scenes = [None] * size

    def __len__(self):
        return len(self._scenes)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(len(self))[index]]
        i = range(len(self))[index]
        if self._scenes[i] is None:
            img, gt = generate(self._spec, self._start + i)
            for array in (gt.class_map, gt.instance_map):
                array.flags.writeable = False
            self._scenes[i] = _palette_indexed(img, gt, self._start + i) + (gt,)
        palette, colour, gt = self._scenes[i]
        img = np.take(palette, colour, axis=0)
        img.flags.writeable = False
        return img, gt


def _palette_indexed(img, gt, index):
    """``(palette, colour)`` of a rendered scene, ``colour`` indexing ``palette``'s
    rows; ``ContractError`` unless ``np.take(palette, colour, axis=0)`` is
    ``img`` byte for byte.

    Shape ``k`` has instance id ``k`` (1-based) and is visible, as
    ``generate`` guarantees; its palette row is the colour of its first pixel.
    """
    h = img.shape[0]
    instance = gt.instance_map.astype(np.intp)
    background = instance == 0
    # each row's first background pixel (column 0 in a row with none, whose
    # palette row is then never read), then each shape's first pixel
    rows = img[np.arange(h), np.argmax(background, axis=1)]
    _, first = np.unique(instance, return_index=True)
    palette = np.concatenate([rows, img.reshape(-1, 3)[first[1:]]])
    colour = np.where(background, np.arange(h)[:, None], h - 1 + instance)
    colour = colour.astype(np.uint8 if len(palette) <= 256 else np.uint16)
    if np.take(palette, colour, axis=0).tobytes() != img.tobytes():
        raise ContractError(f"scene {index} does not fit a row and shape colour palette")
    return palette, colour


class SyntheticDataset:
    """Train/validation splits of synthetic scenes, each rendered on first read.

    Train examples use indices 0..train_size-1, validation examples a
    disjoint index range, so the splits never share a scene.
    """

    VAL_OFFSET = 1_000_000

    def __init__(self, spec, train_size, val_size):
        if train_size < 0 or val_size < 0:
            raise ConfigError(
                f"split sizes must be non-negative, got {train_size} and {val_size}"
            )
        self.spec = spec
        self.class_table = CLASS_TABLE
        self.train = _Split(spec, 0, train_size)
        self.val = _Split(spec, self.VAL_OFFSET, val_size)
