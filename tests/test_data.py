import numpy as np
import pytest

from kmaxseg.data import SceneSpec, SyntheticDataset, augment_flip, generate
from kmaxseg.errors import ConfigError
from kmaxseg.panoptic import VOID
from kmaxseg.ppm import read_ppm, write_ppm


SPEC = SceneSpec(seed=11)


def _segment_areas(gt):
    """Pixel count of each non-void (class id, instance id) segment."""
    index, keys = gt.segment_index()
    areas = np.bincount(index, minlength=len(keys)).tolist()
    return {(c, i): a for (c, i), a in zip(keys.tolist(), areas) if c != VOID}


def test_generation_is_deterministic():
    img1, gt1 = generate(SPEC, 3)
    img2, gt2 = generate(SPEC, 3)
    assert np.array_equal(img1, img2)
    assert np.array_equal(gt1.class_map, gt2.class_map)
    assert np.array_equal(gt1.instance_map, gt2.instance_map)
    # different indices give different scenes
    img3, _ = generate(SPEC, 4)
    assert not np.array_equal(img1, img3)


def test_single_circle_on_flat_background_has_two_segments():
    spec = SceneSpec(seed=1, min_shapes=1, max_shapes=1,
                     shape_kinds=("circle",), background_kinds=("flat",))
    _, gt = generate(spec, 0)
    segs = _segment_areas(gt)
    assert len(segs) == 2
    assert sorted(c for c, _ in segs) == [0, 1]


def test_segment_areas_partition_the_image():
    for index in range(10):
        _, gt = generate(SPEC, index)
        total = sum(_segment_areas(gt).values())
        void = int((gt.class_map == -1).sum())
        assert total + void == gt.height * gt.width


def test_masks_never_overlap():
    for index in range(10):
        _, gt = generate(SPEC, index)
        index, keys = gt.segment_index()
        coverage = np.zeros(gt.height * gt.width, dtype=np.int64)
        for k, (cls, _) in enumerate(keys.tolist()):
            if cls != VOID:
                coverage += index == k
        assert coverage.max() <= 1


def test_every_segment_meets_minimum_size():
    for index in range(20):
        _, gt = generate(SPEC, index)
        for area in _segment_areas(gt).values():
            assert area >= SPEC.min_segment_px


def test_thing_stuff_tags_cover_all_emitted_classes():
    table = SPEC.class_table()
    seen = set()
    for index in range(20):
        _, gt = generate(SPEC, index)
        seen |= {c for c, _ in _segment_areas(gt)}
    assert seen <= (set(table.thing_ids) | set(table.stuff_ids))
    assert table.num_classes == 4
    assert table.thing_ids == frozenset({1, 2, 3})


def test_impossible_spec_raises():
    with pytest.raises(ConfigError):
        SceneSpec(seed=0, height=16, width=16, max_radius=13)
    with pytest.raises(ConfigError):
        SceneSpec(seed=0, min_shapes=3, max_shapes=2)


def test_forced_flip_twice_is_identity():
    img, gt = generate(SPEC, 5)
    rng = np.random.default_rng(0)
    f_img, f_gt = augment_flip(img, gt, rng, prob=1.0)
    assert not np.array_equal(f_img, img)
    g_img, g_gt = augment_flip(f_img, f_gt, rng, prob=1.0)
    assert np.array_equal(g_img, img)
    assert np.array_equal(g_gt.class_map, gt.class_map)
    assert np.array_equal(g_gt.instance_map, gt.instance_map)


def test_flip_preserves_areas_and_class_histogram():
    img, gt = generate(SPEC, 6)
    _, flipped = augment_flip(img, gt, np.random.default_rng(0), prob=1.0)
    assert _segment_areas(gt) == _segment_areas(flipped)
    assert np.array_equal(np.bincount(gt.class_map.reshape(-1)),
                          np.bincount(flipped.class_map.reshape(-1)))


def test_image_values_in_unit_range():
    for index in range(5):
        img, _ = generate(SPEC, index)
        assert img.min() >= 0.0 and img.max() <= 1.0
        assert img.shape == (64, 64, 3)


def test_dataset_splits_are_disjoint_and_sized():
    ds = SyntheticDataset(SPEC, train_size=4, val_size=2)
    assert len(ds.train) == 4 and len(ds.val) == 2
    for t_img, _ in ds.train:
        for v_img, _ in ds.val:
            assert not np.array_equal(t_img, v_img)


def test_ppm_round_trip(tmp_path):
    img = np.random.default_rng(1).uniform(size=(8, 6, 3))
    path = tmp_path / "img.ppm"
    write_ppm(path, img)
    back = read_ppm(path)
    assert back.shape == (8, 6, 3)
    assert np.max(np.abs(back.astype(float) / 255.0 - img)) < 1 / 255.0 + 1e-9
