import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from kmaxseg.data import (CLASS_TABLE, MIN_SEGMENT_PX, SceneSpec, SyntheticDataset,
                          augment_flip, generate)
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


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), index=st.integers(0, 2**20))
def test_every_scene_has_one_stuff_segment_and_one_to_five_shapes(seed, index):
    _, gt = generate(SceneSpec(seed=seed), index)
    classes = [c for c, _ in _segment_areas(gt)]
    assert classes.count(0) == 1
    assert 1 <= sum(c in CLASS_TABLE.thing_ids for c in classes) <= 5


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
            assert area >= MIN_SEGMENT_PX


def test_thing_stuff_tags_cover_all_emitted_classes():
    table = CLASS_TABLE
    seen = set()
    for index in range(20):
        _, gt = generate(SPEC, index)
        seen |= {c for c, _ in _segment_areas(gt)}
    assert seen <= (set(table.thing_ids) | set(table.stuff_ids))
    assert table.num_classes == 4
    assert table.thing_ids == frozenset({1, 2, 3})


def test_impossible_spec_raises():
    with pytest.raises(ConfigError, match="radius 13 cannot fit a 16x16 image"):
        SceneSpec(seed=0, height=16, width=16)


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
