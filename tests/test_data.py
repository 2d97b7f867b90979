import tracemalloc

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from kmaxseg import data
from kmaxseg.data import (CLASS_TABLE, MIN_SEGMENT_PX, SceneSpec, SyntheticDataset,
                          augment_flip, generate)
from kmaxseg.errors import ConfigError, ContractError
from kmaxseg.panoptic import VOID
from kmaxseg.ppm import write_ppm


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


def _same_scene(a, b):
    return (np.array_equal(a[0], b[0]) and np.array_equal(a[1].class_map, b[1].class_map)
            and np.array_equal(a[1].instance_map, b[1].instance_map))


def test_split_scenes_equal_generate_bitwise():
    ds = SyntheticDataset(SPEC, train_size=3, val_size=2)
    for i in range(3):
        assert _same_scene(ds.train[i], generate(SPEC, i))
    for i in range(2):
        assert _same_scene(ds.val[i], generate(SPEC, SyntheticDataset.VAL_OFFSET + i))


def _same_bytes(a, b):
    """Whether two (image, ground truth) scenes hold the same bytes and dtypes."""
    return all(x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
               for x, y in ((a[0], b[0]), (a[1].class_map, b[1].class_map),
                            (a[1].instance_map, b[1].instance_map)))


def test_splits_index_slice_and_iterate_like_lists():
    ds = SyntheticDataset(SPEC, train_size=4, val_size=2)
    scenes = [generate(SPEC, i) for i in range(4)]
    assert len(ds.train) == 4 and len(ds.val) == 2
    # each read builds a new image, so equal reads are compared by their bytes
    assert _same_bytes(ds.train[-1], ds.train[3]) and _same_bytes(ds.train[-4], ds.train[0])
    assert _same_bytes(ds.train[np.int64(2)], ds.train[2])
    assert _same_bytes(ds.train[np.int64(-1)], ds.train[3])
    for index in (slice(1, 3), slice(None, None, -1), slice(-3, None, 2), slice(5, 9)):
        got = ds.train[index]
        assert isinstance(got, list) and len(got) == len(scenes[index])
        assert all(_same_scene(a, b) for a, b in zip(got, scenes[index]))
    assert all(_same_bytes(s, ds.train[i]) for i, s in enumerate(ds.train))
    assert all(_same_scene(a, b) for a, b in zip(list(ds.train), scenes))
    for index in (4, -5, np.int64(4)):
        with pytest.raises(IndexError):
            ds.train[index]
    assert list(SyntheticDataset(SPEC, 0, 0).train) == []


def test_building_a_dataset_renders_nothing_and_each_scene_once(generate_calls):
    ds = SyntheticDataset(SPEC, train_size=256, val_size=16)
    assert generate_calls == []
    for split, index in ((ds.train, 5), (ds.train, 5), (ds.train, -251), (ds.val, 0)):
        split[index]
    assert generate_calls == [5, SyntheticDataset.VAL_OFFSET]


@pytest.mark.parametrize("size", [64, 128])
def test_split_reads_equal_generate_byte_for_byte(size, generate_calls):
    for seed in (0, 1, 2):
        spec = SceneSpec(seed=seed, height=size, width=size)
        ds = SyntheticDataset(spec, train_size=24, val_size=8)
        for split, start in ((ds.train, 0), (ds.val, SyntheticDataset.VAL_OFFSET)):
            for _ in range(2):   # the first read renders the scene, the second rebuilds it
                for i, scene in enumerate(split):
                    assert _same_bytes(scene, generate(spec, start + i))
        assert generate_calls == (list(range(24))
                                  + [SyntheticDataset.VAL_OFFSET + i for i in range(8)])
        generate_calls.clear()


def test_a_split_keeps_under_16_kib_per_64_px_scene():
    ds = SyntheticDataset(SPEC, train_size=64, val_size=0)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in ds.train:
            pass
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # the image alone is 96 KiB; a palette, a uint8 index map and int8 labels remain
    assert kept / 64 < 16 * 1024


def test_a_palette_of_more_than_256_rows_reads_back_byte_for_byte():
    spec = SceneSpec(seed=3, height=260, width=32)   # 260 background rows + shapes
    ds = SyntheticDataset(spec, train_size=2, val_size=0)
    for i, scene in enumerate(ds.train):
        assert _same_bytes(scene, generate(spec, i))


def test_a_scene_off_its_palette_raises_contract_error(monkeypatch):
    def speckled(spec, index):
        img, gt = generate(spec, index)
        img[0, 0] += 1e-9   # a background pixel unlike the rest of its row
        return img, gt

    monkeypatch.setattr(data, "generate", speckled)
    ds = SyntheticDataset(SPEC, train_size=1, val_size=0)
    with pytest.raises(ContractError, match="scene 0 does not fit"):
        ds.train[0]


def test_split_arrays_are_read_only():
    ds = SyntheticDataset(SPEC, train_size=1, val_size=1)
    for img, gt in (ds.train[0], ds.val[0]):
        for array in (img, gt.class_map, gt.instance_map):
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 0
    # a flip copies, so augmentation never needs to write the stored scene
    img, gt = ds.train[0]
    flipped, _ = augment_flip(img, gt, np.random.default_rng(0), prob=1.0)
    flipped[0, 0] = 0.0
    assert _same_scene(ds.train[0], generate(SPEC, 0))


class _WideLabels:
    """The ``np`` of ``kmaxseg.data`` with ``int8`` read as ``int64``."""

    def __getattr__(self, name):
        return np.int64 if name == "int8" else getattr(np, name)


def test_generated_label_maps_are_int8_and_equal_an_int64_render(monkeypatch):
    ds = SyntheticDataset(SPEC, train_size=12, val_size=0)
    scenes = list(ds.train)
    monkeypatch.setattr(data, "np", _WideLabels())
    for i, (img, gt) in enumerate(scenes):
        assert gt.class_map.dtype == gt.instance_map.dtype == np.int8
        assert not gt.class_map.flags.writeable and not gt.instance_map.flags.writeable
        wide_img, wide = generate(SPEC, i)
        assert wide.class_map.dtype == wide.instance_map.dtype == np.int64
        assert img.tobytes() == wide_img.tobytes()
        assert np.array_equal(gt.class_map, wide.class_map)
        assert np.array_equal(gt.instance_map, wide.instance_map)


@pytest.mark.parametrize("sizes", [(-3, 2), (2, -1)])
def test_negative_split_size_raises_config_error(sizes):
    with pytest.raises(ConfigError, match="split sizes must be non-negative"):
        SyntheticDataset(SPEC, *sizes)


def test_ppm_round_trip(tmp_path):
    img = np.random.default_rng(1).uniform(size=(8, 6, 3))
    path = tmp_path / "img.ppm"
    write_ppm(path, img)
    header, raw = b"P6\n6 8\n255\n", path.read_bytes()
    assert raw.startswith(header)
    back = np.frombuffer(raw[len(header):], dtype=np.uint8).reshape(8, 6, 3)
    assert back.shape == (8, 6, 3)
    assert np.max(np.abs(back.astype(float) / 255.0 - img)) < 1 / 255.0 + 1e-9
