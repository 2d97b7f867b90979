import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from kmaxseg.config import InferConfig
from kmaxseg.data import CLASS_TABLE, SceneSpec
from kmaxseg.errors import ConfigError, ContractError, ShapeError
from kmaxseg.metrics import (MIN_SHARE, PQStat, evaluate_model, evaluation_report,
                             merge_masks, panoptic_quality, run_in_shares)
from kmaxseg.panoptic import VOID, PanopticMap, PredictionSet
from kmaxseg.tensor import Tensor
from kmaxseg.visualize import assignment_image, cluster_color, panoptic_image


def _pred_from_masks(masks, classes, num_classes, h, w, sharp=60.0):
    """Near-one-hot prediction with one query per given (mask, class) pair."""
    hw = h * w
    n = len(masks)
    mask_logits = np.full((hw, n), -sharp)
    class_logits = np.zeros((n, num_classes + 1))
    for i, (mask, cls) in enumerate(zip(masks, classes)):
        mask_logits[np.asarray(mask).reshape(-1) > 0, i] = sharp
        class_logits[i, cls] = sharp
    return PredictionSet(Tensor(mask_logits), Tensor(class_logits), h, w)


def _merge(pred, thing_ids, **kw):
    """``merge_masks`` at ``InferConfig()``'s thresholds, but for those ``kw`` sets."""
    return merge_masks(pred, InferConfig(**kw), thing_ids)


def _labels(pmap):
    """Non-void (class id, instance id) pairs of a labeling, in canonical order."""
    _, keys = pmap.segment_index()
    return [(c, i) for c, i in keys.tolist() if c != VOID]


def test_merge_two_disjoint_things_become_two_instances():
    h = w = 8
    m1 = np.zeros((h, w)); m1[:4, :4] = 1
    m2 = np.zeros((h, w)); m2[4:, 4:] = 1
    pred = _pred_from_masks([m1, m2], [1, 1], num_classes=3, h=h, w=w)
    result = _merge(pred, thing_ids={1, 2})
    assert _labels(result) == [(1, 1), (1, 2)]
    assert result.instance_map[0, 0] != result.instance_map[7, 7]
    assert np.all(result.class_map[:4, :4] == 1)


def test_merge_all_below_confidence_gives_void():
    h = w = 4
    mask_logits = np.zeros((16, 3))
    class_logits = np.zeros((3, 4))  # uniform -> confidence 0.25 < 0.3
    pred = PredictionSet(Tensor(mask_logits), Tensor(class_logits), h, w)
    result = _merge(pred, conf_thresh=0.3, thing_ids={1})
    assert np.all(result.class_map == VOID)
    assert np.all(result.instance_map == 0)


@pytest.mark.parametrize("mask_binarize", [1.5, -0.5, float("nan")])
def test_merge_rejects_a_mask_binarize_outside_the_unit_interval(mask_binarize):
    h = w = 4
    pred = _pred_from_masks([np.ones((h, w))], [0], num_classes=2, h=h, w=w)
    assert np.all(_merge(pred, thing_ids=frozenset(), mask_binarize=0.5).class_map == 0)
    # InferConfig.validate's message, the one Config.validate raises
    with pytest.raises(ConfigError, match=r"infer\.mask_binarize must lie in \[0, 1\]"):
        _merge(pred, thing_ids=frozenset(), mask_binarize=mask_binarize)


@pytest.mark.parametrize("key", ["conf_thresh", "overlap_thresh"])
def test_merge_checks_each_threshold_through_infer_config_validate(key):
    pred = _pred_from_masks([np.ones((4, 4))], [0], num_classes=2, h=4, w=4)
    with pytest.raises(ConfigError, match=rf"infer\.{key} must lie in \[0, 1\], got 1\.5"):
        merge_masks(pred, InferConfig(**{key: 1.5}), frozenset())


def test_merge_takes_every_threshold_from_its_caller():
    # InferConfig is the one home of the thresholds, and thing_ids has no default
    pred = _pred_from_masks([np.ones((4, 4))], [0], num_classes=2, h=4, w=4)
    with pytest.raises(TypeError, match="thing_ids"):
        merge_masks(pred, InferConfig())
    with pytest.raises(TypeError, match="conf_thresh"):
        merge_masks(pred, conf_thresh=0.3, overlap_thresh=0.8, mask_binarize=0.5,
                    thing_ids=frozenset())


def test_merge_duplicate_stuff_queries_collapse():
    h = w = 8
    m1 = np.zeros((h, w)); m1[:, :4] = 1
    m2 = np.zeros((h, w)); m2[:, 4:] = 1
    pred = _pred_from_masks([m1, m2], [0, 0], num_classes=3, h=h, w=w)
    result = _merge(pred, thing_ids={1, 2})
    assert _labels(result) == [(0, 0)]
    assert np.all(result.class_map == 0)
    assert np.all(result.instance_map == 0)


def test_merge_output_is_a_partition():
    rng = np.random.default_rng(0)
    for _ in range(20):
        h = w = 8
        pred = PredictionSet(Tensor(rng.normal(size=(64, 5)) * 3),
                             Tensor(rng.normal(size=(5, 4)) * 3), h, w)
        result = _merge(pred, thing_ids={1, 2})
        # exactly one label per pixel by construction; instances unique
        thing_ids = [inst for _, inst in _labels(result) if inst > 0]
        assert len(thing_ids) == len(set(thing_ids))


def test_merge_overlap_pruning_drops_buried_query():
    h = w = 4
    # query 0's binary mask covers 15 pixels (Z just above 0.5) but the more
    # confident query 1 outbids it on 13 of them; the retained fraction
    # 2/15 < 0.8 prunes query 0 and reassigns its pixels to query 1
    z0 = np.full(16, 0.55)
    z0[[0, 1]] = 0.9    # two pixels query 0 actually wins
    z0[15] = 0.05       # query 1's anchor pixel (its only binary-mask pixel)
    mask_logits = np.zeros((16, 2))
    mask_logits[:, 1] = np.log((1 - z0) / z0)
    class_logits = np.zeros((2, 3))
    class_logits[0, 0] = np.log(3.0)     # p(class 0) = 0.6
    class_logits[1, 1] = np.log(198.0)   # p(class 1) = 0.99
    pred = PredictionSet(Tensor(mask_logits), Tensor(class_logits), h, w)

    result = _merge(pred, overlap_thresh=0.8, thing_ids={0, 1})
    kept = {cls for cls, _ in _labels(result)}
    assert kept == {1}
    assert np.all(result.class_map == 1)
    # without pruning both queries keep their pixels
    loose = _merge(pred, overlap_thresh=0.0, thing_ids={0, 1})
    assert {cls for cls, _ in _labels(loose)} == {0, 1}


def test_merge_keeps_a_query_whose_retained_fraction_equals_the_threshold():
    h, w = 2, 3
    # query 0 (class 0, confidence 0.6) has pixels 0-3 in its binary mask;
    # query 1 (class 1, confidence 0.99) outbids it on pixels 0 and 1, where
    # Z is 0.55 against 0.45, so query 0 retains exactly 2/4 of its mask
    z0 = np.array([0.55, 0.55, 0.9, 0.9, 0.05, 0.05])
    mask_logits = np.zeros((6, 2))
    mask_logits[:, 1] = np.log((1 - z0) / z0)
    class_logits = np.zeros((2, 3))
    class_logits[0, 0] = np.log(3.0)
    class_logits[1, 1] = np.log(198.0)
    pred = PredictionSet(Tensor(mask_logits), Tensor(class_logits), h, w)

    # the prune drops a query when won / area < overlap_thresh, so a tie keeps it
    kept = _merge(pred, overlap_thresh=0.5, thing_ids={0, 1})
    assert kept.class_map.tolist() == [[1, 1, 0], [0, 1, 1]]
    assert kept.instance_map.tolist() == [[2, 2, 1], [1, 2, 2]]
    dropped = _merge(pred, overlap_thresh=np.nextafter(0.5, 1.0), thing_ids={0, 1})
    assert dropped.class_map.tolist() == [[1, 1, 1], [1, 1, 1]]
    assert dropped.instance_map.tolist() == [[1, 1, 1], [1, 1, 1]]


def _gt_square():
    cls = np.zeros((8, 8), dtype=np.int64)
    inst = np.zeros((8, 8), dtype=np.int64)
    cls[2:6, 2:6] = 1
    inst[2:6, 2:6] = 1
    return PanopticMap(cls, inst)


def test_pq_perfect_prediction_is_one():
    gt = _gt_square()
    pred = PanopticMap(gt.class_map.copy(), gt.instance_map.copy())
    result = panoptic_quality(pred, gt, thing_ids={1})
    assert result["pq"] == pytest.approx(1.0)
    assert result["pq_things"] == pytest.approx(1.0)
    assert result["pq_stuff"] == pytest.approx(1.0)


def test_pq_hand_case_point_eight_iou_plus_fn():
    # one TP with IoU 0.8 and one FN of the same class:
    # PQ = 0.8 / (1 + 0.5*1) = 0.53333...
    cls = np.full((10, 10), VOID, dtype=np.int64)
    inst = np.zeros((10, 10), dtype=np.int64)
    cls[0, :5] = 1; inst[0, :5] = 1          # gt segment A (5 px)
    cls[9, :3] = 1; inst[9, :3] = 2          # gt segment B (3 px, missed)
    gt = PanopticMap(cls, inst)

    pcls = np.full((10, 10), VOID, dtype=np.int64)
    pinst = np.zeros((10, 10), dtype=np.int64)
    pcls[0, :4] = 1; pinst[0, :4] = 7        # overlap 4, union 5 -> IoU 0.8
    pred = PanopticMap(pcls, pinst)
    result = panoptic_quality(pred, gt, thing_ids={1})
    assert result["pq"] == pytest.approx(0.8 / 1.5, abs=1e-6)
    # PQ = SQ x RQ: the match's IoU times TP / (TP + FN/2)
    assert result["sq"] == pytest.approx(0.8, abs=1e-12)
    assert result["rq"] == pytest.approx(2 / 3, abs=1e-12)
    assert result["per_class"][1]["sq"] * result["per_class"][1]["rq"] == pytest.approx(
        result["pq"], abs=1e-12)


def test_sq_and_rq_split_things_from_stuff_by_hand():
    # thing class 1: one TP of IoU 0.5625 (9 of 16 px) and one FP;
    # stuff class 2: one perfect TP; class 3: only a FN
    cls = np.zeros((8, 8), dtype=np.int64)
    inst = np.zeros((8, 8), dtype=np.int64)
    cls[:, :4] = 2
    cls[0:4, 4:8] = 1; inst[0:4, 4:8] = 1
    cls[6:8, 6:8] = 3
    gt = PanopticMap(cls, inst)
    pcls, pinst = cls.copy(), inst.copy()
    pcls[0:4, 4:8] = 0; pinst[0:4, 4:8] = 0
    pcls[1:4, 5:8] = 1; pinst[1:4, 5:8] = 1       # 9 px inside the 16-px thing
    pcls[5, 4] = 1; pinst[5, 4] = 2                 # a lone false positive
    pcls[6:8, 6:8] = 0
    result = panoptic_quality(PanopticMap(pcls, pinst), gt, thing_ids={1})
    rows = result["per_class"]
    assert (rows[1]["sq"], rows[1]["rq"]) == (pytest.approx(9 / 16), pytest.approx(1 / 1.5))
    assert (rows[2]["sq"], rows[2]["rq"]) == (1.0, 1.0)
    assert (rows[3]["sq"], rows[3]["rq"], rows[3]["pq"]) == (0.0, 0.0, 0.0)   # tp = 0
    assert result["sq_things"] == pytest.approx(9 / 16)
    assert result["rq_things"] == pytest.approx(2 / 3)
    assert result["sq_stuff"] == pytest.approx(np.mean([rows[c]["sq"] for c in (0, 2, 3)]))
    assert result["rq"] == pytest.approx(np.mean([row["rq"] for row in rows.values()]))
    for row in rows.values():
        assert row["sq"] * row["rq"] == pytest.approx(row["pq"], abs=1e-12)


def test_miou_sums_both_images_before_dividing_by_hand():
    # image a: a void top row, stuff class 0, a 2x2 thing of class 1; the
    # prediction covers two void pixels with class 0, half the thing, and
    # one pixel of class 2, which the ground truth never holds
    gt_a = np.array([[VOID, VOID, VOID, VOID], [0, 1, 1, 0], [0, 1, 1, 0], [0, 0, 0, 0]])
    pred_a = np.array([[0, 0, VOID, VOID], [0, 1, 0, 0], [0, 1, 0, 0], [0, 0, 0, 2]])
    # image b: class 0 with one void pixel, predicted as class 0 everywhere
    gt_b = np.zeros((4, 4), dtype=np.int64)
    gt_b[0, 0] = VOID
    pred_b = np.zeros((4, 4), dtype=np.int64)
    pairs = [(PanopticMap(p, (p == 1).astype(np.int64)), PanopticMap(g, (g == 1).astype(np.int64)))
             for p, g in ((pred_a, gt_a), (pred_b, gt_b))]
    stat = PQStat()
    for pred, gt in pairs:
        stat.update(pred, gt)
    miou = stat.summarize(thing_ids={1})["miou"]

    ious = []
    for cls in (0, 1, 2):
        both = sum(int(((p.class_map == cls) & (g.class_map == cls)).sum()) for p, g in pairs)
        either = sum(int(((p.class_map == cls) | (g.class_map == cls)).sum()) for p, g in pairs)
        ious.append(both / either)
    assert miou == pytest.approx(np.mean(ious), abs=1e-15)
    # class 0: 7 + 15 of 12 + 16 px; class 1: 2 of 4; class 2: 0 of 1
    assert miou == pytest.approx((22 / 28 + 2 / 4 + 0 / 1) / 3, abs=1e-15)
    per_image = [panoptic_quality(pred, gt, thing_ids={1})["miou"] for pred, gt in pairs]
    assert per_image == pytest.approx([(7 / 12 + 2 / 4 + 0 / 1) / 3, 15 / 16], abs=1e-15)
    assert abs(miou - np.mean(per_image)) > 0.1


def test_pq_empty_prediction_is_zero():
    gt = _gt_square()
    pred = PanopticMap(np.full((8, 8), VOID, dtype=np.int64),
                       np.zeros((8, 8), dtype=np.int64))
    assert panoptic_quality(pred, gt, thing_ids={1})["pq"] == 0.0


def test_pq_invariant_to_instance_relabeling():
    rng = np.random.default_rng(1)
    for _ in range(50):
        cls = rng.integers(0, 3, size=(6, 6)).astype(np.int64)
        inst = rng.integers(0, 3, size=(6, 6)).astype(np.int64)
        pcls = rng.integers(0, 3, size=(6, 6)).astype(np.int64)
        pinst = rng.integers(0, 3, size=(6, 6)).astype(np.int64)
        gt = PanopticMap(cls, inst)
        pred = PanopticMap(pcls, pinst)
        base = panoptic_quality(pred, gt, thing_ids={1})["pq"]
        relabel = panoptic_quality(
            PanopticMap(pcls, pinst * 13 + 5),
            PanopticMap(cls, inst * 7 + 3),
            thing_ids={1})["pq"]
        assert base == pytest.approx(relabel, abs=1e-12)
        assert 0.0 <= base <= 1.0


def test_pq_matching_is_injective():
    rng = np.random.default_rng(2)
    for _ in range(20):
        cls = rng.integers(0, 2, size=(8, 8)).astype(np.int64)
        inst = rng.integers(0, 4, size=(8, 8)).astype(np.int64)
        gt = PanopticMap(cls, inst)
        pred = PanopticMap(rng.integers(0, 2, size=(8, 8)).astype(np.int64),
                           rng.integers(0, 4, size=(8, 8)).astype(np.int64))
        stat = PQStat().update(pred, gt)
        res = stat.summarize({1})
        for cls_id, row in res["per_class"].items():
            # TPs can never exceed the number of gt or pred segments
            assert row["tp"] <= row["tp"] + row["fn"]
            assert row["tp"] <= row["tp"] + row["fp"]


def test_pq_shape_mismatch_raises():
    gt = _gt_square()
    pred = PanopticMap(np.zeros((4, 4), dtype=np.int64),
                       np.zeros((4, 4), dtype=np.int64))
    with pytest.raises(ShapeError):
        panoptic_quality(pred, gt)


def test_panoptic_map_keeps_int8_and_widens_other_integer_maps():
    ids = np.array([[VOID, 0], [1, 2]])
    small = ids.astype(np.int8)
    pmap = PanopticMap(small, small)
    assert pmap.class_map is small and pmap.instance_map is small
    for dtype in (np.int16, np.int32, np.int64, np.uint8, np.uint32):
        pmap = PanopticMap(np.abs(ids).astype(dtype), np.abs(ids).astype(dtype))
        assert pmap.class_map.dtype == pmap.instance_map.dtype == np.int64
        assert np.array_equal(pmap.class_map, np.abs(ids))
    assert PanopticMap(ids.tolist(), ids.tolist()).class_map.dtype == np.int64


@pytest.mark.parametrize("bad", [np.full((2, 2), 1.7), np.ones((2, 2), dtype=np.float32),
                                 np.ones((2, 2), dtype=bool)])
def test_panoptic_map_rejects_non_integer_maps(bad):
    ids = np.ones((2, 2), dtype=np.int64)
    with pytest.raises(ContractError,
                       match=f"class map must hold integer ids, got dtype {bad.dtype}"):
        PanopticMap(bad, ids)
    with pytest.raises(ContractError, match="instance map must hold integer ids"):
        PanopticMap(ids, bad)


def test_evaluation_report_is_stable():
    gt = _gt_square()
    pred = PanopticMap(gt.class_map.copy(), gt.instance_map.copy())
    result = panoptic_quality(pred, gt, thing_ids={1})
    result["miou"] = 1.0
    table = CLASS_TABLE
    a = evaluation_report(result, table)
    b = evaluation_report(result, table)
    assert a == b
    lines = a.splitlines()
    n = len(result["per_class"])
    assert lines[4 + n:] == [
        "overall sq 1.000000", "overall sq_things 1.000000", "overall sq_stuff 1.000000",
        "overall rq 1.000000", "overall rq_things 1.000000", "overall rq_stuff 1.000000",
        *[f"class {c} {CLASS_TABLE.names[c]} sq 1.000000 rq 1.000000"
          for c in sorted(result["per_class"])]]
    assert lines[0].startswith("overall pq ")
    assert lines[1].startswith("overall pq_things ")
    assert lines[2].startswith("overall pq_stuff ")
    assert lines[3].startswith("overall miou ")
    assert all(line.startswith("class ") for line in lines[4:4 + n])


# Reference implementations: one boolean mask per segment and one full-map
# scan per segment pair. The package scores from a label-pair histogram and
# must agree with these exactly.

def _reference_segments(pmap):
    keys = np.stack([pmap.class_map.reshape(-1), pmap.instance_map.reshape(-1)])
    out = []
    for cls, inst in np.unique(keys, axis=1).T:
        if cls == VOID:
            continue
        mask = (pmap.class_map == cls) & (pmap.instance_map == inst)
        out.append((int(cls), int(inst), mask))
    return out


def _reference_pq_counts(pred_map, gt, counts=None):
    """tp/fp/fn/iou dicts of one image, accumulated into ``counts`` if given."""
    counts = counts or {"tp": {}, "fp": {}, "fn": {}, "iou": {}}
    tp, fp, fn, iou_sum = counts["tp"], counts["fp"], counts["fn"], counts["iou"]

    def bump(store, cls, amount=1):
        store[cls] = store.get(cls, 0) + amount

    gt_segments = _reference_segments(gt)
    pred_segments = _reference_segments(pred_map)
    void_mask = gt.class_map == VOID
    gt_matched, pred_matched = set(), set()
    for i, (g_cls, _, g_mask) in enumerate(gt_segments):
        g_area = int(g_mask.sum())
        for j, (p_cls, _, p_mask) in enumerate(pred_segments):
            if p_cls != g_cls or j in pred_matched:
                continue
            inter = int((g_mask & p_mask).sum())
            if inter == 0:
                continue
            p_area = int(p_mask.sum())
            p_void = int((p_mask & void_mask).sum())
            union = g_area + p_area - inter - p_void
            iou = inter / union if union > 0 else 0.0
            if iou > 0.5:
                bump(tp, g_cls)
                bump(iou_sum, g_cls, iou)
                gt_matched.add(i)
                pred_matched.add(j)
                break
    for i, (g_cls, _, _) in enumerate(gt_segments):
        if i not in gt_matched:
            bump(fn, g_cls)
    for j, (p_cls, _, p_mask) in enumerate(pred_segments):
        if j in pred_matched:
            continue
        p_area = int(p_mask.sum())
        p_void = int((p_mask & void_mask).sum())
        if p_area and p_void / p_area > 0.5:
            continue
        bump(fp, p_cls)
    return counts


CLASS_POOLS = [(VOID,), (0,), (VOID, 1), (0, 1, 2), (VOID, 0, 1, 2)]
INSTANCE_IDS = st.integers(-2**40, 2**40)


@st.composite
def _label_maps(draw, shape):
    classes = draw(st.sampled_from(CLASS_POOLS))
    instances = draw(st.lists(INSTANCE_IDS, min_size=1, max_size=4))
    cls = draw(arrays(np.int64, shape, elements=st.sampled_from(classes)))
    inst = draw(arrays(np.int64, shape, elements=st.sampled_from(instances)))
    return cls, inst


@st.composite
def _gt_and_pred(draw):
    """A ground truth and a prediction that is independent of it, a noisy
    relabeled copy of it (so matches occur), or empty."""
    shape = draw(st.tuples(st.integers(1, 8), st.integers(1, 8)))
    gt_cls, gt_inst = draw(_label_maps(shape))
    kind = draw(st.sampled_from(["independent", "noisy copy", "empty"]))
    if kind == "empty":
        pred_cls = np.full(shape, VOID, dtype=np.int64)
        pred_inst = np.zeros(shape, dtype=np.int64)
    else:
        pred_cls, pred_inst = draw(_label_maps(shape))
        if kind == "noisy copy":
            keep = draw(arrays(np.bool_, shape, elements=st.booleans()))
            pred_cls = np.where(keep, gt_cls, pred_cls)
            pred_inst = np.where(keep, gt_inst * 13 + 5, pred_inst)
    return PanopticMap(pred_cls, pred_inst), PanopticMap(gt_cls, gt_inst)


@settings(max_examples=300, deadline=None)
@given(_gt_and_pred())
def test_histogram_scoring_equals_per_segment_reference(maps):
    pred, gt = maps
    for pmap in (pred, gt):
        index, keys = pmap.segment_index()
        got = [(k, (c, i)) for k, (c, i) in enumerate(keys.tolist()) if c != VOID]
        want = _reference_segments(pmap)
        assert [key for _, key in got] == [w[:2] for w in want]
        for (k, _), (_, _, mask) in zip(got, want):
            assert np.array_equal((index == k).reshape(pmap.class_map.shape), mask)
    stat = PQStat().update(pred, gt)
    assert {"tp": stat.tp, "fp": stat.fp, "fn": stat.fn,
            "iou": stat.iou} == _reference_pq_counts(pred, gt)


class _ReplayModel:
    """Returns a fixed sequence of predictions from ``forward``."""

    def __init__(self, preds):
        self._preds = iter(preds)

    def astype(self, dtype):
        # ``evaluate_model`` runs its forwards on ``model.astype(np.float32)``
        return self

    def forward(self, img):
        return next(self._preds), None, None


def test_evaluate_model_rejects_no_examples():
    # an empty split would otherwise score PQ 0.0, a plausible wrong answer
    with pytest.raises(ContractError, match="no examples to evaluate"):
        evaluate_model(_ReplayModel([]), iter([]), InferConfig(), CLASS_TABLE)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_evaluate_model_equals_per_image_reference_sums(seed):
    rng = np.random.default_rng(seed)
    table = CLASS_TABLE
    num_classes = table.num_classes
    infer = InferConfig()
    preds, fulls, examples = [], [], []
    for _ in range(int(rng.integers(1, 4))):
        pred = PredictionSet(Tensor(rng.normal(size=(16, 6)) * 4),
                             Tensor(rng.normal(size=(6, num_classes + 1)) * 4), 4, 4)
        full = merge_masks(pred, infer, table.thing_ids).upsample(2)
        # ground truth: the merged prediction with a fifth of its pixels redrawn
        noise = rng.random(size=(8, 8)) < 0.2
        gt = PanopticMap(np.where(noise, rng.integers(VOID, num_classes, size=(8, 8)),
                                  full.class_map),
                         np.where(noise, rng.integers(0, 3, size=(8, 8)),
                                  full.instance_map))
        preds.append(pred)
        fulls.append(full)
        examples.append((None, gt))
    result = evaluate_model(_ReplayModel(preds), examples, infer, table)

    counts = None
    inter, union = {}, {}
    for full, (_, gt) in zip(fulls, examples):
        counts = _reference_pq_counts(full, gt, counts)
        for cls in range(num_classes):
            p = full.class_map == cls
            g = gt.class_map == cls
            inter[cls] = inter.get(cls, 0) + int((p & g).sum())
            union[cls] = union.get(cls, 0) + int((p | g).sum())
    present = [c for c in union if union[c]]
    reference = PQStat()
    reference.tp, reference.fp, reference.fn, reference.iou = (
        counts["tp"], counts["fp"], counts["fn"], counts["iou"])
    want = reference.summarize(table.thing_ids)
    want["miou"] = float(np.mean([inter[c] / union[c] for c in present])) if present else 0.0
    assert result == want


def _reference_merge(pred, infer, thing_ids):
    """Mask-wise merging with one pass over the active queries per prune
    round and one paint per query."""
    h, w = pred.height, pred.width
    n = pred.num_queries
    if n == 0:
        return PanopticMap(np.full((h, w), VOID, dtype=np.int64),
                           np.zeros((h, w), dtype=np.int64))
    class_probs = pred.class_probs()
    z = pred.mask_probs()
    cls = class_probs[:, :-1].argmax(axis=1)
    conf = class_probs[np.arange(n), cls]
    active = conf >= infer.conf_thresh
    scores = z * conf[None, :]
    binary = z > infer.mask_binarize

    def assign(active_mask):
        if not active_mask.any():
            return None
        return np.where(active_mask[None, :], scores, -np.inf).argmax(axis=1)

    assigned = assign(active)
    while assigned is not None:
        drop = []
        for q in np.nonzero(active)[0]:
            area = int(binary[:, q].sum())
            won = int(((assigned == q) & binary[:, q]).sum())
            if area == 0 or won / area < infer.overlap_thresh:
                drop.append(q)
        if not drop:
            break
        active[drop] = False
        assigned = assign(active)

    class_map = np.full(h * w, VOID, dtype=np.int64)
    instance_map = np.zeros(h * w, dtype=np.int64)
    if assigned is not None:
        next_instance = 1
        for q in np.nonzero(active)[0]:
            pixels = assigned == q
            if not pixels.any():
                continue
            c = int(cls[q])
            class_map[pixels] = c
            if c in thing_ids:
                instance_map[pixels] = next_instance
                next_instance += 1
    return PanopticMap(class_map.reshape(h, w), instance_map.reshape(h, w))


@st.composite
def _predictions(draw):
    """Random mask and class logits, thresholds and thing ids."""
    h, w = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    n, num_classes = draw(st.integers(0, 6)), draw(st.integers(1, 4))
    logits = st.floats(-8.0, 8.0)
    mask_logits = draw(arrays(np.float64, (h * w, n), elements=logits))
    class_logits = draw(arrays(np.float64, (n, num_classes + 1), elements=logits))
    pred = PredictionSet(Tensor(mask_logits), Tensor(class_logits), h, w)
    thing_ids = draw(st.frozensets(st.integers(0, num_classes - 1)))
    return pred, draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0)), thing_ids


@settings(max_examples=300, deadline=None)
@given(_predictions())
def test_merge_masks_output_is_a_partition(case):
    pred, conf_thresh, overlap_thresh, thing_ids = case
    infer = InferConfig(conf_thresh=conf_thresh, overlap_thresh=overlap_thresh)
    result = merge_masks(pred, infer, thing_ids)
    cm, im = result.class_map, result.instance_map
    want = _reference_merge(pred, infer, thing_ids)
    for got, ref in ((cm, want.class_map), (im, want.instance_map)):
        assert got.dtype == ref.dtype and np.array_equal(got, ref)
    assert cm.shape == im.shape == (pred.height, pred.width)
    keys = _labels(result)
    # a thing's fresh instance id is not reused by any other thing, of its
    # class or another; ids count up from 1 and are spent only on queries
    # that own a pixel, so the ids in the map are exactly 1..K
    things = [i for c, i in keys if c in thing_ids]
    assert sorted(things) == list(range(1, len(things) + 1))
    # stuff and void pixels carry instance 0
    assert np.all(im[~np.isin(cm, list(thing_ids))] == 0)
    assert all(0 <= c < pred.num_classes for c, _ in keys)


@settings(max_examples=300, deadline=None)
@given(_predictions(), st.integers(1, 3))
def test_panoptic_image_equals_a_per_segment_painter(case, factor):
    pred, conf_thresh, overlap_thresh, thing_ids = case
    pmap = _merge(pred, conf_thresh=conf_thresh, overlap_thresh=overlap_thresh,
                  thing_ids=thing_ids).upsample(factor)
    want = np.zeros(pmap.class_map.shape + (3,))
    for cls, inst, mask in _reference_segments(pmap):
        want[mask] = cluster_color(cls * 31 + inst)
    assert np.array_equal(panoptic_image(pmap), want)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 3), st.data())
def test_assignment_image_equals_a_per_cluster_painter(h, w, upscale, data):
    n = data.draw(st.integers(1, 8))
    affinity = data.draw(arrays(np.float64, (n, h * w), elements=st.floats(-4.0, 4.0)))
    labels = affinity.argmax(axis=0).reshape(h, w)
    want = np.zeros((h, w, 3))
    for cluster in np.unique(labels):
        want[labels == cluster] = cluster_color(int(cluster))
    want = np.repeat(np.repeat(want, upscale, 0), upscale, 1)
    assert np.array_equal(assignment_image(affinity, h, w, upscale), want)


@settings(max_examples=100, deadline=None)
@given(_gt_and_pred(), st.integers(1, 4))
def test_upsample_then_downsample_is_identity(maps, factor):
    for pmap in maps:
        back = pmap.upsample(factor).downsample(factor)
        assert np.array_equal(back.class_map, pmap.class_map)
        assert np.array_equal(back.instance_map, pmap.instance_map)


@settings(max_examples=300, deadline=None)
@given(_gt_and_pred(), st.frozensets(st.integers(0, 2)), st.data())
def test_panoptic_quality_is_invariant_to_relabelling_instances(maps, thing_ids, data):
    def relabel(pmap):
        ids = np.unique(pmap.instance_map)
        new = np.array(data.draw(st.permutations(ids.tolist())), dtype=np.int64)
        return PanopticMap(pmap.class_map, new[np.searchsorted(ids, pmap.instance_map)])

    pred, gt = maps
    before = panoptic_quality(pred, gt, thing_ids)
    after = panoptic_quality(relabel(pred), relabel(gt), thing_ids)
    for key in ("pq", "pq_things", "pq_stuff"):
        # IoUs of one class may be summed in another order
        assert after[key] == pytest.approx(before[key], rel=1e-12, abs=1e-15)
    assert before["per_class"].keys() == after["per_class"].keys()
    for cls, stat in before["per_class"].items():
        assert {k: stat[k] for k in ("tp", "fp", "fn")} == \
            {k: after["per_class"][cls][k] for k in ("tp", "fp", "fn")}


def test_float32_and_float64_inference_merge_identical_labels():
    # the 12-step seed-5 model of tools/trace_digest.py, on its 16 val images
    from kmaxseg.config import Config
    from kmaxseg.data import SyntheticDataset
    from kmaxseg.tensor import no_grad
    from kmaxseg.training import scene_spec_from_config, train_loop

    cfg = Config()
    cfg.train.steps = cfg.train.train_size = 12
    cfg.train.seed = 5
    dataset = SyntheticDataset(scene_spec_from_config(cfg), 12, cfg.train.val_size)
    model = train_loop(cfg, dataset=dataset).model
    twin = model.astype(np.float32)
    infer, thing_ids = cfg.infer, dataset.class_table.thing_ids
    assert len(dataset.val) == 16
    for img, _ in dataset.val:
        maps = []
        for m in (model, twin):
            with no_grad():
                pred, _, _ = m.forward(img)
            maps.append(merge_masks(pred, infer, thing_ids))
        assert maps[1].class_map.tobytes() == maps[0].class_map.tobytes()
        assert maps[1].instance_map.tobytes() == maps[0].instance_map.tobytes()


def _spied_small_model(monkeypatch):
    """A small model, and the parameter dtype of every forward pass run from now on."""
    from kmaxseg.config import ModelConfig
    from kmaxseg.model import KMaxModel

    model = KMaxModel(ModelConfig(d=16, num_queries=4, schedule=(1, 1, 1)), seed=0)
    dtypes = []
    forward = KMaxModel.forward

    def spy(self, image):
        dtypes.append(self.queries.data.dtype)
        return forward(self, image)

    monkeypatch.setattr(KMaxModel, "forward", spy)
    return model, dtypes


def test_evaluate_model_runs_every_forward_in_float32(monkeypatch):
    from kmaxseg.data import SyntheticDataset

    model, dtypes = _spied_small_model(monkeypatch)
    dataset = SyntheticDataset(SceneSpec(seed=2), 0, 3)
    evaluate_model(model, dataset.val, InferConfig(), dataset.class_table)
    assert dtypes == [np.dtype(np.float32)] * 3
    assert {t.data.dtype for _, t, _ in model.named_parameters()} == {np.dtype(np.float64)}


def test_render_stages_merges_through_the_float32_twin(tmp_path, monkeypatch):
    from kmaxseg.visualize import render_stages

    model, dtypes = _spied_small_model(monkeypatch)
    img = np.random.default_rng(0).uniform(size=(64, 64, 3))
    paths = render_stages(model, img, InferConfig(), frozenset({1}), tmp_path)
    assert len(paths) == 4 and dtypes == [np.dtype(np.float32)]
    assert {t.data.dtype for _, t, _ in model.named_parameters()} == {np.dtype(np.float64)}


def _final_ppm_bytes(model, img, infer, out_dir):
    from kmaxseg.visualize import render_stages

    return Path(render_stages(model, img, infer, frozenset({1}), out_dir)[-1]).read_bytes()


def test_render_stages_merges_at_its_infer_cfg_thresholds(tmp_path):
    from kmaxseg.config import ModelConfig
    from kmaxseg.model import KMaxModel

    model = KMaxModel(ModelConfig(d=16, num_queries=4, schedule=(1, 1, 1)), seed=0)
    img = np.random.default_rng(0).uniform(size=(64, 64, 3))
    header = len(b"P6\n64 64\n255\n")
    # no class probability reaches 1, so conf_thresh = 1 leaves every pixel void (black)
    void = _final_ppm_bytes(model, img, InferConfig(conf_thresh=1.0), tmp_path / "void")
    assert void[header:] == bytes(64 * 64 * 3)
    kept = _final_ppm_bytes(model, img, InferConfig(conf_thresh=0.0, overlap_thresh=0.0),
                            tmp_path / "kept")
    assert kept[header:] != void[header:]


def test_render_stages_draws_the_map_label_image_gives(tmp_path):
    from kmaxseg.config import ModelConfig
    from kmaxseg.metrics import label_image
    from kmaxseg.model import KMaxModel
    from kmaxseg.ppm import write_ppm

    model32 = KMaxModel(ModelConfig(d=16, num_queries=4, schedule=(1, 1, 1)),
                        seed=2).astype(np.float32)
    img = np.random.default_rng(4).uniform(size=(64, 64, 3))
    infer = InferConfig(conf_thresh=0.0, overlap_thresh=0.5)
    merged, aux = label_image(model32, img, infer, frozenset({1}))
    assert len(aux) == 3 and len(merged.segment_index()[1]) == 3
    write_ppm(tmp_path / "want.ppm", panoptic_image(merged.upsample(64 // merged.height)))
    # render_stages casts model32 again: a float32 copy of the same values
    assert _final_ppm_bytes(model32, img, infer, tmp_path / "render") == \
        (tmp_path / "want.ppm").read_bytes()


def _overwrite_parameters(model, seed):
    """Write the parameters of a ``seed`` model of the same config into ``model`` in place."""
    from kmaxseg.model import KMaxModel

    for (_, dst, _), (_, src, _) in zip(model.named_parameters(),
                                        KMaxModel(model.cfg, seed=seed).named_parameters()):
        dst.data[...] = src.data


def test_render_stages_writes_the_bytes_of_a_fresh_float32_copy(tmp_path):
    from kmaxseg.config import ModelConfig
    from kmaxseg.model import KMaxModel
    from kmaxseg.visualize import render_stages

    cfg = ModelConfig(d=16, num_queries=4, schedule=(1, 1, 1))
    model = KMaxModel(cfg, seed=0)
    img = np.random.default_rng(0).uniform(size=(64, 64, 3))

    def render(m, name):
        paths = render_stages(m, img, InferConfig(), frozenset({1}), tmp_path / name)
        return [Path(p).read_bytes() for p in paths]

    first = render(model, "first")
    _overwrite_parameters(model, 1)
    assert render(model, "changed") == render(KMaxModel(cfg, seed=1), "fresh") != first


def _float32_arrays_reachable_from(root):
    """The float32 arrays that ``gc.get_referents`` reaches from ``root``.

    The walk does not enter classes, modules or functions, which lead to
    every module's globals rather than to what ``root`` holds.
    """
    import gc
    import types

    seen, stack, found = set(), [root], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType, types.FunctionType)):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray) and obj.dtype == np.float32:
            found.append(obj)
        stack.extend(gc.get_referents(obj))
    return found


def test_no_float32_copy_outlives_an_evaluation(tmp_path):
    from kmaxseg.config import Config
    from kmaxseg.data import SyntheticDataset
    from kmaxseg.training import scene_spec_from_config, train_loop
    from kmaxseg.visualize import render_stages

    cfg = Config()
    cfg.model.d, cfg.model.num_queries, cfg.model.schedule = 16, 6, (1, 1, 1)
    cfg.train.steps = cfg.train.train_size = cfg.train.eval_interval = 2
    cfg.train.val_size = 2
    dataset = SyntheticDataset(scene_spec_from_config(cfg), 2, 2)
    result = train_loop(cfg, dataset=dataset)   # evaluates after its second step
    model = result.model
    # the walk finds the arrays of a float32 copy when something holds one
    assert len(_float32_arrays_reachable_from(model.astype(np.float32))) == \
        len(model.named_parameters())
    assert _float32_arrays_reachable_from(result) == []
    evaluate_model(model, dataset.val, cfg.infer, dataset.class_table)
    assert _float32_arrays_reachable_from(model) == []
    render_stages(model, dataset.val[0][0], cfg.infer, frozenset({1}), tmp_path)
    assert _float32_arrays_reachable_from(model) == []


def test_evaluate_model_scores_a_fresh_float32_copy_after_an_in_place_change():
    from kmaxseg.config import ModelConfig
    from kmaxseg.data import SyntheticDataset
    from kmaxseg.model import KMaxModel
    from kmaxseg.tensor import no_grad

    model = KMaxModel(ModelConfig(d=16, num_queries=4, schedule=(1, 1, 1)), seed=0)
    dataset = SyntheticDataset(SceneSpec(seed=2), 0, 3)
    infer = InferConfig()
    before = evaluate_model(model, dataset.val, infer, dataset.class_table)
    _overwrite_parameters(model, 1)
    fresh = model.astype(np.float32)
    with no_grad():
        preds = [fresh.forward(img)[0] for img, _ in dataset.val]
    want = evaluate_model(_ReplayModel(preds), dataset.val, infer, dataset.class_table)
    got = evaluate_model(model, dataset.val, infer, dataset.class_table)
    assert got == want != before


@pytest.fixture(scope="module")
def trained_eval():
    """A 12-step trained default model, its config and 20 val scenes."""
    from kmaxseg.config import Config
    from kmaxseg.data import SyntheticDataset
    from kmaxseg.training import scene_spec_from_config, train_loop

    cfg = Config()
    cfg.train.steps = cfg.train.train_size = 12
    cfg.train.seed = 5
    dataset = SyntheticDataset(scene_spec_from_config(cfg), 12, 20)
    model = train_loop(cfg, dataset=dataset).model
    return model, cfg, list(dataset.val)


def _counting_fork(monkeypatch, cpus):
    """Report ``cpus`` usable CPUs; returns the list of pids ``os.fork`` gave."""
    pids = []
    fork = os.fork

    def counting():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(os, "fork", counting)
    return pids


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("cpus", [2, 3])
def test_evaluate_model_over_forked_shares_equals_one_share(trained_eval, monkeypatch, cpus):
    model, cfg, val = trained_eval
    pids = _counting_fork(monkeypatch, cpus)
    split = evaluate_model(model, val, cfg.infer, CLASS_TABLE)
    assert len(pids) == cpus - 1
    _assert_no_child_left()
    monkeypatch.delattr(os, "fork")   # where fork is missing, one share runs here
    assert evaluate_model(model, val, cfg.infer, CLASS_TABLE) == split


@pytest.mark.parametrize("bad", [0, 19])   # in this process's share, in the child's
def test_a_nan_image_in_any_share_raises_contract_error_and_leaves_no_child(
        trained_eval, monkeypatch, bad):
    from kmaxseg.errors import ContractError

    model, cfg, val = trained_eval
    examples = list(val)
    img, gt = examples[bad]
    img = img.copy()
    img[3, 4, 1] = np.nan
    examples[bad] = (img, gt)
    pids = _counting_fork(monkeypatch, 2)
    with pytest.raises(ContractError, match="non-finite pixel"):
        evaluate_model(model, examples, cfg.infer, CLASS_TABLE)
    assert len(pids) == 1
    _assert_no_child_left()


def test_evaluate_model_iterates_its_examples_once_and_never_indexes(trained_eval,
                                                                     monkeypatch):
    model, cfg, val = trained_eval

    class Counted:
        iterations = steps = 0

        def __iter__(self):
            Counted.iterations += 1
            for item in val:
                Counted.steps += 1
                yield item

        def __getitem__(self, index):
            raise AssertionError("evaluate_model indexed its examples")

    pids = _counting_fork(monkeypatch, 2)
    evaluate_model(model, Counted(), cfg.infer, CLASS_TABLE)
    assert (Counted.iterations, Counted.steps, len(pids)) == (1, len(val), 1)


@pytest.mark.parametrize("n", [0, 1, 3, 4, 7, 8, 9, 20, 64])
@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_shares_are_contiguous_and_no_smaller_than_the_minimum(monkeypatch, n, cpus):
    pids = _counting_fork(monkeypatch, cpus)
    for min_share in (1, MIN_SHARE):
        del pids[:]
        shares = run_in_shares(lambda share: [share], list(range(n)), min_share)
        assert sum(shares, []) == list(range(n))   # contiguous, in item order
        assert len(shares) == max(1, min(cpus, n // min_share)) == len(pids) + 1
        assert len(shares) == 1 or min(len(share) for share in shares) >= min_share
        _assert_no_child_left()


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_run_in_shares_gives_the_one_share_result(monkeypatch, cpus):
    items = [np.random.default_rng(i).normal(size=3) for i in range(7)]
    pids = _counting_fork(monkeypatch, cpus)
    split = run_in_shares(lambda share: [np.cumsum(x) for x in share], items, 2)
    assert len(pids) == min(cpus, 3) - 1
    _assert_no_child_left()
    monkeypatch.delattr(os, "fork")   # where fork is missing, one share runs here
    whole = run_in_shares(lambda share: [np.cumsum(x) for x in share], items, 2)
    assert [x.tobytes() for x in split] == [x.tobytes() for x in whole]


@pytest.mark.parametrize("bad", [0, 5])   # in this process's share, in the last child's
def test_an_exception_in_any_share_is_raised_here_and_leaves_no_child(monkeypatch, bad):
    def work(share):
        if bad in share:
            raise ContractError(f"item {bad}")
        return share

    pids = _counting_fork(monkeypatch, 3)
    with pytest.raises(ContractError, match=f"item {bad}"):
        run_in_shares(work, list(range(6)), 2)
    assert len(pids) == 2
    _assert_no_child_left()


def test_a_child_that_dies_is_a_runtime_error_and_leaves_no_child(monkeypatch):
    def work(share):
        if 3 in share:
            os._exit(7)
        return share

    _counting_fork(monkeypatch, 2)
    with pytest.raises(RuntimeError, match="exited with status 7"):
        run_in_shares(work, list(range(4)), 1)
    _assert_no_child_left()


def test_a_call_nested_in_one_of_several_shares_runs_in_place(monkeypatch):
    pids = _counting_fork(monkeypatch, 2)

    def pids_of(share):
        return [os.getpid()] * len(share)

    def nested(share):
        return [(os.getpid(), run_in_shares(pids_of, list(range(4)), 1)) for _ in share]

    outer = run_in_shares(nested, [0, 1], 1)
    assert [pid for pid, _ in outer] == [os.getpid(), pids[0]]
    assert all(inner == [pid] * 4 for pid, inner in outer)   # no share forked again
    assert len(pids) == 1
    # after the call, and inside a single outer share, a call has every CPU again
    assert run_in_shares(pids_of, list(range(4)), 1) == [os.getpid()] * 2 + [pids[1]] * 2
    [(pid, inner)] = run_in_shares(nested, [0], 1)
    assert pid == os.getpid() and inner == [pid] * 2 + [pids[2]] * 2
    with pytest.raises(ContractError):
        run_in_shares(lambda share: _raise(ContractError("outer")), [0, 1], 1)
    assert run_in_shares(pids_of, list(range(4)), 1) == [os.getpid()] * 2 + [pids[4]] * 2
    _assert_no_child_left()


def _raise(exc):
    raise exc
