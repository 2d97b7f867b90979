"""Panoptic post-processing and evaluation metrics.

``merge_masks`` turns a set prediction into a concrete panoptic labeling by
mask-wise merging: keep confident queries, let them compete per pixel on
confidence-weighted mask probability, prune segments that retained too
little of their own binary mask, and finally assign instance ids (fresh per
'thing' segment, shared per 'stuff' class). Its thresholds are one
``InferConfig``'s, checked by ``InferConfig.validate``, their one check.
``label_image``, which ``evaluate_model`` and ``visualize.render_stages``
both call, is the one path from an image to its merged map.

``panoptic_quality`` follows the standard definition: segments of equal
class match when IoU exceeds 0.5 (such a match is unique), and
PQ = sum of matched IoUs / (TP + FP/2 + FN/2), averaged over classes that
occur. Void pixels never count against intersection-over-union denominators.
Each class's PQ splits into SQ (its matches' mean IoU) and RQ
(TP / (TP + FP/2 + FN/2)), reported beside it.

Scoring never scans the image once per segment. Each map's pixels get a
dense index into its sorted (class id, instance id) pairs
(``PanopticMap.segment_index``), and one ``np.bincount`` over the pairs
``gt_index * n_pred + pred_index`` gives the full gt-by-prediction
intersection matrix. Segment areas are its row and column sums, and a
prediction's void overlap is its column summed over the gt rows of class
``VOID``. Divided by the unions, it is the IoU matrix, and the PQ matches are
its same-class, non-void entries above 0.5: a threshold, not a search. mIoU
reads the same histogram: a non-void class's intersection is the sum of its
block (its gt rows by its predicted columns), and its union is its rows' sum
plus its columns' sum minus that block. ``PQStat`` sums both over images, so
mIoU is dataset-level: each class's IoU is taken from its summed counts.
"""

from __future__ import annotations

import os
import pickle
import signal
from collections import Counter

import numpy as np

from .errors import ContractError, ShapeError
from .panoptic import VOID, PanopticMap
from .tensor import no_grad

__all__ = ["merge_masks", "label_image", "panoptic_quality", "PQStat", "evaluate_model",
           "evaluation_report", "run_in_shares"]


def merge_masks(pred, infer, thing_ids):
    """Mask-wise merging of ``pred`` into a panoptic labeling at ``infer``'s thresholds.

    A prune pass is one masked argmax over the active queries and one
    ``bincount`` of the pixels each won inside its own binary mask. The maps
    are then read through each pixel's winning query.
    """
    infer.validate()
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
    area = binary.sum(axis=0)
    pixels = np.arange(h * w)
    # prune segments that kept too small a fraction of their binary mask;
    # removing a query only grows the remaining segments, so iterate. With
    # no query active, every pixel goes to the inactive, so void, query 0.
    while True:
        assigned = np.where(active, scores, -np.inf).argmax(axis=1)
        won = np.bincount(assigned[binary[pixels, assigned]], minlength=n)
        drop = active & ((area == 0) | (won / np.maximum(area, 1) < infer.overlap_thresh))
        if not drop.any():
            break
        active &= ~drop

    owns = np.bincount(assigned, minlength=n) > 0
    # a thing query that owns a pixel takes the next instance id; stuff keeps
    # instance 0, so duplicate stuff queries of one class merge into one segment
    fresh = owns & active & np.isin(cls, list(thing_ids))
    class_map = np.where(active, cls, VOID)[assigned]
    instance_map = (np.cumsum(fresh) * fresh)[assigned]
    return PanopticMap(class_map.reshape(h, w), instance_map.reshape(h, w))


class PQStat:
    """Accumulates panoptic-quality and mIoU statistics over one or more images.

    ``update`` builds one gt-by-prediction segment histogram per image and
    adds to every store from it: the matched IoU sum and the TP, FP and FN
    counts per class, and each non-void class's pixel intersection and union.
    The matches are a boolean array over the histogram, the same-class,
    non-void pairs whose IoU exceeds 0.5; ``tp`` and ``iou`` take them in
    ground-truth order.
    """

    def __init__(self):
        self.iou = Counter()
        self.tp = Counter()
        self.fp = Counter()
        self.fn = Counter()
        self.inter = Counter()
        self.union = Counter()

    def update(self, pred, gt):
        if pred.class_map.shape != gt.class_map.shape:
            raise ShapeError(
                f"prediction grid {pred.class_map.shape} does not match "
                f"ground truth {gt.class_map.shape}"
            )
        g_index, g_keys = gt.segment_index()
        p_index, p_keys = pred.segment_index()
        n_pred = len(p_keys)
        hist = np.bincount(g_index * n_pred + p_index,
                           minlength=len(g_keys) * n_pred).reshape(-1, n_pred)
        g_cls, p_cls = g_keys[:, 0], p_keys[:, 0]
        g_area = hist.sum(axis=1)
        p_area = hist.sum(axis=0)
        p_void = hist[g_cls == VOID].sum(axis=0)

        # one row per class of either map: which gt rows and predicted columns it has
        classes = np.unique(np.concatenate([g_cls, p_cls]))
        in_g, in_p = classes[:, None] == g_cls, classes[:, None] == p_cls
        both = ((in_g @ hist) * in_p).sum(axis=1)
        either = in_g @ g_area + in_p @ p_area - both
        for cls, b, e in zip(classes.tolist(), both.tolist(), either.tolist()):
            if cls != VOID:
                self.inter[cls] += b
                self.union[cls] += e

        # A match is unique (Kirillov et al., 2019): the segments of one map
        # are disjoint, and a pair's union is at least g_area and at least
        # p_area - p_void, so IoU > 0.5 covers more than half of each side,
        # which no second segment of the other map can. A non-void row's
        # union is at least its g_area >= 1; the floor of 1 only keeps the
        # void rows, which never match, from dividing by 0.
        union = g_area[:, None] + p_area - hist - p_void
        iou = hist / np.maximum(union, 1)
        match = (g_cls[:, None] == p_cls) & (p_cls != VOID) & (iou > 0.5)
        # row-major, so the sums add in ground-truth order
        rows, cols = np.nonzero(match)
        for cls, value in zip(g_cls[rows].tolist(), iou[rows, cols].tolist()):
            self.tp[cls] += 1
            self.iou[cls] += value
        fn = g_cls != VOID
        fn[rows] = False
        self.fn.update(g_cls[fn].tolist())
        # mostly-void predictions are not false positives
        fp = (p_cls != VOID) & (p_void / p_area <= 0.5)
        fp[cols] = False
        self.fp.update(p_cls[fp].tolist())
        return self

    def summarize(self, thing_ids=frozenset()):
        classes = sorted(set(self.iou) | set(self.tp) | set(self.fp) | set(self.fn))
        per_class = {}
        for cls in classes:
            tp = self.tp.get(cls, 0)
            fp = self.fp.get(cls, 0)
            fn = self.fn.get(cls, 0)
            denom = tp + 0.5 * fp + 0.5 * fn
            per_class[cls] = {
                "pq": self.iou.get(cls, 0.0) / denom if denom else 0.0,
                "iou_sum": self.iou.get(cls, 0.0),
                "tp": tp, "fp": fp, "fn": fn,
                # PQ = SQ x RQ: mean IoU of the matches, times an F1 score
                "sq": self.iou.get(cls, 0.0) / tp if tp else 0.0,
                "rq": tp / denom if denom else 0.0,
            }

        def average(ids, key="pq"):
            vals = [per_class[c][key] for c in ids]
            return float(np.mean(vals)) if vals else 0.0

        things = [c for c in classes if c in thing_ids]
        stuff = [c for c in classes if c not in thing_ids]
        result = {
            "pq": average(classes),
            "pq_things": average(things),
            "pq_stuff": average(stuff),
            "per_class": per_class,
        }
        for key in ("sq", "rq"):
            result.update({key: average(classes, key), f"{key}_things": average(things, key),
                           f"{key}_stuff": average(stuff, key)})
        # every stored union holds at least the class's own pixels, so is nonzero
        seen = sorted(self.union)
        ious = np.array([self.inter[c] for c in seen]) / np.array([self.union[c] for c in seen])
        result["miou"] = float(np.mean(ious)) if seen else 0.0
        return result


def panoptic_quality(pred, gt, thing_ids=frozenset()):
    """Single-image PQ with PQ over thing and stuff classes split out, and mIoU."""
    return PQStat().update(pred, gt).summarize(thing_ids)


def label_image(model32, image, infer_cfg, thing_ids):
    """``(merged, aux)``: the merged final prediction, at the prediction grid,
    and the auxiliary predictions of a no-grad forward of the float32 model
    copy ``model32`` on ``image``."""
    with no_grad():
        pred, aux, _ = model32.forward(image)
    return merge_masks(pred, infer_cfg, thing_ids), aux


def evaluate_model(model, examples, infer_cfg, class_table):
    """Aggregate PQ and mIoU of a model over (image, ground truth) pairs.

    ``examples`` is iterated once, into a list; an empty one raises
    ``ContractError`` rather than scoring PQ 0. Every forward pass runs on
    one float32 copy of ``model`` (``model.astype``), cast from its current
    parameters at the start of the call and dropped when it returns;
    ``model``'s own parameters are not touched. The mIoU is ``PQStat``'s,
    dataset-level: each class's intersection and union are summed over all
    images before its IoU is taken.

    Each ``run_in_shares`` share, none under ``MIN_SHARE`` images, labels its
    images with ``label_image`` and returns the merged ``PanopticMap``s. Only
    ``upsample`` and ``PQStat.update`` run here, over every image in order,
    so the result is bitwise the one-share result. An
    exception raised in any share, such as ``ContractError`` for a NaN image,
    is raised here.
    """
    examples = list(examples)
    if not examples:
        raise ContractError("no examples to evaluate")
    model32 = model.astype(np.float32)   # before the fork, so the shares share it

    def label(share):
        return [label_image(model32, img, infer_cfg, class_table.thing_ids)[0]
                for img, _ in share]

    stat = PQStat()
    for merged, (_, gt) in zip(run_in_shares(label, examples, MIN_SHARE), examples):
        stat.update(merged.upsample(gt.height // merged.height), gt)
    return stat.summarize(class_table.thing_ids)


# A child returns its share ≈7-9 ms later than this process would finish it
# (2-core x86-64 VM, default config): ≈3 ms to fork an idle child, let it
# exit and reap it, and ≈5 ms of page faults in its first image. That is one
# to two images of forward and merge (≈4-7 ms each): two shares took 25 ms
# against 30 for one at 4 images, and 39 against 57 at 8.
MIN_SHARE = 4


# True in a process that runs one of several shares. A call from inside
# ``work``, such as the periodic eval of a training run in a grid share, then
# runs one share in place: the sibling shares already hold the other CPUs.
_IN_SHARE = False


def run_in_shares(work, items, min_share):
    """``work(share)`` over contiguous shares of ``items``, concatenated in item order.

    One share per usable CPU (``os.sched_getaffinity``: ``taskset -c 0``
    gives one), none under ``min_share`` items, and one share where
    ``os.fork`` or the mask is missing, or where the call comes from inside
    one of several shares of an outer call. This process runs the first
    share and a forked child each other one; a child pipes back its list, or
    the exception it raised, which is raised here. No child outlives the
    call. OpenBLAS stops its threads around ``fork``; Python 3.12+ warns on
    ``os.fork`` while any other OS thread exists.
    """
    global _IN_SHARE
    cpus = (len(os.sched_getaffinity(0)) if not _IN_SHARE and hasattr(os, "fork")
            and hasattr(os, "sched_getaffinity") else 1)
    k = max(1, min(cpus, len(items) // min_share))
    bounds = [len(items) * i // k for i in range(k + 1)]
    (start, stop), *rest = zip(bounds, bounds[1:])
    children = []   # (pid, read end of its pipe), not yet reaped
    outer, _IN_SHARE = _IN_SHARE, _IN_SHARE or k > 1   # children inherit it
    try:
        for lo, hi in rest:
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                os.close(read_fd)
                _child(write_fd, work, items[lo:hi])
            os.close(write_fd)
            children.append((pid, read_fd))
        out = work(items[start:stop])
        while children:
            out += _reap(*children.pop(0))
        return out
    finally:
        _IN_SHARE = outer
        for pid, read_fd in children:
            os.kill(pid, signal.SIGKILL)
            os.close(read_fd)
            os.waitpid(pid, 0)


def _child(write_fd, work, share):
    """In a forked child: pickle ``(True, work(share))`` or ``(False, exception)``
    into ``write_fd`` and exit, never returning into the parent's frames."""
    status = 1
    try:
        try:
            payload = (True, work(share))
        except BaseException as exc:  # raised again in the parent by ``_reap``
            payload = (False, exc)
        with os.fdopen(write_fd, "wb") as pipe:
            pickle.dump(payload, pipe, protocol=pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)


def _reap(pid, read_fd):
    """Read a child's payload, wait for it, and return its result or raise its exception."""
    try:
        with os.fdopen(read_fd, "rb") as pipe:
            data = pipe.read()
    finally:
        _, status = os.waitpid(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        raise RuntimeError(f"worker {pid} exited with status {code}")
    ok, value = pickle.loads(data)
    if not ok:
        raise value
    return value


def evaluation_report(result, class_table):
    """Fixed-order plain-text report of an evaluation result: PQ and mIoU
    lines, then the SQ and RQ lines."""
    lines = [
        f"overall pq {result['pq']:.6f}",
        f"overall pq_things {result['pq_things']:.6f}",
        f"overall pq_stuff {result['pq_stuff']:.6f}",
        f"overall miou {result['miou']:.6f}",
    ]
    split = [f"overall {key} {result[key]:.6f}" for key in
             ("sq", "sq_things", "sq_stuff", "rq", "rq_things", "rq_stuff")]
    for cls in sorted(result["per_class"]):
        row = result["per_class"][cls]
        name = class_table.names[cls] if cls < len(class_table.names) else str(cls)
        lines.append(
            f"class {cls} {name} pq {row['pq']:.6f} iou_sum {row['iou_sum']:.6f} "
            f"tp {row['tp']} fp {row['fp']} fn {row['fn']}"
        )
        split.append(f"class {cls} {name} sq {row['sq']:.6f} rq {row['rq']:.6f}")
    return "\n".join(lines + split)
