"""Panoptic post-processing and evaluation metrics.

``merge_masks`` turns a set prediction into a concrete panoptic labeling by
mask-wise merging: keep confident queries, let them compete per pixel on
confidence-weighted mask probability, prune segments that retained too
little of their own binary mask, and finally assign instance ids (fresh per
'thing' segment, shared per 'stuff' class).

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
``VOID``. Matching then walks this small integer matrix. mIoU reads the same
matrix: a non-void class's intersection is the sum of its block (its gt rows
by its predicted columns), and its union is its rows' sum plus its columns'
sum minus that block. ``PQStat`` sums both over images, so mIoU is
dataset-level: each class's IoU is taken from its summed counts.
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

__all__ = ["merge_masks", "panoptic_quality", "PQStat", "evaluate_model",
           "evaluation_report", "run_in_shares"]


def merge_masks(pred, *, conf_thresh, overlap_thresh, mask_binarize, thing_ids=frozenset()):
    """Mask-wise merging of a set prediction into a panoptic labeling."""
    if not all(0.0 <= t <= 1.0 for t in (conf_thresh, overlap_thresh, mask_binarize)):
        raise ValueError("thresholds must lie in [0, 1]")
    h, w = pred.height, pred.width
    n = pred.num_queries
    if n == 0:
        return PanopticMap(np.full((h, w), VOID, dtype=np.int64),
                           np.zeros((h, w), dtype=np.int64))
    class_probs = pred.class_probs()
    z = pred.mask_probs()

    cls = class_probs[:, :-1].argmax(axis=1)
    conf = class_probs[np.arange(n), cls]
    active = conf >= conf_thresh

    scores = z * conf[None, :]
    binary = z > mask_binarize

    def assign(active_mask):
        if not active_mask.any():
            return None
        masked = np.where(active_mask[None, :], scores, -np.inf)
        return masked.argmax(axis=1)

    assigned = assign(active)
    # prune segments that kept too small a fraction of their binary mask;
    # removing a query only grows the remaining segments, so iterate
    while assigned is not None:
        drop = []
        for q in np.nonzero(active)[0]:
            area = int(binary[:, q].sum())
            won = int(((assigned == q) & binary[:, q]).sum())
            if area == 0 or won / area < overlap_thresh:
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
            # stuff keeps instance 0, so duplicate stuff queries of one class
            # merge into one segment
            if c in thing_ids:
                instance_map[pixels] = next_instance
                next_instance += 1
    return PanopticMap(class_map.reshape(h, w), instance_map.reshape(h, w))


class PQStat:
    """Accumulates panoptic-quality and mIoU statistics over one or more images.

    ``update`` builds one gt-by-prediction segment histogram per image and
    adds to every store from it: the matched IoU sum and the TP, FP and FN
    counts per class, and each non-void class's pixel intersection and union.
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
        g_area = hist.sum(axis=1).tolist()
        p_area = hist.sum(axis=0).tolist()
        p_void = hist[g_keys[:, 0] == VOID].sum(axis=0).tolist()
        inter = hist.tolist()
        g_cls = g_keys[:, 0].tolist()
        p_cls = p_keys[:, 0].tolist()
        gt_rows = [i for i, cls in enumerate(g_cls) if cls != VOID]
        pred_cols = [j for j, cls in enumerate(p_cls) if cls != VOID]

        for cls in set(g_cls).union(p_cls) - {VOID}:
            rows = [i for i in gt_rows if g_cls[i] == cls]
            cols = [j for j in pred_cols if p_cls[j] == cls]
            both = int(hist[rows][:, cols].sum())
            self.inter[cls] += both
            self.union[cls] += sum(g_area[i] for i in rows) + sum(p_area[j] for j in cols) - both

        gt_matched = set()
        pred_matched = set()
        for i in gt_rows:
            for j in pred_cols:
                if p_cls[j] != g_cls[i] or j in pred_matched:
                    continue
                overlap = inter[i][j]
                if overlap == 0:
                    continue
                union = g_area[i] + p_area[j] - overlap - p_void[j]
                iou = overlap / union if union > 0 else 0.0
                if iou > 0.5:
                    self.tp[g_cls[i]] += 1
                    self.iou[g_cls[i]] += iou
                    gt_matched.add(i)
                    pred_matched.add(j)
                    break
        for i in gt_rows:
            if i not in gt_matched:
                self.fn[g_cls[i]] += 1
        for j in pred_cols:
            if j in pred_matched:
                continue
            if p_area[j] and p_void[j] / p_area[j] > 0.5:
                continue  # mostly-void predictions are not false positives
            self.fp[p_cls[j]] += 1
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


def evaluate_model(model, examples, infer_cfg, class_table):
    """Aggregate PQ and mIoU of a model over (image, ground truth) pairs.

    ``examples`` is iterated once, into a list; an empty one raises
    ``ContractError`` rather than scoring PQ 0. Every forward pass runs on
    one float32 copy of ``model`` (``model.astype``), cast from its current
    parameters at the start of the call and dropped when it returns;
    ``model``'s own parameters are not touched. The mIoU is ``PQStat``'s,
    dataset-level: each class's intersection and union are summed over all
    images before its IoU is taken.

    The forward passes and mask merges run through ``run_in_shares``, no
    share under ``MIN_SHARE`` images, and each share returns its merged
    ``PanopticMap``s. Only ``upsample`` and ``PQStat.update`` run here, over
    every image in order, so the result is bitwise the one-share result. An
    exception raised in any share, such as ``ContractError`` for a NaN image,
    is raised here.
    """
    examples = list(examples)
    if not examples:
        raise ContractError("no examples to evaluate")
    model32 = model.astype(np.float32)   # before the fork, so the shares share it
    thing_ids = class_table.thing_ids

    def label(share):
        out = []
        for img, _ in share:
            with no_grad():
                pred, _, _ = model32.forward(img)
            out.append(merge_masks(pred, conf_thresh=infer_cfg.conf_thresh,
                                   overlap_thresh=infer_cfg.overlap_thresh,
                                   thing_ids=thing_ids,
                                   mask_binarize=infer_cfg.mask_binarize))
        return out

    stat = PQStat()
    for merged, (_, gt) in zip(run_in_shares(label, examples, MIN_SHARE), examples):
        stat.update(merged.upsample(gt.height // merged.height), gt)
    return stat.summarize(thing_ids)


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
