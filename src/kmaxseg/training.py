"""Set-prediction training: matching, losses, optimizer, loop.

Ground-truth segments are matched one-to-one to predicted masks by
minimum-cost bipartite assignment on a similarity of class confidence times
mask Dice. The assignment is solved here by ``_solve_assignment``, a port of
scipy's ``linear_sum_assignment`` (D. F. Crouse, "On implementing 2D
rectangular assignment algorithms", IEEE TAES 52(4), 2016) with the same
tie-breaking and float arithmetic, so ``scipy.optimize`` and its start-up
cost stay out of the process; scipy is imported only for ``erf``. A single
matching, computed on the final prediction, supervises the final output and
every auxiliary decoder output:

* mask-quality term per matched pair: class cross-entropy plus (1 - Dice);
  unmatched queries are pushed to the void class at a reduced weight,
* mask-id cross-entropy: each supervised pixel's mask distribution against
  the query matched to its ground-truth segment,
* a semantic cross-entropy on the stride-4 semantic head (final output only).

All mask losses are computed at stride 4; coarser auxiliary logits are
upsampled by nearest neighbor first. The final and every auxiliary output
weigh alike. The whole loss is one tape node, ``_set_prediction_loss``: it
stacks the outputs and computes each cross-entropy, the Dice and the
mask-id targets once, adds the semantic cross-entropy, and has a
hand-written backward.

The optimizer is AdamW, and its ``step(loss, lr)`` runs the backward pass:
each parameter block is updated as soon as its gradients are final, and
those gradients are dropped at once, so a step never holds every parameter
gradient at the same time. The update is elementwise, so this gives the
same bytes as a backward pass followed by a per-tensor update.

The recipe is fixed, as in the paper's ablations, which vary only the
kernel and the decoder count: the constants below hold the learning rate,
its warm-up and the loss weights, and ``AdamW``'s class constants hold its
betas, epsilon and weight decay.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .config import Config
from .data import CLASS_TABLE, MAX_SHAPES, SyntheticDataset, SceneSpec, augment_flip
from .errors import ContractError, ShapeError
from .model import KMaxModel
from .panoptic import VOID
from .tensor import _accum, _make, softmax_lse

DICE_EPS = 1e-6
LR = 1e-3
WARMUP_FRAC = 0.05
W_PQ = 3.0
W_SEM = 1.0
W_MASKID = 0.3
W_VOID = 0.1


@dataclass
class Matching:
    """Injective ground-truth-segment -> query assignment."""

    gt_to_query: np.ndarray  # (K,) query index per ground-truth segment
    num_queries: int

    def __post_init__(self):
        self.gt_to_query = np.asarray(self.gt_to_query, dtype=np.int64)
        if len(set(self.gt_to_query.tolist())) != self.gt_to_query.size:
            raise ContractError("matching must be injective")
        if self.gt_to_query.size and not (
                0 <= self.gt_to_query.min() and self.gt_to_query.max() < self.num_queries):
            raise ContractError(f"matched queries must lie in [0, {self.num_queries}), "
                                f"got {self.gt_to_query.tolist()}")

    @property
    def num_matched(self):
        return int(self.gt_to_query.size)

    def unmatched_queries(self):
        mask = np.ones(self.num_queries, dtype=bool)
        mask[self.gt_to_query] = False
        return np.nonzero(mask)[0]


def _solve_assignment(cost):
    """Column of each row in a minimum-cost assignment of K rows to K of N columns.

    ``cost`` is K lists of N finite floats, K <= N. This is scipy's
    rectangular shortest-augmenting-path solver (``rectangular_lsap.cpp``,
    after Crouse 2016) for the untransposed case, line for line: each row in
    turn grows a shortest path over the columns not yet reached, whose list
    is filled in reverse and shrinks by swapping in its last entry; the
    reduced cost is summed left to right as there; on equal path cost a
    column with no row yet wins; then the duals are updated and the path is
    flipped. Every float operation is the same IEEE double operation in the
    same order, so the assignment is scipy's, ties included. A path cost that
    overflows to infinity raises ValueError, where scipy calls the cost
    matrix infeasible.
    """
    nr, nc = len(cost), len(cost[0])
    u, v = [0.0] * nr, [0.0] * nc
    path, row4col, col4row = [-1] * nc, [-1] * nc, [-1] * nr
    for cur in range(nr):
        shortest = [math.inf] * nc
        remaining = list(range(nc - 1, -1, -1))
        rows_seen, cols_seen = [], []
        min_val, i, sink = 0.0, cur, -1
        while sink < 0:
            rows_seen.append(i)
            row, ui = cost[i], u[i]
            lowest, index = math.inf, -1
            for it, j in enumerate(remaining):
                r = min_val + row[j] - ui - v[j]
                s = shortest[j]
                if r < s:
                    path[j] = i
                    shortest[j] = s = r
                if s < lowest or (s == lowest and row4col[j] < 0):
                    lowest, index = s, it
            if lowest == math.inf:
                raise ValueError("matching costs overflow")
            min_val = lowest
            j = remaining[index]
            if row4col[j] < 0:
                sink = j
            else:
                i = row4col[j]
            cols_seen.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()
        u[cur] += min_val
        for i in rows_seen[1:]:
            u[i] += min_val - shortest[col4row[i]]
        for j in cols_seen:
            v[j] -= min_val - shortest[j]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return col4row


def hungarian_match(cost):
    """Minimum-total-cost assignment of K rows to K of N columns (K <= N).

    Solved by ``_solve_assignment``, a port of scipy's
    ``linear_sum_assignment`` (Crouse 2016) with identical tie-breaking, so
    every matching equals scipy's bit for bit without importing
    ``scipy.optimize``. The size and finiteness checks below make every
    input feasible.
    """
    c = np.asarray(cost, dtype=np.float64)
    if c.ndim != 2:
        raise ShapeError(f"cost must be 2-D, got shape {c.shape}")
    k, n = c.shape
    if k > n:
        raise ValueError(f"cannot match {k} segments to only {n} queries")
    if k and not np.all(np.isfinite(c)):
        raise ValueError("matching costs must be finite")
    if k == 0:
        return Matching(np.zeros(0, dtype=np.int64), n)
    return Matching(np.array(_solve_assignment(c.tolist()), dtype=np.int64), n)


def _gt_arrays(gt, num_classes):
    """Segment masks and class ids at the supervision resolution."""
    index, keys = gt.segment_index()
    segs = np.nonzero(keys[:, 0] != VOID)[0]
    masks = (index[:, None] == segs).astype(np.float64)
    class_ids = keys[segs, 0]
    if class_ids.size and class_ids.max() >= num_classes:
        raise ShapeError(
            f"ground truth class {class_ids.max()} exceeds {num_classes} classes"
        )
    return masks, class_ids


def matching_cost(pred, gt):
    """(K, N) matching-cost array: negative class confidence times mask Dice."""
    masks, class_ids = _gt_arrays(gt, pred.num_classes)
    z = pred.mask_probs()
    class_probs = pred.class_probs()
    inter = masks.T @ z                                  # (K, N)
    denom = masks.sum(axis=0)[:, None] + z.sum(axis=0)[None, :]
    dice = 2.0 * inter / (denom + DICE_EPS)
    confidence = class_probs[:, class_ids].T             # (K, N)
    return -confidence * dice


def _set_prediction_loss(final, aux, sem_logits, masks, class_ids, sem_ids, matching):
    """The whole training loss of one image as one node.

    The final (HW, N) mask logits and each auxiliary output's, nearest-
    upsampled to the final grid, are stacked into one (O, HW, N) array, and
    the class logits into (O, N, C+1); class cross-entropy, Dice, void
    cross-entropy and mask-id cross-entropy are then computed once over the
    output axis. The semantic cross-entropy is the mean over the (HW, C+1)
    ``sem_logits`` rows whose ``sem_ids`` entry is not void; with every row
    void it is 0 and the semantic logits get no gradient. Returns
    ``(loss, l_pq, l_maskid, l_sem)``: the scalar tensor
    ``sum_o (W_PQ * l_pq[o] + W_MASKID * l_maskid[o]) + W_SEM * l_sem``, the
    two (O,) per-output arrays and the float ``l_sem``. The backward sums
    each auxiliary gradient over its f x f upsampling blocks.
    """
    hw, n = final.mask_logits.data.shape
    if sem_logits.data.shape != (sem_ids.size, final.class_logits.data.shape[1]):
        raise ShapeError(f"semantic logits {sem_logits.data.shape} do not match "
                         f"{sem_ids.size} ground-truth pixels by "
                         f"{final.class_logits.data.shape[1]} classes")
    factors = []
    for a in aux:
        factor = final.height // a.height
        if factor & (factor - 1) or (a.height * factor, a.width * factor) != (
                final.height, final.width):
            raise ShapeError(f"stage logits {a.height}x{a.width} do not double up to the "
                             f"supervision grid {final.height}x{final.width}")
        factors.append(factor)
    outputs = [final, *aux]
    logits = np.empty((len(outputs), hw, n), dtype=final.mask_logits.data.dtype)
    logits[0] = final.mask_logits.data
    for i, (a, f) in enumerate(zip(aux, factors), 1):
        logits[i].reshape(a.height, f, a.width, f, n)[...] = (
            a.mask_logits.data.reshape(a.height, 1, a.width, 1, n))
    class_logits = np.stack([out.class_logits.data for out in outputs])

    k = matching.num_matched
    matched = matching.gt_to_query
    unmatched = matching.unmatched_queries()
    targets = np.full(n, class_logits.shape[2] - 1, dtype=np.int64)
    targets[matched] = class_ids
    p_class, lse_class = softmax_lse(class_logits)
    ce = lse_class - class_logits[:, np.arange(n), targets]          # (O, N)
    z, lse = softmax_lse(logits)
    # supervised pixels and the query matched to each one's segment
    pix, seg = np.nonzero(masks)
    qid = matched[seg]

    l_pq = np.zeros(len(outputs))
    row_weight = np.zeros(n)   # d l_pq / d ce of each class row
    if k:
        zm = z[:, :, matched]                                          # (O, HW, K)
        inter = (zm * masks).sum(axis=1)
        denom = zm.sum(axis=1) + (masks.sum(axis=0) + DICE_EPS)
        dice = inter / denom * 2.0
        l_pq += (ce[:, matched].sum(axis=1) + (1.0 - dice).sum(axis=1)) * (1.0 / k)
        row_weight[matched] = 1.0 / k
    if unmatched.size:
        l_pq += ce[:, unmatched].sum(axis=1) * (W_VOID / unmatched.size)
        row_weight[unmatched] = W_VOID / unmatched.size
    l_maskid = np.zeros(len(outputs))
    if pix.size:
        l_maskid += (lse[:, pix] - logits[:, pix, qid]).mean(axis=1)
    terms = W_PQ * l_pq + W_MASKID * l_maskid
    # the semantic cross-entropy, over the pixels whose ground truth is not void
    rows = np.nonzero(sem_ids >= 0)[0]
    r = rows.size
    some_void = r < sem_ids.size
    sem = sem_logits.data[rows] if some_void else sem_logits.data
    sem_t = sem_ids[rows]
    l_sem = 0.0
    if r:
        p_sem, lse_sem = softmax_lse(sem, axis=1)
        l_sem = float((lse_sem - sem[np.arange(r), sem_t]).mean())

    def bwd(g):
        g_class = p_class.copy()
        g_class[:, np.arange(n), targets] -= 1.0
        g_class *= (W_PQ * g) * row_weight[:, None]
        g_logits = np.zeros_like(logits)
        if k:
            # d dice / d zm = 2 (mask * denom - inter) / denom^2, then
            # through the softmax over queries
            g_z = np.zeros_like(logits)
            g_z[:, :, matched] = (masks * denom[:, None, :] - inter[:, None, :]) * (
                -2.0 * W_PQ / k / (denom * denom))[:, None, :]
            g_logits += z * (g_z - (g_z * z).sum(axis=2, keepdims=True))
        if pix.size:
            g_id = z[:, pix]
            g_id[:, np.arange(pix.size), qid] -= 1.0
            g_logits[:, pix] += (W_MASKID / pix.size) * g_id
        g_logits *= g
        _accum(final.mask_logits, g_logits[0], fresh=True)
        _accum(final.class_logits, g_class[0], fresh=True)
        for i, (a, f) in enumerate(zip(aux, factors), 1):
            g_a = g_logits[i].reshape(a.height, f, a.width, f, n).sum(axis=(1, 3))
            _accum(a.mask_logits, g_a.reshape(a.height * a.width, n), fresh=True)
            _accum(a.class_logits, g_class[i], fresh=True)
        if r:
            g_sem = p_sem.copy()
            g_sem[np.arange(r), sem_t] -= 1.0
            g_sem *= (W_SEM * g) / r
            if some_void:
                g_kept, g_sem = g_sem, np.zeros_like(sem_logits.data)
                g_sem[rows] = g_kept
            _accum(sem_logits, g_sem, fresh=True)

    parents = [t for out in outputs for t in (out.mask_logits, out.class_logits)]
    loss = _make(sum(terms.tolist()) + W_SEM * l_sem, [*parents, sem_logits], bwd)
    return loss, l_pq, l_maskid, l_sem


def total_loss(final, aux, sem_logits, gt, matching):
    """Weighted training loss for one image and its unweighted parts.

    Returns ``(loss, parts)``; ``parts`` holds the floats ``l_pq`` and
    ``l_maskid`` summed over the final and auxiliary outputs, and ``l_sem``.
    ``matching`` must be the assignment computed on ``final``; it is reused
    for every auxiliary output. ``gt`` is the ground truth already at the
    supervision resolution of ``final``. The loss is one tape node
    (``_set_prediction_loss``).
    """
    if matching is None:
        raise ContractError("total_loss requires the matching computed on the final prediction")
    masks, class_ids = _gt_arrays(gt, final.num_classes)
    if masks.shape[0] != final.mask_logits.data.shape[0]:
        raise ShapeError(
            f"ground truth grid {gt.height}x{gt.width} does not match the "
            f"{final.height}x{final.width} prediction"
        )
    loss, l_pq, l_maskid, l_sem = _set_prediction_loss(
        final, aux, sem_logits, masks, class_ids, gt.class_map.reshape(-1), matching)
    return loss, {"l_pq": sum(l_pq.tolist()), "l_sem": l_sem,
                  "l_maskid": sum(l_maskid.tolist())}


class AdamW:
    """Decoupled-weight-decay Adam over the model's named parameters.

    At construction the parameters are copied into blocks, decay parameters
    first: a block holds consecutive tensors of at most ``CHUNK`` elements in
    all, or one larger tensor on its own. Each block is one float64 buffer
    with ``m`` and ``v`` buffers of the same layout, and each ``Tensor.data``
    becomes a reshaped view of its block, so an in-place write such as
    ``load_checkpoint``'s ``data[...] = ...`` still reaches the optimizer.
    Constructing a second optimizer over the same tensors moves their data
    into its blocks and detaches the first one.

    A block's update gathers its gradients into one scratch chunk and runs
    in place through two more, so the ≈15 numpy calls of the update act once
    per block rather than once per tensor; a large tensor is updated in
    slices of ``CHUNK``. ``CHUNK`` is sized for L2: the six float64 operands
    of one call (p, m, v, g and two temporaries) take 6 × 128 KiB and stay
    in a 2 MiB L2 cache between those calls. Each element gets the
    arithmetic of a per-tensor loop in the same order, so the result is
    bitwise the same. A tensor whose ``grad`` is None is skipped: its ``m``,
    ``v`` and data are left untouched.

    ``step(loss, lr)`` runs the backward pass of ``loss`` and the update
    together: a block is updated as soon as the last of its tensors has a
    final gradient, and those tensors' ``grad`` is then set to None, so at
    most a few blocks' gradients are alive at once. The blocks the pass did
    not complete are updated after it, so every ``grad`` is None when
    ``step`` returns. The update is elementwise and the pass writes no
    gradient after reporting it final, so this gives the same bytes as a
    backward pass followed by a per-tensor update. If the pass raises, the
    blocks already updated stay updated: the model and the optimizer must
    not be used again.

    ``m`` and ``v`` are allocated by the first step, not at construction.
    In a train step that is after the forward pass has allocated its
    working set, so these long-lived buffers (10 MiB at the default config)
    come after it in glibc's heap, and the memory a step frees at its end
    is kept for the next step instead of being trimmed from the top of the
    heap and faulted back in. With ``m`` and ``v`` allocated at
    construction, runs shaped like the train benchmark's (250-step
    ``train_loop`` calls) took ≈1,500 minor page faults per step; allocated
    here, ≈0.

    The blocks are separate buffers, not one flat one. A buffer of the whole
    model (5 MiB at the default config) would be mapped fresh by the
    allocator on every construction, where blocks of the parameters' own
    sizes reuse memory the process has already freed; one flat buffer raised
    the train benchmark's peak RSS by 8-13 MiB.
    """

    CHUNK = 16 * 1024
    BETA1, BETA2, EPS, WEIGHT_DECAY = 0.9, 0.999, 1e-8, 0.05

    def __init__(self, named_params):
        self.items = [(t, decay) for _, t, decay in named_params]
        self.t = 0
        # (decay, parts, p); a part is (tensor, lo, hi) within p
        self._blocks = []
        for decay in (True, False):
            run, size = [], 0
            for t in [t for t, d in self.items if d == decay]:
                if run and size + t.data.size > self.CHUNK:
                    self._add_block(run, decay)
                    run, size = [], 0
                run.append(t)
                size += t.data.size
            if run:
                self._add_block(run, decay)
        self.m, self.v = [], []   # per block, allocated by the first step
        self._g, self._t1, self._t2 = (np.empty(self.CHUNK) for _ in range(3))
        self._block_of = {t: i for i, (_, parts, _) in enumerate(self._blocks)
                          for t, _, _ in parts}

    def _add_block(self, tensors, decay):
        p = np.empty(sum(t.data.size for t in tensors))
        parts = []
        lo = 0
        for t in tensors:
            hi = lo + t.data.size
            p[lo:hi] = t.data.reshape(-1)
            t.data = p[lo:hi].reshape(t.data.shape)
            parts.append((t, lo, hi))
            lo = hi
        self._blocks.append((decay, parts, p))

    def step(self, loss, lr):
        """Backpropagate the scalar ``loss`` and update every block with ``lr``."""
        if not self.m:
            self.m = [np.zeros_like(p) for _, _, p in self._blocks]
            self.v = [np.zeros_like(p) for _, _, p in self._blocks]
        self.t += 1
        bc1, bc2 = 1.0 - self.BETA1 ** self.t, 1.0 - self.BETA2 ** self.t
        left = [len(parts) for _, parts, _ in self._blocks]   # 0 once updated

        def on_final(t):
            i = self._block_of.get(t)   # None for a leaf this optimizer does not own
            if i is not None:
                left[i] -= 1
                if not left[i]:
                    self._step_block(i, lr, bc1, bc2)

        loss.backward(on_final)
        for i, n in enumerate(left):
            if n:
                self._step_block(i, lr, bc1, bc2)

    def _step_block(self, i, lr, bc1, bc2):
        """Update block ``i`` from its tensors' gradients and drop them."""
        decay, parts, p = self._blocks[i]
        m, v = self.m[i], self.v[i]
        if len(parts) > 1 and all(t.grad is not None for t, _, _ in parts):
            g = self._g[:p.size]
            for t, lo, hi in parts:
                g[lo:hi] = t.grad.reshape(-1)
                t.grad = None
            self._update(p, m, v, g, decay, lr, bc1, bc2)
            return
        for t, lo, hi in parts:
            if t.grad is None:
                continue
            g = t.grad.reshape(-1)
            t.grad = None
            for a in range(lo, hi, self.CHUNK):
                b = min(a + self.CHUNK, hi)
                self._update(p[a:b], m[a:b], v[a:b], g[a - lo:b - lo],
                             decay, lr, bc1, bc2)

    def _update(self, p, m, v, g, decay, lr, bc1, bc2):
        """One in-place AdamW update of the equal-length 1-D views p, m, v."""
        t1, t2 = self._t1[:p.size], self._t2[:p.size]
        m *= self.BETA1
        np.multiply(g, 1.0 - self.BETA1, out=t1)
        m += t1
        v *= self.BETA2
        np.multiply(g, g, out=t1)
        t1 *= 1.0 - self.BETA2
        v += t1
        # update = (m / bc1) / (sqrt(v / bc2) + EPS) [+ WEIGHT_DECAY * p]
        np.divide(v, bc2, out=t1)
        np.sqrt(t1, out=t1)
        t1 += self.EPS
        np.divide(m, bc1, out=t2)
        t2 /= t1
        if decay:
            np.multiply(p, self.WEIGHT_DECAY, out=t1)
            t2 += t1
        t2 *= lr
        p -= t2


def warmup_lr(step, total_steps):
    """Linear warm-up from zero over ``WARMUP_FRAC`` of the run, then ``LR``."""
    warmup_steps = max(1, int(round(total_steps * WARMUP_FRAC)))
    return LR * min(1.0, (step + 1) / warmup_steps)


METRICS_HEADER = "step,loss,l_pq,l_sem,l_maskid,val_pq"


@dataclass
class TrainResult:
    model: KMaxModel
    rows: list
    final_val_pq: float
    seconds: float = 0.0   # the steps and evals, first reads of each scene included


def scene_spec_from_config(cfg):
    size = cfg.model.image_size
    return SceneSpec(seed=cfg.data.seed, height=size, width=size)


def _train_step(model, opt, img, gt, step, lr):
    """One update on one image; returns the loss as a float and its parts.

    ``AdamW.step`` runs the backward pass and updates each parameter block
    as soon as the pass has finished its gradients, so the step ends with
    every ``grad`` None and needs no ``zero_grad``. The step's graph dies on
    return, before a periodic eval runs. An exception raised inside the
    backward pass propagates with some blocks already updated; the model
    must not be used after it.
    """
    pred, aux, sem = model.forward(img)
    gt4 = gt.downsample(gt.height // pred.height)
    matching = hungarian_match(matching_cost(pred, gt4))
    loss, parts = total_loss(pred, aux, sem, gt4, matching)
    if not np.isfinite(loss.item()):
        # stop before backward and the update can corrupt the parameters
        raise ContractError(f"non-finite loss {loss.item()!r} at step {step}")
    opt.step(loss, lr)
    return loss.item(), parts


def train_loop(cfg: Config, dataset=None, checkpoint_path=None, metrics_path=None):
    """Train a model per ``cfg``; returns the model and the metrics rows.

    Fully deterministic for a fixed config: initialization, data order and
    flips all derive from one seed sequence of ``cfg.train.seed``, the run's
    only seed. The returned model holds no gradients. An exception from
    inside a train step's backward pass propagates with that step half
    applied (see ``_train_step``).
    """
    from .checkpoint import save_checkpoint
    from .metrics import evaluate_model

    cfg.validate()
    tc = cfg.train
    spec = scene_spec_from_config(cfg)
    if dataset is None:
        dataset = SyntheticDataset(spec, tc.train_size, tc.val_size)
    if len(dataset.train) == 0:
        raise ContractError("dataset has no training scenes")
    if len(dataset.val) == 0:
        raise ContractError("dataset has no validation scenes")
    table = dataset.class_table
    if table.num_classes != CLASS_TABLE.num_classes:
        raise ContractError(
            f"dataset has {table.num_classes} classes but the model expects "
            f"{CLASS_TABLE.num_classes}"
        )
    max_segments = MAX_SHAPES + len(table.stuff_ids)
    if cfg.model.num_queries < max_segments:
        raise ContractError(
            f"{cfg.model.num_queries} queries cannot cover up to "
            f"{max_segments} ground-truth segments"
        )

    ss = np.random.SeedSequence(tc.seed)
    s_model, s_order, s_aug = ss.spawn(3)
    model = KMaxModel(cfg.model, seed=s_model)
    opt = AdamW(model.named_parameters())
    order_rng = np.random.default_rng(s_order)
    aug_rng = np.random.default_rng(s_aug)

    rows = [METRICS_HEADER]
    order = None
    val_pq = float("nan")
    started = time.time()
    n_train = len(dataset.train)
    for step in range(tc.steps):
        if step % n_train == 0:
            order = order_rng.permutation(n_train)
        img, gt = dataset.train[order[step % n_train]]
        img, gt = augment_flip(img, gt, aug_rng)

        loss, parts = _train_step(model, opt, img, gt, step, warmup_lr(step, tc.steps))

        is_eval = (step + 1) % tc.eval_interval == 0 or step + 1 == tc.steps
        if is_eval:
            val_pq = evaluate_model(model, dataset.val, cfg.infer, table)["pq"]
        rows.append(f"{step},{loss!r},{parts['l_pq']!r},{parts['l_sem']!r},"
                    f"{parts['l_maskid']!r},{repr(val_pq) if is_eval else ''}")

    if metrics_path is not None:
        with open(metrics_path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(rows) + "\n")
    if checkpoint_path is not None:
        save_checkpoint(checkpoint_path, model)
    return TrainResult(model, rows, val_pq, time.time() - started)
