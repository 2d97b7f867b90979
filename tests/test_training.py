import itertools
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import reference_ops as R
from conftest import loss_with_grads

from kmaxseg import tensor as T
from kmaxseg.config import Config
from kmaxseg.data import generate
from kmaxseg.errors import ConfigError, ContractError, ShapeError
from kmaxseg.gradcheck import grad_check
from kmaxseg.model import KMaxModel
from kmaxseg.panoptic import VOID, PanopticMap, PredictionSet
from kmaxseg.tensor import Tensor
from kmaxseg.training import (DICE_EPS, W_MASKID, W_PQ, W_SEM, W_VOID, AdamW, _gt_arrays,
                              _set_prediction_loss, _train_step, hungarian_match,
                              matching_cost, scene_spec_from_config, total_loss, train_loop,
                              warmup_lr)


def brute_force_match(cost):
    """Exhaustive minimum over all injections of rows into columns."""
    k, n = cost.shape
    best, best_cols = np.inf, None
    for cols in itertools.permutations(range(n), k):
        s = cost[np.arange(k), list(cols)].sum()
        if s < best - 1e-12:
            best, best_cols = s, cols
    return best, best_cols


def test_hungarian_two_by_two_hand_case():
    m = hungarian_match(np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert m.dtype == np.int64 and m.tolist() == [0, 1]


def test_hungarian_identity_favoring_cost():
    cost = np.ones((4, 4)) - np.eye(4)
    assert hungarian_match(cost).tolist() == [0, 1, 2, 3]


def test_hungarian_matches_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(200):
        k = int(rng.integers(1, 8))
        n = int(rng.integers(k, 8))
        cost = rng.normal(size=(k, n))
        got = cost[np.arange(k), hungarian_match(cost)].sum()
        best, _ = brute_force_match(cost)
        assert abs(got - best) < 1e-9


def test_hungarian_invariant_to_constant_shift():
    rng = np.random.default_rng(1)
    for _ in range(20):
        cost = rng.normal(size=(4, 6))
        a = hungarian_match(cost)
        b = hungarian_match(cost + 17.5)
        assert np.array_equal(a, b)


def test_hungarian_rejects_more_segments_than_queries():
    with pytest.raises(ValueError):
        hungarian_match(np.zeros((3, 2)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_hungarian_rejects_a_non_finite_cost(bad):
    cost = np.zeros((2, 3))
    cost[1, 2] = bad
    with pytest.raises(ContractError, match="non-finite matching cost"):
        hungarian_match(cost)


def test_hungarian_equals_scipy_bitwise():
    """The in-package solver returns scipy's assignment, ties included."""
    from scipy.optimize import linear_sum_assignment

    rng = np.random.default_rng(15)

    def costs(k, n):
        yield rng.normal(size=(k, n))
        yield rng.integers(0, 3, size=(k, n)).astype(np.float64)   # many ties
        dice = rng.random((k, n)) * (rng.random((k, n)) < 0.3)     # mostly exact zeros
        yield -rng.random((k, n)) * dice

    cases = [(k, n) for n in range(1, 17) for k in range(1, n + 1)] + [(100, 128)]
    for k, n in cases:
        for cost in costs(k, n):
            rows, cols = linear_sum_assignment(cost)
            got = hungarian_match(cost)
            assert got.tolist() == cols[np.argsort(rows)].tolist(), (k, n)


def test_hungarian_with_no_segments_is_empty():
    m = hungarian_match(np.zeros((0, 5)))
    assert m.dtype == np.int64 and m.shape == (0,)


def test_importing_the_package_leaves_scipy_optimize_out():
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import kmaxseg, kmaxseg.cli, kmaxseg.checkpoint, kmaxseg.training; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))")
    out = subprocess.run([sys.executable, "-c", code, str(src)], capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


def _one_hot_prediction(gt, num_classes, sharpness=50.0):
    """Logits that reproduce gt segments one-to-one on the first K queries."""
    index, keys = gt.segment_index()
    segs = np.nonzero(keys[:, 0] != VOID)[0]
    hw = gt.height * gt.width
    n = max(len(segs) + 1, 2)
    mask_logits = np.zeros((hw, n))
    class_logits = np.zeros((n, num_classes + 1))
    for i, k in enumerate(segs):
        mask_logits[index == k, i] = sharpness
        class_logits[i, keys[k, 0]] = sharpness
    class_logits[len(segs):, num_classes] = sharpness
    return PredictionSet(Tensor(mask_logits), Tensor(class_logits), gt.height, gt.width)


def _tiny_gt():
    cls = np.zeros((4, 4), dtype=np.int64)
    cls[1:3, 1:3] = 1
    inst = np.zeros((4, 4), dtype=np.int64)
    inst[1:3, 1:3] = 1
    return PanopticMap(cls, inst)


def test_matching_cost_perfect_prediction_is_minus_one():
    gt = _tiny_gt()
    pred = _one_hot_prediction(gt, num_classes=2, sharpness=500.0)
    cost = matching_cost(pred, *_gt_arrays(gt, 2))
    assert cost.shape == (2, pred.num_queries)
    # each gt segment is reproduced exactly by its own query
    assert abs(cost[0, 0] + 1.0) < 1e-4 or abs(cost[0, 1] + 1.0) < 1e-4
    matched = cost[np.arange(2), hungarian_match(cost)]
    assert np.all(matched < -0.99)


def test_matching_cost_disjoint_mask_is_zero():
    gt = _tiny_gt()
    hw = 16
    mask_logits = np.full((hw, 2), -500.0)
    mask_logits[:, 1] = 500.0  # query 0 gets no pixels at all
    class_logits = np.zeros((2, 3))
    pred = PredictionSet(Tensor(mask_logits), Tensor(class_logits), 4, 4)
    cost = matching_cost(pred, *_gt_arrays(gt, 2))
    assert np.all(np.abs(cost[:, 0]) < 1e-12)


def test_matching_cost_bilinear_in_class_probability():
    gt = _tiny_gt()
    base = _one_hot_prediction(gt, num_classes=2, sharpness=500.0)
    z = base.mask_logits
    # class logits tuned so the target-class probability exactly halves
    cl = base.class_logits.data.copy()
    cost_full = matching_cost(base, *_gt_arrays(gt, 2))
    probs = base.class_probs()
    halved = PredictionSet(z, Tensor(np.zeros_like(cl)), 4, 4)
    cost_uniform = matching_cost(halved, *_gt_arrays(gt, 2))
    # with uniform class logits the confidence drops from ~1 to 1/3
    ratio = cost_uniform[0].min() / cost_full[0].min()
    assert abs(ratio - 1 / 3) < 1e-3


def _loss_inputs(gt, num_classes):
    pred = _one_hot_prediction(gt, num_classes, sharpness=50.0)
    sem = Tensor(np.zeros((gt.height * gt.width, num_classes + 1)))
    return pred, sem


def _loss_with_matching(final, aux, sem_logits, gt, matched):
    """``total_loss``'s node and parts with the matching ``matched`` set by
    hand; ``gt`` is on ``final``'s grid."""
    masks, class_ids = _gt_arrays(gt, final.num_classes)
    return _set_prediction_loss(final, aux, sem_logits, masks, class_ids,
                                gt.class_map.reshape(-1), matched)


def test_total_loss_perfect_prediction_nears_lower_bound():
    gt = _tiny_gt()
    pred = _one_hot_prediction(gt, num_classes=2, sharpness=500.0)
    sem = Tensor(np.zeros((16, 3)))
    _, parts = total_loss(pred, [], sem, gt)
    # CE of matched classes ~ 0, dice term ~ 0, void CE of the unmatched
    # query ~ 0, mask-id CE ~ 0
    assert parts["l_pq"] < 1e-4
    assert parts["l_maskid"] < 1e-4


def test_total_loss_uniform_masks_give_log_n_maskid():
    gt = _tiny_gt()
    n = 4
    pred = PredictionSet(Tensor(np.zeros((16, n))), Tensor(np.zeros((n, 3))), 4, 4)
    sem = Tensor(np.zeros((16, 3)))
    _, parts = _loss_with_matching(pred, [], sem, gt, np.array([0, 1]))
    assert abs(parts["l_maskid"] - np.log(n)) < 1e-12


def test_the_loss_pushes_each_unmatched_query_to_void():
    # queries 3 and 0 take the two segments (classes 0 and 1); 1, 2 and 4 are
    # unmatched and share the void cross-entropy's W_VOID weight
    gt = _tiny_gt()
    n = 5
    class_logits = Tensor(np.zeros((n, 3)), requires_grad=True)
    pred = PredictionSet(Tensor(np.zeros((16, n))), class_logits, 4, 4)
    loss, _ = _loss_with_matching(pred, [], Tensor(np.zeros((16, 3))), gt, np.array([3, 0]))
    loss.backward()
    # softmax of zero logits minus the target one-hot, times each row's weight
    want = np.full((n, 3), 1.0 / 3)
    want[[3, 0, 1, 2, 4], [0, 1, 2, 2, 2]] -= 1.0
    want *= W_PQ * np.array([1 / 2, W_VOID / 3, W_VOID / 3, 1 / 2, W_VOID / 3])[:, None]
    assert np.allclose(class_logits.grad, want, rtol=1e-12, atol=0.0)


def test_total_loss_without_aux_equals_final_terms():
    gt = _tiny_gt()
    pred, sem = _loss_inputs(gt, 2)
    loss, parts = total_loss(pred, [], sem, gt)
    expected = W_PQ * parts["l_pq"] + W_MASKID * parts["l_maskid"] + W_SEM * parts["l_sem"]
    assert abs(loss.item() - expected) < 1e-12


def test_stage_logits_that_do_not_double_up_to_the_grid_raise_shape_error():
    gt = _tiny_gt()
    pred, sem = _loss_inputs(gt, 2)
    n = pred.num_queries
    for h, w in ((3, 3), (2, 4), (8, 8)):
        stage = PredictionSet(Tensor(np.zeros((h * w, n))), Tensor(np.zeros((n, 3))), h, w)
        with pytest.raises(ShapeError, match="supervision grid 4x4"):
            total_loss(pred, [stage], sem, gt)


@pytest.mark.parametrize("rows, cols", [(15, 3), (17, 3), (16, 2), (16, 4)])
def test_semantic_logits_of_the_wrong_shape_raise_shape_error(rows, cols):
    # the 4x4 ground truth has 16 pixels; the class logits have 3 columns
    gt = _tiny_gt()
    pred, _ = _loss_inputs(gt, 2)
    with pytest.raises(ShapeError, match="semantic logits"):
        total_loss(pred, [], Tensor(np.zeros((rows, cols))), gt)


@pytest.mark.parametrize("height, width", [(32, 128), (40, 40), (8, 8), (8, 32), (32, 33)])
def test_a_ground_truth_that_is_not_a_whole_multiple_of_the_prediction_raises(height, width):
    # against a 16x16 prediction: 32x128 is 2x in height only, 40x40 is 2.5x,
    # 8x8 and 8x32 are finer (8x32 has its 256 pixels), and 32x33 samples to
    # 16x16 at stride 2 though it is no multiple of it
    n = 4
    pred = PredictionSet(Tensor(np.zeros((256, n))), Tensor(np.zeros((n, 3))), 16, 16)
    ids = np.zeros((height, width), dtype=np.int64)
    with pytest.raises(ShapeError, match=f"ground truth grid {height}x{width}"):
        total_loss(pred, [], Tensor(np.zeros((256, 3))), PanopticMap(ids, ids))


def test_the_whole_loss_is_one_tape_node():
    rng = np.random.default_rng(8)
    gt = _tiny_gt()
    n, c = 4, 3

    def leaf(*shape):
        return Tensor(rng.normal(size=shape), requires_grad=True)

    pred = PredictionSet(leaf(16, n), leaf(n, c), 4, 4)
    aux = [PredictionSet(leaf(4, n), leaf(n, c), 2, 2),
           PredictionSet(leaf(1, n), leaf(n, c), 1, 1)]
    sem = leaf(16, c)
    loss, _ = _loss_with_matching(pred, aux, sem, gt, np.array([2, 0]))
    parents = [t for out in (pred, *aux) for t in (out.mask_logits, out.class_logits)]
    parents.append(sem)
    assert [id(t) for t in loss._parents] == [id(t) for t in parents]
    # every other node on the tape is one of those leaves
    nodes = T.GradTape.from_output(loss).nodes
    assert nodes[-1] is loss and {id(t) for t in nodes[:-1]} == {id(t) for t in parents}


def test_total_loss_gradient_passes_finite_differences():
    # 4 queries, 16 pixels with two void ones, aux outputs at 1/2 and 1/4 of
    # the grid; matching frozen, each of the seven logits its own input
    rng = np.random.default_rng(5)
    gt = _tiny_gt()
    gt.class_map[0, :2] = VOID
    n, c = 4, 3
    matched = np.array([2, 0])
    shapes = ((16, n), (n, c), (16, c), (4, n), (n, c), (1, n), (n, c))

    def f(m, cl, sem, m2, cl2, m1, cl1):
        aux = [PredictionSet(m2, cl2, 2, 2), PredictionSet(m1, cl1, 1, 1)]
        return _loss_with_matching(PredictionSet(m, cl, 4, 4), aux, sem, gt, matched)[0]

    assert grad_check(f, *(rng.normal(size=shape) for shape in shapes), eps=1e-5) < 1e-4


# -- the composed loss: one tape node per numpy step, the reference the fused
# -- ``_set_prediction_loss`` node is checked against


def _reference_upsample_logits(aux, target_stride_hw):
    h, w = aux.height, aux.width
    up = aux.mask_logits
    while h < target_stride_hw[0]:   # 2x steps; backward sums 2x2 blocks, finest first
        up = T.upsample_nearest(up, h, w)
        h, w = 2 * h, 2 * w
    return up


def _reference_output_terms(mask_logits, class_logits, masks, class_ids, matched):
    n = class_logits.data.shape[0]
    k = matched.size
    void_id = class_logits.data.shape[1] - 1

    targets = np.full(n, void_id, dtype=np.int64)
    targets[matched] = class_ids
    ce_rows = R.cross_entropy_from_logits(class_logits, targets, reduction="none")

    pq = Tensor(0.0)
    if k:
        matched_ce = R.reduce_sum(R.take(ce_rows, matched, axis=0))
        z = R.softmax(mask_logits, axis=1)
        zm = R.take(z, matched, axis=1)
        inter = R.reduce_sum(R.mul(zm, Tensor(masks)), axis=0)
        denom = R.reduce_sum(zm, axis=0) + Tensor(masks.sum(axis=0) + DICE_EPS)
        dice = R.scale(R.div(inter, denom), 2.0)
        one_minus_dice = R.reduce_sum(R.sub(Tensor(np.ones(k)), dice))
        pq = pq + R.scale(matched_ce + one_minus_dice, 1.0 / k)
    unmatched = np.array([q for q in range(n) if q not in matched.tolist()], dtype=np.int64)
    if unmatched.size:
        void_ce = R.reduce_sum(R.take(ce_rows, unmatched, axis=0))
        pq = pq + R.scale(void_ce, W_VOID / unmatched.size)

    hw = mask_logits.data.shape[0]
    qid = np.full(hw, -1, dtype=np.int64)
    for i in range(k):
        qid[masks[:, i] > 0] = matched[i]
    return pq, R.masked_cross_entropy(mask_logits, qid)


def _reference_total_loss(final, aux, sem_logits, gt, matched=None):
    """``gt`` on a whole multiple of ``final``'s grid; with ``matched`` None
    the matching is solved on ``final``, as ``total_loss`` solves it."""
    gt = gt.downsample(gt.height // final.height)
    masks, class_ids = _gt_arrays(gt, final.num_classes)
    if matched is None:
        matched = hungarian_match(matching_cost(final, masks, class_ids))
    l_pq, l_maskid = _reference_output_terms(final.mask_logits, final.class_logits,
                                             masks, class_ids, matched)
    total = R.scale(l_pq, W_PQ) + R.scale(l_maskid, W_MASKID)
    pq_sum, maskid_sum = l_pq.item(), l_maskid.item()
    for a in aux:
        up = _reference_upsample_logits(a, (final.height, final.width))
        a_pq, a_maskid = _reference_output_terms(up, a.class_logits, masks, class_ids,
                                                 matched)
        total = total + (R.scale(a_pq, W_PQ) + R.scale(a_maskid, W_MASKID))
        pq_sum += a_pq.item()
        maskid_sum += a_maskid.item()
    l_sem = R.masked_cross_entropy(sem_logits, gt.class_map.reshape(-1))
    total = total + R.scale(l_sem, W_SEM)
    return total, {"l_pq": pq_sum, "l_sem": l_sem.item(), "l_maskid": maskid_sum}


def _assert_fused_matches_composed(leaves, fused, build):
    """Loss, parts and every leaf gradient of ``fused`` and the composed loss
    agree to 1e-12 on the arguments ``build()`` returns.

    Gradients are compared relative to their global norm, not element-wise:
    some are zero analytically and carry rounding of about 1e-17.
    """
    results = []
    for loss_fn in (fused, _reference_total_loss):
        for t in leaves:
            t.grad = None
        loss, parts = loss_fn(*build())
        loss.backward()
        grads = [np.zeros_like(t.data) if t.grad is None else t.grad.copy() for t in leaves]
        results.append((loss.item(), parts, grads))
    (loss, parts, grads), (ref_loss, ref_parts, ref_grads) = results
    assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
    for key, value in ref_parts.items():
        assert abs(parts[key] - value) <= 1e-12 * abs(value), key
    norm = np.sqrt(sum(np.sum(g * g) for g in ref_grads))
    assert norm > 0
    for g, ref in zip(grads, ref_grads):
        assert np.max(np.abs(g - ref), initial=0.0) <= 1e-12 * norm


def _random_gt(rng, segments, void_frac):
    """8x8 ground truth with ``segments`` segments, each present, over classes 0-2."""
    labels = rng.integers(0, max(segments, 1), size=64)
    labels[:segments] = np.arange(segments)
    labels[rng.random(64) < void_frac] = -1
    if segments == 0:
        labels[:] = -1
    cls = np.where(labels >= 0, labels % 3, VOID).reshape(8, 8)
    inst = np.where(labels >= 0, labels, 0).reshape(8, 8)
    return PanopticMap(cls, inst)


@pytest.mark.parametrize("segments, void_frac", [(0, 0.0), (5, 0.0), (3, 0.2), (4, 0.0),
                                                 (2, 0.5)])
def test_fused_loss_matches_the_composed_nodes(segments, void_frac):
    # 5 queries: 0 segments is k=0 with no supervised pixel, 5 leaves no
    # query unmatched; aux outputs at factors 2, 4 and 8
    rng = np.random.default_rng(40 + segments)
    n, c = 5, 4
    for trial in range(4):
        gt = _random_gt(rng, segments, void_frac)
        k = _gt_arrays(gt, 3)[1].size
        matched = rng.permutation(n)[:k]
        sides = (8, 4, 2, 1)
        leaves = [Tensor(rng.normal(size=shape) * 3.0, requires_grad=True)
                  for side in sides for shape in ((side * side, n), (n, c))]
        sem = Tensor(rng.normal(size=(64, c)), requires_grad=True)
        leaves.append(sem)

        def build():
            preds = [PredictionSet(leaves[2 * i], leaves[2 * i + 1], side, side)
                     for i, side in enumerate(sides)]
            return preds[0], preds[1:], sem, gt, matched

        _assert_fused_matches_composed(leaves, _loss_with_matching, build)


@pytest.mark.parametrize("kernel", ["kmeans", "softmax"])
def test_fused_loss_matches_the_composed_nodes_on_the_model(kernel):
    cfg = Config()
    cfg.model.kernel = kernel
    model = KMaxModel(cfg.model, seed=0)
    img, gt = generate(scene_spec_from_config(cfg), 0)
    params = [t for _, t, _ in model.named_parameters()]

    def build():
        return (*model.forward(img), gt)

    _assert_fused_matches_composed(params, total_loss, build)


def test_adamw_zero_lr_keeps_parameters():
    rng = np.random.default_rng(6)
    p = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
    before = p.data.copy()
    opt = AdamW([("p", p, True)])
    opt.step(loss_with_grads([(p, np.ones_like(p.data))]), 0.0)
    assert np.array_equal(p.data, before)
    assert opt.t == 1 and np.any(opt.m[0] != 0) and p.grad is None


def test_adamw_decay_flag_controls_decay():
    p1 = Tensor(np.full((2, 2), 10.0), requires_grad=True)
    p2 = Tensor(np.full((2, 2), 10.0), requires_grad=True)
    opt = AdamW([("a", p1, True), ("b", p2, False)])
    opt.step(loss_with_grads([(p1, np.zeros_like(p1.data)), (p2, np.zeros_like(p2.data))]),
             0.1)
    assert np.all(p1.data < 10.0)
    assert np.array_equal(p2.data, np.full((2, 2), 10.0))


def test_adamw_step_leaves_the_gradient_of_a_leaf_it_does_not_own():
    p = Tensor(np.ones(3), requires_grad=True)
    other = Tensor(np.full(2, 4.0), requires_grad=True)
    opt = AdamW([("p", p, True)])
    g = np.array([2.0, -1.0])
    opt.step(loss_with_grads([(p, np.ones(3)), (other, g)]), 1e-3)
    assert p.grad is None and not np.array_equal(p.data, np.ones(3))
    assert np.array_equal(other.grad, g) and np.array_equal(other.data, np.full(2, 4.0))


class _ReferenceAdamW:
    """The per-tensor AdamW loop of the fixed recipe, on copies of the parameters."""

    def __init__(self, named_params):
        self.items = [(t.data.copy(), decay) for _, t, decay in named_params]
        self.m = [np.zeros_like(p) for p, _ in self.items]
        self.v = [np.zeros_like(p) for p, _ in self.items]
        self.t = 0

    def step(self, grads, lr):
        b1, b2 = 0.9, 0.999
        self.t += 1
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        for (p, decay), m, v, g in zip(self.items, self.m, self.v, grads):
            if g is None:
                continue
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * (g * g)
            update = (m / bc1) / (np.sqrt(v / bc2) + 1e-8)
            if decay:
                update = update + 0.05 * p
            p -= lr * update


def _step_both(opt, ref, named, rng, step, skip=lambda step, i: False):
    grads = []
    for i, (_, t, _) in enumerate(named):
        scale = 10.0 ** rng.integers(-3, 2)
        grads.append(None if skip(step, i) else rng.normal(size=t.data.shape) * scale)
    lr = 1e-3 * (1 + step % 5) / 5   # varies from step to step
    opt.step(loss_with_grads([(t, g) for (_, t, _), g in zip(named, grads) if g is not None]),
             lr)
    assert [n for n, t, _ in named if t.grad is not None] == []
    ref.step(grads, lr)


def _assert_equals_reference(named, steps=20, skip=lambda step, i: False):
    rng = np.random.default_rng(11)
    opt = AdamW(named)
    ref = _ReferenceAdamW(named)
    for step in range(steps):
        _step_both(opt, ref, named, rng, step, skip)
        for (name, t, _), (p, _) in zip(named, ref.items):
            assert np.array_equal(t.data, p), f"{name} differs at step {step}"


def _random_named(sizes_and_decay, seed=0):
    rng = np.random.default_rng(seed)
    return [(f"p{i}", Tensor(rng.normal(size=shape), requires_grad=True), decay)
            for i, (shape, decay) in enumerate(sizes_and_decay)]


def test_adamw_matches_the_per_tensor_loop_with_mixed_decay_flags():
    named = _random_named([((3,), False), ((4, 5), True), ((7,), False),
                           ((2, 3, 4), True), ((64, 64), True), ((1,), False)])
    _assert_equals_reference(named)


def test_adamw_matches_the_per_tensor_loop_across_chunks():
    # the second tensor spans three chunks, the fourth fills exactly one
    big = 2 * AdamW.CHUNK + 123
    _assert_equals_reference(_random_named([((5,), True), ((big,), True), ((9, 9), False),
                                            ((AdamW.CHUNK,), False), ((3,), True)]))


def test_adamw_skips_a_tensor_without_gradient_like_the_per_tensor_loop():
    named = _random_named([((6,), True), ((3, 3), True), ((4,), False),
                           ((2 * AdamW.CHUNK + 5,), True), ((2,), False)])
    # tensor 1 shares a group with tensor 0; tensor 3 spans three chunks
    _assert_equals_reference(named, skip=lambda step, i: i in (1, 3) and step % 3 == 1)


def test_adamw_matches_the_per_tensor_loop_on_a_model():
    from kmaxseg.model import KMaxModel

    cfg = _tiny_train_config()
    named = KMaxModel(cfg.model, seed=0).named_parameters()
    assert any(not decay for _, _, decay in named[:10])   # decay flags interleave
    _assert_equals_reference(named, skip=lambda step, i: i % 7 == step % 7)


def test_adamw_sees_a_checkpoint_loaded_after_it_was_built(tmp_path):
    from kmaxseg.checkpoint import load_checkpoint, save_checkpoint
    from kmaxseg.model import KMaxModel

    cfg = _tiny_train_config()
    model = KMaxModel(cfg.model, seed=0)
    named = model.named_parameters()
    rng = np.random.default_rng(12)
    opt, ref = AdamW(named), _ReferenceAdamW(named)
    for step in range(3):
        _step_both(opt, ref, named, rng, step)
    path = tmp_path / "other.ckpt"
    save_checkpoint(path, KMaxModel(cfg.model, seed=1))
    load_checkpoint(path, model)
    for (_, t, _), (p, _) in zip(named, ref.items):
        p[...] = t.data
    _step_both(opt, ref, named, rng, 3)
    for (name, t, _), (p, _) in zip(named, ref.items):
        assert np.array_equal(t.data, p), name


def _scene_loss(model, cfg, index, sem_only=False):
    img, gt = generate(scene_spec_from_config(cfg), index)
    pred, aux, sem = model.forward(img)
    if sem_only:   # reaches no decoder parameter
        return R.reduce_sum(sem)
    return total_loss(pred, aux, sem, gt)[0]


def test_a_fused_step_gives_the_bytes_of_backward_then_step(tmp_path, monkeypatch):
    from kmaxseg.checkpoint import load_checkpoint, save_checkpoint
    from kmaxseg.tensor import GradTape

    # small blocks, so the tiny model has 23 and its larger tensors span several
    monkeypatch.setattr(AdamW, "CHUNK", 1024)
    cfg = _tiny_train_config()
    composed, fused = KMaxModel(cfg.model, seed=0), KMaxModel(cfg.model, seed=0)
    opt_c, opt_f = AdamW(composed.named_parameters()), AdamW(fused.named_parameters())
    path = tmp_path / "other.ckpt"
    save_checkpoint(path, KMaxModel(cfg.model, seed=1))
    params = [t for _, t, _ in fused.named_parameters()]
    for step in range(6):
        if step == 3:
            load_checkpoint(path, composed)
            load_checkpoint(path, fused)
        lr = 1e-3 * (1 + step % 3)
        # every fifth tensor needs no grad this step, and step 2 reaches no
        # decoder tensor: both leave ``grad`` None, which the update skips
        for model in (composed, fused):
            for i, (_, t, _) in enumerate(model.named_parameters()):
                t.requires_grad = i % 5 != step % 5
        # the composed model: a whole backward pass, then a step that only
        # hands those gradients back
        _scene_loss(composed, cfg, step, sem_only=step == 2).backward()
        grads = [(t, t.grad) for _, t, _ in composed.named_parameters() if t.grad is not None]
        held = len(grads)
        for t, _ in grads:
            t.grad = None
        opt_c.step(loss_with_grads(grads), lr)
        alive = []
        backprop = GradTape.backprop

        def counting_backprop(tape, grad, on_final):
            def counting(t):
                on_final(t)
                alive.append(sum(p.grad is not None for p in params))

            backprop(tape, grad, counting)

        with monkeypatch.context() as patch:
            patch.setattr(GradTape, "backprop", counting_backprop)
            opt_f.step(_scene_loss(fused, cfg, step, sem_only=step == 2), lr)
        for model in (composed, fused):
            assert [n for n, t, _ in model.named_parameters() if t.grad is not None] == []
        # gradients die as their blocks are updated: the fused pass never
        # holds all the gradients that backward-then-step holds
        assert max(alive) < held
        for (name, a, _), (_, b, _) in zip(composed.named_parameters(),
                                           fused.named_parameters()):
            assert a.data.tobytes() == b.data.tobytes(), f"{name} differs at step {step}"
        for a, b in zip(opt_c.m + opt_c.v, opt_f.m + opt_f.v):
            assert a.tobytes() == b.tobytes(), f"m or v differs at step {step}"
    assert opt_c.t == opt_f.t == 6


def test_train_loop_returns_a_model_without_gradients():
    model = train_loop(_tiny_train_config(steps=3)).model
    assert [n for n, t, _ in model.named_parameters() if t.grad is not None] == []


def test_an_error_inside_backward_propagates_and_updated_blocks_stay(monkeypatch):
    # after this the model is half stepped and must not be used; the test
    # only checks which half
    from kmaxseg import model as model_module
    from kmaxseg import training

    opts, names, before = [], {}, {}

    class RecordingAdamW(training.AdamW):
        def __init__(self, named_params):
            super().__init__(named_params)
            opts.append(self)
            for name, t, _ in named_params:
                names[id(t)], before[id(t)] = name, t.data.copy()

    real_conv3x3 = model_module.conv3x3

    def failing_first_conv(x, h, w, weight, bias, stride=1):
        out = real_conv3x3(x, h, w, weight, bias, stride)
        if out._backward is not None and x.data.shape[1] == 3:
            def fail(g):   # the image's conv: its closure is among the last
                raise RuntimeError("closure failed")
            out._backward = fail
        return out

    monkeypatch.setattr(training, "AdamW", RecordingAdamW)
    monkeypatch.setattr(model_module, "conv3x3", failing_first_conv)
    with pytest.raises(RuntimeError, match="closure failed"):
        train_loop(_tiny_train_config(steps=3))
    # the blocks holding the first conv's weight or bias were never
    # completed; every other block was updated before the closure failed
    updated = 0
    for _, parts, _ in opts[0]._blocks:
        block = {names[id(t)] for t, _, _ in parts}
        changed = {names[id(t)] for t, _, _ in parts
                   if not np.array_equal(t.data, before[id(t)])}
        assert changed == (set() if block & {"enc.0.w", "enc.0.b"} else block)
        updated += bool(changed)
    assert updated > 0


def test_warmup_schedule_shape():
    lrs = [warmup_lr(s, 100) for s in range(100)]
    assert lrs[0] == pytest.approx(1e-3 / 5)
    assert lrs[4] == pytest.approx(1e-3)
    assert all(lr == pytest.approx(1e-3) for lr in lrs[5:])
    assert all(b >= a - 1e-12 for a, b in zip(lrs, lrs[1:]))


def _tiny_train_config(steps=10, **model_kw):
    cfg = Config()
    cfg.model.d = 16
    cfg.model.num_queries = 6
    cfg.model.schedule = (1, 1, 1)
    for k, v in model_kw.items():
        setattr(cfg.model, k, v)
    cfg.train.steps = steps
    cfg.train.train_size = 6
    cfg.train.val_size = 2
    cfg.train.eval_interval = 5
    return cfg


def test_train_loop_fixed_seed_traces_are_bitwise_identical():
    cfg = _tiny_train_config(steps=10)
    cfg.train.seed = 3
    a = train_loop(cfg)
    b = train_loop(cfg)
    assert a.rows == b.rows
    cfg.train.seed = 4
    c = train_loop(cfg)
    assert c.rows != a.rows


def test_train_loop_zero_lr_keeps_parameters(monkeypatch):
    from kmaxseg import training
    from kmaxseg.model import KMaxModel

    # a zero train.lr fails validation, so zero the scheduled rate instead
    monkeypatch.setattr(training, "warmup_lr", lambda *args: 0.0)
    cfg = _tiny_train_config(steps=3)
    result = train_loop(cfg)
    ss = np.random.SeedSequence(0)
    s_model = ss.spawn(4)[0]
    fresh = KMaxModel(cfg.model, seed=s_model)
    for (_, a, _), (_, b, _) in zip(result.model.named_parameters(),
                                    fresh.named_parameters()):
        assert np.array_equal(a.data, b.data)


def test_train_loop_rejects_too_few_surviving_queries():
    # five shapes plus the background need six queries
    cfg = _tiny_train_config(steps=2, num_queries=5)
    cfg.train.seed = 1
    with pytest.raises(ContractError):
        train_loop(cfg)


def test_train_loop_rejects_a_negative_seed_before_any_work(monkeypatch):
    from kmaxseg import training

    # a seed set after parsing is validated again before the dataset is built
    monkeypatch.setattr(training, "SyntheticDataset", None)
    cfg = _tiny_train_config(steps=2)
    cfg.train.seed = -1
    with pytest.raises(ConfigError, match="train.seed must be non-negative, got -1"):
        train_loop(cfg)


def test_train_loop_rejects_an_empty_train_split_before_any_work(monkeypatch):
    from kmaxseg import training
    from kmaxseg.data import SceneSpec, SyntheticDataset

    monkeypatch.setattr(training, "KMaxModel", None)
    dataset = SyntheticDataset(SceneSpec(seed=0), 0, 2)
    with pytest.raises(ContractError, match="dataset has no training scenes"):
        train_loop(_tiny_train_config(steps=2), dataset=dataset)


def test_train_loop_rejects_an_empty_val_split_before_any_work(monkeypatch):
    from kmaxseg import training
    from kmaxseg.data import SceneSpec, SyntheticDataset

    # no val scenes would score PQ 0.0 at every eval instead of failing
    monkeypatch.setattr(training, "KMaxModel", None)
    dataset = SyntheticDataset(SceneSpec(seed=0), 4, 0)
    with pytest.raises(ContractError, match="dataset has no validation scenes"):
        train_loop(_tiny_train_config(steps=2), dataset=dataset)


def test_a_short_train_loop_renders_only_the_scenes_it_reads(generate_calls):
    from kmaxseg.data import SyntheticDataset

    cfg = _tiny_train_config(steps=4)
    cfg.train.train_size = 256
    train_loop(cfg)
    val = [i for i in generate_calls if i >= SyntheticDataset.VAL_OFFSET]
    assert len(generate_calls) == len(set(generate_calls))
    assert len(generate_calls) - len(val) <= 4
    assert sorted(val) == [SyntheticDataset.VAL_OFFSET + i for i in range(2)]


def test_a_train_step_builds_its_ground_truth_segments_once(monkeypatch):
    cfg = _tiny_train_config()
    model = KMaxModel(cfg.model, seed=0)
    img, gt = generate(scene_spec_from_config(cfg), 0)
    calls = []
    segment_index = PanopticMap.segment_index

    def counting(self):
        calls.append((self.height, self.width))
        return segment_index(self)

    monkeypatch.setattr(PanopticMap, "segment_index", counting)
    _train_step(model, AdamW(model.named_parameters()), img, gt, 0, 1e-3)
    # once, on the ground truth sampled to the stride-4 prediction grid
    assert calls == [(gt.height // 4, gt.width // 4)]


def test_train_loop_stops_on_a_non_finite_loss_before_the_update(monkeypatch):
    from kmaxseg import training

    models, calls, snapshot = [], [], {}

    class RecordingModel(training.KMaxModel):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            models.append(self)

    real_total_loss = training.total_loss

    def nan_at_step_one(*args, **kwargs):
        loss, parts = real_total_loss(*args, **kwargs)
        calls.append(None)
        if len(calls) == 1:
            return loss, parts
        snapshot.update((n, t.data.copy()) for n, t, _ in models[0].named_parameters())
        # keeps the graph, so a backward pass would write NaN gradients
        return R.scale(loss, np.nan), parts

    monkeypatch.setattr(training, "KMaxModel", RecordingModel)
    monkeypatch.setattr(training, "total_loss", nan_at_step_one)
    with pytest.raises(ContractError, match="step 1"):
        train_loop(_tiny_train_config(steps=3))
    for name, t, _ in models[0].named_parameters():
        assert np.array_equal(t.data, snapshot[name]), name
        assert t.grad is None, name   # backward never ran on the NaN loss


# a NaN weight in the final class head reaches the matching costs; in the
# semantic head and in the last block's auxiliary class head only the loss
@pytest.mark.parametrize("name", ["final.class.w", "final.sem.w", "blocks.2.class.w"])
def test_a_diverged_parameter_stops_the_step_naming_it_before_the_update(name):
    cfg = _tiny_train_config()
    model = KMaxModel(cfg.model, seed=0)
    params = {n: t for n, t, _ in model.named_parameters()}
    params[name].data[0, 0] = np.nan
    snapshot = {n: t.data.copy() for n, t in params.items()}
    opt = AdamW(model.named_parameters())
    img, gt = generate(scene_spec_from_config(cfg), 0)
    with pytest.raises(ContractError, match="^non-finite .* at step 7$"):
        _train_step(model, opt, img, gt, 7, 1e-3)
    for n, t in params.items():
        assert np.array_equal(t.data, snapshot[n], equal_nan=True), n
        assert t.grad is None, n


def test_train_loop_writes_metrics_and_checkpoint(tmp_path):
    cfg = _tiny_train_config(steps=5)
    metrics = tmp_path / "metrics.csv"
    ckpt = tmp_path / "model.ckpt"
    result = train_loop(cfg, checkpoint_path=ckpt, metrics_path=metrics)
    lines = metrics.read_text().splitlines()
    assert lines[0] == "step,loss,l_pq,l_sem,l_maskid,val_pq"
    assert len(lines) == 6
    assert ckpt.exists()
    # final row carries the validation PQ
    assert lines[-1].split(",")[-1] != ""
    assert result.final_val_pq == float(lines[-1].split(",")[-1])


def test_loss_decreases_over_200_toy_steps():
    # median over three seeds of mean(last 20) vs mean(first 20)
    cfg = _tiny_train_config(steps=200)
    cfg.model.d = 32
    cfg.train.train_size = 32
    cfg.train.val_size = 2
    cfg.train.eval_interval = 200
    drops = []
    for seed in range(3):
        cfg.train.seed = seed
        rows = train_loop(cfg).rows[1:]
        losses = np.array([float(r.split(",")[1]) for r in rows])
        drops.append(losses[-20:].mean() - losses[:20].mean())
    assert np.median(drops) < 0


@pytest.mark.parametrize("kernel", ["kmeans", "softmax"])
def test_the_loss_reaches_exactly_the_registered_parameters(kernel):
    cfg = Config()
    cfg.model.kernel = kernel
    model = KMaxModel(cfg.model, seed=0)
    img, gt = generate(scene_spec_from_config(cfg), 0)
    pred, aux, sem = model.forward(img)
    loss, _ = total_loss(pred, aux, sem, gt)
    leaves = [t for t in T.GradTape.from_output(loss).nodes
              if t.requires_grad and not t._parents]
    named = model.named_parameters()
    assert sorted(map(id, leaves)) == sorted(id(t) for _, t, _ in named)
    loss.backward()
    assert [n for n, t, _ in named if t.grad is None] == []
    # weight decay falls on exactly the randomly drawn tensors
    for name, _, decay in named:
        assert decay == (name == "queries" or name.endswith((".w", ".wq", ".wk", ".wv"))), name
