import itertools

import numpy as np
import pytest

from kmaxseg import tensor as T
from kmaxseg.config import Config
from kmaxseg.data import generate
from kmaxseg.errors import ConfigError, ContractError, ShapeError
from kmaxseg.gradcheck import grad_check
from kmaxseg.model import KMaxModel
from kmaxseg.panoptic import VOID, PanopticMap, PredictionSet
from kmaxseg.tensor import Tensor
from kmaxseg.training import (DICE_EPS, W_MASKID, W_PQ, W_SEM, W_VOID, AdamW, Matching,
                              _gt_arrays, _masked_cross_entropy, hungarian_match,
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
    assert m.gt_to_query.tolist() == [0, 1]


def test_hungarian_identity_favoring_cost():
    cost = np.ones((4, 4)) - np.eye(4)
    assert hungarian_match(cost).gt_to_query.tolist() == [0, 1, 2, 3]


def test_hungarian_matches_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(200):
        k = int(rng.integers(1, 8))
        n = int(rng.integers(k, 8))
        cost = rng.normal(size=(k, n))
        m = hungarian_match(cost)
        got = cost[np.arange(k), m.gt_to_query].sum()
        best, _ = brute_force_match(cost)
        assert abs(got - best) < 1e-9


def test_hungarian_invariant_to_constant_shift():
    rng = np.random.default_rng(1)
    for _ in range(20):
        cost = rng.normal(size=(4, 6))
        a = hungarian_match(cost).gt_to_query
        b = hungarian_match(cost + 17.5).gt_to_query
        assert np.array_equal(a, b)


def test_hungarian_rejects_more_segments_than_queries():
    with pytest.raises(ValueError):
        hungarian_match(np.zeros((3, 2)))


def test_matching_injective_and_flags_unmatched():
    m = Matching(np.array([3, 0]), num_queries=5)
    assert m.unmatched_queries().tolist() == [1, 2, 4]
    with pytest.raises(ContractError):
        Matching(np.array([1, 1]), num_queries=4)


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
    cost = matching_cost(pred, gt).data
    assert cost.shape == (2, pred.num_queries)
    # each gt segment is reproduced exactly by its own query
    assert abs(cost[0, 0] + 1.0) < 1e-4 or abs(cost[0, 1] + 1.0) < 1e-4
    m = hungarian_match(cost)
    matched = cost[np.arange(2), m.gt_to_query]
    assert np.all(matched < -0.99)


def test_matching_cost_disjoint_mask_is_zero():
    gt = _tiny_gt()
    hw = 16
    mask_logits = np.full((hw, 2), -500.0)
    mask_logits[:, 1] = 500.0  # query 0 gets no pixels at all
    class_logits = np.zeros((2, 3))
    pred = PredictionSet(Tensor(mask_logits), Tensor(class_logits), 4, 4)
    cost = matching_cost(pred, gt).data
    assert np.all(np.abs(cost[:, 0]) < 1e-12)


def test_matching_cost_bilinear_in_class_probability():
    gt = _tiny_gt()
    base = _one_hot_prediction(gt, num_classes=2, sharpness=500.0)
    z = base.mask_logits
    # class logits tuned so the target-class probability exactly halves
    cl = base.class_logits.data.copy()
    cost_full = matching_cost(base, gt).data
    probs = base.class_probs()
    halved = PredictionSet(z, Tensor(np.zeros_like(cl)), 4, 4)
    cost_uniform = matching_cost(halved, gt).data
    # with uniform class logits the confidence drops from ~1 to 1/3
    ratio = cost_uniform[0].min() / cost_full[0].min()
    assert abs(ratio - 1 / 3) < 1e-3


def _loss_inputs(gt, num_classes):
    pred = _one_hot_prediction(gt, num_classes, sharpness=50.0)
    sem = Tensor(np.zeros((gt.height * gt.width, num_classes + 1)))
    matching = hungarian_match(matching_cost(pred, gt))
    return pred, sem, matching


def test_total_loss_requires_matching():
    gt = _tiny_gt()
    pred, sem, _ = _loss_inputs(gt, 2)
    with pytest.raises(ContractError):
        total_loss(pred, [], sem, gt, None)


def test_total_loss_perfect_prediction_nears_lower_bound():
    gt = _tiny_gt()
    pred = _one_hot_prediction(gt, num_classes=2, sharpness=500.0)
    sem = Tensor(np.zeros((16, 3)))
    matching = hungarian_match(matching_cost(pred, gt))
    _, parts = total_loss(pred, [], sem, gt, matching)
    # CE of matched classes ~ 0, dice term ~ 0, void CE of the unmatched
    # query ~ 0, mask-id CE ~ 0
    assert parts["l_pq"] < 1e-4
    assert parts["l_maskid"] < 1e-4


def test_total_loss_uniform_masks_give_log_n_maskid():
    gt = _tiny_gt()
    n = 4
    pred = PredictionSet(Tensor(np.zeros((16, n))), Tensor(np.zeros((n, 3))), 4, 4)
    sem = Tensor(np.zeros((16, 3)))
    matching = Matching(np.array([0, 1]), n)
    _, parts = total_loss(pred, [], sem, gt, matching)
    assert abs(parts["l_maskid"] - np.log(n)) < 1e-12


def test_total_loss_without_aux_equals_final_terms():
    gt = _tiny_gt()
    pred, sem, matching = _loss_inputs(gt, 2)
    loss, parts = total_loss(pred, [], sem, gt, matching)
    expected = W_PQ * parts["l_pq"] + W_MASKID * parts["l_maskid"] + W_SEM * parts["l_sem"]
    assert abs(loss.item() - expected) < 1e-12


def test_stage_logits_that_do_not_double_up_to_the_grid_raise_shape_error():
    gt = _tiny_gt()
    pred, sem, matching = _loss_inputs(gt, 2)
    n = pred.num_queries
    for h, w in ((3, 3), (2, 4), (8, 8)):
        stage = PredictionSet(Tensor(np.zeros((h * w, n))), Tensor(np.zeros((n, 3))), h, w)
        with pytest.raises(ShapeError, match="supervision grid 4x4"):
            total_loss(pred, [stage], sem, gt, matching)


def test_total_loss_gradient_passes_finite_differences():
    # 4 queries, 16 pixels with two void ones, aux outputs at 1/2 and 1/4 of
    # the grid; matching frozen, all logits packed into one leaf
    from kmaxseg.acceptance import unpack

    rng = np.random.default_rng(5)
    gt = _tiny_gt()
    gt.class_map[0, :2] = VOID
    n, c = 4, 3
    matching = Matching(np.array([2, 0]), n)
    shapes = ((16, n), (n, c), (16, c), (4, n), (n, c), (1, n), (n, c))

    def f(x):
        m, cl, sem, m2, cl2, m1, cl1 = unpack(x, shapes)
        aux = [PredictionSet(m2, cl2, 2, 2), PredictionSet(m1, cl1, 1, 1)]
        return total_loss(PredictionSet(m, cl, 4, 4), aux, sem, gt, matching)[0]

    x = Tensor(rng.normal(size=sum(a * b for a, b in shapes)))
    assert grad_check(f, x, eps=1e-5) < 1e-4


# -- the composed loss: one tape node per numpy step, the reference the fused
# -- ``_set_prediction_loss`` node is checked against


def _reference_upsample_logits(aux, target_stride_hw):
    h, w = aux.height, aux.width
    target_h, target_w = target_stride_hw
    factor = target_h // h
    n = aux.mask_logits.data.shape[1]
    up = T.upsample_nearest(T.reshape(aux.mask_logits, (h, w, n)), factor)
    return T.reshape(up, (target_h * target_w, n))


def _reference_output_terms(mask_logits, class_logits, masks, class_ids, matching):
    n = class_logits.data.shape[0]
    k = matching.num_matched
    void_id = class_logits.data.shape[1] - 1

    targets = np.full(n, void_id, dtype=np.int64)
    targets[matching.gt_to_query] = class_ids
    ce_rows = T.cross_entropy_from_logits(class_logits, targets, reduction="none")

    pq = Tensor(0.0)
    if k:
        matched_ce = T.reduce_sum(T.take(ce_rows, matching.gt_to_query, axis=0))
        z = T.softmax(mask_logits, axis=1)
        zm = T.take(z, matching.gt_to_query, axis=1)
        inter = T.reduce_sum(T.mul(zm, Tensor(masks)), axis=0)
        denom = T.reduce_sum(zm, axis=0) + Tensor(masks.sum(axis=0) + DICE_EPS)
        dice = T.scale(T.div(inter, denom), 2.0)
        one_minus_dice = T.reduce_sum(Tensor(np.ones(k)) - dice)
        pq = pq + T.scale(matched_ce + one_minus_dice, 1.0 / k)
    unmatched = matching.unmatched_queries()
    if unmatched.size:
        void_ce = T.reduce_sum(T.take(ce_rows, unmatched, axis=0))
        pq = pq + T.scale(void_ce, W_VOID / unmatched.size)

    hw = mask_logits.data.shape[0]
    qid = np.full(hw, -1, dtype=np.int64)
    for i in range(k):
        qid[masks[:, i] > 0] = matching.gt_to_query[i]
    return pq, _masked_cross_entropy(mask_logits, qid)


def _reference_total_loss(final, aux, sem_logits, gt, matching):
    masks, class_ids = _gt_arrays(gt, final.num_classes)
    l_pq, l_maskid = _reference_output_terms(final.mask_logits, final.class_logits,
                                             masks, class_ids, matching)
    total = T.scale(l_pq, W_PQ) + T.scale(l_maskid, W_MASKID)
    pq_sum, maskid_sum = l_pq.item(), l_maskid.item()
    for a in aux:
        up = _reference_upsample_logits(a, (final.height, final.width))
        a_pq, a_maskid = _reference_output_terms(up, a.class_logits, masks, class_ids,
                                                 matching)
        total = total + (T.scale(a_pq, W_PQ) + T.scale(a_maskid, W_MASKID))
        pq_sum += a_pq.item()
        maskid_sum += a_maskid.item()
    l_sem = _masked_cross_entropy(sem_logits, gt.class_map.reshape(-1))
    total = total + T.scale(l_sem, W_SEM)
    return total, {"l_pq": pq_sum, "l_sem": l_sem.item(), "l_maskid": maskid_sum}


def _assert_fused_matches_composed(leaves, build):
    """Loss, parts and every leaf gradient of both losses agree to 1e-12.

    Gradients are compared relative to their global norm, not element-wise:
    some are zero analytically and carry rounding of about 1e-17.
    """
    results = []
    for loss_fn in (total_loss, _reference_total_loss):
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
        matching = Matching(rng.permutation(n)[:k], n)
        sides = (8, 4, 2, 1)
        leaves = [Tensor(rng.normal(size=shape) * 3.0, requires_grad=True)
                  for side in sides for shape in ((side * side, n), (n, c))]
        sem = Tensor(rng.normal(size=(64, c)), requires_grad=True)
        leaves.append(sem)

        def build():
            preds = [PredictionSet(leaves[2 * i], leaves[2 * i + 1], side, side)
                     for i, side in enumerate(sides)]
            return preds[0], preds[1:], sem, gt, matching

        _assert_fused_matches_composed(leaves, build)


@pytest.mark.parametrize("kernel", ["kmeans", "softmax"])
def test_fused_loss_matches_the_composed_nodes_on_the_model(kernel):
    cfg = Config()
    cfg.model.kernel = kernel
    model = KMaxModel(cfg.model, seed=0)
    img, gt = generate(scene_spec_from_config(cfg), 0)
    params = [t for _, t, _ in model.named_parameters()]

    def build():
        pred, aux, sem = model.forward(img)
        gt4 = gt.downsample(cfg.model.image_size // pred.height)
        return pred, aux, sem, gt4, hungarian_match(matching_cost(pred, gt4))

    _assert_fused_matches_composed(params, build)


def test_adamw_zero_lr_keeps_parameters():
    rng = np.random.default_rng(6)
    p = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
    before = p.data.copy()
    opt = AdamW([("p", p, True)], lr=0.0)
    p.grad = np.ones_like(p.data)
    opt.step(0.0)
    assert np.array_equal(p.data, before)
    assert opt.t == 1 and np.any(opt.m[0] != 0)


def test_adamw_decay_flag_controls_decay():
    p1 = Tensor(np.full((2, 2), 10.0), requires_grad=True)
    p2 = Tensor(np.full((2, 2), 10.0), requires_grad=True)
    opt = AdamW([("a", p1, True), ("b", p2, False)], lr=0.1, weight_decay=0.5)
    p1.grad = np.zeros_like(p1.data)
    p2.grad = np.zeros_like(p2.data)
    opt.step()
    assert np.all(p1.data < 10.0)
    assert np.array_equal(p2.data, np.full((2, 2), 10.0))


class _ReferenceAdamW:
    """The per-tensor AdamW loop, on copies of the parameters."""

    def __init__(self, named_params, lr=1e-3, beta1=0.9, beta2=0.999,
                 eps=1e-8, weight_decay=0.05):
        self.items = [(t.data.copy(), decay) for _, t, decay in named_params]
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.weight_decay = weight_decay
        self.m = [np.zeros_like(p) for p, _ in self.items]
        self.v = [np.zeros_like(p) for p, _ in self.items]
        self.t = 0

    def step(self, grads, lr=None):
        lr = self.lr if lr is None else lr
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for (p, decay), m, v, g in zip(self.items, self.m, self.v, grads):
            if g is None:
                continue
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            if decay and self.weight_decay:
                update = update + self.weight_decay * p
            p -= lr * update


def _step_both(opt, ref, named, rng, step, skip=lambda step, i: False):
    for i, (_, t, _) in enumerate(named):
        scale = 10.0 ** rng.integers(-3, 2)
        t.grad = None if skip(step, i) else rng.normal(size=t.data.shape) * scale
    lr = 1e-3 * (1 + step % 5) / 5   # varies from step to step
    opt.step(lr)
    ref.step([t.grad for _, t, _ in named], lr)


def _assert_equals_reference(named, steps=20, skip=lambda step, i: False):
    rng = np.random.default_rng(11)
    opt = AdamW(named, weight_decay=0.05)
    ref = _ReferenceAdamW(named, weight_decay=0.05)
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


def test_warmup_schedule_shape():
    lrs = [warmup_lr(s, 100, 1e-3, 0.05) for s in range(100)]
    assert lrs[0] == pytest.approx(1e-3 / 5)
    assert lrs[4] == pytest.approx(1e-3)
    assert all(lr == pytest.approx(1e-3) for lr in lrs[5:])
    assert all(b >= a - 1e-12 for a, b in zip(lrs, lrs[1:]))


def _tiny_train_config(steps=10, **model_kw):
    cfg = Config()
    cfg.model.d = 16
    cfg.model.num_queries = 6
    cfg.model.schedule = (1, 1, 1)
    cfg.model.encoder_channels = (4, 6, 8, 10, 12)
    cfg.model.ffn_hidden = 16
    for k, v in model_kw.items():
        setattr(cfg.model, k, v)
    cfg.train.steps = steps
    cfg.train.train_size = 6
    cfg.train.val_size = 2
    cfg.train.eval_interval = 5
    return cfg


def test_train_loop_fixed_seed_traces_are_bitwise_identical():
    cfg = _tiny_train_config(steps=10)
    a = train_loop(cfg, seed=3)
    b = train_loop(cfg, seed=3)
    assert a.rows == b.rows
    c = train_loop(cfg, seed=4)
    assert c.rows != a.rows


def test_train_loop_zero_lr_keeps_parameters(monkeypatch):
    from kmaxseg import training
    from kmaxseg.model import KMaxModel

    # a zero train.lr fails validation, so zero the scheduled rate instead
    monkeypatch.setattr(training, "warmup_lr", lambda *args: 0.0)
    cfg = _tiny_train_config(steps=3)
    result = train_loop(cfg, seed=0)
    ss = np.random.SeedSequence(0)
    s_model = ss.spawn(4)[0]
    fresh = KMaxModel(cfg.model, seed=s_model)
    for (_, a, _), (_, b, _) in zip(result.model.named_parameters(),
                                    fresh.named_parameters()):
        assert np.array_equal(a.data, b.data)


def test_train_loop_rejects_too_few_surviving_queries():
    # five shapes plus the background need six queries
    cfg = _tiny_train_config(steps=2, num_queries=5)
    with pytest.raises(ContractError):
        train_loop(cfg, seed=1)


def test_train_loop_rejects_a_negative_seed_before_any_work(monkeypatch):
    from kmaxseg import training

    # the seed argument overrides the validated train.seed
    monkeypatch.setattr(training, "SyntheticDataset", None)
    with pytest.raises(ConfigError, match="seed must be non-negative, got -1"):
        train_loop(_tiny_train_config(steps=2), seed=-1)


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
        return T.scale(loss, np.nan), parts

    monkeypatch.setattr(training, "KMaxModel", RecordingModel)
    monkeypatch.setattr(training, "total_loss", nan_at_step_one)
    with pytest.raises(ContractError, match="step 1"):
        train_loop(_tiny_train_config(steps=3), seed=0)
    for name, t, _ in models[0].named_parameters():
        assert np.array_equal(t.data, snapshot[name]), name
        assert t.grad is None, name   # backward never ran on the NaN loss


def test_train_loop_writes_metrics_and_checkpoint(tmp_path):
    cfg = _tiny_train_config(steps=5)
    metrics = tmp_path / "metrics.csv"
    ckpt = tmp_path / "model.ckpt"
    result = train_loop(cfg, seed=0, checkpoint_path=ckpt, metrics_path=metrics)
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
    cfg.model.encoder_channels = (8, 12, 16, 24, 32)
    cfg.train.train_size = 32
    cfg.train.val_size = 2
    cfg.train.eval_interval = 200
    drops = []
    for seed in range(3):
        rows = train_loop(cfg, seed=seed).rows[1:]
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
    gt4 = gt.downsample(cfg.model.image_size // pred.height)
    loss, _ = total_loss(pred, aux, sem, gt4, hungarian_match(matching_cost(pred, gt4)))
    leaves = [t for t in T.GradTape.from_output(loss).nodes
              if t.requires_grad and not t._parents]
    named = model.named_parameters()
    assert sorted(map(id, leaves)) == sorted(id(t) for _, t, _ in named)
    loss.backward()
    assert [n for n, t, _ in named if t.grad is None] == []
    # weight decay falls on exactly the randomly drawn tensors
    for name, _, decay in named:
        assert decay == (name == "queries" or name.endswith((".w", ".wq", ".wk", ".wv"))), name
