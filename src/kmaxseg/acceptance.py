"""Runnable acceptance checks: one function per release criterion.

Each criterion returns (passed, detail). ``run_all`` prints one PASS/FAIL
line per criterion and returns a process exit code; the pytest suite calls
the same functions. A criterion's oracle sits beside it: one Lloyd step
(``lloyd_step`` from ``lloyd_init``'s centers) for criterion 2, exhaustive
assignment for criterion 4 and hand cases for criterion 5. Training-based
criteria share one cached set of ablation runs so the kernel and
decoder-count comparisons reuse the convergence runs. ``train_grid`` trains
them, and ``kmaxseg ablate``'s runs, in one forked share per usable CPU
through ``metrics.run_in_shares``.
"""

from __future__ import annotations

import functools
import itertools
import time
from dataclasses import replace

import numpy as np

from . import tensor as T
from .config import Config
from .data import SceneSpec, generate
from .decoder import _hard_aggregate
from .gradcheck import grad_check
from .metrics import panoptic_quality, run_in_shares
from .model import KMaxModel
from .panoptic import VOID, PanopticMap, PredictionSet
from .tensor import Tensor
from .training import _gt_arrays, _set_prediction_loss, hungarian_match, total_loss, train_loop

GRAD_TOL = 1e-4
GRAD_EPS = 1e-3


def gradient_cases(seed):
    """name -> (f, inputs) for every tape op the package runs, and the training loss.

    A case is named after its op, with ``/variant`` when an op has several.
    ``grad_check`` differentiates each input, so one check covers the
    gradient of every operand. The ``total_loss`` case checks the loss's one
    node, ``_set_prediction_loss``, under a frozen matching: the assignment
    ``total_loss`` solves is piecewise constant in the logits, so a
    finite-difference step must not be able to change it.
    """
    rng = np.random.default_rng(2000 + seed)
    x = rng.normal(size=(4, 3))
    mat = Tensor(rng.normal(size=(3, 5)))
    other = Tensor(rng.normal(size=(4, 3)))
    tall = rng.normal(size=(3, 4, 2)).reshape(12, 2)  # H != W catches a swap
    shapes = {
        "affine": ((4, 3), (3, 5), (5,)),
        "layer_norm": ((4, 3), (3,), (3,)),
        "conv3x3": ((16, 2), (3, 3, 2, 3), (3,)),   # the rows of a 4x4 grid
        "softmax_attention": ((3, 4), (5, 4), (5, 2)),
        # training loss: a 4x4 grid, 3 queries (query 2 unmatched), aux
        # outputs at 1/2 and 1/4 of the grid
        "total_loss": ((16, 3), (3, 3), (16, 3), (4, 3), (3, 3), (1, 3), (3, 3)),
        "scaled_dot": ((3, 4), (5, 4)),   # drawn last: the other cases keep their draws
    }
    # one draw per shape gives the values one flat draw split into them would
    inputs = {name: tuple(rng.normal(size=shape) for shape in op_shapes)
              for name, op_shapes in shapes.items()}
    cls = np.zeros((4, 4), dtype=np.int64)
    cls[1:3, 1:3] = 1
    masks, class_ids = _gt_arrays(PanopticMap(cls, cls.copy()), 2)
    matched = np.array([0, 1])

    def loss(m, cl, sem, m2, cl2, m1, cl1):
        aux = [PredictionSet(m2, cl2, 2, 2), PredictionSet(m1, cl1, 1, 1)]
        return _set_prediction_loss(PredictionSet(m, cl, 4, 4), aux, sem, masks, class_ids,
                                    cls.reshape(-1), matched)[0]

    return {
        "add": (lambda t: T.add(t, other), (x,)),
        "matmul": (lambda t: T.matmul(t, mat), (x,)),
        "gelu": (T.gelu, (x,)),
        "transpose": (T.transpose, (x,)),
        "upsample_nearest": (lambda t: T.upsample_nearest(t, 3, 4), (tall,)),
        "affine": (T.affine, inputs["affine"]),
        "layer_norm": (T.layer_norm, inputs["layer_norm"]),
        "scaled_dot": (lambda a, b: T.scaled_dot(a, b, -1.7), inputs["scaled_dot"]),
        "conv3x3/s1": (lambda x, k, b: T.conv3x3(x, 4, 4, k, b, 1), inputs["conv3x3"]),
        "conv3x3/s2": (lambda x, k, b: T.conv3x3(x, 4, 4, k, b, 2), inputs["conv3x3"]),
        "softmax_attention": (lambda q, k, v: T.softmax_attention(q, k, v, 0.7),
                              inputs["softmax_attention"]),
        "total_loss": (loss, inputs["total_loss"]),
    }


def criterion_1_gradients():
    """grad_check < 1e-4 for every differentiable op and the training loss."""
    started = time.time()
    worst = 0.0
    for seed in range(5):
        for f, inputs in gradient_cases(seed).values():
            worst = max(worst, grad_check(f, *inputs, eps=GRAD_EPS))
    elapsed = time.time() - started
    ok = worst < GRAD_TOL and elapsed < 60.0
    return ok, f"max relative error {worst:.2e}, {elapsed:.1f}s"


def lloyd_init(pts, k, seed):
    """``k`` distinct rows of the (M, D) array ``pts``, drawn by seeded sampling."""
    distinct = np.unique(pts, axis=0)
    if k > distinct.shape[0]:
        raise ValueError(f"k={k} exceeds the number of distinct points")
    rng = np.random.default_rng(seed)
    return distinct[rng.choice(distinct.shape[0], size=k, replace=False)]


def lloyd_step(pts, centers):
    """One Lloyd step on the (M, D) ``pts``: returns (new centers, labels).

    Each point is labeled with its nearest center in Euclidean distance, and
    each center moves to the mean of its points; an empty cluster keeps its
    center. ``centers`` is not written.
    """
    labels = ((pts[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2).argmin(axis=1)
    new = centers.copy()
    for j in range(new.shape[0]):
        members = pts[labels == j]
        if members.shape[0]:
            new[j] = members.mean(axis=0)
    return new, labels


def criterion_2_kmeans_equivalence():
    """The per-cluster mean of the decoder's k-means sum equals one Lloyd step.

    The decoder runs ``_hard_aggregate``'s sum; on 20 sets this divides that
    sum by the cluster sizes, on the raw affinity ``centers @ points.T`` of
    ``scaled_dot``, the op ``KMaxDecoderBlock._interaction`` runs. The
    points are unit-norm, and ``lloyd_init`` draws points as the initial
    centers once for both ``lloyd_step`` and the affinity, so the affinity
    argmax is the nearest center. An empty cluster is the one case where the
    two rules differ (Lloyd keeps its previous center, the model gives a
    zero row), so an instance with one fails the check. The model itself
    always has empty clusters (16 queries over the 4-64 pixels of a
    stride-32/16/8 grid), so the zero-row rule is the one in force there;
    this criterion proves the equivalence where no cluster is empty, and
    ``test_hard_aggregate_empty_cluster_is_zero_row`` covers the rule the
    model runs.
    """
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        m = int(rng.integers(8, 65))
        d = int(rng.integers(2, 9))
        n = int(rng.integers(1, 5))
        pts = rng.normal(size=(m, d))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        init = lloyd_init(pts, n, seed)
        centers, labels = lloyd_step(pts, init)
        affinity = T.scaled_dot(Tensor(init), Tensor(pts), 1.0)
        assignment = affinity.data.argmax(axis=0)
        counts = np.bincount(assignment, minlength=n)
        if counts.min() == 0:
            return False, f"empty cluster at seed {seed}"
        if not np.array_equal(assignment, labels):
            return False, f"assignment mismatch at seed {seed}"
        means = _hard_aggregate(affinity, Tensor(pts)).data / counts[:, None]
        if np.max(np.abs(means - centers)) >= 1e-12:
            return False, f"center mismatch at seed {seed}"
    return True, ("20/20 instances: _hard_aggregate on raw affinities equals one "
                  "Lloyd step (centers within 1e-12)")


def criterion_3_attention_invariants():
    """Softmax attention's row normalization, argmax one-hotness, scale invariance.

    With identity keys and values, ``softmax_attention`` returns its
    attention weights, whose rows must sum to one.
    """
    rng = np.random.default_rng(3)
    eye = Tensor(np.eye(9))
    for _ in range(100):
        s = T.softmax_attention(Tensor(rng.normal(size=(4, 9))), eye, eye).data
        if np.max(np.abs(s.sum(axis=1) - 1.0)) > 1e-12:
            return False, "softmax attention weights' row sum off by more than 1e-12"
    for _ in range(100):
        a = T.argmax_onehot(Tensor(rng.normal(size=(5, 8)))).data
        if not (np.array_equal(a.sum(axis=0), np.ones(8))
                and set(np.unique(a)) <= {0.0, 1.0}):
            return False, "argmax column not one-hot"
    for _ in range(100):
        x = rng.normal(size=(5, 8))
        scale = float(rng.uniform(0.1, 50.0))
        if not np.array_equal(T.argmax_onehot(Tensor(x)).data,
                              T.argmax_onehot(Tensor(x * scale)).data):
            return False, "argmax not invariant to positive scaling"
    return True, "100 instances per property"


def criterion_4_hungarian_oracle():
    """Assignment equals the exhaustive optimum on 200 random instances."""
    rng = np.random.default_rng(4)
    for trial in range(200):
        k = int(rng.integers(1, 8))
        n = int(rng.integers(k, 8))
        cost = rng.normal(size=(k, n))
        got = cost[np.arange(k), hungarian_match(cost)].sum()
        best = min(cost[np.arange(k), list(cols)].sum()
                   for cols in itertools.permutations(range(n), k))
        if abs(got - best) > 1e-9:
            return False, f"suboptimal assignment at trial {trial}"
    return True, "200/200 instances optimal"


def criterion_5_pq_hand_cases():
    """PQ and its SQ x RQ split on hand cases, and PQ's relabeling invariance."""
    cls = np.zeros((8, 8), dtype=np.int64)
    inst = np.zeros((8, 8), dtype=np.int64)
    cls[2:6, 2:6] = 1
    inst[2:6, 2:6] = 1
    gt = PanopticMap(cls, inst)
    perfect = PanopticMap(cls.copy(), inst.copy())
    if abs(panoptic_quality(perfect, gt, {1})["pq"] - 1.0) > 1e-12:
        return False, "perfect prediction did not score 1.0"

    c2 = np.full((10, 10), VOID, dtype=np.int64)
    i2 = np.zeros((10, 10), dtype=np.int64)
    c2[0, :5] = 1; i2[0, :5] = 1
    c2[9, :3] = 1; i2[9, :3] = 2
    g2 = PanopticMap(c2, i2)
    pc = np.full((10, 10), VOID, dtype=np.int64)
    pi = np.zeros((10, 10), dtype=np.int64)
    pc[0, :4] = 1; pi[0, :4] = 1
    split = panoptic_quality(PanopticMap(pc, pi), g2, {1})
    got = split["pq"]
    if abs(got - 0.8 / 1.5) > 1e-6:
        return False, f"0.8-IoU TP + FN case scored {got:.6f}"
    if abs(split["sq"] - 0.8) > 1e-12 or abs(split["rq"] - 2 / 3) > 1e-12:
        return False, f"0.8-IoU TP + FN case split into SQ {split['sq']} RQ {split['rq']}"

    rng = np.random.default_rng(5)
    for _ in range(50):
        cls = rng.integers(0, 3, size=(6, 6)).astype(np.int64)
        inst = rng.integers(0, 3, size=(6, 6)).astype(np.int64)
        pcls = rng.integers(0, 3, size=(6, 6)).astype(np.int64)
        pinst = rng.integers(0, 3, size=(6, 6)).astype(np.int64)
        a = panoptic_quality(PanopticMap(pcls, pinst),
                             PanopticMap(cls, inst), {1})["pq"]
        b = panoptic_quality(PanopticMap(pcls, pinst * 5 + 2),
                             PanopticMap(cls, inst * 9 + 1), {1})["pq"]
        if abs(a - b) > 1e-12:
            return False, "PQ changed under instance relabeling"
    return True, "hand cases exact, 50 relabelings invariant"


def criterion_6_determinism():
    """Two fixed-seed 10-step runs produce bitwise identical traces."""
    cfg = Config()
    cfg.train.steps = 10
    cfg.train.train_size = 8
    cfg.train.val_size = 2
    cfg.train.eval_interval = 5
    cfg.train.seed = 11
    a = train_loop(cfg)
    b = train_loop(cfg)
    ok = a.rows == b.rows
    return ok, "traces identical" if ok else "traces differ"


def train_grid(base, variants, seeds):
    """``[[(final val PQ, seconds) per seed] per variant]`` of ``train_loop``
    on ``base`` with each variant's ``model`` fields and each seed as ``train.seed``.

    Variants with one model config train once per seed. The distinct runs
    train on every usable CPU through ``run_in_shares`` (one run or more to a
    share); a run is a pure function of its config, so each PQ is the float a
    serial run gives.
    """
    cfgs = [replace(base, model=replace(base.model, **v)) for v in variants]
    distinct = [cfg for i, cfg in enumerate(cfgs) if cfg not in cfgs[:i]]

    def train(share):
        return [(r.final_val_pq, r.seconds) for r in map(train_loop, share)]

    runs = run_in_shares(train, [replace(cfg, train=replace(cfg.train, seed=seed))
                                 for cfg in distinct for seed in seeds], 1)
    starts = [distinct.index(cfg) * len(seeds) for cfg in cfgs]
    return [runs[i:i + len(seeds)] for i in starts]


ABLATION = (dict(kernel="kmeans", schedule=(2, 2, 2)),
            dict(kernel="softmax", schedule=(2, 2, 2)),
            dict(kernel="kmeans", schedule=(1, 1, 1)))


@functools.lru_cache(maxsize=None)
def ablation_results(steps=2000, seeds=(0, 1, 2)):
    """``train_grid``'s runs of ``ABLATION`` at ``steps``; cached per session."""
    base = Config()
    base.train.steps = steps
    return train_grid(base, ABLATION, seeds)


def _median_pq(runs):
    return float(np.median([pq for pq, _ in runs]))


def criterion_7_convergence(results=None):
    """Median validation PQ of the default model reaches 0.55 in budget."""
    runs = (results or ablation_results())[0]
    med = _median_pq(runs)
    runtimes = [sec for _, sec in runs]
    ok = med >= 0.55 and max(runtimes) < 1800.0
    return ok, f"median val PQ {med:.4f} (runs {min(runtimes):.0f}-{max(runtimes):.0f}s)"


def criterion_8_kernel_ablation(results=None):
    """Hard-assignment kernel beats softmax kernel by at least 0.03 PQ."""
    km, sm, _ = map(_median_pq, results or ablation_results())
    ok = km - sm >= 0.03
    return ok, f"kmeans {km:.4f} vs softmax {sm:.4f} (gap {km - sm:+.4f})"


def criterion_9_decoder_count(results=None):
    """Six decoders do not degrade against three by more than 0.01 PQ."""
    six, _, three = map(_median_pq, results or ablation_results())
    ok = six >= three - 0.01
    return ok, f"(2,2,2) {six:.4f} vs (1,1,1) {three:.4f}"


def criterion_10_deep_supervision():
    """Kernel query projections receive gradient only through aux losses."""
    cfg = Config()
    spec = SceneSpec(seed=1, height=cfg.model.image_size, width=cfg.model.image_size)
    img, gt = generate(spec, 0)

    def run(aux_on):
        model = KMaxModel(cfg.model, seed=0)
        pred, aux, sem = model.forward(img)
        loss, _ = total_loss(pred, aux if aux_on else [], sem, gt)
        loss.backward()
        return [b.ker_q.w.grad for b in model.blocks]

    grads_off = run(aux_on=False)
    if any(g is not None and np.linalg.norm(g) != 0.0 for g in grads_off):
        return False, "wq gradient nonzero with auxiliary losses disabled"
    grads_on = run(aux_on=True)
    norms = [0.0 if g is None else float(np.linalg.norm(g)) for g in grads_on]
    if not all(n > 0 for n in norms):
        return False, "some wq gradient still zero with auxiliary losses enabled"
    return True, f"wq grads 0 without aux; {min(norms):.2e}..{max(norms):.2e} with aux"


CRITERIA = [
    ("1 gradient correctness", criterion_1_gradients, False),
    ("2 k-means equivalence oracle", criterion_2_kmeans_equivalence, False),
    ("3 attention-map invariants", criterion_3_attention_invariants, False),
    ("4 hungarian oracle", criterion_4_hungarian_oracle, False),
    ("5 pq hand cases", criterion_5_pq_hand_cases, False),
    ("6 determinism", criterion_6_determinism, False),
    ("7 toy convergence", criterion_7_convergence, True),
    ("8 kernel ablation direction", criterion_8_kernel_ablation, True),
    ("9 decoder-count trend", criterion_9_decoder_count, True),
    ("10 deep-supervision necessity", criterion_10_deep_supervision, False),
]


def run_all(fast=False, out=print):
    failures = 0
    for name, fn, slow in CRITERIA:
        if fast and slow:
            out(f"SKIP criterion {name} (training run, disabled by --fast)")
            continue
        passed, detail = fn()
        out(f"{'PASS' if passed else 'FAIL'} criterion {name}: {detail}")
        failures += 0 if passed else 1
    return 0 if failures == 0 else 1
