import numpy as np
import pytest
import reference_ops as R

from kmaxseg import tensor as T
from kmaxseg.acceptance import lloyd_init, lloyd_step
from kmaxseg.decoder import PixelFeatures, _hard_aggregate
from kmaxseg.errors import ShapeError
from kmaxseg.layers import Affine, Params
from kmaxseg.tensor import Tensor


def _numpy_softmax(x, axis):
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def _qkv(seed, d):
    """Random Q/K/V projections, declared as the decoder declares its own."""
    return Params(np.random.default_rng(seed)).qkv("p", d)


def _affinity(qkv, centers, pixels):
    """The (N, HW) logits ``Q K^T`` and the values V of ``qkv`` on centers and pixels."""
    q, k, v = qkv
    return T.matmul(q(centers), T.transpose(k(pixels))), v(pixels)


def test_softmax_attention_zero_weights_is_identity():
    rng = np.random.default_rng(0)
    c = Tensor(rng.normal(size=(3, 4)))
    p = Tensor(rng.normal(size=(6, 4)))
    z = Affine(Tensor(np.zeros((4, 4))), Tensor(np.zeros(4)))
    out = c + T.softmax_attention(z(c), z(p), z(p))
    assert np.array_equal(out.data, c.data)
    assert np.array_equal(_affinity((z, z, z), c, p)[0].data, np.zeros((3, 6)))


def test_softmax_attention_single_query_stays_in_value_hull():
    rng = np.random.default_rng(1)
    c = Tensor(rng.normal(size=(1, 3)))
    p = Tensor(rng.normal(size=(5, 3)))
    out = T.softmax_attention(c, p, p)
    attn = T.softmax_attention(c, p, np.eye(5)).data  # identity values give the weights
    assert np.all(attn > 0) and abs(attn.sum() - 1.0) < 1e-12
    lo, hi = p.data.min(axis=0), p.data.max(axis=0)
    assert np.all(out.data[0] >= lo - 1e-12) and np.all(out.data[0] <= hi + 1e-12)


def test_softmax_attention_matches_reimplementation():
    rng = np.random.default_rng(2)
    c = rng.normal(size=(2, 3))
    p = rng.normal(size=(4, 3))
    out = T.softmax_attention(c, p, p) + c
    expected = _numpy_softmax(c @ p.T, axis=1) @ p + c
    assert np.allclose(out.data, expected, atol=1e-12)


def test_softmax_attention_row_normalization():
    rng = np.random.default_rng(3)
    for _ in range(100):
        c = Tensor(rng.normal(size=(4, 5)))
        p = Tensor(rng.normal(size=(9, 5)))
        attn = T.softmax_attention(c, p, np.eye(9)).data
        assert np.all(np.abs(attn.sum(axis=1) - 1.0) <= 1e-12)


def test_dimension_mismatch_raises():
    c = Tensor(np.zeros((2, 4)))
    p = Tensor(np.zeros((6, 3)))
    with pytest.raises(ShapeError):
        T.softmax_attention(c, p, p)


def _embed_1d(points, centers):
    # lift 1-D data so that affinity argmax equals nearest-center:
    # pixels (x, 1), centers (c, -c^2/2) give affinity c*x - c^2/2,
    # a monotone transform of -(x - c)^2 / 2
    p = np.stack([points, np.ones_like(points)], axis=1)
    c = np.stack([centers, -0.5 * centers**2], axis=1)
    return Tensor(c), Tensor(p)


def _hard_update(c, p):
    """``_hard_aggregate`` on the raw affinity ``c p^T`` with values ``p``, and
    the (N, HW) one-hot assignment it sums under."""
    affinity = T.matmul(c, T.transpose(p))
    return _hard_aggregate(affinity, p).data, T.argmax_onehot(affinity).data


def test_hard_aggregate_normalized_hand_case():
    c, p = _embed_1d(np.array([0.0, 0.1, 10.0, 10.1]), np.array([0.0, 10.0]))
    new, assignment = _hard_update(c, p)
    assert np.array_equal(assignment, [[1, 1, 0, 0], [0, 0, 1, 1]])
    # the sum divided by cluster size is the Lloyd mean
    mean = new / assignment.sum(axis=1, keepdims=True)
    assert np.allclose(mean[:, 0], [0.05, 10.05], atol=1e-12)


def test_hard_aggregate_literal_hand_case():
    c, p = _embed_1d(np.array([0.0, 0.1, 10.0, 10.1]), np.array([0.0, 10.0]))
    new, _ = _hard_update(c, p)
    assert np.allclose(new[:, 0], [0.1, 20.1], atol=1e-12)


def test_hard_aggregate_identical_pixels_collapse_to_one_cluster():
    p = Tensor(np.ones((5, 3)))
    c = Tensor(np.zeros((2, 3)))
    new, assignment = _hard_update(c, p)
    # zero affinities tie, so every pixel lands in cluster 0
    assert np.array_equal(assignment[0], np.ones(5))
    assert np.allclose(new[0] / assignment[0].sum(), np.ones(3))


def test_hard_aggregate_empty_cluster_is_zero_row():
    # every pixel prefers cluster 0, so cluster 1 is empty: its update is a
    # zero row, never its previous center
    p = Tensor(np.ones((5, 3)))
    c = Tensor(np.array([[1.0, 1.0, 1.0], [-1.0, -1.0, -1.0]]))
    new, assignment = _hard_update(c, p)
    assert np.array_equal(assignment[1], np.zeros(5))
    assert np.array_equal(new, [[5.0] * 3, [0.0] * 3])


def _distortion(pts, centers):
    return ((pts[:, None] - centers[None]) ** 2).sum(axis=2).min(axis=1).sum()


def test_lloyd_separates_two_blobs():
    rng = np.random.default_rng(5)
    a = rng.normal((0, 0), 0.1, size=(20, 2))
    b = rng.normal((10, 10), 0.1, size=(20, 2))
    pts = np.concatenate([a, b])
    # one step from one init point per blob
    centers, labels = lloyd_step(pts, pts[[3, 27]])
    assert len(set(labels[:20])) == 1 and len(set(labels[20:])) == 1
    assert labels[0] != labels[20]
    got = centers[np.argsort(centers[:, 0])]
    want = np.stack([a.mean(axis=0), b.mean(axis=0)])
    assert np.allclose(got, want[np.argsort(want[:, 0])], atol=1e-9)


def test_lloyd_k_equals_m_zero_distortion():
    rng = np.random.default_rng(6)
    pts = rng.normal(size=(7, 3))
    centers, labels = lloyd_step(pts, lloyd_init(pts, 7, seed=2))
    d2 = ((pts[:, None] - centers[None]) ** 2).sum(axis=2)
    assert np.allclose(d2[np.arange(7), labels], 0.0, atol=1e-15)
    assert len(set(labels.tolist())) == 7


def test_lloyd_distortion_non_increasing():
    rng = np.random.default_rng(7)
    pts = rng.normal(size=(40, 2))
    centers = lloyd_init(pts, 4, seed=3)
    prev = _distortion(pts, centers)
    for _ in range(7):
        centers, _ = lloyd_step(pts, centers)
        cur = _distortion(pts, centers)
        assert cur <= prev + 1e-9
        prev = cur


def test_lloyd_k_too_large_raises():
    with pytest.raises(ValueError):
        lloyd_init(np.zeros((3, 2)), 4, seed=0)
    with pytest.raises(ValueError):   # one distinct point among the three
        lloyd_init(np.zeros((3, 2)), 2, seed=0)


def test_lloyd_step_empty_cluster_keeps_its_center():
    pts = np.array([[0.0, 0.0], [0.2, 0.0], [5.0, 5.0]])
    init = np.array([[0.0, 0.1], [5.0, 4.0], [90.0, 90.0]])
    centers, labels = lloyd_step(pts, init)
    assert np.array_equal(labels, [0, 0, 1])
    assert np.array_equal(centers, [[0.1, 0.0], [5.0, 5.0], [90.0, 90.0]])


def test_lloyd_step_does_not_write_centers():
    rng = np.random.default_rng(19)
    pts = rng.normal(size=(12, 3))
    init = lloyd_init(pts, 3, seed=4)
    kept = init.copy()
    centers, _ = lloyd_step(pts, init)
    assert np.array_equal(init, kept)
    assert not np.array_equal(centers, init) and not np.shares_memory(centers, init)


def test_kmeans_attention_cluster_update_is_assigned_value_sum():
    rng = np.random.default_rng(8)
    c = Tensor(rng.normal(size=(3, 4)))
    p = Tensor(rng.normal(size=(10, 4)))
    affinity = T.matmul(c, T.transpose(p))
    update = _hard_aggregate(affinity, p).data
    a = T.argmax_onehot(affinity).data
    for i in range(3):
        assert np.allclose(update[i], p.data[a[i] == 1].sum(axis=0), atol=1e-12)
    # partition: per-cluster pixel counts sum to HW
    assert a.sum() == 10


def test_kmeans_attention_argmax_scale_invariance():
    rng = np.random.default_rng(9)
    for _ in range(100):
        c = Tensor(rng.normal(size=(3, 4)))
        p = Tensor(rng.normal(size=(7, 4)))
        affinity = T.matmul(c, T.transpose(p))
        assert np.array_equal(_hard_aggregate(affinity, p).data,
                              _hard_aggregate(R.scale(affinity, 12.5), p).data)


def test_permutation_equivariance_in_cluster_index():
    rng = np.random.default_rng(11)
    c = rng.normal(size=(4, 6))
    p = Tensor(rng.normal(size=(9, 6)))
    wq, wk, wv = w = _qkv(0, 6)
    perm = np.array([2, 0, 3, 1])
    base = T.softmax_attention(wq(Tensor(c)), wk(p), wv(p)) + c
    permuted = T.softmax_attention(wq(Tensor(c[perm])), wk(p), wv(p)) + c[perm]
    assert np.allclose(permuted.data, base.data[perm], atol=1e-12)
    base_affinity, v = _affinity(w, Tensor(c), p)
    perm_affinity, _ = _affinity(w, Tensor(c[perm]), p)
    assert np.allclose(perm_affinity.data, base_affinity.data[perm], atol=1e-12)
    base = _hard_aggregate(base_affinity, v) + c
    permuted = _hard_aggregate(perm_affinity, v) + c[perm]
    assert np.allclose(permuted.data, base.data[perm], atol=1e-12)


def test_self_attention_single_query():
    rng = np.random.default_rng(12)
    c = Tensor(rng.normal(size=(1, 4)))
    wq, wk, wv = _qkv(1, 4)
    out = c + T.softmax_attention(wq(c), wk(c), wv(c))
    v = c.data @ wv.w.data + wv.b.data
    assert np.allclose(out.data, c.data + v, atol=1e-12)


def test_self_attention_matches_reimplementation():
    rng = np.random.default_rng(13)
    c = rng.normal(size=(3, 4))
    wq, wk, wv = _qkv(2, 4)
    out = T.softmax_attention(wq(c), wk(c), wv(c)) + c
    q, k, v = (c @ layer.w.data + layer.b.data for layer in (wq, wk, wv))
    expected = c + _numpy_softmax(q @ k.T, axis=1) @ v
    assert np.allclose(out.data, expected, atol=1e-12)


def test_self_attention_permutation_equivariance():
    rng = np.random.default_rng(14)
    c = rng.normal(size=(5, 4))
    wq, wk, wv = _qkv(3, 4)
    perm = np.array([4, 2, 0, 1, 3])
    out = (T.softmax_attention(wq(c), wk(c), wv(c)) + c).data
    cp = c[perm]
    out_perm = (T.softmax_attention(wq(cp), wk(cp), wv(cp)) + cp).data
    assert np.allclose(out_perm, out[perm], atol=1e-12)


def test_gradient_routes_of_kmeans_attention():
    rng = np.random.default_rng(15)
    c = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    p = Tensor(rng.normal(size=(8, 4)))
    wq, wk, wv = w = _qkv(4, 4)

    affinity, v = _affinity(w, c, p)
    out = c + _hard_aggregate(affinity, v)
    R.reduce_sum(R.mul(out, out)).backward()
    assert np.linalg.norm(wv.w.grad) > 0
    assert np.linalg.norm(c.grad) > 0
    # the assignment is detached, so no output-loss gradient reaches wq/wk
    assert wq.w.grad is None and wk.w.grad is None

    affinity2, v2 = _affinity(w, c, p)
    out2 = c + _hard_aggregate(affinity2, v2)
    supervised = R.reduce_sum(R.mul(affinity2, affinity2))
    T.add(R.reduce_sum(R.mul(out2, out2)), supervised).backward()
    assert np.linalg.norm(wq.w.grad) > 0
    assert np.linalg.norm(wk.w.grad) > 0


def test_kmeans_attention_gradcheck_through_loss_path():
    from kmaxseg.gradcheck import grad_check

    rng = np.random.default_rng(16)
    p = Tensor(rng.normal(size=(4, 3)))
    wq, wk, _ = w = _qkv(5, 3)
    r_out = np.random.default_rng(6).normal(size=(4, 3))
    r_log = np.random.default_rng(7).normal(size=(4, 4))

    def f(centers):
        affinity, v = _affinity(w, centers, p)
        out = centers + _hard_aggregate(affinity, v)
        return T.add(R.reduce_sum(R.mul(out, Tensor(r_out))),
                     R.reduce_sum(R.mul(affinity, Tensor(r_log))))

    x = Tensor(rng.normal(size=(4, 3)))
    # reseed if the instance sits near an assignment boundary
    logits = (x.data @ wq.w.data + wq.b.data) @ (p.data @ wk.w.data + wk.b.data).T
    top2 = np.sort(logits, axis=0)[-2:]
    assert (top2[1] - top2[0]).min() > 1e-3
    assert grad_check(f, x, eps=1e-5) < 1e-4


def test_pixel_features_shape_validation():
    with pytest.raises(ShapeError):
        PixelFeatures(Tensor(np.zeros((5, 3))), 2, 2)
    pf = PixelFeatures(Tensor(np.zeros((4, 3))), 2, 2)
    c = Tensor(np.zeros((2, 3)))
    out = c + T.softmax_attention(c, pf.values, pf.values)
    assert out.data.shape == (2, 3)


def test_softmax_attention_rounds_as_the_composed_nodes():
    # the fused node repeats the numpy calls of matmul, scale, softmax and
    # matmul in their order, so output and every gradient are bitwise equal
    rng = np.random.default_rng(17)
    arrays = [rng.normal(size=shape) for shape in ((4, 6), (9, 6), (9, 5))]
    r = rng.normal(size=(4, 5))

    def grads(attend):
        q, k, v = (Tensor(a, requires_grad=True) for a in arrays)
        out = attend(q, k, v)
        R.reduce_sum(R.mul(out, Tensor(r))).backward()
        return [out.data, q.grad, k.grad, v.grad]

    fused = grads(lambda q, k, v: T.softmax_attention(q, k, v, 0.3))
    composed = grads(lambda q, k, v: T.matmul(
        R.softmax(R.scale(T.matmul(q, T.transpose(k)), 0.3), axis=1), v))
    for a, b in zip(fused, composed):
        assert np.array_equal(a, b)


def test_lloyd_step_labels_are_the_nearest_init_center():
    rng = np.random.default_rng(18)
    pts = np.repeat(rng.normal(size=(10, 3)), 2, axis=0)  # duplicates are drawn once
    init = lloyd_init(pts, 4, seed=6)
    assert len(np.unique(init, axis=0)) == 4
    _, labels = lloyd_step(pts, init)
    assert np.array_equal(labels, ((pts[:, None] - init[None]) ** 2).sum(axis=2).argmin(axis=1))
