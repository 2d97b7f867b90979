import inspect
import itertools

import numpy as np
import pytest
import reference_ops as R

from kmaxseg import tensor as T
from kmaxseg.acceptance import GRAD_EPS, GRAD_TOL, gradient_cases
from kmaxseg.errors import ContractError, ShapeError
from kmaxseg.gradcheck import grad_check
from kmaxseg.tensor import Tensor


def test_matmul_identity():
    b = Tensor([[5.0, 6.0], [7.0, 8.0]])
    out = T.matmul(Tensor(np.eye(2)), b)
    assert np.array_equal(out.data, b.data)


def test_matmul_hand_computed():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = Tensor([[5.0, 6.0], [7.0, 8.0]])
    # row-by-column by hand: [[1*5+2*7, 1*6+2*8], [3*5+4*7, 3*6+4*8]]
    assert np.array_equal(T.matmul(a, b).data, [[19.0, 22.0], [43.0, 50.0]])


def test_matmul_shape_error_names_both_shapes():
    a = Tensor(np.zeros((2, 3)))
    with pytest.raises(ShapeError) as err:
        T.matmul(a, Tensor(np.zeros((2, 3))))
    assert "(2, 3)" in str(err.value)


def test_matmul_associative_on_random_chains():
    rng = np.random.default_rng(0)
    for _ in range(10):
        a, b, c = (Tensor(rng.normal(size=(3, 3))) for _ in range(3))
        left = T.matmul(T.matmul(a, b), c).data
        right = T.matmul(a, T.matmul(b, c)).data
        assert np.max(np.abs(left - right)) < 1e-10


# ``softmax_lse`` is every softmax the package computes


def test_softmax_uniform_input():
    p, lse = T.softmax_lse(np.zeros(3), axis=0)
    assert np.allclose(p, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)
    assert abs(lse - np.log(3.0)) < 1e-15


def test_softmax_hand_computed():
    # e^0 / (e^0 + e^ln2) = 1/3, e^ln2 / (...) = 2/3
    p, _ = T.softmax_lse(np.array([0.0, np.log(2.0)]), axis=0)
    assert np.allclose(p, [1 / 3, 2 / 3], atol=1e-15)


def test_softmax_shift_invariance():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(4, 5))
    for c in (-7.0, 3.5, 100.0):
        a = T.softmax_lse(x, axis=1)[0]
        b = T.softmax_lse(x + c, axis=1)[0]
        assert np.allclose(a, b, atol=1e-12)


def test_softmax_rows_sum_to_one_and_open_interval():
    rng = np.random.default_rng(2)
    for _ in range(100):
        s = T.softmax_lse(rng.uniform(-30, 30, size=(3, 7)), axis=1)[0]
        assert np.all(np.abs(s.sum(axis=1) - 1.0) <= 1e-12)
        assert np.all((s > 0) & (s < 1))


def test_argmax_onehot_distinct_maxima():
    out = T.argmax_onehot(Tensor([[2.0, 0.0], [1.0, 3.0]]))
    assert np.array_equal(out.data, [[1.0, 0.0], [0.0, 1.0]])


def test_argmax_onehot_tie_goes_to_lowest_index():
    out = T.argmax_onehot(Tensor([[1.0, 1.0], [1.0, 1.0]]))
    assert np.array_equal(out.data, [[1.0, 1.0], [0.0, 0.0]])


def test_argmax_onehot_columns_are_one_hot():
    rng = np.random.default_rng(3)
    for _ in range(100):
        x = rng.normal(size=(5, 11))
        out = T.argmax_onehot(Tensor(x)).data
        assert np.array_equal(out.sum(axis=0), np.ones(11))
        assert set(np.unique(out)) <= {0.0, 1.0}
        # invariant under per-column shifts and positive rescaling
        shifted = T.argmax_onehot(Tensor(x + rng.normal(size=(1, 11)))).data
        scaled = T.argmax_onehot(Tensor(x * 3.7)).data
        assert np.array_equal(out, shifted)
        assert np.array_equal(out, scaled)


def test_argmax_onehot_empty_input_raises():
    with pytest.raises(ShapeError):
        T.argmax_onehot(Tensor(np.zeros((0, 4))))


def test_argmax_onehot_is_detached():
    x = Tensor(np.random.default_rng(0).normal(size=(3, 4)), requires_grad=True)
    out = T.argmax_onehot(x)
    assert not out.requires_grad
    loss = R.reduce_sum(T.matmul(out, T.transpose(x)))
    loss.backward()
    # gradient reaches x only through the differentiable branch
    assert x.grad is not None


def test_grad_check_quadratic():
    x = Tensor([1.0, 2.0, 3.0])
    err = grad_check(lambda t: R.reduce_sum(R.mul(t, t)), x)
    assert err < 1e-6
    # analytic gradient is 2x
    leaf = Tensor(x.data, requires_grad=True)
    R.reduce_sum(R.mul(leaf, leaf)).backward()
    assert np.allclose(leaf.grad, [2.0, 4.0, 6.0])


def test_grad_check_softmax_sum_is_constant():
    x = Tensor(np.random.default_rng(4).normal(size=(5,)))
    leaf = Tensor(x.data, requires_grad=True)
    R.reduce_sum(R.softmax(leaf, axis=0)).backward()
    assert np.max(np.abs(leaf.grad)) < 1e-12
    # both sides are ~0 here, so the floored denominator only sees FD noise
    assert grad_check(lambda t: R.reduce_sum(R.softmax(t, axis=0)), x) < 1e-2


def test_grad_check_rejects_a_function_that_returns_no_tensor():
    with pytest.raises(ContractError, match="return a Tensor, got float"):
        grad_check(lambda t: float(t.data.sum()), Tensor([1.0, 2.0]))


def test_grad_check_differentiates_a_second_input():
    # an error planted in the gradient of affine's weight alone takes the
    # check over criterion 1's bound; the true op stays under it
    rng = np.random.default_rng(17)
    inputs = (rng.normal(size=(4, 3)), rng.normal(size=(3, 5)), rng.normal(size=5))

    def skewed_affine(x, w, b):
        out = T.affine(x, w, b)
        backward = out._backward

        def skewed(g):
            backward(g)
            w.grad[1, 2] *= 1 + 1e-3

        out._backward = skewed
        return out

    assert grad_check(T.affine, *inputs, eps=GRAD_EPS) < 1e-8
    assert grad_check(skewed_affine, *inputs, eps=GRAD_EPS) > GRAD_TOL


def test_grad_check_weighs_every_entry_of_a_non_scalar_output():
    # the output is contracted with a random cotangent, so a backward that
    # drops the gradient of one output entry is caught
    def identity(x, dropped=None):
        def bwd(g):
            g = g.copy()
            if dropped is not None:
                g[dropped] = 0.0
            T._accum(x, g, fresh=True)

        return T._make(x.data.copy(), (x,), bwd)

    x = np.random.default_rng(18).normal(size=(4, 3))
    assert grad_check(identity, x) < 1e-8
    for dropped in ((0, 0), (3, 2), (2, 1)):
        assert grad_check(lambda t: identity(t, dropped), x) > 0.5


def _op_cases(seed):
    """Criterion 1's cases plus the tests' reference ops, which the composed
    loss and the other references of these tests are built from."""
    rng = np.random.default_rng(1000 + seed)
    x, other = rng.normal(size=(4, 3)), Tensor(rng.normal(size=(4, 3)))
    ids = np.array([0, 2, 1, 2])
    return {
        **gradient_cases(seed),
        "mul": (lambda t: R.mul(t, other), (x,)),
        "div": (lambda t: R.div(t, Tensor(other.data ** 2 + 1.0)), (x,)),
        "softmax": (lambda t: R.softmax(t, axis=1), (x,)),
        "scale": (lambda t: R.scale(t, -1.7), (x,)),
        "take": (lambda t: R.take(t, [1, 3, 1], axis=0), (x,)),
        "reduce_sum": (lambda t: R.reduce_sum(t, axis=0), (x,)),
        "cross_entropy": (lambda t: R.cross_entropy_from_logits(t, ids, "mean"), (x,)),
        "cross_entropy_none": (lambda t: R.cross_entropy_from_logits(t, ids, "none"), (x,)),
    }


def test_gradient_cases_name_every_tape_op():
    # criterion 1 checks exactly the public ops of ``tensor`` that record a
    # tape node, and the training loss; a case is named ``op`` or ``op/variant``
    tape_ops = {name for name, fn in inspect.getmembers(T, inspect.isfunction)
                if fn.__module__ == T.__name__ and not name.startswith("_")
                and "_make(" in inspect.getsource(fn)}
    assert {"add", "conv3x3", "softmax_attention"} <= tape_ops
    assert {name.split("/")[0] for name in gradient_cases(0)} == tape_ops | {"total_loss"}


@pytest.mark.parametrize("name", sorted(_op_cases(0)))
def test_grad_check_every_op(name):
    # one id per op, so a failure names the op criterion 1 folds into its max;
    # five random instances per op, spec tolerance
    for seed in range(5):
        f, inputs = _op_cases(seed)[name]
        assert grad_check(f, *inputs, eps=GRAD_EPS) < GRAD_TOL, f"{name} failed at seed {seed}"


def test_conv3x3_matches_naive_loop():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(5, 6, 2))
    w = rng.normal(size=(3, 3, 2, 4))
    b = rng.normal(size=4)
    for stride in (1, 2):
        ho = (5 + 2 - 3) // stride + 1
        wo = (6 + 2 - 3) // stride + 1
        out = T.conv3x3(Tensor(x.reshape(30, 2)), 5, 6, Tensor(w), Tensor(b),
                        stride=stride).data.reshape(ho, wo, 4)
        xp = np.pad(x, ((1, 1), (1, 1), (0, 0)))
        ref = np.zeros((ho, wo, 4))
        for i in range(ho):
            for j in range(wo):
                patch = xp[i * stride : i * stride + 3, j * stride : j * stride + 3]
                for o in range(4):
                    ref[i, j, o] = (patch * w[:, :, :, o]).sum() + b[o]
        assert np.allclose(out, ref, atol=1e-12)


def _reference_conv3x3(x, w, b, stride, g):
    """Forward and gradients of an einsum-over-windows, 9-matmul conv3x3."""
    h, wd, _ = x.shape
    xp = np.pad(x, ((1, 1), (1, 1), (0, 0)))
    win = np.lib.stride_tricks.sliding_window_view(xp, (3, 3), axis=(0, 1))
    win = win[::stride, ::stride]  # (Ho, Wo, Cin, 3, 3)
    ho, wo = win.shape[:2]
    out = np.einsum("hwcij,ijco->hwo", win, w, optimize=True) + b
    gw = np.einsum("hwcij,hwo->ijco", win, g, optimize=True)
    gx = np.zeros_like(xp)
    for i in range(3):
        for j in range(3):
            gx[i : i + stride * ho : stride, j : j + stride * wo : stride] += g @ w[i, j].T
    return out, gx[1 : 1 + h, 1 : 1 + wd], gw, g.sum(axis=(0, 1))


def _nine_slice_conv3x3(x, w, b, stride, g):
    """Forward and gradients of conv3x3 with its im2col matrix filled by nine
    slice copies and kept for the weight gradient."""
    h, wd, cin = x.shape
    cout = w.shape[3]
    ho, wo = (h - 1) // stride + 1, (wd - 1) // stride + 1
    xp = np.zeros((h + 2, wd + 2, cin))
    xp[1 : 1 + h, 1 : 1 + wd] = x
    cols = np.empty((ho, wo, 3, 3, cin))
    for i in range(3):
        for j in range(3):
            cols[:, :, i, j] = xp[i : i + stride * ho : stride, j : j + stride * wo : stride]
    cols = cols.reshape(ho * wo, 9 * cin)
    wmat = w.reshape(9 * cin, cout)
    out = (cols @ wmat).reshape(ho, wo, cout)
    out += b
    g2 = g.reshape(ho * wo, cout)
    gw = (cols.T @ g2).reshape(3, 3, cin, cout)
    gcols = (g2 @ wmat.T).reshape(ho, wo, 3, 3, cin)
    gx = np.zeros((h + 2, wd + 2, cin))
    for i in range(3):
        for j in range(3):
            gx[i : i + stride * ho : stride, j : j + stride * wo : stride] += gcols[:, :, i, j]
    return out, gx[1 : 1 + h, 1 : 1 + wd], gw, g.sum(axis=(0, 1))


def _rel_err(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("shape", [(5, 7, 3), (8, 8, 3), (9, 6, 64), (7, 7, 64)])
def test_conv3x3_matches_the_einsum_reference(shape, stride):
    rng = np.random.default_rng(sum(shape) + stride)
    cout = 5
    x = rng.normal(size=shape)
    w = rng.normal(size=(3, 3, shape[2], cout))
    b = rng.normal(size=cout)
    h, wd, cin = shape
    ho, wo = (h - 1) // stride + 1, (wd - 1) // stride + 1
    for x_grad in (True, False):
        xt = Tensor(x.reshape(h * wd, cin), requires_grad=x_grad)
        wt, bt = Tensor(w, requires_grad=True), Tensor(b, requires_grad=True)
        out = T.conv3x3(xt, h, wd, wt, bt, stride=stride)
        assert out.data.shape == (ho * wo, cout)
        g = rng.normal(size=out.data.shape)
        R.reduce_sum(R.mul(out, Tensor(g))).backward()
        g = g.reshape(ho, wo, cout)
        ref_out, ref_gx, ref_gw, ref_gb = _reference_conv3x3(x, w, b, stride, g)
        assert _rel_err(out.data.reshape(ref_out.shape), ref_out) <= 1e-12
        assert _rel_err(wt.grad, ref_gw) <= 1e-12
        assert _rel_err(bt.grad, ref_gb) <= 1e-12
        if x_grad:
            assert xt.grad.shape == (h * wd, cin)
            assert _rel_err(xt.grad.reshape(shape), ref_gx) <= 1e-12
        else:
            assert xt.grad is None
        # and byte for byte the nine-slice im2col conv that kept its matrix
        kept = _nine_slice_conv3x3(x, w, b, stride, g)
        got = (out.data, xt.grad if x_grad else kept[1], wt.grad, bt.grad)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in kept]


@pytest.mark.parametrize("stride", [1, 2])
def test_conv3x3_backward_keeps_no_im2col_matrix(stride):
    rng = np.random.default_rng(4)
    h, w, cin, cout = 9, 8, 6, 4
    x = Tensor(rng.normal(size=(h * w, cin)), requires_grad=True)
    wt = Tensor(rng.normal(size=(3, 3, cin, cout)), requires_grad=True)
    out = T.conv3x3(x, h, w, wt, Tensor(np.zeros(cout), requires_grad=True), stride=stride)
    pixels = out.data.shape[0]
    held = [c.cell_contents for c in out._backward.__closure__]
    arrays = [a for a in held if isinstance(a, np.ndarray)]
    arrays += [t.data for t in held if isinstance(t, Tensor)]
    assert arrays and all(a.size < pixels * 9 * cin for a in arrays)
    assert all(a.base is None or a.base.size < pixels * 9 * cin for a in arrays)


def test_conv3x3_keeps_nothing_under_no_grad():
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(size=(36, 3)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 3, 3, 4)), requires_grad=True)
    with T.no_grad():
        out = T.conv3x3(x, 6, 6, w, Tensor(np.zeros(4), requires_grad=True), stride=2)
    assert out._backward is None and out._parents == () and not out.requires_grad


def test_conv3x3_rejects_other_strides_with_a_contract_error():
    x, w, b = Tensor(np.zeros((16, 2))), Tensor(np.zeros((3, 3, 2, 1))), Tensor(np.zeros(1))
    for stride in (0, 3):
        with pytest.raises(ContractError, match="stride"):
            T.conv3x3(x, 4, 4, w, b, stride=stride)
    with pytest.raises(ValueError):   # existing callers catch ValueError
        T.conv3x3(x, 4, 4, w, b, stride=3)


@pytest.mark.parametrize("shape", [(1,), (4,), (3, 1), ()],
                         ids=["one", "four", "column", "scalar"])
def test_conv3x3_rejects_a_bias_that_is_not_one_per_output_channel(shape):
    # a (1,) bias would broadcast and get a (3,) gradient
    x, w = Tensor(np.zeros((16, 2))), Tensor(np.zeros((3, 3, 2, 3)))
    with pytest.raises(ShapeError, match=r"conv3x3 bias .* does not match kernel"):
        T.conv3x3(x, 4, 4, w, Tensor(np.zeros(shape), requires_grad=True))


def test_upsample2x_nearest_values():
    x = Tensor(np.arange(4.0).reshape(4, 1))
    up = T.upsample_nearest(x, 2, 2).data.reshape(4, 4)
    assert np.array_equal(up, [[0, 0, 1, 1], [0, 0, 1, 1], [2, 2, 3, 3], [2, 2, 3, 3]])


@pytest.mark.parametrize("rows", [(11, 2), (13, 2), (3, 4, 2)], ids=["short", "long", "grid"])
def test_spatial_ops_reject_rows_that_are_not_their_grid(rows):
    # a 3x4 grid is 12 rows of channels; another count, or the grid itself, is refused
    x = Tensor(np.zeros(rows))
    with pytest.raises(ShapeError, match="conv3x3 expects 3x4 rows"):
        T.conv3x3(x, 3, 4, Tensor(np.zeros((3, 3, 2, 1))), Tensor(np.zeros(1)))
    with pytest.raises(ShapeError, match="upsample_nearest expects 3x4 rows"):
        T.upsample_nearest(x, 3, 4)


def test_scaled_dot_rounds_as_the_composed_nodes():
    # the node repeats the numpy calls of matmul, transpose and scale and
    # leaves b's gradient in transpose's column-major copy, so the output,
    # both gradients and their memory orders are the chain's
    rng = np.random.default_rng(18)
    arrays = [rng.normal(size=shape) for shape in ((6, 5), (4, 5))]
    r = rng.normal(size=(6, 4))

    def run(dot):
        a, b = (Tensor(x, requires_grad=True) for x in arrays)
        out = dot(a, b)
        R.reduce_sum(R.mul(out, Tensor(r))).backward()
        return [out.data, a.grad, b.grad]

    fused = run(lambda a, b: T.scaled_dot(a, b, 0.3))
    composed = run(lambda a, b: R.scale(T.matmul(a, T.transpose(b)), 0.3))
    for x, y in zip(fused, composed):
        assert x.shape == y.shape and x.tobytes() == y.tobytes()
        assert (x.flags.c_contiguous, x.flags.f_contiguous) == (
            y.flags.c_contiguous, y.flags.f_contiguous)
    assert fused[2].flags.f_contiguous and not fused[2].flags.c_contiguous


def test_layer_norm_rows_standardized():
    rng = np.random.default_rng(8)
    x = Tensor(rng.normal(2.0, 3.0, size=(6, 16)))
    out = T.layer_norm(x, Tensor(np.ones(16)), Tensor(np.zeros(16))).data
    assert np.allclose(out.mean(axis=1), 0.0, atol=1e-12)
    assert np.allclose(out.std(axis=1), 1.0, atol=1e-3)


@pytest.mark.parametrize("gain,bias", [((16,), (1,)), ((1,), (16,)), ((16,), (8,)),
                                       ((1, 16), (16,)), ((16,), (6, 16))],
                         ids=["bias_one", "gain_one", "bias_short", "gain_row", "bias_rows"])
def test_layer_norm_rejects_a_gain_or_bias_that_is_not_one_per_feature(gain, bias):
    x = Tensor(np.random.default_rng(8).normal(size=(6, 16)))
    with pytest.raises(ShapeError, match=r"layer_norm gain .* do not match rows"):
        T.layer_norm(x, Tensor(np.ones(gain)), Tensor(np.zeros(bias)))


def test_cross_entropy_uniform_is_log_n():
    # each cross-entropy of the loss is ``lse - logits[target]``
    _, lse = T.softmax_lse(np.zeros((5, 8)), axis=1)
    assert np.all(np.abs(lse - np.log(8.0)) < 1e-12)


def test_backward_requires_scalar():
    with pytest.raises(ContractError):
        Tensor([1.0, 2.0], requires_grad=True).backward()


def test_backward_visits_shared_nodes_once():
    # y = x + x reuses the same tensor twice; gradient must be exactly 2
    x = Tensor([3.0], requires_grad=True)
    y = T.add(x, x)
    R.reduce_sum(y).backward()
    assert np.array_equal(x.grad, [2.0])


def test_add_rejects_unequal_shapes():
    # the model adds only equal shapes; ``add`` does not broadcast
    for a, b in (((4, 3), (3,)), ((4, 3), (1, 3)), ((2,), ()), ((4, 3), (3, 4))):
        with pytest.raises(ShapeError, match="equal shapes"):
            T.add(Tensor(np.zeros(a)), Tensor(np.zeros(b)))


def test_backward_releases_inner_nodes_and_leaves_keep_their_gradients():
    x = Tensor([1.0, 2.0], requires_grad=True)
    w = Tensor([3.0, -1.0], requires_grad=True)
    y = R.mul(x, w)
    loss = R.reduce_sum(y)
    loss.backward()
    assert np.array_equal(x.grad, [3.0, -1.0]) and np.array_equal(w.grad, [1.0, 2.0])
    for node in (y, loss):
        assert node.grad is None and node._parents == () and node._backward is T._released


def test_second_backward_through_a_released_graph_raises_and_writes_nothing():
    x = Tensor([1.0, 2.0], requires_grad=True)
    w = Tensor([3.0, -1.0], requires_grad=True)
    y = R.mul(x, w)
    loss = R.reduce_sum(y)
    loss.backward()
    before = x.grad.copy(), w.grad.copy()
    # the same output again, and a new output over a released inner node
    # and a leaf, whose closure would write the leaf before reaching ``y``
    for out in (loss, R.reduce_sum(T.add(x, y))):
        with pytest.raises(ContractError, match="already released"):
            out.backward()
        assert out.grad is None
        assert x.grad.tobytes() == before[0].tobytes()
        assert w.grad.tobytes() == before[1].tobytes()


def _final_order_graph():
    """x feeds two nodes (one of them ``mul(x, x)``), w one, c needs no grad."""
    x = Tensor([1.0, -2.0], requires_grad=True)
    w = Tensor([3.0, 0.5], requires_grad=True)
    c = Tensor([2.0, 4.0])
    y = R.mul(x, x)
    k = T.add(R.mul(y, w), x)
    return x, w, c, R.reduce_sum(R.mul(k, c))


def test_on_final_fires_once_per_reached_leaf_after_its_last_consumer():
    x, w, c, loss = _final_order_graph()
    unreached = Tensor([5.0], requires_grad=True)
    nodes = T.GradTape.from_output(loss).nodes
    consumers = {}
    log = []

    def logged(node, backward):
        def wrapped(g):
            log.append(("closure", node))
            backward(g)
        return wrapped

    for t in nodes:
        for p in t._parents:
            consumers.setdefault(p, []).append(t)
        if t._backward is not None:
            t._backward = logged(t, t._backward)
    finals = []

    def on_final(leaf):
        log.append(("final", leaf))
        finals.append((leaf, leaf.grad.copy()))

    loss.backward(on_final)
    assert [leaf for leaf, _ in finals] == [w, x]   # mul(y, w) fires before mul(x, x)
    for leaf, grad in finals:
        at = log.index(("final", leaf))
        assert all(log.index(("closure", node)) < at for node in consumers[leaf])
        assert grad.tobytes() == leaf.grad.tobytes()   # nothing is written after
    assert not any(t is c or t is unreached for _, t in log)
    assert unreached.grad is None and c.grad is None
    # an output that is itself a leaf is final once seeded
    fired = []
    unreached.backward(fired.append)
    assert fired == [unreached] and np.array_equal(unreached.grad, [1.0])


def test_on_final_changes_no_gradient():
    plain, called = _final_order_graph(), _final_order_graph()
    plain[-1].backward()
    called[-1].backward(lambda leaf: None)
    for a, b in zip(plain[:2], called[:2]):
        assert a.grad.tobytes() == b.grad.tobytes()
    assert np.array_equal(plain[0].grad, [14.0, -4.0])   # c * (2 x w + 1)


def test_a_released_graph_raises_before_on_final_fires():
    x, w, c, loss = _final_order_graph()
    loss.backward()
    fired = []
    # the same output again, and a new one over the released output and a leaf
    for out in (loss, T.add(R.reduce_sum(x), loss)):
        with pytest.raises(ContractError, match="already released"):
            out.backward(fired.append)
    assert fired == []


def test_no_grad_suppresses_graph():
    x = Tensor([1.0], requires_grad=True)
    with T.no_grad():
        y = T.add(x, x)
    assert not y.requires_grad and y._backward is None


def test_forward_values_stay_finite():
    rng = np.random.default_rng(9)
    x = Tensor(rng.normal(size=(4, 4)) * 50)
    eye = Tensor(np.eye(4))
    for out in (T.softmax_attention(x, eye, eye), T.gelu(x),
                T.layer_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(4)))):
        assert np.all(np.isfinite(out.data))


@pytest.mark.parametrize("kernel", ["kmeans", "softmax"])
def test_backward_gives_every_node_its_own_writeable_gradient(kernel):
    # a backward closure hands a gradient it allocated to ``_accum`` without
    # a copy; a second owner of that memory would take in-place sums meant
    # for the first. Backprop releases each inner node's gradient once its
    # closure has run, so every closure is wrapped to keep the gradient it
    # receives; the leaves keep theirs.
    from kmaxseg.config import Config
    from kmaxseg.data import generate
    from kmaxseg.model import KMaxModel
    from kmaxseg.training import scene_spec_from_config, total_loss

    cfg = Config()
    cfg.model.kernel = kernel
    model = KMaxModel(cfg.model, seed=0)
    img, gt = generate(scene_spec_from_config(cfg), 0)
    pred, aux, sem = model.forward(img)
    loss, _ = total_loss(pred, aux, sem, gt)
    nodes = T.GradTape.from_output(loss).nodes
    grads = []

    def keep(backward):
        def wrapped(g):
            grads.append(g)
            backward(g)
        return wrapped

    for t in nodes:
        if t._backward is not None:
            t._backward = keep(t._backward)
    loss.backward()
    grads += [t.grad for t in nodes if t.grad is not None]
    assert len(grads) > 300
    assert all(g.flags.writeable for g in grads)
    spans = sorted(np.lib.array_utils.byte_bounds(g) for g in grads)
    assert all(hi <= lo for (_, hi), (lo, _) in zip(spans, spans[1:]))


def test_tensor_keeps_float32_and_makes_everything_else_float64():
    a = np.zeros(3, dtype=np.float32)
    assert Tensor(a).data is a
    assert Tensor(np.float32(2.0)).data.dtype == np.float32
    for data in ([1, 2], np.arange(3), np.zeros(2, dtype=np.float16), 1.5, np.float64(2.0)):
        assert Tensor(data).data.dtype == np.float64


def _float32_cases(rng):
    """name -> (op, float32 inputs that require grad) for every differentiable op."""
    def t(*shape):
        return Tensor(rng.normal(size=shape).astype(np.float32), requires_grad=True)

    return {
        "add": (T.add, (t(4, 3), t(4, 3))),
        "matmul": (T.matmul, (t(4, 3), t(3, 5))),
        "affine": (T.affine, (t(4, 3), t(3, 5), t(5))),
        "gelu": (T.gelu, (t(4, 3),)),
        "transpose": (T.transpose, (t(4, 3),)),
        "softmax_attention": (lambda q, k, v: T.softmax_attention(q, k, v, 0.7),
                              (t(3, 4), t(5, 4), t(5, 2))),
        "layer_norm": (T.layer_norm, (t(4, 3), t(3), t(3))),
        "upsample": (lambda x: T.upsample_nearest(x, 3, 4), (t(12, 2),)),
        "conv_s1": (lambda x, w, b: T.conv3x3(x, 4, 4, w, b, stride=1),
                    (t(16, 2), t(3, 3, 2, 3), t(3))),
        "conv_s2": (lambda x, w, b: T.conv3x3(x, 5, 4, w, b, stride=2),
                    (t(20, 2), t(3, 3, 2, 3), t(3))),
        "scaled_dot": (lambda a, b: T.scaled_dot(a, b, -1.7), (t(3, 4), t(5, 4))),
    }


@pytest.mark.parametrize("name", sorted(_float32_cases(np.random.default_rng(0))))
def test_every_op_keeps_float32_forward_and_backward(name):
    op, inputs = _float32_cases(np.random.default_rng(15))[name]
    out = op(*inputs)
    assert out.data.dtype == np.float32
    R.reduce_sum(out).backward()
    assert [x.grad.dtype for x in inputs] == [np.float32] * len(inputs)


def test_argmax_onehot_keeps_float32():
    x = Tensor(np.random.default_rng(16).normal(size=(3, 5)).astype(np.float32))
    assert T.argmax_onehot(x).data.dtype == np.float32


def _layer_norm_with_np_mean(x, gain, bias, g, eps=1e-5):
    """Forward output and input gradient of layer norm written with ``np.mean``."""
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    dxhat = g * gain
    m1 = dxhat.mean(axis=-1, keepdims=True)
    m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
    return xhat * gain + bias, inv * (dxhat - m1 - xhat * m2)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_layer_norm_rounds_as_the_np_mean_formulation(dtype):
    rng = np.random.default_rng(12)
    for rows, d in ((16, 64), (256, 64), (5, 7)):
        x, g = (rng.normal(1.0, 3.0, size=(rows, d)).astype(dtype) for _ in range(2))
        gain, bias = (rng.normal(size=d).astype(dtype) for _ in range(2))
        leaf = Tensor(x, requires_grad=True)
        out = T.layer_norm(leaf, Tensor(gain), Tensor(bias))
        R.reduce_sum(R.mul(out, Tensor(g))).backward()
        want_out, want_grad = _layer_norm_with_np_mean(x, gain, bias, g)
        assert out.data.dtype == dtype and leaf.grad.dtype == dtype
        assert out.data.tobytes() == want_out.tobytes()
        assert leaf.grad.tobytes() == want_grad.tobytes()


def test_grad_check_differences_a_float32_input_in_float64():
    x = np.random.default_rng(14).normal(size=(3, 4)).astype(np.float32)
    seen = set()

    def f(t):
        seen.add(t.data.dtype)
        return R.reduce_sum(R.mul(t, t))

    # float32 central differences at eps 1e-5 are off by far more than 1e-6
    assert grad_check(f, x) < 1e-6
    assert grad_check(f, Tensor(x)) < 1e-6
    assert seen == {np.dtype(np.float64)}
