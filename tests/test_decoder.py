import numpy as np
import pytest
import reference_ops as R

from kmaxseg import tensor as T
from kmaxseg.config import ModelConfig
from kmaxseg.decoder import KMaxDecoderBlock, PixelFeatures
from kmaxseg.errors import ConfigError, ContractError
from kmaxseg.model import KMaxModel
from kmaxseg.tensor import Tensor


def _pixels(rng, h, w, d):
    return PixelFeatures(Tensor(rng.normal(size=(h * w, d))), h, w)


def _numpy_softmax(x, axis):
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def test_zero_block_passes_centers_through():
    rng = np.random.default_rng(0)
    block = KMaxDecoderBlock(np.random.default_rng(1), 4, 3, "kmeans")
    for _, t, _ in block.named_parameters():
        t.data[...] = 0.0
    c = Tensor(rng.normal(size=(2, 4)))
    p = _pixels(rng, 2, 3, 4)
    out, aux = block.forward(c, p)
    assert np.array_equal(out.data, c.data)
    assert np.array_equal(aux.mask_logits.data, np.zeros((6, 2)))
    # zero mask logits give uniform per-pixel mask softmax
    z = _numpy_softmax(aux.mask_logits.data, axis=1)
    assert np.allclose(z, 0.5)


def _reference_forward(block, c, p, interaction):
    """Numpy forward of one block; ``interaction(q, k, v)`` is the kernel's
    update. Returns (centers, mask logits (HW, N), class logits)."""
    from scipy.special import erf

    def ln(x, norm, eps=1e-5):
        mu = x.mean(axis=-1, keepdims=True)
        var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
        return (x - mu) / np.sqrt(var + eps) * norm.gain.data + norm.bias.data

    def proj(x, layer):
        return x @ layer.w.data + layer.b.data

    scale = c.shape[1] ** -0.5  # standard transformer logit scaling
    # self-attention, output-normalized residual
    x = ln(c, block.sa_ln)
    q = proj(x, block.sa_q)
    k = proj(x, block.sa_k)
    v = proj(x, block.sa_v)
    upd = _numpy_softmax(scale * (q @ k.T), axis=1) @ v
    c1 = c + ln(upd, block.sa_ln_out)
    # cross-attention
    q2 = proj(ln(c1, block.ker_ln_c), block.ker_q)
    pin = ln(p.values.data, block.ker_ln_p)
    k2 = proj(pin, block.ker_k)
    v2 = proj(pin, block.ker_v)
    c2 = c1 + ln(interaction(q2, k2, v2), block.ker_ln_out)
    # ffn
    h = proj(ln(c2, block.ffn_ln), block.ffn1)
    h = 0.5 * h * (1 + erf(h / np.sqrt(2)))
    c3 = c2 + ln(proj(h, block.ffn2), block.ffn_ln_out)

    mask_ref = scale * ((q2 @ block.mask.w.data + block.mask.b.data) @ k2.T)
    cls_ref = ln(c3, block.head_ln) @ block.cls.w.data + block.cls.b.data
    return c3, mask_ref.T, cls_ref


def test_softmax_block_matches_reimplementation():
    rng = np.random.default_rng(1)
    block = KMaxDecoderBlock(np.random.default_rng(2), 4, num_classes=3, kernel="softmax")
    c = rng.normal(size=(2, 4))
    p = _pixels(rng, 2, 3, 4)
    out, aux = block.forward(Tensor(c), p)

    def softmax_update(q, k, v):
        return _numpy_softmax(4 ** -0.5 * (q @ k.T), axis=1) @ v

    c3, mask_ref, cls_ref = _reference_forward(block, c, p, softmax_update)
    assert np.allclose(out.data, c3, atol=1e-12)
    assert np.allclose(aux.mask_logits.data, mask_ref, atol=1e-12)
    assert np.allclose(aux.class_logits.data, cls_ref, atol=1e-12)


def test_kmeans_block_matches_reimplementation():
    rng = np.random.default_rng(3)
    block = KMaxDecoderBlock(np.random.default_rng(4), 4, num_classes=3, kernel="kmeans")
    c = rng.normal(size=(3, 4))
    p = _pixels(rng, 4, 4, 4)
    out, aux = block.forward(Tensor(c), p)

    # the hard assignment is the argmax over clusters of the supervised logits
    onehot = np.eye(3)[aux.mask_logits.data.argmax(axis=1)].T  # (N, HW)
    sizes = onehot.sum(axis=1)
    assert (sizes > 0).sum() >= 2 and sizes.max() > 1  # a non-trivial partition

    c3, mask_ref, cls_ref = _reference_forward(block, c, p, lambda q, k, v: onehot @ v)
    assert np.allclose(out.data, c3, atol=1e-12)
    assert np.allclose(aux.mask_logits.data, mask_ref, atol=1e-12)
    assert np.allclose(aux.class_logits.data, cls_ref, atol=1e-12)
    assert np.array_equal(aux.affinity, aux.mask_logits.data.T)
    assert not aux.affinity.flags.writeable


def test_block_rejects_pixels_without_spatial_dims():
    rng = np.random.default_rng(1)
    block = KMaxDecoderBlock(np.random.default_rng(2), 4, 3, "kmeans")
    with pytest.raises(ContractError, match="take PixelFeatures"):
        block.forward(Tensor(rng.normal(size=(3, 4))), Tensor(rng.normal(size=(6, 4))))


def test_stacked_blocks_change_centers():
    rng = np.random.default_rng(3)
    blocks = [KMaxDecoderBlock(np.random.default_rng(10 + i), 4, 3, "kmeans") for i in range(2)]
    c = Tensor(rng.normal(size=(3, 4)))
    p = _pixels(rng, 2, 2, 4)
    out, _ = blocks[0].forward(c, p)
    out, _ = blocks[1].forward(out, p)
    assert np.max(np.abs(out.data - c.data)) > 0


def test_forward_is_deterministic():
    rng = np.random.default_rng(4)
    block = KMaxDecoderBlock(np.random.default_rng(5), 4, 3, "kmeans")
    c = Tensor(rng.normal(size=(3, 4)))
    p = _pixels(rng, 2, 2, 4)
    a1, aux1 = block.forward(c, p)
    a2, aux2 = block.forward(c, p)
    assert np.array_equal(a1.data, a2.data)
    assert np.array_equal(aux1.class_logits.data, aux2.class_logits.data)


def _model(schedule):
    return KMaxModel(ModelConfig(d=8, num_queries=3, image_size=64, schedule=schedule), seed=0)


def _aux_strides(schedule):
    img = np.random.default_rng(6).uniform(size=(64, 64, 3))
    with T.no_grad():
        _, aux, _ = _model(schedule).forward(img)
    return [64 // a.height for a in aux]


def test_schedule_shapes_and_errors():
    # (1,1,1) consumes the pyramid coarse-to-fine, one aux per block
    assert _aux_strides((1, 1, 1)) == [32, 16, 8]
    # (2,2,2) -> six auxiliary predictions
    assert _aux_strides((2, 2, 2)) == [32, 32, 16, 16, 8, 8]
    for schedule in ((), (1, 1), (0, 1, 1), (1, 1, 1, 1)):
        with pytest.raises(ConfigError, match="model.schedule needs three positive entries"):
            _model(schedule)


def test_aux_count_equals_schedule_sum():
    assert len(_aux_strides((3, 3, 3))) == 9
    assert _aux_strides((1, 2, 3)) == [32, 16, 16, 8, 8, 8]


def test_kmeans_block_grad_reaches_wq_only_via_aux_logits():
    rng = np.random.default_rng(8)
    block = KMaxDecoderBlock(np.random.default_rng(9), 6, 3, kernel="kmeans")
    c = Tensor(rng.normal(size=(4, 6)))
    p = _pixels(rng, 3, 3, 6)

    out, aux = block.forward(c, p)
    R.reduce_sum(R.mul(out, out)).backward()
    assert block.ker_q.w.grad is None
    assert block.ker_k.w.grad is None

    out2, aux2 = block.forward(c, p)
    loss = T.add(R.reduce_sum(R.mul(out2, out2)),
                 R.reduce_sum(R.mul(aux2.mask_logits, aux2.mask_logits)))
    loss.backward()
    assert np.linalg.norm(block.ker_q.w.grad) > 0
    assert np.linalg.norm(block.ker_k.w.grad) > 0
