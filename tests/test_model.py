import re

import numpy as np
import pytest

from kmaxseg.checkpoint import load_checkpoint, save_checkpoint
from kmaxseg.config import ModelConfig
from kmaxseg.data import CLASS_TABLE
from kmaxseg.errors import ConfigError, ContractError, ShapeError
from kmaxseg.model import KMaxModel
from kmaxseg.tensor import no_grad


def _small_cfg(**kw):
    base = dict(d=16, num_queries=4, image_size=64,
                schedule=(1, 1, 1), encoder_channels=(4, 6, 8, 10, 12),
                ffn_hidden=16)
    base.update(kw)
    return ModelConfig(**base)


def test_pyramid_spatial_sizes_on_64x64():
    model = KMaxModel(_small_cfg(), seed=0)
    with no_grad():
        pyr = model.pixel_path(np.zeros((64, 64, 3)))
    assert (pyr[32].height, pyr[32].width) == (2, 2)
    assert (pyr[16].height, pyr[16].width) == (4, 4)
    assert (pyr[8].height, pyr[8].width) == (8, 8)
    assert (pyr[4].height, pyr[4].width) == (16, 16)


def test_zero_image_gives_zero_pyramid():
    # biases and positional embeddings initialize to zero, so a zero image
    # propagates zeros through every level
    model = KMaxModel(_small_cfg(), seed=1)
    with no_grad():
        pyr = model.pixel_path(np.zeros((64, 64, 3)))
    for s in (32, 16, 8, 4):
        assert np.array_equal(pyr[s].values.data, np.zeros_like(pyr[s].values.data))


def test_different_seeds_give_different_outputs():
    img = np.random.default_rng(0).uniform(size=(64, 64, 3))
    with no_grad():
        a = KMaxModel(_small_cfg(), seed=1).pixel_path(img)
        b = KMaxModel(_small_cfg(), seed=2).pixel_path(img)
    assert not np.allclose(a[4].values.data, b[4].values.data)


def test_pixel_path_rejects_bad_sizes():
    model = KMaxModel(_small_cfg(), seed=0)
    with pytest.raises(ShapeError):
        model.pixel_path(np.zeros((48, 48, 3)))
    with pytest.raises(ShapeError):
        model.pixel_path(np.zeros((64, 64, 4)))


@pytest.mark.parametrize("kw,match", [
    (dict(schedule=(0, 1, 1)), "model.schedule needs three positive entries"),
    (dict(image_size=48), "model.image_size must be a multiple of 32"),
    (dict(kernel="softmax", kmeans_normalize=True), "only applies to the kmeans kernel"),
], ids=["schedule", "image_size", "kernel"])
def test_invalid_config_raises_at_construction(kw, match):
    with pytest.raises(ConfigError, match=match):
        KMaxModel(_small_cfg(**kw), seed=0)


def test_pixel_path_rejects_a_one_dimensional_image():
    with pytest.raises(ShapeError):
        KMaxModel(_small_cfg(), seed=0).pixel_path(np.zeros(64))


def test_forward_rejects_a_non_finite_pixel():
    # one NaN pixel used to reach every mask logit and merge to an all-void map
    img = np.zeros((64, 64, 3))
    img[10, 20, 1] = np.nan
    with no_grad(), pytest.raises(ContractError, match="non-finite"):
        KMaxModel(_small_cfg(), seed=0).forward(img)


def test_forward_output_shapes_match_config():
    cfg = ModelConfig(d=32, num_queries=16, image_size=64,
                      schedule=(2, 2, 2), encoder_channels=(8, 12, 16, 24, 32),
                      ffn_hidden=32)
    model = KMaxModel(cfg, seed=0)
    img = np.random.default_rng(1).uniform(size=(64, 64, 3))
    with no_grad():
        pred, aux, sem = model.forward(img)
    assert pred.mask_logits.data.shape == (256, 16)
    assert pred.class_logits.data.shape == (16, 5)
    assert sem.data.shape == (256, 5)
    assert len(aux) == 6


def test_query_permutation_equivariance_end_to_end():
    model = KMaxModel(_small_cfg(), seed=4)
    img = np.random.default_rng(4).uniform(size=(64, 64, 3))
    with no_grad():
        base, _, _ = model.forward(img)
        perm = np.array([2, 0, 3, 1])
        model.queries.data[...] = model.queries.data[perm]
        permuted, _, _ = model.forward(img)
    assert np.allclose(permuted.mask_logits.data, base.mask_logits.data[:, perm], atol=1e-12)
    assert np.allclose(permuted.class_logits.data, base.class_logits.data[perm], atol=1e-12)


def _expected_param_count(cfg):
    # closed-form parameter count, summed per component
    d, n, k, s = cfg.d, cfg.num_queries, CLASS_TABLE.num_classes, cfg.image_size
    h = cfg.ffn_hidden
    chans = (3,) + tuple(cfg.encoder_channels)
    encoder = sum(9 * chans[i] * chans[i + 1] + chans[i + 1] for i in range(5))
    skip = {32: chans[5], 16: chans[4], 8: chans[3], 4: chans[2]}
    pyramid = sum(skip[st] * d + d + (s // st) ** 2 * d for st in (32, 16, 8, 4))
    s32_block = 2 * (2 * d) + 3 * (d * d + d) + (d * 2 * d + 2 * d) + (2 * d * d + d)
    conv_blocks = 3 * (9 * d * d + d)
    queries = n * d
    per_block = (8 * 2 * d                      # eight layer-norm pairs
                 + 2 * 3 * (d * d + d)          # self-attention + kernel projections
                 + (d * h + h + h * d + d)      # ffn
                 + (d * d + d)                  # mask head
                 + (d * (k + 1) + (k + 1)))     # class head
    blocks = sum(cfg.schedule) * per_block
    final = 2 * d + (d * d + d) + 2 * (d * (k + 1) + (k + 1))
    return encoder + pyramid + s32_block + conv_blocks + queries + blocks + final


@pytest.mark.parametrize("cfg", [
    _small_cfg(),
    ModelConfig(),
    _small_cfg(schedule=(2, 2, 2)),
])
def test_parameter_count_matches_documented_formula(cfg):
    assert KMaxModel(cfg, seed=0).parameter_count() == _expected_param_count(cfg)


def test_checkpoint_round_trip_is_exact(tmp_path):
    cfg = _small_cfg()
    model = KMaxModel(cfg, seed=7)
    img = np.random.default_rng(7).uniform(size=(64, 64, 3))
    with no_grad():
        before, _, _ = model.forward(img)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model)

    other = KMaxModel(cfg, seed=99)
    with no_grad():
        different, _, _ = other.forward(img)
    assert not np.array_equal(different.mask_logits.data, before.mask_logits.data)

    load_checkpoint(path, other)
    with no_grad():
        after, _, _ = other.forward(img)
    assert np.array_equal(after.mask_logits.data, before.mask_logits.data)


def test_checkpoint_rejects_mismatched_model(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, KMaxModel(_small_cfg(), seed=0))
    with pytest.raises(ConfigError):
        load_checkpoint(path, KMaxModel(_small_cfg(d=32), seed=0))
    with pytest.raises(ConfigError):
        load_checkpoint(path, KMaxModel(_small_cfg(num_queries=3), seed=0))


def test_checkpoint_magic_validation(tmp_path):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"NOTACKPT\ndata\n")
    with pytest.raises(ConfigError):
        load_checkpoint(bad, KMaxModel(_small_cfg(), seed=0))


def test_checkpoint_truncated_payload_names_the_parameter(tmp_path):
    model = KMaxModel(_small_cfg(), seed=0)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model)
    path.write_bytes(path.read_bytes()[:-8])
    last = list(model.named_parameters())[-1][0]
    with pytest.raises(ConfigError, match=rf"truncated: parameter {re.escape(last)} "):
        load_checkpoint(path, model)


def test_checkpoint_manifest_line_without_name_is_rejected(tmp_path):
    model = KMaxModel(_small_cfg(), seed=0)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model)
    blob = path.read_bytes()
    first = list(model.named_parameters())[0][0]
    path.write_bytes(blob.replace(f"name={first} ".encode(), b"", 1))
    with pytest.raises(ConfigError, match="malformed manifest line 'param shape="):
        load_checkpoint(path, model)


def _swap_manifest_values(path, key, a, b):
    """Exchange the ``key=`` values of the manifest lines of parameters ``a`` and ``b``."""
    header, payload = path.read_bytes().split(b"\ndata\n", 1)
    lines = header.decode().split("\n")
    value = re.compile(rf"(?<= {key}=)\S+")
    row = {re.search(r"name=(\S+)", line).group(1): i
           for i, line in enumerate(lines) if line.startswith("param ")}
    ia, ib = row[a], row[b]
    va, vb = value.search(lines[ia]).group(), value.search(lines[ib]).group()
    lines[ia], lines[ib] = value.sub(vb, lines[ia]), value.sub(va, lines[ib])
    path.write_bytes("\n".join(lines).encode() + b"\ndata\n" + payload)


@pytest.mark.parametrize("key", ["offset", "name"])
def test_checkpoint_with_two_swapped_parameters_is_rejected(tmp_path, key):
    # both matrices are (d, d): without the checksum over the param lines the
    # file loads with the two exchanged
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, KMaxModel(_small_cfg(), seed=0))
    _swap_manifest_values(path, key, "blocks.0.sa.wq", "blocks.0.sa.wk")
    model = KMaxModel(_small_cfg(), seed=1)
    before = [t.data.copy() for _, t, _ in model.named_parameters()]
    with pytest.raises(ConfigError, match="fails its sha256 checksum"):
        load_checkpoint(path, model)
    assert all(np.array_equal(b, t.data)
               for b, (_, t, _) in zip(before, model.named_parameters()))


def test_checkpoint_rejects_the_other_kernel(tmp_path):
    # both kernels have the same parameter shapes; only the config line differs
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, KMaxModel(_small_cfg(kernel="kmeans"), seed=0))
    model = KMaxModel(_small_cfg(kernel="softmax"), seed=1)
    before = [t.data.copy() for _, t, _ in model.named_parameters()]
    with pytest.raises(ConfigError, match="model.kernel = kmeans but the model has "
                                          "model.kernel = softmax"):
        load_checkpoint(path, model)
    assert all(np.array_equal(b, t.data)
               for b, (_, t, _) in zip(before, model.named_parameters()))


def test_checkpoint_rejects_one_flipped_payload_byte(tmp_path):
    model = KMaxModel(_small_cfg(), seed=0)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model)
    blob = bytearray(path.read_bytes())
    blob[-100] ^= 0x01
    path.write_bytes(bytes(blob))
    with pytest.raises(ConfigError, match="fails its sha256 checksum"):
        load_checkpoint(path, KMaxModel(_small_cfg(), seed=1))


def test_checkpoint_without_config_or_checksum_line_is_rejected(tmp_path):
    # without either line nothing shows the file describes this model: a
    # kmeans checkpoint would load into a softmax model with no error
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, KMaxModel(_small_cfg(), seed=0))
    lines = path.read_bytes().split(b"\n")
    assert lines[1].startswith(b"config ") and lines[2].startswith(b"sha256 ")
    model = KMaxModel(_small_cfg(), seed=1)
    before = [t.data.copy() for _, t, _ in model.named_parameters()]
    for drop, word in ((1, "config"), (2, "sha256")):
        path.write_bytes(b"\n".join(lines[:drop] + lines[drop + 1:]))
        with pytest.raises(ConfigError, match=f"has no {word} line"):
            load_checkpoint(path, model)
        assert all(np.array_equal(b, t.data)
                   for b, (_, t, _) in zip(before, model.named_parameters()))


def test_checkpoint_with_a_removed_config_key_is_rejected(tmp_path):
    # a checkpoint saved while model.selfattn_first existed names it in its
    # config line; the key is gone, so the file no longer describes this model
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, KMaxModel(_small_cfg(), seed=0))
    lines = path.read_bytes().split(b"\n")
    lines[1] += b" selfattn_first=true"
    path.write_bytes(b"\n".join(lines))
    model = KMaxModel(_small_cfg(), seed=1)
    before = [t.data.copy() for _, t, _ in model.named_parameters()]
    with pytest.raises(ConfigError, match="unknown key model.selfattn_first"):
        load_checkpoint(path, model)
    assert all(np.array_equal(b, t.data)
               for b, (_, t, _) in zip(before, model.named_parameters()))


def test_checkpoint_with_a_non_finite_parameter_is_rejected(tmp_path):
    # the checksum covers the NaN, so only a value check stops it; loaded, the
    # model would merge every image to void and score PQ 0 without an error
    bad = KMaxModel(_small_cfg(), seed=0)
    params = {name: t for name, t, _ in bad.named_parameters()}
    path = tmp_path / "model.ckpt"
    model = KMaxModel(_small_cfg(), seed=1)
    before = [t.data.copy() for _, t, _ in model.named_parameters()]
    for value in (np.nan, np.inf):
        params["final.mask.w"].data[2, 1] = value
        save_checkpoint(path, bad)
        with pytest.raises(ConfigError, match="non-finite value in parameter final.mask.w$"):
            load_checkpoint(path, model)
        assert all(np.array_equal(b, t.data)
                   for b, (_, t, _) in zip(before, model.named_parameters()))


def test_astype_twin_holds_float32_copies_of_every_parameter():
    model = KMaxModel(_small_cfg(), seed=3)
    twin = model.astype(np.float32)
    for (name, t, decay), (tname, tw, tdecay) in zip(model.named_parameters(),
                                                      twin.named_parameters()):
        assert (tname, tdecay) == (name, decay)
        assert tw is not t and tw.requires_grad and tw.grad is None
        assert tw.data.dtype == np.float32
        assert np.array_equal(tw.data, t.data.astype(np.float32))
    # the twin's layers hold the twin's registry tensors
    named = {name: t for name, t, _ in twin.named_parameters()}
    assert twin.enc[0][0] is named["enc.0.w"] and twin.queries is named["queries"]
    assert twin.blocks[0].ker_proj.wq is named["blocks.0.ker.wq"]
    assert twin.blocks[0].ker_proj._q.w is named["blocks.0.ker.wq"]
    assert twin.final_ln.gain is named["final.ln.gain"]


def test_astype_leaves_the_model_and_its_optimizer_blocks_untouched():
    from kmaxseg.training import AdamW

    model = KMaxModel(_small_cfg(), seed=3)
    opt = AdamW(model.named_parameters())
    for _, t, _ in model.named_parameters():
        t.grad = np.ones_like(t.data)
    before = [(t, t.data, t.data.tobytes(), t.grad) for _, t, _ in model.named_parameters()]
    twin = model.astype(np.float32)
    for (_, t, _), (t0, data, raw, grad) in zip(model.named_parameters(), before):
        assert t is t0 and t.data is data and t.grad is grad
        assert data.dtype == np.float64 and data.tobytes() == raw
    for _, parts, p, _, _ in opt._blocks:
        assert all(np.shares_memory(t.data, p) for t, _, _ in parts)
    assert all(t.grad is None for _, t, _ in twin.named_parameters())
    twin_bytes = [t.data.tobytes() for _, t, _ in twin.named_parameters()]
    opt.step()
    assert all(t.data.tobytes() != raw for (_, t, _), (_, _, raw, _) in
               zip(model.named_parameters(), before))
    assert [t.data.tobytes() for _, t, _ in twin.named_parameters()] == twin_bytes


def test_loss_graph_on_the_float32_twin_is_float32():
    from kmaxseg.config import Config
    from kmaxseg.data import generate
    from kmaxseg.tensor import GradTape
    from kmaxseg.training import (hungarian_match, matching_cost, scene_spec_from_config,
                                  total_loss)

    cfg = Config()
    twin = KMaxModel(cfg.model, seed=0).astype(np.float32)
    img, gt = generate(scene_spec_from_config(cfg), 0)
    pred, aux, sem = twin.forward(img)
    gt4 = gt.downsample(cfg.model.image_size // pred.height)
    loss, _ = total_loss(pred, aux, sem, gt4, hungarian_match(matching_cost(pred, gt4)))
    nodes = GradTape.from_output(loss).nodes
    # only the scalar loss (the set-prediction term, summed in Python, and
    # the total) is float64
    wide = [t for t in nodes if t.data.dtype != np.float32]
    assert len(nodes) > 500 and len(wide) == 2
    assert loss in wide and all(t.data.shape == () for t in wide)
    loss.backward()
    assert {t.grad.dtype for _, t, _ in twin.named_parameters()} == {np.dtype(np.float32)}
