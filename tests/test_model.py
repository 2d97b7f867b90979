import dataclasses
import hashlib
import re
import tracemalloc

import numpy as np
import pytest
from conftest import loss_with_grads

from kmaxseg import checkpoint
from kmaxseg.checkpoint import load_checkpoint, save_checkpoint
from kmaxseg.config import Config, ModelConfig, _format_value
from kmaxseg.data import CLASS_TABLE
from kmaxseg.errors import ConfigError, ContractError, ShapeError
from kmaxseg.model import KMaxModel
from kmaxseg.tensor import no_grad


def _small_cfg(**kw):
    base = dict(d=16, num_queries=4, image_size=64, schedule=(1, 1, 1))
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
    # multiples of 32, but not the image_size the positional embeddings fix
    for shape in ((128, 128, 3), (64, 96, 3)):
        with pytest.raises(ShapeError, match=rf"image is {shape[0]}x{shape[1]} but "
                                             r"the model takes 64x64"):
            model.pixel_path(np.zeros(shape))


@pytest.mark.parametrize("kw,match", [
    (dict(schedule=(0, 1, 1)), "model.schedule needs three positive entries"),
    (dict(image_size=48), "model.image_size must be a multiple of 32"),
    # the one kernel check: a decoder block takes its kernel as given
    (dict(kernel="bogus"), "model.kernel must be kmeans or softmax, got 'bogus'"),
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
    cfg = ModelConfig(d=32, num_queries=16, image_size=64, schedule=(2, 2, 2))
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
    h = 4 * d
    chans = (3, d // 4, d // 2, 3 * d // 4, d, d)
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


def _config_line(model):
    return "config " + " ".join(f"{f.name}={_format_value(getattr(model.cfg, f.name))}"
                                for f in dataclasses.fields(model.cfg))


def _reference_checkpoint(model):
    """The checkpoint format written with every parameter's bytes held at once."""
    named = model.named_parameters()
    layout = "".join(f"{name} {','.join(str(n) for n in t.data.shape)}\n"
                     for name, t, _ in named)
    signed = f"{_config_line(model)}\nlayout {hashlib.sha256(layout.encode()).hexdigest()}\n"
    payload = b"".join(t.data.astype("<f8").tobytes() for _, t, _ in named)
    digest = hashlib.sha256(signed.encode() + payload).hexdigest()
    return f"KMAXCKPT2\n{signed}sha256 {digest}\n".encode() + payload


def test_checkpoint_file_equals_the_reference_writer_byte_for_byte(tmp_path):
    model = KMaxModel(_small_cfg(), seed=3)
    path = tmp_path / "model.ckpt"
    for m in (model, model.astype(np.float32)):
        save_checkpoint(path, m)
        assert path.read_bytes() == _reference_checkpoint(m)


def test_load_checkpoint_parses_in_place_and_copies_out_of_the_read_buffer(tmp_path):
    # the read buffer is the load's one copy of the payload: the checks view it,
    # and its values go into the model's own arrays; splitting the header off
    # with ``bytes.split`` would copy the payload and double the peak. The
    # default config keeps numpy's fixed 64 KiB ufunc buffer for the unaligned
    # views small beside the 4.9 MiB payload
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, KMaxModel(ModelConfig(), seed=0))
    model = KMaxModel(ModelConfig(), seed=1)
    arrays = [t.data for _, t, _ in model.named_parameters()]
    tracemalloc.start()
    try:
        load_checkpoint(path, model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.2 * 8 * model.parameter_count()
    for (name, t, _), data in zip(model.named_parameters(), arrays):
        assert t.data is data and t.data.flags.writeable, name
    assert path.read_bytes() == _reference_checkpoint(model)


def test_checkpoint_rejects_mismatched_model(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, KMaxModel(_small_cfg(), seed=0))
    with pytest.raises(ConfigError):
        load_checkpoint(path, KMaxModel(_small_cfg(d=32), seed=0))
    with pytest.raises(ConfigError):
        load_checkpoint(path, KMaxModel(_small_cfg(num_queries=3), seed=0))


def _assert_refused(path, match, **cfg):
    """Loading ``path`` raises ``ConfigError`` matching ``match`` and leaves the model as it was."""
    model = KMaxModel(_small_cfg(**cfg), seed=1)
    before = [t.data.copy() for _, t, _ in model.named_parameters()]
    with pytest.raises(ConfigError, match=match):
        load_checkpoint(path, model)
    assert all(np.array_equal(b, t.data)
               for b, (_, t, _) in zip(before, model.named_parameters()))


def _saved(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, KMaxModel(_small_cfg(), seed=0))
    return path


def _resign(path, edit=lambda config: config, payload_edit=lambda payload: payload):
    """Rewrite the config line and the payload of the checkpoint at ``path``
    through ``edit`` and ``payload_edit``, with a checksum that matches them."""
    magic, config, layout, _, payload = path.read_bytes().split(b"\n", 4)
    signed, payload = edit(config) + b"\n" + layout + b"\n", payload_edit(payload)
    digest = hashlib.sha256(signed + payload).hexdigest().encode()
    path.write_bytes(magic + b"\n" + signed + b"sha256 " + digest + b"\n" + payload)


def _kmaxckpt1(model):
    """``model`` in the format before the layout line, which listed each parameter."""
    lines, payload = [], b""
    for name, t, _ in model.named_parameters():
        shape = ",".join(str(n) for n in t.data.shape)
        lines.append(f"param name={name} shape={shape} offset={len(payload)}")
        payload += t.data.astype("<f8").tobytes()
    digest = hashlib.sha256("".join(f"{line}\n" for line in lines).encode() + payload)
    head = ["KMAXCKPT1", _config_line(model), f"sha256 {digest.hexdigest()}", *lines, "data"]
    return ("\n".join(head) + "\n").encode() + payload


def test_checkpoint_magic_validation(tmp_path):
    bad = tmp_path / "bad.ckpt"
    for blob in (b"NOTACKPT\ndata\n", _kmaxckpt1(KMaxModel(_small_cfg(), seed=0))):
        bad.write_bytes(blob)
        _assert_refused(bad, "is not a KMAXCKPT2 checkpoint$")


def test_checkpoint_with_a_truncated_payload_is_rejected(tmp_path):
    path = _saved(tmp_path)
    path.write_bytes(path.read_bytes()[:-8])
    need = 8 * KMaxModel(_small_cfg(), seed=0).parameter_count()
    _assert_refused(path, f"holds {need - 8} payload bytes but the model's "
                          f"parameters need {need}$")


def test_checkpoint_with_bytes_after_its_last_parameter_is_rejected(tmp_path):
    path = _saved(tmp_path)
    _resign(path, payload_edit=lambda payload: payload + bytes(64))
    need = 8 * KMaxModel(_small_cfg(), seed=0).parameter_count()
    _assert_refused(path, f"holds {need + 64} payload bytes but the model's "
                          f"parameters need {need}$")


@pytest.mark.parametrize("key", ["offset", "name"])
def test_checkpoint_with_two_swapped_parameters_is_rejected(tmp_path, key):
    # both matrices are (d, d), so a file holding them in the other order would
    # load with the two exchanged: by ``name``, saved from a model that declares
    # them in the other order (the layout line differs); by ``offset``, with
    # their bytes exchanged in the payload (the checksum differs)
    model = KMaxModel(_small_cfg(), seed=0)
    names = [name for name, _, _ in model.named_parameters()]
    i, j = names.index("blocks.0.sa.wq"), names.index("blocks.0.sa.wk")
    path = tmp_path / "model.ckpt"
    if key == "name":
        entries = list(model.params._entries.items())
        entries[i], entries[j] = entries[j], entries[i]
        model.params._entries = dict(entries)
        save_checkpoint(path, model)
        _assert_refused(path, "was saved with parameter layout [0-9a-f]{64} but the "
                              "model has layout [0-9a-f]{64}$")
    else:
        save_checkpoint(path, model)
        blob = bytearray(path.read_bytes())
        start = len(blob) - 8 * model.parameter_count()
        offsets = np.cumsum([0] + [8 * t.data.size for _, t, _ in model.named_parameters()])
        size = offsets[j] - offsets[i]
        a, b = start + offsets[i], start + offsets[j]
        blob[a:a + size], blob[b:b + size] = blob[b:b + size], blob[a:a + size]
        path.write_bytes(bytes(blob))
        _assert_refused(path, "fails its sha256 checksum")


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


def test_checkpoint_edited_to_the_other_kernel_fails_its_checksum(tmp_path):
    # the config line alone tells the kernels apart; were it left out of the
    # checksum, this file would load into a softmax model, every parameter equal
    path = _saved(tmp_path)
    blob = path.read_bytes()
    path.write_bytes(blob.replace(b" kernel=kmeans", b" kernel=softmax", 1))
    _assert_refused(path, "fails its sha256 checksum", kernel="softmax")


def test_checkpoint_rejects_one_flipped_payload_byte(tmp_path):
    model = KMaxModel(_small_cfg(), seed=0)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model)
    blob = bytearray(path.read_bytes())
    blob[-100] ^= 0x01
    path.write_bytes(bytes(blob))
    with pytest.raises(ConfigError, match="fails its sha256 checksum"):
        load_checkpoint(path, KMaxModel(_small_cfg(), seed=1))


def test_checkpoint_with_any_header_bit_or_every_97th_payload_byte_flipped_is_rejected(
        tmp_path):
    path = _saved(tmp_path)
    blob = path.read_bytes()
    model = KMaxModel(_small_cfg(), seed=1)
    before = [t.data.copy() for _, t, _ in model.named_parameters()]
    header = len(blob) - 8 * model.parameter_count()
    flips = [(i, bit) for i in range(header) for bit in range(8)]
    flips += [(i, i % 8) for i in range(header, len(blob), 97)]
    bad = bytearray(blob)
    for i, bit in flips:
        bad[i] ^= 1 << bit
        path.write_bytes(bad)
        bad[i] ^= 1 << bit
        with pytest.raises(ConfigError):
            load_checkpoint(path, model)
    assert all(np.array_equal(b, t.data)
               for b, (_, t, _) in zip(before, model.named_parameters()))


def test_checkpoint_with_a_manifest_that_is_not_utf8_is_rejected(tmp_path):
    # a flipped high bit in the header used to escape as an untyped UnicodeDecodeError
    path = _saved(tmp_path)
    saved = path.read_bytes()
    for line in (b"config ", b"sha256 "):
        blob = bytearray(saved)
        blob[blob.index(line) + len(line)] = 0xFF
        path.write_bytes(bytes(blob))
        _assert_refused(path, f"{re.escape(str(path))} has a header that is not UTF-8$")


def test_checkpoint_without_config_or_checksum_line_is_rejected(tmp_path):
    # without its config, layout or checksum line nothing shows the file
    # describes this model: a kmeans checkpoint would load into a softmax model
    path = _saved(tmp_path)
    lines = path.read_bytes().split(b"\n")
    assert [line.split(b" ")[0] for line in lines[1:4]] == [b"config", b"layout", b"sha256"]
    for drop, word in ((1, "config"), (2, "layout"), (3, "sha256")):
        path.write_bytes(b"\n".join(lines[:drop] + lines[drop + 1:]))
        _assert_refused(path, f"has no {word} line$")


@pytest.mark.parametrize("kind,key", [("config", " kernel=kmeans")])
def test_checkpoint_line_repeating_a_key_is_rejected(tmp_path, kind, key):
    # the line used to read as valid, with the key's last value
    path = _saved(tmp_path)
    _resign(path, lambda config: config + key.encode())
    _assert_refused(path, f"malformed {kind} line '.*{key}'$")


def _assert_refused_with_config_suffix(tmp_path, suffix, key):
    """A checkpoint whose config line ends with ``suffix`` fails to load,
    naming ``model.<key>``, and leaves the model as it was."""
    path = _saved(tmp_path)
    lines = path.read_bytes().split(b"\n")
    lines[1] += suffix
    path.write_bytes(b"\n".join(lines))
    _assert_refused(path, f"unknown key model.{key}$")


def test_checkpoint_with_a_removed_config_key_is_rejected(tmp_path):
    # a checkpoint saved while model.selfattn_first existed names it in its
    # config line; the key is gone, so the file no longer describes this model
    _assert_refused_with_config_suffix(tmp_path, b" selfattn_first=true", "selfattn_first")


def test_checkpoint_saved_with_the_width_keys_is_rejected(tmp_path):
    # before the encoder and FFN widths derived from d, the config line also
    # carried them; such a file is refused even where its shapes would fit
    _assert_refused_with_config_suffix(
        tmp_path, b" ffn_hidden=64 encoder_channels=4,8,12,16,16", "ffn_hidden")


def test_a_failed_checkpoint_write_leaves_no_temp_file_and_the_old_file(tmp_path,
                                                                       monkeypatch):
    path = _saved(tmp_path)
    saved = path.read_bytes()
    model = KMaxModel(_small_cfg(), seed=1)
    count = len(model.named_parameters())
    raw, calls = checkpoint._raw, []

    def failing(tensor):
        # the hashing pass reads every parameter once; the write pass fails at its first
        calls.append(None)
        if len(calls) > count:
            raise OSError("No space left on device")
        return raw(tensor)

    monkeypatch.setattr(checkpoint, "_raw", failing)
    with pytest.raises(OSError, match="No space left"):
        save_checkpoint(path, model)
    assert len(calls) == count + 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt"]
    assert path.read_bytes() == saved


NON_DEFAULT = {"d": 8, "num_queries": 6, "image_size": 32, "schedule": (2, 1, 1),
               "kernel": "softmax"}


def _built(model):
    return ([(name, t.data.shape) for name, t, _ in model.named_parameters()],
            [block.kernel for block in model.blocks])


@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(ModelConfig)])
def test_every_model_field_changes_the_built_model(field):
    # a field that changes no parameter name, shape or block kernel is a knob to delete
    base = _small_cfg()
    changed = dataclasses.replace(base, **{field: NON_DEFAULT[field]})
    assert _built(KMaxModel(changed, seed=0)) != _built(KMaxModel(base, seed=0))


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
    assert twin.blocks[0].ker_q.w is named["blocks.0.ker.wq"]
    assert twin.attn_v.b is named["pyr.32.attn.bv"]
    assert twin.final_ln.gain is named["final.ln.gain"]


@pytest.mark.parametrize("prefix,before,after,layers", [
    ("pyr.32.attn", "pyr.32.attn_ln", "pyr.32.mlp_ln", ("attn_q", "attn_k", "attn_v")),
    ("blocks.0.sa", "blocks.0.sa_ln_out", "blocks.0.ker_ln_c", ("sa_q", "sa_k", "sa_v")),
    ("blocks.0.ker", "blocks.0.ker_ln_out", "blocks.0.ffn_ln", ("ker_q", "ker_k", "ker_v")),
], ids=["pyramid", "self_attention", "interaction"])
def test_attention_projections_keep_their_checkpoint_names_and_order(prefix, before, after,
                                                                     layers):
    # names, order and decay flags fix the random draws, AdamW's blocks and the
    # checkpoint layout, so checkpoints written before ``Params.qkv`` keep loading
    model = KMaxModel(_small_cfg(), seed=0)
    named = model.named_parameters()
    names = [name for name, _, _ in named]
    i = names.index(f"{prefix}.wq")
    want = [f"{prefix}.{n}" for n in ("wq", "wk", "wv", "bq", "bk", "bv")]
    assert names[i - 2:i + 8] == [f"{before}.gain", f"{before}.bias", *want,
                                  f"{after}.gain", f"{after}.bias"]
    assert [decay for _, _, decay in named[i:i + 6]] == [True] * 3 + [False] * 3
    owner = model if prefix.startswith("pyr") else model.blocks[0]
    tensors = {name: t for name, t, _ in named}
    for attr, n in zip(layers, "qkv"):
        layer = getattr(owner, attr)
        assert layer.w is tensors[f"{prefix}.w{n}"] and layer.b is tensors[f"{prefix}.b{n}"]


def test_astype_leaves_the_model_and_its_optimizer_blocks_untouched():
    from kmaxseg.training import LR, AdamW

    model = KMaxModel(_small_cfg(), seed=3)
    opt = AdamW(model.named_parameters())
    for _, t, _ in model.named_parameters():
        t.grad = np.ones_like(t.data)
    before = [(t, t.data, t.data.tobytes(), t.grad) for _, t, _ in model.named_parameters()]
    twin = model.astype(np.float32)
    for (_, t, _), (t0, data, raw, grad) in zip(model.named_parameters(), before):
        assert t is t0 and t.data is data and t.grad is grad
        assert data.dtype == np.float64 and data.tobytes() == raw
    for _, parts, p in opt._blocks:
        assert all(np.shares_memory(t.data, p) for t, _, _ in parts)
    assert all(t.grad is None for _, t, _ in twin.named_parameters())
    twin_bytes = [t.data.tobytes() for _, t, _ in twin.named_parameters()]
    for _, t, _ in model.named_parameters():
        t.grad = None
    opt.step(loss_with_grads([(t, grad) for t, _, _, grad in before]), LR)
    assert all(t.data.tobytes() != raw for (_, t, _), (_, _, raw, _) in
               zip(model.named_parameters(), before))
    assert [t.data.tobytes() for _, t, _ in twin.named_parameters()] == twin_bytes


def _loss_graph(model):
    """The tape of a default-config loss on scene 0, and the loss."""
    from kmaxseg.data import generate
    from kmaxseg.tensor import GradTape
    from kmaxseg.training import (hungarian_match, matching_cost, scene_spec_from_config,
                                  total_loss)

    cfg = Config()
    img, gt = generate(scene_spec_from_config(cfg), 0)
    pred, aux, sem = model.forward(img)
    gt4 = gt.downsample(cfg.model.image_size // pred.height)
    loss, _ = total_loss(pred, aux, sem, gt4, hungarian_match(matching_cost(pred, gt4)))
    return GradTape.from_output(loss).nodes, loss


def test_loss_graph_on_the_float32_twin_is_float32():
    model = KMaxModel(Config().model, seed=0)
    twin = model.astype(np.float32)
    nodes, loss = _loss_graph(twin)
    # only the scalar loss, one node summed in Python, is float64
    wide = [t for t in nodes if t.data.dtype != np.float32]
    assert len(nodes) == len(_loss_graph(model)[0])
    assert wide == [loss] and loss.data.shape == ()
    loss.backward()
    assert {t.grad.dtype for _, t, _ in twin.named_parameters()} == {np.dtype(np.float32)}


def test_default_forward_tape_holds_no_reshape_node():
    # pixel features stay (HW, C) rows from the image to the mask logits
    nodes, _ = _loss_graph(KMaxModel(Config().model, seed=0))
    ops = [t._backward.__qualname__.split(".")[0] for t in nodes if t._backward is not None]
    assert "reshape" not in ops
    assert ops.count("conv3x3") == 8 and ops.count("upsample_nearest") == 3
    assert ops.count("scaled_dot") == 7
