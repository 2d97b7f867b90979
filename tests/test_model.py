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


def _kmaxckpt3(config, layout, payload, checksum=None):
    """A checkpoint of the ``config`` and ``layout`` lines and ``payload``,
    padded so the payload starts at a multiple of 8 bytes; its checksum line
    is ``checksum``, or else the sha256 of the signed header and payload."""
    signed = config + b"\n" + layout + b"\n"
    signed += b"\n" * (-(len(b"KMAXCKPT3\n") + len(signed)) % 8)
    if checksum is None:
        checksum = b"sha256 " + hashlib.sha256(signed + payload).hexdigest().encode()
    return b"KMAXCKPT3\n" + signed + checksum + b"\n" + payload


def _split(blob):
    """The config line, layout line, checksum line and payload of a checkpoint."""
    _, config, layout, rest = blob.split(b"\n", 3)
    checksum, payload = rest.lstrip(b"\n").split(b"\n", 1)
    return config, layout, checksum, payload


def _reference_checkpoint(model, magic=b"KMAXCKPT3"):
    """The checkpoint format written with every parameter's bytes held at once;
    ``magic=b"KMAXCKPT2"`` gives the format before the header was padded."""
    named = model.named_parameters()
    layout = "".join(f"{name} {','.join(str(n) for n in t.data.shape)}\n"
                     for name, t, _ in named)
    config = _config_line(model).encode()
    layout = f"layout {hashlib.sha256(layout.encode()).hexdigest()}".encode()
    payload = b"".join(t.data.astype("<f8").tobytes() for _, t, _ in named)
    if magic == b"KMAXCKPT3":
        return _kmaxckpt3(config, layout, payload)
    signed = config + b"\n" + layout + b"\n"
    digest = hashlib.sha256(signed + payload).hexdigest().encode()
    return magic + b"\n" + signed + b"sha256 " + digest + b"\n" + payload


def test_checkpoint_file_equals_the_reference_writer_byte_for_byte(tmp_path):
    model = KMaxModel(_small_cfg(), seed=3)
    path = tmp_path / "model.ckpt"
    for m in (model, model.astype(np.float32)):
        save_checkpoint(path, m)
        assert path.read_bytes() == _reference_checkpoint(m)


def test_load_checkpoint_parses_in_place_and_copies_out_of_the_read_buffer(tmp_path):
    # the read buffer is the load's one copy of the payload: the checks view it,
    # and its values go into the model's own arrays; splitting the header off
    # with ``bytes.split`` would copy the payload and double the peak
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


def test_a_small_checkpoint_loads_within_a_few_kib_of_its_file_size(tmp_path):
    # the padded header keeps the payload's float64 views aligned, so no
    # check over them goes through numpy's 64 KiB ufunc buffer (the unaligned
    # views of the unpadded format peaked 60 KiB above the file); the
    # remainder is the parameter list and one view and check at a time
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, KMaxModel(_small_cfg(), seed=0))
    model = KMaxModel(_small_cfg(), seed=1)
    tracemalloc.start()
    try:
        load_checkpoint(path, model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size + 16 * 1024


def test_checkpoint_pads_its_signed_header_so_the_payload_is_aligned(tmp_path):
    # the pad is part of the signed header, which loading compares byte for byte
    path = _saved(tmp_path)
    blob = path.read_bytes()
    config, layout, checksum, payload = _split(blob)
    lines_end = len(b"KMAXCKPT3\n") + len(config) + len(layout) + 2
    pad_end = len(blob) - len(payload) - len(checksum) - 1
    assert pad_end > lines_end and blob[lines_end:pad_end] == b"\n" * (pad_end - lines_end)
    assert (len(blob) - len(payload)) % 8 == 0
    for i in range(lines_end, pad_end):
        for bit in range(8):
            bad = bytearray(blob)
            bad[i] ^= 1 << bit
            path.write_bytes(bytes(bad))
            _assert_refused(path, r"has header line b'.+' but the model writes b'\\n'$")


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
    config, layout, _, payload = _split(path.read_bytes())
    path.write_bytes(_kmaxckpt3(edit(config), layout, payload_edit(payload)))


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
    # KMAXCKPT2, the format before the pad, held the same lines unpadded
    model = KMaxModel(_small_cfg(), seed=0)
    for blob in (b"NOTACKPT\ndata\n", _kmaxckpt1(model),
                 _reference_checkpoint(model, magic=b"KMAXCKPT2")):
        bad.write_bytes(blob)
        _assert_refused(bad, "is not a KMAXCKPT3 checkpoint$")


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
        _assert_refused(path, r"has header line b'layout [0-9a-f]{64}\\n' but the "
                              r"model writes b'layout [0-9a-f]{64}\\n'$")
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
    with pytest.raises(ConfigError, match=r"has header line b'config .* kernel=kmeans\\n' "
                                          r"but the model writes b'config .* kernel=softmax"):
        load_checkpoint(path, model)
    assert all(np.array_equal(b, t.data)
               for b, (_, t, _) in zip(before, model.named_parameters()))


def test_checkpoint_edited_to_the_other_kernel_fails_its_checksum(tmp_path):
    # the config line alone tells the kernels apart; were it left out of the
    # checksum, this file would load into a softmax model, every parameter equal
    path = _saved(tmp_path)
    config, layout, checksum, payload = _split(path.read_bytes())
    edited = config.replace(b" kernel=kmeans", b" kernel=softmax")
    path.write_bytes(_kmaxckpt3(edited, layout, payload, checksum))
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
        _assert_refused(path, rf"{re.escape(str(path))} (has header line|fails its sha256 "
                              rf"checksum: the file has) b'{line.decode()}\\xff")


def test_checkpoint_without_config_or_checksum_line_is_rejected(tmp_path):
    # without its config, layout or checksum line nothing shows the file
    # describes this model: a kmeans checkpoint would load into a softmax model
    path = _saved(tmp_path)
    config, layout, checksum, payload = _split(path.read_bytes())
    for word, lines in (("config", (layout, checksum)), ("layout", (config, checksum)),
                        ("sha256", (config, layout))):
        path.write_bytes(b"KMAXCKPT3\n" + b"\n".join(lines) + b"\n" + payload)
        _assert_refused(path, rf"has header line b'.*' but the model writes "
                              rf"b'({word} .*|\\n)'$")


@pytest.mark.parametrize("kind,key", [("config", " kernel=kmeans")])
def test_checkpoint_line_repeating_a_key_is_rejected(tmp_path, kind, key):
    # the line used to read as valid, with the key's last value
    path = _saved(tmp_path)
    _resign(path, lambda config: config + key.encode())
    _assert_refused(path, rf"has header line b'{kind} .*{key}{key}\\n' but the model "
                          rf"writes b'{kind} .*{key}\\n'$")


def _assert_refused_with_config_suffix(tmp_path, suffix, key):
    """A checkpoint whose config line ends with ``suffix`` fails to load,
    naming ``model.<key>``, and leaves the model as it was."""
    path = _saved(tmp_path)
    _resign(path, lambda config: config + suffix)
    _assert_refused(path, rf"has header line b'config .* {key}=[^']*' but the model "
                          rf"writes b'config [^']*'$")


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


def _params(model):
    return [(name, t.data) for name, t, _ in model.named_parameters()]


@pytest.mark.parametrize("field", NON_DEFAULT)
def test_a_checkpoint_of_each_non_default_field_loads_bitwise(tmp_path, field):
    # one function writes the header and checks it, so every config the model
    # takes reads back its own file
    cfg = dataclasses.replace(_small_cfg(), **{field: NON_DEFAULT[field]})
    path = tmp_path / "model.ckpt"
    saved = KMaxModel(cfg, seed=0)
    save_checkpoint(path, saved)
    model = KMaxModel(cfg, seed=1)
    load_checkpoint(path, model)
    for (name, want), (_, got) in zip(_params(saved), _params(model)):
        assert got.tobytes() == want.tobytes(), name


def test_a_checkpoint_assembled_line_by_line_loads_bitwise(tmp_path):
    # ``_kmaxckpt3`` lays the file out as the format defines it, apart from the
    # program's writer, so the format is unchanged
    saved = KMaxModel(_small_cfg(kernel="softmax"), seed=0)
    path = tmp_path / "model.ckpt"
    path.write_bytes(_reference_checkpoint(saved))
    model = KMaxModel(_small_cfg(kernel="softmax"), seed=1)
    load_checkpoint(path, model)
    for (name, want), (_, got) in zip(_params(saved), _params(model)):
        assert got.tobytes() == want.tobytes(), name


def test_checkpoint_ending_inside_its_header_is_rejected(tmp_path):
    path = _saved(tmp_path)
    blob = path.read_bytes()
    start = len(blob) - 8 * KMaxModel(_small_cfg(), seed=0).parameter_count()
    for end in range(len(b"KMAXCKPT3\n"), start - len(b"sha256 \n") - 64):
        path.write_bytes(blob[:end])
        _assert_refused(path, "has header line ")


def test_checkpoint_without_its_checksum_line_is_rejected(tmp_path):
    path = _saved(tmp_path)
    config, layout, _, payload = _split(path.read_bytes())
    padded = _kmaxckpt3(config, layout, b"")
    path.write_bytes(padded[:padded.rindex(b"sha256 ")] + payload)
    _assert_refused(path, "has no sha256 line$")


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


@pytest.mark.parametrize("dtype", [np.float16, np.int64, np.complex128, "float16"])
def test_astype_to_a_dtype_a_tensor_cannot_hold_is_a_contract_error(dtype):
    # a tensor turns any data but float32 into float64, so a float16 copy
    # came back holding float64 parameters
    model = KMaxModel(_small_cfg(), seed=3)
    with pytest.raises(ContractError, match="astype takes float32 or float64, got "):
        model.astype(dtype)


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


def test_a_duplicate_parameter_name_is_a_contract_error():
    from kmaxseg.layers import Params

    params = Params(np.random.default_rng(0))
    params.affine("head", 2, 3)
    with pytest.raises(ContractError, match="duplicate parameter name head.b"):
        params.const("head.b", (3,), 0.0)
    with pytest.raises(ContractError, match="duplicate parameter name blocks.0.w"):
        params.adopt("blocks", [("0.w", params.normal("w", (2,), 1.0), True)] * 2)
    assert [name for name, _, _ in params.named()] == ["head.w", "head.b", "w", "blocks.0.w"]


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
    from kmaxseg.training import scene_spec_from_config, total_loss

    cfg = Config()
    img, gt = generate(scene_spec_from_config(cfg), 0)
    pred, aux, sem = model.forward(img)
    loss, _ = total_loss(pred, aux, sem, gt)
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


def test_default_forward_tape_holds_eight_convs_three_upsamplings_seven_mask_logits():
    # pixel features stay (HW, C) rows from the image to the mask logits
    nodes, _ = _loss_graph(KMaxModel(Config().model, seed=0))
    ops = [t._backward.__qualname__.split(".")[0] for t in nodes if t._backward is not None]
    assert ops.count("conv3x3") == 8 and ops.count("upsample_nearest") == 3
    assert ops.count("scaled_dot") == 7
