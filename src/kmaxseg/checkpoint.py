"""Checkpoint container: a UTF-8 header plus raw little-endian float64 data.

Layout::

    KMAXCKPT2
    config <field>=<value> ...
    layout <sha256 of "<name> <d0,d1,...>\n" for each parameter in order>
    sha256 <hex digest of the config and layout lines and the payload>
    <raw little-endian float64 payload, the parameters in declaration order>

The ``config`` line holds the five ``ModelConfig`` fields in the config-file
format. The config fixes the model, and the model each parameter's name,
shape and place in the payload, so the file lists no parameters: its
``layout`` must equal the model's. The checksum covers the config line too,
so a file edited from one kernel to the other (their shapes are equal)
fails it. Loading checks the magic (older files are not ``KMAXCKPT2``), a
UTF-8 header, the config and layout, a payload of ``8 * parameter_count()``
bytes, the checksum and that every value is finite (a NaN would merge every
image to void), raising ``ConfigError``. It hashes and views the payload in
the one buffer the file is read into, and copies into the model only after
every check has passed, so the bytes written are the bytes restored.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os

import numpy as np

from .config import _format_value
from .errors import ConfigError

MAGIC = b"KMAXCKPT2\n"


def _config_fields(cfg):
    return {f.name: _format_value(getattr(cfg, f.name)) for f in dataclasses.fields(cfg)}


def _layout(model):
    """The sha256 of each parameter's name and shape, in declaration order."""
    digest = hashlib.sha256()
    for name, tensor, _ in model.named_parameters():
        shape = ",".join(str(s) for s in tensor.data.shape)
        digest.update(f"{name} {shape}\n".encode("utf-8"))
    return digest.hexdigest()


def save_checkpoint(path, model):
    """Write ``model`` to ``path`` through a temp file renamed over it; a
    failed write removes the temp file and leaves ``path`` as it was.

    The checksum precedes the payload in the file, so the parameters are
    read twice, once to hash and once to write, each one's bytes at a time
    and with no copy of a float64 parameter.
    """
    config = " ".join(f"{k}={v}" for k, v in _config_fields(model.cfg).items())
    signed = f"config {config}\nlayout {_layout(model)}\n".encode("utf-8")
    tensors = [tensor for _, tensor, _ in model.named_parameters()]
    digest = hashlib.sha256(signed)
    for tensor in tensors:
        digest.update(_raw(tensor))
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC + signed + f"sha256 {digest.hexdigest()}\n".encode("utf-8"))
            for tensor in tensors:
                fh.write(_raw(tensor))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _raw(tensor):
    """The bytes of ``tensor`` as little-endian float64, a view where they already are."""
    return np.ascontiguousarray(tensor.data, dtype="<f8").reshape(-1).view(np.uint8)


def _check_config(config, cfg, path):
    try:
        fields = config.split()
        saved = dict(kv.split("=", 1) for kv in fields)
        if len(saved) != len(fields):
            raise ValueError("a key repeats")   # ``dict`` would keep its last value
    except ValueError as exc:
        raise ConfigError(f"{path} has a malformed config line {config!r}") from exc
    current = _config_fields(cfg)
    for key in dict.fromkeys([*current, *saved]):
        if key not in current:
            raise ConfigError(f"{path} was saved with unknown key model.{key}")
        if saved.get(key) != current[key]:
            raise ConfigError(
                f"{path} was saved with model.{key} = {saved.get(key)} but "
                f"the model has model.{key} = {current[key]}"
            )


def load_checkpoint(path, model):
    """Restore parameters in place; the config and layout must match the model's.

    Every check runs before the first parameter is written, so a rejected
    checkpoint leaves the model as it was.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if not blob.startswith(MAGIC):
        raise ConfigError(f"{path} is not a KMAXCKPT2 checkpoint")
    header, start = [], len(MAGIC)
    for kind in ("config", "layout", "sha256"):
        end = blob.find(b"\n", start)
        if end < 0 or not blob.startswith(f"{kind} ".encode(), start, end):
            raise ConfigError(f"{path} has no {kind} line")
        try:
            header.append(blob[start + len(kind) + 1:end].decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path} has a header that is not UTF-8") from exc
        signed, start = start, end + 1   # the checksum signs the lines before its own
    config, layout, checksum = header
    _check_config(config, model.cfg, path)
    if layout != _layout(model):
        raise ConfigError(f"{path} was saved with parameter layout {layout} but the "
                          f"model has layout {_layout(model)}")
    view = memoryview(blob)
    payload = view[start:]
    if len(payload) != 8 * model.parameter_count():
        raise ConfigError(f"{path} holds {len(payload)} payload bytes but the model's "
                          f"parameters need {8 * model.parameter_count()}")
    digest = hashlib.sha256(view[len(MAGIC):signed])
    digest.update(payload)
    if digest.hexdigest() != checksum:
        raise ConfigError(f"{path} fails its sha256 checksum: header {checksum}, "
                          f"config, layout and payload {digest.hexdigest()}")
    params = model.named_parameters()
    cuts = np.cumsum([tensor.data.size for _, tensor, _ in params])[:-1]
    arrays = np.split(np.frombuffer(payload, dtype="<f8"), cuts)
    for (name, _, _), arr in zip(params, arrays):
        if not np.isfinite(arr).all():
            raise ConfigError(f"{path} holds a non-finite value in parameter {name}")
    for (_, tensor, _), arr in zip(params, arrays):
        tensor.data[...] = arr.reshape(tensor.data.shape)
