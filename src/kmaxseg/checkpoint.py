"""Checkpoint container: UTF-8 manifest plus raw little-endian float64 data.

Layout::

    KMAXCKPT1
    config <field>=<value> ...
    sha256 <hex digest of the param lines and the payload>
    param name=<dotted.name> shape=<d0,d1,...> offset=<byte offset>
    ...
    data
    <raw little-endian float64 payload>

The ``config`` line holds the five ``ModelConfig`` fields in the config-file
format. It is tied to them: adding or removing a field makes every checkpoint
saved before fail its config check, as the removed ``ffn_hidden`` and
``encoder_channels`` do. Offsets index into the payload that follows the
``data`` line. The checksum covers the ``param`` lines as well as the
payload, so swapping the names or offsets of two same-shape parameters
fails it. Anyone can recompute it, so the manifest must also tile the
payload: no parameter named twice, no line repeating a key, each parameter
starting where the one before it ends, and the last ending the file.
Loading is exact: the bytes written are the bytes restored. It fails with
``ConfigError`` when the model's config differs from the saved one (two
kernels have equal parameter shapes, so shapes alone cannot tell them
apart), when the param lines and payload do not match their checksum, when
a parameter holds a NaN or an infinity (the checksum covers such a value,
and the model would then merge every image to void without an error), or
when the file has no ``config`` or no ``sha256`` line, as files written
before those lines existed do, or when its manifest is not UTF-8.

Loading reads the file into one buffer and parses the payload in place: the
checksum runs over a ``memoryview`` of it and every parameter is a
read-only view into it, copied into the model only after every check has
passed, so a load holds one copy of the payload, not two.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os

import numpy as np

from .config import _format_value
from .errors import ConfigError

MAGIC = "KMAXCKPT1"


def _config_fields(cfg):
    return {f.name: _format_value(getattr(cfg, f.name)) for f in dataclasses.fields(cfg)}


def save_checkpoint(path, model):
    """Write ``model`` to ``path`` through a temp file renamed over it; a
    failed write removes the temp file and leaves ``path`` as it was.

    The checksum precedes the payload in the file, so the parameters are
    read twice, once to hash and once to write, each one's bytes at a time
    and with no copy of a float64 parameter.
    """
    config = " ".join(f"{k}={v}" for k, v in _config_fields(model.cfg).items())
    tensors = []
    params = []
    offset = 0
    for name, tensor, _ in model.named_parameters():
        tensors.append(tensor)
        shape = ",".join(str(s) for s in tensor.data.shape)
        params.append(f"param name={name} shape={shape} offset={offset}")
        offset += 8 * tensor.data.size
    digest = _digest(params, map(_raw, tensors))
    manifest = [MAGIC, f"config {config}", f"sha256 {digest}", *params, "data"]
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(("\n".join(manifest) + "\n").encode("utf-8"))
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


def _digest(param_lines, payload):
    digest = hashlib.sha256()
    for line in param_lines:
        digest.update(f"{line}\n".encode("utf-8"))
    for raw in payload:
        digest.update(raw)
    return digest.hexdigest()


def _parse_manifest(blob, path):
    marker = b"\ndata\n"
    cut = blob.find(marker)
    if cut < 0:
        raise ConfigError(f"{path} has no data section")
    try:
        header = blob[:cut].decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} has a manifest that is not UTF-8") from exc
    if not header or header[0] != MAGIC:
        raise ConfigError(f"{path} is not a {MAGIC} checkpoint")
    entries, lines = [], []
    config = checksum = None
    for line in header[1:]:
        try:
            kind, *fields = line.split()
            if kind == "sha256":
                (checksum,) = fields
                continue
            parts = dict(kv.split("=", 1) for kv in fields)
            if len(parts) != len(fields):
                raise ValueError("a key repeats")   # ``dict`` would keep its last value
            if kind == "config":
                config = parts
                continue
            name = parts["name"]
            shape = tuple(int(v) for v in parts["shape"].split(",") if v)
            offset = int(parts["offset"])
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"{path} has a malformed manifest line {line!r}") from exc
        if kind != "param" or offset < 0:
            raise ConfigError(f"{path} has a malformed manifest line {line!r}")
        entries.append((name, shape, offset))
        lines.append(line)
    return entries, lines, config, checksum, memoryview(blob)[cut + len(marker):]


def load_checkpoint(path, model):
    """Restore parameters in place; config, names and shapes must match.

    Every check runs before the first parameter is written, so a rejected
    checkpoint leaves the model as it was.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    entries, lines, config, checksum, payload = _parse_manifest(blob, path)
    if config is None or checksum is None:
        raise ConfigError(f"{path} has no {'config' if config is None else 'sha256'} line")
    current = _config_fields(model.cfg)
    for key in dict.fromkeys([*current, *config]):
        if key not in current:
            raise ConfigError(f"{path} was saved with unknown key model.{key}")
        if config.get(key) != current[key]:
            raise ConfigError(
                f"{path} was saved with model.{key} = {config.get(key)} but "
                f"the model has model.{key} = {current[key]}"
            )

    params = {name: tensor for name, tensor, _ in model.named_parameters()}
    arrays = {}
    for name, shape, offset in entries:
        if name not in params:
            raise ConfigError(f"checkpoint parameter {name} not in model")
        if name in arrays:
            raise ConfigError(f"{path} names parameter {name} twice")
        tensor = params[name]
        if tuple(tensor.data.shape) != shape:
            raise ConfigError(
                f"shape mismatch for {name}: checkpoint {shape} vs model "
                f"{tuple(tensor.data.shape)}"
            )
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        end = offset + 8 * count
        if end > len(payload):
            raise ConfigError(
                f"{path} is truncated: parameter {name} needs payload bytes "
                f"{offset}..{end} but the payload holds {len(payload)}"
            )
        arrays[name] = np.frombuffer(payload, dtype="<f8", count=count,
                                     offset=offset).reshape(shape)
    missing = set(params) - set(arrays)
    if missing:
        raise ConfigError(f"checkpoint is missing parameters: {sorted(missing)[:3]}...")
    actual = _digest(lines, [payload])
    if actual != checksum:
        raise ConfigError(
            f"{path} fails its sha256 checksum: manifest {checksum}, param lines "
            f"and payload {actual}"
        )
    tiled = 0   # the parameters, in manifest order, must fill the payload end to end
    for (name, _, offset), arr in zip(entries, arrays.values()):
        if offset != tiled:
            raise ConfigError(f"{path} puts parameter {name} at payload byte {offset}, "
                              f"not at {tiled} where the one before it ends")
        tiled += arr.nbytes
    if tiled != len(payload):
        raise ConfigError(f"{path} holds {len(payload) - tiled} payload bytes after "
                          "its last parameter")
    for name, arr in arrays.items():
        if not np.isfinite(arr).all():
            raise ConfigError(f"{path} holds a non-finite value in parameter {name}")
    for name, arr in arrays.items():
        params[name].data[...] = arr
