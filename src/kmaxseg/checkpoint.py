"""Checkpoint container: UTF-8 manifest plus raw little-endian float64 data.

Layout::

    KMAXCKPT1
    config <field>=<value> ...
    sha256 <hex digest of the param lines and the payload>
    param name=<dotted.name> shape=<d0,d1,...> offset=<byte offset>
    ...
    data
    <raw little-endian float64 payload>

The ``config`` line holds every ``ModelConfig`` field in the config-file
format. The line is tied to the ``ModelConfig`` fields: adding or removing
one makes every checkpoint saved before fail its config check. Offsets
index into the payload that follows the ``data`` line. The checksum covers
the ``param`` lines as well as the payload, so swapping the names or offsets
of two same-shape parameters fails it.
Loading is exact: the bytes written are the bytes restored. It fails with
``ConfigError`` when the model's config differs from the saved one (two
kernels have equal parameter shapes, so shapes alone cannot tell them
apart), when the param lines and payload do not match their checksum, when
a parameter holds a NaN or an infinity (the checksum covers such a value,
and the model would then merge every image to void without an error), or
when the file has no ``config`` or no ``sha256`` line, as files written
before those lines existed do.
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
    """Write ``model`` to ``path`` through a temp file renamed over it."""
    config = " ".join(f"{k}={v}" for k, v in _config_fields(model.cfg).items())
    params = []
    payload = []
    offset = 0
    for name, tensor, _ in model.named_parameters():
        shape = ",".join(str(s) for s in tensor.data.shape)
        params.append(f"param name={name} shape={shape} offset={offset}")
        raw = np.ascontiguousarray(tensor.data, dtype="<f8").tobytes()
        payload.append(raw)
        offset += len(raw)
    digest = _digest(params, payload)
    manifest = [MAGIC, f"config {config}", f"sha256 {digest}", *params, "data"]
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(("\n".join(manifest) + "\n").encode("utf-8"))
        for raw in payload:
            fh.write(raw)
    os.replace(tmp, path)


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
    header = blob[:cut].decode("utf-8").splitlines()
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
    return entries, lines, config, checksum, blob[cut + len(marker):]


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
    for name, arr in arrays.items():
        if not np.isfinite(arr).all():
            raise ConfigError(f"{path} holds a non-finite value in parameter {name}")
    for name, arr in arrays.items():
        params[name].data[...] = arr
