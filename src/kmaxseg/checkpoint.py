"""Checkpoint container: UTF-8 manifest plus raw little-endian float64 data.

Layout::

    KMAXCKPT1
    param name=<dotted.name> shape=<d0,d1,...> offset=<byte offset>
    ...
    data
    <raw little-endian float64 payload>

Offsets index into the payload that follows the ``data`` line. Loading is
exact: the bytes written are the bytes restored.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError

MAGIC = "KMAXCKPT1"


def save_checkpoint(path, model):
    manifest = [MAGIC]
    payload = []
    offset = 0
    for name, tensor, _ in model.named_parameters():
        shape = ",".join(str(s) for s in tensor.data.shape)
        manifest.append(f"param name={name} shape={shape} offset={offset}")
        raw = np.ascontiguousarray(tensor.data, dtype="<f8").tobytes()
        payload.append(raw)
        offset += len(raw)
    manifest.append("data")
    with open(path, "wb") as fh:
        fh.write(("\n".join(manifest) + "\n").encode("utf-8"))
        for raw in payload:
            fh.write(raw)


def _parse_manifest(blob, path):
    marker = b"\ndata\n"
    cut = blob.find(marker)
    if cut < 0:
        raise ConfigError(f"{path} has no data section")
    header = blob[:cut].decode("utf-8").splitlines()
    if not header or header[0] != MAGIC:
        raise ConfigError(f"{path} is not a {MAGIC} checkpoint")
    entries = []
    for line in header[1:]:
        try:
            kind, *fields = line.split()
            parts = dict(kv.split("=", 1) for kv in fields)
            name = parts["name"]
            shape = tuple(int(v) for v in parts["shape"].split(",") if v)
            offset = int(parts["offset"])
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"{path} has a malformed manifest line {line!r}") from exc
        if kind != "param" or offset < 0:
            raise ConfigError(f"{path} has a malformed manifest line {line!r}")
        entries.append((name, shape, offset))
    return entries, blob[cut + len(marker):]


def load_checkpoint(path, model):
    """Restore parameters in place; names and shapes must match the model."""
    with open(path, "rb") as fh:
        blob = fh.read()
    entries, payload = _parse_manifest(blob, path)

    params = {name: tensor for name, tensor, _ in model.named_parameters()}
    seen = set()
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
        arr = np.frombuffer(payload, dtype="<f8", count=count, offset=offset)
        tensor.data[...] = arr.reshape(shape)
        seen.add(name)
    missing = set(params) - seen
    if missing:
        raise ConfigError(f"checkpoint is missing parameters: {sorted(missing)[:3]}...")
