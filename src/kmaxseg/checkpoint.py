"""Checkpoint container: a signed header plus raw little-endian float64 data.

Layout::

    KMAXCKPT3
    config <field>=<value> ...
    layout <sha256 of "<name> <d0,d1,...>\n" for each parameter in order>
    <0-7 newlines: the pad>
    sha256 <hex digest of the config and layout lines, the pad and the payload>
    <raw little-endian float64 payload, the parameters in declaration order>

The ``config`` line holds the five ``ModelConfig`` fields in the config-file
format. The config fixes the model, and the model each parameter's name,
shape and place in the payload, so the file lists no parameters: its
``layout`` must equal the model's. The pad makes the payload start at a
multiple of 8 bytes, so the float64 views of it are aligned.

``_header(model)`` builds the signed header, the config and layout lines and
the pad, for both directions: saving writes it, and loading requires the
file's bytes after the magic to equal it. So the file's header is never
parsed. Another config or layout, a repeated, unknown or reordered key, bytes
that are not UTF-8 or a flipped pad bit are all one refusal, which names the
first header line that differs, the file's next to the model's. Only then
does loading read the ``sha256`` line at its fixed offset and check a payload
of ``8 * parameter_count()`` bytes, the checksum and that every value is
finite (a NaN would merge every image to void). Every refusal is a
``ConfigError``. The checksum covers the header too, so a file edited from
one kernel to the other (their shapes are equal) fails it. Loading hashes
and views the payload in the one buffer the file is read into, and copies
into the model only after every check has passed, so the bytes written are
the bytes restored.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
from itertools import zip_longest

import numpy as np

from .config import _format_value
from .errors import ConfigError

MAGIC = b"KMAXCKPT3\n"
CHECKSUM_LINE = len("sha256 \n") + 64   # the line after the signed header


def _layout(model):
    """The sha256 of each parameter's name and shape, in declaration order."""
    digest = hashlib.sha256()
    for name, tensor, _ in model.named_parameters():
        shape = ",".join(str(s) for s in tensor.data.shape)
        digest.update(f"{name} {shape}\n".encode("utf-8"))
    return digest.hexdigest()


def _header(model):
    """The signed header of ``model``'s checkpoint: its config and layout lines
    and the pad, which with the checksum line after it puts the payload at a
    multiple of 8 bytes."""
    config = " ".join(f"{f.name}={_format_value(getattr(model.cfg, f.name))}"
                      for f in dataclasses.fields(model.cfg))
    lines = f"config {config}\nlayout {_layout(model)}\n".encode("utf-8")
    return lines + b"\n" * (-(len(MAGIC) + len(lines)) % 8)


def save_checkpoint(path, model):
    """Write ``model`` to ``path`` through a temp file renamed over it; a
    failed write removes the temp file and leaves ``path`` as it was.

    The checksum precedes the payload in the file, so the parameters are
    read twice, once to hash and once to write, each one's bytes at a time
    and with no copy of a float64 parameter.
    """
    signed = _header(model)
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


def load_checkpoint(path, model):
    """Restore parameters in place; the signed header must be the model's.

    Every check runs before the first parameter is written, so a rejected
    checkpoint leaves the model as it was.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if not blob.startswith(MAGIC):
        raise ConfigError(f"{path} is not a KMAXCKPT3 checkpoint")
    signed = _header(model)
    start = len(MAGIC) + len(signed)
    found = blob[len(MAGIC):start]
    if found != signed:
        # each of the model's lines ends in a newline, so a file that ends
        # early differs at its first missing line too
        theirs, ours = next(pair for pair in zip_longest(
            found.splitlines(True), signed.splitlines(True), fillvalue=b"")
            if pair[0] != pair[1])
        raise ConfigError(f"{path} has header line {theirs!r} but the model writes {ours!r}")
    if not blob.startswith(b"sha256 ", start):
        raise ConfigError(f"{path} has no sha256 line")
    view = memoryview(blob)
    payload = view[start + CHECKSUM_LINE:]
    if len(payload) != 8 * model.parameter_count():
        raise ConfigError(f"{path} holds {len(payload)} payload bytes but the model's "
                          f"parameters need {8 * model.parameter_count()}")
    digest = hashlib.sha256(signed)
    digest.update(payload)
    checksum = blob[start:start + CHECKSUM_LINE]
    if checksum != f"sha256 {digest.hexdigest()}\n".encode("utf-8"):
        raise ConfigError(f"{path} fails its sha256 checksum: the file has {checksum!r}, "
                          f"its signed header and payload {digest.hexdigest()}")
    flat = np.frombuffer(payload, dtype="<f8")

    def saved():
        """(name, parameter, its saved values), one view of ``flat`` at a time."""
        start = 0
        for name, tensor, _ in model.named_parameters():
            stop = start + tensor.data.size
            yield name, tensor, flat[start:stop].reshape(tensor.data.shape)
            start = stop

    for name, _, values in saved():
        if not np.isfinite(values).all():
            raise ConfigError(f"{path} holds a non-finite value in parameter {name}")
    for _, tensor, values in saved():
        tensor.data[...] = values
