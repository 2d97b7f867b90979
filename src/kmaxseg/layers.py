"""Parameter registry plus the affine and layer-norm layers declared on it.

``Params`` owns naming and the weight-decay policy: ``normal`` draws a
tensor from the shared generator and always decays, ``const`` fills one with
a value and never decays, so exactly the randomly drawn tensors (weights
and the learnable queries) take weight decay. Draws happen in declaration
order, which fixes the initialization for a seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .tensor import Tensor, affine, layer_norm

__all__ = ["Params", "Affine", "LayerNorm"]


@dataclass
class Affine:
    """``x @ w + b``, one ``affine`` tape node."""

    w: Tensor
    b: Tensor

    def __call__(self, x):
        return affine(x, self.w, self.b)


@dataclass
class LayerNorm:
    """Per-row layer normalization with learnable ``gain`` and ``bias``."""

    gain: Tensor
    bias: Tensor

    def __call__(self, x):
        return layer_norm(x, self.gain, self.bias)


class Params:
    """Named trainable tensors with their decay flags, in declaration order."""

    def __init__(self, rng):
        self.rng = rng
        self._entries = {}  # name -> (tensor, decay)

    def _add(self, name, tensor, decay):
        if name in self._entries:
            raise ConfigError(f"duplicate parameter name {name}")
        self._entries[name] = (tensor, decay)
        return tensor

    def normal(self, name, shape, std):
        return self._add(name, Tensor(self.rng.normal(0.0, std, shape), True), True)

    def const(self, name, shape, value):
        return self._add(name, Tensor(np.full(shape, value), True), False)

    def adopt(self, prefix, named):
        """Register another registry's ``named()`` entries under ``prefix``."""
        for name, tensor, decay in named:
            self._add(f"{prefix}.{name}", tensor, decay)

    def affine(self, name, din, dout):
        """``name.w`` drawn at std ``din ** -0.5`` and a zero ``name.b``."""
        return Affine(self.normal(f"{name}.w", (din, dout), din ** -0.5),
                      self.const(f"{name}.b", (dout,), 0.0))

    def qkv(self, name, d):
        """Three ``d``-to-``d`` ``Affine``s: ``name.wq``, ``.wk``, ``.wv`` drawn at
        std ``d ** -0.5``, then zero ``name.bq``, ``.bk``, ``.bv``."""
        w = [self.normal(f"{name}.w{n}", (d, d), d ** -0.5) for n in "qkv"]
        b = [self.const(f"{name}.b{n}", (d,), 0.0) for n in "qkv"]
        return tuple(map(Affine, w, b))

    def layer_norm(self, name, d):
        return LayerNorm(self.const(f"{name}.gain", (d,), 1.0),
                         self.const(f"{name}.bias", (d,), 0.0))

    def named(self):
        """``[(name, tensor, decay), ...]`` in declaration order."""
        return [(name, t, decay) for name, (t, decay) in self._entries.items()]
