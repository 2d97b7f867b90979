"""Transformer decoder blocks with swappable pixel-cluster interaction.

A block runs three residual sublayers over the cluster centers: softmax
self-attention, the configured interaction kernel against pixel features,
and a feed-forward network. Each sublayer carries two layer norms: one on
its input and one on its update before the residual add. The output norm
matters most for the hard-assignment kernel, whose per-cluster update is a
sum over assigned pixels and would otherwise scale with cluster size.

Every block also emits an auxiliary prediction. Its mask logits are the
scaled affinity between the mask embedding of the projected centers and the
projected pixels; for the hard-assignment kernel the argmax of that same
affinity is the assignment, so the supervised logits define the clustering
by construction and are the only gradient path into its query/key weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .kernels import PixelFeatures, ProjectionWeights, _aggregate
from .tensor import Tensor, gelu, layer_norm, matmul, scale, transpose

__all__ = ["KMaxDecoderBlock", "AuxiliaryPrediction", "stack_forward"]


@dataclass
class AuxiliaryPrediction:
    """Per-block mask/class logits for deep supervision."""

    mask_logits: Tensor        # (HW, N) at the block's pixel stride
    class_logits: Tensor       # (N, num_classes + 1)
    source: int                # decoder stage index
    height: int
    width: int

    @property
    def affinity(self):  # read-only (N, HW) view of the mask logits, detached
        view = self.mask_logits.data.T
        view.flags.writeable = False
        return view


class _LayerNormParams:
    def __init__(self, d):
        self.gain = Tensor(np.ones(d), True)
        self.bias = Tensor(np.zeros(d), True)

    def __call__(self, x):
        return layer_norm(x, self.gain, self.bias)

    def named(self, prefix):
        return [(f"{prefix}.gain", self.gain, False), (f"{prefix}.bias", self.bias, False)]


def _affine(rng, din, dout):
    w = Tensor(rng.normal(0.0, din ** -0.5, (din, dout)), True)
    b = Tensor(np.zeros(dout), True)
    return w, b


class KMaxDecoderBlock:
    """One decoder block: self-attention, interaction kernel, FFN, heads."""

    def __init__(self, rng, d, num_classes, kernel="kmeans", ffn_hidden=256,
                 kmeans_normalize=False):
        if kernel not in ("kmeans", "softmax"):
            raise ConfigError(f"unknown interaction kernel {kernel!r}")
        self.kernel = kernel
        self.kmeans_normalize = kmeans_normalize
        self.logit_scale = d ** -0.5  # transformer scaling; the argmax ignores it
        self.sa_ln = _LayerNormParams(d)
        self.sa_ln_out = _LayerNormParams(d)
        self.sa_proj = ProjectionWeights.init(rng, d)
        self.ker_ln_c = _LayerNormParams(d)
        self.ker_ln_p = _LayerNormParams(d)
        self.ker_ln_out = _LayerNormParams(d)
        self.ker_proj = ProjectionWeights.init(rng, d)
        self.ffn_ln = _LayerNormParams(d)
        self.ffn_ln_out = _LayerNormParams(d)
        self.ffn_w1, self.ffn_b1 = _affine(rng, d, ffn_hidden)
        self.ffn_w2, self.ffn_b2 = _affine(rng, ffn_hidden, d)
        self.mask_w, self.mask_b = _affine(rng, d, d)
        self.class_w, self.class_b = _affine(rng, d, num_classes + 1)
        self.head_ln = _LayerNormParams(d)

    def named_parameters(self):
        out = []
        out += self.sa_ln.named("sa_ln") + self.sa_ln_out.named("sa_ln_out")
        out += [(f"sa.{n}", t, t.data.ndim > 1) for n, t in self.sa_proj.tensors()]
        out += (self.ker_ln_c.named("ker_ln_c") + self.ker_ln_p.named("ker_ln_p")
                + self.ker_ln_out.named("ker_ln_out"))
        out += [(f"ker.{n}", t, t.data.ndim > 1) for n, t in self.ker_proj.tensors()]
        out += self.ffn_ln.named("ffn_ln") + self.ffn_ln_out.named("ffn_ln_out")
        out += [("ffn.w1", self.ffn_w1, True), ("ffn.b1", self.ffn_b1, False),
                ("ffn.w2", self.ffn_w2, True), ("ffn.b2", self.ffn_b2, False)]
        out += self.head_ln.named("head_ln")
        out += [("mask.w", self.mask_w, True), ("mask.b", self.mask_b, False),
                ("class.w", self.class_w, True), ("class.b", self.class_b, False)]
        return out

    # -- sublayers ------------------------------------------------------------

    def _self_attention(self, c):
        x = self.sa_ln(c)
        update, _ = self.sa_proj.attend(x, x, logit_scale=self.logit_scale)
        return c + self.sa_ln_out(update)

    def _interaction(self, c, pixels):
        # not ``attend``: the affinity is taken against the mask embedding
        q, k, v = self.ker_proj.project(self.ker_ln_c(c), self.ker_ln_p(pixels))
        mask_emb = matmul(q, self.mask_w) + self.mask_b
        affinity = matmul(mask_emb, k.T)
        sup_logits = scale(affinity, self.logit_scale)
        if self.kernel == "kmeans":
            # the supervised mask logits define the hard assignment, so the
            # deep-supervision losses directly shape the clustering
            update = _aggregate(affinity, v, "kmeans", self.kmeans_normalize)
        else:
            update = _aggregate(scale(matmul(q, k.T), self.logit_scale), v, "softmax")
        return c + self.ker_ln_out(update), sup_logits

    def _ffn(self, c):
        h = gelu(matmul(self.ffn_ln(c), self.ffn_w1) + self.ffn_b1)
        return c + self.ffn_ln_out(matmul(h, self.ffn_w2) + self.ffn_b2)

    def forward(self, c, pixels, stage=0):
        """Run the block; returns (updated centers, auxiliary prediction)."""
        if not isinstance(pixels, PixelFeatures):
            raise ConfigError("decoder blocks take PixelFeatures (need spatial dims)")
        c = self._self_attention(c)
        c, sup_logits = self._interaction(c, pixels.values)
        c = self._ffn(c)

        class_logits = matmul(self.head_ln(c), self.class_w) + self.class_b
        aux = AuxiliaryPrediction(
            mask_logits=transpose(sup_logits),
            class_logits=class_logits,
            source=stage,
            height=pixels.height,
            width=pixels.width,
        )
        return c, aux


def stack_forward(blocks, centers, pixel_pyramid, schedule):
    """Thread centers through all blocks over a coarse-to-fine pixel pyramid.

    ``schedule[i]`` blocks consume ``pixel_pyramid[i]`` in order; the total
    must equal the number of blocks. Returns the final centers and one
    auxiliary prediction per block.
    """
    schedule = tuple(int(s) for s in schedule)
    if not schedule or any(s < 1 for s in schedule):
        raise ConfigError(f"invalid decoder schedule {schedule}")
    if len(schedule) != len(pixel_pyramid):
        raise ConfigError(
            f"schedule has {len(schedule)} entries for {len(pixel_pyramid)} pyramid levels"
        )
    if sum(schedule) != len(blocks):
        raise ConfigError(
            f"schedule {schedule} sums to {sum(schedule)} but {len(blocks)} blocks given"
        )
    aux = []
    stage = 0
    for level, count in zip(pixel_pyramid, schedule):
        for _ in range(count):
            centers, a = blocks[stage].forward(centers, level, stage)
            aux.append(a)
            stage += 1
    return centers, aux
