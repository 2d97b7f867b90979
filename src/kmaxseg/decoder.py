"""Transformer decoder blocks with swappable pixel-cluster interaction.

A block runs three residual sublayers over the cluster centers: softmax
self-attention, the configured interaction kernel against pixel features,
and a feed-forward network. Each sublayer carries two layer norms: one on
its input and one on its update before the residual add. The output norm
matters most for the hard-assignment kernel, whose per-cluster update is a
sum over assigned pixels and would otherwise scale with cluster size.

Every block also emits an auxiliary prediction. Its mask logits are the
kernel's affinity logits recomputed with the mask head applied to the
projected centers, so the supervised logits match the logits that defined
the hard assignment up to that one affine head. This is the only gradient
path into the kernel's query/key projections when the interaction is the
hard-assignment kind.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .kernels import PixelFeatures, ProjectionWeights, _run_interaction
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
    affinity: np.ndarray = field(repr=False, default=None)  # detached (N, HW)


class _LayerNormParams:
    def __init__(self, d, requires_grad=True):
        self.gain = Tensor(np.ones(d), requires_grad)
        self.bias = Tensor(np.zeros(d), requires_grad)

    def __call__(self, x):
        return layer_norm(x, self.gain, self.bias)

    def named(self, prefix):
        return [(f"{prefix}.gain", self.gain, False), (f"{prefix}.bias", self.bias, False)]


def _affine(rng, din, dout, requires_grad=True):
    w = Tensor(rng.normal(0.0, din ** -0.5, (din, dout)), requires_grad)
    b = Tensor(np.zeros(dout), requires_grad)
    return w, b


class KMaxDecoderBlock:
    """One decoder block: self-attention, interaction kernel, FFN, heads."""

    def __init__(self, rng, d, num_classes, kernel="kmeans", ffn_hidden=256,
                 heads=1, kmeans_normalize=False, selfattn_first=True,
                 requires_grad=True):
        if kernel not in ("kmeans", "softmax"):
            raise ConfigError(f"unknown interaction kernel {kernel!r}")
        self.kernel = kernel
        self.kmeans_normalize = kmeans_normalize
        self.selfattn_first = selfattn_first
        self.d = d

        def proj():
            return ProjectionWeights.init(rng, d, heads=heads, requires_grad=requires_grad)

        self.sa_ln = _LayerNormParams(d, requires_grad)
        self.sa_ln_out = _LayerNormParams(d, requires_grad)
        self.sa_proj = proj()
        self.ker_ln_c = _LayerNormParams(d, requires_grad)
        self.ker_ln_p = _LayerNormParams(d, requires_grad)
        self.ker_ln_out = _LayerNormParams(d, requires_grad)
        self.ker_proj = proj()
        self.ffn_ln = _LayerNormParams(d, requires_grad)
        self.ffn_ln_out = _LayerNormParams(d, requires_grad)
        self.ffn_w1, self.ffn_b1 = _affine(rng, d, ffn_hidden, requires_grad)
        self.ffn_w2, self.ffn_b2 = _affine(rng, ffn_hidden, d, requires_grad)
        self.mask_w, _ = _affine(rng, d, d, requires_grad)
        self.class_w, _ = _affine(rng, d, num_classes + 1, requires_grad)
        self.mask_b = Tensor(np.zeros(d), requires_grad)
        self.class_b = Tensor(np.zeros(num_classes + 1), requires_grad)
        self.head_ln = _LayerNormParams(d, requires_grad)

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

    def _scale(self):
        # standard transformer logit scaling; a no-op for the argmax kind
        return (self.d // max(self.sa_proj.heads, 1)) ** -0.5

    def _self_attention(self, c):
        x = self.sa_ln(c)
        update, _, _ = self.sa_proj.attend(x, x, logit_scale=self._scale())
        return c + self.sa_ln_out(update)

    def _interaction(self, c, pixels):
        # not ``attend``: the mask embedding needs the projected q and k
        q, k, v = self.ker_proj.project(self.ker_ln_c(c), self.ker_ln_p(pixels))
        mask_emb = matmul(q, self.mask_w) + self.mask_b
        sup_logits = scale(matmul(mask_emb, k.T), self._scale())
        if self.kernel == "kmeans":
            # the supervised mask logits define the hard assignment, so the
            # deep-supervision losses directly shape the clustering
            update, _, _ = _run_interaction(
                mask_emb, k, v, "kmeans", heads=self.ker_proj.heads,
                normalize=self.kmeans_normalize,
            )
        else:
            update, _, _ = _run_interaction(q, k, v, "softmax",
                                            heads=self.ker_proj.heads,
                                            logit_scale=self._scale())
        return c + self.ker_ln_out(update), sup_logits

    def _ffn(self, c):
        h = gelu(matmul(self.ffn_ln(c), self.ffn_w1) + self.ffn_b1)
        return c + self.ffn_ln_out(matmul(h, self.ffn_w2) + self.ffn_b2)

    def forward(self, c, pixels, stage=0):
        """Run the block; returns (updated centers, auxiliary prediction)."""
        if not isinstance(pixels, PixelFeatures):
            raise ConfigError("decoder blocks take PixelFeatures (need spatial dims)")
        if self.selfattn_first:
            c = self._self_attention(c)
            c, sup_logits = self._interaction(c, pixels.values)
        else:
            c, sup_logits = self._interaction(c, pixels.values)
            c = self._self_attention(c)
        c = self._ffn(c)

        class_logits = matmul(self.head_ln(c), self.class_w) + self.class_b
        aux = AuxiliaryPrediction(
            mask_logits=transpose(sup_logits),
            class_logits=class_logits,
            source=stage,
            height=pixels.height,
            width=pixels.width,
            affinity=np.array(sup_logits.data, copy=True),
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
