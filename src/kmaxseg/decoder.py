"""Transformer decoder blocks with swappable pixel-cluster interaction.

A block runs three residual sublayers over the cluster centers: softmax
self-attention, the configured interaction kernel against pixel features,
and a feed-forward network of hidden width 4d. Each sublayer carries two
layer norms: one on its input and one on its update before the residual
add. The output norm matters most for the hard-assignment kernel, whose
per-cluster update is a sum over assigned pixels and would otherwise scale
with cluster size.
Both attention sublayers call their layers directly: Q, K and V are three
``Affine``s declared by ``Params.qkv``, and the interaction kernel, either
``tensor.softmax_attention`` or ``kernels._hard_aggregate``, is the block's
one branch.

Every block also emits an auxiliary prediction: a ``PredictionSet`` at the
stride of the pixels it read, so it merges like the final one. Its mask
logits are one (N, HW) ``scaled_dot`` node: d^-0.5 times the mask embedding
of the projected centers against the projected pixels. For the
hard-assignment kernel their argmax over clusters is the assignment, so the
supervised logits define the clustering and are the only gradient path into
its query/key weights. At d = 64 the scale 1/8 is exact; for any d, rounding
is monotone, so the scale can tie two logits but never reorders them.

A block declares its parameters in its own ``Params`` registry; the model
adopts them under ``blocks.<i>``.
"""

from __future__ import annotations

from .errors import ConfigError
from .kernels import PixelFeatures, _hard_aggregate
from .layers import Params
from .panoptic import PredictionSet
from .tensor import gelu, scaled_dot, softmax_attention, transpose

__all__ = ["KMaxDecoderBlock"]


class KMaxDecoderBlock:
    """One decoder block: self-attention, interaction kernel, FFN, heads."""

    def __init__(self, rng, d, num_classes, kernel):
        self.kernel = kernel
        self.logit_scale = d ** -0.5  # transformer scaling
        self.params = p = Params(rng)
        self.sa_ln = p.layer_norm("sa_ln", d)
        self.sa_ln_out = p.layer_norm("sa_ln_out", d)
        self.sa_q, self.sa_k, self.sa_v = p.qkv("sa", d)
        self.ker_ln_c = p.layer_norm("ker_ln_c", d)
        self.ker_ln_p = p.layer_norm("ker_ln_p", d)
        self.ker_ln_out = p.layer_norm("ker_ln_out", d)
        self.ker_q, self.ker_k, self.ker_v = p.qkv("ker", d)
        self.ffn_ln = p.layer_norm("ffn_ln", d)
        self.ffn_ln_out = p.layer_norm("ffn_ln_out", d)
        self.ffn1 = p.affine("ffn1", d, 4 * d)
        self.ffn2 = p.affine("ffn2", 4 * d, d)
        self.mask = p.affine("mask", d, d)
        self.cls = p.affine("class", d, num_classes + 1)
        self.head_ln = p.layer_norm("head_ln", d)

    def named_parameters(self):
        return self.params.named()

    # -- sublayers ------------------------------------------------------------

    def _self_attention(self, c):
        x = self.sa_ln(c)
        update = softmax_attention(self.sa_q(x), self.sa_k(x), self.sa_v(x), self.logit_scale)
        return c + self.sa_ln_out(update)

    def _interaction(self, c, pixels):
        cn, pn = self.ker_ln_c(c), self.ker_ln_p(pixels)
        q, k, v = self.ker_q(cn), self.ker_k(pn), self.ker_v(pn)
        sup = scaled_dot(self.mask(q), k, self.logit_scale)
        if self.kernel == "kmeans":
            # the supervised mask logits define the hard assignment, so the
            # deep-supervision losses directly shape the clustering
            update = _hard_aggregate(sup, v)
        else:
            update = softmax_attention(q, k, v, self.logit_scale)
        return c + self.ker_ln_out(update), sup

    def _ffn(self, c):
        return c + self.ffn_ln_out(self.ffn2(gelu(self.ffn1(self.ffn_ln(c)))))

    def forward(self, c, pixels):
        """Run the block; returns (updated centers, auxiliary prediction)."""
        if not isinstance(pixels, PixelFeatures):
            raise ConfigError("decoder blocks take PixelFeatures (need spatial dims)")
        c = self._self_attention(c)
        c, sup = self._interaction(c, pixels.values)
        c = self._ffn(c)

        class_logits = self.cls(self.head_ln(c))
        aux = PredictionSet(transpose(sup), class_logits, pixels.height, pixels.width)
        return c, aux

