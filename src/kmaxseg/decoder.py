"""Transformer decoder blocks with swappable pixel-cluster interaction.

A block runs three residual sublayers over the cluster centers: softmax
self-attention, the configured interaction kernel against pixel features,
and a feed-forward network. Each sublayer carries two layer norms: one on
its input and one on its update before the residual add. The output norm
matters most for the hard-assignment kernel, whose per-cluster update is a
sum over assigned pixels and would otherwise scale with cluster size.

Every block also emits an auxiliary prediction: a ``PredictionSet`` at the
stride of the pixels it read, so it merges like the final one. Its mask
logits are the scaled affinity between the mask embedding of the projected
centers and the projected pixels; for the hard-assignment kernel the argmax
of that same affinity is the assignment, so the supervised logits define
the clustering by construction and are the only gradient path into its
query/key weights.

A block declares its parameters in its own ``Params`` registry; the model
adopts them under ``blocks.<i>``.
"""

from __future__ import annotations

from .errors import ConfigError
from .kernels import PixelFeatures, ProjectionWeights, _hard_aggregate
from .layers import Params
from .panoptic import PredictionSet
from .tensor import gelu, matmul, scale, softmax_attention, transpose

__all__ = ["KMaxDecoderBlock"]


class KMaxDecoderBlock:
    """One decoder block: self-attention, interaction kernel, FFN, heads."""

    def __init__(self, rng, d, num_classes, kernel="kmeans", ffn_hidden=256,
                 kmeans_normalize=False):
        if kernel not in ("kmeans", "softmax"):
            raise ConfigError(f"unknown interaction kernel {kernel!r}")
        self.kernel = kernel
        self.kmeans_normalize = kmeans_normalize
        self.logit_scale = d ** -0.5  # transformer scaling; the argmax ignores it
        self.params = p = Params(rng)
        self.sa_ln = p.layer_norm("sa_ln", d)
        self.sa_ln_out = p.layer_norm("sa_ln_out", d)
        self.sa_proj = ProjectionWeights.init(p, "sa", d)
        self.ker_ln_c = p.layer_norm("ker_ln_c", d)
        self.ker_ln_p = p.layer_norm("ker_ln_p", d)
        self.ker_ln_out = p.layer_norm("ker_ln_out", d)
        self.ker_proj = ProjectionWeights.init(p, "ker", d)
        self.ffn_ln = p.layer_norm("ffn_ln", d)
        self.ffn_ln_out = p.layer_norm("ffn_ln_out", d)
        self.ffn1 = p.affine("ffn1", d, ffn_hidden)
        self.ffn2 = p.affine("ffn2", ffn_hidden, d)
        self.mask = p.affine("mask", d, d)
        self.cls = p.affine("class", d, num_classes + 1)
        self.head_ln = p.layer_norm("head_ln", d)

    def named_parameters(self):
        return self.params.named()

    # -- sublayers ------------------------------------------------------------

    def _self_attention(self, c):
        x = self.sa_ln(c)
        update = self.sa_proj.attend(x, x, logit_scale=self.logit_scale)
        return c + self.sa_ln_out(update)

    def _interaction(self, c, pixels):
        # not ``attend``: the affinity is taken against the mask embedding
        q, k, v = self.ker_proj.project(self.ker_ln_c(c), self.ker_ln_p(pixels))
        mask_emb = self.mask(q)
        affinity = matmul(mask_emb, k.T)
        sup_logits = scale(affinity, self.logit_scale)
        if self.kernel == "kmeans":
            # the supervised mask logits define the hard assignment, so the
            # deep-supervision losses directly shape the clustering
            update = _hard_aggregate(affinity, v, self.kmeans_normalize)
        else:
            update = softmax_attention(q, k, v, self.logit_scale)
        return c + self.ker_ln_out(update), sup_logits

    def _ffn(self, c):
        return c + self.ffn_ln_out(self.ffn2(gelu(self.ffn1(self.ffn_ln(c)))))

    def forward(self, c, pixels):
        """Run the block; returns (updated centers, auxiliary prediction)."""
        if not isinstance(pixels, PixelFeatures):
            raise ConfigError("decoder blocks take PixelFeatures (need spatial dims)")
        c = self._self_attention(c)
        c, sup_logits = self._interaction(c, pixels.values)
        c = self._ffn(c)

        class_logits = self.cls(self.head_ln(c))
        aux = PredictionSet(transpose(sup_logits), class_logits, pixels.height, pixels.width)
        return c, aux

