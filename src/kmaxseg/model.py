"""Full segmentation model: pixel path, cluster path, prediction heads.

The pixel path is a strided-convolution encoder of widths d/4, d/2, 3d/4, d
and d down to stride 32, then a feature-pyramid decoder: per-stride
projections of encoder skips, nearest 2x upsampling, additive
zero-initialized positional embeddings, one self-attention block at stride
32 and one residual conv block per finer stride. All pyramid levels share
the channel width ``d``, and pixel features stay (H·W, C) rows from the
image on. The positional embeddings fix each level's grid, so the model
takes only ``image_size``-square images.

The cluster path threads learnable queries through the configured decoder
blocks: ``schedule[i]`` blocks read the pyramid level at stride 32, 16 and 8
in turn (two per level by default). Final masks are the softmax over queries
of one ``scaled_dot`` node, d^-0.5 times stride-4 pixel features against
mask-embedded centers, as each block's auxiliary masks are. A separate
affine head on the stride-4 features provides semantic-segmentation logits.
The constructor checks its config with ``ModelConfig.validate``; the class
count is ``data.CLASS_TABLE``'s.

Every tensor is declared once through one ``Params`` registry, which names
it, draws it from the model seed in declaration order and sets its weight
decay; ``named_parameters`` returns that registry in declaration order.

The parameters are float64. ``astype`` makes a copy of the model in another
dtype; evaluation and rendering each cast one float32 copy per call and drop
it when they return, and ``pixel_path`` casts the image to the parameters'
dtype, so a forward pass computes in that one dtype.
"""

from __future__ import annotations

import copy

import numpy as np

from .config import ModelConfig
from .data import CLASS_TABLE
from .decoder import KMaxDecoderBlock, PixelFeatures
from .errors import ContractError, ShapeError
from .layers import Params
from .panoptic import PredictionSet
from .tensor import Tensor, conv3x3, gelu, scaled_dot, softmax_attention, upsample_nearest

__all__ = ["KMaxModel"]


class KMaxModel:
    def __init__(self, cfg: ModelConfig, seed=0):
        self.cfg = cfg.validate()
        self.params = p = Params(np.random.default_rng(seed))
        d = cfg.d

        # encoder: five stride-2 convs
        chans = (3, d // 4, d // 2, 3 * d // 4, d, d)
        self.enc = []
        for i in range(5):
            std = (2.0 / (9 * chans[i])) ** 0.5
            w = p.normal(f"enc.{i}.w", (3, 3, chans[i], chans[i + 1]), std)
            self.enc.append((w, p.const(f"enc.{i}.b", (chans[i + 1],), 0.0)))

        # pyramid: skip projection + positional embedding per stride
        s = cfg.image_size
        self.strides = (32, 16, 8, 4)
        skip_channels = {32: chans[5], 16: chans[4], 8: chans[3], 4: chans[2]}
        self.proj = {}
        self.pos = {}
        for stride in self.strides:
            self.proj[stride] = p.affine(f"pyr.{stride}.proj", skip_channels[stride], d)
            hw = (s // stride) ** 2
            self.pos[stride] = p.const(f"pyr.{stride}.pos", (hw, d), 0.0)

        # stride-32 feature enhancement: self-attention + mlp, both pre-norm
        self.attn_ln = p.layer_norm("pyr.32.attn_ln", d)
        self.attn_q, self.attn_k, self.attn_v = p.qkv("pyr.32.attn", d)
        self.mlp_ln = p.layer_norm("pyr.32.mlp_ln", d)
        self.mlp1 = p.affine("pyr.32.mlp1", d, 2 * d)
        self.mlp2 = p.affine("pyr.32.mlp2", 2 * d, d)

        # residual conv block per finer stride
        self.block_conv = {}
        for stride in (16, 8, 4):
            std = (2.0 / (9 * d)) ** 0.5
            w = p.normal(f"pyr.{stride}.conv.w", (3, 3, d, d), std)
            self.block_conv[stride] = (w, p.const(f"pyr.{stride}.conv.b", (d,), 0.0))

        # cluster path
        num_classes = CLASS_TABLE.num_classes
        self.queries = p.normal("queries", (cfg.num_queries, d), d ** -0.5)
        self.block_strides = tuple(stride for stride, count in zip((32, 16, 8), cfg.schedule)
                                   for _ in range(count))
        self.blocks = []
        for i in range(len(self.block_strides)):
            block = KMaxDecoderBlock(p.rng, d, num_classes, cfg.kernel)
            self.blocks.append(block)
            p.adopt(f"blocks.{i}", block.named_parameters())

        # final prediction heads
        self.final_ln = p.layer_norm("final.ln", d)
        self.final_mask = p.affine("final.mask", d, d)
        self.final_class = p.affine("final.class", d, num_classes + 1)
        self.sem = p.affine("final.sem", d, num_classes + 1)

    # -- parameter bookkeeping -------------------------------------------------

    def named_parameters(self):
        return self.params.named()

    def parameter_count(self):
        return int(sum(t.data.size for _, t, _ in self.named_parameters()))

    def astype(self, dtype):
        """A copy of the model whose parameters hold ``dtype`` data.

        Each parameter of the copy is a new tensor holding this one's data
        cast to ``dtype``, with no gradient. The rest of the model is deep
        copied around those tensors, so this model's parameter data and
        gradients are never copied a second time, and this model is left as
        it was. A tensor holds float32 or float64 data only, so any other
        ``dtype`` is a ``ContractError``, not a float64 copy.
        """
        if dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
            raise ContractError(f"astype takes float32 or float64, got {dtype!r}")
        memo = {id(t): Tensor(t.data.astype(dtype), requires_grad=t.requires_grad)
                for _, t, _ in self.named_parameters()}
        return copy.deepcopy(self, memo)

    # -- pixel path --------------------------------------------------------------

    def pixel_path(self, image):
        """Toy encoder plus pyramid decoder.

        Returns ``{stride: PixelFeatures}`` for strides 32, 16, 8 and the
        final stride 4. The image must be an ``image_size``-square array; it
        is cast to the parameters' dtype and flattened to (H·W, 3) rows.
        """
        image = np.asarray(image, dtype=self.queries.data.dtype)
        if image.ndim != 3 or image.shape[2] != 3:
            raise ShapeError(f"expected an (H, W, 3) image, got {image.shape}")
        h, w = image.shape[:2]
        size = self.cfg.image_size
        if (h, w) != (size, size):
            raise ShapeError(f"image is {h}x{w} but the model takes {size}x{size} "
                             "(model.image_size)")
        if not np.isfinite(image).all():
            # a NaN would reach every mask logit and merge to an all-void map
            raise ContractError("image has non-finite pixel values")

        x = Tensor(image.reshape(h * w, 3))
        skips = {}
        for i, (wgt, bias) in enumerate(self.enc):
            x = gelu(conv3x3(x, h >> i, w >> i, wgt, bias, stride=2))
            skips[2 << i] = x

        levels, prev = {}, None
        for s in self.strides:
            hs, ws = h // s, w // s
            t = self.proj[s](skips[s])
            if prev is not None:
                t = t + upsample_nearest(prev, hs // 2, ws // 2)
            t = t + self.pos[s]
            if s == 32:
                a_in = self.attn_ln(t)
                t = t + softmax_attention(self.attn_q(a_in), self.attn_k(a_in),
                                          self.attn_v(a_in), self.cfg.d ** -0.5)
                t = t + self.mlp2(gelu(self.mlp1(self.mlp_ln(t))))
            else:
                cw, cb = self.block_conv[s]
                t = t + conv3x3(gelu(t), hs, ws, cw, cb)
            levels[s] = PixelFeatures(t, hs, ws)
            prev = t
        return levels

    # -- full forward --------------------------------------------------------------

    def forward(self, image):
        """Run the model; returns (prediction, aux predictions, semantic logits).

        Training and inference run the same pass over all queries.
        """
        pyramid = self.pixel_path(image)
        centers, aux = self.queries, []
        for block, stride in zip(self.blocks, self.block_strides):
            centers, a = block.forward(centers, pyramid[stride])
            aux.append(a)

        normed = self.final_ln(centers)
        f4 = pyramid[4]
        mask_logits = scaled_dot(f4.values, self.final_mask(normed), self.cfg.d ** -0.5)
        class_logits = self.final_class(normed)
        sem_logits = self.sem(f4.values)

        pred = PredictionSet(mask_logits, class_logits, f4.height, f4.width)
        return pred, aux, sem_logits
