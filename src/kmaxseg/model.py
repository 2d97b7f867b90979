"""Full segmentation model: pixel path, cluster path, prediction heads.

The pixel path is a small strided-convolution encoder down to stride 32
followed by a feature-pyramid decoder: per-stride projections of encoder
skips, nearest 2x upsampling, additive zero-initialized positional
embeddings, one self-attention block at stride 32 and one residual conv
block per finer stride. All pyramid levels share the channel width ``d``.

The cluster path threads learnable queries through the configured decoder
blocks (two per pyramid level by default). Final masks are the softmax over
queries of stride-4 pixel features times mask-embedded centers; a separate
affine head on the stride-4 features provides semantic-segmentation logits.
"""

from __future__ import annotations

import numpy as np

from .config import ModelConfig
from .decoder import KMaxDecoderBlock, _LayerNormParams, stack_forward
from .errors import ConfigError, ContractError, ShapeError
from .kernels import PixelFeatures, ProjectionWeights
from .panoptic import PredictionSet
from .tensor import (Tensor, conv3x3, gelu, matmul, reshape, scale, transpose,
                     upsample2x_nearest)

__all__ = ["KMaxModel"]


class KMaxModel:
    def __init__(self, cfg: ModelConfig, seed=0):
        self.cfg = cfg
        self._params = {}
        self._decay = {}
        rng = np.random.default_rng(seed)
        d = cfg.d

        def reg(name, tensor, decay):
            if name in self._params:
                raise ConfigError(f"duplicate parameter name {name}")
            self._params[name] = tensor
            self._decay[name] = decay
            return tensor

        def affine(name, din, dout, std=None):
            std = din ** -0.5 if std is None else std
            w = reg(f"{name}.w", Tensor(rng.normal(0, std, (din, dout)), True), True)
            b = reg(f"{name}.b", Tensor(np.zeros(dout), True), False)
            return w, b

        # encoder: five stride-2 convs, 3 -> encoder_channels
        chans = (3,) + tuple(cfg.encoder_channels)
        self.enc = []
        for i in range(5):
            std = (2.0 / (9 * chans[i])) ** 0.5
            w = reg(f"enc.{i}.w", Tensor(rng.normal(0, std, (3, 3, chans[i], chans[i + 1])), True), True)
            b = reg(f"enc.{i}.b", Tensor(np.zeros(chans[i + 1]), True), False)
            self.enc.append((w, b))

        # pyramid: skip projection + positional embedding per stride
        s = cfg.image_size
        if s % 32:
            raise ShapeError(f"image size {s} is not a multiple of 32")
        self.strides = (32, 16, 8, 4)
        skip_channels = {32: chans[5], 16: chans[4], 8: chans[3], 4: chans[2]}
        self.proj = {}
        self.pos = {}
        for stride in self.strides:
            self.proj[stride] = affine(f"pyr.{stride}.proj", skip_channels[stride], d)
            hw = (s // stride) ** 2
            self.pos[stride] = reg(f"pyr.{stride}.pos", Tensor(np.zeros((hw, d)), True), False)

        # stride-32 feature enhancement: self-attention + mlp, both pre-norm
        self.attn_ln = _LayerNormParams(d)
        self.attn_proj = ProjectionWeights.init(rng, d)
        self.mlp_ln = _LayerNormParams(d)
        self.mlp_w1, self.mlp_b1 = affine("pyr.32.mlp1", d, 2 * d)
        self.mlp_w2, self.mlp_b2 = affine("pyr.32.mlp2", 2 * d, d)
        for n, t, dec in self.attn_ln.named("pyr.32.attn_ln") + self.mlp_ln.named("pyr.32.mlp_ln"):
            reg(n, t, dec)
        for n, t in self.attn_proj.tensors():
            reg(f"pyr.32.attn.{n}", t, t.data.ndim > 1)

        # residual conv block per finer stride
        self.block_conv = {}
        for stride in (16, 8, 4):
            std = (2.0 / (9 * d)) ** 0.5
            w = reg(f"pyr.{stride}.conv.w", Tensor(rng.normal(0, std, (3, 3, d, d)), True), True)
            b = reg(f"pyr.{stride}.conv.b", Tensor(np.zeros(d), True), False)
            self.block_conv[stride] = (w, b)

        # cluster path
        self.queries = reg("queries", Tensor(rng.normal(0, d ** -0.5, (cfg.num_queries, d)), True), True)
        self.blocks = []
        for i in range(sum(cfg.schedule)):
            block = KMaxDecoderBlock(
                rng, d, cfg.num_classes, kernel=cfg.kernel,
                ffn_hidden=cfg.ffn_hidden,
                kmeans_normalize=cfg.kmeans_normalize,
            )
            self.blocks.append(block)
            for n, t, dec in block.named_parameters():
                reg(f"blocks.{i}.{n}", t, dec)

        # final prediction heads
        self.final_ln = _LayerNormParams(d)
        for n, t, dec in self.final_ln.named("final.ln"):
            reg(n, t, dec)
        self.final_mask_w, self.final_mask_b = affine("final.mask", d, d)
        self.final_class_w, self.final_class_b = affine("final.class", d, cfg.num_classes + 1)
        self.sem_w, self.sem_b = affine("final.sem", d, cfg.num_classes + 1)

    # -- parameter bookkeeping -------------------------------------------------

    def named_parameters(self):
        return [(n, self._params[n], self._decay[n]) for n in self._params]

    def parameters(self):
        return list(self._params.values())

    def parameter_count(self):
        return int(sum(t.data.size for t in self._params.values()))

    def zero_grad(self):
        for t in self._params.values():
            t.grad = None

    # -- pixel path --------------------------------------------------------------

    def pixel_path(self, image):
        """Toy encoder plus pyramid decoder.

        Returns ``{stride: PixelFeatures}`` for strides 32, 16, 8 and the
        final stride 4.
        """
        x = image if isinstance(image, Tensor) else Tensor(image)
        if x.data.ndim != 3 or x.data.shape[2] != 3:
            raise ShapeError(f"expected an (H, W, 3) image, got {x.data.shape}")
        h, w = x.data.shape[:2]
        if h % 32 or w % 32:
            raise ShapeError(f"image dims {h}x{w} must be multiples of 32")
        if not np.isfinite(x.data).all():
            # a NaN would reach every mask logit and merge to an all-void map
            raise ContractError("image has non-finite pixel values")

        skips = {}
        stride = 1
        for wgt, bias in self.enc:
            x = gelu(conv3x3(x, wgt, bias, stride=2))
            stride *= 2
            skips[stride] = x

        levels = {}
        prev = None
        for s in self.strides:
            hs, ws = h // s, w // s
            skip = skips[s]
            flat = reshape(skip, (hs * ws, skip.data.shape[2]))
            pw, pb = self.proj[s]
            t = matmul(flat, pw) + pb
            if prev is not None:
                up = upsample2x_nearest(reshape(prev, (hs // 2, ws // 2, self.cfg.d)))
                t = t + reshape(up, (hs * ws, self.cfg.d))
            t = t + self.pos[s]
            if s == 32:
                a_in = self.attn_ln(t)
                upd, _ = self.attn_proj.attend(a_in, a_in, logit_scale=self.cfg.d ** -0.5)
                t = t + upd
                hmid = gelu(matmul(self.mlp_ln(t), self.mlp_w1) + self.mlp_b1)
                t = t + (matmul(hmid, self.mlp_w2) + self.mlp_b2)
            else:
                cw, cb = self.block_conv[s]
                y = conv3x3(gelu(reshape(t, (hs, ws, self.cfg.d))), cw, cb)
                t = t + reshape(y, (hs * ws, self.cfg.d))
            levels[s] = PixelFeatures(t, hs, ws)
            prev = t
        return levels

    # -- full forward --------------------------------------------------------------

    def forward(self, image):
        """Run the model; returns (prediction, aux predictions, semantic logits).

        Training and inference run the same pass over all queries.
        """
        pyramid = self.pixel_path(image)
        pyr_levels = [pyramid[32], pyramid[16], pyramid[8]]
        centers, aux = stack_forward(self.blocks, self.queries, pyr_levels, self.cfg.schedule)

        normed = self.final_ln(centers)
        mask_emb = matmul(normed, self.final_mask_w) + self.final_mask_b
        f4 = pyramid[4]
        mask_logits = scale(matmul(f4.values, transpose(mask_emb)),
                            self.cfg.d ** -0.5)
        class_logits = matmul(normed, self.final_class_w) + self.final_class_b
        sem_logits = matmul(f4.values, self.sem_w) + self.sem_b

        pred = PredictionSet(mask_logits, class_logits, f4.height, f4.width)
        return pred, aux, sem_logits
