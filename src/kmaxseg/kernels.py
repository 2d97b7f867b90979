"""Pixel-cluster interaction kernels.

``ProjectionWeights.attend`` projects centers to Q and pixels (or centers)
to K/V and returns the single-head softmax attention update
``softmax(c · Q K^T) V``, computed by one ``softmax_attention`` tape node. The decoder's self-attention and the stride-32 pixel block use it;
callers add the residual themselves.

``_hard_aggregate`` is the k-means map the decoder's interaction kernel
runs: each pixel is hard-assigned to its argmax cluster of an (N, HW)
affinity, and a cluster sums the value rows assigned to it.
The assignment is detached, so gradients reach the query/key projections
only through losses on the affinity itself. The decoder takes that affinity
against the mask embedding of Q, so it calls ``project`` and then
``softmax_attention`` or ``_hard_aggregate`` itself.

``lloyd_kmeans`` is classic Lloyd clustering, the oracle acceptance
criterion 2 checks ``_hard_aggregate`` against; ``lloyd_init`` draws its
initial centers, which the criterion hands to ``_hard_aggregate`` too.

Feed-forward layers and normalization are deliberately absent here; they
belong to the decoder block that wraps these kernels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .layers import Affine
from .tensor import Tensor, argmax_onehot, matmul, softmax_attention

__all__ = [
    "PixelFeatures",
    "ProjectionWeights",
    "lloyd_init",
    "lloyd_kmeans",
]


@dataclass
class PixelFeatures:
    """Flattened (H*W, D) pixel features plus their spatial extent."""

    values: Tensor
    height: int
    width: int

    def __post_init__(self):
        hw = self.values.data.shape[0]
        if hw != self.height * self.width:
            raise ShapeError(
                f"{hw} feature rows do not match {self.height}x{self.width}"
            )


@dataclass
class ProjectionWeights:
    """Query/key/value projections and the one attention path through them.

    ``project`` is the only place the projections are applied; ``attend``
    projects and then runs single-head softmax attention.
    """

    wq: Tensor
    wk: Tensor
    wv: Tensor
    bq: Tensor
    bk: Tensor
    bv: Tensor

    def __post_init__(self):
        self._q = Affine(self.wq, self.bq)
        self._k = Affine(self.wk, self.bk)
        self._v = Affine(self.wv, self.bv)

    @staticmethod
    def init(params, prefix, d):
        """Declare ``prefix.wq``, ``.wk``, ``.wv`` and zero ``.bq``, ``.bk``, ``.bv``."""
        w = [params.normal(f"{prefix}.w{n}", (d, d), d ** -0.5) for n in "qkv"]
        b = [params.const(f"{prefix}.b{n}", (d,), 0.0) for n in "qkv"]
        return ProjectionWeights(*w, *b)

    def project(self, centers, pixels):
        return self._q(centers), self._k(pixels), self._v(pixels)

    def attend(self, queries, keys, logit_scale=1.0):
        """Project ``queries`` to Q and ``keys`` to K/V; return the softmax attention update."""
        q, k, v = self.project(queries, keys)
        return softmax_attention(q, k, v, logit_scale)


def _hard_aggregate(logits, v, normalize=False):
    """Per-cluster update of V under the hard assignment of (N, HW) ``logits``.

    Each pixel goes to its argmax cluster (detached); a cluster sums its
    assigned value rows, the decoder's update. ``normalize`` averages them
    instead, the mean acceptance criterion 2 compares with a Lloyd step. An
    empty cluster gets a zero row either way, where Lloyd would keep its
    previous center. Every call the model makes has empty clusters: 16
    queries compete for the 4-64 pixels of a stride-32/16/8 grid, so most
    win none. The zero-row rule is therefore the one in force in training
    and evaluation; ``test_hard_aggregate_empty_cluster_is_zero_row`` covers
    it, and acceptance criterion 2 covers the nonempty case.
    """
    a = argmax_onehot(logits)
    if not normalize:
        return matmul(a, v)
    counts = a.data.sum(axis=1, keepdims=True)
    return matmul(Tensor(a.data / np.maximum(counts, 1.0)), v)


def lloyd_init(pts, k, seed):
    """``k`` distinct rows of the (M, D) array ``pts``, drawn by seeded sampling.

    These are ``lloyd_kmeans``'s initial centers; a new array each call.
    """
    distinct = np.unique(pts, axis=0)
    if k > distinct.shape[0]:
        raise ValueError(f"k={k} exceeds the number of distinct points")
    rng = np.random.default_rng(seed)
    return distinct[rng.choice(distinct.shape[0], size=k, replace=False)]


def lloyd_kmeans(points, k, max_iters=100, seed=0):
    """Classic Lloyd iteration with Euclidean assignment and mean updates.

    Initial centers are ``k`` distinct points drawn by seeded sampling
    (``lloyd_init``).
    Stops when labels stop changing or after ``max_iters`` full steps.
    Returns (centers, labels) as plain numpy arrays.
    """
    pts = np.asarray(points.data if isinstance(points, Tensor) else points,
                     dtype=np.float64)
    if pts.ndim != 2:
        raise ShapeError(f"points must be (M, D), got {pts.shape}")
    m = pts.shape[0]
    if k > m:
        raise ValueError(f"k={k} exceeds the number of points ({m})")
    centers = lloyd_init(pts, k, seed)

    labels = None
    for _ in range(max_iters):
        d2 = ((pts[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_labels = d2.argmin(axis=1)
        if labels is not None and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for j in range(k):
            members = pts[labels == j]
            if members.shape[0]:
                centers[j] = members.mean(axis=0)
    return centers, labels
