"""Pixel-cluster interaction kernels.

The decoder's cross-attention maps an (N, HW) affinity of cluster centers
against pixels to a per-cluster update of the pixels' value rows. The
softmax kernel is ``tensor.softmax_attention``, which the decoder's
self-attention and the stride-32 pixel block run too. The k-means kernel is
``_hard_aggregate``: each pixel is hard-assigned to its argmax cluster, and
a cluster sums the value rows assigned to it. The assignment is detached,
so gradients reach the query/key projections only through losses on the
affinity itself. Callers apply the projections (``Params.qkv``) and add the
residual themselves.

``lloyd_kmeans`` is classic Lloyd clustering, the oracle acceptance
criterion 2 checks ``_hard_aggregate``'s sum divided by cluster sizes
against; ``lloyd_init`` draws its initial centers, which the criterion hands
to ``_hard_aggregate`` too. ``PixelFeatures`` carries flattened pixel
features with their grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .tensor import Tensor, argmax_onehot, matmul

__all__ = ["PixelFeatures", "lloyd_init", "lloyd_kmeans"]


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


def _hard_aggregate(logits, v):
    """Per-cluster sum of V under the hard assignment of (N, HW) scaled mask logits.

    Each pixel goes to its argmax cluster (detached); a cluster sums its
    assigned value rows. An empty cluster gets a zero row, where Lloyd would
    keep its previous center. Every call the model makes has empty clusters:
    16 queries compete for the 4-64 pixels of a stride-32/16/8 grid, so most
    win none. The zero-row rule is therefore the one in force in training
    and evaluation; ``test_hard_aggregate_empty_cluster_is_zero_row`` covers
    it, and acceptance criterion 2 covers the nonempty case.
    """
    return matmul(argmax_onehot(logits), v)


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
