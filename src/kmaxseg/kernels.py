"""Pixel-cluster interaction kernels.

``ProjectionWeights.attend`` updates a set of cluster centers (object
queries) from pixel features through one of two attention maps over the
single-head (N, HW) logit matrix ``Q K^T``:

* 'softmax' - the logits are normalized with a softmax over the pixel axis
  and used as soft aggregation weights. Logits, softmax and aggregation are
  one ``softmax_attention`` tape node, so the logits ``attend`` returns for
  this kind are detached: no gradient flows back through them.
* 'kmeans'  - each pixel is hard-assigned to its best cluster (argmax over
  the cluster axis) and assigned pixel values are aggregated per cluster.
  The assignment is detached; gradients reach the query/key projections only
  through losses attached to the returned logits, which stay on the tape.

``attend`` returns the update with the very logits whose map weighted it, so
the hard assignment is the argmax of the returned logits by construction;
callers add the residual themselves. The decoder's self-attention and the
stride-32 pixel block use ``attend``; the decoder's interaction kernel calls
``project`` and then ``softmax_attention`` or ``_hard_aggregate`` itself, as
its supervised logits use the mask embedding of Q. ``kmeans_step`` /
``lloyd_kmeans`` are the classic parameter-free clustering update, kept as
references the hard-assignment map is checked against.

Feed-forward layers and normalization are deliberately absent here; they
belong to the decoder block that wraps these kernels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .layers import Affine
from .tensor import Tensor, argmax_onehot, matmul, mul, scale, softmax_attention

__all__ = [
    "PixelFeatures",
    "ProjectionWeights",
    "kmeans_step",
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
    projects and then runs one single-head attention map.
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
    def identity(d):
        eye, zero = Tensor(np.eye(d)), Tensor(np.zeros(d))
        return ProjectionWeights(eye, eye, eye, zero, zero, zero)

    @staticmethod
    def init(params, prefix, d):
        """Declare ``prefix.wq``, ``.wk``, ``.wv`` and zero ``.bq``, ``.bk``, ``.bv``."""
        w = [params.normal(f"{prefix}.w{n}", (d, d), d ** -0.5) for n in "qkv"]
        b = [params.const(f"{prefix}.b{n}", (d,), 0.0) for n in "qkv"]
        return ProjectionWeights(*w, *b)

    def project(self, centers, pixels):
        return self._q(centers), self._k(pixels), self._v(pixels)

    def attend(self, queries, keys, kind="softmax", logit_scale=1.0,
               normalize=False, prev_centers=None):
        """Project ``queries`` to Q and ``keys`` to K/V, then attend.

        Returns (update, logits), the logits ``logit_scale * Q K^T`` being
        the very matrix whose attention map weighted the update. For 'softmax'
        the logits are detached; for 'kmeans' they carry the gradient path
        into Q and K.
        """
        if kind not in ("softmax", "kmeans"):
            raise ValueError(f"unknown interaction kind {kind!r}")
        _check_dims(queries, keys, self)
        q, k, v = self.project(queries, keys)
        if kind == "softmax":
            return softmax_attention(q, k, v, logit_scale)
        logits = matmul(q, k.T)
        if logit_scale != 1.0:
            logits = scale(logits, logit_scale)
        return _hard_aggregate(logits, v, normalize, prev_centers), logits


def _check_dims(centers, pixels, w):
    cd = centers.data.shape[-1]
    pd = pixels.data.shape[-1]
    wd = w.wq.data.shape[0]
    if cd != pd or cd != wd:
        raise ShapeError(
            f"channel mismatch: centers {centers.data.shape}, pixels "
            f"{pixels.data.shape}, projections {w.wq.data.shape}"
        )


def _hard_aggregate(logits, v, normalize=False, prev_centers=None):
    """Per-cluster update of V under the hard assignment of (N, HW) ``logits``.

    Each pixel goes to its argmax cluster (detached); a cluster sums its
    assigned value rows, or averages them when ``normalize`` is set.
    ``prev_centers`` feeds the empty-cluster fallback of the normalized
    average.
    """
    a = argmax_onehot(logits)
    if not normalize:
        return matmul(a, v)
    counts = a.data.sum(axis=1, keepdims=True)
    update = matmul(Tensor(a.data / np.maximum(counts, 1.0)), v)
    empty = (counts[:, 0] == 0).astype(np.float64)[:, None]
    if prev_centers is not None and empty.any():
        # empty clusters fall back to their previous center row
        update = update + mul(prev_centers, Tensor(empty))
    return update


def kmeans_step(centers, pixels, normalize=False):
    """One parameter-free clustering update (assign, then aggregate).

    Assignments use raw affinities (centers @ pixels.T). With
    ``normalize=False`` the new center is the plain sum of its assigned
    pixel rows (empty clusters become zero rows); with ``normalize=True`` it
    is their mean (empty clusters keep their previous center). Non-residual
    by construction. Returns (new_centers, assignment).
    """
    pixels = pixels.values if isinstance(pixels, PixelFeatures) else pixels
    if centers.data.shape[-1] != pixels.data.shape[-1]:
        raise ShapeError(
            f"channel mismatch: centers {centers.data.shape} vs pixels "
            f"{pixels.data.shape}"
        )
    logits = matmul(centers, pixels.T)
    assignment = argmax_onehot(logits)
    if not normalize:
        return matmul(assignment, pixels), assignment
    counts = assignment.data.sum(axis=1, keepdims=True)
    weights = Tensor(assignment.data / np.maximum(counts, 1.0))
    new = matmul(weights, pixels)
    empty = (counts[:, 0] == 0).astype(np.float64)[:, None]
    if empty.any():
        new = new + mul(centers, Tensor(empty))
    return new, assignment


def lloyd_kmeans(points, k, max_iters=100, seed=0):
    """Classic Lloyd iteration with Euclidean assignment and mean updates.

    Initial centers are ``k`` distinct points drawn by seeded sampling.
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
    distinct = np.unique(pts, axis=0)
    if k > distinct.shape[0]:
        raise ValueError(f"k={k} exceeds the number of distinct points")
    rng = np.random.default_rng(seed)
    centers = distinct[rng.choice(distinct.shape[0], size=k, replace=False)]

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
