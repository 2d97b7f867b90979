"""Shared panoptic domain types.

Ground truth and predictions both describe an image as a set of
non-overlapping class-labeled masks, stored as per-pixel (class id, instance
id) maps. The class id ``-1`` marks void (unlabeled) pixels.

A map's dtype is int8 or int64. An int8 map stays int8, so a dataset that
keeps many small-id scenes (``data.generate`` draws int8 maps) holds an
eighth of the bytes; any other integer map becomes int64, and a float or
bool map raises ``ContractError`` rather than being truncated to ids. Every
consumer widens the ids before it computes with them: ``label_index`` only
sorts and compares them and returns int64 rows and indices, a merged
prediction is int64, and the loss casts class ids to ``intp``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ShapeError
from .tensor import Tensor, softmax_lse

VOID = -1


class PanopticMap:
    """Per-pixel (class id, instance id) labeling of one image."""

    def __init__(self, class_map, instance_map):
        self.class_map = _id_map(class_map, "class map")
        self.instance_map = _id_map(instance_map, "instance map")
        if self.class_map.shape != self.instance_map.shape or self.class_map.ndim != 2:
            raise ShapeError(
                f"class map {self.class_map.shape} and instance map "
                f"{self.instance_map.shape} must be equal 2-D grids"
            )

    @property
    def height(self):
        return self.class_map.shape[0]

    @property
    def width(self):
        return self.class_map.shape[1]

    def segment_index(self):
        """Dense segment index of every pixel, void segments included.

        Returns ``(index, keys)``: ``keys`` is an (S, 2) int64 array of the
        distinct (class id, instance id) pairs in canonical lexicographic
        order, and ``index`` maps each of the H*W pixels to its row of
        ``keys``.
        """
        return label_index(self.class_map.reshape(-1), self.instance_map.reshape(-1))

    def downsample(self, stride):
        """Nearest-sample every ``stride``-th pixel (window centers)."""
        off = stride // 2
        return PanopticMap(
            self.class_map[off::stride, off::stride],
            self.instance_map[off::stride, off::stride],
        )

    def upsample(self, factor):
        """Repeat every pixel into a ``factor`` x ``factor`` block."""
        return PanopticMap(
            np.repeat(np.repeat(self.class_map, factor, 0), factor, 1),
            np.repeat(np.repeat(self.instance_map, factor, 0), factor, 1),
        )

    def flip_horizontal(self):
        return PanopticMap(self.class_map[:, ::-1].copy(),
                           self.instance_map[:, ::-1].copy())


def _id_map(ids, what):
    """``ids`` as an int8 array if it is int8, else as int64; integers only."""
    ids = np.asarray(ids)
    if ids.dtype == np.int8:
        return ids
    if ids.dtype.kind not in "iu":
        raise ContractError(f"{what} must hold integer ids, got dtype {ids.dtype}")
    return ids.astype(np.int64, copy=False)


def label_index(*keys):
    """Rank the distinct tuples of equal-length int arrays.

    Returns ``(index, rows)``: ``rows`` is an (n, len(keys)) int64 array
    holding each distinct tuple once, in lexicographic order with the first
    key most significant, and ``index`` maps every element to its row. The
    keys are sorted together, never packed into one integer, so any int64
    values rank exactly.
    """
    order = np.lexsort(keys[::-1])
    ordered = [key[order] for key in keys]
    starts = np.zeros(order.size, dtype=bool)
    starts[:1] = True
    for key in ordered:
        starts[1:] |= key[1:] != key[:-1]
    index = np.empty(order.size, dtype=np.int64)
    index[order] = np.cumsum(starts) - 1
    return index, np.stack([key[starts] for key in ordered], axis=1, dtype=np.int64)


@dataclass
class PredictionSet:
    """N mask logits over pixels plus per-mask class logits.

    ``mask_logits`` is (H*W, N) at the prediction stride; ``class_logits`` is
    (N, num_classes + 1) with the void class in the last column. Probability
    views are computed on demand and detached from the graph.
    """

    mask_logits: Tensor
    class_logits: Tensor
    height: int
    width: int

    def __post_init__(self):
        hw, n = self.mask_logits.data.shape
        if hw != self.height * self.width:
            raise ShapeError(
                f"{hw} mask rows do not match {self.height}x{self.width}"
            )
        if self.class_logits.data.shape[0] != n:
            raise ShapeError(
                f"{n} masks but {self.class_logits.data.shape[0]} class rows"
            )

    @property
    def num_queries(self):
        return self.mask_logits.data.shape[1]

    @property
    def num_classes(self):
        return self.class_logits.data.shape[1] - 1

    @property
    def affinity(self):
        """Read-only (N, HW) view of the mask logits, detached."""
        view = self.mask_logits.data.T
        view.flags.writeable = False
        return view

    def mask_probs(self):
        """Per-pixel softmax over the N masks; rows sum to one."""
        return softmax_lse(self.mask_logits.data, axis=1)[0]

    def class_probs(self):
        """Per-mask class distribution including the void class."""
        return softmax_lse(self.class_logits.data, axis=1)[0]
