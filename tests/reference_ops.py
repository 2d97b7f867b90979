"""Composed autodiff ops that the tests build independent references from.

The package defines only the ops its model and loss run. The tests'
references need a few more: the training loss composed one node per numpy
step, ``softmax_attention`` and ``scaled_dot`` as chains of nodes, and
scalar losses with chosen gradients. They are built here on the package's
node primitives, ``tensor._make`` and ``tensor._accum``, so they share no
arithmetic with the fused nodes they check. No op broadcasts: the two
operands of ``mul``, ``div`` and ``sub`` have one shape.
"""

import numpy as np

from kmaxseg import tensor as T
from kmaxseg.tensor import _accum, _make


def _same_shape(a, b):
    a, b = T._as_tensor(a), T._as_tensor(b)
    assert a.data.shape == b.data.shape, (a.data.shape, b.data.shape)
    return a, b


def mul(a, b):
    a, b = _same_shape(a, b)

    def bwd(g):
        _accum(a, g * b.data, fresh=True)
        _accum(b, g * a.data, fresh=True)

    return _make(a.data * b.data, (a, b), bwd)


def div(a, b):
    a, b = _same_shape(a, b)

    def bwd(g):
        _accum(a, g / b.data, fresh=True)
        _accum(b, -g * a.data / (b.data * b.data), fresh=True)

    return _make(a.data / b.data, (a, b), bwd)


def scale(x, c):
    """``c·x`` for a float ``c``."""
    x = T._as_tensor(x)
    c = float(c)

    def bwd(g):
        _accum(x, g * c, fresh=True)

    return _make(x.data * c, (x,), bwd)


def sub(a, b):
    return T.add(a, scale(b, -1.0))


def reduce_sum(x, axis=None):
    x = T._as_tensor(x)

    def bwd(g):
        if axis is not None:
            g = np.expand_dims(g, axis)
        _accum(x, np.broadcast_to(g, x.data.shape))

    return _make(x.data.sum(axis=axis), (x,), bwd)


def take(x, indices, axis=0):
    """Select slices along ``axis`` by integer index."""
    x = T._as_tensor(x)
    idx = np.asarray(indices, dtype=np.intp)

    def bwd(g):
        gx = np.zeros_like(x.data)
        np.add.at(gx, (slice(None),) * axis + (idx,), g)
        _accum(x, gx, fresh=True)

    return _make(np.take(x.data, idx, axis=axis), (x,), bwd)


def softmax(x, axis):
    """Stabilized softmax along ``axis``; slices sum to one."""
    x = T._as_tensor(x)
    s, _ = T.softmax_lse(x.data, axis)

    def bwd(g):
        inner = (g * s).sum(axis=axis, keepdims=True)
        _accum(x, s * (g - inner), fresh=True)

    return _make(s, (x,), bwd)


def cross_entropy_from_logits(logits, targets, reduction="mean"):
    """Row-wise negative log-likelihood of integer ``targets`` under (rows, classes)
    ``logits``; ``reduction`` is 'mean' or 'none' (the per-row vector)."""
    logits = T._as_tensor(logits)
    ids = np.asarray(targets, dtype=np.intp)
    r = logits.data.shape[0]
    assert ids.shape == (r,), (ids.shape, r)
    p, lse = T.softmax_lse(logits.data, axis=1)
    rows = np.arange(r)
    nll = lse - logits.data[rows, ids]

    def bwd(g):
        d = p.copy()
        d[rows, ids] -= 1.0
        d *= g[:, None] if reduction == "none" else g / r
        _accum(logits, d, fresh=True)

    return _make(nll if reduction == "none" else nll.mean(), (logits,), bwd)


def masked_cross_entropy(logits, targets):
    """Mean cross-entropy over the rows whose target is not negative; 0 if none."""
    keep = targets >= 0
    if keep.all():
        return cross_entropy_from_logits(logits, targets)
    if not keep.any():
        return T.Tensor(0.0)
    rows = np.nonzero(keep)[0]
    return cross_entropy_from_logits(take(logits, rows, axis=0), targets[rows])
