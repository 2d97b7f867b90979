"""Dense float tensors with reverse-mode automatic differentiation.

Every array in this package is a ``Tensor``: a numpy buffer plus an optional
gradient buffer and a link to the operation that produced it. Calling
``backward()`` on a scalar output replays the recorded operations in reverse
topological order (each node exactly once), accumulating gradients into
every reachable tensor that requires them.

The pass frees the tape as it runs: once a node's backward closure has
fired, the node drops its gradient, its closure (and with it the buffers the
closure saved) and its links to its parents. Only the leaves, the tensors no
operation produced, keep their gradients, so the peak memory of a training
step no longer holds every intermediate gradient at once. A graph can
therefore be differentiated once; a second ``backward()`` that reaches a
released node raises ``ContractError`` before it writes any gradient.

``backward(on_final)`` also reports each leaf the moment its gradient is
final: right after the closure of its last consumer has fired, the pass calls
``on_final(leaf)`` once. The optimizer uses this to update a parameter block
and drop its gradients while the rest of the pass still runs.

Only the operations the model and its loss run are provided; there is no
broadcasting, no views of views bookkeeping, and no control-flow capture.

A tensor holds float32 data as float32 and turns anything else into
float64. Every op allocates its result, its saved buffers and its gradients
in its input's dtype, so a graph built on float32 data stays float32.
Training, checkpoints and finite-difference checks run in float64;
evaluation runs a float32 copy of the model cast for each call
(``KMaxModel.astype``).

The model's matrices are small (16 queries by 64 channels), so a node's
Python overhead costs more than its arithmetic. Two patterns the model
repeats are therefore one node each, with a hand-written backward:
``affine`` (``x @ w + b``) and ``softmax_attention`` (``softmax(c·q kᵀ) @ v``).
A backward closure hands the gradients it allocates to ``_accum`` without a
copy.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erf

from .errors import ContractError, ShapeError

_GRAD_ENABLED = True
_F32 = np.dtype(np.float32)
_F64 = np.dtype(np.float64)


class no_grad:
    """Context manager that disables gradient recording inside its block."""

    def __enter__(self):
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev
        return False


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False):
        if isinstance(data, Tensor):
            data = data.data
        # an ``is`` check: the native-order dtypes are singletons
        self.data = (np.asarray(data) if getattr(data, "dtype", None) is _F32
                     else np.asarray(data, dtype=_F64))
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._backward = None

    # -- basic introspection -------------------------------------------------

    @property
    def T(self):
        return transpose(self)

    def item(self):
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"

    # -- operators -----------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    # -- backward ------------------------------------------------------------

    def backward(self, on_final=None):
        """Reverse-mode pass from this scalar through the recorded graph.

        Leaves accumulate their gradients in ``grad``. Every node the pass
        goes through is released (see ``GradTape.backprop``): its ``grad``
        reads ``None`` afterwards, and calling ``backward()`` again through
        it raises ``ContractError``. ``on_final(leaf)``, if given, is called
        once per leaf the pass reaches, as soon as that leaf's gradient is
        final.
        """
        if self.data.size != 1:
            raise ContractError(
                f"backward() requires a scalar output, got shape {self.data.shape}"
            )
        GradTape.from_output(self).backprop(np.ones_like(self.data), on_final)


class GradTape:
    """Topologically ordered record of the ops reachable from one output.

    Parents always precede children in ``nodes``; backprop walks the list
    once in reverse, so every recorded operation's backward closure fires
    exactly once.
    """

    def __init__(self, nodes):
        self.nodes = nodes

    @staticmethod
    def from_output(out):
        nodes = []
        seen = set()
        stack = [(out, False)]
        while stack:
            t, expanded = stack.pop()
            if expanded:
                nodes.append(t)
                continue
            if id(t) in seen:
                continue
            seen.add(id(t))
            stack.append((t, True))
            for p in t._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        return GradTape(nodes)

    def backprop(self, grad, on_final=None):
        """Seed the output with ``grad``, then run every node's backward
        closure, children first, releasing as it goes.

        Once a non-leaf node's closure has run, its gradient, closure and
        parent links are dropped, so the buffers they hold are freed while
        the pass still runs; leaves keep their gradients. A released node
        gets ``_released`` as its closure, and a tape that reaches one raises
        ``ContractError`` before any gradient is written, the seed included.

        With ``on_final``, the pass first finds each leaf's last consumer in
        the walk (a leaf is a tensor that requires grad and that no op
        produced). Right after that consumer's closure has run, it calls
        ``on_final(leaf)``; an output that is itself a leaf is final once
        seeded. Each reached leaf is reported exactly once, and nothing else
        is.
        """
        if any(t._backward is _released for t in self.nodes):
            _released(None)   # raises before any gradient is written
        out = self.nodes[-1]   # the output comes last in ``nodes``
        out.grad = grad
        finals = {}   # node -> the leaves whose last consumer in the walk it is
        if on_final is not None:
            seen = set()
            # parents come first in ``nodes``, so a leaf's first consumer
            # here is the last one the reversed walk reaches
            for t in self.nodes:
                for p in t._parents:
                    if p._backward is None and p.requires_grad and p not in seen:
                        seen.add(p)
                        finals.setdefault(t, []).append(p)
            if out._backward is None and out.requires_grad:
                on_final(out)
        for t in reversed(self.nodes):
            backward = t._backward
            if backward is None:
                continue
            if t.grad is not None:
                backward(t.grad)
            t.grad = None
            t._backward = _released
            t._parents = ()
            if finals:
                for p in finals.pop(t, ()):
                    on_final(p)


def _released(g):
    """Backward closure of a node an earlier ``backward()`` has released."""
    raise ContractError(
        "backward() reached a node that an earlier backward() already released; "
        "rebuild the graph to differentiate it again"
    )


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _accum(t, g, fresh=False):
    """Add ``g`` into ``t.grad``.

    ``fresh`` says the backward closure allocated ``g`` in this call and
    hands it to no other ``_accum``, so a first accumulation keeps ``g`` as
    ``t.grad`` itself (``asarray`` only turns a numpy scalar into a 0-d
    array). Otherwise ``g`` may be, or be a view of, another node's gradient
    and is copied before ``t.grad`` is accumulated into.
    """
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.asarray(g) if fresh else np.array(g, dtype=t.data.dtype, copy=True)
    else:
        t.grad += g


def _make(data, parents, backward):
    """Wrap an op result, recording the backward closure when needed."""
    out = Tensor(data)
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


# -- arithmetic ---------------------------------------------------------------


def add(a, b):
    """Elementwise sum of two tensors of one shape."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.shape != b.data.shape:
        raise ShapeError(f"add needs equal shapes, got {a.data.shape} and {b.data.shape}")

    def bwd(g):
        _accum(a, g)
        _accum(b, g)

    return _make(a.data + b.data, (a, b), bwd)


def scale(x, c):
    x = _as_tensor(x)
    c = float(c)

    def bwd(g):
        _accum(x, g * c, fresh=True)

    return _make(x.data * c, (x,), bwd)


def _check_gemm(a, b, op):
    """Raise ``ShapeError`` unless the arrays ``a @ b`` is taken of are 2-D and conform."""
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"{op} needs 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"{op} inner dimensions differ: {a.shape} x {b.shape}")


def matmul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    _check_gemm(a.data, b.data, "matmul")
    data = a.data @ b.data

    def bwd(g):
        if a.requires_grad:
            _accum(a, g @ b.data.T, fresh=True)
        if b.requires_grad:
            _accum(b, a.data.T @ g, fresh=True)

    return _make(data, (a, b), bwd)


def affine(x, w, b):
    """``x @ w + b`` as one node: (R, Din) rows, a (Din, Dout) weight, a (Dout,) bias.

    Backward is ``g @ w.T``, ``x.T @ g`` and ``g`` summed over rows, the
    arithmetic of a ``matmul`` node feeding an ``add`` node.
    """
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    _check_gemm(x.data, w.data, "affine")
    if b.data.shape != w.data.shape[1:]:
        raise ShapeError(f"affine bias {b.data.shape} does not match weight {w.data.shape}")
    data = x.data @ w.data
    data += b.data

    def bwd(g):
        if x.requires_grad:
            _accum(x, g @ w.data.T, fresh=True)
        if w.requires_grad:
            _accum(w, x.data.T @ g, fresh=True)
        if b.requires_grad:
            _accum(b, g.sum(axis=0), fresh=True)

    return _make(data, (x, w, b), bwd)


_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def gelu(x):
    """Exact (erf-based) gaussian error linear unit."""
    x = _as_tensor(x)
    phi = 0.5 * (1.0 + erf(x.data * _INV_SQRT2))

    def bwd(g):
        pdf = np.exp(-0.5 * x.data * x.data) * _INV_SQRT_2PI
        _accum(x, g * (phi + x.data * pdf), fresh=True)

    return _make(x.data * phi, (x,), bwd)


# -- shape ops ----------------------------------------------------------------


def transpose(x):
    x = _as_tensor(x)
    if x.data.ndim != 2:
        raise ShapeError(f"transpose expects a 2-D tensor, got {x.data.shape}")

    def bwd(g):
        _accum(x, g.T)

    return _make(x.data.T, (x,), bwd)


def reshape(x, shape):
    x = _as_tensor(x)
    orig = x.data.shape

    def bwd(g):
        _accum(x, g.reshape(orig))

    return _make(x.data.reshape(shape), (x,), bwd)


# -- normalization / attention primitives --------------------------------------


def softmax_lse(x, axis=-1):
    """Stabilized softmax of the array ``x`` along ``axis`` and its log-sum-exp.

    Returns ``(p, lse)``: ``p`` has ``x``'s shape and its slices sum to one;
    ``lse`` drops ``axis``. It records no tape node; every softmax in the
    package is computed here.
    """
    m = x.max(axis=axis, keepdims=True)
    e = np.exp(x - m)
    z = e.sum(axis=axis, keepdims=True)
    return e / z, np.squeeze(m, axis) + np.log(np.squeeze(z, axis))


def softmax_attention(q, k, v, logit_scale=1.0):
    """``softmax(logit_scale · q kᵀ, axis=1) @ v`` as one node.

    ``q`` is (N, D), ``k`` (M, D) and ``v`` (M, Dv); the result is the (N, Dv)
    attention output. The backward repeats, in the same order, the numpy
    calls of a ``matmul``, ``scale``, softmax and ``matmul`` chain of nodes,
    so it rounds as that chain does.
    """
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    _check_gemm(q.data, k.data.T, "softmax_attention")
    if v.data.ndim != 2 or v.data.shape[0] != k.data.shape[0]:
        raise ShapeError(
            f"softmax_attention values {v.data.shape} do not match keys {k.data.shape}"
        )
    s, _ = softmax_lse((q.data @ k.data.T) * logit_scale, axis=1)

    def bwd(g):
        if q.requires_grad or k.requires_grad:
            gs = g @ v.data.T
            gl = s * (gs - (gs * s).sum(axis=1, keepdims=True)) * logit_scale
            if q.requires_grad:
                _accum(q, gl @ k.data, fresh=True)
            if k.requires_grad:
                _accum(k, (q.data.T @ gl).T, fresh=True)
        if v.requires_grad:
            _accum(v, s.T @ g, fresh=True)

    return _make(s @ v.data, (q, k, v), bwd)


def argmax_onehot(x):
    """Hard one-hot assignment of each column to its best row.

    Input is an affinity matrix of shape (clusters, pixels); the result has a
    single 1 per pixel column, at the row with the largest affinity (ties go
    to the lowest row index). The output is detached: the assignment carries
    no gradient.
    """
    x = _as_tensor(x)
    if x.data.ndim != 2 or x.data.size == 0:
        raise ShapeError(
            f"argmax_onehot expects a nonempty 2-D affinity matrix, got {x.data.shape}"
        )
    n, hw = x.data.shape
    best = x.data.argmax(axis=0)
    out = np.zeros((n, hw), dtype=x.data.dtype)
    out[best, np.arange(hw)] = 1.0
    return Tensor(out)


def layer_norm(x, gain, bias, eps=1e-5):
    """Per-row layer normalization of (..., D) rows with a (D,) gain and bias."""
    x, gain, bias = _as_tensor(x), _as_tensor(gain), _as_tensor(bias)
    n = x.data.shape[-1]
    if gain.data.shape != (n,) or bias.data.shape != (n,):
        raise ShapeError(f"layer_norm gain {gain.data.shape} and bias {bias.data.shape} "
                         f"do not match rows of {x.data.shape}")
    # ``np.add.reduce`` then ``/= n`` rounds as ``np.mean`` does, without
    # its Python overhead
    mu = np.add.reduce(x.data, axis=-1, keepdims=True)
    mu /= n
    xc = x.data - mu
    var = np.add.reduce(xc * xc, axis=-1, keepdims=True)
    var /= n
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    data = xhat * gain.data + bias.data

    def bwd(g):
        if x.requires_grad:
            dxhat = g * gain.data
            m1 = np.add.reduce(dxhat, axis=-1, keepdims=True)
            m1 /= n
            m2 = np.add.reduce(dxhat * xhat, axis=-1, keepdims=True)
            m2 /= n
            _accum(x, inv * (dxhat - m1 - xhat * m2), fresh=True)
        lead = tuple(range(g.ndim - 1))
        _accum(gain, (g * xhat).sum(axis=lead), fresh=True)
        _accum(bias, g.sum(axis=lead), fresh=True)

    return _make(data, (x, gain, bias), bwd)


# -- spatial ops ----------------------------------------------------------------


def upsample_nearest(x):
    """Nearest-neighbor 2x upsampling of an (H, W, C) tensor; the backward
    sums the gradient over 2x2 blocks."""
    x = _as_tensor(x)
    if x.data.ndim != 3:
        raise ShapeError(f"upsample_nearest expects (H, W, C), got {x.data.shape}")
    h, w, c = x.data.shape
    data = np.repeat(np.repeat(x.data, 2, axis=0), 2, axis=1)

    def bwd(g):
        _accum(x, g.reshape(h, 2, w, 2, c).sum(axis=(1, 3)), fresh=True)

    return _make(data, (x,), bwd)


def conv3x3(x, weight, bias, stride=1):
    """3x3 convolution over an (H, W, Cin) tensor, padding 1, stride 1 or 2.

    ``weight`` has shape (3, 3, Cin, Cout) and ``bias`` (Cout,).

    Forward is im2col plus one GEMM. The (Ho·Wo, 9·Cin) im2col matrix holds
    in row ``y·Wo + x`` the 3x3 window of the zero-padded input whose
    top-left corner is (stride·y, stride·x), flattened in (i, j, c) order,
    which is the row order of ``weight.reshape(9·Cin, Cout)``. One strided
    copy of a window view of the padded input fills it.

    The closure keeps no im2col matrix: at 9·Cin values per output pixel,
    the model's eight convs held 2.3 MB of them per step at 64x64 and
    9.1 MB at 128x128. The weight grad ``cols.T @ g``
    rebuilds the matrix from ``x``, which the tape holds anyway, and drops
    it before the input grad ``g @ W.T`` is formed; that is added back into
    a zero-padded buffer by nine strided slices in tap order (col2im). The
    bias grad is ``g`` summed over pixels. The rebuilt matrix is a copy of
    the same values in the same layout, and each product and sum runs in
    the same order, so every output and gradient rounds as when the matrix
    was kept. Under ``no_grad`` nothing is kept.
    """
    x, weight, bias = _as_tensor(x), _as_tensor(weight), _as_tensor(bias)
    if x.data.ndim != 3 or weight.data.ndim != 4 or weight.data.shape[:2] != (3, 3):
        raise ShapeError(
            f"conv3x3 expects (H,W,Cin) and (3,3,Cin,Cout), got {x.data.shape} "
            f"and {weight.data.shape}"
        )
    if x.data.shape[2] != weight.data.shape[2]:
        raise ShapeError(
            f"conv3x3 channel mismatch: input {x.data.shape} vs kernel {weight.data.shape}"
        )
    if bias.data.shape != weight.data.shape[3:]:
        raise ShapeError(f"conv3x3 bias {bias.data.shape} does not match kernel "
                         f"{weight.data.shape}")
    if stride not in (1, 2):
        raise ContractError(f"conv3x3 stride must be 1 or 2, got {stride}")

    h, w, cin = x.data.shape
    cout = weight.data.shape[3]
    ho, wo = (h - 1) // stride + 1, (w - 1) // stride + 1
    taps = [(i, j, (slice(i, i + stride * ho, stride), slice(j, j + stride * wo, stride)))
            for i in range(3) for j in range(3)]
    dtype = x.data.dtype

    def im2col():
        xp = np.zeros((h + 2, w + 2, cin), dtype=dtype)
        xp[1 : 1 + h, 1 : 1 + w] = x.data
        win = np.lib.stride_tricks.sliding_window_view(xp, (3, 3), axis=(0, 1))
        cols = np.empty((ho, wo, 3, 3, cin), dtype=dtype)
        cols[...] = win[::stride, ::stride].transpose(0, 1, 3, 4, 2)
        return cols.reshape(ho * wo, 9 * cin)

    wmat = weight.data.reshape(9 * cin, cout)
    data = (im2col() @ wmat).reshape(ho, wo, cout)
    data += bias.data

    def bwd(g):
        g2 = g.reshape(ho * wo, cout)
        if weight.requires_grad:
            _accum(weight, (im2col().T @ g2).reshape(3, 3, cin, cout), fresh=True)
        if bias.requires_grad:
            _accum(bias, g.sum(axis=(0, 1)), fresh=True)
        if x.requires_grad:
            gcols = (g2 @ wmat.T).reshape(ho, wo, 3, 3, cin)
            gx = np.zeros((h + 2, w + 2, cin), dtype=dtype)
            for i, j, window in taps:
                gx[window] += gcols[:, :, i, j]
            _accum(x, gx[1 : 1 + h, 1 : 1 + w], fresh=True)

    return _make(data, (x, weight, bias), bwd)
