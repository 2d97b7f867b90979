"""Finite-difference verification of reverse-mode gradients."""

from __future__ import annotations

import numpy as np

from .errors import ContractError
from .tensor import Tensor, no_grad


def grad_check(f, x, eps=1e-3):
    """Max relative error between reverse-mode and finite-difference grads.

    The numeric gradient of each entry is the Richardson extrapolation
    ``(4·D(eps/2) − D(eps)) / 3`` of two central differences
    ``D(h) = (f(x+h) − f(x−h)) / 2h``. It cancels their h² error term, so a
    step large enough to keep rounding noise small stays accurate.
    ``f`` maps a Tensor to a scalar Tensor and must be deterministic; any
    hard assignments inside it are assumed stable under +-eps perturbation.
    The relative error uses max(|analytic|, |numeric|, 1e-8) as denominator.
    ``x`` is copied to float64 whatever its dtype, so the differences are
    taken in float64.
    """
    leaf = Tensor(np.array(x.data if isinstance(x, Tensor) else x, dtype=np.float64,
                           copy=True), requires_grad=True)
    out = f(leaf)
    if not isinstance(out, Tensor) or out.data.size != 1:
        raise ContractError("grad_check requires a scalar-valued function")
    out.backward()
    analytic = np.zeros_like(leaf.data) if leaf.grad is None else leaf.grad

    base = leaf.data
    numeric = np.zeros_like(base)
    flat = base.reshape(-1)

    def central(i, orig, h):
        flat[i] = orig + h
        hi = f(Tensor(base)).item()
        flat[i] = orig - h
        lo = f(Tensor(base)).item()
        flat[i] = orig
        return (hi - lo) / (2.0 * h)

    with no_grad():
        num_flat = numeric.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            num_flat[i] = (4.0 * central(i, orig, eps / 2) - central(i, orig, eps)) / 3.0

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))
