import functools

import pytest
import reference_ops as R

from kmaxseg import data
from kmaxseg import tensor as T


@pytest.fixture
def generate_calls(monkeypatch):
    """Route ``data.generate`` through a recorder; returns the list of indices it renders."""
    indices = []
    generate = data.generate

    def counting(spec, index):
        indices.append(index)
        return generate(spec, index)

    monkeypatch.setattr(data, "generate", counting)
    return indices


def loss_with_grads(pairs):
    """The scalar ``sum(reduce_sum(p * g))`` over the (tensor p, array g) pairs.

    Its backward leaves ``p.grad == g`` bit for bit for each pair whose
    ``p.grad`` was None, and reaches no tensor left out of ``pairs``.
    """
    return functools.reduce(T.add, [R.reduce_sum(R.mul(p, T.Tensor(g))) for p, g in pairs])
