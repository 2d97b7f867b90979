"""Tier-1 runs of the acceptance criteria that need no long training."""

import pytest

from kmaxseg import acceptance

FAST = [fn for _, fn, slow in acceptance.CRITERIA if not slow]


@pytest.mark.parametrize("criterion", FAST, ids=lambda fn: fn.__name__)
def test_fast_criterion_passes(criterion):
    passed, detail = criterion()
    assert passed, detail
