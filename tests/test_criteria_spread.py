"""Smoke test of ``tools/criteria_spread.py`` at a few steps: it must run on the
current package, print selftest's grid at draw 0, and leave ``training.LR``
and the cached grid as it found them."""

import importlib.util
import os
from pathlib import Path

from kmaxseg import acceptance, training

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "criteria_spread.py"
_spec = importlib.util.spec_from_file_location("criteria_spread", SCRIPT)
criteria_spread = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(criteria_spread)


def test_criteria_spread_prints_each_draw_then_the_ranges(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})   # runs stay in this process
    train_loop = acceptance.train_loop
    lrs = []

    def recording(cfg):
        lrs.append(training.LR)
        return train_loop(cfg)

    monkeypatch.setattr(acceptance, "train_loop", recording)
    lr = training.LR
    lines = []
    table = criteria_spread.spread(steps=2, seeds=(0,), draws=(0, 1), out=lines.append)
    assert training.LR == lr and acceptance.ablation_results.cache_info().currsize == 0
    assert lrs == [lr] * 3 + [lr * (1 + 2.0 ** -50)] * 3 and lrs[3] != lr
    assert [line.split(":")[0] for line in lines if not line.startswith("  ")] == [
        "draw +0", "draw +1", "range over 2 draws", "pooled over 2 draws"]
    assert len(lines) == 2 * 6 + 1 + 5 + 1 + 3 + 2
    # each arm pools its run of each draw
    for arm, line in enumerate(lines[19:22]):
        assert line.split()[2:4] == [f"{table[0][arm]:.4f}", f"{table[1][arm]:.4f}"]
    # 2 + 2 pooled runs split 6 ways
    assert lines[22].startswith("  criterion 8 kmeans - softmax median difference ")
    assert lines[23].startswith("  criterion 9 (2,2,2) - (1,1,1) median difference ")
    assert all(line.split()[-3].endswith("/6") for line in lines[22:])
    # draw 0 is the grid selftest's criteria read, at these steps and seeds
    selftest = acceptance.ablation_results(2, (0,))
    acceptance.ablation_results.cache_clear()
    assert table[0][:3] == [pq for (pq, _), in selftest]
    assert lines[1].split()[-1] == f"{table[0][0]:.4f}"


def test_rank_sum_p_counts_the_splits_at_least_as_extreme_by_hand():
    # of the 20 splits of 3 + 3 runs only the observed one and its mirror
    # have rank sums as far from their mean 10.5 as 15
    assert criteria_spread.rank_sum_p([0.5, 0.6, 0.7], [0.1, 0.2, 0.3]) == (2, 20)
    assert criteria_spread.rank_sum_p([0.1, 0.2, 0.3], [0.5, 0.6, 0.7]) == (2, 20)
    # midranks: 0.2 and 0.2 share rank 2.5, so the sum 1 + 2.5 is 1.5 from its
    # mean 5 and the splits {1, 2.5}, {1, 2.5'}, {2.5, 4}, {2.5', 4} are as far
    assert criteria_spread.rank_sum_p([0.1, 0.2], [0.2, 0.3]) == (4, 6)
    # every run tied: every split is as extreme as the observed one
    assert criteria_spread.rank_sum_p([0.4, 0.4], [0.4, 0.4]) == (6, 6)
