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
        "draw +0", "draw +1", "range over 2 draws"]
    assert len(lines) == 2 * 6 + 1 + 5
    # draw 0 is the grid selftest's criteria read, at these steps and seeds
    selftest = acceptance.ablation_results(2, (0,))
    acceptance.ablation_results.cache_clear()
    assert table[0][:3] == [pq for (pq, _), in selftest]
    assert lines[1].split()[-1] == f"{table[0][0]:.4f}"
