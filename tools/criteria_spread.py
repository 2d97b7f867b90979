"""Spread of criteria 7-9 under rounding-size changes of the learning rate.

Usage: python tools/criteria_spread.py

Imports the package from the ``src/`` directory beside this one. For each
draw k in 0, +1 and -1 it sets ``training.LR`` to ``LR * (1 + k * 2**-50)``,
about 4 ulps, in this process before the grid forks, and trains the grid of
criteria 7-9 (``acceptance.ablation_results``: ``acceptance.ABLATION``'s
kmeans (2,2,2), softmax (2,2,2) and kmeans (1,1,1), 2000 steps, seeds 0-2)
on every usable CPU. Per draw it prints each run's final validation PQ, the
three medians, criterion 8's gap (kmeans - softmax) and criterion 9's
difference ((2,2,2) - (1,1,1)); then the range of each of those five numbers
over the draws. Last it pools the runs of all draws: per arm their PQs, median
and interquartile range, and for criteria 8 and 9 the difference of the pooled
medians and the exact two-sided rank-sum (Mann-Whitney) p-value of the two
arms' runs. It changes no gate, bound, seed, default or data: draw 0 is
``kmaxseg selftest``'s own run and prints its numbers.
"""

from __future__ import annotations

import itertools
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

# kmaxseg first: it sets one BLAS thread per process, which numpy reads as it loads
from kmaxseg import acceptance, training  # noqa: E402

import numpy as np  # noqa: E402

DRAWS = (0, 1, -1)
NAMES = [f"{v['kernel']} ({','.join(map(str, v['schedule']))})" for v in acceptance.ABLATION]


def rank_sum_p(a, b):
    """Exact two-sided rank-sum (Mann-Whitney) p-value of runs ``a`` against
    runs ``b``, as ``(splits, total)``: of all ``total`` ways to split the
    pooled runs into groups of their sizes, the ``splits`` whose first group's
    rank sum lies at least as far from its mean as ``a``'s. Tied runs share
    their mean rank, so every rank sum is a multiple of 1/2 and exact."""
    _, index, counts = np.unique(np.concatenate([a, b]), return_inverse=True,
                                 return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2)[index]
    splits = np.array(list(itertools.combinations(range(len(ranks)), len(a))))
    mean = len(a) * (len(ranks) + 1) / 2
    far = np.abs(ranks[splits].sum(axis=1) - mean) >= abs(ranks[:len(a)].sum() - mean)
    return int(far.sum()), len(splits)


def spread(steps=2000, seeds=(0, 1, 2), draws=DRAWS, out=print):
    """Run the grid once per draw and print its table; returns ``{k: five numbers}``."""
    lr = training.LR
    table = {}
    pooled = [[] for _ in NAMES]
    try:
        for k in draws:
            training.LR = lr * (1 + k * 2.0 ** -50)
            acceptance.ablation_results.cache_clear()
            started = time.time()
            results = acceptance.ablation_results(steps, tuple(seeds))
            out(f"draw {k:+d}: LR {training.LR!r}, {len(results) * len(seeds)} runs in "
                f"{time.time() - started:.0f}s")
            medians = []
            for name, runs, pool in zip(NAMES, results, pooled):
                pqs = [pq for pq, _ in runs]
                pool.extend(pqs)
                medians.append(float(np.median(pqs)))
                out(f"  {name:16s} " + " ".join(f"{pq:.4f}" for pq in pqs)
                    + f"  median {medians[-1]:.4f}")
            gap, diff = medians[0] - medians[1], medians[0] - medians[2]
            out(f"  criterion 8 gap kmeans - softmax {gap:+.4f}")
            out(f"  criterion 9 difference (2,2,2) - (1,1,1) {diff:+.4f}")
            table[k] = medians + [gap, diff]
    finally:
        training.LR = lr
        acceptance.ablation_results.cache_clear()
    out(f"range over {len(table)} draws:")
    labels = [f"median {name}" for name in NAMES] + ["criterion 8 gap",
                                                     "criterion 9 difference"]
    for i, label in enumerate(labels):
        vals = [row[i] for row in table.values()]
        out(f"  {label:24s} {min(vals):+.4f} .. {max(vals):+.4f} "
            f"(range {max(vals) - min(vals):.4f})")
    out(f"pooled over {len(table)} draws:")
    for name, pqs in zip(NAMES, pooled):
        q1, q3 = np.percentile(pqs, [25, 75])
        out(f"  {name:16s} " + " ".join(f"{pq:.4f}" for pq in pqs)
            + f"  median {np.median(pqs):.4f} iqr {q3 - q1:.4f}")
    for label, b in (("criterion 8 kmeans - softmax", 1),
                     ("criterion 9 (2,2,2) - (1,1,1)", 2)):
        hits, total = rank_sum_p(pooled[0], pooled[b])
        out(f"  {label} median difference "
            f"{np.median(pooled[0]) - np.median(pooled[b]):+.4f} "
            f"rank-sum p {hits}/{total} = {hits / total:.4f}")
    return table


if __name__ == "__main__":
    spread(out=lambda line: print(line, flush=True))
