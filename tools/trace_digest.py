"""Fingerprint short fixed-seed training runs, to show a refactor is bitwise neutral.

Usage: python tools/trace_digest.py [--against REV]

Imports the package from the ``src/`` directory beside this one. For each
variant it runs a 12-step seed-5 ``train_loop`` and prints one line: the
SHA-256 of the metrics rows, the SHA-256 of every trained parameter's name
and bytes in name order, the SHA-256 of the ``class_map`` and
``instance_map`` bytes that ``merge_masks`` gives for every validation image
of the trained model, the SHA-256 of the mask and class logits of the final
and every auxiliary prediction of each validation image before merging, the
same SHA-256 for a float32 copy of the model, that model's validation PQ and
mIoU, and the number of tape nodes in the first step's loss graph. After 12
steps the merged maps, PQ and mIoU rarely tell two variants apart, so the
two logits fields are the ones that show a change to the forward pass. The
labels and logits fields come from the trained float64 model, and logits32
from ``model.astype(np.float32)``, the copy that ``evaluate_model`` runs; the
PQ, mIoU and the rows' val PQ come from ``evaluate_model``.

``--against REV`` compares this checkout with the git revision ``REV``: it
exports ``REV`` with ``git archive`` into a temporary directory, runs that
revision's own copy of this script there and then this checkout's. It
prints both outputs and exits 1 if any line differs. A revision whose script
prints other fields differs on every line. The script uses only
``Config``, ``SyntheticDataset``, ``scene_spec_from_config``, ``train_loop``,
``merge_masks``, ``no_grad``, ``evaluate_model``, ``KMaxModel.astype`` and
``tensor.GradTape.from_output``, and reads only the two maps of a merge
result and the ``mask_logits`` and ``class_logits`` of a prediction. It
calls ``merge_masks(pred, cfg.infer, thing_ids)``, so the first checkout it
runs on is the child of commit ``ca6dbc8``, where ``merge_masks`` began to
take the ``InferConfig``; an older revision needs its own copy of this
script, as ``--against`` runs it.
"""

from __future__ import annotations

import argparse
import hashlib
import subprocess
import sys
import tempfile
from itertools import zip_longest
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from kmaxseg import (Config, SyntheticDataset, evaluate_model, merge_masks,  # noqa: E402
                     no_grad)
from kmaxseg.tensor import GradTape  # noqa: E402
from kmaxseg.training import scene_spec_from_config, train_loop  # noqa: E402

STEPS = 12
SEED = 5
VARIANTS = {
    "kmeans": {},
    "softmax": {"kernel": "softmax"},
    "schedule_111": {"schedule": (1, 1, 1)},
    "schedule_333": {"schedule": (3, 3, 3)},
}


def digest(overrides):
    cfg = Config()
    for key, value in overrides.items():
        setattr(cfg.model, key, value)
    cfg.train.steps = STEPS
    cfg.train.train_size = STEPS
    cfg.train.seed = SEED
    dataset = SyntheticDataset(scene_spec_from_config(cfg), cfg.train.train_size,
                               cfg.train.val_size)
    from_output = GradTape.__dict__["from_output"]
    tape_sizes = []

    def counting(out):
        tape = from_output.__func__(out)
        tape_sizes.append(len(tape.nodes))
        return tape

    GradTape.from_output = staticmethod(counting)
    try:
        result = train_loop(cfg, dataset=dataset)
    finally:
        GradTape.from_output = from_output
    rows = hashlib.sha256("\n".join(result.rows).encode()).hexdigest()
    params = hashlib.sha256()
    named = sorted((name, t) for name, t, _ in result.model.named_parameters())
    for name, tensor in named:
        params.update(name.encode() + b"\0" + tensor.data.tobytes())
    labels = hashlib.sha256()
    logits = hashlib.sha256()
    logits32 = hashlib.sha256()
    model32 = result.model.astype(np.float32)
    for img, _ in dataset.val:
        with no_grad():
            pred, aux, _ = result.model.forward(img)
            pred32, aux32, _ = model32.forward(img)
        for hashed, preds in ((logits, [pred, *aux]), (logits32, [pred32, *aux32])):
            for p in preds:
                hashed.update(p.mask_logits.data.tobytes() + p.class_logits.data.tobytes())
        merged = merge_masks(pred, cfg.infer, dataset.class_table.thing_ids)
        labels.update(merged.class_map.tobytes() + merged.instance_map.tobytes())
    scores = evaluate_model(result.model, dataset.val, cfg.infer, dataset.class_table)
    return (f"rows {rows} params {params.hexdigest()} ({len(named)} tensors) "
            f"labels {labels.hexdigest()} logits {logits.hexdigest()} "
            f"logits32 {logits32.hexdigest()} pq {scores['pq']!r} miou {scores['miou']!r} "
            f"nodes {tape_sizes[0]}")


def line(name):
    return f"{name:16s} {digest(VARIANTS[name])}"


def against(rev):
    """Run ``rev``'s own copy of this script in a ``git archive`` export of
    ``rev``, then this checkout's; the exit status of ``compare``."""
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                                 stdout=subprocess.PIPE).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        theirs = subprocess.run([sys.executable, "tools/trace_digest.py"], cwd=tmp, check=True,
                                stdout=subprocess.PIPE, text=True).stdout.splitlines()
    return compare(rev, theirs, [line(name) for name in VARIANTS])


def compare(rev, theirs, ours):
    """Print ``rev``'s lines and this checkout's; 1 if any line differs, else 0."""
    for label, lines in ((rev, theirs), ("this checkout", ours)):
        print(f"== {label}")
        print(*lines, sep="\n")
    differ = [str(i) for i, (a, b) in enumerate(zip_longest(theirs, ours), 1) if a != b]
    print(f"== lines {', '.join(differ)} differ" if differ else "== every line is equal")
    return 1 if differ else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description="Fingerprint short fixed-seed training runs.")
    parser.add_argument("--against", metavar="REV",
                        help="compare with the git revision REV, run by its own copy of "
                             "this script; exit 1 if any line differs")
    args = parser.parse_args(argv)
    if args.against is not None:
        return against(args.against)
    for name in VARIANTS:
        print(line(name), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
