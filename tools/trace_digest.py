"""Fingerprint short fixed-seed training runs, to show a refactor is bitwise neutral.

Usage: python tools/trace_digest.py

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
PQ, mIoU and the rows' val PQ come from ``evaluate_model``. Running the
script on two checkouts and diffing the output compares them. It uses only
``Config``, ``SyntheticDataset``, ``scene_spec_from_config``, ``train_loop``,
``merge_masks``, ``no_grad``, ``evaluate_model``, ``KMaxModel.astype`` and
``tensor.GradTape.from_output``, and reads only the two maps of a merge
result and the ``mask_logits`` and ``class_logits`` of a prediction, so older
checkouts run it unchanged.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

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
        merged = merge_masks(pred, conf_thresh=cfg.infer.conf_thresh,
                             overlap_thresh=cfg.infer.overlap_thresh,
                             thing_ids=dataset.class_table.thing_ids,
                             mask_binarize=cfg.infer.mask_binarize)
        labels.update(merged.class_map.tobytes() + merged.instance_map.tobytes())
    scores = evaluate_model(result.model, dataset.val, cfg.infer, dataset.class_table)
    return (f"rows {rows} params {params.hexdigest()} ({len(named)} tensors) "
            f"labels {labels.hexdigest()} logits {logits.hexdigest()} "
            f"logits32 {logits32.hexdigest()} pq {scores['pq']!r} miou {scores['miou']!r} "
            f"nodes {tape_sizes[0]}")


def main():
    for name, overrides in VARIANTS.items():
        print(f"{name:16s} {digest(overrides)}", flush=True)


if __name__ == "__main__":
    main()
