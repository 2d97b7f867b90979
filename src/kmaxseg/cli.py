"""Command-line entry point.

Subcommands:
  train      train a model from a config file; writes checkpoint + metrics CSV
  eval       evaluate a checkpoint on the seeded validation split
  ablate     kernel-swap and decoder-count studies at equal step budgets,
             trained on every usable CPU
  visualize  render a checkpoint's per-stage assignment maps and final panoptic map
  selftest   run the acceptance suite
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from .acceptance import run_all, train_grid
from .config import Config, load_config, save_config
from .checkpoint import load_checkpoint
from .data import CLASS_TABLE, SyntheticDataset, generate
from .errors import ConfigError
from .metrics import evaluate_model, evaluation_report
from .model import KMaxModel
from .training import scene_spec_from_config, train_loop


def _load_config(path):
    if path is None:
        return Config()
    if not os.path.exists(path):
        raise FileNotFoundError(path)
    return load_config(path)


def _build_dataset(cfg):
    return SyntheticDataset(scene_spec_from_config(cfg), cfg.train.train_size,
                            cfg.train.val_size)


def _checkpointed_model(cfg, args):
    """The model ``--checkpoint`` holds; it overwrites every seed-0 draw."""
    if args.checkpoint is None:
        raise ConfigError(f"{args.command} requires --checkpoint")
    model = KMaxModel(cfg.model, seed=0)
    load_checkpoint(args.checkpoint, model)
    return model


def _cmd_train(args):
    cfg = _load_config(args.config)
    if args.seed is not None:
        cfg.train.seed = args.seed
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    ckpt = args.checkpoint or os.path.join(out_dir, "model.ckpt")
    os.makedirs(os.path.dirname(ckpt) or ".", exist_ok=True)
    metrics = os.path.join(out_dir, "metrics.csv")
    result = train_loop(cfg, checkpoint_path=ckpt, metrics_path=metrics)
    save_config(cfg, os.path.join(out_dir, "config.used.txt"))
    print(f"trained {cfg.train.steps} steps in {result.seconds:.0f}s; "
          f"val PQ {result.final_val_pq!r}")
    print(f"checkpoint: {ckpt}")
    print(f"metrics: {metrics}")
    return 0


def _cmd_eval(args):
    cfg = _load_config(args.config)
    model = _checkpointed_model(cfg, args)
    dataset = _build_dataset(cfg)
    result = evaluate_model(model, dataset.val, cfg.infer, dataset.class_table)
    print(evaluation_report(result, dataset.class_table))
    return 0


def _cmd_ablate(args):
    cfg = _load_config(args.config)
    if args.seeds < 1:
        raise ConfigError(f"--seeds must be positive, got {args.seeds}")
    seeds = [cfg.train.seed + i for i in range(args.seeds)]
    variants = [(f"{kernel} cross-attention", dict(kernel=kernel))
                for kernel in ("softmax", "kmeans")]
    variants += [(f"kmeans, decoders ({n},{n},{n})", dict(kernel="kmeans", schedule=(n,) * 3))
                 for n in (1, 2, 3)]
    print(f"steps per run: {cfg.train.steps}, seeds: {seeds}")
    print(f"{'variant':40s} {'params':>9s} {'median PQ':>10s}  per-seed PQ")
    grid = train_grid(cfg, [overrides for _, overrides in variants], seeds)
    for (name, overrides), runs in zip(variants, grid):
        pqs = [pq for pq, _ in runs]
        params = KMaxModel(replace(cfg.model, **overrides), seed=0).parameter_count()
        per_seed = " ".join(f"{v:.4f}" for v in pqs)
        print(f"{name:40s} {params:9d} {np.median(pqs):10.4f}  {per_seed}")
    return 0


def _cmd_visualize(args):
    from .visualize import render_stages

    cfg = _load_config(args.config)
    # the image is val scene ``--seed``; a negative one would index another split
    if args.seed is not None and args.seed < 0:
        raise ConfigError(f"--seed must be non-negative, got {args.seed}")
    model = _checkpointed_model(cfg, args)
    spec = scene_spec_from_config(cfg)
    index = SyntheticDataset.VAL_OFFSET + (args.seed or 0)
    img, _ = generate(spec, index)
    out_dir = args.out or "visualizations"
    paths = render_stages(model, img, cfg.infer,
                          CLASS_TABLE.thing_ids, out_dir)
    for path in paths:
        print(path)
    return 0


def _cmd_selftest(args):
    return run_all(fast=args.fast)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="kmaxseg",
        description="toy-scale mask-transformer panoptic segmentation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed_and_out=True, checkpoint=True):
        p.add_argument("--config", metavar="PATH", help="config file (key = value text)")
        if seed_and_out:
            p.add_argument("--seed", type=int, metavar="INT")
            p.add_argument("--out", metavar="DIR")
        if checkpoint:
            p.add_argument("--checkpoint", metavar="PATH")

    common(sub.add_parser("train", help="train a model"))
    common(sub.add_parser("eval", help="evaluate a checkpoint"), seed_and_out=False)
    # no abbreviations: ``--seed`` would silently mean ``--seeds``
    ablate = sub.add_parser("ablate", help="kernel and decoder-count studies",
                            allow_abbrev=False)
    common(ablate, seed_and_out=False, checkpoint=False)
    ablate.add_argument("--seeds", type=int, default=3, metavar="N",
                        help="number of seeds per variant (default 3)")
    common(sub.add_parser("visualize", help="render assignment maps"))
    selftest = sub.add_parser("selftest", help="run the acceptance suite")
    selftest.add_argument("--fast", action="store_true",
                          help="skip the training-based criteria")
    return parser


_COMMANDS = {
    "train": _cmd_train,
    "eval": _cmd_eval,
    "ablate": _cmd_ablate,
    "visualize": _cmd_visualize,
    "selftest": _cmd_selftest,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except FileNotFoundError as exc:
        print(f"error: missing file: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # surface anything else with a nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
