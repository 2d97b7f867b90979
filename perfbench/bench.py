"""Benchmark of the kmaxseg package: train, eval and train_hires workloads.

Run from the root of a checkout::

    python3 perfbench/bench.py --workload train --seed 0 --seconds 45 --trace 0

Each run is one process driving a closed loop at batch 1 through the public
API of ``src/kmaxseg``; the seed picks the generated scenes and the training
seed. ``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` installs the span tracer of ``spans.py``, traces every other
unit (train step or eval image) and reports per-layer times, counts and the
tracing overhead against the untraced units of the same run. Human-readable
lines come first; the last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. A full
record, and with ``--trace 1`` the spans, are written under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import dataclasses
import glob
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
import traceback
import types
from dataclasses import dataclass
from pathlib import Path

# One BLAS thread: the program's matrices are small enough that a second
# thread gains nothing, and with two each large BLAS call also waits on the
# second core, which neighbours on a shared machine use too.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"

# spans that lie in the measured phase but outside any unit
CALL = -1


def import_program():
    """Import kmaxseg from this checkout's ``src``; returns seconds taken."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    started = time.perf_counter()
    import kmaxseg
    import kmaxseg.checkpoint
    import kmaxseg.training
    elapsed = time.perf_counter() - started
    if Path(kmaxseg.__file__).resolve().parent.parent != src.resolve():
        raise ImportError(f"kmaxseg came from {kmaxseg.__file__}, not from {src}")
    return elapsed


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for lib in libs:
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


class Run:
    """What one run measured: set-up times, unit times, checks and notes."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.setup_s = []
        self.unit_s = []     # wall time of each measured unit
        self.traced = []     # whether each measured unit was traced
        self.wall = 0.0      # wall time of the measured calls
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.notes = {}      # recorded, not gated
        self._marks = []
        self._policy = None

    def trace(self, on, unit=None):
        if self.tracer is not None:
            self.tracer.enabled = on
            self.tracer.unit = unit

    @contextlib.contextmanager
    def setup(self):
        """Time one set-up; its spans are recorded with unit None."""
        self.trace(True)
        started = time.perf_counter()
        yield
        self.setup_s.append(time.perf_counter() - started)
        self.trace(False)

    def begin_call(self, policy):
        """Start a measured call; ``policy(i)`` says whether its unit i is traced."""
        self._marks = []
        self._policy = policy if self.tracer is not None else (lambda i: False)
        return time.perf_counter()

    def tick(self):
        """A unit of the current call starts now."""
        on = self._policy(len(self._marks))
        self.trace(on, len(self.unit_s) + len(self._marks))
        self.traced.append(on)
        self._marks.append(time.perf_counter())

    def end_call(self, started):
        end = time.perf_counter()
        self.trace(False)
        marks = self._marks + [end]
        self.unit_s += [b - a for a, b in zip(marks, marks[1:])]
        self.wall += end - started

    def fail(self, count, problem):
        self.failed += count
        self.problems.append(problem)


class _Scenes(list):
    """Scenes that mark a unit start on every lookup or iteration step.

    ``train_loop`` reads exactly one training scene per step and
    ``evaluate_model`` iterates once over its examples, so these marks are
    the step and image boundaries, taken without touching the program.
    """

    def __init__(self, items, run):
        super().__init__(items)
        self.run = run

    def __getitem__(self, index):
        self.run.tick()
        return list.__getitem__(self, index)

    def __iter__(self):
        for item in list.__iter__(self):
            self.run.tick()
            yield item


def rows_digest(rows):
    return hashlib.sha256("\n".join(rows).encode("utf-8")).hexdigest()


def check_rows(result, steps, run, what):
    """Count the steps of one ``train_loop`` call whose row is not sound."""
    from kmaxseg.training import METRICS_HEADER

    rows = result.rows
    if rows[0] != METRICS_HEADER or len(rows) != steps + 1:
        run.fail(steps, f"{what}: {len(rows) - 1} rows for {steps} steps")
        return
    bad = 0
    for step, row in enumerate(rows[1:]):
        fields = row.split(",")
        if int(fields[0]) != step or not math.isfinite(float(fields[1])):
            bad += 1
    if bad:
        run.fail(bad, f"{what}: {bad} steps with a non-finite loss or wrong index")
    pq = result.final_val_pq
    if not 0.0 <= pq <= 1.0 or float(rows[-1].split(",")[5]) != pq:
        run.fail(1, f"{what}: final val PQ {pq!r} is not in [0, 1] or not in the last row")


@dataclass(frozen=True)
class TrainWorkload:
    """``train_loop`` on pre-rendered scenes, timed in whole calls.

    A call runs ``steps`` steps; at the default 250 that is one eval interval
    of the default config, so every call ends with its periodic 16-image eval
    exactly as ``kmaxseg train`` pays it once per 250 steps.
    """

    image_size: int = 64
    steps: int = 250
    train_size: int = 256
    val_size: int = 16
    warmup_steps: int = 2
    setups: int = 3
    unit = "step"
    throughput_name = "train_steps_per_s"
    throughput_unit = "steps/s"
    expected_spans = ("data.generate", "model.forward", "model.forward.nograd",
                      "model.pixel_path", "tensor.conv3x3.fwd", "tensor.conv3x3.bwd",
                      "decoder.block.s32", "decoder.block.s16", "decoder.block.s8",
                      "training.matching", "training.total_loss", "tensor.backward",
                      "training.adamw", "metrics.evaluate_model", "metrics.merge_masks",
                      "metrics.pq_update")

    def config(self, seed, steps):
        from kmaxseg import Config

        cfg = Config()
        cfg.model.image_size = self.image_size
        cfg.train.steps = steps
        cfg.train.seed = seed
        cfg.train.train_size = self.train_size
        cfg.train.val_size = self.val_size
        cfg.data.seed = seed
        return cfg.validate()

    def run(self, seed, seconds, run):
        from kmaxseg import data, training

        cfg = self.config(seed, self.steps)
        for _ in range(self.setups):
            with run.setup():
                scenes = data.SyntheticDataset(training.scene_spec_from_config(cfg),
                                               self.train_size, self.val_size)
                # builds the model and runs every layer once, eval included
                warm = types.SimpleNamespace(train=scenes.train, val=scenes.val[:2],
                                             class_table=scenes.class_table)
                training.train_loop(self.config(seed, self.warmup_steps), dataset=warm)

        dataset = types.SimpleNamespace(train=_Scenes(scenes.train, run), val=scenes.val,
                                        class_table=scenes.class_table)
        # trace odd steps and the last, which holds the periodic eval
        last = self.steps - 1
        started = time.perf_counter()
        calls = 0
        # whole calls, ending at the call boundary closest to ``seconds``, so
        # the measured time is about ``seconds`` in fast and slow phases alike
        while calls == 0 or (time.perf_counter() - started) * (1 + 0.5 / calls) < seconds:
            call_start = run.begin_call(lambda i: i % 2 == 1 or i == last)
            run.attempted += self.steps
            try:
                result = training.train_loop(cfg, dataset=dataset)
            except Exception:
                run.end_call(call_start)
                run.fail(self.steps, traceback.format_exc())
                break
            run.end_call(call_start)
            check_rows(result, self.steps, run, f"train_loop call {calls}")
            if calls == 0:
                run.notes.update(rows_sha256=rows_digest(result.rows),
                                 final_loss=float(result.rows[-1].split(",")[1]),
                                 final_val_pq=result.final_val_pq)
            calls += 1
        run.notes["train_loop_calls"] = calls
        return len(run.unit_s)   # the periodic eval is amortized over every step


@dataclass(frozen=True)
class EvalWorkload:
    """``evaluate_model`` over a fixed set of val scenes, after a warm-up pass.

    The model is trained in set-up by a fixed-seed ``train_loop`` (default
    config and seeds, so its rows digest can be compared across commits) and
    round-tripped through a checkpoint.
    """

    scenes: int = 64
    train_steps: int = 60
    setups: int = 3
    unit = "image"
    throughput_name = "eval_images_per_s"
    throughput_unit = "images/s"
    expected_spans = ("data.generate", "model.forward.nograd", "model.pixel_path",
                      "tensor.conv3x3.fwd", "decoder.block.s32", "decoder.block.s16",
                      "decoder.block.s8", "metrics.evaluate_model", "metrics.merge_masks",
                      "metrics.pq_update", "checkpoint.save", "checkpoint.load")

    def run(self, seed, seconds, run):
        from kmaxseg import Config, checkpoint, data, metrics, model, training

        fixed = Config()
        fixed.train.steps = self.train_steps
        spec = dataclasses.replace(training.scene_spec_from_config(fixed), seed=seed)
        digests = set()
        OUT_DIR.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
            path = os.path.join(tmp, "model.ckpt")
            for _ in range(self.setups):
                with run.setup():
                    scenes = data.SyntheticDataset(spec, 0, self.scenes)
                    trained = training.train_loop(fixed)
                    checkpoint.save_checkpoint(path, trained.model)
                    restored = model.KMaxModel(fixed.model, seed=1)
                    checkpoint.load_checkpoint(path, restored)
                run.attempted += self.train_steps + 1
                check_rows(trained, self.train_steps, run, "fixed-seed train_loop")
                digests.add(rows_digest(trained.rows))
                saved = trained.model.named_parameters()
                if any(a.data.tobytes() != b.data.tobytes()
                       for (_, a, _), (_, b, _) in zip(saved, restored.named_parameters())):
                    run.fail(1, "checkpoint round trip changed a parameter")
        if len(digests) != 1:
            run.fail(1, f"fixed-seed train_loop gave {len(digests)} different row digests")
        run.notes.update(rows_sha256=rows_digest(trained.rows),
                         final_loss=float(trained.rows[-1].split(",")[1]),
                         final_val_pq=trained.final_val_pq)

        infer, table = fixed.infer, scenes.class_table
        reference = metrics.evaluate_model(restored, scenes.val, infer, table)  # warm-up
        run.notes["eval_pq"] = reference["pq"]
        run.notes["eval_miou"] = reference["miou"]
        examples = _Scenes(scenes.val, run)
        started = time.perf_counter()
        calls = 0
        # at least two passes, so a traced run traces at least one
        while calls < 2 or time.perf_counter() - started < seconds:
            traced = calls % 2 == 1   # whole calls, so each call span is complete
            call_start = run.begin_call(lambda i: traced)
            run.trace(traced, CALL)
            run.attempted += self.scenes
            try:
                result = metrics.evaluate_model(restored, examples, infer, table)
            except Exception:
                run.end_call(call_start)
                run.fail(self.scenes, traceback.format_exc())
                break
            run.end_call(call_start)
            scores = [result[k] for k in ("pq", "pq_things", "pq_stuff", "miou")]
            if not all(0.0 <= v <= 1.0 for v in scores) or scores != [
                    reference[k] for k in ("pq", "pq_things", "pq_stuff", "miou")]:
                run.fail(self.scenes, f"eval call {calls}: scores {scores} out of "
                                      f"[0, 1] or unlike the warm-up pass")
            calls += 1
        run.notes["evaluate_model_calls"] = calls
        return sum(run.traced)   # eval call spans are amortized over traced images


WORKLOADS = {
    # the default config: every layer runs, backward ~35% and AdamW ~24% of a step
    "train": TrainWorkload(),
    # inference only: no tape, backward or optimizer; merge + PQ ~1/3 of an image
    "eval": EvalWorkload(),
    # 4x the pixels for 10% more parameters; the stride-4 working set leaves L2
    "train_hires": TrainWorkload(image_size=128),
}
# the workloads BENCHMARK.json lists; train_hires is run by hand, because a
# third gated workload would shorten every run below what keeps them steady
GATED = ("train", "eval")


def end_to_end(run, import_s):
    return {
        "setup_s": (import_s + statistics.median(run.setup_s), "s"),
        "throughput_per_s": (len(run.unit_s) / run.wall, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }


LAYER_UNITS = {"tensor.conv3x3.calls": "count", "tensor.tape_nodes": "count",
               "training.adamw.bytes": "B", "checkpoint.bytes": "B",
               "decoder.kmeans.used_frac.s32": "frac", "decoder.kmeans.used_frac.s16": "frac",
               "decoder.kmeans.used_frac.s8": "frac", "trace.overhead_pct": "%"}


def per_layer(run, tracer, workload, amortize_units):
    traced = [i for i, on in enumerate(run.traced) if on]
    values = tracer.layer_metrics(traced, amortize_units)
    plain = [t for t, on in zip(run.unit_s, run.traced) if not on]
    on = [t for t, flag in zip(run.unit_s, run.traced) if flag]
    values["trace.overhead_pct"] = (
        100.0 * (statistics.median(on) / statistics.median(plain) - 1.0)
        if on and plain else 0.0)
    calls = tracer.calls()
    missing = [name for name in workload.expected_spans if calls[name] == 0]
    if missing:
        run.fail(1, f"traced run recorded no call of {missing}")
    run.notes["span_calls"] = calls
    return {name: (value, LAYER_UNITS.get(name, "ms")) for name, value in values.items()}


def measure(workload, seed, seconds, trace, import_s=0.0):
    """Run one workload; returns (run, {metric: (value, unit)}, tracer).

    The metrics are the end-to-end ones, or with ``trace`` the per-layer ones.
    """
    from spans import Tracer

    tracer = Tracer() if trace else None
    run = Run(tracer)
    with tracer.installed() if tracer else contextlib.nullcontext():
        amortize_units = workload.run(seed, seconds, run)
    if not run.unit_s:
        run.fail(1, "no unit completed")
        return run, {}, tracer
    if trace:
        return run, per_layer(run, tracer, workload, amortize_units), tracer
    return run, end_to_end(run, import_s), tracer


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        import_s = import_program()
    except ImportError as exc:
        print(f"cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))

    workload = WORKLOADS[args.workload]
    run, values, tracer = measure(workload, args.seed, args.seconds, args.trace, import_s)
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}
    for problem in run.problems:
        print(f"FAILED CHECK: {problem}", file=sys.stderr)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(run.unit_s)} {workload.unit}s in {run.wall:.2f} s, "
          f"set-ups {[round(s, 3) for s in run.setup_s]} s, import {import_s:.3f} s")
    if not args.trace and run.unit_s:
        print(f"{workload.throughput_name} {len(run.unit_s) / run.wall:.4f} "
              f"{workload.throughput_unit}")
        if len(run.unit_s) > 1:
            p10, *_, p90 = statistics.quantiles(run.unit_s, n=10)
            print(f"{workload.unit} time p10 {1e3 * p10:.3f} ms, p50 "
                  f"{1e3 * statistics.median(run.unit_s):.3f} ms, p90 {1e3 * p90:.3f} ms "
                  f"over {len(run.unit_s)} {workload.unit}s")
    for name, (value, unit) in values.items():
        print(f"{name} {value:.6g} {unit}")
    print("notes " + json.dumps(run.notes, sort_keys=True))

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"args": vars(args), "env": env, "import_s": import_s, "setup_s": run.setup_s,
              "unit_s": run.unit_s, "traced": run.traced, "notes": run.notes,
              "problems": run.problems, "metrics": metrics}
    (OUT_DIR / f"result-{stem}.json").write_text(json.dumps(record))
    if tracer is not None:
        (OUT_DIR / f"spans-{stem}.json").write_text(json.dumps(tracer.dump()))

    print(json.dumps({
        "correct": run.failed == 0 and not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
