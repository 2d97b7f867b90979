"""In-memory span tracer that wraps kmaxseg's public functions from outside.

``Tracer.installed()`` patches the module attributes and methods the
program resolves at call time, records one span per call (name, start, end,
parent, unit) while ``enabled`` is set, and restores every original on exit.
No file of the program changes, and a disabled tracer costs one attribute
check per wrapped call.

Spans are grouped into units (one train step or one eval image) by the
``unit`` the benchmark sets before each unit starts. Spans recorded with
``unit`` None belong to set-up, and a negative unit marks the measured phase
outside any unit.
"""

from __future__ import annotations

import contextlib
import functools
import os
import statistics
import time

import numpy as np

NAME, START, END, PARENT, UNIT = range(5)

# every span name the tracer can record
SPAN_NAMES = (
    "data.generate",
    "model.forward",
    "model.forward.nograd",
    "model.pixel_path",
    "tensor.conv3x3.fwd",
    "tensor.conv3x3.bwd",
    "decoder.block.s32",
    "decoder.block.s16",
    "decoder.block.s8",
    "training.matching",
    "training.total_loss",
    "tensor.backward",
    "training.adamw",
    "metrics.evaluate_model",
    "metrics.merge_masks",
    "metrics.pq_update",
    "checkpoint.save",
    "checkpoint.load",
)

# spans that run once per call in set-up, reported as the median call
SETUP_SPANS = ("data.generate", "checkpoint.save", "checkpoint.load")


class Tracer:
    def __init__(self):
        self.spans = []    # [name, start, end, parent index, unit]
        self.counts = []   # (name, value, unit)
        self.enabled = False
        self.unit = None
        self._stack = []
        self._image_height = None

    # -- recording ---------------------------------------------------------------

    def _begin(self, name):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.unit])
        self._stack.append(index)
        return index

    def _end(self, index):
        self.spans[index][END] = time.perf_counter()
        self._stack.pop()

    def count(self, name, value):
        self.counts.append((name, value, self.unit))

    def _inside(self, name):
        return any(self.spans[i][NAME] == name for i in self._stack)

    def wrap(self, fn, name, after=None):
        """``fn`` recorded as span ``name`` (a string, ``f(args) -> str``, or
        None for no span).

        ``after(result, args)`` runs outside the span, so its bookkeeping is
        not charged to the layer.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if name is None:
                result = fn(*args, **kwargs)
            else:
                index = tracer._begin(name if isinstance(name, str) else name(args))
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._end(index)
            if after is not None:
                after(result, args)
            return result

        return traced

    # -- installation --------------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Patch the program's call sites for the duration of the block."""
        from kmaxseg import checkpoint, data, decoder, metrics, model, tensor, training

        def forward_name(args):
            self._image_height = np.shape(args[1])[0]
            return ("model.forward.nograd" if self._inside("metrics.evaluate_model")
                    else "model.forward")

        def block_name(args):
            return f"decoder.block.s{self._image_height // args[2].height}"

        def block_after(result, args):
            # share of queries that win at least one pixel of the hard
            # assignment, from the block's detached affinity logits (N, HW)
            affinity = result[1].affinity
            used = np.unique(affinity.argmax(axis=0)).size / affinity.shape[0]
            self.count(f"decoder.kmeans.used_frac.s{self._image_height // args[2].height}",
                       used)

        def conv_after(out, args):
            if out._backward is not None:
                out._backward = self.wrap(out._backward, "tensor.conv3x3.bwd")

        def tape_after(tape, args):
            if self._inside("tensor.backward"):
                self.count("tensor.tape_nodes", len(tape.nodes))

        def adamw_after(result, args):
            params = sum(p.data.size for p, _ in args[0].items)
            # reads p, g, m, v and writes m, v, p: seven float64 passes
            self.count("training.adamw.bytes", 7 * 8 * params)

        def save_after(result, args):
            self.count("checkpoint.bytes", os.path.getsize(args[0]))

        patches = [
            (data, "generate", "data.generate", None),
            (model.KMaxModel, "forward", forward_name, None),
            (model.KMaxModel, "pixel_path", "model.pixel_path", None),
            (model, "conv3x3", "tensor.conv3x3.fwd", conv_after),
            (decoder.KMaxDecoderBlock, "forward", block_name, block_after),
            (training, "matching_cost", "training.matching", None),
            (training, "hungarian_match", "training.matching", None),
            (training, "total_loss", "training.total_loss", None),
            (tensor.Tensor, "backward", "tensor.backward", None),
            (training.AdamW, "step", "training.adamw", adamw_after),
            (metrics, "evaluate_model", "metrics.evaluate_model", None),
            (metrics, "merge_masks", "metrics.merge_masks", None),
            (metrics.PQStat, "update", "metrics.pq_update", None),
            (checkpoint, "save_checkpoint", "checkpoint.save", save_after),
            (checkpoint, "load_checkpoint", "checkpoint.load", None),
        ]
        originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in patches]
        # GradTape.from_output is a staticmethod: unwrap, wrap, re-wrap
        from_output = tensor.GradTape.__dict__["from_output"]
        originals.append((tensor.GradTape, "from_output", from_output))
        try:
            for owner, attr, name, after in patches:
                setattr(owner, attr, self.wrap(owner.__dict__[attr], name, after))
            tensor.GradTape.from_output = staticmethod(
                self.wrap(from_output.__func__, None, tape_after))
            yield self
        finally:
            for owner, attr, original in originals:
                setattr(owner, attr, original)
            self.enabled = False

    # -- analysis --------------------------------------------------------------------

    def self_times(self):
        """Per-span (duration, self time) in seconds."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] is not None:
                child[s[PARENT]] += s[END] - s[START]
        return [(s[END] - s[START], s[END] - s[START] - c)
                for s, c in zip(self.spans, child)]

    def calls(self):
        """Calls per span name: set-up calls for set-up spans, measured calls
        for the rest."""
        out = dict.fromkeys(SPAN_NAMES, 0)
        for s in self.spans:
            if (s[UNIT] is None) == (s[NAME] in SETUP_SPANS):
                out[s[NAME]] += 1
        return out

    def layer_metrics(self, traced_units, amortize_units):
        """Per-layer metrics in ms per unit, plus counts.

        A span that runs in every traced unit is reported as the median over
        those units. One that runs in only some of them, or outside any unit
        (the periodic eval inside ``train_loop``, an ``evaluate_model`` pass),
        is summed and divided by ``amortize_units``. Set-up spans are
        reported as their median call.
        """
        times = self.self_times()
        per_unit = {}
        setup = {}
        for s, (total, own) in zip(self.spans, times):
            if s[NAME] in SETUP_SPANS and s[UNIT] is None:
                setup.setdefault(s[NAME], []).append((total, own))
            elif s[UNIT] is not None:
                unit = per_unit.setdefault(s[NAME], {})
                acc = unit.setdefault(s[UNIT], [0.0, 0.0, 0])
                acc[0] += total
                acc[1] += own
                acc[2] += 1
        out = {}
        for name in SPAN_NAMES:
            if name in SETUP_SPANS and name in setup:
                calls = setup[name]
                total = statistics.median(t for t, _ in calls)
                own = statistics.median(o for _, o in calls)
            elif name in per_unit and set(per_unit[name]) >= set(traced_units):
                total = statistics.median(per_unit[name][u][0] for u in traced_units)
                own = statistics.median(per_unit[name][u][1] for u in traced_units)
            elif name in per_unit:
                total = sum(v[0] for v in per_unit[name].values()) / amortize_units
                own = sum(v[1] for v in per_unit[name].values()) / amortize_units
            else:
                total = own = 0.0
            out[f"{name}_ms"] = 1e3 * total
            out[f"{name}.self_ms"] = 1e3 * own

        conv = per_unit.get("tensor.conv3x3.fwd", {})
        out["tensor.conv3x3.calls"] = statistics.median(
            conv.get(u, (0, 0, 0))[2] for u in traced_units) if traced_units else 0
        grouped = {}
        for name, value, unit in self.counts:
            # checkpoint bytes come from set-up, the other counts from units
            if (unit is None) == (name == "checkpoint.bytes"):
                grouped.setdefault(name, []).append(value)
        for name in ("tensor.tape_nodes", "training.adamw.bytes", "checkpoint.bytes",
                     "decoder.kmeans.used_frac.s32", "decoder.kmeans.used_frac.s16",
                     "decoder.kmeans.used_frac.s8"):
            values = grouped.get(name)
            out[name] = statistics.median(values) if values else 0
        return out

    def dump(self):
        return {"fields": ["name", "start", "end", "parent", "unit"], "spans": self.spans}
