"""Smoke tests of the benchmark at tiny sizes.

They run in-process, so they also check that the tracer restores every
function it wrapped.
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import bench  # noqa: E402

bench.import_program()

import kmaxseg  # noqa: E402
from kmaxseg import checkpoint, data, metrics, model, tensor, training  # noqa: E402

BENCHMARK = json.loads((bench.ROOT / "BENCHMARK.json").read_text())

TINY = {
    "train": dataclasses.replace(bench.WORKLOADS["train"], steps=6, train_size=6,
                                 val_size=2, warmup_steps=1, setups=1),
    "eval": dataclasses.replace(bench.WORKLOADS["eval"], scenes=2, train_steps=3, setups=2),
    "train_hires": dataclasses.replace(bench.WORKLOADS["train_hires"], steps=6, train_size=4,
                                       val_size=2, warmup_steps=1, setups=1),
}


def _originals():
    return [checkpoint.save_checkpoint, checkpoint.load_checkpoint, data.generate,
            metrics.evaluate_model, metrics.merge_masks, metrics.PQStat.__dict__["update"],
            model.conv3x3, model.KMaxModel.__dict__["forward"],
            model.KMaxModel.__dict__["pixel_path"],
            kmaxseg.decoder.KMaxDecoderBlock.__dict__["forward"],
            training.matching_cost, training.hungarian_match, training.total_loss,
            training.AdamW.__dict__["step"], tensor.Tensor.__dict__["backward"],
            tensor.GradTape.__dict__["from_output"].__func__]


def test_workloads_match_benchmark_json():
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(bench.GATED)
    assert set(bench.GATED) < set(bench.WORKLOADS)


@pytest.mark.parametrize("name", sorted(TINY))
def test_untraced_run_reports_every_end_to_end_metric(name):
    run, values, _ = bench.measure(TINY[name], seed=3, seconds=0.01, trace=False)
    assert run.failed == 0 and not run.problems, run.problems
    assert run.attempted >= len(run.unit_s) >= 1
    assert {k: u for k, (_, u) in values.items()} == {
        m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert all(value > 0 for value, _ in values.values())


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_reports_every_layer_and_restores_the_program(name):
    before = _originals()
    run, layers, tracer = bench.measure(TINY[name], seed=3, seconds=0.01, trace=True)
    assert _originals() == before
    assert run.failed == 0 and not run.problems, run.problems
    assert {k: u for k, (_, u) in layers.items()} == {
        m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    calls = tracer.calls()
    assert all(calls[span] > 0 for span in TINY[name].expected_spans)
    assert layers["tensor.conv3x3.calls"][0] == 8
    if name != "eval":
        assert layers["tensor.backward_ms"][0] > 0 and layers["training.adamw_ms"][0] > 0
        assert layers["tensor.tape_nodes"][0] > 0
    else:
        assert layers["checkpoint.bytes"][0] > 0 and layers["tensor.backward_ms"][0] == 0


def test_tracing_leaves_train_loop_rows_unchanged():
    plain, _, _ = bench.measure(TINY["train"], seed=5, seconds=0.01, trace=False)
    traced, _, _ = bench.measure(TINY["train"], seed=5, seconds=0.01, trace=True)
    assert sum(traced.traced) > 0
    assert plain.notes["rows_sha256"] == traced.notes["rows_sha256"]


def test_missing_span_fails_the_traced_run():
    class ExpectsAdamW(bench.EvalWorkload):
        expected_spans = bench.EvalWorkload.expected_spans + ("training.adamw",)

    workload = ExpectsAdamW(scenes=2, train_steps=3, setups=1)
    run, _, _ = bench.measure(workload, seed=3, seconds=0.01, trace=True)
    assert run.failed >= 1 and any("training.adamw" in p for p in run.problems)
