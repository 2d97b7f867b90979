"""Smoke test of ``tools/trace_digest.py``, the fingerprint a bitwise-neutral
refactor is checked with: it must run on the current package."""

import importlib.util
import re
from pathlib import Path

import pytest

from kmaxseg.config import Config

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "trace_digest.py"
_spec = importlib.util.spec_from_file_location("trace_digest", SCRIPT)
trace_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(trace_digest)


def test_trace_digest_prints_every_field():
    line = trace_digest.digest({})
    sha = "[0-9a-f]{64}"
    assert re.fullmatch(rf"rows {sha} params {sha} \(\d+ tensors\) labels {sha} "
                        rf"logits {sha} logits32 {sha} pq \S+ miou \S+ nodes \d+", line), line


@pytest.mark.parametrize("name", trace_digest.VARIANTS)
def test_every_variant_sets_valid_model_fields(name):
    # a variant naming a removed field would only fail in a full digest run
    cfg = Config()
    for key, value in trace_digest.VARIANTS[name].items():
        setattr(cfg.model, key, value)
    cfg.validate()
