"""Smoke test of ``tools/trace_digest.py``, the fingerprint a bitwise-neutral
refactor is checked with: it must run on the current package."""

import importlib.util
import re
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "trace_digest.py"


def test_trace_digest_prints_every_field():
    spec = importlib.util.spec_from_file_location("trace_digest", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    line = module.digest({})
    sha = "[0-9a-f]{64}"
    assert re.fullmatch(rf"rows {sha} params {sha} \(\d+ tensors\) labels {sha} "
                        rf"logits {sha} pq \S+ miou \S+ nodes \d+", line), line
