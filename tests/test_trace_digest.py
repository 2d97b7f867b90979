"""Tests of ``tools/trace_digest.py``, the fingerprint a bitwise-neutral
refactor is checked with: it must run on the current package, and
``--against REV`` must compare it with REV's own copy."""

import importlib.util
import re
import subprocess
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


def _stub_digests(monkeypatch):
    """This checkout's lines, with ``digest`` stubbed so that nothing trains."""
    monkeypatch.setattr(trace_digest, "digest", lambda overrides: f"stub {overrides}")
    return [f"{name:16s} stub {overrides}" for name, overrides in trace_digest.VARIANTS.items()]


def test_default_run_prints_one_line_per_variant(monkeypatch, capsys):
    ours = _stub_digests(monkeypatch)
    assert trace_digest.main([]) == 0
    assert capsys.readouterr().out == "".join(f"{line}\n" for line in ours)


@pytest.mark.parametrize("edit,verdict", [
    (lambda lines: lines, "every line is equal"),
    (lambda lines: [lines[0], lines[1] + "0", *lines[2:]], "lines 2 differ"),
    (lambda lines: lines[:-1], "lines 4 differ"),
])
def test_against_prints_both_outputs_and_exits_1_if_a_line_differs(tmp_path, monkeypatch,
                                                                  capsys, edit, verdict):
    # REV's copy of the script is a stub in a one-commit repository, so the
    # export, its run and the comparison are all exercised without training
    ours = _stub_digests(monkeypatch)
    theirs = edit(ours)
    (tmp_path / "tools").mkdir()
    (tmp_path / "tools" / "trace_digest.py").write_text(f"print({chr(10).join(theirs)!r})\n")
    git = ["git", "-C", str(tmp_path), "-c", "user.name=t", "-c", "user.email=t@example.com",
           "-c", "commit.gpgsign=false"]
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-qm", "stub"]):
        subprocess.run(git + args, check=True)
    monkeypatch.setattr(trace_digest, "ROOT", tmp_path)
    status = trace_digest.main(["--against", "HEAD"])
    assert status == (0 if theirs == ours else 1)
    assert capsys.readouterr().out == "".join(
        f"{line}\n" for line in ["== HEAD", *theirs, "== this checkout", *ours, f"== {verdict}"])
