"""Every function the benchmark's ``--trace 1`` wraps still exists by name."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_trace_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    run = importlib.import_module("run")
    targets = run.trace_targets()
    assert targets
    for name, owner, attr, _ in targets:
        assert owner.__dict__[attr] is not None, name
