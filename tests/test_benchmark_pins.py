"""The workloads of perfbench/ produce what perfbench/pins.json pins.

The benchmark rejects a pass whose output digest differs from its pin; this
runs the same work in process with the pinning seed, so a change of output
fails here too: the verify workloads through the CLI, the fibers workload
through perfbench/worker.py's own instances and summaries.  The perfbench
files are only read, and no bytecode is written next to them.
"""

import ast
import contextlib
import hashlib
import importlib.util
import io
import json
import re
import sys
from pathlib import Path

import pytest

from overlapls import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEED = 0  # the seed perfbench/run.py pins with


def _workloads() -> dict:
    """The WORKLOADS literal of perfbench/run.py."""
    tree = ast.parse((PERFBENCH / "run.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["WORKLOADS"]:
            return ast.literal_eval(node.value)
    raise LookupError("perfbench/run.py defines no WORKLOADS")


@pytest.mark.parametrize("name", ["verify-symbolic", "verify-grid"])
def test_verify_stdout_matches_pin(name):
    pin = json.loads((PERFBENCH / "pins.json").read_text(encoding="utf-8"))[name]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(_workloads()[name]["argv"] + ["--seed", str(SEED)])
    assert rc == 0
    # the laplace checks print the seed; perfbench/worker.verify_pass digests it as a placeholder
    text = re.sub(rf'"seed": {SEED}(?=[,}}])', '"seed": "<seed>"', out.getvalue())
    assert len(text.splitlines()) == pin["ops"]
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == pin["digest"]


def _load(name: str):
    """perfbench/<name>.py as a module, imported by path."""
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fibers_match_pin(monkeypatch):
    pin = json.loads((PERFBENCH / "pins.json").read_text(encoding="utf-8"))["fibers"]
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.setitem(sys.modules, "tracer", _load("tracer"))  # worker.py imports it by this name
    worker = _load("worker")
    instances = worker.fiber_instances(_workloads()["fibers"], SEED)
    result = worker.fibers_pass(instances, worker.HostSpeed(enabled=False))
    assert (result["not_passed"], result["error"]) == (0, None)
    assert (result["ops"], result["counts"]) == (pin["ops"], pin["counts"])
    assert result["digest"] == pin["digest"]
