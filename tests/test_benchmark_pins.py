"""The verify workloads of perfbench/ print what perfbench/pins.json pins.

The benchmark rejects a pass whose stdout digest differs from its pin; this
runs the same argv in process with the pinning seed, so a stdout change
fails here too.  The perfbench files are only read.
"""

import ast
import contextlib
import hashlib
import io
import json
import re
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
