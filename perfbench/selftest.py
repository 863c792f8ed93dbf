"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

For every workload, at a tiny size and untraced and traced, it checks that
run.py prints every metric BENCHMARK.json names, each with its unit, and
that all checks pass.  It then corrupts the pinned digest and checks that the
run reports every op as failed instead of crashing, and that a copy of the
benchmark without the program exits non-zero without a result.  Exit status
0 means all of that held; each failure is printed.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys

import run

TINY = {
    "verify-symbolic": {
        "kind": "verify",
        "argv": ["verify", "all", "--max-box", "1", "--vars", "1", "--mode", "symbolic"],
    },
    "verify-grid": {
        "kind": "verify",
        "argv": ["verify", "all", "--max-box", "1", "--vars", "1", "--mode", "grid"],
    },
    "fibers": {"kind": "fibers", "walk": [2, 2], "scan": [2, 1], "subpairs": [1, 1]},
}


def run_cli(name: str, trace: int, pins: dict):
    """Exit status and printed result of run.py on a tiny workload."""
    run.load_pins = lambda: pins
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run.main(["--workload", name, "--seed", "3", "--seconds", "0.1", "--trace", str(trace)])
    lines = out.getvalue().splitlines()
    return code, json.loads(lines[-1]) if lines else None


def check_bare_copy(failures: list):
    """Only BENCHMARK.json and perfbench/: exit non-zero, print no result."""
    bare = run.ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "fibers", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        failures.append(f"bare copy: exit {proc.returncode}, stdout {proc.stdout!r}")


def main() -> int:
    run.WORKLOADS.update(TINY)
    failures = []
    for name, spec in TINY.items():
        pins = {name: run.make_pin(name, spec)}
        for trace in (0, 1):
            code, result = run_cli(name, trace, pins)
            units = run.declared_units(bool(trace))
            if code != 0 or result is None:
                failures.append(f"{name} trace={trace}: exit {code}, no result")
                continue
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            if got != units:
                failures.append(f"{name} trace={trace}: metrics and units {got} != {units}")
            if not all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()):
                failures.append(f"{name} trace={trace}: a metric value is not a number")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                failures.append(f"{name} trace={trace}: checks failed on correct code: {result}")
        corrupt = {name: dict(pins[name], digest="0" * 64)}
        code, result = run_cli(name, 0, corrupt)
        if code != 0 or result is None:
            failures.append(f"{name}: a corrupted digest crashed the run (exit {code})")
        elif result["correct"] or result["failed"] != result["attempted"] or not result["failed"]:
            failures.append(f"{name}: a corrupted digest was not reported as failed ops: {result}")
    check_bare_copy(failures)
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
