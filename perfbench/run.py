"""Benchmark of overlapls, outside in: the CLI and the public API only.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  Passes run one after another, each in a
fresh interpreter (perfbench/worker.py) so that the module-level caches start
empty as they do for a CLI user: a closed loop with one client, single
process, single thread.  Passes repeat while the next one would still end
within --seconds; one pass (a pair, traced) always runs.

--trace 0 prints the end-to-end metrics, with their times corrected for the
host's speed by a reference task timed between ops (worker.HostSpeed); the
uncorrected medians go to stderr.  --trace 1 runs untraced and traced
passes in turn and prints the per-layer metrics of the traced ones, with the
tracing overhead as traced minus untraced wall time.

Every pass is checked: an op fails when its check does not pass, and every op
of a pass fails when the pass exits non-zero or its per-identity counts or
output digest differ from perfbench/pins.json.  The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.

Exit status: 0 when that line is printed, 2 on a usage error or when the
checkout has no overlapls to measure, 3 when a pass cannot be run in time.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import NOMINAL_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Sizes: verify-symbolic is the catalog at the size where 6-variable alphabets
# appear; verify-grid runs the same verifiers through evaluation; fibers drives
# the combinatorics alone.  See perfbench/README.md for why each was chosen.
WORKLOADS = {
    "verify-symbolic": {
        "kind": "verify",
        "argv": ["verify", "all", "--max-box", "3", "--vars", "3", "--mode", "symbolic"],
    },
    "verify-grid": {
        "kind": "verify",
        "argv": ["verify", "all", "--max-box", "3", "--vars", "2", "--mode", "grid"],
    },
    # walk: [box side, max m and n]; scan: the same; subpairs: [max m and n, max l]
    "fibers": {"kind": "fibers", "walk": [5, 4], "scan": [4, 3], "subpairs": [3, 2]},
}

BUDGET_S = 170  # a run ends within 180 s, whatever --seconds asks
# Set-up-only processes of an untraced run, at its start and after each pass,
# so that the set-up samples spread over the whole run; each pass adds one more.
SETUP_RUNS = 3


class BenchError(Exception):
    """A pass could not be run; the run prints no result."""


def declared_units(trace: bool) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them for this kind of run."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def load_pins() -> dict:
    with open(HERE / "pins.json", encoding="utf-8") as fh:
        return json.load(fh)


def run_worker(request: dict, deadline: float) -> dict:
    # One hash layout for every pass, so that the seed changes only the inputs.
    env = dict(os.environ, PYTHONHASHSEED="0")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("the run budget ran out before a pass could start")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(request)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=remaining,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"a {request['mode']} pass did not end within {BUDGET_S} s") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker exited with {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])


def judge(result: dict, pin: dict, problems: list) -> tuple:
    """(attempted, failed) ops of one pass, checked against its pin."""
    attempted = max(pin["ops"], result["ops"])
    wrong = []
    if result["rc"] != 0:
        wrong.append(f"exit status {result['rc']} ({result['error']})")
    if result["counts"] != pin["counts"]:
        wrong.append(f"check counts {result['counts']} differ from the pinned {pin['counts']}")
    if result["digest"] != pin["digest"]:
        wrong.append("output digest differs from the pinned one")
    if wrong:
        problems.extend(wrong)
        return attempted, attempted
    if result["not_passed"]:
        problems.append(f"{result['not_passed']} checks did not pass ({result['error']})")
    return attempted, result["not_passed"]


def percentile(sorted_values: list, q: int) -> float:
    if len(sorted_values) < 2:
        return sorted_values[0] if sorted_values else 0.0
    return statistics.quantiles(sorted_values, n=100, method="inclusive")[q - 1]


def measure(name: str, spec: dict, pin: dict, seed: int, seconds: float, trace: bool):
    """Run the passes of one workload; return (result object, notes for stderr)."""
    deadline = time.monotonic() + BUDGET_S
    base = {"workload": name, "spec": spec, "seed": seed}
    setups, passes, traced = [], [], []

    def sample_setups():
        if not trace:
            for _ in range(SETUP_RUNS):
                setups.append(run_worker({**base, "mode": "setup"}, deadline))

    sample_setups()
    start = time.monotonic()
    while True:
        began = time.monotonic()
        passes.append(run_worker({**base, "mode": "time"}, deadline))
        if trace:
            traced.append(run_worker({**base, "mode": "trace"}, deadline))
        sample_setups()
        took = time.monotonic() - began
        if time.monotonic() - start + took > seconds:
            break

    problems = []
    attempted = failed = 0
    for result in passes + traced:
        a, f = judge(result, pin, problems)
        attempted += a
        failed += f
    consistent = True
    notes = [f"{name}: {len(passes)} untraced and {len(traced)} traced passes, seed {seed}"]
    if trace:
        # A traced pass whose output differs also differs from the pin, so its
        # ops were counted as failed above.
        if any(t["digest"] != passes[0]["digest"] for t in traced):
            problems.append("a traced pass printed other output than the untraced one")
        layers = [t["layers"] for t in traced]
        counts = {k: v for k, v in layers[0].items() if not k.endswith("self_s")}
        if any({k: l[k] for k in counts} != counts for l in layers[1:]):
            consistent = False
            problems.append("counts differ between traced passes of one seed")
        metrics = {
            k: statistics.median(l[k] for l in layers) if k.endswith("self_s") else v
            for k, v in layers[0].items()
        }
        metrics["trace.overhead_s"] = statistics.median(t["wall_s"] for t in traced) - (
            statistics.median(p["wall_s"] for p in passes)
        )
    else:
        samples = sorted(s for p in passes for s in p["ref_samples_ms"])
        raw = sorted(s for p in passes for s in p["samples_ms"])
        setups += passes
        notes.append(f"{len(samples)} op samples, {len(setups)} set-up samples")
        notes.append(
            "uncorrected: ops_per_s %.4g, op_p50_ms %.4g, op_p99_ms %.4g, setup_s %.4g; "
            "reference task %.4g ms (corrected to %g ms)" % (
                statistics.median(p["ops"] / p["wall_s"] for p in passes),
                percentile(raw, 50),
                percentile(raw, 99),
                statistics.median(s["setup_s"] for s in setups),
                statistics.median(p["reference_ms"] for p in passes),
                NOMINAL_S * 1000,
            )
        )
        metrics = {
            "setup_s": statistics.median(s["ref_setup_s"] for s in setups),
            "ops_per_s": statistics.median(p["ops"] / p["ref_wall_s"] for p in passes),
            "op_p50_ms": percentile(samples, 50),
            "op_p99_ms": percentile(samples, 99),
            "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
            "ok_ratio": 1 - failed / attempted,
        }
    units = declared_units(trace)
    if set(metrics) != set(units):
        raise BenchError(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    notes += problems
    result = {
        "correct": failed == 0 and consistent,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    return result, notes


def make_pin(name: str, spec: dict) -> dict:
    """Pin the op count, per-identity counts and digest of one clean pass."""
    request = {"workload": name, "spec": spec, "seed": 0, "mode": "time"}
    result = run_worker(request, time.monotonic() + BUDGET_S)
    if result["rc"] != 0 or result["not_passed"]:
        raise BenchError(f"{name}: refusing to pin a pass with failed checks: {result['error']}")
    return {"ops": result["ops"], "counts": result["counts"], "digest": result["digest"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "overlapls" / "cli.py").is_file():
        print(f"perfbench: no overlapls under {ROOT / 'src'}; nothing to measure", file=sys.stderr)
        return 2
    try:
        pin = load_pins()[args.workload]
        result, notes = measure(
            args.workload, WORKLOADS[args.workload], pin, args.seed, args.seconds, bool(args.trace)
        )
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    for note in notes:
        print(note, file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
