"""Alternating perfbench pairs on two checkouts, summarised for a BENCH_*.json.

    python3 scripts/bench_pairs.py PARENT CHANGE --seeds 1-10 --seconds 12 \\
        [--workloads verify-symbolic,verify-grid,fibers] --out BENCH_name.json

A pair runs perfbench/run.py --trace 0 once in each checkout, with the same
seed and the same --seconds, and with no bytecode cache
(PYTHONDONTWRITEBYTECODE=1): the parent first on odd seeds, the change first
on even ones.  The workloads are interleaved seed by seed.  For each
workload the output keeps every pair's end-to-end metrics and, for each
metric that BENCHMARK.json declares, the median and inclusive quartiles of
each side and change_wins, the number of pairs in which the change reads
strictly better.  Under "checkouts" it names the two trees it compared:
each side's resolved path, its git HEAD and whether its work tree differs
from HEAD, as read when the run starts (both null outside a git tree).  The
file is rewritten after every pair, so a run that is stopped keeps the
pairs it finished.  The script runs perfbench only as a
subprocess of each checkout and changes nothing in either.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def quartiles(values) -> dict:
    """The median and the inclusive quartiles of the values; one value is all three."""
    values = list(values)
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summary(pairs, better: dict) -> dict:
    """{metric: {"parent", "change", "change_wins", "pairs"}} over the pairs.

    Each pair is {"parent": {metric: value}, "change": {metric: value}};
    better maps each metric to "higher" or "lower".  A tie is no win.
    """
    out = {}
    for metric, direction in better.items():
        parent, change = ([pair[side][metric] for pair in pairs] for side in SIDES)
        sign = 1 if direction == "higher" else -1
        out[metric] = {
            "parent": quartiles(parent),
            "change": quartiles(change),
            "change_wins": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
            "pairs": len(pairs),
        }
    return out


def parse_seeds(text: str) -> list:
    """"1-10" or "1,3,11-12" as a list of ints."""
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds += range(int(first), int(last or first) + 1)
    return seeds


def checkout_info(checkout: Path) -> dict:
    """{"path", "head", "dirty"}: the resolved path, git rev-parse HEAD, and whether git status lists a change.

    head and dirty are None when the checkout lies in no git tree.
    """
    def git(*args):
        done = subprocess.run(["git", *args], cwd=checkout, capture_output=True, text=True)
        return done.stdout.strip() if done.returncode == 0 else None

    path, head = checkout.resolve(), git("rev-parse", "HEAD")
    dirty = None if head is None else bool(git("status", "--porcelain"))
    return {"path": str(path), "head": head, "dirty": dirty}


def run_perfbench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The JSON result line of one perfbench run in the checkout."""
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(command, cwd=checkout, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"perfbench failed in {checkout} ({workload}, seed {seed}):\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--seeds", type=parse_seeds, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--workloads", default="verify-symbolic,verify-grid,fibers")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {metric["name"]: metric["better"] for metric in benchmark["end_to_end"]}
    runs = {
        workload: {"pairs": [], "failed_ops": dict.fromkeys(SIDES, 0), "correct_against_pins": True}
        for workload in args.workloads.split(",")
    }
    out = {
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds:g} --trace 0",
        "method": (
            "parent/change pairs, same seed and --seconds within a pair, no bytecode cache; parent first for odd "
            "seeds, change first for even seeds; the workloads interleaved seed by seed; median and inclusive "
            "quartiles over pairs; change_wins counts the pairs where the change reads strictly better"
        ),
        "checkouts": {side: checkout_info(path) for side, path in checkouts.items()},
        "workloads": {},
    }
    for seed in args.seeds:
        for workload, record in runs.items():
            pair = {"seed": seed}
            for side in SIDES if seed % 2 else SIDES[::-1]:
                result = run_perfbench(checkouts[side], workload, seed, args.seconds)
                pair[side] = {name: round(m["value"], 5) for name, m in result["metrics"].items()}
                record["failed_ops"][side] += result["failed"]
                record["correct_against_pins"] &= result["correct"]
            record["pairs"].append(pair)
            print(
                f"{workload} seed {seed}: ops_per_s {pair['parent']['ops_per_s']} -> {pair['change']['ops_per_s']}",
                file=sys.stderr,
            )
            out["workloads"][workload] = {"summary": summary(record["pairs"], better), **record}
            args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
