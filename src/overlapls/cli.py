"""Command-line front end: compute, enumerate, render, verify.

Exit codes: 0 success, 1 verification failure, 2 usage error.  main maps a
UsageError, and every ValueError the library raises on rejected input
outside verify, to exit 2, in one place.  All output is deterministic for a
fixed set of flags and seed.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import sys

from . import identities, render, report
from .overlap import (
    enumerate_overlap_pairs,
    enumerate_subpartition_pairs,
    infinite_overlap_witness,
    overlap,
)
from .partitions import Partition
from .walks import StaircaseWalk, enumerate_walks

USAGE_ERROR = 2


class UsageError(Exception):
    pass


def parse_partition(text: str) -> Partition:
    """Comma-separated descending integers; empty string is the empty partition.

    Increasing input is rejected rather than silently sorted: a caller that
    got the order wrong probably also got a sign wrong somewhere.
    """
    text = (text or "").strip()
    if text in ("", "-"):
        return Partition()
    try:
        parts = tuple(int(p) for p in text.split(","))
    except ValueError as e:
        raise UsageError(f"malformed partition {text!r}: {e}") from None
    return Partition(parts)


@contextlib.contextmanager
def _output(args):
    """The --out file, opened for writing, or stdout."""
    if getattr(args, "out", None):
        try:
            fh = open(args.out, "w", encoding="utf-8")
        except OSError as e:
            raise UsageError(f"cannot write --out {args.out}: {e.strerror}") from None
        with fh:
            yield fh
    else:
        yield sys.stdout


def _emit(args, text: str):
    with _output(args) as fh:
        fh.write(text)
        if not text.endswith("\n"):
            fh.write("\n")


def cmd_overlap(args) -> int:
    mu = parse_partition(args.mu)
    nu = parse_partition(args.nu)
    result = overlap(mu, nu, args.m, args.n)
    payload = result.to_json()
    if result.is_infinite and args.infinite_witness:
        pi, alpha = infinite_overlap_witness(mu, nu, args.m, args.n)
        payload["witness"] = {"walk": pi.to_json(), "labels": list(alpha)}
    _emit(args, json.dumps(payload))
    return 0


def _enumeration(args):
    """JSON lines of the requested enumeration, produced one at a time."""
    if args.what == "pairs":
        lam = parse_partition(args.lam)
        for mu, nu, sign in enumerate_overlap_pairs(lam, args.m, args.n):
            yield json.dumps({"mu": mu.to_json(), "nu": nu.to_json(), "sign": sign})
    elif args.what == "walks":
        for pi in enumerate_walks(args.n, args.m):
            yield json.dumps({"walk": pi.to_json()})
    else:
        kappa = parse_partition(args.kappa)
        if args.l is None:
            raise UsageError("subpairs needs --l")
        for lam, K in enumerate_subpartition_pairs(kappa, args.m, args.n, args.l):
            yield json.dumps({"lambda": lam.to_json(), "K": list(K)})


def cmd_enumerate(args) -> int:
    lines = _enumeration(args)
    # Rejected input raises before the first line, so it leaves --out untouched.
    first = next(lines, None)
    count = 0
    with _output(args) as fh:
        for line in itertools.chain(() if first is None else (first,), lines):
            fh.write(line + "\n")
            count += 1
    print(f"{count} items", file=sys.stderr)
    return 0


def cmd_render(args) -> int:
    if args.what == "partition":
        lam = parse_partition(args.value)
        text = render.ferrers_svg(lam) if args.format == "svg" else render.ferrers_ascii(lam)
    else:
        pi = StaircaseWalk(args.value)
        labels = None
        if args.labels:
            lam = parse_partition(args.labels)
            try:
                labels = lam.padded(len(pi))
            except ValueError:
                raise UsageError(f"{lam.length} labels for a walk of {len(pi)} steps") from None
        if args.format == "svg":
            text = render.walk_svg(pi, labels)
        else:
            text = render.walk_ascii(pi, labels)
    _emit(args, text)
    return 0


def _env_seed() -> int:
    text = os.environ.get("OVERLAP_LS_SEED", "0")
    try:
        return int(text)
    except ValueError:
        raise UsageError(f"OVERLAP_LS_SEED must be an integer, not {text!r}") from None


def cmd_verify(args) -> int:
    if args.name != "all" and args.name not in identities.CATALOG:
        raise UsageError(f"unknown verifier {args.name!r}")
    names = None if args.name == "all" else [args.name]
    seed = _env_seed() if args.seed is None else args.seed
    if args.max_box < 0 or args.vars < 0:
        raise UsageError("--max-box and --vars must be non-negative")
    if args.vars > identities.MAX_VARS:
        raise UsageError(f"--vars {args.vars} exceeds the budget of {identities.MAX_VARS}")
    reports = identities.run_catalog(
        names, max_box=args.max_box, nvars=args.vars, mode=args.mode, seed=seed,
    )
    if not reports:
        raise UsageError(
            f"{args.name} ran no checks at --max-box {args.max_box} --vars {args.vars}"
        )
    encode = json.JSONEncoder(sort_keys=True).encode
    lines = [encode(r.to_json()) for r in reports]
    _emit(args, "\n".join(lines) + ("\n" if lines else ""))
    failed = sum(1 for r in reports if r.failed)
    summary = f"{len(reports)} checks, {failed} failed"
    print(summary, file=sys.stderr)
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="overlapls",
        description="Exact computations with partition overlap, staircase walks, "
        "Schur and Littlewood-Schur functions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("overlap", help="overlap of two partitions with its sign")
    p.add_argument("--mu", default="", help="first partition, e.g. 9,6,1")
    p.add_argument("--nu", default="", help="second partition")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--infinite-witness", action="store_true", dest="infinite_witness",
                   help="attach a labeled-walk witness when the overlap is infinite")
    p.add_argument("--out", default=None, help="write output to a file")
    p.set_defaults(func=cmd_overlap)

    p = sub.add_parser("enumerate", help="stream fibers, walks or marked pairs as JSON lines")
    p.add_argument("what", choices=["pairs", "walks", "subpairs"])
    p.add_argument("--lam", "--lambda", default="", dest="lam", help="target partition for pairs")
    p.add_argument("--kappa", default="", help="target partition for subpairs")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("render", help="draw a Ferrers diagram or a labeled walk")
    p.add_argument("what", choices=["partition", "walk"])
    p.add_argument("value", help="partition as 7,4,2,2 or walk word as HVVHHHVHH")
    p.add_argument("--labels", default=None, help="label partition for walk steps")
    p.add_argument("--format", choices=["ascii", "svg"], default="ascii")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("verify", help="run one named verifier sweep or the whole catalog")
    p.add_argument("name", help="verifier name or 'all'")
    p.add_argument("--max-box", type=int, default=2, dest="max_box",
                   help="partitions range over a box of this side")
    p.add_argument("--vars", type=int, default=2, help="variable count cap")
    p.add_argument("--mode", choices=report.MODES, default=report.MODES[0])
    p.add_argument("--seed", type=int, default=None,
                   help="seed for sampled checks (falls back to OVERLAP_LS_SEED)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return USAGE_ERROR if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except (UsageError, ValueError) as e:
        # verify checks its flags itself, so a ValueError from inside a
        # verifier is a defect and keeps its traceback.
        if not isinstance(e, UsageError) and args.command == "verify":
            raise
        print(f"error: {e}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
