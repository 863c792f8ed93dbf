"""One benchmark pass of overlapls, in the fresh interpreter it runs in.

    python3 perfbench/worker.py '<request as JSON>'

run.py starts one worker per pass, so the module-level caches of overlapls
start empty, as they do for a CLI user, and each pass reports its own set-up
time and peak RSS.  The request holds the workload spec, the seed and the
mode: "setup" only imports the CLI, "time" times every op, "trace" installs
the per-layer tracer.  The worker prints one JSON object on stdout and exits
with 2 when overlapls cannot be imported from the checkout.

Untraced passes also time a fixed reference task between ops (HostSpeed), and
report their times both raw and corrected for the host's speed.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import math
import random
import re
import resource
import statistics
import sys
import time
from pathlib import Path

from tracer import VERIFIERS, Tracer, patch, resolve

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def set_up():
    """Import the CLI and build its parser, timing both; the CLI user's set-up cost."""
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import overlapls.cli as cli

    cli.build_parser()
    took = time.perf_counter() - start
    if Path(cli.__file__).resolve().parents[1] != SRC:
        raise ImportError(f"overlapls came from {cli.__file__}, not from {SRC}")
    return cli, took


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- host speed ---------------------------------------------------------------
#
# A shared host's speed drifts by tens of percent within seconds, as other
# tenants load it.  A fixed reference task slows with it: dict updates keyed by
# exponent tuples, with big-int products, the kind of work the ring does.  It
# is timed between ops about every EVERY_S of a pass, and each stretch of the
# pass is scaled by NOMINAL_S over the median of the WINDOW reference times
# around it.  Corrected times are thus the times on a host on which the
# reference task takes NOMINAL_S.  The reference is the benchmark's own code:
# a change to overlapls cannot change it.

NOMINAL_S = 0.0005
EVERY_S = 0.02
WINDOW = 5
SETUP_REFERENCES = 9

_REF_A = [
    ((i, j, k), (i + 1) * (j + 2) * (k + 3) * 10**12 + i)
    for i in range(5)
    for j in range(5)
    for k in range(4)
]
_REF_B = _REF_A[:12]


def reference_task() -> dict:
    out = {}
    for ea, ca in _REF_A:
        for eb, cb in _REF_B:
            e = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
            out[e] = out.get(e, 0) + ca * cb
    return out


def time_reference() -> float:
    """Seconds the reference task takes now, with the collector held off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        reference_task()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class HostSpeed:
    """The op times of one pass, with the reference task timed between ops.

    A disabled one (traced passes) records nothing and never runs the task.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.ops = []  # (op seconds, index of the reference sample after it)
        self.ticks = []  # (pass seconds before it, reference task seconds)
        self.paused = 0.0  # seconds spent on the reference task

    def begin(self) -> float:
        """Start the pass; returns its start time."""
        self.start = time.perf_counter()
        self.due = self.start + EVERY_S
        return self.start

    def op(self, took: float):
        if self.enabled:
            self.ops.append((took, len(self.ticks)))

    def tick(self, force: bool = False):
        """Time the reference task if it is due; call only between ops."""
        now = time.perf_counter()
        if not self.enabled or (now < self.due and not force):
            return
        took = time_reference()
        self.ticks.append((now - self.start - self.paused, took))
        after = time.perf_counter()
        self.paused += after - now
        self.due = after + EVERY_S

    def summary(self) -> dict:
        """Raw and corrected op times, and the corrected wall time; call once, after the pass."""
        self.tick(force=True)
        refs = [took for _, took in self.ticks]
        half = WINDOW // 2
        scale = [
            NOMINAL_S / statistics.median(refs[max(0, k - half) : k + half + 1])
            for k in range(len(refs))
        ]
        corrected, before = 0.0, 0.0
        for (at, _), factor in zip(self.ticks, scale):
            corrected += (at - before) * factor
            before = at
        return {
            "ref_wall_s": corrected,
            "samples_ms": [took * 1000 for took, _ in self.ops],
            "ref_samples_ms": [took * 1000 * scale[k] for took, k in self.ops],
            "reference_ms": statistics.median(refs) * 1000,
        }


# -- verify workloads ---------------------------------------------------------


def time_verifiers(clock: HostSpeed):
    """Give clock the duration of every public verifier call.

    The laplace sweep checks inline, with no per-check entry point: a sweep
    that made no verifier call has its time split evenly over its checks.
    The reference task runs only outside every verifier call.
    """
    calls, depth = [0], [0]

    def timed(fn):
        def wrapper(*args, **kwargs):
            depth[0] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                depth[0] -= 1
            clock.op(time.perf_counter() - start)
            calls[0] += 1
            if not depth[0]:
                clock.tick()
            return result

        return wrapper

    def timed_sweep(sweep):
        def wrapper(*args, **kwargs):
            before = calls[0]
            start = time.perf_counter()
            reports = sweep(*args, **kwargs)
            took = time.perf_counter() - start
            if calls[0] == before and reports:
                for _ in reports:
                    clock.op(took / len(reports))
                clock.tick()
            return reports

        return wrapper

    for module, names in VERIFIERS.items():
        for name in names:
            verifier = resolve(module, name)
            if verifier is not None:
                patch(verifier, timed(verifier))
    catalog = getattr(sys.modules["overlapls.identities"], "CATALOG", {})
    for name, sweep in list(catalog.items()):
        catalog[name] = timed_sweep(sweep)


def verify_pass(cli, argv, seed, clock):
    """Run `overlapls verify` in process; summarise its stdout.

    The laplace checks print the seed in their instance, so the digest is
    taken over stdout with that seed value replaced by a placeholder.
    """
    out, err = io.StringIO(), io.StringIO()
    error = None
    start = clock.begin()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv + ["--seed", str(seed)])
    except Exception as exc:  # the program failed: its ops count as failed
        rc, error = None, repr(exc)
    wall = time.perf_counter() - start - clock.paused
    text = out.getvalue()
    counts, not_passed = {}, 0
    for line in text.splitlines():
        try:
            report = json.loads(line)
            identity, outcome = report["identity"], report["outcome"]
        except (ValueError, KeyError, TypeError):
            identity, outcome = "<unparsed>", None
        counts[identity] = counts.get(identity, 0) + 1
        not_passed += outcome != "pass"
    normalized = re.sub(rf'"seed": {seed}(?=[,}}])', '"seed": "<seed>"', text)
    return {
        "wall_s": wall,
        "ops": sum(counts.values()),
        "not_passed": not_passed,
        "counts": counts,
        "digest": digest(normalized),
        "rc": rc,
        "error": error,
    }


# -- fibers workload ----------------------------------------------------------
#
# The ops import at call time, so that they call whatever the tracer patched in.


def _key(triple):
    mu, nu, sign = triple
    return mu.parts, nu.parts, sign


def walk_op(lam, m, n):
    """The walk fiber: C(m+n, m) distinct triples, each overlapping back to (lam, sign)."""
    from overlapls.overlap import enumerate_overlap_pairs, overlap

    fiber = list(enumerate_overlap_pairs(lam, m, n))
    ok = len(fiber) == math.comb(m + n, m)
    ok = ok and len({(mu.parts, nu.parts) for mu, nu, _ in fiber}) == len(fiber)
    for mu, nu, sign in fiber:
        r = overlap(mu, nu, m, n)
        ok = ok and r.is_finite and r.value == lam and r.sign == sign
    return ok, fiber


def scan_op(lam, m, n):
    """The walk fiber equals the definitional scan of the bounding box."""
    from overlapls.overlap import brute_force_fiber, enumerate_overlap_pairs

    walk = sorted(_key(t) for t in enumerate_overlap_pairs(lam, m, n))
    scan = sorted(_key(t) for t in brute_force_fiber(lam, m, n))
    return walk == scan, scan


def subpairs_op(kappa, m, n, l):
    """C(m+n, m) marked pairs, mapping one to one onto the walk fiber of kappa'."""
    from overlapls.overlap import (
        enumerate_overlap_pairs,
        enumerate_subpartition_pairs,
        subpartition_to_overlap,
    )

    pairs = enumerate_subpartition_pairs(kappa, m, n, l)
    mapped = sorted(_key(subpartition_to_overlap(lam, K, m, n + l)) for lam, K in pairs)
    fiber = sorted(_key(t) for t in enumerate_overlap_pairs(kappa.conjugate(), m, n))
    return len(pairs) == math.comb(m + n, m) and mapped == fiber, mapped


OPS = {"walk": walk_op, "scan": scan_op, "subpairs": subpairs_op}


def fiber_instances(spec, seed):
    """The fixed instance set of the spec, in an order set by the seed."""
    from overlapls.partitions import partitions_in_box

    out = [
        (kind, lam, m, n)
        for kind in ("walk", "scan")
        for box, top in [spec[kind]]
        for lam in partitions_in_box(box, box)
        for m in range(top + 1)
        for n in range(top + 1)
        if lam.length <= m + n
    ]
    top, top_l = spec["subpairs"]
    out += [
        ("subpairs", kappa, m, n, l)
        for m in range(top + 1)
        for n in range(top + 1)
        for l in range(top_l + 1)
        for kappa in partitions_in_box(m + n, l)
    ]
    random.Random(seed).shuffle(out)
    return out


def fibers_pass(instances, clock):
    """Run and check every instance; an op fails on a wrong result or an exception."""
    counts, summaries, failed, error = {}, [], 0, None
    start = clock.begin()
    for kind, lam, *args in instances:
        op_start = time.perf_counter()
        try:
            ok, result = OPS[kind](lam, *args)
        except Exception as exc:  # the program failed: the op counts as failed
            ok, result, error = False, [], error or repr(exc)
        clock.op(time.perf_counter() - op_start)
        clock.tick()
        failed += not ok
        counts[kind] = counts.get(kind, 0) + 1
        summaries.append([kind, list(lam.parts), *args, len(result), sum(t[2] for t in result)])
    wall = time.perf_counter() - start - clock.paused
    return {
        "wall_s": wall,
        "ops": len(instances),
        "not_passed": failed,
        "counts": counts,
        "digest": digest(json.dumps(sorted(summaries))),
        "rc": 0,
        "error": error,
    }


def main() -> int:
    request = json.loads(sys.argv[1])
    try:
        cli, setup_s = set_up()
    except ImportError as exc:
        print(f"perfbench worker: cannot import overlapls.cli: {exc}", file=sys.stderr)
        return 2
    # Set-up is corrected by the reference times right after it.
    reference_s = statistics.median(time_reference() for _ in range(SETUP_REFERENCES))
    result = {"setup_s": setup_s, "ref_setup_s": setup_s * NOMINAL_S / reference_s}
    mode = request["mode"]
    if mode != "setup":
        spec, seed = request["spec"], request["seed"]
        tracer = Tracer() if mode == "trace" else None
        clock = HostSpeed(enabled=tracer is None)
        if spec["kind"] == "fibers":
            instances = fiber_instances(spec, seed)
            run = lambda: fibers_pass(instances, clock)  # noqa: E731
        else:
            run = lambda: verify_pass(cli, spec["argv"], seed, clock)  # noqa: E731
        if tracer is not None:
            tracer.install()
        elif spec["kind"] != "fibers":
            time_verifiers(clock)
        result.update(run())
        result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            result["layers"] = tracer.metrics()
            tracer.write(ROOT / ".perfbench" / f"trace-{request['workload']}.json")
        else:
            result.update(clock.summary())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
