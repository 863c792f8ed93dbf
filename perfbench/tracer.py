"""Per-layer tracing of overlapls from outside the package.

The tracer replaces public functions and methods of overlapls with timing
wrappers, patching every name under which callers look a function up: a
module attribute is replaced in each overlapls module that bound the same
object at import (``identities`` binds ``ls_determinantal``, ``schur`` and
``enumerate_overlap_pairs``), a method in every class slot that holds it
(``MultiPoly.__mul__`` is also ``__rmul__``).

Calls into the coarse layers (verifiers, Schur and Littlewood-Schur
polynomials, the definitional scans) are kept as spans with their parent
span.  Hot calls (ring arithmetic, walk and overlap primitives, generator
steps) keep no span of their own; they are folded into per-parent-span call
counters and timers.  Self time of a call is its duration minus the time of
the wrapped calls made inside it, so the self times of all keys plus the
root add up to the traced pass.

Ratios are computed from call arguments and returned values only; the
package's private caches are never read.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
import time
from collections import defaultdict

# Public verifiers, by home module.  Each call returns one report.
VERIFIERS = {
    "overlapls.identities": (
        "verify_first_overlap",
        "verify_cor_max_index",
        "verify_second_overlap",
        "verify_walk_split",
        "walk_split_bijection_check",
        "verify_first_overlap_schur",
        "verify_second_overlap_schur",
        "verify_labeled_walk_schur",
        "verify_subpartition_schur",
        "verify_subpartition_ls",
        "verify_dual_cauchy",
        "counterexample_regression",
    ),
    "overlapls.schur": ("factor_rule_check", "complement_reciprocity_check"),
    "overlapls.littlewood_schur": ("littlewood_square_check",),
}

# (home module, attribute path, metric key, kind).  "span" records a span,
# "fold" folds the call into its parent span, "gen" folds every step of a
# generator and counts the items it yields.
TARGETS = [
    ("overlapls.partitions", "partitions_in_box", "partitions.box", "gen"),
    ("overlapls.walks", "enumerate_walks", "walks.enumerate", "gen"),
    *(
        ("overlapls.walks", f"StaircaseWalk.{name}", "walks.walk", "fold")
        for name in ("mu", "nu_conj", "nu", "v_times", "h_times", "split")
    ),
    ("overlapls.overlap", "overlap", "overlap.overlap", "fold"),
    ("overlapls.overlap", "enumerate_overlap_pairs", "overlap.fiber", "gen"),
    ("overlapls.overlap", "brute_force_fiber", "overlap.scan", "span"),
    ("overlapls.overlap", "enumerate_subpartition_pairs", "overlap.subpairs", "span"),
    ("overlapls.overlap", "subpartition_to_overlap", "overlap.subpair_map", "fold"),
    ("overlapls.polyring", "MultiPoly.__mul__", "polyring.mul", "fold"),
    ("overlapls.polyring", "MultiPoly.__add__", "polyring.add", "fold"),
    ("overlapls.polyring", "MultiPoly.evaluate", "polyring.evaluate", "fold"),
    ("overlapls.polyring", "PolyFraction.evaluate", "polyring.evaluate", "fold"),
    *(
        ("overlapls.polyring", f"PolyFraction.{name}", "polyring.fraction", "fold")
        for name in (
            "__init__", "__add__", "__sub__", "__rsub__", "__mul__",
            "__truediv__", "__rtruediv__", "__neg__", "__eq__", "to_poly",
        )
    ),
    ("overlapls.polyring", "sum_fractions", "polyring.fraction", "fold"),
    ("overlapls.polyring", "divexact", "polyring.divexact", "fold"),
    ("overlapls.polyring", "det", "polyring.det", "fold"),
    ("overlapls.schur", "schur_bialternant", "schur.bialternant", "span"),
    ("overlapls.schur", "schur_ssyt", "schur.ssyt", "span"),
    ("overlapls.schur", "schur_value", "schur.value", "fold"),
    ("overlapls.littlewood_schur", "ls_determinantal", "littlewood_schur.ls_det", "span"),
    ("overlapls.littlewood_schur", "ls_combinatorial", "littlewood_schur.ls_comb", "span"),
    ("overlapls.littlewood_schur", "lr_coefficient", "littlewood_schur.lr", "fold"),
    *(
        (module, name, "identities.verify", "span")
        for module, names in VERIFIERS.items()
        for name in names
    ),
]


def resolve(module: str, path: str):
    """The object at a dotted path inside a loaded module, or None."""
    found = sys.modules.get(module)
    for name in path.split("."):
        found = getattr(found, name, None)
    return found


def patch(original, replacement):
    """Rebind every overlapls module attribute and class slot that holds original."""
    owners = [m for n, m in list(sys.modules.items()) if n == "overlapls" or n.startswith("overlapls.")]
    owners += [v for m in list(owners) for v in vars(m).values() if isinstance(v, type)]
    for owner in owners:
        for name, value in list(vars(owner).items()):
            if value is original:
                setattr(owner, name, replacement)


class Tracer:
    """Span stack, per-key call counters and timers, and folded per-parent totals.

    A frame is [start, child seconds, span id, key]; folded frames carry the
    span id of the span they are folded into.  Span id 0 is the root.
    """

    def __init__(self):
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # key -> calls, total s, self s
        self.counters = defaultdict(int)
        self.spans = []  # (id, parent id, key, start, end)
        self.folded = defaultdict(lambda: [0, 0.0])  # (span id, key) -> calls, s
        self.stack = [[time.perf_counter(), 0.0, 0, "root"]]
        self._seen = defaultdict(set)
        self._ids = itertools.count(1)

    def _finish(self, frame, parent, key, record):
        end = time.perf_counter()
        self.stack.pop()
        took = end - frame[0]
        parent[1] += took
        stat = self.stats[key]
        stat[1] += took
        stat[2] += took - frame[1]
        if record:
            self.spans.append((frame[2], parent[2], key, frame[0], end))
        else:
            acc = self.folded[(parent[2], key)]
            acc[0] += 1
            acc[1] += took

    def wrap(self, fn, key, kind, after=None):
        """Timing wrapper of one callable; after(args, result, parent key) sees each return."""
        stack, stats = self.stack, self.stats
        finish, ids = self._finish, self._ids
        clock = time.perf_counter
        record = kind == "span"

        if kind == "gen":
            def steps(it):
                while True:
                    parent = stack[-1]
                    frame = [clock(), 0.0, parent[2], key]
                    stack.append(frame)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        finish(frame, parent, key, False)
                    self.counters[key + ".items"] += 1
                    yield item

            def traced(*args, **kwargs):
                stats[key][0] += 1
                return steps(fn(*args, **kwargs))

            return traced

        def traced(*args, **kwargs):
            parent = stack[-1]
            stats[key][0] += 1
            frame = [clock(), 0.0, next(ids) if record else parent[2], key]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                finish(frame, parent, key, record)
            if after is not None:
                after(args, result, parent[3])
            return result

        return traced

    def _seen_before(self, family, key) -> int:
        seen = self._seen[family]
        if key in seen:
            return 1
        seen.add(key)
        return 0

    def hooks(self):
        """after-callbacks that derive counts and ratios from arguments and results."""
        c = self.counters

        def mul(args, result, _):
            if result is NotImplemented:
                return
            a, b = args
            c["polyring.mul.term_pairs"] += len(a.terms) * len(getattr(b, "terms", (0,)))
            c["polyring.mul.terms_out"] += len(result.terms)

        def overlap_call(args, result, parent_key):
            if parent_key == "overlap.scan":
                c["overlap.scan.attempts"] += 1

        def scan(args, result, _):
            c["overlap.scan.useful"] += len(result)

        def subpairs(args, result, _):
            _, m, n, l = args
            c["overlap.subpairs.useful"] += len(result)
            c["overlap.subpairs.candidates"] += math.comb(m + n + l, m) * math.comb(n + l, l)

        def schur_call(name):
            def hook(args, result, _):
                lam, X = args
                c["schur.repeat"] += self._seen_before("schur", (name, lam.parts, X))
            return hook

        def ls_det(args, result, _):
            lam, X, Y = args
            parts = None if lam is None else lam.parts
            c["littlewood_schur.ls_det.repeat"] += self._seen_before("ls_det", (parts, X, Y))

        def verifier(args, result, _):
            c["identities.inapplicable"] += bool(result.inapplicable)

        return {
            "polyring.mul": mul,
            "overlap.overlap": overlap_call,
            "overlap.scan": scan,
            "overlap.subpairs": subpairs,
            "schur.bialternant": schur_call("bialternant"),
            "schur.ssyt": schur_call("ssyt"),
            "littlewood_schur.ls_det": ls_det,
            "identities.verify": verifier,
        }

    def install(self):
        """Wrap every target present in the loaded overlapls; missing ones read zero."""
        hooks = self.hooks()
        for module, path, key, kind in TARGETS:
            original = resolve(module, path)
            if original is not None:
                patch(original, self.wrap(original, key, kind, hooks.get(key)))

    # -- results -----------------------------------------------------------

    def calls(self, key) -> int:
        return self.stats[key][0] if key in self.stats else 0

    def self_s(self, prefix) -> float:
        return sum(
            v[2] for k, v in self.stats.items() if k == prefix or k.startswith(prefix + ".")
        )

    def metrics(self) -> dict:
        """Every per-layer metric except the tracing overhead, which needs an untraced pass."""
        c = self.counters
        calls, self_s = self.calls, self.self_s

        def ratio(num, den):
            return num / den if den else 0.0

        schur_calls = calls("schur.bialternant") + calls("schur.ssyt")
        out = {
            "partitions.box.calls": calls("partitions.box"),
            "partitions.box.items": c["partitions.box.items"],
            "partitions.self_s": self_s("partitions"),
            "walks.enumerate.calls": calls("walks.enumerate"),
            "walks.enumerate.items": c["walks.enumerate.items"],
            "walks.self_s": self_s("walks"),
            "overlap.overlap.calls": calls("overlap.overlap"),
            "overlap.fiber.items": c["overlap.fiber.items"],
            "overlap.self_s": self_s("overlap"),
            "overlap.scan.useful_ratio": ratio(c["overlap.scan.useful"], c["overlap.scan.attempts"]),
            "overlap.scan.attempts": c["overlap.scan.attempts"],
            "overlap.subpairs.useful_ratio": ratio(
                c["overlap.subpairs.useful"], c["overlap.subpairs.candidates"]
            ),
            "overlap.subpairs.candidates": c["overlap.subpairs.candidates"],
            "polyring.mul.calls": calls("polyring.mul"),
            "polyring.mul.term_pairs": c["polyring.mul.term_pairs"],
            "polyring.mul.terms_out": c["polyring.mul.terms_out"],
            "polyring.mul.self_s": self_s("polyring.mul"),
            "polyring.add.calls": calls("polyring.add"),
            "polyring.add.self_s": self_s("polyring.add"),
            "polyring.fraction.calls": calls("polyring.fraction"),
            "polyring.fraction.self_s": self_s("polyring.fraction"),
            "polyring.evaluate.calls": calls("polyring.evaluate"),
            "polyring.evaluate.self_s": self_s("polyring.evaluate"),
            "polyring.divexact.calls": calls("polyring.divexact"),
            "polyring.divexact.self_s": self_s("polyring.divexact"),
            "polyring.det.calls": calls("polyring.det"),
            "polyring.det.self_s": self_s("polyring.det"),
            "polyring.self_s": self_s("polyring"),
            "schur.bialternant.calls": calls("schur.bialternant"),
            "schur.ssyt.calls": calls("schur.ssyt"),
            "schur.self_s": self_s("schur"),
            "schur.repeat_ratio": ratio(c["schur.repeat"], schur_calls),
            "littlewood_schur.ls_det.calls": calls("littlewood_schur.ls_det"),
            "littlewood_schur.ls_comb.calls": calls("littlewood_schur.ls_comb"),
            "littlewood_schur.lr.calls": calls("littlewood_schur.lr"),
            "littlewood_schur.self_s": self_s("littlewood_schur"),
            "littlewood_schur.ls_det.repeat_ratio": ratio(
                c["littlewood_schur.ls_det.repeat"], calls("littlewood_schur.ls_det")
            ),
            "identities.calls": calls("identities.verify"),
            "identities.inapplicable_ratio": ratio(
                c["identities.inapplicable"], calls("identities.verify")
            ),
            "identities.self_s": self_s("identities"),
        }
        return out

    def write(self, path):
        """Write the spans and the folded per-parent totals as JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "spans": self.spans,
                    "folded": [[sid, key, n, s] for (sid, key), (n, s) in self.folded.items()],
                },
                fh,
            )
