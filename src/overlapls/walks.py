"""Staircase walks across a rectangle and their associated partitions.

A walk goes from the top-right corner to the bottom-left corner of a
rectangle of width n and height m using west (H) and south (V) steps only.
Step 1 is the first step taken; all step-time sequences are 1-based.
The staircases delta_k that label walks come from one table (delta).
"""

from __future__ import annotations

import itertools
import operator

from .partitions import Partition, as_ints

# delta_k = (k - 1, ..., 1, 0) for each k < _DELTA_END, which covers the
# rectangles of the verify sweeps and fiber checks: a fixed table, never
# grown; delta builds the larger ones per call
_DELTA_END = 33
_DELTAS = tuple(tuple(range(k - 1, -1, -1)) for k in range(_DELTA_END))


def delta(k: int) -> tuple:
    """The staircase delta_k = (k - 1, ..., 1, 0) as a tuple, read off _DELTAS when it holds k; k >= 0 required."""
    if 0 <= k < _DELTA_END:
        return _DELTAS[k]
    if k < 0:
        raise ValueError(f"delta of a negative integer {k}")
    return tuple(range(k - 1, -1, -1))


class StaircaseWalk:
    """Word over {H, V}; n = number of H steps (width), m = V steps (height)."""

    __slots__ = ("steps",)

    def __init__(self, steps: str):
        steps = str(steps)
        if steps.replace("H", "").replace("V", ""):
            raise ValueError(f"walk steps must be H or V, got {steps!r}")
        object.__setattr__(self, "steps", steps)

    @staticmethod
    def _of(steps: str) -> "StaircaseWalk":
        """Wrap a word built only from "H" and "V" unchecked; StaircaseWalk(...) checks its input."""
        w = StaircaseWalk.__new__(StaircaseWalk)
        object.__setattr__(w, "steps", steps)
        return w

    def __setattr__(self, *a):
        raise AttributeError("StaircaseWalk is immutable")

    @property
    def n(self) -> int:
        return self.steps.count("H")

    @property
    def m(self) -> int:
        return self.steps.count("V")

    def __len__(self):
        return len(self.steps)

    def __eq__(self, other):
        return isinstance(other, StaircaseWalk) and self.steps == other.steps

    def __hash__(self):
        return hash(self.steps)

    def __repr__(self):
        return f"StaircaseWalk({self.steps!r})"

    @staticmethod
    def from_v_times(v_times, total: int) -> "StaircaseWalk":
        """Build the walk of the given length whose V steps occur at v_times; each time and total must be integral."""
        times = as_ints(v_times, "step time")
        (total,) = as_ints((total,), "walk length")
        if total < 0:
            raise ValueError(f"walk length must be non-negative, got {total}")
        vs = set(times)
        if any(not (1 <= t <= total) for t in vs) or len(vs) != len(times):
            raise ValueError(f"invalid vertical step times {times}")
        return StaircaseWalk("".join("V" if t in vs else "H" for t in range(1, total + 1)))

    def v_times(self) -> tuple:
        """Ascending 1-based positions of the vertical steps."""
        return tuple(t for t, s in enumerate(self.steps, 1) if s == "V")

    def h_times(self) -> tuple:
        """Ascending 1-based positions of the horizontal steps."""
        return tuple(t for t, s in enumerate(self.steps, 1) if s == "H")

    def _unlabeled(self) -> tuple:
        """(mu, nu_conj, sign): the walk labeled by the empty partition, whose staircase has N - t at time t."""
        return _labeled(delta(len(self.steps) + 1), self.v_times(), self.h_times(), Partition._of)

    def mu(self) -> Partition:
        """Partition whose diagram lies above the walk.

        Row i counts the horizontal steps taken after the i-th vertical step.
        """
        return self._unlabeled()[0]

    def nu_conj(self) -> Partition:
        """Conjugate of the partition below the walk.

        Column j counts the vertical steps taken after the j-th horizontal step.
        """
        return self._unlabeled()[1]

    def nu(self) -> Partition:
        """Partition whose diagram (rotated by 180 degrees) lies below the walk."""
        return self.nu_conj().conjugate()

    def split(self, c: int):
        """Split into the first c steps and the rest, each an independent walk."""
        if not (0 <= c <= len(self.steps)):
            raise ValueError(f"cut {c} out of range for a walk of {len(self.steps)} steps")
        return StaircaseWalk._of(self.steps[:c]), StaircaseWalk._of(self.steps[c:])

    def to_json(self) -> str:
        return self.steps


def enumerate_walks(n: int, m: int):
    """All walks with n horizontal and m vertical steps, lexicographic in the word.

    H sorts before V, so the words come in the lexicographic order of their
    H positions; the walks are produced lazily, one at a time.
    """
    if n < 0 or m < 0:
        raise ValueError("rectangle dimensions must be non-negative")
    total = n + m
    for h_positions in itertools.combinations(range(total), n):
        word = ["V"] * total
        for i in h_positions:
            word[i] = "H"
        yield StaircaseWalk._of("".join(word))


def subsets_and_complements(seq, m: int):
    """(chosen, rest): iterators over the m-subsets of seq and, in step, the complement of each, both in seq's order.

    The chosen subsets come by position in lexicographic order, as
    itertools.combinations gives them.  Taking complements reverses that
    order (the first position where two subsets differ lies in the smaller
    one), so rest is the (len(seq) - m)-subsets in reverse order, listed up
    front: C(len(seq), m) tuples.  With m > len(seq) both are empty; a
    negative m raises ValueError.
    """
    k = len(seq)
    rest = list(itertools.combinations(seq, k - m)) if m <= k else []
    return itertools.combinations(seq, m), reversed(rest)


def walk_times(n: int, m: int):
    """(v_times, h_times) of each walk with n horizontal and m vertical steps, in enumerate_walks order.

    The H times are the n-subsets of [n + m] in lexicographic order and the
    V times their complements (subsets_and_complements), so the C(n + m, m)
    V times are listed up front.
    """
    if n < 0 or m < 0:
        raise ValueError("rectangle dimensions must be non-negative")
    h_times, v_times = subsets_and_complements(range(1, n + m + 1), n)
    return zip(v_times, h_times)


def _unstair(seq, k: int) -> tuple:
    """seq - delta_k for k values seq: value j (0-based) loses k - 1 - j."""
    return tuple(map(operator.sub, seq, delta(k)))


def _labeled_walks(stair, times, m: int, n: int, build):
    """(mu, nu, sign) of each walk of the n-wide, m-high rectangle, labeled so that stair[t] = label_t + N - t.

    times gives the (v_times, h_times) of each walk, as walk_times does;
    stair[0] is unused.  mu + rho_m and nu + rho_n are stair at the V and H
    step times.  The sign counts the boxes below the walk: the j-th H step
    (0-based) at time t has m + 1 + j - t V steps after it, so the count has
    the parity of sum(h_times) + n m + n (n + 1) / 2.  build makes each
    partition from its parts: Partition._of for the labels of a partition,
    whose staircase strictly decreases, or partitions.stripped for bare
    part tuples, else the checking Partition.  The staircase offsets and the
    sign constant depend only on the rectangle, so they are built once for
    all its walks.
    """
    at, sub = stair.__getitem__, operator.sub
    down_m, down_n = delta(m), delta(n)
    offset = n * m + n * (n + 1) // 2
    for v_times, h_times in times:
        mu = build(tuple(map(sub, map(at, v_times), down_m)))
        nu = build(tuple(map(sub, map(at, h_times), down_n)))
        yield mu, nu, -1 if (sum(h_times) + offset) % 2 else 1


def _labeled(stair, v_times: tuple, h_times: tuple, build):
    """(mu, nu, sign) of the one walk with these step times: _labeled_walks on a single walk."""
    return next(_labeled_walks(stair, ((v_times, h_times),), len(v_times), len(h_times), build))


def is_quasi_partition(alpha, pi: StaircaseWalk) -> bool:
    """Check the four quasi-partition conditions of a label sequence on a walk.

    Conditions: the last label is non-negative; no interior double strict
    increase; labels weakly decrease across same-type consecutive steps; and
    labels increase by at most one across type changes.  Out-of-range
    neighbours make a condition vacuous.  Labels must be integral.
    """
    alpha = as_ints(alpha, "label")
    total = len(pi)
    if len(alpha) != total:
        raise ValueError(f"label sequence length {len(alpha)} != walk length {total}")
    if total == 0:
        return True
    if alpha[-1] < 0:
        return False
    for i in range(1, total - 1):
        if alpha[i - 1] < alpha[i] < alpha[i + 1]:
            return False
    for i in range(total - 1):
        if pi.steps[i] == pi.steps[i + 1]:
            if alpha[i + 1] > alpha[i]:
                return False
        else:
            if alpha[i + 1] > alpha[i] + 1:
                return False
    return True
