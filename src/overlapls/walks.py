"""Staircase walks across a rectangle and their associated partitions.

A walk goes from the top-right corner to the bottom-left corner of a
rectangle of width n and height m using west (H) and south (V) steps only.
Step 1 is the first step taken; all step-time sequences are 1-based.
"""

from __future__ import annotations

import functools
import itertools

from .partitions import Partition, binomial, rho


# Step words whose geometry walk_geometry keeps; the least recently used go first.
GEOMETRY_CACHE_SIZE = 4096


@functools.lru_cache(maxsize=GEOMETRY_CACHE_SIZE)
def walk_geometry(steps: str) -> tuple:
    """(v_times, h_times, mu, nu_conj, |nu| odd) of a step word, computed together.

    The i-th vertical step at time t has t - 1 - i horizontal steps before
    it, so n - (t - 1 - i) after it: row i of mu, which falls as i grows.
    Columns of nu' likewise count the vertical steps after each horizontal
    one, and |nu| = |nu'|.
    """
    v_times, h_times = [], []
    for t, s in enumerate(steps, 1):
        (v_times if s == "V" else h_times).append(t)
    n, m = len(h_times), len(v_times)
    rows = tuple(n + 1 + i - t for i, t in enumerate(v_times))
    cols = tuple(m + 1 + j - t for j, t in enumerate(h_times))
    return tuple(v_times), tuple(h_times), Partition._of(rows), Partition._of(cols), sum(cols) % 2 == 1


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
        """Build the walk of the given length whose V steps occur at v_times."""
        times = tuple(v_times)
        vs = set(times)
        if any(not (1 <= t <= total) for t in vs) or len(vs) != len(times):
            raise ValueError(f"invalid vertical step times {times}")
        return StaircaseWalk("".join("V" if t in vs else "H" for t in range(1, total + 1)))

    def v_times(self) -> tuple:
        """Ascending 1-based positions of the vertical steps."""
        return walk_geometry(self.steps)[0]

    def h_times(self) -> tuple:
        """Ascending 1-based positions of the horizontal steps."""
        return walk_geometry(self.steps)[1]

    def mu(self) -> Partition:
        """Partition whose diagram lies above the walk.

        Row i counts the horizontal steps taken after the i-th vertical step.
        """
        return walk_geometry(self.steps)[2]

    def nu_conj(self) -> Partition:
        """Conjugate of the partition below the walk.

        Column j counts the vertical steps taken after the j-th horizontal step.
        """
        return walk_geometry(self.steps)[3]

    def nu(self) -> Partition:
        """Partition whose diagram (rotated by 180 degrees) lies below the walk."""
        return self.nu_conj().conjugate()

    def split(self, c: int):
        """Split into the first c steps and the rest, each an independent walk."""
        if not (0 <= c <= len(self.steps)):
            raise ValueError(f"cut {c} out of range for a walk of {len(self.steps)} steps")
        return StaircaseWalk._of(self.steps[:c]), StaircaseWalk._of(self.steps[c:])

    def complement_walk(self) -> "StaircaseWalk":
        """Walk the stairs in the opposite direction: reverses the step word.

        Swaps the two associated partitions: mu of the result is nu of self.
        """
        return StaircaseWalk._of(self.steps[::-1])

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


def count_walks(n: int, m: int) -> int:
    return binomial(n + m, m)


def is_quasi_partition(alpha, pi: StaircaseWalk) -> bool:
    """Check the four quasi-partition conditions of a label sequence on a walk.

    Conditions: the last label is non-negative; no interior double strict
    increase; labels weakly decrease across same-type consecutive steps; and
    labels increase by at most one across type changes.  Out-of-range
    neighbours make a condition vacuous.
    """
    alpha = tuple(int(a) for a in alpha)
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


def step_time_encoding(pi: StaircaseWalk):
    """Step-time encoding of the walk's partitions.

    mu(pi) + rho_m equals rho_{m+n} restricted to vertical step times, and
    nu(pi)' + rho_n equals the restriction to horizontal step times.
    """
    total = len(pi)
    big = rho(total)
    v = Partition(big.select(pi.v_times()))
    h = Partition(big.select(pi.h_times()))
    return v, h
