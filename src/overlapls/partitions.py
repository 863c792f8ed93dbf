"""Integer partitions and their purely shape-theoretic operations.

Parts are stored normalized (trailing zeros stripped), so equality up to
padding zeros is plain structural equality.  All operations are pure and
return fresh normalized values.
"""

from __future__ import annotations

import itertools
import math
import operator


def as_ints(values, what: str) -> tuple:
    """values read with operator.index, as a tuple; ValueError names the first value that is not integral."""
    values = tuple(values)
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        for v in values:
            if not hasattr(type(v), "__index__"):
                raise ValueError(f"non-integral {what} {v!r} in {values}") from None
        raise


def stripped(parts: tuple) -> tuple:
    """A non-increasing tuple of non-negative ints without its trailing zeros, unchecked."""
    # the zeros of such a tuple start at its first 0
    return parts[: parts.index(0)] if parts and not parts[-1] else parts


def checked_parts(parts: tuple) -> tuple:
    """stripped(parts) for a tuple of ints that is a partition; ValueError otherwise."""
    if any(map(operator.lt, parts, parts[1:])):
        raise ValueError(f"parts not non-increasing: {parts}")
    if parts and parts[-1] < 0:
        raise ValueError(f"negative part in {parts}")
    return stripped(parts)


class Partition:
    """Non-increasing sequence of non-negative integers, trailing zeros stripped."""

    __slots__ = ("parts",)

    def __init__(self, parts=()):
        Partition.parts.__set__(self, checked_parts(as_ints(parts, "part")))

    @staticmethod
    def _of(parts: tuple) -> "Partition":
        """Wrap a non-increasing tuple of non-negative ints unchecked, stripping its trailing zeros.

        For parts that are a partition by construction; Partition(...)
        checks every value it is given.
        """
        p = Partition.__new__(Partition)
        # stripped(parts), inlined: every walk label of a fiber is built here
        Partition.parts.__set__(p, parts[: parts.index(0)] if parts and not parts[-1] else parts)
        return p

    def __setattr__(self, *a):
        raise AttributeError("Partition is immutable")

    # -- basic queries ----------------------------------------------------

    @property
    def length(self) -> int:
        """Number of positive parts."""
        return len(self.parts)

    @property
    def size(self) -> int:
        return sum(self.parts)

    def part(self, j: int):
        """1-based part accessor: part(0) is infinite, parts beyond length are 0."""
        if j == 0:
            return math.inf
        if j < 0:
            raise IndexError("negative part index")
        return self.parts[j - 1] if j <= len(self.parts) else 0

    def __eq__(self, other):
        if isinstance(other, Partition):
            return self.parts == other.parts
        if isinstance(other, tuple):
            # exact normalized parts, as the hash is that of the parts tuple
            return self.parts == other
        return NotImplemented

    def __hash__(self):
        return hash(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __repr__(self):
        return f"Partition{self.parts}"

    def __bool__(self):
        return bool(self.parts)

    # -- shape operations --------------------------------------------------

    def conjugate(self) -> "Partition":
        """Transpose of the Ferrers diagram; involutive."""
        cols = [0] * self.part(1)
        for p in self.parts:
            for i in range(p):
                cols[i] += 1
        # column i counts the parts longer than i, which falls as i grows
        return Partition._of(tuple(cols))

    def contains_cell(self, i: int, j: int) -> bool:
        """Whether cell (i, j) = (column, row) lies in the diagram.

        Row 0 and column 0 belong to every partition, and the 0-th part is
        infinitely large, so (i, 0) and (0, j) are always inside.
        """
        if i < 0 or j < 0:
            raise ValueError("cell coordinates must be non-negative")
        if i == 0 or j == 0:
            return True
        return i <= self.part(j)

    def contains(self, other: "Partition") -> bool:
        """Diagram containment: other fits inside self."""
        return all(other.part(j) <= self.part(j) for j in range(1, other.length + 1))

    def add(self, other: "Partition") -> "Partition":
        """Element-wise sum, shorter operand padded with zeros."""
        n = max(len(self.parts), len(other.parts))
        return Partition(tuple(self.part(j) + other.part(j) for j in range(1, n + 1)))

    __add__ = add

    def union(self, other: "Partition") -> "Partition":
        """Multiset merge of the parts, re-sorted non-increasingly."""
        return Partition._of(tuple(sorted(self.parts + other.parts, reverse=True)))

    def padded(self, n: int) -> tuple:
        """Parts as a tuple of length n, padded with zeros; n >= length required."""
        if n < len(self.parts):
            raise ValueError(f"cannot pad {self} to shorter length {n}")
        return self.parts + (0,) * (n - len(self.parts))

    def take(self, j: int) -> "Partition":
        """First j parts (padded with zeros as needed)."""
        return Partition._of(self.padded(max(j, len(self.parts)))[:j])

    def drop(self, j: int) -> "Partition":
        """Parts from position j+1 on."""
        return Partition._of(self.parts[j:])

    def select(self, indices) -> tuple:
        """Subsequence of parts at 1-based positions; zeros beyond length."""
        return tuple(self.part(i) for i in indices)

    def index(self, m: int, n: int) -> int:
        """The (m, n)-index: largest k <= min(m, n) with cell (m+1-k, n+1-k) outside.

        Computed by a downward scan from min(m, n); the scan is bounded below
        by -part(1), so it terminates.  The result may be negative.
        """
        if m < 0 or n < 0:
            raise ValueError("index parameters must be non-negative")
        k = min(m, n)
        while self.contains_cell(m + 1 - k, n + 1 - k):
            k -= 1
        return k

    def complement(self, m: int, n: int) -> "Partition":
        """The (m, n)-complement (m - last part, ..., m - first part); involutive."""
        if not self.fits_in(m, n):
            raise ValueError(f"{self} does not fit in a {m}x{n} rectangle")
        p = self.padded(n)
        return Partition(tuple(m - p[j] for j in range(n - 1, -1, -1)))

    def fits_in(self, m: int, n: int) -> bool:
        """Whether the diagram fits in the rectangle with n rows of width m."""
        return self.length <= n and self.part(1) <= m

    def to_json(self) -> list:
        return list(self.parts)


def rho(n: int) -> Partition:
    """Staircase partition (n-1, ..., 1, 0); empty for n = 0."""
    if n < 0:
        raise ValueError("rho of a negative integer")
    return Partition(range(n - 1, -1, -1)) if n else Partition()


def rect(m: int, n: int) -> Partition:
    """Rectangle partition with n parts equal to m."""
    return Partition((m,) * n)


def shift_first(lam: Partition, k: int, l: int) -> Partition:
    """Add k (possibly negative) to each of the first l parts.

    The result must still be a partition; shifted_parts validates that.
    """
    return Partition._of(shifted_parts(lam.parts, k, l))


def shifted_parts(parts: tuple, k: int, l: int) -> tuple:
    """The parts of shift_first, from and to part tuples: ValueError unless they form a partition."""
    p = parts + (0,) * (l - len(parts))
    return checked_parts(tuple(x + k for x in p[:l]) + p[l:])


def padded_in_box(m: int, n: int):
    """The parts of each partition inside the rectangle with n rows of width m, padded with zeros to n.

    Deterministic order: lexicographically decreasing n-tuples, from the
    full rectangle down to all zeros.  A negative width or row count raises
    at the call, before any tuple is produced.
    """
    if m < 0 or n < 0:
        raise ValueError(f"box dimensions must be non-negative, got width {m} and {n} rows")
    # non-increasing n-tuples over m..0 in lexicographic order
    return itertools.combinations_with_replacement(range(m, -1, -1), n)


def partitions_in_box(m: int, n: int):
    """All partitions inside the rectangle with n rows of width m, in padded_in_box order; _of strips the zeros."""
    return map(Partition._of, padded_in_box(m, n))


def binomial(n: int, k: int) -> int:
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)
