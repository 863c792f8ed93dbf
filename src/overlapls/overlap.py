"""The overlap operation on partitions, its sign, and the fiber enumerations.

The (m, n)-overlap of mu and nu is the partition lam with lam + rho_{m+n}
a rearrangement of (mu + rho_m) concatenated with (nu + rho_n); it is the
infinite sentinel when that merged sequence has a repeated entry.  The sign
is the parity of the sorting permutation.  Each staircase strictly
decreases, so only pairs across the two invert: the i-th mu entry, at
0-based position p_i of the sorted merge, comes after p_i - i nu entries,
and the sign is (-1)^(p_1 + ... + p_m - m(m-1)/2).

The fiber of lam is read off its staircase in step times.  The walk pi
across the n-wide, m-high rectangle, labeled by lam, carries the pair with
mu + rho_m = (lam + rho_{m+n}) at the V step times of pi and
nu + rho_n = (lam + rho_{m+n}) at its H step times.  The same formula with
any label sequence in place of lam, quasi-partitions included, inverts the
witness map of an infinite overlap.
"""

from __future__ import annotations

import itertools
import operator

from .partitions import Partition, binomial, partitions_in_box
from .walks import StaircaseWalk, _labeled, _unstair, is_quasi_partition, walk_times


class OverlapResult:
    """Either a finite partition with a sign in {+1, -1}, or infinity (sign +1)."""

    __slots__ = ("value", "sign")

    def __init__(self, value, sign):
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "sign", sign)

    def __setattr__(self, *a):
        raise AttributeError("OverlapResult is immutable")

    @staticmethod
    def finite(value: Partition, sign: int) -> "OverlapResult":
        if sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {sign}")
        return OverlapResult(value, sign)

    @staticmethod
    def infinite() -> "OverlapResult":
        return OverlapResult(None, 1)

    @property
    def is_infinite(self) -> bool:
        return self.value is None

    @property
    def is_finite(self) -> bool:
        return self.value is not None

    def __eq__(self, other):
        if not isinstance(other, OverlapResult):
            return NotImplemented
        return self.value == other.value and self.sign == other.sign

    def __hash__(self):
        return hash((self.value, self.sign))

    def __repr__(self):
        if self.is_infinite:
            return "OverlapResult(infinite)"
        return f"OverlapResult({self.value}, sign={self.sign:+d})"

    def to_json(self) -> dict:
        if self.is_infinite:
            return {"infinite": True}
        return {"value": self.value.to_json(), "sign": self.sign}


def overlap(mu: Partition, nu: Partition, m: int, n: int) -> OverlapResult:
    """The (m, n)-overlap of mu and nu with its sign.

    The merged sequence (mu + rho_m) u (nu + rho_n) either has a repeat
    (infinite overlap, sign +1) or sorts to a strictly decreasing sequence
    whose staircase-reduction is automatically a partition.
    """
    _check_pair(mu, nu, m, n)
    merged, at = _merge(staircase(mu, m), staircase(nu, n))
    if len(set(merged)) < m + n:
        return OverlapResult.infinite()
    # only cross pairs invert: the mu entry at at[i] comes after at[i] - i nu entries
    sign = -1 if (sum(at) - m * (m - 1) // 2) % 2 else 1
    return OverlapResult(Partition._of(_unstair(merged, m + n)), sign)


def _merge(mu_stair: tuple, nu_stair: tuple):
    """The two staircases sorted into one decreasing list, and the position of each mu entry in it.

    A value both staircases hold sits twice in the list; its mu entry
    takes the first of the two positions.
    """
    merged = sorted(mu_stair + nu_stair, reverse=True)
    return merged, tuple(map(merged.index, mu_stair))


def staircase(lam: Partition, k: int) -> tuple:
    """lam + rho_k = (lam_1 + k - 1, ..., lam_k), strictly decreasing; l(lam) <= k."""
    parts = lam.parts
    if len(parts) > k:
        raise ValueError(f"cannot pad {lam} to shorter length {k}")
    return tuple(map(operator.add, parts + (0,) * (k - len(parts)), range(k - 1, -1, -1)))


def enumerate_overlap_pairs(lam: Partition, m: int, n: int):
    """All (mu, nu, sign) with overlap(mu, nu, m, n) finite and equal to lam.

    One triple per staircase walk across the n-wide, m-high rectangle: labels
    of vertical steps extend the rows above the walk into mu, labels of
    horizontal steps extend the columns below into nu; the sign counts the
    boxes below the walk.  lam + rho_{m+n} is built once, and each walk
    reads mu and nu off it at its step times, which walk_times reads off
    the combinations of step positions.
    """
    _check_fiber(lam, m, n)
    stair = (None, *staircase(lam, m + n))
    for v_times, h_times in walk_times(n, m):
        yield _labeled(stair, v_times, h_times, Partition._of)


def _check_fiber(lam: Partition, m: int, n: int):
    """The input check shared by the walk enumeration and the definitional scan."""
    _check_dimensions(m, n)
    if lam.length > m + n:
        raise ValueError(f"length of {lam} exceeds m + n = {m + n}")


def _check_pair(mu: Partition, nu: Partition, m: int, n: int):
    """The input check shared by overlap and infinite_overlap_witness.

    A negative dimension also fails its length test, so the dimensions are
    checked, and named first, only once a length test fails: overlap is on
    the fiber hot path.
    """
    if mu.length > m or nu.length > n:
        _check_dimensions(m, n)
        if mu.length > m:
            raise ValueError(f"length of {mu} exceeds m = {m}")
        raise ValueError(f"length of {nu} exceeds n = {n}")


def _check_dimensions(*dims: int):
    """The check shared by the overlap, fiber and subpartition-pair inputs."""
    if min(dims) < 0:
        raise ValueError("rectangle dimensions must be non-negative")


def walk_overlap_pair(lam: Partition, pi: StaircaseWalk):
    """The fiber triple (mu, nu, sign) carried by the walk pi labeled by lam.

    The sign counts the boxes below the walk; l(lam) <= len(pi) is required.
    """
    return _labeled((None, *staircase(lam, len(pi))), pi.v_times(), pi.h_times(), Partition._of)


def infinite_overlap_witness(mu: Partition, nu: Partition, m: int, n: int):
    """A labeled-walk witness for an infinite overlap, or None if finite.

    Returns (pi, alpha) with mu and nu recoverable from the walk's partitions
    plus the labels, alpha a quasi-partition for pi that is not a partition.
    Among the valid vertical-step splits the lexicographically smallest is
    chosen, so the output is deterministic.
    """
    _check_pair(mu, nu, m, n)
    merged, at = _merge(staircase(mu, m), staircase(nu, n))
    if len(set(merged)) == m + n:
        return None
    alpha = _unstair(merged, m + n)
    pi = StaircaseWalk.from_v_times([p + 1 for p in at], m + n)
    assert is_quasi_partition(alpha, pi)
    return pi, alpha


def reconstruct_from_witness(pi: StaircaseWalk, alpha):
    """Inverse of the witness map: the (mu, nu) pair a labeled walk encodes.

    mu + rho_m and nu + rho_n are alpha + rho_N at the V and H step times.
    alpha is any label sequence, one label per step, so the result is checked.
    """
    alpha = tuple(alpha)
    total = len(pi)
    if len(alpha) != total:
        raise ValueError(f"label sequence length {len(alpha)} != walk length {total}")
    stair = (None, *map(operator.add, alpha, range(total - 1, -1, -1)))
    return _labeled(stair, pi.v_times(), pi.h_times(), Partition)[:2]


def brute_force_fiber(lam: Partition, m: int, n: int):
    """Definitional fiber scan over the bounding box; the enumeration oracle.

    (mu, nu) lies in the fiber of lam exactly when the merged staircases
    (mu + rho_m) u (nu + rho_n), sorted decreasingly, equal lam + rho_{m+n}.
    The target is strictly decreasing, so a merge with a repeated entry never
    matches; overlap() runs only on accepted pairs, for the sign.
    Any pair overlapping to lam fits in mu_1 <= lam_1 + n, nu_1 <= lam_1 + m,
    and pair sizes are forced to |mu| + |nu| = |lam| + m*n.
    """
    _check_fiber(lam, m, n)
    target = list(staircase(lam, m + n))
    target_size = lam.size + m * n
    by_size = {}
    for nu in partitions_in_box(lam.part(1) + m, n):
        by_size.setdefault(nu.size, []).append((nu, staircase(nu, n)))
    out = []
    for mu in partitions_in_box(lam.part(1) + n, m):
        mu_stair = staircase(mu, m)
        for nu, nu_stair in by_size.get(target_size - mu.size, ()):
            if sorted(mu_stair + nu_stair, reverse=True) == target:
                r = overlap(mu, nu, m, n)
                if r.is_finite and r.value == lam:
                    out.append((mu, nu, r.sign))
    return out


def sub_partition(lam: Partition, N: int, K) -> Partition:
    """Subpartition of lam along the index subsequence K inside [N].

    Part j is lam_{K_j} + N - K_j - (l(K) - j); the staircase shift makes the
    result a partition whenever K is strictly increasing within [N].
    """
    K = tuple(K)
    if lam.length > N:
        raise ValueError(f"length of {lam} exceeds N = {N}")
    _check_indices(K, N)
    return Partition(_sub_parts(lam.padded(N), N, K))


def _sub_parts(parts: tuple, N: int, K: tuple) -> tuple:
    """sub_partition's parts lam_{K_j} + N - K_j - (l(K) - j), unchecked.

    parts is lam padded to N; K must be valid, as itertools.combinations
    and c_indices always make it.
    """
    top = N - len(K) + 1
    return tuple(parts[k - 1] + top - k + j for j, k in enumerate(K))


def _check_indices(K: tuple, N: int):
    """K must be a strictly increasing sequence inside [N]."""
    if any(not (1 <= k <= N) for k in K) or list(K) != sorted(set(K)):
        raise ValueError(f"K = {K} is not a subsequence of [{N}]")


def c_indices(K, n: int) -> tuple:
    """Ascending reflection {n - j + 1 : j not in K} of the complement of K in [n]."""
    K = tuple(K)
    _check_indices(K, n)
    missing = set(range(1, n + 1)) - set(K)
    return tuple(sorted(n - j + 1 for j in missing))


def subpartition_to_overlap(lam: Partition, K, m: int, n: int):
    """Map a marked pair (lam, K) to the overlap pair it corresponds to.

    Returns (mu, nu, sign) = (lam', sub(lam~, C_n(K)), parity of the dropped
    complement labels); the pair overlaps, over (m, l(C_n(K))), to the
    conjugate of sub(lam, K).
    """
    if not lam.fits_in(m, n):
        raise ValueError(f"{lam} does not fit in a {m}x{n} rectangle")
    C = c_indices(K, n)
    comp = lam.complement(m, n)
    mu = lam.conjugate()
    nu = Partition(_sub_parts(comp.padded(n), n, C))
    sign = -1 if sum(comp.select(C)) % 2 else 1
    return mu, nu, sign


def enumerate_subpartition_pairs(kappa: Partition, m: int, n: int, l: int):
    """All (lam, K) with lam in the m x (n+l) box, l(K) = l, sub(lam, K) = kappa.

    Definitional scan over the bounded search space, comparing part tuples;
    the count is the same binomial as the overlap fiber, and mapping through
    subpartition_to_overlap is a bijection onto the fiber of kappa'.
    """
    _check_dimensions(m, n, l)
    if not kappa.fits_in(m + n, l):
        raise ValueError(f"{kappa} does not fit in a {m + n}x{l} rectangle")
    N = n + l
    target = kappa.padded(l)
    out = []
    for lam in partitions_in_box(m, N):
        parts = lam.padded(N)
        for K in itertools.combinations(range(1, N + 1), l):
            if _sub_parts(parts, N, K) == target:
                out.append((lam, K))
    return out


def count_fiber(m: int, n: int) -> int:
    return binomial(m + n, m)
