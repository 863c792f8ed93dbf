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
witness map of an infinite overlap.  All walks of one rectangle are labeled
in one pass (walks._labeled_walks), which builds the rectangle's constants
once.

Two scans check the walk enumerations against the definitions, and read no
walk.  Both are lookups, since a strictly decreasing staircase leaves at
most one candidate: brute_force_fiber reads the one nu that each mu of its
box leaves off the entries of lam + rho_{m+n} that mu + rho_m does not
take, and enumerate_subpartition_pairs reads the one index set K that each
lam of its box admits off the values of lam's shifted staircase.  Both scan
their boxes as padded part tuples and build a Partition only for the pairs
they return.

Every staircase rho_k = delta_k = (k - 1, ..., 0) here, in staircase,
overlap and the walk labeling alike, is read off one fixed table,
walks._DELTAS, which holds delta_k for k < walks._DELTA_END; walks.delta
builds the larger ones per call.
"""

from __future__ import annotations

import operator

from .partitions import Partition, binomial, padded_in_box
from .walks import _DELTA_END, _DELTAS, StaircaseWalk, _labeled, _labeled_walks, _unstair, delta, is_quasi_partition, walk_times


class OverlapResult:
    """Either a finite partition with a sign in {+1, -1}, or infinity (sign +1)."""

    __slots__ = ("value", "sign")

    def __init__(self, value, sign):
        OverlapResult.value.__set__(self, value)
        OverlapResult.sign.__set__(self, sign)

    def __setattr__(self, *a):
        raise AttributeError("OverlapResult is immutable")

    @staticmethod
    def finite(value: Partition, sign: int) -> "OverlapResult":
        if sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {sign}")
        return OverlapResult(value, sign)

    @staticmethod
    def infinite() -> "OverlapResult":
        return _INFINITE

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


_INFINITE = OverlapResult(None, 1)


def overlap(mu: Partition, nu: Partition, m: int, n: int) -> OverlapResult:
    """The (m, n)-overlap of mu and nu with its sign.

    The merged sequence (mu + rho_m) u (nu + rho_n) either has a repeat
    (infinite overlap, sign +1) or sorts to a strictly decreasing sequence
    whose staircase-reduction is automatically a partition.  The staircases
    come off the delta table, inlined: overlap is on the fiber hot path.
    """
    mu_parts, nu_parts, k = mu.parts, nu.parts, m + n
    if len(mu_parts) > m or len(nu_parts) > n:
        _check_pair(mu, nu, m, n)
    # m, n >= 0 here, so the table holds delta_m and delta_n whenever it holds delta_k
    if k < _DELTA_END:
        down_m, down_n, down_k = _DELTAS[m], _DELTAS[n], _DELTAS[k]
    else:
        down_m, down_n, down_k = delta(m), delta(n), delta(k)
    mu_stair = tuple(map(operator.add, mu_parts, down_m)) + down_m[len(mu_parts):]
    merged = sorted(mu_stair + tuple(map(operator.add, nu_parts, down_n)) + down_n[len(nu_parts):], reverse=True)
    if len(set(merged)) < k:
        return _INFINITE
    r = OverlapResult.__new__(OverlapResult)
    OverlapResult.value.__set__(r, Partition._of(tuple(map(operator.sub, merged, down_k))))
    # only cross pairs invert: the mu entry at position p_i comes after p_i - i nu entries
    OverlapResult.sign.__set__(r, -1 if (sum(map(merged.index, mu_stair)) - m * (m - 1) // 2) % 2 else 1)
    return r


def staircase(lam: Partition, k: int) -> tuple:
    """lam + delta_k = (lam_1 + k - 1, ..., lam_k), strictly decreasing; l(lam) <= k."""
    parts = lam.parts
    if len(parts) > k:
        raise ValueError(f"cannot pad {lam} to shorter length {k}")
    down = delta(k)
    return tuple(map(operator.add, parts, down)) + down[len(parts):]


def enumerate_overlap_pairs(lam: Partition, m: int, n: int):
    """All (mu, nu, sign) with overlap(mu, nu, m, n) finite and equal to lam.

    One triple per staircase walk across the n-wide, m-high rectangle: labels
    of vertical steps extend the rows above the walk into mu, labels of
    horizontal steps extend the columns below into nu; the sign counts the
    boxes below the walk.  lam + rho_{m+n} is built once, and each walk
    reads mu and nu off it at its step times, which walk_times reads off
    the combinations of step positions; _labeled_walks labels the whole
    rectangle in one pass.
    """
    _check_fiber(lam, m, n)
    yield from _labeled_walks((None, *staircase(lam, m + n)), walk_times(n, m), m, n, Partition._of)


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
    mu_stair = staircase(mu, m)
    merged = sorted(mu_stair + staircase(nu, n), reverse=True)
    if len(set(merged)) == m + n:
        return None
    alpha = _unstair(merged, m + n)
    # a value both staircases hold sits twice in merged; its mu entry takes the first of the two positions
    pi = StaircaseWalk.from_v_times([merged.index(s) + 1 for s in mu_stair], m + n)
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
    stair = (None, *map(operator.add, alpha, delta(total)))
    return _labeled(stair, pi.v_times(), pi.h_times(), Partition)[:2]


def brute_force_fiber(lam: Partition, m: int, n: int):
    """Definitional fiber scan over the bounding box; the enumeration oracle.

    (mu, nu) lies in the fiber of lam exactly when the merged staircases
    (mu + rho_m) u (nu + rho_n), sorted decreasingly, equal lam + rho_{m+n}.
    Any pair overlapping to lam fits in mu_1 <= lam_1 + n, nu_1 <= lam_1 + m.
    The target is strictly decreasing, so mu + rho_m must be m of its
    entries, and then nu + rho_n can only be the other n, in order: each nu
    of its box is looked up by its staircase, and each mu of its box reads
    off the one candidate it leaves.  overlap() runs only on accepted pairs,
    for the sign.  The scan covers the whole mu box and reads no walk, so it
    stays independent of the walk enumeration it checks.
    """
    _check_fiber(lam, m, n)
    target, down_m, down_n = staircase(lam, m + n), delta(m), delta(n)
    entries = set(target)
    nu_of = {tuple(map(operator.add, nu, down_n)): nu for nu in padded_in_box(lam.part(1) + m, n)}
    out = []
    for mu in padded_in_box(lam.part(1) + n, m):
        mu_stair = tuple(map(operator.add, mu, down_m))
        if entries.issuperset(mu_stair):
            nu = nu_of.get(tuple(t for t in target if t not in mu_stair))
            if nu is not None:
                pair = Partition._of(mu), Partition._of(nu)
                r = overlap(*pair, m, n)
                if r.is_finite and r.value == lam:
                    out.append((*pair, r.sign))
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

    parts is lam padded to N; K must be valid, as _check_indices and
    c_indices make it.
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

    Definitional scan over the lam box.  Part j (0-based) of sub(lam, K) is
    s_(K_j) + j, where s_k = lam_k + n + 1 - k strictly decreases in k, so
    K_j can only be the position where s takes the value kappa_j - j: each
    lam, scanned as its padded part tuple (padded_in_box), reads its one
    candidate K off a map from the values of s to their positions, and has
    a pair exactly when every value is found; a Partition is built only for
    the lam of a pair.  Those positions increase with j, as kappa_j - j
    decreases, so K is a valid index sequence.  The count is the same
    binomial as the overlap fiber, and mapping through
    subpartition_to_overlap is a bijection onto the fiber of kappa'.
    """
    _check_dimensions(m, n, l)
    if not kappa.fits_in(m + n, l):
        raise ValueError(f"{kappa} does not fit in a {m + n}x{l} rectangle")
    N = n + l
    want = tuple(map(operator.sub, kappa.padded(l), range(l)))
    shift, positions = range(n, n - N, -1), range(1, N + 1)
    out = []
    for lam in padded_in_box(m, N):
        position = dict(zip(map(operator.add, lam, shift), positions))
        K = tuple(map(position.get, want))
        if None not in K:
            out.append((Partition._of(lam), K))
    return out


def count_fiber(m: int, n: int) -> int:
    return binomial(m + n, m)
