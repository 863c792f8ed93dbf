"""Executable verifiers for the overlap identities and their specializations.

Each verifier re-checks its own preconditions and reports "inapplicable"
rather than pass/fail when they are violated; dropping a hypothesis silently
is exactly how the counterexample kept in this module arises.  Sweeps keep
every report they produce, and run_catalog drops the inapplicable ones, so a
catalog run lists only checks that ran.  Fiber sums are always generated
through the walk and subpartition enumerators, never by scanning partitions,
so a passing verifier simultaneously certifies the bijections behind those
enumerators.

Both overlap identities come from one Laplace expansion, and each split sum
has one term shape, built in one place: _x_split_terms for sums over splits
(S, T) of X, _conclude_y_splits for sums over splits (U, V) of Y.  Each
split sum iterates over order-preserving subsequences of a fixed variable
order; every Vandermonde-type sign follows from that single rule.

A check whose two sides are exact data compares them exactly in both modes,
through _exact: the union-Schur checks (_union_schur compares the integer
coefficients of the alternants the two sides become), dual Cauchy and the
counterexample.  Only the split sums depend on the mode, and only through
the ring they are computed in.  They write their two sides once, as
build(R), from the primitives R.ls, R.schur and R.delta; _conclude runs one
clearing rule in every ring R it is given: lhs times the Vandermonde
product V of the cleared alphabets (R.vandermonde) against the sum of the
numerators times V / den, each quotient certified exact by divexact.
Both modes take each LS and Schur factor from the strip branching rule:
symbolic mode gives one ring of polynomials (ls_branching, schur), grid
mode one ring of integer values per spot point (ls_value and schur_value
run the same branching at the point, R.delta and R.vandermonde multiply
integer differences), so the split sums in grid mode expand no
polynomial, compute no determinant and build no fraction.
"""

from __future__ import annotations

import functools
import itertools
import operator
import random
from dataclasses import replace
from types import SimpleNamespace

from . import report
from .littlewood_schur import littlewood_square_check, ls_branching, ls_determinantal, ls_value
from .overlap import (
    enumerate_overlap_pairs,
    enumerate_subpartition_pairs,
    overlap,
    staircase,
    subpartition_to_overlap,
    walk_overlap_pair,
)
from .partitions import Partition, partitions_in_box, shift_first
from .polyring import (
    ONE,
    MultiPoly,
    PolyMatrix,
    VarSeq,
    ZERO,
    delta_of,
    delta_pair,
    det,
    divexact,
    e_prod,
    laplace_expand,
    sort_sign,
    vandermonde,
    vandermonde_of,
)
from .schur import complement_reciprocity_check, factor_rule_check, schur, schur_value
from .walks import enumerate_walks

_SPOT_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)
_SPOT_COUNT = 4
# Largest --vars: a check may use two alphabets of that many variables, and
# the spot points give each variable its own base.
MAX_VARS = len(_SPOT_BASES) // 2


def spot_points(names, count: int = _SPOT_COUNT):
    """Deterministic integer points with pairwise distinct, nonzero coordinates.

    Coordinate i of point j is _SPOT_BASES[i] + 60 j: the bases are distinct
    and below 60, so no two coordinates of a point meet and none is zero.
    """
    names = list(names)
    if len(names) > len(_SPOT_BASES):
        raise ValueError("too many variables for the spot grid")
    for j in range(count):
        yield {n: _SPOT_BASES[i] + 60 * j for i, n in enumerate(names)}


# Symbolic primitives: the cached polynomials, looked up at call time.
_POLYS = SimpleNamespace(
    ls=lambda lam, X, Y: ls_branching(lam, X, Y),
    schur=lambda lam, X: schur(lam, X),
    delta=lambda X, Y: delta_pair(X, Y),
    vandermonde=lambda X: vandermonde(X),
    witness=lambda lhs, rhs: str(lhs - rhs),
)


def _at_point(point):
    """Grid primitives on unmarked alphabets: exact integer values at one spot point, no polynomial built."""
    def at(X: VarSeq):
        return tuple(map(point.__getitem__, X.names))

    return SimpleNamespace(
        ls=lambda lam, X, Y: ls_value(lam, at(X), at(Y)),
        schur=lambda lam, X: schur_value(lam, at(X)),
        delta=lambda X, Y: delta_of(at(X), at(Y)),
        vandermonde=lambda X: vandermonde_of(at(X)),
        witness=lambda lhs, rhs: f"point {point}",
    )


@functools.cache
def _quotient(clear, den):
    """clear / den, certified exact by divexact; the split sums meet few distinct pairs, so each is divided once."""
    return divexact(clear, den)


def _cleared(terms, clear):
    """clear times the sum of (num, den) terms; every den must divide clear.

    Numerators are grouped by denominator first, and each quotient
    clear / den comes from _quotient.  The sum starts from the first group,
    so on ints it stays an int; no terms give 0.
    """
    groups = {}
    for num, den in terms:
        groups[den] = groups[den] + num if den in groups else num
    parts = (num if den == clear else num * _quotient(clear, den) for den, num in groups.items())
    return sum(parts, next(parts, 0))


def _exact(ident, instance, mode, lhs, rhs, witness=lambda lhs, rhs: str(lhs - rhs)):
    """Compare two exact sides with ==, in either mode; witness(lhs, rhs) runs only on a failure."""
    report.check_mode(mode)
    if lhs == rhs:
        return report.passed(ident, instance, mode)
    return report.failed(ident, instance, witness(lhs, rhs), mode)


def _conclude(ident, instance, mode, build, names, clear):
    """Check lhs = sum of num / den over the (lhs, terms) that build(R) returns, in each ring R.

    The rings are the polynomials in symbolic mode and the integers at each
    spot point of names in grid mode; the mode is read only to choose them.
    In each, lhs * V is compared with the cleared sum, V being the product
    of R.vandermonde over the one or two alphabets in clear, which every den
    must divide; with one alphabet V is the value R.vandermonde returns,
    not a copy.  A failing ring gives the witness: V * (lhs - sum) for the
    polynomials, the point for a spot point.
    """
    report.check_mode(mode)
    rings = (_POLYS,) if mode == "symbolic" else map(_at_point, spot_points(names))
    for R in rings:
        lhs, terms = build(R)
        vand = functools.reduce(operator.mul, map(R.vandermonde, clear))
        lhs, rhs = lhs * vand, _cleared(terms, vand)
        if lhs != rhs:
            return report.failed(ident, instance, R.witness(lhs, rhs), mode)
    return report.passed(ident, instance, mode)


# -- first overlap identity ---------------------------------------------------


def _x_split_terms(R, head, tail, l, X: VarSeq, Y: VarSeq, sign=1):
    """(sign * LS(head; S) * LS(tail; T), delta(T, S)) over the splits (S, T) of X with l(S) = l."""
    return [
        (sign * R.ls(head, S, Y) * R.ls(tail, T, Y), R.delta(T, S))
        for S, T in X.splits(l)
    ]


def verify_first_overlap(lam, m, n, l, mu, nu, X: VarSeq, Y: VarSeq, mode="symbolic"):
    """Split sum over subsequences of X against LS of the full alphabet.

    Requires the first n - k parts of lam to be the (l, n-k-l)-overlap of
    (mu, nu), with k the (m, n)-index of lam and 0 <= l <= min(n-k, n).
    """
    ident = "first-overlap"
    instance = {
        "lambda": lam.to_json(), "m": m, "n": n, "l": l,
        "mu": mu.to_json(), "nu": nu.to_json(),
    }
    if len(X) != n or len(Y) != m:
        return report.inapplicable(ident, instance, "alphabet lengths do not match n, m")
    k = lam.index(m, n)
    if not 0 <= l <= min(n - k, n):
        return report.inapplicable(ident, instance, f"l = {l} outside [0, min(n-k, n)] for k = {k}")
    if mu.length > l or nu.length > n - k - l:
        return report.inapplicable(ident, instance, "mu or nu too long for the overlap")
    ov = overlap(mu, nu, l, n - k - l)
    if ov.is_infinite or ov.value != lam.take(n - k):
        return report.inapplicable(ident, instance, "overlap of (mu, nu) does not give the head of lambda")
    try:
        head = shift_first(mu, k, l)
    except ValueError:
        return report.inapplicable(ident, instance, "mu + <k^l> is not a partition")
    tail = nu.union(lam.drop(n - k))

    def build(R):
        return R.ls(lam, X, Y), _x_split_terms(R, head, tail, l, X, Y, ov.sign)

    return _conclude(ident, instance, mode, build, X.names + Y.names, (X,))


def sorted_split_sum(lam, l, X: VarSeq, Y: VarSeq) -> MultiPoly:
    """The identity-sorting specialization of the first overlap split sum.

    Sums LS of (first l parts of lam, widened by n - l) against LS of the
    remaining parts over all splits; valid only while l stays at most n - k.
    """
    n = len(X)
    terms = _x_split_terms(_POLYS, shift_first(lam.take(l), n - l, l), lam.drop(l), l, X, Y)
    vand = vandermonde(X)
    return divexact(_cleared(terms, vand), vand)


def counterexample_regression(mode="symbolic"):
    """Regression pinning the failure of the sorted split cut out of range.

    With two x variables, three y variables and the three-row column, cutting
    at l = 1 exceeds n - k; the split sum then misses exactly the monomial
    y1*y2*y3, and nothing else.
    """
    ident = "counterexample"
    lam = Partition((1, 1, 1))
    X = VarSeq.make("x", 2)
    Y = VarSeq.make("y", 3)
    instance = {"lambda": lam.to_json(), "n": 2, "m": 3, "l": 1}
    diff = ls_determinantal(lam, X, Y) - sorted_split_sum(lam, 1, X, Y)
    target = e_prod(Y)
    r = _exact(ident, instance, mode, diff, target)
    return replace(r, witness=str(target)) if r.passed else r


def verify_cor_max_index(mu, nu, l, X: VarSeq, Y: VarSeq, mode="symbolic"):
    """Maximal-index form of the first overlap identity.

    The left side is LS of the overlap of mu with the head of nu, glued to
    the tail of nu; an infinite overlap forces both sides to vanish.
    """
    ident = "max-index"
    n, m = len(X), len(Y)
    instance = {"mu": mu.to_json(), "nu": nu.to_json(), "l": l, "n": n, "m": m}
    if not mu.length <= l <= n:
        return report.inapplicable(ident, instance, "need l(mu) <= l <= n")
    k = nu.index(m, n - l)
    if l > n - k:
        return report.inapplicable(ident, instance, f"l = {l} exceeds n - k for k = {k}")
    try:
        head = shift_first(mu, k, l)
    except ValueError:
        return report.inapplicable(ident, instance, "mu + <k^l> is not a partition")
    if head.index(m, l) != 0:
        return report.inapplicable(ident, instance, "mu + <k^l> does not have maximal index 0")
    ov = overlap(mu, nu.take(n - l - k), l, n - l - k)
    glued = ov.value.union(nu.drop(n - l - k)) if ov.is_finite else None

    def build(R):
        lhs = 0 if ov.is_infinite else R.ls(glued, X, Y)
        return lhs, _x_split_terms(R, head, nu, l, X, Y, ov.sign)

    return _conclude(ident, instance, mode, build, X.names + Y.names, (X,))


# -- second overlap identity and walk split -----------------------------------


def _second_overlap_setup(lam, S: VarSeq, T: VarSeq, Y: VarSeq):
    """(n, m, l, k) and the report instance of the second-overlap checks."""
    n, m, l = len(S) + len(T), len(Y), len(S)
    return n, m, l, lam.index(m, n), {"lambda": lam.to_json(), "l(S)": l, "l(T)": n - l, "m": m}


def _conclude_y_splits(ident, instance, mode, lam, S, T, Y, summands):
    """LS(lam; S u T, Y) against the sum over splits (U, V) of Y of the summands' terms.

    The delta factor is made once per split; every denominator divides V(S u T) V(Y).
    """
    def build(R):
        factors = {}
        terms = []
        for U, V, sign, reduced, below in summands:
            if (U, V) not in factors:
                factors[U, V] = R.delta(V, S) * R.delta(T, U), R.delta(V, U) * R.delta(T, S)
            num, den = factors[U, V]
            terms.append((sign * num * R.ls(reduced, S, U) * R.ls(below, T, V), den))
        return R.ls(lam, S.concat(T), Y), terms

    return _conclude(ident, instance, mode, build, S.names + T.names + Y.names, (S.concat(T), Y))


def _fiber_labels(head, c, l, Y):
    """(p, U, V, mu, nu, sign) over splits (U, V) of Y times overlap fibers of head.

    c = n - k is the cut at the index columns.  The split count p starts at
    l - c when the cut runs past them: smaller p would ask the fiber for a
    negative-length side.
    """
    for p in range(max(0, l - c), min(l, len(Y)) + 1):
        for U, V in Y.splits(p):
            for mu, nu, sign in enumerate_overlap_pairs(head, l - p, c - l + p):
                yield p, U, V, mu, nu, sign


def _walk_labels(head, c, l, Y):
    """The same labels from single walks: the prefix carries the fiber pair, the suffix the split of Y."""
    for pi in enumerate_walks(len(Y) + c - l, l):
        pi1, pi2 = pi.split(c)
        U = Y.subseq([t - 1 for t in pi2.v_times()])
        V = Y.subseq([t - 1 for t in pi2.h_times()])
        yield (pi2.m, U, V) + walk_overlap_pair(head, pi1)


def _second_overlap_summands(lam, S, T, Y, k, labels):
    """The summands of the triple sum, one per label of labels(head, n - k, l, Y)."""
    n, m, l = len(S) + len(T), len(Y), len(S)
    tail = lam.drop(n - k)
    return [
        (U, V, sign, shift_first(mu, -(m - k), l - p), nu.union(tail))
        for p, U, V, mu, nu, sign in labels(lam.take(n - k), n - k, l, Y)
    ]


def verify_second_overlap(lam, S: VarSeq, T: VarSeq, Y: VarSeq, mode="symbolic"):
    """Fiber sum over overlap pairs and splits of Y against LS of the union.

    Valid for every cut of the first alphabet: cutting past the index columns
    only shifts where the split count starts.
    """
    n, m, l, k, instance = _second_overlap_setup(lam, S, T, Y)
    summands = _second_overlap_summands(lam, S, T, Y, k, _fiber_labels)
    return _conclude_y_splits("second-overlap", instance, mode, lam, S, T, Y, summands)


def verify_walk_split(lam, S: VarSeq, T: VarSeq, Y: VarSeq, mode="symbolic"):
    """Single walk sum with prefix/suffix splitting against LS of the union."""
    n, m, l, k, instance = _second_overlap_setup(lam, S, T, Y)
    if l > m + n - k:
        return report.inapplicable("walk-split", instance, f"no walks carry {l} vertical steps")
    summands = _second_overlap_summands(lam, S, T, Y, k, _walk_labels)
    return _conclude_y_splits("walk-split", instance, mode, lam, S, T, Y, summands)


def walk_split_bijection_check(lam, S: VarSeq, T: VarSeq, Y: VarSeq):
    """Label-for-label agreement of the walk sum with the triple sum.

    The prefix of each walk carries the fiber pair, the suffix carries the
    split of Y; the check asserts the two label families coincide, sign
    included.  Each triple-sum term is a fixed function of its label, so
    equal labels give equal terms.
    """
    ident = "walk-split-bijection"
    n, m, l, k, instance = _second_overlap_setup(lam, S, T, Y)
    if l > m + n - k:
        return report.inapplicable(ident, instance, f"no walks carry {l} vertical steps")
    a, b = (
        {
            (p, U.names, V.names, mu.parts, nu.parts): sign
            for p, U, V, mu, nu, sign in labels(lam.take(n - k), n - k, l, Y)
        }
        for labels in (_fiber_labels, _walk_labels)
    )
    if a != b:
        return report.failed(ident, instance, f"labels differ: {sorted(a.items() ^ b.items())}")
    return report.passed(ident, instance)


# -- Schur specializations -------------------------------------------------------


def verify_first_overlap_schur(mu, nu, m, n, X: VarSeq, mode="symbolic"):
    """Schur of an overlap as a split sum over the union alphabet."""
    ident = "first-overlap-schur"
    instance = {"mu": mu.to_json(), "nu": nu.to_json(), "m": m, "n": n}
    if len(X) != m + n:
        return report.inapplicable(ident, instance, "need l(X) = m + n")
    if mu.length > m or nu.length > n:
        return report.inapplicable(ident, instance, "mu or nu too long")
    ov = overlap(mu, nu, m, n)

    def build(R):
        terms = [(ov.sign * R.schur(mu, S) * R.schur(nu, T), R.delta(S, T)) for S, T in X.splits(m)]
        return (0 if ov.is_infinite else R.schur(ov.value, X)), terms

    return _conclude(ident, instance, mode, build, X.names, (X,))


def _union_schur(ident, instance, mode, target, S: VarSeq, T: VarSeq, triples):
    """schur(target, S u T) * delta(S, T) against sum sign * s_mu(S) * s_nu(T) over the triples.

    Exact in both modes, and builds no polynomial.  Times V(S) V(T), the
    left side is the alternant a_(target + delta)(S u T) (bialternant
    formula) and each term is sign * a_(mu + delta)(S) * a_(nu + delta)(T).
    Both sides are then antisymmetric in S and in T, so they are equal
    exactly when their coefficients agree at the pairs (alpha, beta) of
    strictly decreasing exponent vectors.  The left side's coefficients are
    the Laplace expansion of the alternant along the rows of S: the shuffle
    sign of each split of gamma = target + delta_(m+n) into alpha and beta.
    The mode only labels the report.
    """
    m, n = len(S), len(T)
    lhs = {}
    if target.length <= m + n:
        gamma = staircase(target, m + n)
        for alpha in itertools.combinations(gamma, m):
            beta = tuple(g for g in gamma if g not in alpha)
            lhs[alpha, beta] = sort_sign(alpha + beta)
    rhs = {}
    for mu, nu, sign in triples:
        if mu.length <= m and nu.length <= n:
            key = staircase(mu, m), staircase(nu, n)
            rhs[key] = rhs.get(key, 0) + sign
    rhs = {key: c for key, c in rhs.items() if c}
    return _exact(
        ident, instance, mode, lhs, rhs, lambda a, b: f"coefficients differ: {sorted(a.items() ^ b.items())}"
    )


def verify_second_overlap_schur(lam, S: VarSeq, T: VarSeq, mode="symbolic"):
    """Schur of the union alphabet against the overlap fiber of lam."""
    ident = "second-overlap-schur"
    m, n = len(S), len(T)
    instance = {"lambda": lam.to_json(), "l(S)": m, "l(T)": n}
    if lam.length > m + n:
        return report.inapplicable(ident, instance, "lambda too long")
    return _union_schur(ident, instance, mode, lam, S, T, enumerate_overlap_pairs(lam, m, n))


def verify_labeled_walk_schur(lam, S: VarSeq, T: VarSeq, mode="symbolic"):
    """Schur of the union as a signed sum over walks labeled by lam."""
    ident = "labeled-walk-schur"
    m, n = len(S), len(T)
    instance = {"lambda": lam.to_json(), "l(S)": m, "l(T)": n}
    if lam.length > m + n:
        return report.inapplicable(ident, instance, "lambda too long")
    triples = (walk_overlap_pair(lam, pi) for pi in enumerate_walks(n, m))
    return _union_schur(ident, instance, mode, lam, S, T, triples)


# -- subpartition identities -----------------------------------------------------


def verify_subpartition_schur(kappa, m, n, l, S: VarSeq, T: VarSeq, mode="symbolic"):
    """Schur of the conjugate of kappa as a sum over marked pairs (lam, K)."""
    ident = "subpartition-schur"
    instance = {"kappa": kappa.to_json(), "m": m, "n": n, "l": l}
    if len(S) != m or len(T) != n:
        return report.inapplicable(ident, instance, "alphabet lengths do not match m, n")
    if not kappa.fits_in(m + n, l):
        return report.inapplicable(ident, instance, f"kappa not inside {m + n}x{l}")
    triples = (
        subpartition_to_overlap(lam, K, m, n + l)
        for lam, K in enumerate_subpartition_pairs(kappa, m, n, l)
    )
    return _union_schur(ident, instance, mode, kappa.conjugate(), S, T, triples)


def verify_subpartition_ls(kappa, m, n, n_tilde, l, q, S: VarSeq, T: VarSeq, Y: VarSeq, mode="symbolic"):
    """LS of the conjugate of kappa as a triple sum over marked pairs and Y splits."""
    ident = "subpartition-ls"
    instance = {
        "kappa": kappa.to_json(), "m": m, "n": n, "n~": n_tilde, "l": l, "q": q,
    }
    if n_tilde > q:
        return report.inapplicable(ident, instance, "need n~ <= q")
    if len(S) != m or len(T) != n + n_tilde or len(Y) != q:
        return report.inapplicable(ident, instance, "alphabet lengths do not match")
    if not kappa.fits_in(m + n, l):
        return report.inapplicable(ident, instance, f"kappa not inside {m + n}x{l}")
    if not kappa.contains_cell(m + n, q - n_tilde):
        return report.inapplicable(ident, instance, "kappa misses the corner cell")
    summands = []
    for p in range(0, min(m, q) + 1):
        at_p = []
        for lam, K in enumerate_subpartition_pairs(kappa, m - p, n + p, l):
            mu, below, sign = subpartition_to_overlap(lam, K, m - p, n + p + l)
            at_p.append((sign, shift_first(mu, -(q - n_tilde), m - p), below))
        summands += [(U, V) + summand for U, V in Y.splits(p) for summand in at_p]
    return _conclude_y_splits(ident, instance, mode, kappa.conjugate(), S, T, Y, summands)


# -- classical specializations -------------------------------------------------


def _sweep_first_overlap(max_box, nvars, mode, seed):
    out = []
    for lam in partitions_in_box(max_box, max_box):
        for n in range(1, nvars + 1):
            for m in range(0, min(nvars, 2) + 1):
                X, Y = VarSeq.make("x", n), VarSeq.make("y", m)
                k = lam.index(m, n)
                if k < 0:
                    continue
                for l in range(0, min(n - k, n) + 1):
                    for mu, nu, _ in enumerate_overlap_pairs(lam.take(n - k), l, n - k - l):
                        out.append(verify_first_overlap(lam, m, n, l, mu, nu, X, Y, mode))
    return out


def _sweep_max_index(max_box, nvars, mode, seed):
    out = []
    n, m = max(nvars, 1), min(nvars, 2)
    X, Y = VarSeq.make("x", n), VarSeq.make("y", m)
    for mu in partitions_in_box(max_box, max_box):
        for nu in partitions_in_box(max_box, max_box):
            for l in range(mu.length, n + 1):
                out.append(verify_cor_max_index(mu, nu, l, X, Y, mode))
    return out


def _y_split_instances(max_box, nvars):
    """(lam, S, T, Y) for the second-overlap and walk-split sweeps."""
    for lam in partitions_in_box(max_box, max_box):
        for n in range(0, nvars + 1):
            for l in range(0, n + 1):
                S, T = VarSeq.make("s", l), VarSeq.make("t", n - l)
                for m in range(0, min(nvars, 2) + 1):
                    yield lam, S, T, VarSeq.make("y", m)


def _sweep_second_overlap(max_box, nvars, mode, seed):
    return [verify_second_overlap(*inst, mode) for inst in _y_split_instances(max_box, nvars)]


def _sweep_walk_split(max_box, nvars, mode, seed):
    out = []
    for inst in _y_split_instances(max_box, nvars):
        r = verify_walk_split(*inst, mode)
        out.append(r)
        if not r.inapplicable:
            out.append(walk_split_bijection_check(*inst))
    return out


def _sweep_first_overlap_schur(max_box, nvars, mode, seed):
    out = []
    m = n = max(1, min(nvars, 2))
    X = VarSeq.make("x", m + n)
    for mu in partitions_in_box(max_box, m):
        for nu in partitions_in_box(max_box, n):
            out.append(verify_first_overlap_schur(mu, nu, m, n, X, mode))
    return out


def _union_instances(max_box, nvars):
    """(lam, S, T) with l(lam) <= l(S) + l(T), for the Schur sweeps over the union S u T."""
    for lam in partitions_in_box(max_box, max_box):
        for m in range(0, nvars + 1):
            for n in range(0, nvars + 1):
                if lam.length <= m + n:
                    yield lam, VarSeq.make("s", m), VarSeq.make("t", n)


def _sweep_second_overlap_schur(max_box, nvars, mode, seed):
    return [verify_second_overlap_schur(*inst, mode) for inst in _union_instances(max_box, nvars)]


def _sweep_labeled_walk_schur(max_box, nvars, mode, seed):
    return [verify_labeled_walk_schur(*inst, mode) for inst in _union_instances(max_box, nvars)]


def _sweep_subpartition_schur(max_box, nvars, mode, seed):
    out = []
    for m in range(0, min(nvars, 2) + 1):
        for n in range(0, min(nvars, 2) + 1):
            S, T = VarSeq.make("s", m), VarSeq.make("t", n)
            for l in range(0, 3):
                for kappa in partitions_in_box(m + n, l):
                    out.append(verify_subpartition_schur(kappa, m, n, l, S, T, mode))
    return out


def _sweep_subpartition_ls(max_box, nvars, mode, seed):
    out = []
    for m in range(0, 3):
        for n in range(0, 2):
            for l in range(0, 2):
                for q in range(0, min(nvars, 2) + 1):
                    for nt in range(0, q + 1):
                        S = VarSeq.make("s", m)
                        T = VarSeq.make("t", n + nt)
                        Y = VarSeq.make("y", q)
                        for kappa in partitions_in_box(m + n, l):
                            out.append(verify_subpartition_ls(kappa, m, n, nt, l, q, S, T, Y, mode))
    return out


def _sweep_dual_cauchy(max_box, nvars, mode, seed):
    out = []
    for n in range(0, nvars + 1):
        for m in range(0, nvars + 1):
            out.append(verify_dual_cauchy(VarSeq.make("x", n), VarSeq.make("y", m), mode))
    return out


def _sweep_littlewood_square(max_box, nvars, mode, seed):
    out = []
    for n in range(0, min(nvars, 2) + 1):
        for m in range(0, min(nvars, 2) + 1):
            for l in range(0, 3):
                X, Y = VarSeq.make("x", n), VarSeq.make("y", m)
                out.append(littlewood_square_check(n, m, l, X, Y))
    return out


def _sweep_factor_rule(max_box, nvars, mode, seed):
    out = []
    for n in range(1, nvars + 1):
        X = VarSeq.make("x", n)
        for lam in partitions_in_box(max_box, n):
            for m in range(0, 3):
                out.append(factor_rule_check(lam, m, X))
    return out


def _sweep_complement_reciprocity(max_box, nvars, mode, seed):
    out = []
    for n in range(1, nvars + 1):
        X = VarSeq.make("x", n)
        for m in range(0, max_box + 1):
            for lam in partitions_in_box(m, n):
                out.append(complement_reciprocity_check(lam, m, X, mode))
    return out


def _sweep_counterexample(max_box, nvars, mode, seed):
    return [counterexample_regression(mode)]


def _sweep_laplace(max_box, nvars, mode, seed):
    rng = random.Random(seed)
    out = []
    for trial in range(5):
        n = 4 + trial % 2
        A = PolyMatrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
        d = det(A)
        ok = True
        for size in range(1, n):
            K = tuple(sorted(rng.sample(range(1, n + 1), size)))
            if laplace_expand(A, K) != d:
                ok = False
                break
        instance = {"trial": trial, "n": n, "seed": seed}
        if ok:
            out.append(report.passed("laplace", instance))
        else:
            out.append(report.failed("laplace", instance, f"row subset {K}"))
    return out


CATALOG = {
    "first-overlap": _sweep_first_overlap,
    "max-index": _sweep_max_index,
    "second-overlap": _sweep_second_overlap,
    "walk-split": _sweep_walk_split,
    "first-overlap-schur": _sweep_first_overlap_schur,
    "second-overlap-schur": _sweep_second_overlap_schur,
    "labeled-walk-schur": _sweep_labeled_walk_schur,
    "subpartition-schur": _sweep_subpartition_schur,
    "subpartition-ls": _sweep_subpartition_ls,
    "dual-cauchy": _sweep_dual_cauchy,
    "littlewood-square": _sweep_littlewood_square,
    "factor-rule": _sweep_factor_rule,
    "complement-reciprocity": _sweep_complement_reciprocity,
    "counterexample": _sweep_counterexample,
    "laplace": _sweep_laplace,
}


def run_catalog(names=None, max_box=2, nvars=2, mode="symbolic", seed=0):
    """Run named verifier sweeps (all of them when names is None), in catalog order.

    Inapplicable reports are dropped: a sweep may pass instances whose
    preconditions fail, and only the checks that ran are returned.
    """
    report.check_mode(mode)
    if names is None:
        names = list(CATALOG)
    reports = []
    for name in names:
        if name not in CATALOG:
            raise KeyError(f"unknown verifier {name!r}")
        reports.extend(r for r in CATALOG[name](max_box, nvars, mode, seed) if not r.inapplicable)
    return reports


def verify_dual_cauchy(X: VarSeq, Y: VarSeq, mode="symbolic"):
    """Sum of paired Schur functions against the product of (1 + x y)."""
    ident = "dual-cauchy"
    n, m = len(X), len(Y)
    instance = {"l(X)": n, "l(Y)": m}
    total = ZERO
    for lam in partitions_in_box(m, n):
        sx = schur(lam, X)
        if sx.is_zero:
            continue
        sy = schur(lam.conjugate(), Y)
        if sy.is_zero:
            continue
        total = total + sx * sy
    product = ONE
    for i in range(n):
        for j in range(m):
            product = product * (ONE + X.term(i) * Y.term(j))
    return _exact(ident, instance, mode, total, product)
