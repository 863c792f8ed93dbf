"""Executable verifiers for the overlap identities and their specializations.

Each verifier re-checks its own preconditions and reports "inapplicable"
rather than pass/fail when they are violated; dropping a hypothesis silently
is exactly how the counterexample kept in this module arises.  Sweeps keep
every report they produce, and run_catalog drops the inapplicable ones, so a
catalog run lists only checks that ran.  Fiber sums are always generated
through the walk and subpartition enumerators, never by scanning partitions,
so a passing verifier simultaneously certifies the bijections behind those
enumerators.

Both overlap identities come from one Laplace expansion, and each family
of split sums has one symbolic comparison, written once: _x_split_forms for
sums over splits (S, T) of X, _y_split_forms for sums over splits (U, V) of
Y.  The Y-split summands come keyed by split, {(U, V): [(sign, reduced,
below), ...]}, reduced and below being the part tuples of partitions, so a
term builds no Partition: the labels it comes from are part tuples too.
second-overlap and subpartition-ls build one term list per split size and
share it across the splits of that size, and walk-split lists one term per
walk, labeling the walks whose prefixes share a rectangle in one
_labeled_walks pass (_walk_labels), each from its own step times.  The four
Schur corollaries are those sums with Y
empty: first-overlap-schur is the X-split comparison, and the union-Schur
checks (_union_schur) are the Y-split comparison with the one split
(empty, empty) and one term per triple.
sorted_split_sum reads its polynomial off the X-split coefficient map.
Each split sum iterates over order-preserving subsequences of a fixed
variable order; every Vandermonde-type sign follows from that single rule.

A check whose two sides are exact data compares them exactly in both modes,
through report.exact: the Schur corollaries, whose coefficient maps hold
ints when Y is empty, dual Cauchy, whose two sides times V(X) V(Y) are int
maps keyed by an X key and a Y key (the sum read off the staircases, the
product from dual_cauchy_product), the counterexample, the walk-split
bijection, whose sides map each label to its sign, and the Laplace sweep,
whose sides map each drawn row subset to its expansion and to det(A), as
do the factor rule, complement reciprocity and the Littlewood square.
Only the five LS split sums depend on the mode, and the two modes check
them by different methods; _conclude is the one function that reads the
mode.
Symbolic mode reads the paper's Laplace expansion on coefficients:
multiplied by the Vandermonde product V of each cleared alphabet, both
sides are sums of products of alternants, so they are equal exactly when
the coefficients agree at the strictly decreasing exponent keys.  The
alternants module gives the pieces.  The X-split sums key their maps in X,
with coefficients that are polynomials in Y (ls_alternant, which peels
only the y-variables), and each sum is the Laplace expansion of an
alternant (merge_splits), so only polynomials in Y are multiplied.  The
Y-split sums hold ints, keyed in S, T and Y (ls_alternant_xy): the terms
of one split size are summed once, the two products of differences with
an S or T letter act on that sum by the Pieri rule (times_differences),
and one Laplace merge of the U and V keys into a Y key takes the place of
the loop over the splits of that size, so no polynomial is formed.  That
merge needs every split of one size to carry the same nonzero terms, which
_terms_by_size checks; walk-split fails with a witness naming two splits
when they do not.  Grid mode writes the two sides once, as build(at), at
being the map from an alphabet to its values at a spot point: _ls_strips
runs the strip branching rule on those values and a shape's part tuple,
and delta_of multiplies their differences.  At each point the sum of
num / den is compared over the common denominator, lhs times the lcm of
the dens against the sum of each num times lcm / den, so the split sums
in grid mode expand no polynomial, compute no determinant and build no
fraction; a pass means the identity holds exactly at every spot point.
"""

from __future__ import annotations

import bisect
import collections
import functools
import itertools
import math
import random
from dataclasses import replace

from . import report
from .alternants import (
    dual_cauchy_product,
    ls_alternant,
    ls_alternant_xy,
    merge_splits,
    nonzero,
    shuffles,
    times_differences,
)
from .littlewood_schur import littlewood_square_check, ls_determinantal
from .overlap import (
    enumerate_overlap_pairs,
    enumerate_subpartition_pairs,
    overlap,
    staircase,
    subpartition_to_overlap,
    walk_overlap_pair,
)
from .partitions import Partition, partitions_in_box, shift_first, shifted_parts, stripped
from .polyring import (
    MultiPoly,
    PolyMatrix,
    VarSeq,
    ZERO,
    delta_of,
    det,
    e_prod,
    laplace_expand,
    sort_sign,
)
from .schur import _ls_strips, complement_reciprocity_check, factor_rule_check, schur
from .walks import _labeled_walks, _unstair, enumerate_walks, walk_times

_SPOT_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)
_SPOT_COUNT = 4
# Largest --vars: a check may use two alphabets of that many variables, and
# the spot points give each variable its own base.
MAX_VARS = len(_SPOT_BASES) // 2


def spot_points(names, count: int = _SPOT_COUNT):
    """Deterministic integer points with pairwise distinct, positive coordinates, off one line.

    Coordinate i of point j is _SPOT_BASES[i] + 60 j + j^2 i.  Within a
    point the coordinates strictly increase with i, as the bases do and j^2 i
    does not decrease, so none meets another and none is zero.  Across the
    points, the difference of coordinates i > i' is that of the bases plus
    j^2 (i - i'), a different value at each point: a false split sum whose
    difference carries a factor such as s1 - y1 + 1 cannot vanish at all of
    them, as it would on points that each coordinate leaves by the same
    step.  A repeated name, or more names than bases, raises ValueError.
    """
    names = list(names)
    if len(names) > len(_SPOT_BASES):
        raise ValueError("too many variables for the spot grid")
    if len(set(names)) < len(names):
        raise ValueError("repeated variable names for the spot grid")
    for j in range(count):
        yield {n: _SPOT_BASES[i] + 60 * j + j * j * i for i, n in enumerate(names)}


def _conclude(ident, instance, mode, forms, build, names):
    """Check a split sum lhs = sum of num / den: by alternant coefficients, or at spot points in grid mode.

    This is the one function that reads the mode.  Symbolic mode compares
    the two coefficient maps that forms() returns: both sides times the
    Vandermonde products of the cleared alphabets, read at strictly
    decreasing exponent keys (each map holds no zero coefficient), or fails
    with the witness that forms() returns in their place.  Grid
    mode runs build(at) = (lhs, terms) at each spot point of names, at
    mapping an alphabet to its integer values there, and compares lhs *
    common with the sum of num * (common / den), common being the lcm of
    the dens; a den that vanishes at the point raises ZeroDivisionError.  A
    failing witness lists the coefficients that differ, or names the point.
    """
    report.check_mode(mode)
    if mode == "symbolic":
        sides = forms()
        if isinstance(sides, str):  # Y-split summands that the Laplace merge cannot take
            return report.failed(ident, instance, sides, mode)
        return report.exact(ident, instance, *sides, mode)
    for point in spot_points(names):
        lhs, terms = build(lambda A: tuple(map(point.__getitem__, A.names)))
        common = math.lcm(*(den for _, den in terms))
        if lhs * common != sum(num * (common // den) for num, den in terms):
            return report.failed(ident, instance, f"point {point}", mode)
    return report.passed(ident, instance, mode)


# -- first overlap identity ---------------------------------------------------


def _x_split_terms(at, head, tail, l, X: VarSeq, ys, sign=1):
    """(sign * LS(head; S) * LS(tail; T), delta(T, S)) over the splits (S, T) of X with l(S) = l, at the values at(S), at(T) and ys of Y."""
    out = []
    for S, T in X.splits(l):
        s, t = at(S), at(T)
        out.append((sign * _ls_strips(head.parts, s, ys) * _ls_strips(tail.parts, t, ys), delta_of(t, s)))
    return out


def _x_split_forms(lam, head, tail, l, X: VarSeq, Y: VarSeq, sign):
    """LS(lam; X, Y), or 0 when lam is None, and the sum of _x_split_terms, both times V(X), as coefficient maps in Y.

    Times V(X), each term becomes sign (-1)^e V(S) LS(head; S) V(T)
    LS(tail; T), e counting the pairs of X whose S letter comes first
    (V(X) / delta(T, S) = (-1)^e V(S) V(T)); ls_alternant reads every LS
    times V as a coefficient map, which depends on an alphabet only through
    its length, and merge_splits sums the splits.  With Y empty the maps hold
    ints.
    """
    n, ys = len(X), Y.terms()
    lhs = {} if lam is None else ls_alternant(lam.parts, n, ys)
    rhs = {}
    head_form, tail_form = ls_alternant(head.parts, l, ys), ls_alternant(tail.parts, n - l, ys)
    merge_splits(rhs, sign * (-1) ** (l * (n - l)), head_form, tail_form)
    return lhs, nonzero(rhs)


def _conclude_x_splits(ident, instance, mode, lam, head, tail, l, X: VarSeq, Y: VarSeq, sign):
    """LS(lam; X, Y), or 0 when lam is None, against the sum of _x_split_terms.

    Symbolic mode compares _x_split_forms.
    """
    def build(at):
        ys = at(Y)
        return (0 if lam is None else _ls_strips(lam.parts, at(X), ys)), _x_split_terms(at, head, tail, l, X, ys, sign)

    forms = functools.partial(_x_split_forms, lam, head, tail, l, X, Y, sign)
    return _conclude(ident, instance, mode, forms, build, X.names + Y.names)


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
    # mu + <k^l> is a partition: for k < 0, mu_l is an entry of lam + rho_(n-k), so
    # mu_l >= lam_(n-k) >= m - k, as the index puts the cell (m - k, n - k) in lam
    head = shift_first(mu, k, l)
    tail = nu.union(lam.drop(n - k))
    return _conclude_x_splits(ident, instance, mode, lam, head, tail, l, X, Y, ov.sign)


def sorted_split_sum(lam, l, X: VarSeq, Y: VarSeq) -> MultiPoly:
    """The identity-sorting specialization of the first overlap split sum.

    Sums LS of (first l parts of lam, widened by n - l) against LS of the
    remaining parts over all splits; valid only while l stays at most n - k.
    """
    n = len(X)
    _, form = _x_split_forms(None, shift_first(lam.take(l), n - l, l), lam.drop(l), l, X, Y, 1)
    # the key nu + delta_n with coefficient c stands for c s_nu(X) V(X)
    return sum((c * schur(Partition._of(_unstair(key, n)), X) for key, c in form.items()), ZERO)


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
    r = report.exact(ident, instance, diff, target, mode)
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
    k = nu.index(m, n - l)  # at most n - l, so l <= n - k
    try:
        head = shift_first(mu, k, l)
    except ValueError:
        return report.inapplicable(ident, instance, "mu + <k^l> is not a partition")
    if head.index(m, l) != 0:
        return report.inapplicable(ident, instance, "mu + <k^l> does not have maximal index 0")
    ov = overlap(mu, nu.take(n - l - k), l, n - l - k)
    glued = ov.value.union(nu.drop(n - l - k)) if ov.is_finite else None
    return _conclude_x_splits(ident, instance, mode, glued, head, nu, l, X, Y, ov.sign)


# -- second overlap identity and walk split -----------------------------------


def _second_overlap_setup(lam, S: VarSeq, T: VarSeq, Y: VarSeq):
    """(n, m, l, k) and the report instance of the second-overlap checks."""
    n, m, l = len(S) + len(T), len(Y), len(S)
    return n, m, l, lam.index(m, n), {"lambda": lam.to_json(), "l(S)": l, "l(T)": n - l, "m": m}


def _y_split_forms(lam, S, T, Y, summands):
    """LS(lam; S u T, Y) and the sum of the summands' terms, both times V(S u T) V(Y), as int maps.

    summands maps each split (U, V) of Y to its terms (sign, reduced,
    below), reduced and below the part tuples of partitions; a term stands
    for sign delta(V, S) delta(T, U) LS(reduced; S, U) LS(below; T, V) /
    (delta(V, U) delta(T, S)), and the maps read its tuples as they come
    (ls_alternant_xy).  The maps are keyed by (alpha, beta, y), exponent
    keys on S, T and Y, y being () when Y is empty.  The left side's are
    the shuffle signs of each key of LS(lam) V(S u T) V(Y).  On the right,
    V(S u T) / delta(T, S) = (-1)^(l(S) l(T)) V(S) V(T), and each term is a
    product of the maps of LS(reduced) V(S) V(U) and LS(below) V(T) V(V).
    The terms of one split size p (_terms_by_size) are summed once, keyed
    (alpha, V key, (beta, U key)), and the two products of differences act
    on that sum (times_differences, delta(T, U) being (-1)^(l(T) p)
    prod (u - t)).  Then V(Y) / delta(V, U) = (-1)^e V(U) V(V), e counting
    the pairs of Y whose U letter comes first, so summed over the splits of
    size p this is the Laplace expansion of an alternant in Y:
    (-1)^(p (l(Y) - p)) times the U and V keys merged in sorted order with
    their sort sign.  A size that leaves one of U and V empty and has no
    difference to multiply goes straight into the right side, keyed
    (alpha, beta, U key + V key).  Returns a witness instead when two
    splits of one size carry different terms.
    """
    l, r, m = len(S), len(T), len(Y)
    lhs = {}
    for (gamma, y), c in ls_alternant_xy(lam.parts, l + r, m).items():
        for alpha, beta, sign in shuffles(gamma, l):
            lhs[alpha, beta, y] = sign * c
    sizes = _terms_by_size(summands, l, r, Y)
    if isinstance(sizes, str):
        return sizes
    rhs, flip = {}, (-1) ** (l * r)
    for p, terms in sizes.items():
        q = m - p
        direct = p in (0, m) and not (l and q or r and p)
        out = rhs if direct else {}
        for sign, reduced, below in terms:
            sign *= flip
            tail = ls_alternant_xy(below, r, q).items()
            for (alpha, u), a in ls_alternant_xy(reduced, l, p).items():
                a *= sign
                for (beta, v), b in tail:
                    key = (alpha, beta, u + v) if direct else (alpha, v, (beta, u))
                    out[key] = out[key] + a * b if key in out else a * b
        if direct:
            continue
        form = times_differences(out, q, l)
        form = times_differences({(b, u, (a, v)): c for (a, v, (b, u)), c in form.items()}, p, r)
        sign, merged = (-1) ** (r * p + p * q), {}
        for (beta, u, (alpha, v)), c in form.items():
            if (u, v) not in merged:
                merged[u, v] = sort_sign(u + v), tuple(sorted(u + v, reverse=True))
            s, y = merged[u, v]
            if s:
                key, c = (alpha, beta, y), sign * s * c
                rhs[key] = rhs[key] + c if key in rhs else c
    return lhs, nonzero(rhs)


def _terms_by_size(summands, l, r, Y):
    """{p: terms} over the split sizes p of the summands, or a witness naming two splits of one size whose terms differ.

    The splits of one size are summed as one by the Laplace merge of
    _y_split_forms, so every split of that size must carry the same terms,
    a missing split carrying none.  Terms that give 0, where the map of
    either factor is empty, are dropped before the lists are compared; a
    list shared by all the splits of its size is taken as it is.
    """
    m, out = len(Y), {}

    def nonzero_terms(terms, p):
        return collections.Counter(
            t for t in terms if ls_alternant_xy(t[1], l, p) and ls_alternant_xy(t[2], r, m - p)
        )

    for p in sorted({len(U) for U, _ in summands}):
        first, *rest = Y.splits(p)
        terms = summands.get(first, [])
        kept = None
        for split in rest:
            other = summands.get(split, [])
            if other is not terms:
                kept = nonzero_terms(terms, p) if kept is None else kept
                if nonzero_terms(other, p) != kept:
                    a, b = ((U.names, V.names) for U, V in (first, split))
                    return f"terms differ between the splits {a} and {b}"
        out[p] = terms
    return out


def _conclude_y_splits(ident, instance, mode, lam, S, T, Y, summands):
    """LS(lam; S u T, Y) against the sum over splits (U, V) of Y of the summands' terms.

    summands maps each split (U, V) to its terms, as in _y_split_forms, with
    part tuples in place of partitions.  Symbolic mode compares
    _y_split_forms; grid mode sums each split's terms over its one
    denominator, delta(V, U) delta(T, S), the strip branching rule
    (_ls_strips) taking the tuples as it takes a partition's parts.
    """
    def build(at):
        s, t, out = at(S), at(T), []
        ts = delta_of(t, s)
        for (U, V), terms in summands.items():
            u, v = at(U), at(V)
            total = sum(sign * _ls_strips(reduced, s, u) * _ls_strips(below, t, v) for sign, reduced, below in terms)
            out.append((delta_of(v, s) * delta_of(t, u) * total, delta_of(v, u) * ts))
        return _ls_strips(lam.parts, s + t, at(Y)), out

    forms = functools.partial(_y_split_forms, lam, S, T, Y, summands)
    return _conclude(ident, instance, mode, forms, build, S.names + T.names + Y.names)


def _fibers(head, c, l, Y):
    """(p, fiber) over the split sizes p of Y: the overlap fiber of head that each split of size p carries.

    The fiber lists (mu, nu, sign) with mu and nu as part tuples.  c = n - k
    is the cut at the index columns.  The split count p starts at l - c
    when the cut runs past them: smaller p would ask the fiber for a
    negative-length side.
    """
    for p in range(max(0, l - c), min(l, len(Y)) + 1):
        yield p, [(mu.parts, nu.parts, sign) for mu, nu, sign in enumerate_overlap_pairs(head, l - p, c - l + p)]


def _fiber_labels(head, c, l, Y):
    """(p, U, V, mu, nu, sign) over splits (U, V) of Y times overlap fibers of head, mu and nu as part tuples."""
    for p, fiber in _fibers(head, c, l, Y):
        for U, V in Y.splits(p):
            for mu, nu, sign in fiber:
                yield p, U, V, mu, nu, sign


def _walk_labels(head, c, l, Y):
    """The same labels from single walks: the prefix carries the fiber pair, the suffix the split of Y.

    The step times are cut at c: the first i V times and c - i H times are
    the prefix walk's, and the later V times, less c + 1, index the letters
    of Y that go to U, the rest going to V.  The walks are grouped by i, so
    each group's prefixes lie in one rectangle and one _labeled_walks pass
    labels them, each from its own step times, with mu and nu as part
    tuples (stripped); (U, V) is read off Y.splits by the suffix's V times.
    """
    stair, by_prefix = (None, *staircase(head, c)), {}
    for v_times, h_times in walk_times(len(Y) + c - l, l):
        by_prefix.setdefault(bisect.bisect(v_times, c), []).append((v_times, h_times))
    for i, walks in by_prefix.items():
        p = l - i
        split = dict(zip(itertools.combinations(range(c + 1, c + len(Y) + 1), p), Y.splits(p)))
        prefixes = ((v_times[:i], h_times[:c - i]) for v_times, h_times in walks)
        for (v_times, _), labels in zip(walks, _labeled_walks(stair, prefixes, i, c - i, stripped)):
            yield (p, *split[v_times[i:]], *labels)


def _second_overlap_summands(lam, S, T, Y, k, labels=None):
    """The summands of the triple sum by split (U, V) of Y, one term per label of labels(head, n - k, l, Y).

    A label's mu shifted down by m - k in its first l - p parts is the
    reduced partition, and nu followed by the parts of lam after the cut is
    below, both as part tuples; the shift is checked (shifted_parts).  Below
    needs no sort.  With c = n - k, nu + delta_(c-l+p) is made of entries
    of head + delta_c, so its last entry, nu's last part padded, is at
    least the smallest, lam_c >= lam_(c+1).  So nu has no zero part when
    lam_c > 0, and the tail is empty when lam_c = 0.

    Without labels they come from _fibers: a fiber depends on its split only
    through the size p, so the splits of one size share one term list, and
    each fiber is enumerated once.
    """
    n, m, l = len(S) + len(T), len(Y), len(S)
    c, tail = n - k, lam.parts[n - k:]

    def term(p, mu, nu, sign):
        return sign, shifted_parts(mu, -(m - k), l - p), nu + tail

    summands = {}
    if labels is None:
        for p, fiber in _fibers(lam.take(c), c, l, Y):
            if fiber:
                summands.update(dict.fromkeys(Y.splits(p), [term(p, *pair) for pair in fiber]))
        return summands
    for p, U, V, mu, nu, sign in labels(lam.take(c), c, l, Y):
        summands.setdefault((U, V), []).append(term(p, mu, nu, sign))
    return summands


def verify_second_overlap(lam, S: VarSeq, T: VarSeq, Y: VarSeq, mode="symbolic"):
    """Fiber sum over overlap pairs and splits of Y against LS of the union.

    Valid for every cut of the first alphabet: cutting past the index columns
    only shifts where the split count starts.
    """
    n, m, l, k, instance = _second_overlap_setup(lam, S, T, Y)
    summands = _second_overlap_summands(lam, S, T, Y, k)
    return _conclude_y_splits("second-overlap", instance, mode, lam, S, T, Y, summands)


def verify_walk_split(lam, S: VarSeq, T: VarSeq, Y: VarSeq, mode="symbolic"):
    """Single walk sum with prefix/suffix splitting against LS of the union.

    Symbolic mode merges the splits of one size (_y_split_forms), so it also
    checks that they carry the same nonzero terms: the walks of the rectangle
    are the prefix walks times the suffix walks.  Grid mode sums each split.
    """
    n, m, l, k, instance = _second_overlap_setup(lam, S, T, Y)
    summands = _second_overlap_summands(lam, S, T, Y, k, _walk_labels)
    return _conclude_y_splits("walk-split", instance, mode, lam, S, T, Y, summands)


def walk_split_bijection_check(lam, S: VarSeq, T: VarSeq, Y: VarSeq):
    """Label-for-label agreement of the walk sum with the triple sum.

    The prefix of each walk carries the fiber pair, the suffix carries the
    split of Y; the check asserts the two label families coincide, sign
    included, by report.exact on the two maps from label to sign.  Each
    triple-sum term is a fixed function of its label, so equal labels give
    equal terms.
    """
    ident = "walk-split-bijection"
    n, m, l, k, instance = _second_overlap_setup(lam, S, T, Y)
    a, b = (
        {
            (p, U.names, V.names, mu, nu): sign
            for p, U, V, mu, nu, sign in labels(lam.take(n - k), n - k, l, Y)
        }
        for labels in (_fiber_labels, _walk_labels)
    )
    return report.exact(ident, instance, a, b)


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
    # signs cancel: s_lam = (-1)^|lam| LS_lam(-X; ()), |ov| = |mu| + |nu| - mn, delta(S, T) = (-1)^(mn) delta(T, S)
    lam = ov.value if ov.is_finite else None
    # with Y empty both maps hold ints, so the check is exact in both modes
    return report.exact(ident, instance, *_x_split_forms(lam, mu, nu, m, X, VarSeq.of(), ov.sign), mode)


def _union_schur(ident, instance, mode, target, S: VarSeq, T: VarSeq, triples):
    """schur(target, S u T) * delta(S, T) against sum sign * s_mu(S) * s_nu(T) over the triples.

    The Y-split sum with Y empty: each triple is a term (sign, mu.parts,
    nu.parts) of the one split (empty, empty) of _y_split_forms, whose maps
    then hold ints, so the check is exact in both modes and the mode only
    labels the report.  As
    LS_lam(-X; ()) = (-1)^|lam| s_lam(X) and each triple has |mu| + |nu| =
    |target| + l(S) l(T), both maps are (-1)^|target| times the coefficients
    of the alternants that the two sides times V(S) V(T) become.
    """
    empty = VarSeq.of()
    summands = {(empty, empty): [(sign, mu.parts, nu.parts) for mu, nu, sign in triples]}
    return report.exact(ident, instance, *_y_split_forms(target, S, T, empty, summands), mode)


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
    summands = {}
    for p in range(0, min(m, q) + 1):
        # the terms depend on p only, so the splits of one size share one list
        at_p = []
        for lam, K in enumerate_subpartition_pairs(kappa, m - p, n + p, l):
            mu, below, sign = subpartition_to_overlap(lam, K, m - p, n + p + l)
            at_p.append((sign, shifted_parts(mu.parts, -(q - n_tilde), m - p), below.parts))
        if at_p:
            summands.update(dict.fromkeys(Y.splits(p), at_p))
    return _conclude_y_splits(ident, instance, mode, kappa.conjugate(), S, T, Y, summands)


# -- classical specializations -------------------------------------------------


def _alphabets(prefix, count):
    """VarSeq.make(prefix, j) for j = 0, ..., count, indexed by length: a sweep builds its alphabets once."""
    return [VarSeq.make(prefix, j) for j in range(count + 1)]


def _sweep_first_overlap(max_box, nvars, mode, seed):
    out = []
    xs, ys = _alphabets("x", nvars), _alphabets("y", min(nvars, 2))
    for lam in partitions_in_box(max_box, max_box):
        for n in range(1, nvars + 1):
            for m in range(0, min(nvars, 2) + 1):
                X, Y = xs[n], ys[m]
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
    ss, ts, ys = _alphabets("s", nvars), _alphabets("t", nvars), _alphabets("y", min(nvars, 2))
    for lam in partitions_in_box(max_box, max_box):
        for n in range(0, nvars + 1):
            for l in range(0, n + 1):
                for m in range(0, min(nvars, 2) + 1):
                    yield lam, ss[l], ts[n - l], ys[m]


def _sweep_second_overlap(max_box, nvars, mode, seed):
    return [verify_second_overlap(*inst, mode) for inst in _y_split_instances(max_box, nvars)]


def _sweep_walk_split(max_box, nvars, mode, seed):
    out = []
    for inst in _y_split_instances(max_box, nvars):
        out += [verify_walk_split(*inst, mode), walk_split_bijection_check(*inst)]
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
    ss, ts = _alphabets("s", nvars), _alphabets("t", nvars)
    for lam in partitions_in_box(max_box, max_box):
        for m in range(0, nvars + 1):
            for n in range(0, nvars + 1):
                if lam.length <= m + n:
                    yield lam, ss[m], ts[n]


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
        subsets = [tuple(sorted(rng.sample(range(1, n + 1), size))) for size in range(1, n)]
        instance = {"trial": trial, "n": n, "seed": seed}
        expansions = {K: laplace_expand(A, K) for K in subsets}
        out.append(report.exact("laplace", instance, expansions, dict.fromkeys(subsets, det(A))))
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
    """Sum of paired Schur functions against the product of (1 + x y), both times V(X) V(Y), exact in both modes.

    s_lam V = a_(lam + delta), so the sum is the map {(lam + delta_n,
    lam' + delta_m): 1}; the product is dual_cauchy_product.
    """
    ident = "dual-cauchy"
    n, m = len(X), len(Y)
    instance = {"l(X)": n, "l(Y)": m}
    # lam has at most l(X) rows and l(Y) columns, so neither Schur factor is 0 and both staircases exist
    total = {(staircase(lam, n), staircase(lam.conjugate(), m)): 1 for lam in partitions_in_box(m, n)}
    return report.exact(ident, instance, total, dual_cauchy_product(n, m), mode)
