"""Littlewood-Schur functions by the combinatorial, determinantal and branching routes.

The combinatorial route sums Littlewood-Richardson multiples of products of
Schur polynomials in the two alphabets.  The determinantal route evaluates a
block determinant with a Cauchy block of (x - y)^-1 entries and monomial
blocks whose shapes depend on the index of the partition; its sign depends
on the partition and both alphabet lengths jointly.  The branching route
applies the hook-Schur branching rule (Berele and Regev, Adv. Math. 64,
1987): removing one y-variable removes a vertical strip from the partition,
removing one x-variable a horizontal strip, so every LS polynomial is a sum
of monomial shifts of smaller ones.  The symbolic split sums use the
branching route, grid mode the determinant at a point (ls_value), and the
tests hold the three routes equal.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from fractions import Fraction

from . import report
from .partitions import Partition, partitions_in_box, rect
from .polyring import (
    MultiPoly,
    ONE,
    PolyMatrix,
    VarSeq,
    ZERO,
    delta_pair,
    divexact,
    det,
    e_prod,
    vandermonde,
)
from .schur import schur_ssyt


@functools.cache
def lr_coefficient(lam: Partition, mu: Partition, nu: Partition) -> int:
    """Littlewood-Richardson coefficient: skew tableaux of shape lam/mu, content nu.

    Fillings must weakly increase along rows, strictly increase down columns,
    and read (right to left, top to bottom) to a lattice word.  Zero unless
    mu fits inside lam and sizes match.
    """
    if not lam.contains(mu) or mu.size + nu.size != lam.size:
        return 0
    outer = lam.parts
    inner = mu.padded(lam.length)
    nmax = nu.length
    # cells in reverse reading order: rows top to bottom, right to left
    cells = []
    for r in range(lam.length):
        for c in range(outer[r] - 1, inner[r] - 1, -1):
            cells.append((r, c))
    filling = {}
    remaining = list(nu.parts)
    placed = [0] * nmax

    def place(pos: int) -> int:
        if pos == len(cells):
            return 1
        r, c = cells[pos]
        total = 0
        for v in range(1, nmax + 1):
            if remaining[v - 1] == 0:
                continue
            # ballot condition on the reverse reading word
            if v > 1 and placed[v - 2] <= placed[v - 1]:
                continue
            # rows weakly increase: the right neighbour was filled first
            if c + 1 < outer[r] and v > filling[(r, c + 1)]:
                continue
            # columns strictly increase: cell above exists iff c >= inner[r-1]
            if r > 0 and c >= inner[r - 1] and v <= filling[(r - 1, c)]:
                continue
            filling[(r, c)] = v
            remaining[v - 1] -= 1
            placed[v - 1] += 1
            total += place(pos + 1)
            placed[v - 1] -= 1
            remaining[v - 1] += 1
            del filling[(r, c)]
        return total

    return 1 if not cells else place(0)


@functools.cache
def ls_combinatorial(lam, X: VarSeq, Y: VarSeq):
    """Sum of c^lam_(mu,nu) s_mu(X) s_nu'(Y) over partition pairs inside lam.

    The infinite sentinel (lam is None) gives the zero polynomial.  Negation
    marks on either alphabet are honoured by the Schur factors.
    """
    if lam is None:
        return ZERO
    nx, ny = len(X), len(Y)
    total = ZERO
    for mu in partitions_in_box(lam.part(1), min(lam.length, nx) if nx else 0):
        if not lam.contains(mu):
            continue
        s_mu = schur_ssyt(mu, X)
        if s_mu.is_zero:
            continue
        rest = lam.size - mu.size
        for nu in partitions_in_box(lam.part(1), lam.length):
            if nu.size != rest or nu.part(1) > ny:
                continue
            c = lr_coefficient(lam, mu, nu)
            if not c:
                continue
            s_nu = schur_ssyt(nu.conjugate(), Y)
            if s_nu.is_zero:
                continue
            total = total + c * (s_mu * s_nu)
    return total


def ls_sign(lam: Partition, m: int, n: int) -> int:
    """Sign in front of the block determinant; depends on (lam, m, n) jointly."""
    k = lam.index(m, n)
    e = lam.take(max(n - k, 0)).size + m * k + k * (k - 1) // 2
    return -1 if e % 2 else 1


def _mvj_shape(lam: Partition, n: int, m: int):
    """Shape (k, x_exp, y_exp, cx, cy) of the Moens-Van der Jeugt determinant; None when LS vanishes.

    k is the (m, n)-index of lam, and LS vanishes when it is negative.  The
    n - k x-monomial columns carry the exponents x_exp, the m - k y-monomial
    rows the exponents y_exp; x^cx and y^cy clear the negative ones.
    """
    k = lam.index(m, n)
    if k < 0:
        return None
    lam_c = lam.conjugate()
    x_exp = [lam.part(j) + n - m - j for j in range(1, n - k + 1)]
    y_exp = [lam_c.part(i) + m - n - i for i in range(1, m - k + 1)]
    cx = max(0, -min(x_exp, default=0))
    cy = max(0, -min(y_exp, default=0))
    return k, x_exp, y_exp, cx, cy


def _check_alphabets(X: VarSeq, Y: VarSeq) -> None:
    """The determinantal and branching routes take two unmarked alphabets with distinct names."""
    names = X.names + Y.names
    if len(set(names)) != len(names):
        raise ValueError("alphabets share identifiers")
    if X.neg or Y.neg:
        raise ValueError("the determinantal and branching routes expect unmarked alphabets")


@functools.cache
def ls_determinantal(lam, X: VarSeq, Y: VarSeq):
    """LS of the negated first alphabet, via the block determinant.

    The square matrix pairs a Cauchy block of (x - y)^-1 entries with
    monomial blocks whose widths are tied to the index k; the result is zero
    when k is negative.  The determinant is expanded along the y-monomial
    rows, and every denominator is cancelled analytically against the
    prefactor before any division happens: each surviving minor is divided
    by the x-Vandermonde (exactly, being antisymmetric in the x rows), and a
    single certified division by the y-Vandermonde finishes the job.
    """
    if lam is None:
        return ZERO
    _check_alphabets(X, Y)
    n, m = len(X), len(Y)
    shape = _mvj_shape(lam, n, m)
    if shape is None:
        return ZERO
    k, x_exp, y_exp, cx, cy = shape
    vand_x = vandermonde(X)
    y_rows = tuple(range(n + 1, n + m - k + 1))
    total = ZERO
    for J in itertools.combinations(range(m), m - k):
        kept = [j for j in range(m) if j not in J]
        alt_rows = [[MultiPoly.var(Y.names[j], e + cy) for j in J] for e in y_exp]
        alt = det(PolyMatrix(alt_rows))
        if not alt:
            continue
        cleared = []
        for x in X.names:
            base = MultiPoly.var(x, cx)
            kept_factors = [MultiPoly.var(x) - MultiPoly.var(Y.names[j]) for j in kept]
            full = base
            for f in kept_factors:
                full = full * f
            row = []
            for pos, j in enumerate(kept):
                entry = base
                for q, f in enumerate(kept_factors):
                    if q != pos:
                        entry = entry * f
                row.append(entry)
            for e in x_exp:
                row.append(full * MultiPoly.var(x, e + cx))
            cleared.append(row)
        p = det(PolyMatrix(cleared))
        if not p:
            continue
        q = divexact(p, vand_x)
        extra = ONE
        for x in X.names:
            for j in J:
                extra = extra * (MultiPoly.var(x) - MultiPoly.var(Y.names[j]))
        for j in kept:
            if cy:
                extra = extra * MultiPoly.var(Y.names[j], cy)
        sign = -1 if (sum(y_rows) + sum(j + 1 for j in J)) % 2 else 1
        total = total + sign * alt * q * extra
    if (n * m) % 2:
        total = -total
    denom = vandermonde(Y)
    for x in X.names:
        if cx:
            denom = denom * MultiPoly.var(x, cx)
    for y in Y.names:
        if cy:
            denom = denom * MultiPoly.var(y, cy)
    return divexact(total, denom) * ls_sign(lam, m, n)


@functools.cache
def ls_value(lam, xs: tuple, ys: tuple):
    """ls_determinantal(lam, X, Y) at X = xs, Y = ys, from the Moens-Van der Jeugt determinant.

    At integer values the result is an int.  Each x-row of the determinant
    is multiplied by x^cx times the product of its (x - y), and each y-column
    by y^cy, which clears the Cauchy entries and the negative exponents; the
    integer determinant is then divided by V(X) V(Y) and those powers, an
    exact division certified by divexact.  Rational values are scaled by the
    lcm d of their denominators first: LS is homogeneous, so the value is
    the one at the scaled point over d^|lam|.  The values must be nonzero
    and pairwise distinct.
    """
    if lam is None:
        return 0
    d = math.lcm(*(v.denominator for v in xs + ys))
    xs, ys = (tuple(v.numerator * (d // v.denominator) for v in vs) for vs in (xs, ys))
    if d != 1:
        return Fraction(ls_value(lam, xs, ys), d**lam.size)
    n, m = len(xs), len(ys)
    shape = _mvj_shape(lam, n, m)
    if shape is None:
        return 0
    k, x_exp, y_exp, cx, cy = shape
    rows = []
    for x in xs:
        diffs = [x - y for y in ys]
        full = x**cx * math.prod(diffs)
        # full // (x - y) is exact: the factor x - y is in the product
        rows.append([full // dxy * y**cy for dxy, y in zip(diffs, ys)] + [full * x**e for e in x_exp])
    rows += [[y ** (e + cy) for y in ys] + [0] * (n - k) for e in y_exp]
    denom = math.prod(a - b for vs in (xs, ys) for a, b in itertools.combinations(vs, 2))
    denom *= math.prod(xs) ** cx * math.prod(ys) ** cy
    return ls_sign(lam, m, n) * (-1) ** (n * m) * divexact(det(rows), denom)


def _vertical_strips(parts: tuple):
    """(nu, r) for each partition nu such that parts/nu is a vertical strip of r cells."""
    for drop in itertools.product((0, 1), repeat=len(parts)):
        nu = tuple(map(operator.sub, parts, drop))
        if all(map(operator.ge, nu, nu[1:])):
            yield nu[: len(nu) - nu.count(0)], sum(drop)


def _horizontal_strips(parts: tuple):
    """(nu, r) for each partition nu such that parts/nu is a horizontal strip of r cells: nu interlaces parts."""
    below = parts[1:] + (0,)
    for nu in itertools.product(*(range(b, p + 1) for p, b in zip(parts, below))):
        yield nu[: len(nu) - nu.count(0)], sum(parts) - sum(nu)


@functools.cache
def _ls_strips(parts: tuple, xs: tuple, ys: tuple) -> MultiPoly:
    """LS of (-xs; ys) for the partition with these parts (no trailing zeros), by strip branching.

    The last y is peeled first, with a vertical strip of r cells giving
    y^r; once ys is empty, the last x, with a horizontal strip giving (-x)^r.
    """
    n, m = len(xs), len(ys)
    if len(parts) > n and parts[n] > m:
        return ZERO  # outside the (n, m)-hook
    if not (xs or ys):
        return ONE  # parts is empty: the hook test took every other shape
    total = ZERO
    if ys:
        for nu, r in _vertical_strips(parts):
            total = total + _ls_strips(nu, xs, ys[:-1]).shifted(ys[-1], r)
    else:
        for nu, r in _horizontal_strips(parts):
            total = total + _ls_strips(nu, xs[:-1], ys).shifted(xs[-1], r, (-1) ** r)
    return total


def ls_branching(lam, X: VarSeq, Y: VarSeq):
    """ls_determinantal(lam, X, Y) by the hook-Schur branching rule, with no product or division.

    LS_lam(-X; Y + y) is the sum of y^r LS_nu(-X; Y) over the nu with lam/nu
    a vertical strip of r cells, and LS_lam(-X - x; ()) the sum of (-x)^r
    LS_nu(-X; ()) over the horizontal strips; with no variable left only the
    empty partition gives 1.  Each term shifts the packed keys of a smaller
    polynomial, memoized per (parts, x names, y names).  The argument checks
    and the zero cases (lam None, or outside the (n, m)-hook) are those of
    ls_determinantal.
    """
    if lam is None:
        return ZERO
    _check_alphabets(X, Y)
    return _ls_strips(lam.parts, X.names, Y.names)


def littlewood_square_check(
    n: int, m: int, l: int, X: VarSeq, Y: VarSeq
) -> report.VerificationReport:
    """LS of a full (m+l)-wide, n-tall rectangle collapses to e(-X)^l D(Y; X)."""
    instance = {"n": n, "m": m, "l": l, "vars": list(X.names) + list(Y.names)}
    ident = "littlewood-square"
    if l < 0:
        return report.inapplicable(ident, instance, "l must be non-negative")
    if len(X) != n or len(Y) != m:
        return report.inapplicable(ident, instance, "alphabet lengths do not match n, m")
    lam = rect(m + l, n)
    rhs = e_prod(X.negated()) ** l * delta_pair(Y, X)
    routes = (
        ls_determinantal(lam, X, Y),
        ls_combinatorial(lam, X.negated(), Y),
        ls_branching(lam, X, Y),
    )
    wrong = next((p for p in routes if p != rhs), None)
    if wrong is None:
        return report.passed(ident, instance)
    return report.failed(ident, instance, str(wrong - rhs))
