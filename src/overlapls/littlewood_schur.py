"""Littlewood-Schur functions by the combinatorial, determinantal and branching routes.

The combinatorial route sums Littlewood-Richardson multiples of products of
Schur polynomials in the two alphabets.  The determinantal route expands
the Moens-Van der Jeugt block determinant, a Cauchy block of (x - y)^-1
entries with monomial blocks whose shapes depend on the index of the
partition; its sign depends on the partition and both alphabet lengths
jointly (_mvj, run by ls_determinantal).  The branching route applies the
hook-Schur branching rule (Berele and Regev, Adv. Math. 64, 1987): removing
one y-variable removes a vertical strip from the partition, removing one
x-variable a horizontal strip.  One body (schur._ls_strips, which also gives
every Schur value) runs it on polynomial variables (ls_branching) and on
integers at a point (ls_value), so every LS factor of the split sums, in
both verification modes, comes from the branching route, and the tests hold
the three routes equal.
"""

from __future__ import annotations

import functools
import itertools
import math

from . import report
from .partitions import Partition, partitions_in_box, rect
from .polyring import (
    VarSeq,
    ZERO,
    as_poly,
    delta_of,
    delta_pair,
    divexact,
    det,
    e_prod,
    vandermonde_of,
)
from .schur import _ls_strips, schur_ssyt


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

    Negation marks on either alphabet are honoured by the Schur factors.
    """
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


def _sign_exponent(lam: Partition, m: int, n: int, k: int) -> int:
    """e with (-1)^e the sign in front of the block determinant, k being the (m, n)-index of lam."""
    return lam.take(max(n - k, 0)).size + m * k + k * (k - 1) // 2


def ls_sign(lam: Partition, m: int, n: int) -> int:
    """Sign in front of the block determinant; depends on (lam, m, n) jointly."""
    return -1 if _sign_exponent(lam, m, n, lam.index(m, n)) % 2 else 1


def _check_alphabets(X: VarSeq, Y: VarSeq) -> None:
    """The determinantal and branching routes take two unmarked alphabets with distinct names."""
    names = X.names + Y.names
    if len(set(names)) != len(names):
        raise ValueError("alphabets share identifiers")
    if X.neg or Y.neg:
        raise ValueError("the determinantal and branching routes expect unmarked alphabets")


def _mvj(lam: Partition, xs: tuple, ys: tuple):
    """LS_lam(-xs; ys) from the Moens-Van der Jeugt determinant; ls_determinantal runs it on variables.

    The matrix pairs a Cauchy block of (x - y)^-1 entries with x-monomial
    columns and y-monomial rows whose numbers are tied to the (m, n)-index
    k; LS vanishes when k is negative.  The determinant is expanded along the
    y-monomial rows, one y-column subset J at a time: the y-alternant on J,
    times the x-minor with each x-row multiplied by the product of its
    remaining (x - y) (which clears the Cauchy entries) and divided exactly
    by V(xs), times the (x - y) factors of J.  One certified division by
    V(ys) finishes.  The sign in front of the determinant (ls_sign) is
    folded into each term's.  Every exponent is non-negative: k + 1 failed
    the index test, so the cell (m - k, n - k) lies in lam.
    """
    n, m = len(xs), len(ys)
    k = lam.index(m, n)
    if k < 0:
        return 0
    lam_c = lam.conjugate()
    x_exp = [lam.part(j) + n - m - j for j in range(1, n - k + 1)]
    y_exp = [lam_c.part(i) + m - n - i for i in range(1, m - k + 1)]
    diffs = [[x - y for y in ys] for x in xs]
    x_pows = [[x**e for e in x_exp] for x in xs]
    vand_x = vandermonde_of(xs)
    # each term's sign: y-rows n+1..n+m-k against columns J (1-based), times (-1)^(nm) and ls_sign
    parity = sum(range(n + 1, n + m - k + 1)) + (m - k) + n * m + _sign_exponent(lam, m, n, k)
    total = 0
    for J in itertools.combinations(range(m), m - k):
        alt = det([[ys[j] ** e for j in J] for e in y_exp])
        if not alt:
            continue
        kept = [j for j in range(m) if j not in J]
        cleared = []
        for d, pows in zip(diffs, x_pows):
            dk = [d[j] for j in kept]
            full = math.prod(dk)
            row = [math.prod(dk[:p] + dk[p + 1 :]) for p in range(len(dk))]
            cleared.append(row + [full * xe for xe in pows])
        p = det(cleared)
        if not p:
            continue
        term = alt * divexact(p, vand_x) * delta_of(xs, [ys[j] for j in J])
        total = total - term if (parity + sum(J)) % 2 else total + term
    return divexact(total, vandermonde_of(ys))


@functools.cache
def ls_determinantal(lam: Partition, X: VarSeq, Y: VarSeq):
    """LS of the negated first alphabet, via the Moens-Van der Jeugt block determinant (_mvj)."""
    _check_alphabets(X, Y)
    return as_poly(_mvj(lam, X.terms(), Y.terms()))


@functools.cache
def ls_branching(lam: Partition, X: VarSeq, Y: VarSeq):
    """ls_determinantal(lam, X, Y) by the hook-Schur branching rule, with products but no division.

    LS_lam(-X; Y + y) is the sum of y^r LS_nu(-X; Y) over the nu with lam/nu
    a vertical strip of r cells, and LS_lam(-X - x; ()) the sum of (-x)^r
    LS_nu(-X; ()) over the horizontal strips; with no variable left only the
    empty partition gives 1 (_ls_strips, memoized per parts and variables).
    Each product has a one-term factor, so it only shifts packed keys.  The
    argument checks, the zero case (outside the (n, m)-hook) and the memo
    per (lam, X, Y) are those of ls_determinantal; the memo keeps a repeated
    call from hashing the polynomial variables of the _ls_strips key.
    """
    _check_alphabets(X, Y)
    return as_poly(_ls_strips(lam.parts, X.terms(), Y.terms()))


def ls_value(lam: Partition, xs: tuple, ys: tuple):
    """ls_determinantal(lam, X, Y) at the values X = xs, Y = ys, by strip branching (_ls_strips).

    An int at integer values, with no determinant and no division; the
    memo of _ls_strips holds the values of the smaller shapes.
    """
    return _ls_strips(lam.parts, xs, ys)


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
