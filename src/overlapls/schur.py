"""Schur polynomials by three routes, and the strip branching rule they share with LS.

The branching route is the one the verifiers use: _ls_strips applies the
hook-Schur strip branching rule (Berele and Regev, Adv. Math. 64, 1987) to
LS of (-xs; ys), and with no y-variables that is (-1)^|lam| s_lam(xs)
(Macdonald, ch. I section 5), one horizontal strip per x-variable.  The same
body runs on polynomial variables (schur) and on numbers at a point
(schur_value); littlewood_schur runs it with y-variables too.  The
bialternant route divides the alternant determinant by the Vandermonde and
certifies the division is exact (schur_bialternant).  The tableau route
sums content monomials over semistandard fillings and never divides
(schur_ssyt).  The three agree on all inputs, which the test suite checks
exhaustively at desk scale; the bialternant and tableau routes are kept as
cross-checks.
"""

from __future__ import annotations

import functools
import itertools
import operator

from . import report
from .partitions import Partition, rect
from .polyring import (
    ONE,
    VarSeq,
    ZERO,
    as_poly,
    det,
    divexact,
    e_prod,
    vandermonde_of,
)


@functools.cache
def schur_bialternant(lam: Partition, X: VarSeq):
    """det(x_i^(lam_j + n - j)) over the Vandermonde prod_(i<j) (x_i - x_j); negation marks are honoured.

    Zero when the partition is longer than X.  The division is certified
    exact by divexact; a remainder would signal a bug and raises.
    """
    xs = X.terms()
    n = len(xs)
    if lam.length > n:
        return ZERO
    p = lam.padded(n)
    alternant = det([[x ** (p[j] + n - 1 - j) for j in range(n)] for x in xs])
    return as_poly(divexact(alternant, vandermonde_of(xs)))


@functools.cache
def schur_ssyt(lam: Partition, X: VarSeq):
    """Sum of content monomials over semistandard tableaux of shape lam.

    Rows weakly increase, columns strictly increase, entries range over one
    symbol per variable.  Needs no distinctness and no division.
    """
    n = len(X)
    if lam.length > n:
        return ZERO
    total = ZERO
    for content in _ssyt_contents(lam, n):
        mono = ONE
        for i, e in enumerate(content):
            if e:
                mono = mono * X.monomial(i, e)
        total = total + mono
    return total


def _ssyt_contents(lam: Partition, n: int):
    """Yield the content vector of every semistandard filling of lam with 1..n."""
    shape = lam.parts
    rows = [[0] * r for r in shape]

    def fill(r, c):
        if r == len(shape):
            yield tuple(count)
            return
        nr, nc = (r, c + 1) if c + 1 < shape[r] else (r + 1, 0)
        lo = rows[r][c - 1] if c else 1
        if r and c < shape[r - 1]:
            lo = max(lo, rows[r - 1][c] + 1)
        for v in range(lo, n + 1):
            rows[r][c] = v
            count[v - 1] += 1
            yield from fill(nr, nc)
            count[v - 1] -= 1

    count = [0] * n
    if not shape:
        yield tuple(count)
        return
    yield from fill(0, 0)


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
def _ls_strips(parts: tuple, xs: tuple, ys: tuple):
    """LS of (-xs; ys) for the partition with these parts (no trailing zeros), by strip branching.

    xs and ys are ring elements: MultiPoly variables or numbers.  The last y is
    peeled first, a vertical strip of r cells giving y^r; once ys is empty,
    the last x, a horizontal strip giving (-x)^r.  The powers are formed
    once per call, up to the largest strip: l(parts) cells for a vertical
    strip, parts[0] for a horizontal one.  The leaves are 0 and 1, so no
    division is formed.
    """
    n, m = len(xs), len(ys)
    if len(parts) > n and parts[n] > m:
        return 0  # outside the (n, m)-hook
    if not (xs or ys):
        return 1  # parts is empty: the hook test took every other shape
    if ys:
        v, ys, strips, top = ys[-1], ys[:-1], _vertical_strips(parts), len(parts)
    else:
        v, xs, strips, top = -xs[-1], xs[:-1], _horizontal_strips(parts), sum(parts[:1])
    pows = list(itertools.accumulate(itertools.repeat(v, top), operator.mul, initial=1))
    total = 0
    for nu, r in strips:
        sub = _ls_strips(nu, xs, ys)
        total = total + (pows[r] * sub if r else sub)
    return total


@functools.cache
def schur(lam: Partition, X: VarSeq):
    """Schur polynomial by strip branching (schur_value on the variables); negation marks are honoured."""
    return as_poly(schur_value(lam, X.terms()))


def schur_value(lam: Partition, values):
    """s_lam at the values, (-1)^|lam| LS_lam(-values; ()) by horizontal-strip branching (_ls_strips).

    values may be ints, Fractions or polynomial variables, repeated or zero;
    nothing is divided, so an int point gives an int.  The memo of
    _ls_strips holds the values of the smaller shapes.
    """
    s = _ls_strips(lam.parts, tuple(values), ())
    return -s if lam.size % 2 else s


def factor_rule_check(lam: Partition, m: int, X: VarSeq) -> report.VerificationReport:
    """Pulling a full m-column rectangle out of the index multiplies by e(X)^m."""
    instance = {"lambda": lam.to_json(), "m": m, "vars": list(X.names)}
    ident = "factor-rule"
    if m < 0:
        return report.inapplicable(ident, instance, "m must be non-negative")
    n = len(X)
    if lam.length > n:
        return report.inapplicable(ident, instance, "partition longer than variable count")
    lhs = schur(lam.add(rect(m, n)), X)
    rhs = e_prod(X) ** m * schur(lam, X)
    if lhs == rhs:
        return report.passed(ident, instance)
    return report.failed(ident, instance, str(lhs - rhs))


def complement_reciprocity_check(
    lam: Partition, m: int, X: VarSeq, mode: str = "symbolic"
) -> report.VerificationReport:
    """Schur of the complement against the inverted-variable Schur.

    s of the (m, n)-complement of lam equals s_lam at inverted variables
    times e(X)^m.  The right side is computed as a polynomial, reflecting
    each exponent a of s_lam to m - a, so both modes compare the two
    polynomials exactly.
    """
    n = len(X)
    instance = {"lambda": lam.to_json(), "m": m, "vars": list(X.names), "mode": mode}
    ident = "complement-reciprocity"
    if not lam.fits_in(m, n):
        return report.inapplicable(ident, instance, f"lambda does not fit in {m}x{n}")
    report.check_mode(mode)
    lhs = schur(lam.complement(m, n), X)
    rhs = schur(lam, X).invert_vars(X.names, m)
    if lhs == rhs:
        return report.passed(ident, instance)
    return report.failed(ident, instance, str(lhs - rhs))
