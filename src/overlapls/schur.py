"""Schur polynomials by two independent routes.

The bialternant route divides the alternant determinant by the Vandermonde
and certifies the division is exact; one body (_bialternant) runs it on
polynomial variables (schur_bialternant) and on integers at a point
(schur_value).  The tableau route sums content
monomials over semistandard fillings and never divides.  The two agree on
all inputs, which the test suite checks exhaustively at desk scale.
"""

from __future__ import annotations

import functools

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


def _bialternant(lam: Partition, xs: tuple):
    """det(x_i^(lam_j + n - j)) over the Vandermonde prod_(i<j) (x_i - x_j), over MultiPolys or ints.

    Zero when the partition is longer than xs.  The division is certified
    exact by divexact; a remainder would signal a bug and raises.
    """
    n = len(xs)
    if lam.length > n:
        return 0
    p = lam.padded(n)
    alternant = det([[x ** (p[j] + n - 1 - j) for j in range(n)] for x in xs])
    return divexact(alternant, vandermonde_of(xs))


@functools.cache
def schur_bialternant(lam: Partition, X: VarSeq):
    """Quotient of the alternant by the Vandermonde (_bialternant); negation marks are honoured."""
    return as_poly(_bialternant(lam, X.terms()))


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


def schur(lam: Partition, X: VarSeq):
    """Schur polynomial via the cheaper route for the given size."""
    if len(X) <= 5:
        return schur_bialternant(lam, X)
    return schur_ssyt(lam, X)


def schur_value(lam: Partition, values):
    """Schur polynomial at pairwise distinct integer values, an int.

    The integer alternant over the integer Vandermonde, an exact division
    certified by divexact (which refuses a rational value with TypeError), so
    arbitrary variable counts stay cheap.  values may be any sequence of
    ints, and results are cached.
    """
    return _schur_at(lam, tuple(values))


@functools.cache
def _schur_at(lam: Partition, values: tuple):
    if len(set(values)) != len(values):
        raise ValueError("alternant evaluation needs distinct values")
    return _bialternant(lam, values)


def factor_rule_check(lam: Partition, m: int, X: VarSeq) -> report.VerificationReport:
    """Pulling a full m-column rectangle out of the index multiplies by e(X)^m."""
    instance = {"lambda": lam.to_json(), "m": m, "vars": list(X.names)}
    ident = "factor-rule"
    if m < 0:
        return report.inapplicable(ident, instance, "m must be non-negative")
    n = len(X)
    if lam.length > n:
        return report.inapplicable(ident, instance, "partition longer than variable count")
    lhs = schur_bialternant(lam.add(rect(m, n)), X)
    rhs = e_prod(X) ** m * schur_bialternant(lam, X)
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
    lhs = schur_bialternant(lam.complement(m, n), X)
    rhs = schur_bialternant(lam, X).invert_vars(X.names, m)
    if lhs == rhs:
        return report.passed(ident, instance)
    return report.failed(ident, instance, str(lhs - rhs))
