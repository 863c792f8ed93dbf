"""Schur polynomials by three routes, and the strip branching rule they share with LS.

The branching route is the one the verifiers use: _ls_strips applies the
hook-Schur strip branching rule (Berele and Regev, Adv. Math. 64, 1987) to
LS of (-xs; ys).  It peels the y-variables first, one vertical strip each
(_y_peel, which the alternant forms share), then the x-variables, one
horizontal strip each; with no y-variables that is (-1)^|lam| s_lam(xs)
(Macdonald, ch. I section 5).  The same body runs on polynomial variables
(schur) and on numbers at a point (schur_value); littlewood_schur runs it
with y-variables too, and the grid builds of the split sums call it on
the integers at a spot point.  The bialternant route divides the alternant
determinant by the Vandermonde and certifies the division is exact
(schur_bialternant).  The tableau route sums content monomials over
semistandard fillings and never divides (schur_ssyt).  The three agree on
all inputs, which the test suite checks exhaustively at desk scale; the
bialternant and tableau routes are kept as cross-checks.

The factor rule and complement reciprocity form no Schur polynomial: a
symmetric polynomial is fixed by its coefficients at the monomials with
non-increasing exponents, for s_lam the Kostka numbers (Macdonald I
sections 2 and 5), and kostka_map reads them off the horizontal strips
alone.  Each check compares two such int maps through report.exact.
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
    vandermonde_of,
)


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
def _y_peel(parts: tuple, ys: tuple, n: int) -> dict:
    """The pairs (nu, c_nu) with LS_parts(-X; ys) = sum of c_nu LS_nu(-X; ()) for every n-letter alphabet X.

    The vertical-strip steps of the strip branching rule alone: the last y
    is peeled first, a vertical strip of r cells giving y^r, until no y is
    left.  A shape outside the (n, l(ys))-hook gives no pair, so every nu
    has l(nu) <= n.  The c_nu are polynomials in ys (ints when ys is
    empty), never zero at polynomial variables.  The memo holds a tuple,
    not a dict: at the spot points a dict per entry took more memory.
    """
    if len(parts) > n and parts[n] > len(ys):
        return ()  # outside the (n, m)-hook
    if not ys:
        return ((parts, 1),)
    v, ys = ys[-1], ys[:-1]
    pows = list(itertools.accumulate(itertools.repeat(v, len(parts)), operator.mul, initial=1))
    out = {}
    for nu, r in _vertical_strips(parts):
        for key, c in _y_peel(nu, ys, n):
            term = pows[r] * c if r else c
            out[key] = out[key] + term if key in out else term
    return tuple(out.items())


@functools.cache
def _ls_strips(parts: tuple, xs: tuple, ys: tuple):
    """LS of (-xs; ys) for the partition with these parts (no trailing zeros), by strip branching.

    xs and ys are ring elements: MultiPoly variables or numbers.  The
    y-variables are peeled first (_y_peel), leaving the sum of c_nu
    LS_nu(-xs; ()); then the last x is peeled, a horizontal strip of r cells
    giving (-x)^r, its powers formed once per call up to parts[0].  The
    leaves are 0 and 1, so no division is formed.
    """
    n = len(xs)
    if len(parts) > n and parts[n] > len(ys):
        return 0  # outside the (n, m)-hook
    if ys:
        total = 0
        for nu, c in _y_peel(parts, ys, n):
            total = total + c * _ls_strips(nu, xs, ())
        return total
    if not xs:
        return 1  # parts is empty: the hook test took every other shape
    v, xs = -xs[-1], xs[:-1]
    pows = list(itertools.accumulate(itertools.repeat(v, sum(parts[:1])), operator.mul, initial=1))
    total = 0
    for nu, r in _horizontal_strips(parts):
        sub = _ls_strips(nu, xs, ())
        total = total + (pows[r] * sub if r else sub)
    return total


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


@functools.cache
def kostka_map(parts: tuple, n: int) -> dict:
    """{kappa: K_(lam, kappa)} over the non-increasing kappa of length n, lam having these parts: s_lam(x_1..x_n)'s dominant map.

    A symmetric polynomial is fixed by its coefficients at the monomials
    x^kappa with kappa non-increasing (Macdonald I section 2), and for s_lam
    these are the Kostka numbers, all positive.  Peeling the last letter
    by a horizontal strip (_horizontal_strips; section 5) gives
    K_(lam, kappa) as the sum of K_(nu, kappa_1..kappa_(n-1)) over the
    strips lam/nu of kappa_n cells, kappa staying non-increasing while
    kappa_(n-1) >= kappa_n.  A shape longer than n gives the empty map.
    """
    if len(parts) > n:
        return {}
    if not n:
        return {(): 1}
    out = {}
    for nu, r in _horizontal_strips(parts):
        for kappa, c in kostka_map(nu, n - 1).items():
            if not kappa or kappa[-1] >= r:
                key = kappa + (r,)
                out[key] = out.get(key, 0) + c
    return out


def factor_rule_check(lam: Partition, m: int, X: VarSeq) -> report.VerificationReport:
    """Pulling a full m-column rectangle out of the index multiplies by e(X)^m.

    Compared on dominant maps (kostka_map): e(X)^m moves x^kappa to
    x^(kappa + m), so the map of lam + (m^n) is the map of lam with every
    kappa raised by m.
    """
    instance = {"lambda": lam.to_json(), "m": m, "vars": list(X.names)}
    ident = "factor-rule"
    if m < 0:
        return report.inapplicable(ident, instance, "m must be non-negative")
    n = len(X)
    if lam.length > n:
        return report.inapplicable(ident, instance, "partition longer than variable count")
    raised = {tuple(k + m for k in kappa): c for kappa, c in kostka_map(lam.parts, n).items()}
    return report.exact(ident, instance, kostka_map(lam.add(rect(m, n)).parts, n), raised)


def complement_reciprocity_check(
    lam: Partition, m: int, X: VarSeq, mode: str = "symbolic"
) -> report.VerificationReport:
    """Schur of the complement against the inverted-variable Schur.

    s of the (m, n)-complement of lam equals s_lam at inverted variables
    times e(X)^m.  Compared on dominant maps (kostka_map), the same in both
    modes: the right side moves x^kappa to x^(m - kappa), and by symmetry
    its coefficient at the non-increasing (m - kappa_n, ..., m - kappa_1) is
    K_(lam, kappa).
    """
    n = len(X)
    instance = {"lambda": lam.to_json(), "m": m, "vars": list(X.names), "mode": mode}
    ident = "complement-reciprocity"
    report.check_mode(mode)
    if not lam.fits_in(m, n):
        return report.inapplicable(ident, instance, f"lambda does not fit in {m}x{n}")
    reflected = {tuple(m - k for k in reversed(kappa)): c for kappa, c in kostka_map(lam.parts, n).items()}
    return report.exact(ident, instance, kostka_map(lam.complement(m, n).parts, n), reflected)
