"""Alternant coefficient maps: antisymmetric polynomials read at their exponent keys.

The alternant a_alpha(X) = det(x_i^(alpha_j)) of a strictly decreasing
exponent vector alpha has exactly one monomial with decreasing exponents,
x^alpha, with coefficient 1.  So a sum of alternants, such as any
antisymmetric polynomial, is determined by its coefficient map
{alpha: coefficient}, and two sums are equal exactly when their maps are.
The coefficients here are ints or polynomials in a second alphabet Y, or
the keys are tuples of keys, one per alphabet, when a polynomial is
antisymmetric in each of several alphabets.  V(X), the product of
x_i - x_j over i < j, is a_delta(X).

Four facts from Macdonald, Symmetric Functions and Hall Polynomials,
ch. I, turn products into operations on keys: s_nu(X) V(X) = a_(nu+delta)(X)
(the bialternant formula, section 3; ls_alternant); for symmetric f,
a_beta f is the sum of f_gamma a_(beta+gamma) over the monomials of f
(section 3), which puts a second alphabet on keys too (ls_alternant_xy,
times_differences); the Laplace expansion of an alternant along the rows or
columns of a split of an alphabet (shuffles, which lists a key's splits in
complement order and signs each by the positions it chooses, and
merge_splits, which signs each merged pair by its sort); and the Pieri
rule for e_j (section 5), one step on a key (vertical_strips) that both
times_differences and dual_cauchy_product apply.  The overlap verifiers
compare split sums this way in symbolic mode: the sums over splits of X
with coefficients that are polynomials in Y, the sums over splits of Y and
dual Cauchy on int maps keyed in every alphabet, with no polynomial at all.
Two maps are compared through report.exact, whose failing witness lists
the entries that differ (report.coefficients_differ).
"""

from __future__ import annotations

import functools
import itertools

from .overlap import staircase
from .partitions import Partition
from .polyring import sort_sign
from .schur import _vertical_strips, _y_peel
from .walks import subsets_and_complements


@functools.cache
def ls_alternant(parts: tuple, n: int, ys: tuple) -> dict:
    """LS_parts(-X; ys) times V(X) for an n-letter X, as a coefficient map with coefficients in ys.

    Peeling the y-variables (_y_peel) leaves sum c_nu LS_nu(-X; ()) over
    l(nu) <= n, and LS_nu(-X; ()) = s_nu(-X) = (-1)^|nu| s_nu(X).  Each
    s_nu(X) V(X) is the alternant of the staircase nu + delta_n, so the map
    is {nu + delta_n: (-1)^|nu| c_nu}; it depends on X only through n.
    """
    return {
        staircase(Partition._of(nu), n): -c if sum(nu) % 2 else c
        for nu, c in _y_peel(parts, ys, n)
    }


@functools.cache
def ls_alternant_xy(parts: tuple, n: int, m: int) -> dict:
    """LS_parts(-X; Y) V(X) V(Y) for an n-letter X and an m-letter Y, as an int map keyed by (X key, Y key).

    The y-letters are peeled as _y_peel peels them, the last first, a
    vertical strip of r cells giving y^r, with the (n, j)-hook test at every
    level.  For symmetric f, f V(Y) = f a_delta(Y) is the sum of f_kappa
    a_(delta+kappa)(Y) over its monomials f_kappa y^kappa (Macdonald I
    section 3), so letter i (0-based) with r cells adds r + m - 1 - i to the
    Y exponent vector, which is then sorted with its sort sign (a repeated
    entry gives 0).  Here the first m - 1 letters come from the map for
    m - 1 letters, whose Y keys are one higher in every entry at m letters,
    and the last letter's r is inserted into them.  What is left after the
    peel, LS_nu(-X; ()) V(X) = (-1)^|nu| a_(nu+delta_n)(X), gives the X key.
    """
    if len(parts) > n and parts[n] > m:
        return {}  # outside the (n, m)-hook
    if not m:
        return {(staircase(Partition._of(parts), n), ()): -1 if sum(parts) % 2 else 1}
    out = {}
    for nu, r in _vertical_strips(parts):
        for (alpha, beta), c in ls_alternant_xy(nu, n, m - 1).items():
            beta = tuple(b + 1 for b in beta)
            if r in beta:
                continue
            i = sum(b > r for b in beta)  # r moves past the m - 1 - i smaller entries
            key, c = (alpha, beta[:i] + (r,) + beta[i:]), -c if (m - 1 - i) % 2 else c
            out[key] = out[key] + c if key in out else c
    return nonzero(out)


def nonzero(form: dict) -> dict:
    """form without its zero coefficients: two sums are equal exactly when these maps are."""
    return {key: c for key, c in form.items() if c}


def shuffles(gamma: tuple, m: int):
    """(alpha, beta, sign) over the splits of gamma into m entries alpha and the rest beta, both in gamma's order.

    gamma must strictly decrease.  Then this is the Laplace expansion of
    the alternant a_gamma(S u T) along the rows of an m-letter S:
    a_gamma(S u T) is the sum of sign a_alpha(S) a_beta(T), sign being
    sort_sign(alpha + beta).  Only cross pairs invert, an alpha entry at
    position p passing the p - j beta entries before it (j its rank in
    alpha), so the sign is read off the chosen positions P:
    (-1)^(sum P - m (m - 1) / 2).  The splits come in complement order
    (walks.subsets_and_complements); m > len(gamma) gives none.
    """
    alphas, betas = subsets_and_complements(gamma, m)
    base = m * (m - 1) // 2
    for positions, alpha, beta in zip(itertools.combinations(range(len(gamma)), m), alphas, betas):
        yield alpha, beta, -1 if (sum(positions) - base) % 2 else 1


def merge_splits(rhs: dict, sign, head: dict, tail: dict) -> None:
    """Add sign sort_sign(alpha + beta) a b at sorted(alpha u beta) to rhs, over the key pairs of head and tail.

    head and tail are the coefficient maps of A = sum a a_alpha and
    B = sum b a_beta on l(S) and l(T) letters.  Summed over the splits (S, T)
    of X, (-1)^e A(S) B(T) is (-1)^(l(S) l(T)) times that map, e counting
    the pairs of X whose S letter comes first: Laplace-expand the alternant
    with exponents alpha + beta along its first l(S) columns, and sort the
    columns.  A pair that shares an entry gives 0.
    """
    for alpha, a in head.items():
        for beta, b in tail.items():
            s = sort_sign(alpha + beta)
            if s:
                key = tuple(sorted(alpha + beta, reverse=True))
                c = sign * s * a * b
                rhs[key] = rhs[key] + c if key in rhs else c


def vertical_strips(alpha: tuple):
    """The pairs (alpha + eps, j) over the 0/1 vectors eps with j ones that keep alpha strictly decreasing.

    This is the Pieri rule (Macdonald I section 5): e_j times the alternant
    a_alpha is the sum of a_(alpha + eps) over the eps with j ones, an
    alpha + eps with a repeated entry giving 0.  The entries go in left to
    right, so no prefix that breaks the order is extended.
    """
    strips = [((), 0)]
    for a in alpha:
        strips = [(key + (a + e,), j + e) for key, j in strips for e in (0, 1) if not key or key[-1] > a + e]
    return strips


def times_differences(form: dict, width: int, l: int) -> dict:
    """The int map of prod over the width letters v of V and the l letters s of S of (v - s), times the sum that form maps.

    form is keyed (alpha, gamma, rest) and stands for the sum of
    c a_alpha(S) a_gamma(V) rest, with gamma an exponent vector in any order
    (a_gamma then being sort_sign(gamma) times the sorted alternant, 0 at a
    repeated entry).  Each v contributes prod_s (v - s) = sum_j (-1)^j
    v^(l-j) e_j(S), and for symmetric f, a_gamma f is the sum of f_kappa
    a_(gamma+kappa) over the monomials f_kappa v^kappa of f (Macdonald I
    section 3): so column i of gamma gains l - j while e_j acts on alpha by
    vertical_strips, with sign (-1)^j.  rest is carried along.
    """
    strips = {}
    for i in range(width if l else 0):  # with S empty the product is 1
        out, raised = {}, {}
        for (alpha, gamma, rest), c in form.items():
            if alpha not in strips:
                strips[alpha] = vertical_strips(alpha)
            if gamma not in raised:  # gamma with column i raised by l - j, by j
                raised[gamma] = [gamma[:i] + (gamma[i] + l - j,) + gamma[i + 1:] for j in range(l + 1)]
            gammas = raised[gamma]
            for key, j in strips[alpha]:
                key, term = (key, gammas[j], rest), -c if j % 2 else c
                out[key] = out[key] + term if key in out else term
        form = nonzero(out)
    return form


def dual_cauchy_product(n: int, m: int) -> dict:
    """V(X) V(Y) prod (1 + x y) over the n letters x of X and m letters y of Y, as an int map keyed by (X key, Y key).

    V(X) = a_delta(X) = det(x^(n-1-i)), and prod_y (1 + x y) = sum_k x^k e_k(Y)
    multiplies the row of each x; expanded by it, column i (0-based) is the
    sum of e_k(Y) times the column of exponent k + n - 1 - i.  So the columns
    go in one at a time: e_k adds a vertical k-strip to the Y key, which
    starts at delta_m (V(Y) = a_delta(Y)), and merge_splits inserts the
    exponent into the X key with the sign of the insertion, a repeated
    exponent giving 0.  The X keys are held per Y key, and zero entries are
    dropped after each column.
    """
    forms = {tuple(range(m - 1, -1, -1)): {(): 1}}  # Y key -> the X map at that key
    for i in range(n):
        out = {}
        for beta, form in forms.items():
            for key, k in vertical_strips(beta):
                merge_splits(out.setdefault(key, {}), 1, form, {(k + n - 1 - i,): 1})
        forms = {key: form for key, form in zip(out, map(nonzero, out.values())) if form}
    return {(alpha, beta): c for beta, form in forms.items() for alpha, c in form.items()}
