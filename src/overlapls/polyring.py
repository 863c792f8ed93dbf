"""Exact multivariate polynomial arithmetic over arbitrary-precision integers.

Polynomials are stored sparsely as {monomial: coefficient} with monomials
encoded as sorted tuples of (variable, exponent) pairs.  There is no
fraction field: identities with denominators are multiplied through by a
Vandermonde-type product that every denominator divides, and each such
division is certified by divexact.  No floating point anywhere.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

Mono = tuple  # sorted tuple of (name, exponent) pairs, exponents > 0


class NonExactDivision(ArithmeticError):
    """Raised when an exact polynomial division leaves a remainder."""


def _mono_mul(a: Mono, b: Mono) -> Mono:
    """Merge two sorted (name, exp) tuples, adding exponents."""
    if not a:
        return b
    if not b:
        return a
    out = []
    i = j = 0
    la, lb = len(a), len(b)
    while i < la and j < lb:
        na, ea = a[i]
        nb, eb = b[j]
        if na < nb:
            out.append(a[i])
            i += 1
        elif na > nb:
            out.append(b[j])
            j += 1
        else:
            out.append((na, ea + eb))
            i += 1
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


def _mono_deg(m: Mono) -> int:
    return sum(e for _, e in m)


def _mono_cmp_key(names: tuple) -> callable:
    """Dense (degree, exponent-vector) sort key over a fixed name order."""
    pos = {n: i for i, n in enumerate(names)}

    def key(m: Mono):
        dense = [0] * len(names)
        for n, e in m:
            dense[pos[n]] = e
        return (sum(dense), tuple(dense))

    return key


class MultiPoly:
    """Canonical sparse polynomial; structural equality is mathematical equality."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        if terms is None:
            self.terms = {}
        else:
            self.terms = {m: c for m, c in terms.items() if c}

    @staticmethod
    def const(c: int) -> "MultiPoly":
        p = MultiPoly()
        if c:
            p.terms[()] = int(c)
        return p

    @staticmethod
    def var(name: str, exp: int = 1, coeff: int = 1) -> "MultiPoly":
        if exp < 0:
            raise ValueError("negative exponent")
        p = MultiPoly()
        if coeff:
            p.terms[((name, exp),) if exp else ()] = coeff
        return p

    # -- ring structure -------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if isinstance(other, int):
            other = MultiPoly.const(other)
        if isinstance(other, MultiPoly):
            return self.terms == other.terms
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __neg__(self):
        p = MultiPoly()
        p.terms = {m: -c for m, c in self.terms.items()}
        return p

    def __add__(self, other):
        if isinstance(other, int):
            other = MultiPoly.const(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        out = dict(self.terms)
        for m, c in other.terms.items():
            nc = out.get(m, 0) + c
            if nc:
                out[m] = nc
            else:
                out.pop(m, None)
        p = MultiPoly()
        p.terms = out
        return p

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, int):
            other = MultiPoly.const(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            if not other:
                return MultiPoly()
            p = MultiPoly()
            p.terms = {m: c * other for m, c in self.terms.items()}
            return p
        if not isinstance(other, MultiPoly):
            return NotImplemented
        out = {}
        if len(self.terms) > len(other.terms):
            a, b = other, self
        else:
            a, b = self, other
        for ma, ca in a.terms.items():
            for mb, cb in b.terms.items():
                m = _mono_mul(ma, mb)
                nc = out.get(m, 0) + ca * cb
                if nc:
                    out[m] = nc
                else:
                    del out[m]
        p = MultiPoly()
        p.terms = out
        return p

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- queries ---------------------------------------------------------

    def variables(self) -> set:
        vs = set()
        for m in self.terms:
            for n, _ in m:
                vs.add(n)
        return vs

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(_mono_deg(m) for m in self.terms)

    def degree_in(self, name: str) -> int:
        d = 0
        for m in self.terms:
            for n, e in m:
                if n == name and e > d:
                    d = e
        return d

    def content(self) -> int:
        """gcd of all coefficients (non-negative); 0 for the zero polynomial."""
        import math

        g = 0
        for c in self.terms.values():
            g = math.gcd(g, c)
            if g == 1:
                return 1
        return g

    def evaluate(self, point: dict) -> Fraction:
        """Exact evaluation; every variable of the polynomial must be assigned."""
        total = Fraction(0)
        for m, c in self.terms.items():
            v = Fraction(c)
            for n, e in m:
                v *= Fraction(point[n]) ** e
            total += v
        return total

    def negate_vars(self, names) -> "MultiPoly":
        """Substitute x -> -x for each x in names."""
        names = set(names)
        out = {}
        for m, c in self.terms.items():
            odd = sum(e for n, e in m if n in names) & 1
            out[m] = -c if odd else c
        p = MultiPoly()
        p.terms = out
        return p

    def invert_vars(self, names, top: int) -> "MultiPoly":
        """Substitute x -> 1/x for each x in names, then multiply by x^top.

        Reflects every exponent a of those variables to top - a; raises
        ValueError when some degree exceeds top, as the result would not be
        a polynomial.
        """
        names = set(names)
        out = {}
        for m, c in self.terms.items():
            kept = [(n, e) for n, e in m if n not in names]
            have = dict((n, e) for n, e in m if n in names)
            for n in names:
                e = top - have.get(n, 0)
                if e < 0:
                    raise ValueError(f"degree {have[n]} in {n} exceeds {top}")
                if e:
                    kept.append((n, e))
            out[tuple(sorted(kept))] = c
        return MultiPoly(out)

    # -- text ------------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        names = tuple(sorted(self.variables()))
        key = _mono_cmp_key(names)
        parts = []
        for m in sorted(self.terms, key=key, reverse=True):
            c = self.terms[m]
            factors = [f"{n}^{e}" if e > 1 else n for n, e in m]
            body = "*".join(factors)
            mag = abs(c)
            if not body:
                text = str(mag)
            elif mag == 1:
                text = body
            else:
                text = f"{mag}*{body}"
            parts.append(("- " if c < 0 else "+ ") + text)
        first = parts[0]
        out = ("-" + first[2:]) if first[0] == "-" else first[2:]
        for piece in parts[1:]:
            out += " " + piece
        return out

    def __repr__(self):
        return f"MultiPoly({self})"


ZERO = MultiPoly()
ONE = MultiPoly.const(1)


def as_poly(x) -> MultiPoly:
    if isinstance(x, MultiPoly):
        return x
    if isinstance(x, int):
        return MultiPoly.const(x)
    raise TypeError(f"cannot promote {type(x).__name__} to MultiPoly")


def divexact(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """Exact division f / g; raises NonExactDivision on any remainder."""
    f = as_poly(f)
    g = as_poly(g)
    if g.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    if f.is_zero:
        return ZERO
    names = tuple(sorted(f.variables() | g.variables()))
    pos = {n: i for i, n in enumerate(names)}
    nv = len(names)

    def dense(m: Mono):
        v = [0] * nv
        for n, e in m:
            v[pos[n]] = e
        return tuple(v)

    fd = {}
    for m, c in f.terms.items():
        e = dense(m)
        fd[(sum(e), e)] = c
    gd = {}
    for m, c in g.terms.items():
        e = dense(m)
        gd[(sum(e), e)] = c
    glead = max(gd)
    glc = gd[glead]
    gitems = list(gd.items())
    q = {}
    rem = fd
    while rem:
        lead = max(rem)
        c = rem[lead]
        qc, r = divmod(c, glc)
        if r:
            raise NonExactDivision(f"leading coefficient {c} not divisible by {glc}")
        qe = tuple(a - b for a, b in zip(lead[1], glead[1]))
        if any(x < 0 for x in qe):
            raise NonExactDivision("leading monomial not divisible")
        qk = (lead[0] - glead[0], qe)
        q[qk] = qc
        for (gdeg, ge), gc in gitems:
            ne = tuple(a + b for a, b in zip(qe, ge))
            nk = (qk[0] + gdeg, ne)
            nc = rem.get(nk, 0) - qc * gc
            if nc:
                rem[nk] = nc
            else:
                rem.pop(nk, None)
    out = {}
    for (_, e), c in q.items():
        m = tuple((names[i], x) for i, x in enumerate(e) if x)
        out[m] = c
    return MultiPoly(out)


as_fraction = as_poly


def poly_equal(f, g) -> bool:
    """Canonical-form equality."""
    return as_poly(f) == as_poly(g)


def eval_at(f, point: dict) -> Fraction:
    """Exact rational evaluation of a polynomial."""
    return as_poly(f).evaluate(point)


def grid_equal(f, g) -> bool:
    """Certified equality check on a full per-variable-degree grid.

    Two polynomials agreeing on a grid with (max degree + 1) distinct values
    per variable are identical; the grid is deterministic.
    """
    f, g = as_poly(f), as_poly(g)
    names = sorted(f.variables() | g.variables())
    sizes = [max(f.degree_in(n), g.degree_in(n)) + 1 for n in names]
    npoints = 1
    for s in sizes:
        npoints *= s
    if npoints > 500_000:
        raise ValueError(f"grid of {npoints} points exceeds certified-grid budget")
    for values in itertools.product(*(range(s) for s in sizes)):
        point = dict(zip(names, values))
        if f.evaluate(point) != g.evaluate(point):
            return False
    return True


# -- variable sequences ------------------------------------------------------


@dataclass(frozen=True)
class VarSeq:
    """Ordered sequence of distinct variable identifiers.

    Each variable may carry a negation mark (the sequence stands for -X);
    marks are applied when the variable is turned into a polynomial term.
    """

    names: tuple
    neg: frozenset = field(default=frozenset())

    def __post_init__(self):
        if len(set(self.names)) != len(self.names):
            raise ValueError(f"repeated identifiers in {self.names}")

    @staticmethod
    def make(prefix: str, count: int) -> "VarSeq":
        return VarSeq(tuple(f"{prefix}{i}" for i in range(1, count + 1)))

    @staticmethod
    def of(*names) -> "VarSeq":
        return VarSeq(tuple(names))

    def __len__(self):
        return len(self.names)

    def __iter__(self):
        return iter(self.names)

    def term(self, i: int) -> MultiPoly:
        """The i-th element (0-based) as a polynomial."""
        n = self.names[i]
        return MultiPoly.var(n, 1, -1 if n in self.neg else 1)

    def monomial(self, i: int, e: int) -> MultiPoly:
        """term(i) ** e for e >= 0."""
        n = self.names[i]
        return MultiPoly.var(n, e, -1 if (n in self.neg and e % 2) else 1)

    def negated(self) -> "VarSeq":
        return VarSeq(self.names, frozenset(set(self.names) ^ set(self.neg)))

    def concat(self, other: "VarSeq") -> "VarSeq":
        """Union of sequences: left operand first."""
        return VarSeq(self.names + other.names, self.neg | other.neg)

    def subseq(self, indices) -> "VarSeq":
        names = tuple(self.names[i] for i in indices)
        return VarSeq(names, self.neg & set(names))

    def split(self, indices):
        """Order-preserving split into (chosen, complement)."""
        chosen = set(indices)
        rest = [i for i in range(len(self.names)) if i not in chosen]
        return self.subseq(sorted(chosen)), self.subseq(rest)

    def splits(self, size: int):
        """All order-preserving splits (S, T) with len(S) == size."""
        for idx in itertools.combinations(range(len(self.names)), size):
            yield self.split(idx)


def vandermonde(X: VarSeq):
    """Product of all pairwise differences X_i - X_j over i < j; 1 if l(X) <= 1."""
    result = ONE
    for i in range(len(X)):
        for j in range(i + 1, len(X)):
            result = result * (X.term(i) - X.term(j))
    return result


def delta_pair(X: VarSeq, Y: VarSeq):
    """Product of all differences x - y for x in X, y in Y; 1 if either side is empty."""
    result = ONE
    for i in range(len(X)):
        for j in range(len(Y)):
            result = result * (X.term(i) - Y.term(j))
    return result


def sort_sign(seq) -> int:
    """Inversion parity relative to strictly decreasing order; 0 flags a repeat."""
    seq = list(seq)
    inv = 0
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] < seq[j]:
                inv += 1
            elif seq[i] == seq[j]:
                return 0
    return -1 if inv % 2 else 1


def elem_sym(r: int, X: VarSeq):
    """r-th elementary symmetric polynomial of X."""
    if r < 0 or r > len(X):
        return ZERO
    if r == 0:
        return ONE
    total = ZERO
    for idx in itertools.combinations(range(len(X)), r):
        prod = ONE
        for i in idx:
            prod = prod * X.term(i)
        total = total + prod
    return total


def e_prod(X: VarSeq):
    """Product of all elements of X (the top elementary symmetric polynomial)."""
    result = ONE
    for i in range(len(X)):
        result = result * X.term(i)
    return result


# -- matrices ----------------------------------------------------------------


class PolyMatrix:
    """Rectangular matrix of exact entries (int or MultiPoly)."""

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows):
        self.rows = [list(r) for r in rows]
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        for r in self.rows:
            if len(r) != self.ncols:
                raise ValueError("ragged matrix")

    @property
    def is_square(self):
        return self.nrows == self.ncols

    def submatrix(self, rows, cols) -> "PolyMatrix":
        return PolyMatrix([[self.rows[i][j] for j in cols] for i in rows])

    def to_json(self) -> list:
        """Nested arrays of polynomial text."""
        return [[str(e) for e in row] for row in self.rows]


def _as_matrix(A):
    return A if isinstance(A, PolyMatrix) else PolyMatrix(A)


def det_cofactor(A) -> "MultiPoly | int":
    """Determinant by cofactor expansion, memoized over column subsets."""
    A = _as_matrix(A)
    if not A.is_square:
        raise ValueError("determinant of a non-square matrix")
    n = A.nrows
    if n == 0:
        return 1
    rows = A.rows
    memo = {}

    def minor(cols: tuple):
        if len(cols) == 1:
            return rows[n - 1][cols[0]]
        got = memo.get(cols)
        if got is not None:
            return got
        r = n - len(cols)
        total = 0
        sign = 1
        for pos, c in enumerate(cols):
            entry = rows[r][c]
            if not (isinstance(entry, int) and entry == 0):
                sub = minor(cols[:pos] + cols[pos + 1 :])
                total = total + sign * entry * sub
            sign = -sign
        memo[cols] = total
        return total

    return minor(tuple(range(n)))


def det_bareiss(A) -> "MultiPoly | int":
    """Fraction-free determinant (Bareiss elimination) for polynomial entries."""
    A = _as_matrix(A)
    if not A.is_square:
        raise ValueError("determinant of a non-square matrix")
    n = A.nrows
    if n == 0:
        return 1
    M = [[as_poly(e) for e in row] for row in A.rows]
    sign = 1
    prev = ONE
    for k in range(n - 1):
        if M[k][k].is_zero:
            for r in range(k + 1, n):
                if not M[r][k].is_zero:
                    M[k], M[r] = M[r], M[k]
                    sign = -sign
                    break
            else:
                return ZERO
        pivot = M[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = divexact(pivot * M[i][j] - M[i][k] * M[k][j], prev)
            M[i][k] = ZERO
        prev = pivot
    return M[n - 1][n - 1] * sign if sign < 0 else M[n - 1][n - 1]


def det(A):
    """Exact determinant.

    Cofactor expansion for order <= 6, fraction-free elimination above; both
    routes agree (and are tested against a Leibniz-sum oracle).
    """
    A = _as_matrix(A)
    if not A.is_square:
        raise ValueError("determinant of a non-square matrix")
    if A.nrows <= 6:
        return det_cofactor(A)
    return det_bareiss(A)


def det_leibniz(A):
    """Permutation-sum determinant; an oracle, exponential on purpose."""
    A = _as_matrix(A)
    n = A.nrows
    total = 0
    for perm in itertools.permutations(range(n)):
        inv = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        prod = 1
        for i in range(n):
            prod = prod * A.rows[i][perm[i]]
        total = total + (-1) ** inv * prod
    return total


def _is_zero_entry(x) -> bool:
    if isinstance(x, int):
        return x == 0
    return x.is_zero


def _subset_sign(K, J) -> int:
    """Sign of the permutation sending row set K to slots J, order preserved."""
    return -1 if (sum(K) + sum(J)) % 2 else 1


def laplace_expand(A, K) -> "MultiPoly | int":
    """Laplace expansion of det(A) along the rows K (1-based indices)."""
    A = _as_matrix(A)
    if not A.is_square:
        raise ValueError("Laplace expansion of a non-square matrix")
    n = A.nrows
    K = tuple(K)
    if any(not (1 <= k <= n) for k in K) or list(K) != sorted(set(K)):
        raise ValueError(f"invalid row subsequence {K}")
    K0 = [k - 1 for k in K]
    Kbar = [i for i in range(n) if i not in set(K0)]
    total = 0
    for J in itertools.combinations(range(1, n + 1), len(K)):
        J0 = [j - 1 for j in J]
        Jbar = [j for j in range(n) if j not in set(J0)]
        d1 = det(A.submatrix(K0, J0))
        if _is_zero_entry(d1):
            continue
        d2 = det(A.submatrix(Kbar, Jbar))
        total = total + _subset_sign(K, J) * d1 * d2
    return total
