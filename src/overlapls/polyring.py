"""Exact multivariate polynomial arithmetic over arbitrary-precision integers.

Polynomials are stored sparsely as {monomial: coefficient}.  A monomial is
one packed int (Monagan and Pearce, "Polynomial division using dynamic
arrays, heaps, and packed exponent vectors", CASC 2007): variable names are
interned into one append-only order, the i-th name owns the BITS-wide field
at bit BITS * (i + 1), and the lowest field holds the total degree.  Adding
two keys multiplies the monomials, and integer order on keys is a lex
monomial order (later-interned names weigh more).  An exponent or total
degree above MAX_EXP would spill into the next field, so every operation
that could make one raises OverflowError before building any key.  Each
polynomial keeps an upper bound on its total degree, so a product checks
without scanning its operands.  The public monomial form, taken by
MultiPoly(mapping) and returned by monomials(), is a tuple of (name,
exponent) pairs sorted by name.

There is no fraction field and no floating point anywhere.  No verifier
divides: the identities compare alternant coefficient maps, or values
multiplied through by Vandermonde-type products.  divexact, exact division
with a remainder check, serves only the two cross-check routes that clear a
Vandermonde denominator, the determinantal Littlewood-Schur formula and the
Schur bialternant.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import threading
from dataclasses import dataclass, field
from fractions import Fraction

Mono = int  # packed exponent vector: degree in the low field, one field per interned name
BITS = 16
MAX_EXP = (1 << BITS) - 1

_NAMES = []  # interned names; the i-th owns the field at bit BITS * (i + 1)
_SHIFTS = {}  # name -> bit offset of its field
_INTERN_LOCK = threading.Lock()


class NonExactDivision(ArithmeticError):
    """Raised when an exact polynomial division leaves a remainder."""


def _shift(name) -> int:
    """Bit offset of name's field, interning name on first use."""
    s = _SHIFTS.get(name)
    if s is None:
        with _INTERN_LOCK:
            s = _SHIFTS.get(name)
            if s is None:
                _NAMES.append(name)
                s = _SHIFTS[name] = BITS * len(_NAMES)
    return s


def _check_exp(e: int, what) -> None:
    if e > MAX_EXP:
        raise OverflowError(f"{what} {e} exceeds the {BITS}-bit exponent field (max {MAX_EXP})")


def _pack(mono) -> Mono:
    """Packed key of a (name, exponent) tuple; a repeated name adds exponents."""
    key = deg = 0
    for n, e in mono:
        if e < 0:
            raise ValueError("negative exponent")
        key += e << _shift(n)
        deg += e
    _check_exp(deg, "total degree")  # bounds every field too
    return key + deg


def _fields(m: Mono):
    """(name index, exponent) for each nonzero variable field of m."""
    m >>= BITS
    i = 0
    while m:
        e = m & MAX_EXP
        if e:
            yield i, e
        m >>= BITS
        i += 1


def _degree(terms) -> int:
    """Largest total degree among some packed keys (at least one)."""
    return max(map(MAX_EXP.__and__, terms))


class MultiPoly:
    """Canonical sparse polynomial; structural equality is mathematical equality.

    terms maps packed monomials to nonzero coefficients; MultiPoly(mapping)
    and monomials() use (name, exponent) tuples instead.  No operation
    changes a polynomial after __init__ or _of, so its hash is computed once,
    on first use, and kept.
    """

    __slots__ = ("terms", "deg", "_hash")

    def __init__(self, terms=None):
        self._hash = None
        self.terms = {}
        for m, c in (terms or {}).items():
            k = _pack(m)
            c += self.terms.pop(k, 0)
            if c:
                self.terms[k] = c
        self.deg = _degree(self.terms) if self.terms else 0

    @staticmethod
    def _of(terms: dict, deg: int | None = None) -> "MultiPoly":
        """Wrap a packed {monomial: nonzero coefficient} dict without copying.

        deg, an upper bound on the total degree of every key, is kept for the
        overflow check of products; left out, it is computed exactly.
        """
        p = MultiPoly.__new__(MultiPoly)
        p._hash = None
        p.terms = terms
        p.deg = (_degree(terms) if terms else 0) if deg is None else deg
        return p

    @staticmethod
    def const(c: int) -> "MultiPoly":
        return MultiPoly._of({0: int(c)} if c else {}, 0)

    @staticmethod
    def var(name: str, exp: int = 1, coeff: int = 1) -> "MultiPoly":
        if exp < 0:
            raise ValueError("negative exponent")
        _check_exp(exp, f"exponent of {name}")
        if not coeff:
            return MultiPoly()
        return MultiPoly._of({(exp << _shift(name)) + exp if exp else 0: coeff}, exp)

    def monomials(self) -> dict:
        """{(name, exponent) pairs sorted by name: coefficient}, the form MultiPoly() takes."""
        return {
            tuple(sorted((_NAMES[i], e) for i, e in _fields(m))): c
            for m, c in self.terms.items()
        }

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
        if self._hash is None:
            # a constant equals its int (zero equals 0), so it hashes as that int
            if not self.terms:
                self._hash = 0
            elif len(self.terms) == 1 and 0 in self.terms:
                self._hash = hash(self.terms[0])
            else:
                self._hash = hash(frozenset(self.terms.items()))
        return self._hash

    def __neg__(self):
        return MultiPoly._of({m: -c for m, c in self.terms.items()}, self.deg)

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
        return MultiPoly._of(out, max(self.deg, other.deg))

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 1:
                return self  # no operation changes a polynomial, so the product may be self
            if not other:
                return MultiPoly()
            return MultiPoly._of({m: c * other for m, c in self.terms.items()}, self.deg)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        if not (self.terms and other.terms):
            return MultiPoly()
        # The product's total degree bounds every field of every product key.
        # The kept degrees may be loose bounds, so only the exact ones can reject.
        deg = self.deg + other.deg
        if deg > MAX_EXP:
            deg = _degree(self.terms) + _degree(other.terms)
            _check_exp(deg, "total degree of a product")
        if len(self.terms) > len(other.terms):
            a, b = other, self
        else:
            a, b = self, other
        if len(a.terms) == 1:
            # one fixed key added to distinct keys keeps them distinct: no merge, no zero
            ((ma, ca),) = a.terms.items()
            if not ma and ca == 1:
                return b  # a is the constant 1
            if len(b.terms) == 1:
                ((mb, cb),) = b.terms.items()  # no comprehension frame for one product
                return MultiPoly._of({ma + mb: ca * cb}, deg)
            return MultiPoly._of({ma + mb: ca * cb for mb, cb in b.terms.items()}, deg)
        out = {}
        for ma, ca in a.terms.items():
            for mb, cb in b.terms.items():
                m = ma + mb
                nc = out.get(m, 0) + ca * cb
                if nc:
                    out[m] = nc
                else:
                    del out[m]
        return MultiPoly._of(out, deg)

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
        used = 0
        for m in self.terms:
            used |= m  # a field of the union is nonzero iff it is in some key
        return {_NAMES[i] for i, _ in _fields(used)}

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return _degree(self.terms) if self.terms else -1

    def evaluate(self, point: dict) -> Fraction:
        """Exact evaluation; every variable of the polynomial must be assigned.

        With L the lcm of the denominators, each value is a / L, so each
        term times L ** degree is an integer: the sum runs over integers,
        with a ** e cached per call, and one Fraction is made at the end.
        """
        if not self.terms:
            return Fraction(0)
        used = 0
        for m in self.terms:
            used |= m
        values = {i: Fraction(point[_NAMES[i]]) for i, _ in _fields(used)}
        L = math.lcm(*(v.denominator for v in values.values()))
        nums = {i: v.numerator * (L // v.denominator) for i, v in values.items()}
        top = _degree(self.terms)
        powers = {}  # (name index, exponent) -> numerator ** exponent
        total = 0
        for m, c in self.terms.items():
            v = c * L ** (top - (m & MAX_EXP))
            for ie in _fields(m):
                p = powers.get(ie)
                if p is None:
                    p = powers[ie] = nums[ie[0]] ** ie[1]
                v *= p
            total += v
        return Fraction(total, L**top)

    # -- text ------------------------------------------------------------

    def __str__(self):
        """Terms by descending (total degree, exponents over the sorted variable names)."""
        if not self.terms:
            return "0"
        names = sorted(self.variables())
        shifts = [_SHIFTS[n] for n in names]
        parts = []
        # distinct keys have distinct exponents, so the coefficient never breaks a tie
        for _, exps, c in sorted(
            ((m & MAX_EXP, [(m >> s) & MAX_EXP for s in shifts], c) for m, c in self.terms.items()), reverse=True
        ):
            body = "*".join(f"{n}^{e}" if e > 1 else n for n, e in zip(names, exps) if e)
            mag = abs(c)
            if not body:
                text = str(mag)
            elif mag == 1:
                text = body
            else:
                text = f"{mag}*{body}"
            parts.append(("- " if c < 0 else "+ ") + text)
        out = " ".join(parts)
        return out[2:] if out[0] == "+" else "-" + out[2:]

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


def divexact(f, g):
    """Exact division f / g; raises NonExactDivision on any remainder.

    Two ints give an int, so the cross-check routes divide values at integer
    points with the same remainder check.  Polynomials use long division by
    leading terms in the lex order of packed keys.  Each quotient monomial is
    certified field by field against g's leading monomial before the key
    subtraction, so no borrow can cross a field.
    """
    if type(f) is int and type(g) is int:
        q, r = divmod(f, g)
        if r:
            raise NonExactDivision(f"{f} not divisible by {g}")
        return q
    f = as_poly(f)
    g = as_poly(g)
    if g.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    if f.is_zero:
        return ZERO
    glead = max(g.terms)
    glc = g.terms[glead]
    gneeds = [(BITS * (i + 1), e) for i, e in _fields(glead)]
    gdeg = _degree(g.terms)
    gitems = list(g.terms.items())
    q = {}
    rem = dict(f.terms)
    while rem:
        lead = max(rem)
        c = rem[lead]
        qc, r = divmod(c, glc)
        if r:
            raise NonExactDivision(f"leading coefficient {c} not divisible by {glc}")
        for s, e in gneeds:
            if (lead >> s) & MAX_EXP < e:
                raise NonExactDivision("leading monomial not divisible")
        qm = lead - glead
        _check_exp((qm & MAX_EXP) + gdeg, "total degree of a partial product")
        q[qm] = qc
        for gm, gc in gitems:
            nk = qm + gm
            nc = rem.get(nk, 0) - qc * gc
            if nc:
                rem[nk] = nc
            else:
                del rem[nk]
    return MultiPoly._of(q)


as_fraction = as_poly


def eval_at(f, point: dict) -> Fraction:
    """Exact rational evaluation of a polynomial."""
    return as_poly(f).evaluate(point)


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

    @functools.cache
    def terms(self) -> tuple:
        """Every element as a polynomial, in order.

        Memoized like splits: the strip branching memo keys on these terms,
        and the same objects hash once.
        """
        return tuple(map(self.term, range(len(self.names))))

    def monomial(self, i: int, e: int) -> MultiPoly:
        """term(i) ** e for e >= 0."""
        n = self.names[i]
        return MultiPoly.var(n, e, -1 if (n in self.neg and e % 2) else 1)

    def negated(self) -> "VarSeq":
        return VarSeq(self.names, frozenset(set(self.names) ^ set(self.neg)))

    def subseq(self, indices) -> "VarSeq":
        names = tuple(self.names[i] for i in indices)
        return VarSeq(names, self.neg & set(names))

    def split(self, indices):
        """Order-preserving split into (chosen, complement)."""
        chosen = set(indices)
        rest = [i for i in range(len(self.names)) if i not in chosen]
        return self.subseq(sorted(chosen)), self.subseq(rest)

    @functools.cache
    def splits(self, size: int) -> tuple:
        """All order-preserving splits (S, T) with len(S) == size.

        Memoized: a grid check walks the same splits once per spot point.
        """
        return tuple(self.split(idx) for idx in itertools.combinations(range(len(self.names)), size))


def vandermonde_of(xs):
    """prod_(i<j) (xs_i - xs_j) over ring elements (MultiPolys or ints); 1 for fewer than two."""
    return math.prod(a - b for a, b in itertools.combinations(xs, 2))


def delta_of(xs, ys):
    """prod (x - y) over x in xs, y in ys, ring elements (MultiPolys or ints); 1 if either is empty."""
    return math.prod(x - y for x, y in itertools.product(xs, ys))


def delta_pair(X: VarSeq, Y: VarSeq):
    """delta_of the terms of X and Y, as a polynomial; ONE if either side is empty."""
    return as_poly(delta_of(X.terms(), Y.terms()))


def sort_sign(seq) -> int:
    """Inversion parity relative to strictly decreasing order; 0 flags a repeat."""
    seq = tuple(seq)
    if len(set(seq)) < len(seq):
        return 0
    inversions = sum(itertools.starmap(operator.lt, itertools.combinations(seq, 2)))
    return -1 if inversions % 2 else 1


def e_prod(X: VarSeq):
    """Product of all elements of X (the top elementary symmetric polynomial)."""
    return math.prod(X.terms(), start=ONE)


# -- matrices ----------------------------------------------------------------


class PolyMatrix(list):
    """Rectangular matrix of exact entries (int or MultiPoly), as the list of its rows.

    The rows are copied, and a ragged matrix is rejected; det and
    laplace_expand take a PolyMatrix or any list of rows.
    """

    def __init__(self, rows):
        super().__init__(map(list, rows))
        if any(len(r) != len(self[0]) for r in self):
            raise ValueError("ragged matrix")


def det(A) -> "MultiPoly | int":
    """Exact determinant by cofactor expansion along the rows, top first.

    Each minor on the bottom rows is keyed by its column subset and computed
    once, so order n costs at most n * 2^(n-1) products and no division.  An
    empty matrix gives 1.  The result (an int or a MultiPoly) is falsy
    exactly when it is zero.  The tests hold it equal to the Leibniz
    permutation sum.
    """
    n = len(A)
    if any(len(r) != n for r in A):
        raise ValueError("determinant of a non-square matrix")
    if n == 0:
        return 1
    memo = {}

    def minor(cols: tuple):
        if len(cols) == 1:
            return A[n - 1][cols[0]]
        got = memo.get(cols)
        if got is not None:
            return got
        r = n - len(cols)
        total = 0
        sign = 1
        for pos, c in enumerate(cols):
            entry = A[r][c]
            if entry:
                sub = minor(cols[:pos] + cols[pos + 1 :])
                total = total + sign * entry * sub
            sign = -sign
        memo[cols] = total
        return total

    return minor(tuple(range(n)))


def _subset_sign(K, J) -> int:
    """Sign of the permutation sending row set K to slots J, order preserved."""
    return -1 if (sum(K) + sum(J)) % 2 else 1


def laplace_expand(A, K) -> "MultiPoly | int":
    """Laplace expansion of det(A) along the rows K (1-based indices)."""
    n = len(A)
    if any(len(r) != n for r in A):
        raise ValueError("Laplace expansion of a non-square matrix")
    K = tuple(K)
    if any(not (1 <= k <= n) for k in K) or list(K) != sorted(set(K)):
        raise ValueError(f"invalid row subsequence {K}")
    K0 = [k - 1 for k in K]
    Kbar = [i for i in range(n) if i not in set(K0)]
    total = 0
    for J in itertools.combinations(range(1, n + 1), len(K)):
        J0 = [j - 1 for j in J]
        Jbar = [j for j in range(n) if j not in set(J0)]
        d1 = det([[A[i][j] for j in J0] for i in K0])
        if not d1:
            continue
        d2 = det([[A[i][j] for j in Jbar] for i in Kbar])
        total = total + _subset_sign(K, J) * d1 * d2
    return total
