import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from overlapls.polyring import (
    MAX_EXP,
    MultiPoly,
    NonExactDivision,
    PolyMatrix,
    VarSeq,
    ZERO,
    ONE,
    delta_pair,
    det,
    det_leibniz,
    divexact,
    e_prod,
    elem_sym,
    eval_at,
    laplace_expand,
    poly_equal,
    sort_sign,
    vandermonde,
)


def x(name, e=1):
    return MultiPoly.var(name, e)


class TestMultiPoly:
    def test_ring_axioms_random(self):
        rng = random.Random(7)
        names = ["a", "b", "c"]

        def rand_poly():
            p = ZERO
            for _ in range(rng.randint(0, 5)):
                m = ONE * rng.randint(-4, 4)
                for n in names:
                    m = m * MultiPoly.var(n, rng.randint(0, 3))
                p = p + m
            return p

        for _ in range(25):
            f, g, h = rand_poly(), rand_poly(), rand_poly()
            assert f + g == g + f
            assert f * g == g * f
            assert (f + g) * h == f * h + g * h
            assert f - f == ZERO

    def test_canonical_equality(self):
        f = (x("x") + x("y")) ** 2
        g = x("x", 2) + 2 * x("x") * x("y") + x("y", 2)
        assert poly_equal(f, g)
        assert f == g
        assert hash(f) == hash(g)

    def test_constants_hash_as_their_ints(self):
        three, zero = MultiPoly.const(3), MultiPoly()
        assert three == 3 and zero == 0
        assert hash(three) == hash(3) and hash(zero) == hash(0)
        assert {three, 3} == {3} and len({zero, 0, ZERO}) == 1
        table = {3: "three", 0: "zero"}
        assert table[three] == "three" and table[zero] == "zero"
        table[MultiPoly.const(-1)] = "minus one"
        assert table[-1] == "minus one"

    def test_hash_is_computed_once_and_kept(self):
        f = (x("x") + x("y")) * (x("x") - x("y"))
        g = MultiPoly({(("x", 2),): 1, (("y", 2),): -1})
        assert f == g and hash(f) == hash(g)
        assert hash(f) == hash(f) and f._hash == hash(g)

    def test_one_term_product(self):
        f = x("x", 2) - 3 * x("x") * x("y") + 5
        m = MultiPoly({(("x", 1), ("y", 2)): -2})
        expect = MultiPoly({(("x", 3), ("y", 2)): -2, (("x", 2), ("y", 3)): 6, (("x", 1), ("y", 2)): -10})
        assert f * m == expect and m * f == expect
        assert (f * m).monomials() == expect.monomials()
        assert m * m == MultiPoly({(("x", 2), ("y", 4)): 4})
        assert f * ZERO == ZERO and ZERO * m == ZERO

    def test_pow(self):
        f = x("x") + 1
        assert f ** 0 == ONE
        assert f ** 3 == f * f * f

    def test_str_sorted_monomials(self):
        f = x("x1", 2) * x("y1") - 2 * x("x1") * x("x2") + MultiPoly.const(3)
        assert str(f) == "x1^2*y1 - 2*x1*x2 + 3"

    def test_evaluate(self):
        f = vandermonde(VarSeq.of("x1", "x2"))
        assert eval_at(f, {"x1": Fraction(1, 2), "x2": Fraction(1, 3)}) == Fraction(1, 6)

    def test_evaluate_requires_assignment(self):
        with pytest.raises(KeyError):
            eval_at(x("x") + x("y"), {"x": 1})

    def test_negate_vars(self):
        f = x("x", 2) + x("x") * x("y") + x("y")
        g = f.negate_vars(["x"])
        assert g == x("x", 2) - x("x") * x("y") + x("y")

    def test_invert_vars(self):
        f = x("x", 2) + x("x") * x("y") + 1
        assert f.invert_vars(["x"], 2) == 1 + x("x") * x("y") + x("x", 2)
        assert f.invert_vars(["x"], 3) == x("x") + x("x", 2) * x("y") + x("x", 3)
        assert f.invert_vars(["x", "y"], 2) == x("y", 2) + x("x") * x("y") + x("x", 2) * x("y", 2)
        with pytest.raises(ValueError):
            f.invert_vars(["x"], 1)


class TestDivision:
    def test_exact(self):
        f = (x("x") - x("y")) * (x("x") + 3 * x("y")) ** 2
        q = divexact(f, x("x") - x("y"))
        assert q == (x("x") + 3 * x("y")) ** 2

    def test_remainder_raises(self):
        with pytest.raises(NonExactDivision):
            divexact(x("x", 2) + 1, x("x") + 1)

    def test_integers(self):
        assert divexact(-12, 4) == -3 and type(divexact(12, -4)) is int
        with pytest.raises(NonExactDivision):
            divexact(7, -2)

    def test_random_roundtrip(self):
        rng = random.Random(3)
        for _ in range(20):
            g = x("a", rng.randint(0, 2)) * x("b", rng.randint(0, 2)) + rng.randint(1, 5)
            q = x("a") * x("b", rng.randint(0, 2)) - rng.randint(0, 9)
            assert divexact(g * q, g) == q


class TestVandermonde:
    def test_trivial_sizes(self):
        assert vandermonde(VarSeq.of()) == ONE
        assert vandermonde(VarSeq.of("x1")) == ONE
        assert vandermonde(VarSeq.of("x1", "x2")) == x("x1") - x("x2")

    def test_splits(self):
        X = VarSeq.make("x", 3)
        got = [(S.names, T.names) for S, T in X.splits(1)]
        assert got == [(("x1",), ("x2", "x3")), (("x2",), ("x1", "x3")), (("x3",), ("x1", "x2"))]
        assert [S.neg for S, _ in X.negated().splits(2)] == [frozenset({"x1", "x2"}), frozenset({"x1", "x3"}), frozenset({"x2", "x3"})]
        assert X.splits(1) is X.splits(1)

    def test_delta_pair_empty(self):
        assert delta_pair(VarSeq.of(), VarSeq.make("y", 3)) == ONE

    def test_delta_pair_antisymmetry(self):
        for nx in range(0, 3):
            for ny in range(0, 3):
                X, Y = VarSeq.make("x", nx), VarSeq.make("y", ny)
                sign = (-1) ** (nx * ny)
                assert delta_pair(X, Y) * sign == delta_pair(Y, X)

    def test_concat_factorization(self):
        for nx in range(0, 3):
            for ny in range(0, 3):
                X, Y = VarSeq.make("x", nx), VarSeq.make("y", ny)
                lhs = vandermonde(X.concat(Y))
                rhs = vandermonde(X) * vandermonde(Y) * delta_pair(X, Y)
                assert lhs == rhs

    def test_negated_sequence(self):
        X = VarSeq.make("x", 3)
        assert e_prod(X.negated()) == -e_prod(X)
        assert elem_sym(2, X.negated()) == elem_sym(2, X)
        assert elem_sym(1, X.negated()) == -elem_sym(1, X)


class TestSortSign:
    def test_reference_value(self):
        assert sort_sign((11, 7, 1, 8, 6, 5, 3, 0)) == -1

    def test_sorted_input(self):
        assert sort_sign((9, 4, 2)) == 1

    def test_repeat_flag(self):
        assert sort_sign((3, 1, 3)) == 0

    def test_against_permutation_sign_oracle(self):
        for k in range(1, 7):
            base = tuple(range(k - 1, -1, -1))
            for p in permutations(base):
                assert sort_sign(p) == _perm_sign_oracle(p)

    def test_random_sequences_with_repeats(self):
        rng = random.Random(11)
        for _ in range(500):
            seq = [rng.randint(-4, 4) for _ in range(rng.randint(0, 9))]
            assert sort_sign(seq) == _perm_sign_oracle(seq)
            assert sort_sign(iter(seq)) == _perm_sign_oracle(seq)


def _perm_sign_oracle(seq):
    """Cycle-decomposition sign of the sorting permutation; 0 on a repeat."""
    if len(set(seq)) < len(seq):
        return 0
    order = sorted(range(len(seq)), key=lambda i: -seq[i])
    seen = [False] * len(seq)
    sign = 1
    for start in range(len(seq)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = order[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


class TestElemSym:
    def test_zeroth(self):
        assert elem_sym(0, VarSeq.make("x", 4)) == ONE

    def test_top_equals_product(self):
        for n in range(0, 6):
            X = VarSeq.make("x", n)
            assert elem_sym(n, X) == e_prod(X)

    def test_e_prod(self):
        X = VarSeq.of("x1", "x2", "x3")
        assert e_prod(X) == x("x1") * x("x2") * x("x3")


class TestDeterminants:
    def test_identity(self):
        assert det([[1, 0], [0, 1]]) == 1

    def test_2x2_symbolic(self):
        A = [[x("a"), x("b")], [x("c"), x("d")]]
        assert det(A) == x("a") * x("d") - x("b") * x("c")

    def test_size_zero_and_one(self):
        assert det([]) == 1 == det_leibniz([])
        assert det([[5]]) == 5

    def test_routes_agree_with_leibniz(self):
        rng = random.Random(11)
        for _ in range(8):
            A = PolyMatrix([[rng.randint(-9, 9) for _ in range(5)] for _ in range(5)])
            assert det(A) == det_leibniz(A)

    def test_polynomial_entries_routes_agree(self):
        rng = random.Random(5)
        names = ["a", "b"]
        for order in (4, 4, 4, 4, 7):
            A = PolyMatrix(
                [
                    [
                        MultiPoly.var(rng.choice(names), rng.randint(0, 2), rng.randint(-3, 3))
                        for _ in range(order)
                    ]
                    for _ in range(order)
                ]
            )
            assert det(A) == det_leibniz(A)

    def test_singular(self):
        A = [[1, 2, 3], [2, 4, 6], [5, 1, 0]]
        assert det(A) == 0 == det_leibniz(A)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            det([[1, 2, 3], [4, 5, 6]])


class TestLaplace:
    def test_full_row_set_is_det(self):
        rng = random.Random(2)
        A = PolyMatrix([[rng.randint(-5, 5) for _ in range(4)] for _ in range(4)])
        assert laplace_expand(A, (1, 2, 3, 4)) == det(A)

    def test_classical_cofactor_signs_row_2(self):
        A = PolyMatrix([[x(f"a{i}{j}") for j in range(3)] for i in range(3)])
        manual = ZERO
        for j in range(3):
            minor_rows = [0, 2]
            minor_cols = [c for c in range(3) if c != j]
            m = det(A.submatrix(minor_rows, minor_cols))
            manual = manual + (-1) ** (1 + j) * A.rows[1][j] * m
        assert laplace_expand(A, (2,)) == manual == det(A)

    def test_every_k_of_size_3_on_6x6(self):
        rng = random.Random(17)
        from itertools import combinations

        A = PolyMatrix([[rng.randint(-9, 9) for _ in range(6)] for _ in range(6)])
        d = det(A)
        for K in combinations(range(1, 7), 3):
            assert laplace_expand(A, K) == d

    def test_invalid_k_rejected(self):
        with pytest.raises(ValueError):
            laplace_expand([[1, 0], [0, 1]], (3,))


# -- reference model: the sorted (name, exponent) tuple encoding ---------------

NAMES = ("a", "b", "c", "x1", "y1")


def ref_clean(terms):
    return {m: c for m, c in terms.items() if c}


def ref_mono(exps):
    return tuple(sorted((n, e) for n, e in exps.items() if e))


def ref_add(f, g):
    out = dict(f)
    for m, c in g.items():
        out[m] = out.get(m, 0) + c
    return ref_clean(out)


def ref_mul(f, g):
    out = {}
    for ma, ca in f.items():
        for mb, cb in g.items():
            exps = dict(ma)
            for n, e in mb:
                exps[n] = exps.get(n, 0) + e
            m = ref_mono(exps)
            out[m] = out.get(m, 0) + ca * cb
    return ref_clean(out)


def ref_negate_vars(f, names):
    return {m: c * (-1) ** sum(e for n, e in m if n in names) for m, c in f.items()}


def ref_invert_vars(f, names, top):
    out = {}
    for m, c in f.items():
        exps = dict(m)
        if any(exps.get(n, 0) > top for n in names):
            return None
        exps.update((n, top - exps.get(n, 0)) for n in names)
        out[ref_mono(exps)] = c
    return out


def ref_evaluate(f, point):
    total = Fraction(0)
    for m, c in f.items():
        v = Fraction(c)
        for n, e in m:
            v *= point[n] ** e
        total += v
    return total


def ref_str(f):
    if not f:
        return "0"
    names = sorted({n for m in f for n, _ in m})

    def key(m):
        dense = [dict(m).get(n, 0) for n in names]
        return (sum(dense), dense)

    pieces = []
    for m in sorted(f, key=key, reverse=True):
        body = "*".join(f"{n}^{e}" if e > 1 else n for n, e in m)
        mag = abs(f[m])
        text = str(mag) if not body else body if mag == 1 else f"{mag}*{body}"
        pieces.append(("- " if f[m] < 0 else "+ ") + text)
    head = pieces[0]
    out = ("-" + head[2:]) if head[0] == "-" else head[2:]
    return " ".join([out] + pieces[1:])


ref_polys = st.dictionaries(
    st.dictionaries(st.sampled_from(NAMES), st.integers(0, 3), max_size=3).map(ref_mono),
    st.integers(-5, 5),
    max_size=5,
).map(ref_clean)
name_sets = st.frozensets(st.sampled_from(NAMES))
points = st.fixed_dictionaries(
    {n: st.fractions(min_value=-3, max_value=3, max_denominator=4) for n in NAMES}
)


class TestAgainstTupleReference:
    @given(ref_polys, ref_polys)
    def test_add_mul_str(self, f, g):
        pf, pg = MultiPoly(f), MultiPoly(g)
        assert pf.monomials() == f
        assert (pf + pg).monomials() == ref_add(f, g)
        assert (pf * pg).monomials() == ref_mul(f, g)
        assert str(pf) == ref_str(f)
        assert str(pf * pg) == ref_str(ref_mul(f, g))

    @given(ref_polys, st.integers(0, 3))
    def test_pow(self, f, n):
        expected = {(): 1}
        for _ in range(n):
            expected = ref_mul(expected, f)
        assert (MultiPoly(f) ** n).monomials() == expected

    @given(ref_polys, name_sets, st.integers(0, 4))
    def test_substitutions(self, f, names, top):
        p = MultiPoly(f)
        assert p.negate_vars(names).monomials() == ref_negate_vars(f, names)
        expected = ref_invert_vars(f, names, top)
        if expected is None:
            with pytest.raises(ValueError):
                p.invert_vars(names, top)
        else:
            assert p.invert_vars(names, top).monomials() == expected

    @given(ref_polys, points)
    def test_evaluate(self, f, point):
        assert MultiPoly(f).evaluate(point) == ref_evaluate(f, point)

    @settings(deadline=None)
    @given(ref_polys, ref_polys.filter(bool))
    def test_divexact_roundtrip(self, f, g):
        pf, pg = MultiPoly(f), MultiPoly(g)
        assert divexact(pf * pg, pg) == pf

    @settings(deadline=None)
    @given(ref_polys, ref_polys.filter(lambda g: MultiPoly(g).degree() > 0))
    def test_divexact_rejects_remainder(self, f, g):
        pf, pg = MultiPoly(f), MultiPoly(g)
        with pytest.raises(NonExactDivision):
            divexact(pf * pg + 1, pg)


class TestExponentOverflow:
    def test_product_field_overflow(self):
        with pytest.raises(OverflowError):
            x("x", 40000) * x("x", 40000)

    def test_product_degree_overflow(self):
        # fields of 40000 fit, but the total degree field would not
        with pytest.raises(OverflowError):
            x("x", 40000) * x("y", 40000)

    def test_loose_degree_bound_does_not_reject(self):
        # the sum keeps 40000 as its degree bound, but only y survives
        f = (x("x", 40000) + x("y")) - x("x", 40000)
        assert f == x("y")
        assert (f * x("x", 40000)).monomials() == {(("x", 40000), ("y", 1)): 1}

    def test_largest_exponent_fits(self):
        f = x("x", MAX_EXP - 1) * x("x")
        assert f.monomials() == {(("x", MAX_EXP),): 1}

    def test_var_and_invert_vars(self):
        with pytest.raises(OverflowError):
            x("x", MAX_EXP + 1)
        assert x("x").invert_vars(["x"], MAX_EXP + 1) == x("x", MAX_EXP)
        with pytest.raises(OverflowError):
            x("y").invert_vars(["x"], MAX_EXP + 1)
        with pytest.raises(OverflowError):
            x("y", 2).invert_vars(["x"], MAX_EXP - 1)
        with pytest.raises(OverflowError):
            MultiPoly({(("x", MAX_EXP), ("y", 1)): 1})
