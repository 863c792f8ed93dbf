from fractions import Fraction

from overlapls.partitions import Partition, partitions_in_box, rect
from overlapls.polyring import (
    MultiPoly,
    ONE,
    VarSeq,
    ZERO,
    as_fraction,
    e_prod,
    eval_at,
)
from overlapls.schur import (
    complement_reciprocity_check,
    factor_rule_check,
    schur,
    schur_bialternant,
    schur_ssyt,
    schur_value,
)


def x(name, e=1):
    return MultiPoly.var(name, e)


class TestBialternant:
    def test_empty_partition(self):
        for n in range(0, 4):
            assert schur_bialternant(Partition(()), VarSeq.make("x", n)) == ONE

    def test_single_box(self):
        X = VarSeq.make("x", 2)
        assert schur_bialternant(Partition((1,)), X) == x("x1") + x("x2")

    def test_too_long_is_zero(self):
        assert schur_bialternant(Partition((1, 1, 1)), VarSeq.make("x", 2)) == ZERO

    def test_21_in_3_vars(self):
        X = VarSeq.make("x", 3)
        got = schur_bialternant(Partition((2, 1)), X)
        assert got == schur_ssyt(Partition((2, 1)), X)
        monos = got.monomials()
        assert len(monos) == 7
        assert monos[(("x1", 1), ("x2", 1), ("x3", 1))] == 2
        assert sum(monos.values()) == 8


class TestSSYT:
    def test_column_too_tall(self):
        assert schur_ssyt(Partition((1, 1, 1)), VarSeq.make("x", 2)) == ZERO

    def test_row_of_two(self):
        X = VarSeq.make("x", 2)
        assert schur_ssyt(Partition((2,)), X) == x("x1", 2) + x("x1") * x("x2") + x("x2", 2)

    def test_agreement_exhaustive(self):
        # the three routes: strip branching (schur), the bialternant and the tableaux
        for nvars in range(0, 5):
            X = VarSeq.make("x", nvars)
            for lam in partitions_in_box(4, 4):
                got = schur(lam, X)
                assert got == schur_bialternant(lam, X) == schur_ssyt(lam, X)
                assert schur(lam, X.negated()) == (-1) ** lam.size * got


class TestProperties:
    def test_homogeneity(self):
        X = VarSeq.make("x", 3)
        for lam in partitions_in_box(3, 3):
            s = schur_bialternant(lam, X)
            if s.is_zero:
                continue
            degrees = {sum(e for _, e in mono) for mono in s.monomials()}
            assert degrees == {lam.size}

    def test_symmetry_under_swap(self):
        X = VarSeq.make("x", 3)
        for lam in partitions_in_box(3, 3):
            s = schur_bialternant(lam, X)
            swapped = MultiPoly(
                {
                    tuple(
                        sorted(
                            (("x2" if n == "x1" else "x1" if n == "x2" else n), e)
                            for n, e in mono
                        )
                    ): c
                    for mono, c in s.monomials().items()
                }
            )
            assert swapped == s

    def test_negated_alphabet_sign(self):
        X = VarSeq.make("x", 3)
        for lam in partitions_in_box(3, 2):
            assert schur_ssyt(lam, X.negated()) == schur_ssyt(lam, X) * (-1) ** lam.size

    def test_schur_value_matches_polynomial(self):
        X = VarSeq.make("x", 3)
        point = {"x1": 2, "x2": 7, "x3": -1}
        for lam in partitions_in_box(3, 3):
            s = schur_bialternant(lam, X)
            assert schur_value(lam, [point[n] for n in X.names]) == eval_at(s, point)


class TestIntegerSchurValue:
    values = (2, 9, 31, 4)
    shapes = [Partition(()), Partition((1,)), Partition((2, 1)), Partition((3, 2, 2)), Partition((1, 1, 1, 1))]

    def test_int_at_integer_points(self):
        X = VarSeq.make("x", 4)
        point = dict(zip(X.names, self.values))
        for lam in self.shapes:
            got = schur_value(lam, self.values)
            assert type(got) is int
            assert got == eval_at(schur_bialternant(lam, X), point)

    def test_homogeneity(self):
        for lam in self.shapes:
            base = schur_value(lam, self.values)
            for d in (2, 3, -5):
                assert schur_value(lam, [d * v for v in self.values]) == d**lam.size * base

    def test_repeated_and_zero_coordinates(self):
        # the alternant vanishes at this point, so only a route without division can take it
        X = VarSeq.make("x", 4)
        values = (3, 0, 3, -2)
        point = dict(zip(X.names, values))
        for lam in partitions_in_box(4, 4):
            got = schur_value(lam, values)
            assert type(got) is int
            assert got == eval_at(schur_ssyt(lam, X), point)

    def test_rational_values_are_exact(self):
        # branching divides nothing, so a rational coordinate gives the exact rational value
        X = VarSeq.make("x", 3)
        values = (Fraction(1, 2), 5, -3)
        point = dict(zip(X.names, values))
        for lam in partitions_in_box(3, 3):
            assert schur_value(lam, values) == eval_at(schur_ssyt(lam, X), point)


class TestFactorRule:
    def test_m_zero(self):
        r = factor_rule_check(Partition((2, 1)), 0, VarSeq.make("x", 2))
        assert r.passed

    def test_small_case(self):
        r = factor_rule_check(Partition((2, 1)), 2, VarSeq.make("x", 2))
        assert r.passed

    def test_exhaustive(self):
        for n in range(1, 4):
            X = VarSeq.make("x", n)
            for lam in partitions_in_box(3, min(3, n)):
                for m in range(0, 3):
                    assert factor_rule_check(lam, m, X).passed


class TestComplementReciprocity:
    def test_empty_partition_gives_factor_rule(self):
        # complement of the empty partition is the full rectangle
        X = VarSeq.make("x", 3)
        for m in range(0, 3):
            r = complement_reciprocity_check(Partition(()), m, X)
            assert r.passed
            assert schur_bialternant(rect(m, 3), X) == e_prod(X) ** m

    def test_large_rectangle_instance_grid(self):
        r = complement_reciprocity_check(Partition((5, 5, 2)), 6, VarSeq.make("x", 3), mode="grid")
        assert r.passed

    def test_exhaustive_symbolic(self):
        X = VarSeq.make("x", 3)
        for lam in partitions_in_box(3, 3):
            assert complement_reciprocity_check(lam, 3, X).passed

    def test_oversized_is_inapplicable(self):
        r = complement_reciprocity_check(Partition((4,)), 3, VarSeq.make("x", 2))
        assert r.inapplicable
