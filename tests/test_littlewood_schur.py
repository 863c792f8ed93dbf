import random
from fractions import Fraction

import pytest

from overlapls import littlewood_schur
from overlapls.littlewood_schur import (
    littlewood_square_check,
    lr_coefficient,
    ls_branching,
    ls_combinatorial,
    ls_determinantal,
    ls_sign,
    ls_value,
)
from overlapls.partitions import Partition, partitions_in_box, rect
from overlapls.polyring import (
    MultiPoly,
    NonExactDivision,
    ONE,
    VarSeq,
    ZERO,
    delta_pair,
    e_prod,
    elem_sym,
)
from overlapls.schur import schur_bialternant, schur_ssyt


def x(name, e=1):
    return MultiPoly.var(name, e)


class TestLRCoefficients:
    def test_trivial_pair(self):
        for lam in partitions_in_box(3, 3):
            assert lr_coefficient(lam, lam, Partition(())) == 1
            assert lr_coefficient(lam, Partition(()), lam) == 1

    def test_21_cases(self):
        lam = Partition((2, 1))
        assert lr_coefficient(lam, Partition((1,)), Partition((1, 1))) == 1
        assert lr_coefficient(lam, Partition((1,)), Partition((2,))) == 1
        assert lr_coefficient(lam, Partition((1,)), Partition((1,))) == 0

    def test_size_mismatch_is_zero(self):
        assert lr_coefficient(Partition((2,)), Partition((1,)), Partition((2,))) == 0

    def test_not_contained_is_zero(self):
        assert lr_coefficient(Partition((2,)), Partition((1, 1)), Partition((1,))) == 0

    def test_symmetry(self):
        for lam in partitions_in_box(3, 3):
            for mu in partitions_in_box(3, 3):
                for nu in partitions_in_box(3, 3):
                    assert lr_coefficient(lam, mu, nu) == lr_coefficient(lam, nu, mu)

    def test_product_expansion_consistency(self):
        # s_lam on a split alphabet expands through LR coefficients
        X = VarSeq.make("x", 2)
        Xp = VarSeq.make("u", 2)
        both = X.concat(Xp)
        for lam in partitions_in_box(3, 3):
            lhs = schur_ssyt(lam, both)
            rhs = ZERO
            for mu in partitions_in_box(lam.part(1), lam.length):
                if not lam.contains(mu):
                    continue
                for nu in partitions_in_box(lam.part(1), lam.length):
                    if mu.size + nu.size != lam.size:
                        continue
                    c = lr_coefficient(lam, mu, nu)
                    if c:
                        rhs = rhs + c * schur_ssyt(mu, X) * schur_ssyt(nu, Xp)
            assert lhs == rhs


class TestCombinatorialLS:
    def test_empty_y_reduces_to_schur(self):
        X = VarSeq.make("x", 2)
        for lam in partitions_in_box(3, 2):
            assert ls_combinatorial(lam, X, VarSeq.of()) == schur_bialternant(lam, X)

    def test_empty_x_reduces_to_conjugate_schur(self):
        Y = VarSeq.make("y", 3)
        for lam in partitions_in_box(3, 3):
            assert ls_combinatorial(lam, VarSeq.of(), Y) == schur_bialternant(
                lam.conjugate(), Y
            )

    def test_single_box(self):
        X, Y = VarSeq.make("x", 2), VarSeq.make("y", 2)
        assert ls_combinatorial(Partition((1,)), X, Y) == elem_sym(1, X) + elem_sym(1, Y)


class TestDeterminantalLS:
    def test_negative_index_vanishes(self):
        # three columns never fit against two x variables and no y
        assert ls_determinantal(Partition((1, 1, 1)), VarSeq.make("x", 2), VarSeq.of()) == ZERO

    def test_counterexample_partition_value(self):
        X, Y = VarSeq.make("x", 2), VarSeq.make("y", 3)
        got = ls_determinantal(Partition((1, 1, 1)), X, Y)
        expect = ls_combinatorial(Partition((1, 1, 1)), X.negated(), Y)
        assert got == expect

    def test_route_equivalence_up_to_2x2(self):
        for nx in range(0, 3):
            for ny in range(0, 3):
                X, Y = VarSeq.make("x", nx), VarSeq.make("y", ny)
                for lam in partitions_in_box(4, 4):
                    det_route = ls_determinantal(lam, X, Y)
                    comb_route = ls_combinatorial(lam, X.negated(), Y)
                    assert det_route == comb_route, (lam, nx, ny)

    def test_plain_wrapper(self):
        X, Y = VarSeq.make("x", 2), VarSeq.make("y", 2)
        for lam in partitions_in_box(3, 3):
            plain = ls_determinantal(lam, X, Y).negate_vars(X.names)
            assert plain == ls_combinatorial(lam, X, Y)

    def test_distinctness_required(self):
        try:
            ls_determinantal(Partition((1,)), VarSeq.of("a"), VarSeq.of("a"))
        except ValueError:
            pass
        else:
            raise AssertionError("shared identifiers must be rejected")

    def test_homogeneity(self):
        X, Y = VarSeq.make("x", 2), VarSeq.make("y", 2)
        for lam in partitions_in_box(3, 3):
            p = ls_determinantal(lam, X, Y)
            if p.is_zero:
                continue
            degrees = {sum(e for _, e in mono) for mono in p.monomials()}
            assert degrees == {lam.size}

    def test_conjugation_duality(self):
        X, Y = VarSeq.make("x", 2), VarSeq.make("y", 2)
        for lam in partitions_in_box(3, 3):
            lhs = ls_combinatorial(lam.conjugate(), X, Y)
            rhs = ls_combinatorial(lam, Y, X)
            assert lhs == rhs

    def test_separate_symmetry_in_each_alphabet(self):
        X, Y = VarSeq.make("x", 2), VarSeq.make("y", 2)

        def swap(p, a, b):
            return MultiPoly(
                {
                    tuple(
                        sorted((b if n == a else a if n == b else n, e) for n, e in mono)
                    ): c
                    for mono, c in p.monomials().items()
                }
            )

        for lam in partitions_in_box(3, 3):
            p = ls_determinantal(lam, X, Y)
            assert swap(p, "x1", "x2") == p
            assert swap(p, "y1", "y2") == p

    def test_sign_depends_on_alphabet_lengths(self):
        lam = Partition((2, 1))
        signs = {ls_sign(lam, m, n) for m in range(4) for n in range(4)}
        assert signs == {1, -1}


class TestBranchingLS:
    def test_matches_determinant_and_tableaux_in_3x3_box(self):
        for n in range(4):
            for m in range(4):
                X, Y = VarSeq.make("x", n), VarSeq.make("y", m)
                for lam in partitions_in_box(3, 3):
                    got = ls_branching(lam, X, Y)
                    assert got == ls_determinantal(lam, X, Y), (lam, n, m)
                    assert got == ls_combinatorial(lam, X.negated(), Y), (lam, n, m)

    def test_rejects_what_the_determinant_rejects(self):
        shared = (Partition((1,)), VarSeq.of("a"), VarSeq.of("a"))
        marked = (Partition((1,)), VarSeq.make("x", 1).negated(), VarSeq.make("y", 1))
        for args in (shared, marked):
            with pytest.raises(ValueError) as by_det:
                ls_determinantal(*args)
            with pytest.raises(ValueError) as by_branching:
                ls_branching(*args)
            assert str(by_branching.value) == str(by_det.value)

    def test_zero_cases(self):
        X, Y = VarSeq.make("x", 2), VarSeq.make("y", 1)
        # lam_3 = 2 exceeds m = 1: outside the (2, 1)-hook
        assert ls_branching(Partition((2, 2, 2)), X, Y) == ZERO
        assert ls_branching(Partition((3, 1, 1)), X, Y) != ZERO
        assert ls_branching(Partition((1,)), VarSeq.of(), VarSeq.of()) == ZERO
        assert ls_branching(Partition(()), VarSeq.of(), VarSeq.of()) == ONE

    def test_littlewood_square_reads_the_branching_route(self, monkeypatch):
        monkeypatch.setattr(littlewood_schur, "ls_branching", lambda lam, X, Y: ONE)
        r = littlewood_square_check(1, 1, 0, VarSeq.make("x", 1), VarSeq.make("y", 1))
        assert r.failed


class TestLSValue:
    def test_matches_polynomial_at_random_points(self):
        rng = random.Random(7)
        checked = 0
        for lam in partitions_in_box(4, 3):
            for n in range(0, 4):
                for m in range(0, 4):
                    X, Y = VarSeq.make("x", n), VarSeq.make("y", m)
                    # distinct magnitudes, so the signed values are pairwise distinct
                    nums = rng.sample(range(1, 100), n + m)
                    vals = [v * rng.choice((1, -1)) for v in nums]
                    point = dict(zip(X.names + Y.names, vals))
                    got = ls_value(lam, tuple(vals[:n]), tuple(vals[n:]))
                    assert got == ls_determinantal(lam, X, Y).evaluate(point), (lam, n, m)
                    checked += 1
        assert checked > 300

    def test_zero_cases(self):
        # three columns never fit against two x variables and no y: k < 0
        assert Partition((1, 1, 1)).index(0, 2) < 0
        assert ls_value(Partition((1, 1, 1)), (2, 3), ()) == 0


class TestLSIntegerValue:
    xs, ys = (2, 9, 31), (5, 17)
    shapes = [Partition(()), Partition((1,)), Partition((2, 1)), Partition((3, 1, 1)), Partition((2, 2, 2, 1))]

    def test_int_at_integer_points(self):
        for lam in self.shapes:
            got = ls_value(lam, self.xs, self.ys)
            assert type(got) is int
            X, Y = VarSeq.make("x", 3), VarSeq.make("y", 2)
            point = dict(zip(X.names + Y.names, self.xs + self.ys))
            assert got == ls_determinantal(lam, X, Y).evaluate(point)

    def test_homogeneity(self):
        for lam in self.shapes:
            base = ls_value(lam, self.xs, self.ys)
            for d in (2, 3, -5):
                scaled = ls_value(lam, tuple(d * v for v in self.xs), tuple(d * v for v in self.ys))
                assert scaled == d**lam.size * base

    def test_rational_values_are_exact(self):
        # branching divides nothing, so a rational coordinate gives the exact rational value
        xs = (Fraction(1, 2),) + self.xs[1:]
        X, Y = VarSeq.make("x", 3), VarSeq.make("y", 2)
        point = dict(zip(X.names + Y.names, xs + self.ys))
        for lam in self.shapes:
            assert ls_value(lam, xs, self.ys) == ls_determinantal(lam, X, Y).evaluate(point)

    def test_remainder_raises(self, monkeypatch):
        # the determinantal route is the one that still divides
        det = littlewood_schur.det
        monkeypatch.setattr(littlewood_schur, "det", lambda rows: det(rows) + 1)
        ls_determinantal.cache_clear()
        with pytest.raises(NonExactDivision):
            ls_determinantal(Partition((2, 1)), VarSeq.make("x", 3), VarSeq.make("y", 2))


class TestLittlewoodSquare:
    def test_one_variable_each(self):
        r = littlewood_square_check(1, 1, 0, VarSeq.make("x", 1), VarSeq.make("y", 1))
        assert r.passed
        got = ls_determinantal(Partition((1,)), VarSeq.make("x", 1), VarSeq.make("y", 1))
        assert got == x("y1") - x("x1")

    def test_empty_x(self):
        r = littlewood_square_check(0, 2, 1, VarSeq.of(), VarSeq.make("y", 2))
        assert r.passed

    def test_sweep(self):
        for n in range(0, 3):
            for m in range(0, 3):
                for l in range(0, 3):
                    X, Y = VarSeq.make("x", n), VarSeq.make("y", m)
                    assert littlewood_square_check(n, m, l, X, Y).passed

    def test_rectangle_value(self):
        n, m, l = 2, 2, 1
        X, Y = VarSeq.make("x", n), VarSeq.make("y", m)
        lhs = ls_determinantal(rect(m + l, n), X, Y)
        assert lhs == e_prod(X.negated()) ** l * delta_pair(Y, X)
