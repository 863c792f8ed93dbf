import operator
from fractions import Fraction

import pytest

from overlapls import identities
from overlapls import schur as schur_module
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
    _y_peel,
    complement_reciprocity_check,
    factor_rule_check,
    kostka_map,
    schur,
    schur_bialternant,
    schur_ssyt,
    schur_value,
)


def x(name, e=1):
    return MultiPoly.var(name, e)


def dominant_coefficients(poly, X: VarSeq) -> dict:
    """{kappa: c} over the monomials c x^kappa of poly with kappa non-increasing in X's order."""
    out = {}
    for mono, c in poly.monomials().items():
        exps = dict(mono)
        kappa = tuple(exps.get(name, 0) for name in X.names)
        if all(map(operator.ge, kappa, kappa[1:])):
            out[kappa] = c
    return out


def factor_rule_sides(lam, m, X: VarSeq):
    """The factor rule as two polynomials: s_(lam + m^n)(X) and e(X)^m s_lam(X)."""
    return schur(lam.add(rect(m, len(X))), X), e_prod(X) ** m * schur(lam, X)


def complement_reciprocity_sides(lam, m, X: VarSeq):
    """Complement reciprocity as two polynomials: s of the (m, n)-complement, and s_lam with each exponent a reflected to m - a."""
    reflected = {}
    for mono, c in schur(lam, X).monomials().items():
        exps = dict(mono)
        exps.update((name, m - exps.get(name, 0)) for name in X.names)
        reflected[tuple(sorted((name, e) for name, e in exps.items() if e))] = c
    return schur(lam.complement(m, len(X)), X), MultiPoly(reflected)


@pytest.fixture
def fresh_strip_memos():
    """Empty the memos that hold strip branching results before and after: a patched rule or map must not leak."""
    memos = (kostka_map, schur_module._ls_strips)
    for memo in memos:
        memo.cache_clear()
    yield
    for memo in memos:
        memo.cache_clear()


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


class TestYPeel:
    def test_hook_pruning_drops_only_long_shapes(self):
        # with n = l(parts) the hook test never prunes, so that peel is the unpruned oracle
        ys_of = {"variables": lambda m: VarSeq.make("y", m).terms(), "point": lambda m: (2, 3, 5)[:m]}
        for ring, ys in ys_of.items():
            for lam in partitions_in_box(4, 4):
                for m in range(0, 4):
                    full = _y_peel(lam.parts, ys(m), lam.length)
                    for n in range(0, 5):
                        kept = {nu: c for nu, c in full if len(nu) <= n}
                        assert dict(_y_peel(lam.parts, ys(m), n)) == kept, (ring, lam, m, n)


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

    def test_unknown_mode_before_the_precondition(self):
        # (5) does not fit in 1 x 2, yet the bad mode raises first, as it does for a lambda that fits
        for lam in (Partition((5,)), Partition((1,))):
            with pytest.raises(ValueError, match="unknown mode 'bogus'"):
                complement_reciprocity_check(lam, 1, VarSeq.make("x", 2), mode="bogus")


class TestKostkaMap:
    def test_small_maps(self):
        # s_(2,1)(x1, x2, x3) = m_(2,1,0) + 2 m_(1,1,1)
        assert kostka_map((2, 1), 3) == {(2, 1, 0): 1, (1, 1, 1): 2}
        assert kostka_map((), 2) == {(0, 0): 1}
        assert kostka_map((1, 1, 1), 2) == {}

    def test_dominant_coefficients_of_schur(self):
        # every shape of the 4 x 5 box, so the shapes longer than n give the empty map
        for n in range(0, 6):
            X = VarSeq.make("x", n)
            for lam in partitions_in_box(4, 5):
                assert kostka_map(lam.parts, n) == dominant_coefficients(schur(lam, X), X), (lam, n)


# the strip rule with a strip dropped: the empty strip, or every one-cell strip
STRIP_MUTANTS = {
    "empty strip dropped": lambda strips: lambda parts: list(strips(parts))[:-1],
    "one-cell strips dropped": lambda strips: lambda parts: [(nu, r) for nu, r in strips(parts) if r != 1],
}


def dominant_route_instances():
    """(check, polynomial sides, lam, m, X) over n <= 4 and m <= 3, both checks."""
    for n in range(1, 5):
        X = VarSeq.make("x", n)
        for m in range(0, 4):
            for lam in partitions_in_box(3, n):
                yield factor_rule_check, factor_rule_sides, lam, m, X
            for lam in partitions_in_box(m, n):
                yield complement_reciprocity_check, complement_reciprocity_sides, lam, m, X


class TestDominantMapRoute:
    """The checks on dominant maps against the two Schur polynomials they replaced, kept as the oracle."""

    def test_verdicts_match_the_polynomials(self):
        for check, sides, lam, m, X in dominant_route_instances():
            lhs, rhs = sides(lam, m, X)
            assert lhs == rhs and check(lam, m, X).passed, (check.__name__, lam, m, X)

    @pytest.mark.parametrize("mutant", list(STRIP_MUTANTS))
    def test_strip_mutants_fail_both_routes_alike(self, monkeypatch, fresh_strip_memos, mutant):
        monkeypatch.setattr(schur_module, "_horizontal_strips", STRIP_MUTANTS[mutant](schur_module._horizontal_strips))
        failed = 0
        for check, sides, lam, m, X in dominant_route_instances():
            lhs, rhs = sides(lam, m, X)
            r = check(lam, m, X)
            assert r.passed == (lhs == rhs), (check.__name__, lam, m, X)
            failed += r.failed
        assert failed

    @pytest.mark.parametrize("mode", ["symbolic", "grid"])
    def test_sweeps_build_no_polynomial(self, monkeypatch, fresh_strip_memos, mode):
        def refuse(self, other):
            raise AssertionError("a dominant-map check multiplied or added a polynomial")

        for op in ("__mul__", "__rmul__", "__add__", "__radd__"):
            monkeypatch.setattr(MultiPoly, op, refuse)
        reports = identities.run_catalog(["factor-rule", "complement-reciprocity"], max_box=3, nvars=8, mode=mode)
        assert len(reports) == 1482 + 710 and all(r.passed for r in reports)


class TestFailingWitness:
    """A wrong dominant map fails both checks, each witness listing the map entries that differ."""

    def wrong_maps(self, monkeypatch):
        # K + |lam| at every key: wrong for every non-empty shape; with one letter the
        # recursion reaches only the empty shape, so each K becomes 1 + |lam|
        monkeypatch.setattr(
            schur_module, "kostka_map", lambda parts, n: {k: c + sum(parts) for k, c in kostka_map(parts, n).items()}
        )

    def test_factor_rule(self, monkeypatch, fresh_strip_memos):
        self.wrong_maps(monkeypatch)
        # lhs: (2) at (2,), K 1 + 2; rhs: (1) at (1,), K 1 + 1, raised to (2,)
        r = factor_rule_check(Partition((1,)), 1, VarSeq.make("x", 1))
        assert r.failed and r.witness == "coefficients differ: [((2,), 3), ((2,), 2)]"

    def test_complement_reciprocity(self, monkeypatch, fresh_strip_memos):
        self.wrong_maps(monkeypatch)
        # the (1, 1)-complement of (1) is empty: lhs K 1 at (0,); rhs (1)'s K 1 + 1 at (1,), reflected to (0,)
        r = complement_reciprocity_check(Partition((1,)), 1, VarSeq.make("x", 1))
        assert r.failed and r.witness == "coefficients differ: [((0,), 1), ((0,), 2)]"

    @pytest.mark.parametrize("name", ["factor-rule", "complement-reciprocity"])
    def test_dropped_strip_fails_the_sweep(self, monkeypatch, fresh_strip_memos, name):
        monkeypatch.setattr(schur_module, "_horizontal_strips", STRIP_MUTANTS["empty strip dropped"](schur_module._horizontal_strips))
        reports = identities.run_catalog([name], max_box=3, nvars=3, mode="symbolic")
        bad = [r for r in reports if r.failed]
        assert bad and all(r.witness.startswith("coefficients differ: [") for r in bad)
