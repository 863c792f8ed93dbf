from dataclasses import replace
from fractions import Fraction

import pytest

from overlapls import identities, littlewood_schur
from overlapls.littlewood_schur import ls_combinatorial, ls_determinantal, ls_value
from overlapls.overlap import enumerate_overlap_pairs, overlap
from overlapls.partitions import Partition, partitions_in_box
from overlapls.polyring import MultiPoly, NonExactDivision, VarSeq, delta_pair, e_prod, vandermonde
from overlapls.schur import _schur_at, schur, schur_bialternant, schur_ssyt


class TestConclude:
    X = VarSeq.make("x", 2)
    x1, x2 = VarSeq.of("x1"), VarSeq.of("x2")
    one, two = Partition((1,)), Partition((2,))

    def conclude(self, terms, mode):
        # s_1(x1, x2) = x1 + x2 = (x1^2 - x2^2) / (x1 - x2), cleared by the Vandermonde x1 - x2
        def build(R):
            return R.schur(self.one, self.X), [term(R) for term in terms]

        return identities._conclude("t", {}, mode, build, self.X.names, (self.X,))

    def square(self, x, sign=1):
        """sign * x^2 = sign * s_2(x) over Delta(x1; x2) = x1 - x2."""
        return lambda R: (sign * R.schur(self.two, x), R.delta(self.x1, self.x2))

    def test_split_terms_pass(self):
        terms = [self.square(self.x1), self.square(self.x2, -1)]
        for mode in ("symbolic", "grid"):
            assert self.conclude(terms, mode).passed

    def test_wrong_terms_fail_with_witness(self):
        terms = [self.square(self.x1)]
        r = self.conclude(terms, "symbolic")
        assert r.failed and r.witness == "-x2^2"
        r = self.conclude(terms, "grid")
        assert r.failed and r.witness.startswith("point ")

    def test_denominator_must_divide_clear(self):
        # one clearing rule in both modes: at the point (2, 3), V = -1 and den = 5
        terms = [lambda R: (1, R.schur(self.one, self.X))]
        with pytest.raises(NonExactDivision):
            self.conclude(terms, "symbolic")
        with pytest.raises(NonExactDivision, match="-1 not divisible by 5"):
            self.conclude(terms, "grid")


class TestFirstOverlap:
    def test_l_zero_trivial(self):
        lam = Partition((2, 1))
        X, Y = VarSeq.make("x", 2), VarSeq.make("y", 1)
        k = lam.index(1, 2)
        mu, nu = Partition(()), lam.take(2 - k)
        r = identities.verify_first_overlap(lam, 1, 2, 0, mu, nu, X, Y)
        assert r.passed

    def test_sweep_small(self):
        Y = VarSeq.make("y", 1)
        for lam in partitions_in_box(2, 2):
            for n in (2, 3):
                X = VarSeq.make("x", n)
                k = lam.index(1, n)
                if k < 0:
                    continue
                for l in range(0, min(n - k, n) + 1):
                    for mu, nu, _ in enumerate_overlap_pairs(lam.take(n - k), l, n - k - l):
                        r = identities.verify_first_overlap(lam, 1, n, l, mu, nu, X, Y)
                        assert r.passed, r.witness

    def test_wrong_pair_is_inapplicable(self):
        lam = Partition((2, 1))
        X, Y = VarSeq.make("x", 2), VarSeq.make("y", 1)
        r = identities.verify_first_overlap(
            lam, 1, 2, 0, Partition((5,)), Partition(()), X, Y
        )
        assert r.inapplicable

    def test_grid_mode(self):
        lam = Partition((2, 1))
        X, Y = VarSeq.make("x", 2), VarSeq.make("y", 1)
        k = lam.index(1, 2)
        for mu, nu, _ in enumerate_overlap_pairs(lam.take(2 - k), 1, 2 - k - 1):
            r = identities.verify_first_overlap(lam, 1, 2, 1, mu, nu, X, Y, mode="grid")
            assert r.passed


class TestSortedSplitAndCounterexample:
    def test_counterexample_difference(self):
        r = identities.counterexample_regression()
        assert r.passed
        assert r.witness == "y1*y2*y3"

    def test_counterexample_grid_mode(self):
        r = identities.counterexample_regression(mode="grid")
        assert r.passed and r.mode == "grid" and r.witness == "y1*y2*y3"

    def test_l_zero_is_exact(self):
        lam = Partition((1, 1, 1))
        X, Y = VarSeq.make("x", 2), VarSeq.make("y", 3)
        naive = identities.sorted_split_sum(lam, 0, X, Y)
        assert ls_determinantal(lam, X, Y) == naive

    def test_valid_range_has_no_correction(self):
        # same cut, but here the index keeps l = 1 inside the valid range
        lam = Partition((3, 1))
        X, Y = VarSeq.make("x", 2), VarSeq.make("y", 1)
        k = lam.index(1, 2)
        assert 1 <= 2 - k
        naive = identities.sorted_split_sum(lam, 1, X, Y)
        assert ls_determinantal(lam, X, Y) == naive

    def test_out_of_range_sum_is_a_polynomial(self):
        lam = Partition((1, 1, 1))
        X, Y = VarSeq.make("x", 2), VarSeq.make("y", 3)
        naive = identities.sorted_split_sum(lam, 1, X, Y)
        assert isinstance(naive, MultiPoly)
        assert naive == ls_determinantal(lam, X, Y) - e_prod(Y)

    def test_both_sides_match_combinatorial_route(self):
        lam = Partition((1, 1, 1))
        X, Y = VarSeq.make("x", 2), VarSeq.make("y", 3)
        assert ls_determinantal(lam, X, Y) == ls_combinatorial(lam, X.negated(), Y)


class TestMaxIndex:
    def test_nu_empty_reduces_to_schur_like(self):
        mu = Partition((2, 1))
        X, Y = VarSeq.make("x", 3), VarSeq.of()
        r = identities.verify_cor_max_index(mu, Partition(()), 2, X, Y)
        assert not r.failed

    def test_sweep(self):
        X, Y = VarSeq.make("x", 2), VarSeq.make("y", 2)
        seen = 0
        for mu in partitions_in_box(2, 2):
            for nu in partitions_in_box(2, 2):
                for l in range(mu.length, 3):
                    r = identities.verify_cor_max_index(mu, nu, l, X, Y)
                    assert not r.failed, r.witness
                    seen += 0 if r.inapplicable else 1
        assert seen > 0

    def test_infinite_branch_both_sides_vanish(self):
        # mu and the head of nu collide, so the overlap is infinite
        X, Y = VarSeq.make("x", 3), VarSeq.make("y", 2)
        found = 0
        for mu in partitions_in_box(3, 2):
            for nu in partitions_in_box(3, 3):
                for l in range(mu.length, 4):
                    k = nu.index(2, 3 - l)
                    if l > 3 - k or mu.length > l:
                        continue
                    ov = overlap(mu, nu.take(3 - l - k), l, 3 - l - k)
                    if not ov.is_infinite:
                        continue
                    r = identities.verify_cor_max_index(mu, nu, l, X, Y)
                    if not r.inapplicable:
                        assert r.passed, r.witness
                        found += 1
        assert found > 0


class TestSecondOverlapAndWalkSplit:
    def test_y_empty_forces_p_zero(self):
        lam = Partition((2, 1))
        S, T = VarSeq.make("s", 1), VarSeq.make("t", 2)
        r = identities.verify_second_overlap(lam, S, T, VarSeq.of())
        assert r.passed

    def test_counterexample_instance_passes_here(self):
        # the fiber sum carries the correction term the naive cut misses
        lam = Partition((1, 1, 1))
        S, T = VarSeq.of("x1"), VarSeq.of("x2")
        Y = VarSeq.make("y", 3)
        r = identities.verify_second_overlap(lam, S, T, Y)
        assert r.passed
        r = identities.verify_walk_split(lam, S, T, Y)
        assert r.passed
        r = identities.walk_split_bijection_check(lam, S, T, Y)
        assert r.passed

    def test_sweep_with_bijection(self):
        for lam in partitions_in_box(2, 2):
            for n in range(0, 3):
                for l in range(0, n + 1):
                    S, T = VarSeq.make("s", l), VarSeq.make("t", n - l)
                    for m in range(0, 2):
                        Y = VarSeq.make("y", m)
                        r1 = identities.verify_second_overlap(lam, S, T, Y)
                        r2 = identities.verify_walk_split(lam, S, T, Y)
                        r3 = identities.walk_split_bijection_check(lam, S, T, Y)
                        for r in (r1, r2, r3):
                            assert not r.failed, (lam, n, l, m, r.witness)

    def test_grid_mode(self):
        lam = Partition((2, 1))
        S, T, Y = VarSeq.make("s", 1), VarSeq.make("t", 1), VarSeq.make("y", 1)
        assert identities.verify_second_overlap(lam, S, T, Y, mode="grid").passed

    def test_bijection_check_sees_a_flipped_sign(self, monkeypatch):
        lam = Partition((1, 1, 1))
        S, T, Y = VarSeq.of("x1"), VarSeq.of("x2"), VarSeq.make("y", 3)
        walk_labels = identities._walk_labels

        def flipped(*args):
            for i, label in enumerate(walk_labels(*args)):
                yield label[:-1] + (-label[-1],) if i == 0 else label

        monkeypatch.setattr(identities, "_walk_labels", flipped)
        r = identities.walk_split_bijection_check(lam, S, T, Y)
        assert r.failed and r.witness.startswith("labels differ: ")


class TestSchurCorollaries:
    def test_first_overlap_schur_infinite_gives_zero(self):
        # both partitions demand the same staircase slot
        mu, nu = Partition((1,)), Partition(())
        X = VarSeq.make("x", 2)
        r = identities.verify_first_overlap_schur(mu, nu, 1, 1, X)
        assert not r.failed

    def test_first_overlap_schur_exhaustive_2x2(self):
        X = VarSeq.make("x", 4)
        for mu in partitions_in_box(2, 2):
            for nu in partitions_in_box(2, 2):
                r = identities.verify_first_overlap_schur(mu, nu, 2, 2, X)
                assert r.passed, (mu, nu, r.witness)

    def test_first_overlap_schur_intro_instance_on_grid(self):
        # eight variables: the split sum reassembles s of the overlap value
        mu, nu = Partition((9, 6, 1)), Partition((4, 3, 3, 2))
        assert overlap(mu, nu, 3, 5).value == Partition((4, 2, 2, 2, 2, 1))
        X = VarSeq.make("x", 8)
        r = identities.verify_first_overlap_schur(mu, nu, 3, 5, X, mode="grid")
        assert r.passed, r.witness

    def test_second_overlap_schur_sweep(self):
        for lam in partitions_in_box(3, 3):
            for m in range(0, 3):
                for n in range(0, 3):
                    if lam.length > m + n:
                        continue
                    S, T = VarSeq.make("s", m), VarSeq.make("t", n)
                    r = identities.verify_second_overlap_schur(lam, S, T)
                    assert r.passed, (lam, m, n, r.witness)

    def test_labeled_walk_matches_fiber_route(self):
        for lam in partitions_in_box(3, 3):
            for m in range(0, 3):
                for n in range(0, 3):
                    if lam.length > m + n:
                        continue
                    S, T = VarSeq.make("s", m), VarSeq.make("t", n)
                    r = identities.verify_labeled_walk_schur(lam, S, T)
                    assert r.passed, (lam, m, n, r.witness)

    def test_reference_fiber_term_appears(self):
        # the labeled-walk sum for the 6x3 example contains the worked pair
        lam = Partition((7, 4, 3, 3, 3, 1))
        pairs = [
            (mu.parts, nu.parts, s) for mu, nu, s in enumerate_overlap_pairs(lam, 3, 6)
        ]
        assert ((9, 8, 2), (10, 4, 4, 2), 1) in pairs


class TestSubpartitionIdentities:
    def test_schur_route_sweep(self):
        for m in range(0, 3):
            for n in range(0, 3):
                S, T = VarSeq.make("s", m), VarSeq.make("t", n)
                for l in range(0, 3):
                    for kappa in partitions_in_box(m + n, l):
                        r = identities.verify_subpartition_schur(kappa, m, n, l, S, T)
                        assert r.passed, (kappa, m, n, l, r.witness)

    def test_empty_kappa(self):
        S, T = VarSeq.make("s", 2), VarSeq.make("t", 1)
        r = identities.verify_subpartition_schur(Partition(()), 2, 1, 2, S, T)
        assert r.passed

    def test_reference_pair_appears_as_summand(self):
        from overlapls.overlap import enumerate_subpartition_pairs

        kappa = Partition((7, 3, 2, 1))
        pairs = enumerate_subpartition_pairs(kappa, 4, 3, 4)
        assert (Partition((4, 4, 2, 2, 1, 1, 1)), (1, 4, 5, 7)) in pairs

    def test_ls_route_reduces_to_schur_when_y_empty(self):
        kappa = Partition((2, 1))
        S, T = VarSeq.make("s", 2), VarSeq.make("t", 1)
        r = identities.verify_subpartition_ls(kappa, 2, 1, 0, 2, 0, S, T, VarSeq.of())
        assert r.passed

    def test_ls_route_small(self):
        kappa = Partition((2,))
        S, T, Y = VarSeq.make("s", 1), VarSeq.make("t", 2), VarSeq.make("y", 1)
        r = identities.verify_subpartition_ls(kappa, 1, 1, 1, 1, 1, S, T, Y)
        assert r.passed

    def test_corner_cell_required(self):
        kappa = Partition((1,))
        S, T, Y = VarSeq.make("s", 1), VarSeq.make("t", 1), VarSeq.make("y", 1)
        r = identities.verify_subpartition_ls(kappa, 1, 0, 0, 1, 1, S, T, Y)
        assert r.inapplicable


class TestDualCauchy:
    def test_empty(self):
        r = identities.verify_dual_cauchy(VarSeq.of(), VarSeq.make("y", 2))
        assert r.passed

    def test_one_by_one(self):
        r = identities.verify_dual_cauchy(VarSeq.of("x1"), VarSeq.of("y1"))
        assert r.passed

    def test_2x2_and_grid(self):
        X, Y = VarSeq.make("x", 2), VarSeq.make("y", 2)
        assert identities.verify_dual_cauchy(X, Y).passed
        assert identities.verify_dual_cauchy(X, Y, mode="grid").passed


SPLIT_SUM_SWEEPS = [
    "first-overlap", "max-index", "second-overlap", "walk-split",
    "first-overlap-schur", "second-overlap-schur", "labeled-walk-schur",
    "subpartition-schur", "subpartition-ls",
]


def _sweep_refusing_products(name, mode, monkeypatch):
    def refuse(self, other):
        raise AssertionError(f"{mode} mode multiplied two polynomials")

    def refuse_fraction(*args, **kwargs):
        raise AssertionError(f"{mode} mode built a Fraction")

    # a cached polynomial or value would hide an expansion, so start from empty caches
    for cached in (
        ls_determinantal, littlewood_schur._ls_strips, schur_bialternant, schur_ssyt,
        delta_pair, vandermonde, ls_value, _schur_at, identities._quotient,
    ):
        cached.cache_clear()
    monkeypatch.setattr(MultiPoly, "__mul__", refuse)
    monkeypatch.setattr(MultiPoly, "__rmul__", refuse)
    # the spot points are integers and grid clearing divides ints, so no sweep makes a Fraction anywhere
    monkeypatch.setattr(Fraction, "__new__", refuse_fraction)
    reports = identities.run_catalog([name], max_box=2, nvars=2, mode=mode)
    assert reports and all(r.passed for r in reports)
    assert all(r.mode == mode for r in reports if r.identity == name)


@pytest.mark.parametrize("name", SPLIT_SUM_SWEEPS)
def test_grid_mode_expands_no_polynomial(name, monkeypatch):
    _sweep_refusing_products(name, "grid", monkeypatch)


def test_symbolic_split_sums_need_no_determinant(monkeypatch):
    def refuse(*args):
        raise AssertionError("symbolic split sums computed an LS determinant")

    littlewood_schur._ls_strips.cache_clear()
    monkeypatch.setattr(littlewood_schur, "ls_determinantal", refuse)
    monkeypatch.setattr(identities, "ls_determinantal", refuse)
    reports = identities.run_catalog(SPLIT_SUM_SWEEPS, max_box=2, nvars=2, mode="symbolic")
    assert set(SPLIT_SUM_SWEEPS) <= {r.identity for r in reports}
    assert all(r.passed for r in reports)


UNION_SWEEPS = ["second-overlap-schur", "labeled-walk-schur", "subpartition-schur"]


def _union_checks(lam, S, T, mode="symbolic"):
    """The three union-Schur verifiers on one (lam, S, T); subpartition-schur takes kappa = lam'."""
    m, n = len(S), len(T)
    yield lambda: identities.verify_second_overlap_schur(lam, S, T, mode)
    yield lambda: identities.verify_labeled_walk_schur(lam, S, T, mode)
    yield lambda: identities.verify_subpartition_schur(lam.conjugate(), m, n, 3, S, T, mode)


class TestUnionSchurCoefficients:
    """The alternant-coefficient check against the expanded polynomials, kept as an oracle."""

    def test_verdicts_match_the_expansion(self, monkeypatch):
        union_schur = identities._union_schur
        seen = []

        def checked(ident, instance, mode, target, S, T, triples):
            triples = list(triples)
            # the oracle: schur(target, S u T) * delta(S, T) == sum sign * s_mu(S) * s_nu(T)
            lhs = schur(target, S.concat(T)) * delta_pair(S, T)
            terms = [sign * schur(mu, S) * schur(nu, T) for mu, nu, sign in triples]
            rhs = sum(terms, MultiPoly())
            verdict = union_schur(ident, instance, mode, target, S, T, triples)
            assert verdict.passed == (lhs == rhs)
            # flip the sign of the first triple whose sides fit their alphabets
            i = next(i for i, (mu, nu, _) in enumerate(triples) if mu.length <= len(S) and nu.length <= len(T))
            mu, nu, sign = triples[i]
            r = union_schur(ident, instance, mode, target, S, T, triples[:i] + [(mu, nu, -sign)] + triples[i + 1:])
            assert r.passed == (lhs == rhs - 2 * terms[i])
            assert r.failed and r.witness.startswith("coefficients differ: ")
            seen.append(ident)
            return verdict

        monkeypatch.setattr(identities, "_union_schur", checked)
        instances = list(identities._union_instances(3, 3))
        for lam, S, T in instances:
            for check in _union_checks(lam, S, T):
                assert check().passed
        assert sorted(set(seen)) == sorted(UNION_SWEEPS) and len(seen) == 3 * len(instances)

    def test_flipped_sign_and_vanishing_terms(self):
        # s_1(s, t) (s - t) = s^2 - t^2 = s_2(s) - s_2(t)
        S, T = VarSeq.make("s", 1), VarSeq.make("t", 1)
        two, empty = Partition((2,)), Partition(())

        def check(sign, *extra):
            return identities._union_schur(
                "t", {}, "symbolic", Partition((1,)), S, T, [(two, empty, 1), (empty, two, sign), *extra]
            )

        assert check(-1).passed
        # s_(1,1) of one variable is 0, so a term with that side adds nothing
        assert check(-1, (Partition((1, 1)), empty, 1), (empty, Partition((2, 1)), 1)).passed
        r = check(1)
        assert r.failed
        assert r.witness == "coefficients differ: [(((0,), (2,)), -1), (((0,), (2,)), 1)]"


@pytest.mark.parametrize("name", UNION_SWEEPS)
def test_symbolic_union_schur_expands_no_polynomial(name, monkeypatch):
    _sweep_refusing_products(name, "symbolic", monkeypatch)


class TestExactInGridMode:
    """Checks whose two sides are exact data compare them exactly in grid mode too."""

    def test_union_reports_agree_across_modes(self, monkeypatch):
        union_schur = identities._union_schur
        flipped = []

        def checked(ident, instance, mode, target, S, T, triples):
            triples = list(triples)
            i = next(i for i, (mu, nu, _) in enumerate(triples) if mu.length <= len(S) and nu.length <= len(T))
            mu, nu, sign = triples[i]
            r = union_schur(ident, instance, mode, target, S, T, triples[:i] + [(mu, nu, -sign)] + triples[i + 1:])
            assert r.failed and r.witness.startswith("coefficients differ: ")
            flipped.append(mode)
            return union_schur(ident, instance, mode, target, S, T, triples)

        monkeypatch.setattr(identities, "_union_schur", checked)
        for lam, S, T in identities._union_instances(2, 2):
            for symbolic, grid in zip(_union_checks(lam, S, T), _union_checks(lam, S, T, "grid")):
                a, b = symbolic(), grid()
                assert a.passed and b.mode == "grid"
                assert replace(b, mode="symbolic") == a
        assert flipped.count("grid") == flipped.count("symbolic") > 0

    @pytest.mark.parametrize("name", list(identities.CATALOG))
    def test_no_sweep_evaluates_a_polynomial(self, name, monkeypatch):
        def refuse(self, point):
            raise AssertionError("grid mode evaluated a polynomial")

        monkeypatch.setattr(MultiPoly, "evaluate", refuse)
        reports = identities.run_catalog([name], max_box=2, nvars=2, mode="grid")
        assert reports and all(r.passed for r in reports)
        assert all(r.witness == "y1*y2*y3" for r in reports if r.identity == "counterexample")

    def test_unknown_mode_is_rejected(self):
        S, T = VarSeq.make("s", 1), VarSeq.make("t", 1)
        with pytest.raises(ValueError, match="unknown mode 'exact'"):
            identities.verify_second_overlap_schur(Partition((1,)), S, T, "exact")
        with pytest.raises(ValueError, match="unknown mode 'exact'"):
            identities.verify_dual_cauchy(S, T, "exact")
        with pytest.raises(ValueError, match="unknown mode 'exact'"):
            identities.counterexample_regression("exact")


def test_spot_points_are_distinct_nonzero_integers():
    names = [f"v{i}" for i in range(2 * identities.MAX_VARS)]
    points = list(identities.spot_points(names))
    assert len(points) == identities._SPOT_COUNT
    for point in points:
        values = [point[n] for n in names]
        assert all(type(v) is int and v for v in values)
        assert len(set(values)) == len(values)


class TestCatalog:
    def test_unknown_mode_before_any_sweep(self):
        # none of these sweeps reads the mode, so only run_catalog can reject it
        with pytest.raises(ValueError, match="unknown mode 'bogus'"):
            identities.run_catalog(["factor-rule", "littlewood-square", "laplace"], 2, 2, "bogus")

    def test_run_named(self):
        reports = identities.run_catalog(["counterexample"])
        assert len(reports) == 1 and reports[0].passed

    def test_unknown_name(self):
        try:
            identities.run_catalog(["no-such-check"])
        except KeyError:
            pass
        else:
            raise AssertionError("unknown names must be rejected")

    @pytest.mark.parametrize("mode", ["symbolic", "grid"])
    def test_run_catalog_drops_inapplicable(self, mode):
        swept = identities.CATALOG["max-index"](2, 2, mode, 0)
        assert any(r.inapplicable for r in swept)
        kept = identities.run_catalog(["max-index"], max_box=2, nvars=2, mode=mode)
        assert kept and kept == [r for r in swept if not r.inapplicable]

    def test_laplace_entry_uses_seed(self):
        a = identities.run_catalog(["laplace"], seed=1)
        b = identities.run_catalog(["laplace"], seed=1)
        assert [r.to_json() for r in a] == [r.to_json() for r in b]
        assert all(r.passed for r in a)
