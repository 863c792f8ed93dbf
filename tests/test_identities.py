import ast
import bisect
import functools
import inspect
import itertools
import operator
from dataclasses import replace
from fractions import Fraction

import pytest

from overlapls import alternants, identities, littlewood_schur, polyring, report
from overlapls import schur as schur_module
from overlapls.littlewood_schur import littlewood_square_check, ls_combinatorial, ls_determinantal
from overlapls.overlap import (
    enumerate_overlap_pairs,
    enumerate_subpartition_pairs,
    overlap,
    staircase,
    subpartition_to_overlap,
)
from overlapls.partitions import Partition, partitions_in_box, shift_first
from overlapls.polyring import (
    ONE,
    MultiPoly,
    NonExactDivision,
    VarSeq,
    ZERO,
    as_poly,
    delta_of,
    delta_pair,
    divexact,
    e_prod,
    vandermonde_of,
)
from overlapls.schur import complement_reciprocity_check, factor_rule_check, schur
from overlapls.walks import _labeled, walk_times


def ls_value(lam, xs, ys):
    """LS(lam; xs, ys) at the values xs, ys, as the grid builds take it: the strip branching body on the parts."""
    return schur_module._ls_strips(lam.parts, xs, ys)


def vandermonde(X: VarSeq):
    """prod_(i<j) (x_i - x_j) over the terms of X, as a polynomial: the clearing factor of the polynomial oracle."""
    return as_poly(vandermonde_of(X.terms()))


class TestConclude:
    """Symbolic mode compares the coefficient maps of forms(); grid mode compares build(at) at the spot points."""

    X = VarSeq.make("x", 2)
    one, two = Partition((1,)), Partition((2,))

    def conclude(self, sign, mode):
        # s_1(x1, x2) = x1 + x2 = x1^2 / (x1 - x2) + x2^2 / (x2 - x1), the sum of s_2(S) / delta(S, T) over the splits
        def forms():
            rhs = {}
            alternants.merge_splits(rhs, sign, {(2,): 1}, {(0,): 1})
            return {(2, 0): 1}, rhs  # s_1(X) V(X) = a_(2, 0)(X)

        def build(at):
            # LS_2(-S; ()) = s_2(S) and LS_1(-X; ()) = -s_1(X)
            terms = [(sign * ls_value(self.two, at(S), ()), delta_of(at(S), at(T))) for S, T in self.X.splits(1)]
            return -ls_value(self.one, at(self.X), ()), terms

        return identities._conclude("t", {}, mode, forms, build, self.X.names)

    def test_split_terms_pass(self):
        for mode in ("symbolic", "grid"):
            assert self.conclude(1, mode).passed

    def test_wrong_terms_fail_with_witness(self):
        r = self.conclude(-1, "symbolic")
        assert r.failed and r.witness == "coefficients differ: [((2, 0), 1), ((2, 0), -1)]"
        r = self.conclude(-1, "grid")
        assert r.failed and r.witness.startswith("point ")

    def test_wrong_or_vanishing_denominator_never_passes(self, monkeypatch):
        # grid mode compares over the lcm of the dens: a wrong den fails at a point, and one that vanishes raises
        conclude = identities._conclude
        lam, X, Y = Partition((2, 1)), VarSeq.make("x", 2), VarSeq.make("y", 1)
        S, T = VarSeq.make("s", 1), VarSeq.make("t", 1)
        k = lam.index(1, 2)
        mu, nu, _ = next(enumerate_overlap_pairs(lam.take(2 - k), 1, 1 - k))
        checks = (
            lambda mode: identities.verify_first_overlap(lam, 1, 2, 1, mu, nu, X, Y, mode),  # over the splits of X
            lambda mode: identities.verify_second_overlap(lam, S, T, Y, mode),  # over the splits of Y
        )

        def with_dens(dens):
            def checked(ident, instance, mode, forms, build, names):
                def rebuilt(at):
                    lhs, terms = build(at)
                    return lhs, [(num, dens(den)) for num, den in terms]

                return conclude(ident, instance, mode, forms, rebuilt, names)

            monkeypatch.setattr(identities, "_conclude", checked)

        for check in checks:
            with_dens(lambda den: den)
            assert check("grid").passed
            with_dens(lambda den: 2 * den)
            r = check("grid")
            assert r.failed and r.witness.startswith("point ")
            with_dens(lambda den: 0)
            with pytest.raises(ZeroDivisionError):
                check("grid")
            # symbolic mode never builds the terms
            assert check("symbolic").passed


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

    def test_sorted_split_sum_matches_the_cleared_expansion(self):
        # the oracle: the split terms as polynomials, cleared by V(X) and divided back; cuts past n - k included
        for lam in partitions_in_box(3, 3):
            for n in range(0, 4):
                for m in range(0, 4):
                    X, Y = VarSeq.make("x", n), VarSeq.make("y", m)
                    for l in range(0, n + 1):
                        head, tail = shift_first(lam.take(l), n - l, l), lam.drop(l)
                        terms = identities._x_split_terms(_poly_at, head, tail, l, X, Y.terms())
                        expected = divexact(_cleared(terms, vandermonde(X)), vandermonde(X))
                        assert identities.sorted_split_sum(lam, l, X, Y) == expected, (lam, n, m, l)

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
                    for mode in ("symbolic", "grid"):
                        r = identities.verify_cor_max_index(mu, nu, l, X, Y, mode)
                        if not r.inapplicable:
                            assert r.passed, (mode, r.witness)
                            found += 1
        assert found > 0


def walk_labels_oracle(head, c, l, Y):
    """_walk_labels one walk at a time, with U and V built by VarSeq.subseq: the oracle for the pass per prefix rectangle.

    The labels come grouped stably by prefix rectangle, i the V steps among
    the first c, as _walk_labels groups them, so the two compare in order;
    mu and nu come as part tuples.
    """
    stair, by_prefix = (None, *staircase(head, c)), {}
    for v_times, h_times in walk_times(len(Y) + c - l, l):
        i = bisect.bisect(v_times, c)
        U = Y.subseq([t - c - 1 for t in v_times[i:]])
        V = Y.subseq([t - c - 1 for t in h_times[c - i:]])
        mu, nu, sign = _labeled(stair, v_times[:i], h_times[:c - i], Partition._of)
        by_prefix.setdefault(i, []).append((l - i, U, V, mu.parts, nu.parts, sign))
    return [label for labels in by_prefix.values() for label in labels]


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

    def test_walk_labels_match_the_per_walk_oracle(self, monkeypatch, fresh_memos):
        # every head of the 3 x 3 box, cut c <= 4, l <= c and l(Y) <= 3; the label memo starts empty, the Y.splits memo is filled first.
        # In order, so each walk's suffix must go to its own split of Y, not to another split of that size
        cases = [
            (head, c, l, VarSeq.make("y", m))
            for head in partitions_in_box(3, 3) for c in range(head.length, 5) for l in range(c + 1) for m in range(4)
        ]
        want = [walk_labels_oracle(*case) for case in cases]
        for m in range(4):
            for p in range(m + 1):
                VarSeq.make("y", m).splits(p)

        def refused(self, indices):
            raise AssertionError("the batched walk labels called VarSeq.subseq")

        monkeypatch.setattr(VarSeq, "subseq", refused)
        for case, labels in zip(cases, want):
            assert list(identities._walk_labels(*case)) == labels, case

    def test_bijection_check_sees_a_flipped_sign(self, monkeypatch):
        lam = Partition((1, 1, 1))
        S, T, Y = VarSeq.of("x1"), VarSeq.of("x2"), VarSeq.make("y", 3)
        walk_labels = identities._walk_labels

        def flipped(*args):
            for i, label in enumerate(walk_labels(*args)):
                yield label[:-1] + (-label[-1],) if i == 0 else label

        monkeypatch.setattr(identities, "_walk_labels", flipped)
        r = identities.walk_split_bijection_check(lam, S, T, Y)
        # the two label maps differ at the first walk's label, the fiber's sign first
        assert r.failed and r.witness == (
            "coefficients differ: [((1, ('y3',), ('y1', 'y2'), (), ()), 1), ((1, ('y3',), ('y1', 'y2'), (), ()), -1)]"
        )

    def test_terms_match_the_partition_terms(self):
        # every instance of the sweeps at --max-box 3 --vars 3, and l(Y) = 3 with l(S) + l(T) <= 3
        instances = list(identities._y_split_instances(3, 3)) + [
            (lam, VarSeq.make("s", l), VarSeq.make("t", n - l), VarSeq.make("y", 3))
            for lam in partitions_in_box(3, 3) for n in range(4) for l in range(n + 1)
        ]
        found = 0
        for lam, S, T, Y in instances:
            k = lam.index(len(Y), len(S) + len(T))
            # the fibers, shared by the splits of one size, and the single walks
            for labels, oracle_labels in ((None, identities._fiber_labels), (identities._walk_labels, walk_labels_oracle)):
                summands = identities._second_overlap_summands(lam, S, T, Y, k, labels)
                assert summands == _partition_summands(lam, S, T, Y, k, oracle_labels), (lam, S, T, Y, labels)
                found += sum(map(len, summands.values()))
        assert found > 0

    def test_below_needs_no_sort(self):
        # nu followed by the parts after the cut is already non-increasing, for every label of the 5 x 5 box,
        # every cut c, l(Y) <= 3 and l <= 3; a sweep's cut c = n - k is at least n - l(Y), so l <= n <= c + l(Y).
        # The fibers carry every label: the single walks give the same ones (test_sweep_with_bijection)
        found = 0
        for lam in partitions_in_box(5, 5):
            for c in range(6):
                head, tail = lam.take(c), lam.parts[c:]
                for m in range(4):
                    Y = VarSeq.make("y", m)
                    for l in range(min(3, c + m) + 1):
                        for _, fiber in identities._fibers(head, c, l, Y):
                            for _, nu, _ in fiber:
                                assert nu + tail == tuple(sorted(nu + tail, reverse=True)), (lam, c, l, m, nu)
                                found += 1
        assert found > 0


class TestShapeMemos:
    """_fiber and _walk_labels: bounded memos of immutable label tuples, keyed by shape."""

    def test_fiber_is_the_walk_enumeration(self):
        # every head of the 3 x 3 box and m, n <= 3, in order: the memoized tuples and the Partition triples are one formula
        found = 0
        for head in partitions_in_box(3, 3):
            for m in range(4):
                for n in range(4):
                    if head.length <= m + n:
                        want = [(mu.parts, nu.parts, sign) for mu, nu, sign in enumerate_overlap_pairs(head, m, n)]
                        assert list(identities._fiber(head, m, n)) == want, (head, m, n)
                        found += 1
        assert found > 0

    def test_memos_hold_tuples(self):
        head, Y = Partition((2, 1)), VarSeq.make("y", 2)
        assert type(identities._fiber(head, 1, 2)) is tuple
        assert type(identities._walk_labels(head, 3, 1, Y)) is tuple

    def test_walk_split_sweep_reuses_both(self, fresh_memos):
        reports = identities.run_catalog(["walk-split"], max_box=3, nvars=3)
        assert reports and all(r.passed for r in reports)
        for memo in (identities._fiber, identities._walk_labels):
            info = memo.cache_info()
            assert info.maxsize == 32 and info.hits > 0 and info.currsize <= 32, (memo.__name__, info)


def _partition_summands(lam, S, T, Y, k, labels):
    """_second_overlap_summands with the earlier Partition terms, by shift_first and union: the oracle of the part tuples.

    Each term comes as (sign, reduced.parts, below.parts).
    """
    n, m, l = len(S) + len(T), len(Y), len(S)
    tail, summands = lam.drop(n - k), {}
    for p, U, V, mu, nu, sign in labels(lam.take(n - k), n - k, l, Y):
        reduced, below = shift_first(Partition(mu), -(m - k), l - p), Partition(nu).union(tail)
        summands.setdefault((U, V), []).append((sign, reduced.parts, below.parts))
    return summands


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

    def test_ls_terms_match_the_partition_terms(self, monkeypatch):
        # the sweep's terms against the Partition terms: shift_first of mu, and below as the pair map gives it
        conclude = identities._conclude_y_splits
        counts = []

        def checked(ident, instance, mode, lam, S, T, Y, summands):
            kappa = Partition(instance["kappa"])
            m, n, n_tilde, l, q = (instance[key] for key in ("m", "n", "n~", "l", "q"))
            want = {}
            for p in range(0, min(m, q) + 1):
                at_p = []
                for pair in enumerate_subpartition_pairs(kappa, m - p, n + p, l):
                    mu, below, sign = subpartition_to_overlap(*pair, m - p, n + p + l)
                    at_p.append((sign, shift_first(mu, -(q - n_tilde), m - p).parts, below.parts))
                if at_p:
                    want.update(dict.fromkeys(Y.splits(p), at_p))
            assert summands == want, instance
            counts.append(sum(map(len, summands.values())))
            return conclude(ident, instance, mode, lam, S, T, Y, summands)

        monkeypatch.setattr(identities, "_conclude_y_splits", checked)
        reports = identities.run_catalog(["subpartition-ls"], max_box=3, nvars=3)
        assert reports and all(r.passed for r in reports)
        assert len(counts) == len(reports) and sum(counts) > 0

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

    def test_maps_match_the_polynomial_expansion(self):
        # the oracle: sum s_lam(X) s_lam'(Y) and prod (1 + x y) expanded over both alphabets, and the
        # product times V(X) V(Y) read at its strictly decreasing exponent keys
        for n in range(0, 4):
            for m in range(0, 4):
                X, Y = VarSeq.make("x", n), VarSeq.make("y", m)
                product = _cauchy_polynomial(X, Y)
                assert _schur_pair_sum(X, Y, lambda lam: 1) == product, (n, m)
                assert _keyed(vandermonde(X) * vandermonde(Y) * product, X, Y) == alternants.dual_cauchy_product(n, m)
                for mode in ("symbolic", "grid"):
                    assert identities.verify_dual_cauchy(X, Y, mode).passed, (n, m, mode)

    @pytest.mark.parametrize("mode", ["symbolic", "grid"])
    def test_mutated_sums_fail_by_both_routes(self, mode):
        # the sum side with one lam dropped or negated: the expansion and the coefficient maps both refuse it
        X, Y = VarSeq.make("x", 2), VarSeq.make("y", 3)
        product = _cauchy_polynomial(X, Y)
        for wrong in (Partition((1,)), Partition((2, 1)), Partition((3, 3))):
            for mutant in (lambda lam: 0 if lam == wrong else 1, lambda lam: -1 if lam == wrong else 1):
                assert _schur_pair_sum(X, Y, mutant) != product
                total = {
                    (staircase(lam, 2), staircase(lam.conjugate(), 3)): mutant(lam)
                    for lam in partitions_in_box(3, 2) if mutant(lam)
                }
                r = report.exact("dual-cauchy", {}, total, alternants.dual_cauchy_product(2, 3), mode)
                assert r.failed and r.mode == mode
                assert r.witness.startswith("coefficients differ: ")

    @pytest.mark.parametrize("mode", ["symbolic", "grid"])
    def test_failing_witness_lists_the_missing_key(self, monkeypatch, mode):
        # with lam = (1) dropped from the sum, its key (lam + delta_1, lam' + delta_1) is the one difference
        monkeypatch.setattr(
            identities, "partitions_in_box",
            lambda m, n: (lam for lam in partitions_in_box(m, n) if lam != Partition((1,))),
        )
        r = identities.verify_dual_cauchy(VarSeq.make("x", 1), VarSeq.make("y", 1), mode)
        assert r.failed and r.mode == mode
        assert r.witness == "coefficients differ: [(((1,), (1,)), 1)]"

    @pytest.mark.parametrize("mode", ["symbolic", "grid"])
    def test_sweep_expands_no_polynomial(self, mode, monkeypatch, fresh_memos):
        _sweep_refusing_products("dual-cauchy", mode, monkeypatch)


def _cauchy_polynomial(X: VarSeq, Y: VarSeq) -> MultiPoly:
    """prod (1 + x y) over the letters of X and Y, expanded."""
    return functools.reduce(operator.mul, (1 + x * y for x in X.terms() for y in Y.terms()), ONE)


def _schur_pair_sum(X: VarSeq, Y: VarSeq, coefficient) -> MultiPoly:
    """sum coefficient(lam) s_lam(X) s_lam'(Y) over lam with at most l(X) rows and l(Y) columns, expanded."""
    return sum((coefficient(lam) * schur(lam, X) * schur(lam.conjugate(), Y) for lam in partitions_in_box(len(Y), len(X))), ZERO)


def _keyed(poly: MultiPoly, X: VarSeq, Y: VarSeq) -> dict:
    """The coefficients of poly at the monomials whose X and Y exponents both strictly decrease, keyed by (X key, Y key)."""
    out = {}
    for mono, c in poly.monomials().items():
        exps = dict(mono)
        key = tuple(tuple(exps.get(name, 0) for name in Z.names) for Z in (X, Y))
        if all(all(map(operator.gt, k, k[1:])) for k in key):
            out[key] = c
    return out


SPLIT_SUM_SWEEPS = [
    "first-overlap", "max-index", "second-overlap", "walk-split",
    "first-overlap-schur", "second-overlap-schur", "labeled-walk-schur",
    "subpartition-schur", "subpartition-ls",
]


def _sweep_refusing_products(name, mode, monkeypatch):
    """Run a sweep with polynomial products and Fractions refused; the caller starts from empty memos (fresh_memos), as a cached polynomial or value would hide an expansion."""

    def refuse(self, other):
        raise AssertionError(f"{mode} mode multiplied two polynomials")

    def refuse_fraction(*args, **kwargs):
        raise AssertionError(f"{mode} mode built a Fraction")

    monkeypatch.setattr(MultiPoly, "__mul__", refuse)
    monkeypatch.setattr(MultiPoly, "__rmul__", refuse)
    # the spot points are integers and grid mode divides ints by their divisors, so no sweep makes a Fraction anywhere
    monkeypatch.setattr(Fraction, "__new__", refuse_fraction)
    reports = identities.run_catalog([name], max_box=2, nvars=2, mode=mode)
    assert reports and all(r.passed for r in reports)
    assert all(r.mode == mode for r in reports if r.identity == name)


@pytest.mark.parametrize("name", SPLIT_SUM_SWEEPS)
def test_grid_mode_expands_no_polynomial(name, monkeypatch, fresh_memos):
    _sweep_refusing_products(name, "grid", monkeypatch)


@pytest.mark.parametrize("mode", ["symbolic", "grid"])
def test_split_sums_need_no_determinant(mode, monkeypatch, fresh_memos):
    def refuse(*args):
        raise AssertionError(f"{mode} split sums computed a Moens-Van der Jeugt determinant")

    monkeypatch.setattr(littlewood_schur, "_mvj", refuse)
    reports = identities.run_catalog(SPLIT_SUM_SWEEPS, max_box=2, nvars=2, mode=mode)
    assert set(SPLIT_SUM_SWEEPS) <= {r.identity for r in reports}
    assert all(r.passed for r in reports)


# (sweep, max_box, nvars): every sweep that takes Schur values, factor-rule and
# complement-reciprocity past the 5 variables where an alternant would be slow
SCHUR_VALUE_SWEEPS = [
    ("factor-rule", 3, 6), ("complement-reciprocity", 3, 6),
    ("dual-cauchy", 2, 2), ("first-overlap-schur", 2, 2),
]


@pytest.mark.parametrize("mode", ["symbolic", "grid"])
def test_schur_values_need_no_determinant(mode, monkeypatch, fresh_memos):
    def refuse(*args):
        raise AssertionError(f"{mode} mode computed a determinant for a Schur or LS value")

    monkeypatch.setattr("overlapls.schur.det", refuse)
    monkeypatch.setattr(littlewood_schur, "_mvj", refuse)
    for name, max_box, nvars in SCHUR_VALUE_SWEEPS:
        reports = identities.run_catalog([name], max_box=max_box, nvars=nvars, mode=mode)
        assert reports and all(r.passed for r in reports)


UNION_SWEEPS = ["second-overlap-schur", "labeled-walk-schur", "subpartition-schur"]
# the Schur corollaries: the split sums with Y empty, whose coefficient maps hold ints
SCHUR_SWEEPS = ["first-overlap-schur", *UNION_SWEEPS]


def _union_checks(lam, S, T, mode="symbolic"):
    """The three union-Schur verifiers on one (lam, S, T); subpartition-schur takes kappa = lam'."""
    m, n = len(S), len(T)
    yield lambda: identities.verify_second_overlap_schur(lam, S, T, mode)
    yield lambda: identities.verify_labeled_walk_schur(lam, S, T, mode)
    yield lambda: identities.verify_subpartition_schur(lam.conjugate(), m, n, 3, S, T, mode)


def _x_split_oracle(lam, head, tail, l, X, Y, sign):
    """The cleared expansion's verdict on LS(lam; X, Y), or 0 when lam is None, against the sum of _x_split_terms."""
    def build(at):
        ys = at(Y)
        return (0 if lam is None else ls_value(lam, at(X), ys)), identities._x_split_terms(at, head, tail, l, X, ys, sign)

    return _cleared_expansion_agrees(build, X.names + Y.names)


class TestUnionSchurCoefficients:
    """The coefficient checks of the four Schur corollaries against the expanded polynomials, kept as oracles."""

    def test_verdicts_match_the_expansion(self, monkeypatch):
        union_schur = identities._union_schur
        seen = []

        def checked(ident, instance, mode, target, S, T, triples):
            triples = list(triples)
            # the oracle: schur(target, S u T) * delta(S, T) == sum sign * s_mu(S) * s_nu(T)
            lhs = schur(target, VarSeq(S.names + T.names, S.neg | T.neg)) * delta_pair(S, T)
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

        # first-overlap-schur: the Y-free X-split forms, their cleared expansion and the point route agree
        x_split_forms = identities._x_split_forms
        verdicts = []

        def checked_x(lam, head, tail, l, X, Y, sign):
            assert not Y
            # the instance, a flipped-sign mutant and a grown-mu mutant
            for how, h, s in (("", head, sign), ("sign", head, -sign), ("grown", Partition._of(_grown(head.parts)), sign)):
                lhs, rhs = x_split_forms(lam, h, tail, l, X, Y, s)
                points = identities._conclude_x_splits("t", {}, "grid", lam, h, tail, l, X, Y, s)
                verdicts.append((how, lhs == rhs))
                assert (lhs == rhs) == _x_split_oracle(lam, h, tail, l, X, Y, s) == points.passed
            return x_split_forms(lam, head, tail, l, X, Y, sign)

        monkeypatch.setattr(identities, "_x_split_forms", checked_x)
        reports = identities._sweep_first_overlap_schur(3, 1, "symbolic", 0)
        assert reports and all(r.passed for r in reports)
        assert len(verdicts) == 3 * len(reports)
        assert all(passed for how, passed in verdicts if not how)
        assert any(not passed for how, passed in verdicts if how == "sign")
        assert any(not passed for how, passed in verdicts if how == "grown")

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
        # the maps are LS-normalized, (-1)^|lam| times the Schur ones, so for |lam| = 1 both entries flip
        assert r.witness == "coefficients differ: [(((0,), (2,), ()), 1), (((0,), (2,), ()), -1)]"


# grid mode on these sweeps is test_grid_mode_expands_no_polynomial
@pytest.mark.parametrize("name", SCHUR_SWEEPS)
def test_symbolic_union_schur_expands_no_polynomial(name, monkeypatch, fresh_memos):
    _sweep_refusing_products(name, "symbolic", monkeypatch)


# the split sums that depend on the mode: symbolic mode checks them by alternant coefficients
ALTERNANT_SWEEPS = ["first-overlap", "max-index", "second-overlap", "walk-split", "subpartition-ls"]


@pytest.mark.parametrize("mode", ["symbolic", "grid"])
def test_clearing_sees_only_ints(mode, monkeypatch):
    # grid mode compares what build(at) returns at each spot point, and only ints; symbolic mode evaluates at no point
    conclude = identities._conclude
    seen = []

    def checked(ident, instance, mode, forms, build, names):
        def ints(at):
            lhs, terms = build(at)
            values = (lhs, *(v for term in terms for v in term))
            if any(type(v) is not int for v in values):
                raise AssertionError(f"{mode} mode compared a non-int: {values}")
            seen.append(values)
            return lhs, terms

        return conclude(ident, instance, mode, forms, ints, names)

    monkeypatch.setattr(identities, "_conclude", checked)
    reports = identities.run_catalog(None, 2, 2, mode)
    assert reports and all(r.passed for r in reports)
    assert bool(seen) == (mode == "grid")


def _poly_at(A: VarSeq):
    """The values of an alphabet as polynomial variables: build(_poly_at) gives a split sum's sides as polynomials."""
    return A.terms()


def _cleared(terms, vand):
    """vand times the sum of num / den over the (num, den) terms, each den certified by divexact to divide vand."""
    return sum((num * divexact(vand, den) for num, den in terms), ZERO)


def _divides(d, f) -> bool:
    try:
        divexact(f, d)
    except NonExactDivision:
        return False
    return True


def _cleared_expansion_agrees(build, names):
    """The oracle's verdict: lhs * L == the sum of num * (L / den), expanded as polynomials.

    Each den is a product of differences a - b of distinct letters of
    names, none repeated, so their lcm L is the product of the differences
    that divide some den.
    """
    lhs, terms = build(_poly_at)
    dens = {as_poly(den) for _, den in terms}
    common = ONE
    for a, b in itertools.combinations(VarSeq.of(*names).terms(), 2):
        if any(_divides(a - b, den) for den in dens):
            common *= a - b
    return lhs * common == _cleared(terms, common)


def _grown(parts):
    """The parts of a partition with one more cell in its first row."""
    return (parts[0] + 1,) + parts[1:] if parts else (1,)


def _mutate_first_term(summands, mutate):
    """Y-split summands with their first term (sign, reduced, below), two part tuples, replaced by mutate(sign, reduced, below).

    The mutant goes into a copy of that split's term list: subpartition-ls
    shares one list across the splits of one size.
    """
    key, terms = next((key, terms) for key, terms in summands.items() if terms)
    return {**summands, key: [mutate(*terms[0]), *terms[1:]]}


def _flipped(sign, reduced, below):
    return -sign, reduced, below


def _times_delta(form, vs, l):
    """The coefficient map of prod over v in vs and the l letters s of (v - s), times the sum that form maps.

    Each v contributes prod_s (v - s) = sum_j (-1)^j v^(l-j) e_j, and e_j
    acts on the keys by vertical_strips; the vs are multiplied out.
    """
    for v in vs:
        coeffs = [(-1) ** j * v ** (l - j) for j in range(l + 1)]
        out = {}
        for alpha, c in form.items():
            for key, j in alternants.vertical_strips(alpha):
                out[key] = out.get(key, 0) + coeffs[j] * c
        form = alternants.nonzero(out)
    return form


def _inversion_sign(seq):
    """Inversion parity relative to strictly decreasing order, 0 at a repeated entry: the sort_sign body, kept here as an oracle."""
    seq = tuple(seq)
    if len(set(seq)) < len(seq):
        return 0
    inversions = sum(itertools.starmap(operator.lt, itertools.combinations(seq, 2)))
    return -1 if inversions % 2 else 1


def _shuffles_oracle(gamma, m):
    """(alpha, beta, sign) over the m-subsets alpha of gamma, beta the rest, each signed by counting its inversions: the oracle of shuffles."""
    for alpha in itertools.combinations(gamma, m):
        beta = tuple(g for g in gamma if g not in alpha)
        yield alpha, beta, _inversion_sign(alpha + beta)


def test_shuffles_sign_by_position(monkeypatch):
    def refused(seq):
        raise AssertionError("shuffles called sort_sign")

    monkeypatch.setattr(alternants, "sort_sign", refused)
    monkeypatch.setattr(polyring, "sort_sign", refused)
    # every strictly decreasing gamma of length <= 10 has the positions of one with entries below 11
    for k in range(11):
        for gamma in itertools.combinations(range(10, -1, -1), k):
            for m in range(k + 2):
                assert list(alternants.shuffles(gamma, m)) == list(_shuffles_oracle(gamma, m)), (gamma, m)


def _y_split_oracle(lam, S, T, Y, summands):
    """The Y-split maps with coefficients that are polynomials in Y, split by split: the oracle of _y_split_forms.

    Both sides times V(S u T) V(Y), keyed by (alpha, beta), exponent keys on
    S and T.  V(S u T) / delta(T, S) = (-1)^(l(S) l(T)) V(S) V(T), V(Y) /
    delta(V, U) = (-1)^e V(U) V(V) with e the pairs of Y whose U letter comes
    first, and delta(T, U) = (-1)^(l(T) l(U)) prod (u - t).
    """
    l, r = len(S), len(T)
    ys = Y.terms()
    vy = vandermonde_of(ys)
    lhs = {}
    for gamma, c in alternants.ls_alternant(lam.parts, l + r, ys).items():
        for alpha, beta, sign in _shuffles_oracle(gamma, l):
            lhs[alpha, beta] = sign * c * vy
    rhs = {}
    for (U, V), terms in summands.items():
        us, vs = U.terms(), V.terms()
        e = sum(Y.names.index(u) < Y.names.index(v) for u in U.names for v in V.names)
        factor = (-1) ** (l * r + r * len(us) + e) * vandermonde_of(us) * vandermonde_of(vs)
        for sign, reduced, below in terms:
            head = _times_delta(alternants.ls_alternant(reduced, l, us), vs, l)
            tail = _times_delta(alternants.ls_alternant(below, r, vs), us, r)
            for alpha, a in head.items():
                for beta, b in tail.items():
                    rhs[alpha, beta] = rhs.get((alpha, beta), 0) + sign * factor * a * b
    return tuple(_at_decreasing_y(form, Y) for form in (lhs, rhs))


def _at_decreasing_y(form, Y):
    """A map with coefficients in Y read at its strictly decreasing Y exponents, as {(alpha, beta, y): int}.

    With Y empty the coefficients are ints, each read at y = ().
    """
    out = {}
    for (alpha, beta), c in form.items():
        for mono, coeff in as_poly(c).monomials().items():
            exps = dict(mono)
            y = tuple(exps.get(name, 0) for name in Y.names)
            if all(map(operator.gt, y, y[1:])):
                out[alpha, beta, y] = coeff
    return out


class TestAlternantSplitSums:
    """The alternant-coefficient comparison of the split sums, and the spot points, against the cleared polynomial expansion."""

    @pytest.mark.parametrize("mode", ["symbolic", "grid"])
    def test_verdicts_match_the_expansion(self, mode, monkeypatch):
        conclude = identities._conclude
        x_splits, y_splits = identities._conclude_x_splits, identities._conclude_y_splits
        verdicts = []

        def checked(ident, instance, mode, forms, build, names):
            r = conclude(ident, instance, mode, forms, build, names)
            verdicts.append((ident, r.passed, _cleared_expansion_agrees(build, names)))
            return r

        def mutated_x(ident, instance, mode, lam, head, tail, l, X, Y, sign):
            # a flipped sign and a grown partition, each checked by both routes, then the instance itself
            x_splits(ident + "/sign", instance, mode, lam, head, tail, l, X, Y, -sign)
            x_splits(ident + "/grown", instance, mode, lam, Partition._of(_grown(head.parts)), tail, l, X, Y, sign)
            return x_splits(ident, instance, mode, lam, head, tail, l, X, Y, sign)

        def mutated_y(ident, instance, mode, lam, S, T, Y, summands):
            grown = _mutate_first_term(summands, lambda sign, reduced, below: (sign, _grown(reduced), below))
            y_splits(ident + "/sign", instance, mode, lam, S, T, Y, _mutate_first_term(summands, _flipped))
            y_splits(ident + "/grown", instance, mode, lam, S, T, Y, grown)
            return y_splits(ident, instance, mode, lam, S, T, Y, summands)

        monkeypatch.setattr(identities, "_conclude", checked)
        monkeypatch.setattr(identities, "_conclude_x_splits", mutated_x)
        monkeypatch.setattr(identities, "_conclude_y_splits", mutated_y)
        # alphabets of at most 3 variables: X, S u T and Y
        reports = identities.run_catalog(ALTERNANT_SWEEPS, max_box=3, nvars=3, mode=mode)
        assert all(r.passed for r in reports)
        assert [(ident, a) for ident, a, b in verdicts if a != b] == []
        assert {ident for ident, _, _ in verdicts} == set(ALTERNANT_SWEEPS) | {
            f"{name}/{how}" for name in ALTERNANT_SWEEPS for how in ("sign", "grown")
        }
        failing = [ident for ident, a, _ in verdicts if not a]
        for name in ALTERNANT_SWEEPS:
            assert failing.count(f"{name}/sign") > 0 and failing.count(f"{name}/grown") > 0

    def test_failing_witness_prints_int_coefficients_at_three_keys(self):
        # LS_(1)(-(s u t); y1) V(s, t) V(y1) = (y1 - s - t)(s - t) = y1 s - y1 t - s^2 + t^2, keyed by the
        # exponents of (s, t, y1); flipping the sign of one Y split's summand flips its y1 s and s^2 terms
        lam = Partition((1,))
        S, T, Y = VarSeq.make("s", 1), VarSeq.make("t", 1), VarSeq.make("y", 1)
        n, m, l, k, instance = identities._second_overlap_setup(lam, S, T, Y)
        summands = identities._second_overlap_summands(lam, S, T, Y, k, identities._fiber_labels)
        assert identities._conclude_y_splits("t", instance, "symbolic", lam, S, T, Y, summands).passed
        flipped = _mutate_first_term(summands, _flipped)
        r = identities._conclude_y_splits("t", instance, "symbolic", lam, S, T, Y, flipped)
        assert r.failed and r.witness == (
            "coefficients differ: [(((1,), (0,), (1,)), 1), (((1,), (0,), (1,)), -1), "
            "(((2,), (0,), (0,)), -1), (((2,), (0,), (0,)), 1)]"
        )


class TestYSplitKeys:
    """The Y-split maps keyed in S, T and Y against the polynomial forms of _y_split_oracle, read at decreasing Y keys."""

    def test_maps_match_the_oracle(self, monkeypatch):
        forms = identities._y_split_forms

        def agree(lam, S, T, Y, summands):
            assert forms(lam, S, T, Y, summands) == _y_split_oracle(lam, S, T, Y, summands)

        def flip_shared(summands):
            # the first term flipped in the list that every split of its size shares
            terms = next(terms for terms in summands.values() if terms)
            flipped = [_flipped(*terms[0]), *terms[1:]]
            return {key: flipped if value is terms else value for key, value in summands.items()}

        # every instance of the sweeps at --max-box 3 --vars 3, and l(Y) = 3 with l(S) + l(T) <= 3
        instances = list(identities._y_split_instances(3, 3)) + [
            (lam, VarSeq.make("s", l), VarSeq.make("t", n - l), VarSeq.make("y", 3))
            for lam in partitions_in_box(3, 3) for n in range(4) for l in range(n + 1)
        ]
        failing = 0
        for lam, S, T, Y in instances:
            k = lam.index(len(Y), len(S) + len(T))
            # second-overlap's fibers, shared by the splits of one size, and walk-split's walks
            for labels in (None, identities._walk_labels):
                summands = identities._second_overlap_summands(lam, S, T, Y, k, labels)
                agree(lam, S, T, Y, summands)
                if labels is None and any(summands.values()):
                    mutant = flip_shared(summands)
                    agree(lam, S, T, Y, mutant)
                    lhs, rhs = forms(lam, S, T, Y, mutant)
                    failing += lhs != rhs
        assert failing > 0

        # the subpartition-ls sweep, whose terms are shared by the splits of one size
        seen = []

        def checked(lam, S, T, Y, summands):
            seen.append(Y)
            agree(lam, S, T, Y, summands)
            return forms(lam, S, T, Y, summands)

        monkeypatch.setattr(identities, "_y_split_forms", checked)
        reports = identities.run_catalog(["subpartition-ls"], max_box=3, nvars=3)
        assert reports and all(r.passed for r in reports)
        assert len(seen) == len(reports) and max(map(len, seen)) == 2

    # lam = (2, 1) over S u T = (s1, t1) and Y = (y1, y2): each split of size 1 carries one walk's term
    lam = Partition((2, 1))
    S, T, Y = VarSeq.make("s", 1), VarSeq.make("t", 1), VarSeq.make("y", 2)

    def walk_split(self, mode, mutate=lambda summands: summands):
        n, m, l, k, instance = identities._second_overlap_setup(self.lam, self.S, self.T, self.Y)
        summands = identities._second_overlap_summands(self.lam, self.S, self.T, self.Y, k, identities._walk_labels)
        assert [len(U) for U, V in summands].count(1) == 2
        summands = mutate(summands)
        return identities._conclude_y_splits("walk-split", instance, mode, self.lam, self.S, self.T, self.Y, summands)

    @staticmethod
    def flip_first(summands):
        return _mutate_first_term(summands, _flipped)

    def with_terms(self, *extra):
        """The first split of size 1 with extra terms added to its list."""
        def mutate(summands):
            key = next(key for key in summands if len(key[0]) == 1)
            return {**summands, key: [*summands[key], *extra]}

        return mutate

    def test_walk_split_splits_of_one_size_must_agree(self):
        assert self.walk_split("symbolic").passed
        r = self.walk_split("symbolic", self.flip_first)
        assert r.failed and r.witness == "terms differ between the splits (('y1',), ('y2',)) and (('y2',), ('y1',))"

    def test_walk_split_ignores_a_difference_of_zero_terms(self):
        # (2, 2) is outside the (1, 1)-hook of S u U, so LS_(2,2)(-S; U) = 0 and the term adds nothing
        zero = (1, (2, 2), ())
        for mode in ("symbolic", "grid"):
            assert self.walk_split(mode, self.with_terms(zero)).passed

    def test_walk_split_grid_mode_sums_each_split(self):
        # a term and its negative cancel in one split's sum, but that split's terms differ from the other's
        term = (1, (), (2, 1))
        cancelling = self.with_terms(term, (-1, *term[1:]))
        assert self.walk_split("grid", cancelling).passed
        r = self.walk_split("symbolic", cancelling)
        assert r.failed and r.witness.startswith("terms differ between the splits ")
        r = self.walk_split("grid", self.flip_first)
        assert r.failed and r.witness.startswith("point ")


# the symbolic sweeps that take Y-split maps: no polynomial is multiplied or added in them
Y_SPLIT_SWEEPS = ["second-overlap", "walk-split", "subpartition-ls", *UNION_SWEEPS]


@pytest.mark.parametrize("name", Y_SPLIT_SWEEPS)
def test_symbolic_y_split_sums_build_no_polynomial(name, monkeypatch, fresh_memos):
    def refuse(self, other):
        raise AssertionError(f"symbolic {name} multiplied or added a polynomial")

    # a cached form or polynomial would hide an operation, so the memos start empty (fresh_memos)
    for op in ("__mul__", "__rmul__", "__add__", "__radd__"):
        monkeypatch.setattr(MultiPoly, op, refuse)
    reports = identities.run_catalog([name], max_box=3, nvars=4, mode="symbolic")
    assert reports and all(r.passed for r in reports)


@pytest.mark.parametrize("name", ALTERNANT_SWEEPS)
def test_symbolic_split_sums_multiply_only_y_polynomials(name, monkeypatch, fresh_memos):
    multiply = MultiPoly.__mul__

    def y_only(self, other):
        for p in (self, other):
            if isinstance(p, MultiPoly) and any(v[0] in "xst" for v in p.variables()):
                raise AssertionError(f"symbolic {name} multiplied a polynomial in {sorted(p.variables())}")
        return multiply(self, other)

    # a cached form or polynomial would hide a product, so the memos start empty (fresh_memos)
    monkeypatch.setattr(MultiPoly, "__mul__", y_only)
    monkeypatch.setattr(MultiPoly, "__rmul__", y_only)
    reports = identities.run_catalog([name], max_box=3, nvars=3, mode="symbolic")
    assert reports and all(r.passed for r in reports)


# first-overlap-schur takes the same exact route in both modes, so its reports must agree too
@pytest.mark.parametrize("name", ALTERNANT_SWEEPS + ["first-overlap-schur"])
def test_coefficients_and_points_agree_per_check(name):
    symbolic, grid = (identities.run_catalog([name], max_box=3, nvars=3, mode=mode) for mode in ("symbolic", "grid"))
    assert [(r.identity, r.instance, r.outcome) for r in symbolic] == [
        (r.identity, r.instance, r.outcome) for r in grid
    ]
    assert any(r.identity == name for r in symbolic)


@pytest.mark.parametrize("mode", ["symbolic", "grid"])
def test_mutated_split_sums_fail_by_both_routes(mode):
    # first overlap: lam = (2, 1), n = 2, m = 1, l = 1, with the overlap sign flipped
    lam = Partition((2, 1))
    X, Y = VarSeq.make("x", 2), VarSeq.make("y", 1)
    k = lam.index(1, 2)
    mu, nu, sign = next(enumerate_overlap_pairs(lam.take(2 - k), 1, 1 - k))
    assert identities.verify_first_overlap(lam, 1, 2, 1, mu, nu, X, Y, mode).passed
    head, tail = shift_first(mu, k, 1), nu.union(lam.drop(2 - k))
    r = identities._conclude_x_splits("first-overlap", {}, mode, lam, head, tail, 1, X, Y, -sign)
    assert r.failed and r.mode == mode
    # second overlap: lam = (2, 1) over S u T = (s1, t1), Y = (y1), one summand's sign flipped
    S, T = VarSeq.make("s", 1), VarSeq.make("t", 1)
    n, m, l, k, instance = identities._second_overlap_setup(lam, S, T, Y)
    summands = identities._second_overlap_summands(lam, S, T, Y, k, identities._fiber_labels)
    assert identities._conclude_y_splits("second-overlap", instance, mode, lam, S, T, Y, summands).passed
    flipped = _mutate_first_term(summands, _flipped)
    r = identities._conclude_y_splits("second-overlap", instance, mode, lam, S, T, Y, flipped)
    assert r.failed and r.mode == mode


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

        # first-overlap-schur, as it is and with every overlap sign flipped: the same reports, witnesses included
        x_split_forms = identities._x_split_forms
        for flip in (1, -1):
            monkeypatch.setattr(
                identities, "_x_split_forms",
                lambda lam, head, tail, l, X, Y, sign: x_split_forms(lam, head, tail, l, X, Y, flip * sign),
            )
            symbolic, grid = (identities._sweep_first_overlap_schur(2, 2, mode, 0) for mode in ("symbolic", "grid"))
            assert all(b.mode == "grid" for b in grid)
            assert [replace(b, mode="symbolic") for b in grid] == symbolic
            failed = [r for r in grid if r.failed]
            assert bool(failed) == (flip == -1)
            assert all(r.witness.startswith("coefficients differ: ") for r in failed)

    def test_schur_corollaries_clear_nothing(self, monkeypatch):
        # grid mode compares the Schur corollaries' integer coefficient maps: no spot point, no LS value, no den
        def refuse(*args):
            raise AssertionError("a Schur corollary took an LS value or a den, or went to a spot point")

        for name in ("spot_points", "_ls_strips", "delta_of"):
            monkeypatch.setattr(identities, name, refuse)
        for name in SCHUR_SWEEPS:
            reports = identities.run_catalog([name], max_box=3, nvars=2, mode="grid")
            assert reports and all(r.passed and r.mode == "grid" for r in reports)

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


def test_spot_points_reject_more_names_than_bases():
    with pytest.raises(ValueError, match="too many variables"):
        list(identities.spot_points([f"v{i}" for i in range(17)]))


def test_spot_points_reject_repeated_names():
    # a repeated name would get one value, and the coordinates would no longer be pairwise distinct
    with pytest.raises(ValueError, match="repeated variable names"):
        list(identities.spot_points(["a", "a", "b"]))


def test_spot_points_are_distinct_nonzero_integers():
    names = [f"v{i}" for i in range(2 * identities.MAX_VARS)]
    points = list(identities.spot_points(names))
    assert len(points) == identities._SPOT_COUNT
    for point in points:
        values = [point[n] for n in names]
        assert all(type(v) is int and v for v in values)
        assert len(set(values)) == len(values)


def test_spot_points_lie_off_one_line():
    # each difference of two coordinates takes a different value at each point, so a factor such as
    # s1 - y1 + 1 of a false split sum cannot vanish at all of them
    names = [f"v{i}" for i in range(2 * identities.MAX_VARS)]
    points = list(identities.spot_points(names))
    for a, b in itertools.combinations(names, 2):
        assert len({point[a] - point[b] for point in points}) == identities._SPOT_COUNT, (a, b)


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

    def test_laplace_failure_names_the_row_subset(self, monkeypatch):
        # every expansion off by one: each trial's witness lists its n - 1 drawn row subsets, one of each size,
        # each with its expansion and then det(A)
        monkeypatch.setattr(identities, "laplace_expand", lambda A, K: identities.det(A) + 1)
        reports = identities.run_catalog(["laplace"], seed=1)
        assert len(reports) == 5 and all(r.failed for r in reports)
        assert reports[0].witness == (
            "coefficients differ: [((1, 2, 3), 6643), ((1, 2, 3), 6642), ((3, 4), 6643), ((3, 4), 6642), "
            "((4,), 6643), ((4,), 6642)]"
        )
        for r in reports:
            entries = ast.literal_eval(r.witness.removeprefix("coefficients differ: "))
            expansions, dets = entries[::2], entries[1::2]
            assert [K for K, _ in expansions] == [K for K, _ in dets]
            assert sorted(len(K) for K, _ in expansions) == list(range(1, r.instance["n"]))
            assert all(e == d + 1 for (_, e), (_, d) in zip(expansions, dets))


P, V = Partition, VarSeq.make
# (identity, reason, a check that violates it): one case per inapplicable report of the verifiers
INAPPLICABLE = [
    ("first-overlap", "alphabet lengths do not match n, m",
     lambda: identities.verify_first_overlap(P((1,)), 0, 2, 0, P(()), P((1,)), V("x", 1), V("y", 0))),
    ("first-overlap", "l = 2 outside [0, min(n-k, n)] for k = 0",
     lambda: identities.verify_first_overlap(P((1,)), 0, 1, 2, P(()), P(()), V("x", 1), V("y", 0))),
    ("first-overlap", "mu or nu too long for the overlap",
     lambda: identities.verify_first_overlap(P((1,)), 0, 1, 0, P((1,)), P(()), V("x", 1), V("y", 0))),
    ("first-overlap", "overlap of (mu, nu) does not give the head of lambda",
     lambda: identities.verify_first_overlap(P((1,)), 0, 1, 1, P((2,)), P(()), V("x", 1), V("y", 0))),
    ("max-index", "need l(mu) <= l <= n",
     lambda: identities.verify_cor_max_index(P((1,)), P(()), 0, V("x", 1), V("y", 0))),
    ("max-index", "mu + <k^l> is not a partition",
     lambda: identities.verify_cor_max_index(P(()), P((1,)), 1, V("x", 1), V("y", 0))),
    ("max-index", "mu + <k^l> does not have maximal index 0",
     lambda: identities.verify_cor_max_index(P(()), P(()), 1, V("x", 1), V("y", 1))),
    ("first-overlap-schur", "need l(X) = m + n",
     lambda: identities.verify_first_overlap_schur(P(()), P(()), 1, 1, V("x", 1))),
    ("first-overlap-schur", "mu or nu too long",
     lambda: identities.verify_first_overlap_schur(P((1, 1)), P(()), 1, 1, V("x", 2))),
    ("second-overlap-schur", "lambda too long",
     lambda: identities.verify_second_overlap_schur(P((1, 1)), V("s", 1), V("t", 0))),
    ("labeled-walk-schur", "lambda too long",
     lambda: identities.verify_labeled_walk_schur(P((1, 1)), V("s", 1), V("t", 0))),
    ("subpartition-schur", "alphabet lengths do not match m, n",
     lambda: identities.verify_subpartition_schur(P(()), 1, 0, 0, V("s", 0), V("t", 0))),
    ("subpartition-schur", "kappa not inside 1x0",
     lambda: identities.verify_subpartition_schur(P((1,)), 1, 0, 0, V("s", 1), V("t", 0))),
    ("subpartition-ls", "need n~ <= q",
     lambda: identities.verify_subpartition_ls(P(()), 0, 0, 1, 0, 0, V("s", 0), V("t", 1), V("y", 0))),
    ("subpartition-ls", "alphabet lengths do not match",
     lambda: identities.verify_subpartition_ls(P(()), 1, 0, 0, 0, 0, V("s", 0), V("t", 0), V("y", 0))),
    ("subpartition-ls", "kappa not inside 1x0",
     lambda: identities.verify_subpartition_ls(P((1,)), 1, 0, 0, 0, 0, V("s", 1), V("t", 0), V("y", 0))),
    ("subpartition-ls", "kappa misses the corner cell",
     lambda: identities.verify_subpartition_ls(P(()), 1, 0, 0, 1, 1, V("s", 1), V("t", 0), V("y", 1))),
    ("littlewood-square", "l must be non-negative",
     lambda: littlewood_square_check(0, 0, -1, V("x", 0), V("y", 0))),
    ("littlewood-square", "alphabet lengths do not match n, m",
     lambda: littlewood_square_check(1, 0, 0, V("x", 0), V("y", 0))),
    ("factor-rule", "m must be non-negative",
     lambda: factor_rule_check(P(()), -1, V("x", 1))),
    ("factor-rule", "partition longer than variable count",
     lambda: factor_rule_check(P((1, 1)), 0, V("x", 1))),
    ("complement-reciprocity", "lambda does not fit in 1x1",
     lambda: complement_reciprocity_check(P((2,)), 1, V("x", 1))),
]


@pytest.mark.parametrize("ident, reason, check", INAPPLICABLE, ids=[f"{i}: {r}" for i, r, _ in INAPPLICABLE])
def test_each_precondition_reports_inapplicable(ident, reason, check):
    r = check()
    assert (r.identity, r.outcome, r.witness) == (ident, "inapplicable", reason)


# cases beyond the first at a site that reports for more than one identity:
# identities._fiber_union_schur says "lambda too long" for both
# second-overlap-schur and labeled-walk-schur
SHARED_SITE_CASES = 1


def test_every_inapplicable_report_has_a_case():
    sites = sum(inspect.getsource(m).count("report.inapplicable(") for m in (identities, littlewood_schur, schur_module))
    assert sites + SHARED_SITE_CASES == len(INAPPLICABLE) == len({(i, r) for i, r, _ in INAPPLICABLE})
