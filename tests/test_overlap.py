import collections
import contextlib
import importlib
import io
import itertools
import operator

import pytest

from overlapls import cli, identities, walks
from overlapls.overlap import (
    OverlapResult,
    brute_force_fiber,
    c_indices,
    count_fiber,
    enumerate_overlap_pairs,
    enumerate_subpartition_pairs,
    infinite_overlap_witness,
    overlap,
    reconstruct_from_witness,
    staircase,
    sub_partition,
    subpartition_to_overlap,
    walk_overlap_pair,
)
from overlapls.partitions import Partition, partitions_in_box, rect, rho
from overlapls.polyring import sort_sign
from overlapls.walks import StaircaseWalk, enumerate_walks, is_quasi_partition

# the package re-exports the function overlap under the module's name
overlap_module = importlib.import_module("overlapls.overlap")


def overlap_scan_oracle(lam, m, n):
    """The fiber scan that builds overlap(mu, nu) for every candidate of the box."""
    by_size = {}
    for nu in partitions_in_box(lam.part(1) + m, n):
        by_size.setdefault(nu.size, []).append(nu)
    out = []
    for mu in partitions_in_box(lam.part(1) + n, m):
        for nu in by_size.get(lam.size + m * n - mu.size, ()):
            r = overlap(mu, nu, m, n)
            if r.is_finite and r.value == lam:
                out.append((mu, nu, r.sign))
    return out


def overlap_oracle(mu, nu, m, n):
    """The overlap from the positions of the mu entries in the merge, each result built by the checking constructors."""
    mu_stair = staircase(mu, m)
    merged = sorted(mu_stair + staircase(nu, n), reverse=True)
    at = tuple(map(merged.index, mu_stair))
    if len(set(merged)) < m + n:
        return OverlapResult(None, 1)
    sign = -1 if (sum(at) - m * (m - 1) // 2) % 2 else 1
    return OverlapResult(Partition(map(operator.sub, merged, range(m + n - 1, -1, -1))), sign)


def zero_padded_staircase(lam, k):
    """lam + rho_k from lam padded with zeros and a range of offsets: the oracle of the staircase read off the delta table."""
    parts = lam.parts
    if len(parts) > k:
        raise ValueError(f"cannot pad {lam} to shorter length {k}")
    return tuple(map(operator.add, parts + (0,) * (k - len(parts)), range(k - 1, -1, -1)))


def overlap_helper_oracle(mu, nu, m, n):
    """overlap() through its input check and zero-padded staircases: the oracle of the body that inlines the delta table."""
    overlap_module._check_pair(mu, nu, m, n)
    mu_stair = zero_padded_staircase(mu, m)
    merged = sorted(mu_stair + zero_padded_staircase(nu, n), reverse=True)
    if len(set(merged)) < m + n:
        return OverlapResult.infinite()
    value = Partition._of(tuple(map(operator.sub, merged, range(m + n - 1, -1, -1))))
    return OverlapResult.finite(value, -1 if (sum(map(merged.index, mu_stair)) - m * (m - 1) // 2) % 2 else 1)


def brute_force_fiber_on_partitions(lam, m, n):
    """brute_force_fiber with every candidate of both boxes a Partition: the oracle of the scan on padded tuples."""
    target = staircase(lam, m + n)
    entries = set(target)
    nu_of = {staircase(nu, n): nu for nu in partitions_in_box(lam.part(1) + m, n)}
    out = []
    for mu in partitions_in_box(lam.part(1) + n, m):
        mu_stair = staircase(mu, m)
        if entries.issuperset(mu_stair):
            nu = nu_of.get(tuple(t for t in target if t not in mu_stair))
            if nu is not None:
                r = overlap(mu, nu, m, n)
                if r.is_finite and r.value == lam:
                    out.append((mu, nu, r.sign))
    return out


def subpairs_on_partitions(kappa, m, n, l):
    """enumerate_subpartition_pairs with every lam of the box a Partition: the oracle of the scan on padded tuples."""
    N = n + l
    want = tuple(map(operator.sub, kappa.padded(l), range(l)))
    shift, positions = range(n, n - N, -1), range(1, N + 1)
    out = []
    for lam in partitions_in_box(m, N):
        position = dict(zip(map(operator.add, lam.padded(N), shift), positions))
        K = tuple(map(position.get, want))
        if None not in K:
            out.append((lam, K))
    return out


def padded_sum_oracle(alpha, pi):
    """The labeling by padded sums: each partition of the walk, padded, plus the labels at its step times."""
    mu = Partition(map(operator.add, pi.mu().padded(pi.m), (alpha[t - 1] for t in pi.v_times())))
    nu = Partition(map(operator.add, pi.nu_conj().padded(pi.n), (alpha[t - 1] for t in pi.h_times())))
    return mu, nu, (-1) ** pi.nu().size


def subpair_scan_oracle(kappa, m, n, l):
    """The marked-pair scan that builds sub_partition(lam, n + l, K) for every candidate."""
    return [
        (lam, K)
        for lam in partitions_in_box(m, n + l)
        for K in itertools.combinations(range(1, n + l + 1), l)
        if sub_partition(lam, n + l, K) == kappa
    ]


class TestOverlap:
    def test_intro_example(self):
        r = overlap(Partition((9, 6, 1)), Partition((4, 3, 3, 2)), 3, 5)
        assert r == OverlapResult.finite(Partition((4, 2, 2, 2, 2, 1)), -1)

    def test_empty_inputs(self):
        for m in range(3):
            r = overlap(Partition(()), Partition(()), m, 0)
            assert r == OverlapResult.finite(Partition(()), 1)

    def test_infinite_example(self):
        r = overlap(Partition((10, 8, 1)), Partition((4, 2, 2)), 3, 6)
        assert r.is_infinite and r.sign == 1

    def test_result_sign_repr_and_hash(self):
        with pytest.raises(ValueError, match="sign must be"):
            OverlapResult.finite(Partition((1,)), 0)
        r = OverlapResult.finite(Partition((2, 1)), -1)
        assert repr(r) == "OverlapResult(Partition(2, 1), sign=-1)"
        assert repr(OverlapResult.infinite()) == "OverlapResult(infinite)"
        assert hash(r) == hash(OverlapResult.finite(Partition((2, 1)), -1))
        assert hash(OverlapResult.infinite()) == hash(OverlapResult.infinite())

    def test_result_is_a_named_pair(self):
        # equality, hashing and unpacking are the tuple's; overlap builds the class itself, finite or not
        lam = Partition((4, 2, 2, 2, 2, 1))
        r = overlap(Partition((9, 6, 1)), Partition((4, 3, 3, 2)), 3, 5)
        assert type(r) is OverlapResult and r == (lam, -1) and hash(r) == hash((lam, -1))
        value, sign = r
        assert (value, sign) == (r.value, r.sign) == (lam, -1)
        infinite = overlap(Partition((10, 8, 1)), Partition((4, 2, 2)), 3, 6)
        assert type(infinite) is OverlapResult and infinite == (None, 1) and hash(infinite) == hash((None, 1))

    def test_length_preconditions(self):
        # overlap and the witness share one check, which names a negative dimension first; the messages are the
        # helper oracle's, past the delta table too
        cases = [
            ((1, 1), (), 1, 1, "length of Partition(1, 1) exceeds m = 1"),
            ((), (1, 1), 1, 1, "length of Partition(1, 1) exceeds n = 1"),
            ((), (2, 2, 1), 38, 2, "length of Partition(2, 2, 1) exceeds n = 2"),
            ((), (), -1, 2, "rectangle dimensions must be non-negative"),
            ((1,), (), 2, -1, "rectangle dimensions must be non-negative"),
            ((), (), 40, -1, "rectangle dimensions must be non-negative"),
        ]
        for mu, nu, m, n, message in cases:
            for f in (overlap, infinite_overlap_witness, overlap_helper_oracle):
                with pytest.raises(ValueError) as error:
                    f(Partition(mu), Partition(nu), m, n)
                assert str(error.value) == message

    def test_definitional_identity_exhaustive(self):
        # finite value + staircase is a rearrangement of the shifted inputs
        m = 3
        box = list(partitions_in_box(4, 3))
        for n in range(0, 5):
            stair = rho(m + n).padded(m + n)
            for mu in box:
                for nu in partitions_in_box(4, n):
                    r = overlap(mu, nu, m, n)
                    merged = sorted(
                        tuple(
                            a + b
                            for a, b in zip(mu.padded(m), rho(m).padded(m))
                        )
                        + tuple(
                            a + b
                            for a, b in zip(nu.padded(n), rho(n).padded(n))
                        ),
                        reverse=True,
                    )
                    if r.is_finite:
                        shifted = [v + s for v, s in zip(r.value.padded(m + n), stair)]
                        assert shifted == merged
                    else:
                        assert len(set(merged)) < m + n

    def test_matches_the_oracle_on_the_4x4_boxes(self):
        # every pair of the 4 x 4 boxes with m, n <= 5, infinite overlaps included, against both oracles
        infinite = 0
        for m in range(6):
            for n in range(6):
                for mu in partitions_in_box(4, min(m, 4)):
                    for nu in partitions_in_box(4, min(n, 4)):
                        r = overlap(mu, nu, m, n)
                        assert r == overlap_oracle(mu, nu, m, n) == overlap_helper_oracle(mu, nu, m, n), (mu, nu, m, n)
                        if r.value is None:
                            assert r.is_infinite and r.sign == 1
                            infinite += 1
        assert infinite

    @pytest.mark.parametrize("total", [31, 32, 33, 40])
    def test_matches_the_helper_oracle_at_and_past_the_table_end(self, total):
        # m + n at the last delta the table holds and past it, where every delta is built per call
        seen = collections.Counter()
        for m in sorted({0, 1, 7, total // 2, total - 1, total}):
            n = total - m
            for mu in partitions_in_box(3, min(m, 2)):
                for nu in partitions_in_box(3, min(n, 2)):
                    r = overlap(mu, nu, m, n)
                    assert r == overlap_helper_oracle(mu, nu, m, n), (mu, nu, m, n)
                    seen[r.is_finite] += 1
            for lam in (Partition(()), Partition((3, 1)), rect(2, min(m, 3))):
                if lam.length <= m:
                    assert staircase(lam, m) == zero_padded_staircase(lam, m)
        assert seen[True] and seen[False]

    def test_a_negative_k_never_reads_the_delta_table(self):
        with pytest.raises(ValueError, match="cannot pad Partition"):
            staircase(Partition(()), -1)
        for k in range(-len(walks._DELTAS) - 1, 0):
            with pytest.raises(ValueError, match="negative"):
                walks.delta(k)

    def test_delta_reads_a_fixed_table(self):
        for k in range(41):
            assert walks.delta(k) == tuple(range(k - 1, -1, -1))
        assert len(walks._DELTAS) == walks._DELTA_END and walks.delta(3) is walks._DELTAS[3]

    def test_results_are_immutable(self):
        # a result is a named pair and its value a Partition, whose __setattr__ refuses
        finite, infinite = overlap(Partition((1,)), Partition(()), 1, 1), overlap(Partition((1,)), Partition((1,)), 1, 1)
        for obj, name in [(finite, "value"), (finite, "sign"), (infinite, "sign"), (finite.value, "parts")]:
            with pytest.raises(AttributeError):
                setattr(obj, name, None)

    def test_complement_skew_commutativity(self):
        for m in range(0, 4):
            for n in range(0, 4):
                for l in range(0, 4):
                    for mu in partitions_in_box(n + l, m):
                        for nu in partitions_in_box(m + l, n):
                            r = overlap(mu, nu, m, n)
                            if r.is_infinite or not r.value.fits_in(l, m + n):
                                continue
                            rc = overlap(
                                mu.complement(n + l, m), nu.complement(m + l, n), m, n
                            )
                            assert rc.is_finite
                            assert rc.value == r.value.complement(l, m + n)
                            assert rc.sign == (-1) ** (m * n) * r.sign


class TestFiberEnumeration:
    def test_reference_walk_pair(self):
        lam = Partition((7, 4, 3, 3, 3, 1))
        pi = StaircaseWalk.from_v_times((2, 3, 7), 9)
        mu, nu, sign = walk_overlap_pair(lam, pi)
        assert mu == Partition((9, 8, 2))
        assert nu == Partition((10, 4, 4, 2))
        assert sign == 1

    def test_empty_lambda_1x1(self):
        pairs = set()
        for mu, nu, sign in enumerate_overlap_pairs(Partition(()), 1, 1):
            pairs.add((mu.parts, nu.parts, sign))
        assert pairs == {((1,), (), 1), ((), (1,), -1)}

    def test_every_pair_overlaps_back(self):
        for m in range(0, 5):
            for n in range(0, 5):
                for lam in partitions_in_box(3, m + n):
                    fiber = list(enumerate_overlap_pairs(lam, m, n))
                    assert len(fiber) == count_fiber(m, n)
                    for mu, nu, sign in fiber:
                        assert overlap(mu, nu, m, n) == OverlapResult.finite(lam, sign)

    def test_matches_brute_force(self):
        for lam in [Partition(()), Partition((1,)), Partition((3, 1)), Partition((2, 2, 1))]:
            for m in range(0, 4):
                for n in range(0, 4):
                    if lam.length > m + n:
                        continue
                    got = sorted(
                        (mu.parts, nu.parts, s)
                        for mu, nu, s in enumerate_overlap_pairs(lam, m, n)
                    )
                    want = sorted(
                        (mu.parts, nu.parts, s) for mu, nu, s in brute_force_fiber(lam, m, n)
                    )
                    assert got == want
                    assert len(got) == len(set(got)) == count_fiber(m, n)

    def test_sign_law(self):
        lam = Partition((3, 2))
        from overlapls.walks import enumerate_walks

        for pi in enumerate_walks(3, 2):
            _, _, sign = walk_overlap_pair(lam, pi)
            assert sign == (-1) ** pi.nu().size == (-1) ** (3 * 2 - pi.mu().size)

    def test_length_precondition(self):
        with pytest.raises(ValueError):
            list(enumerate_overlap_pairs(Partition((1, 1, 1)), 1, 1))

    def test_scan_matches_overlap_oracle(self):
        # same triples, same order, same signs as the per-candidate overlap() scan
        for lam in partitions_in_box(4, 4):
            for m in range(0, 4):
                for n in range(0, 4):
                    if lam.length <= m + n:
                        assert brute_force_fiber(lam, m, n) == overlap_scan_oracle(lam, m, n)

    def test_scan_matches_the_scan_on_partitions(self):
        # the same Partition triples in the same order, over the 5 x 5 box with m, n <= 3
        for lam in partitions_in_box(5, 5):
            for m in range(4):
                for n in range(4):
                    if lam.length <= m + n:
                        got = brute_force_fiber(lam, m, n)
                        assert got == brute_force_fiber_on_partitions(lam, m, n), (lam, m, n)
                        assert all(type(mu) is Partition and type(nu) is Partition for mu, nu, _ in got)

    def test_scan_calls_overlap_only_on_accepted_pairs(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return overlap(*args)

        monkeypatch.setattr(overlap_module, "overlap", counted)
        for lam, m, n in [(Partition((2, 1)), 3, 3), (Partition(()), 2, 3), (Partition((4, 4, 1)), 3, 2)]:
            calls.clear()
            result = brute_force_fiber(lam, m, n)
            assert len(result) == count_fiber(m, n)
            assert len(calls) == len(result)

    def test_fibers_and_walk_split_build_no_walk_object(self, monkeypatch, fresh_memos):
        # both read walks as step times off the combinations, never as StaircaseWalk words; the label memos start empty
        def refuse(*args):
            raise AssertionError("a StaircaseWalk was built")

        monkeypatch.setattr(StaircaseWalk, "_of", staticmethod(refuse))
        monkeypatch.setattr(StaircaseWalk, "__init__", refuse)
        for lam in partitions_in_box(4, 4):
            for m in range(4):
                for n in range(4):
                    if lam.length <= m + n:
                        fiber = list(enumerate_overlap_pairs(lam, m, n))
                        assert len(fiber) == count_fiber(m, n)
                        for mu, nu, sign in fiber:
                            assert overlap(mu, nu, m, n) == OverlapResult.finite(lam, sign)
        reports = identities.run_catalog(["walk-split"], max_box=3, nvars=3)
        assert reports and all(r.passed for r in reports)

    def test_scan_shares_the_input_check(self):
        for lam, m, n in [(Partition((1, 1, 1)), 1, 1), (Partition(()), -1, 2)]:
            with pytest.raises(ValueError) as walk_error:
                list(enumerate_overlap_pairs(lam, m, n))
            with pytest.raises(ValueError) as scan_error:
                brute_force_fiber(lam, m, n)
            assert str(scan_error.value) == str(walk_error.value)


class TestInfiniteWitness:
    def test_none_for_finite(self):
        assert infinite_overlap_witness(Partition((1,)), Partition(()), 1, 1) is None

    def test_complementary_pairs_are_finite(self):
        # the fiber of the empty partition pairs mu with the conjugate of
        # its complement, so those pairs never need a witness
        for mu in partitions_in_box(3, 2):
            nu = mu.complement(3, 2).conjugate()
            assert infinite_overlap_witness(mu, nu, 2, 3) is None
            assert overlap(mu, nu, 2, 3) == OverlapResult.finite(
                Partition(()), (-1) ** mu.complement(3, 2).size
            )

    def test_reference_instance(self):
        mu, nu = Partition((10, 8, 1)), Partition((4, 2, 2))
        pi, alpha = infinite_overlap_witness(mu, nu, 3, 6)
        assert alpha == (4, 2, 3, 1, 1, -1, -1, 0, 0)
        assert is_quasi_partition(alpha, pi)
        assert reconstruct_from_witness(pi, alpha) == (mu, nu)

    def test_roundtrip_exhaustive(self):
        box = list(partitions_in_box(4, 3))
        infinite_seen = 0
        for mu in box:
            for nu in box:
                w = infinite_overlap_witness(mu, nu, 3, 3)
                if overlap(mu, nu, 3, 3).is_infinite:
                    assert w is not None
                    pi, alpha = w
                    assert is_quasi_partition(alpha, pi)
                    # a witness label sequence is never itself a partition
                    assert any(a < 0 for a in alpha) or any(
                        alpha[i] < alpha[i + 1] for i in range(len(alpha) - 1)
                    )
                    assert reconstruct_from_witness(pi, alpha) == (mu, nu)
                    infinite_seen += 1
                else:
                    assert w is None
        assert infinite_seen > 0

    def test_label_count_must_match_the_walk(self):
        pi = StaircaseWalk("HV")
        for alpha in [(1,), (1, 0, 0)]:
            with pytest.raises(ValueError, match=f"label sequence length {len(alpha)} != walk length 2"):
                reconstruct_from_witness(pi, alpha)


class TestSubpartitions:
    def test_reference_example(self):
        lam = Partition((4, 4, 2, 2, 1, 1, 1))
        assert sub_partition(lam, 7, (1, 4, 5, 7)) == Partition((7, 3, 2, 1))

    def test_full_index_set(self):
        lam = Partition((3, 2, 1))
        assert sub_partition(lam, 5, (1, 2, 3, 4, 5)) == lam

    def test_single_removal_formula(self):
        # dropping index j shifts the first j-1 survivors up by one
        for lam in partitions_in_box(4, 4):
            for N in range(lam.length, 7):
                for j in range(1, N + 1):
                    K = tuple(i for i in range(1, N + 1) if i != j)
                    got = sub_partition(lam, N, K)
                    expect = Partition(
                        tuple(lam.part(i) + 1 for i in K[: j - 1]) + tuple(lam.part(i) for i in K[j - 1 :])
                    )
                    assert got == expect

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            sub_partition(Partition((2,)), 3, (2, 2))
        with pytest.raises(ValueError):
            sub_partition(Partition((2,)), 3, (4,))


class TestCIndices:
    def test_reference_example(self):
        assert c_indices((1, 2, 4, 5), 6) == (1, 4)

    def test_full_set(self):
        assert c_indices(tuple(range(1, 7)), 6) == ()

    def test_length_complement(self):
        from itertools import combinations

        for n in range(0, 9):
            for size in range(0, n + 1):
                for K in combinations(range(1, n + 1), size):
                    C = c_indices(K, n)
                    assert len(C) == n - size
                    assert all(1 <= c <= n for c in C)

    def test_invalid(self):
        with pytest.raises(ValueError):
            c_indices((0, 1), 3)


class TestSubpartitionToOverlap:
    def test_reference_example(self):
        lam = Partition((4, 4, 2, 2, 1, 1, 1))
        K = (1, 4, 5, 7)
        mu, nu, sign = subpartition_to_overlap(lam, K, 4, 7)
        assert mu == Partition((7, 4, 2, 2))
        assert nu == Partition((6, 3, 1))
        assert sign == -1
        r = overlap(mu, nu, 4, len(c_indices(K, 7)))
        assert r == OverlapResult.finite(Partition((4, 3, 2, 1, 1, 1, 1)), -1)
        assert r.value == sub_partition(lam, 7, K).conjugate()

    def test_full_k(self):
        lam = Partition((2, 1))
        mu, nu, sign = subpartition_to_overlap(lam, (1, 2, 3), 2, 3)
        assert mu == lam.conjugate()
        assert nu == Partition(())
        assert sign == 1

    def test_agrees_with_overlap_everywhere(self):
        from itertools import combinations

        for lam in partitions_in_box(3, 4):
            for size in range(0, 5):
                for K in combinations(range(1, 5), size):
                    mu, nu, sign = subpartition_to_overlap(lam, K, 3, 4)
                    C = c_indices(K, 4)
                    r = overlap(mu, nu, 3, len(C))
                    assert r.is_finite
                    assert r.value == sub_partition(lam, 4, K).conjugate()
                    assert r.sign == sign


class TestSubpartitionPairs:
    def test_empty_kappa_base_case(self):
        # K is forced to the top slots and lam ranges over the m x n box
        for m in range(0, 3):
            for n in range(0, 3):
                for l in range(0, 3):
                    pairs = enumerate_subpartition_pairs(Partition(()), m, n, l)
                    assert len(pairs) == count_fiber(m, n)
                    for lam, K in pairs:
                        assert K == tuple(range(n + 1, n + l + 1))
                        assert lam.fits_in(m, n)

    def test_m1_n1_l0(self):
        pairs = enumerate_subpartition_pairs(Partition(()), 1, 1, 0)
        assert len(pairs) == 2

    def test_cardinality_and_bijection(self):
        for m in range(0, 4):
            for n in range(0, 4):
                for l in range(0, 3):
                    for kappa in partitions_in_box(m + n, l):
                        pairs = enumerate_subpartition_pairs(kappa, m, n, l)
                        assert len(pairs) == count_fiber(m, n)
                        mapped = sorted(
                            (mu.parts, nu.parts, s)
                            for mu, nu, s in (
                                subpartition_to_overlap(lam, K, m, n + l) for lam, K in pairs
                            )
                        )
                        fiber = sorted(
                            (mu.parts, nu.parts, s)
                            for mu, nu, s in enumerate_overlap_pairs(kappa.conjugate(), m, n)
                        )
                        assert mapped == fiber

    def test_matches_sub_partition_oracle(self):
        # same pairs in the same order as the scan that builds every subpartition
        for m in range(0, 4):
            for n in range(0, 4):
                for l in range(0, 3):
                    for kappa in partitions_in_box(m + n, l):
                        got = enumerate_subpartition_pairs(kappa, m, n, l)
                        assert got == subpair_scan_oracle(kappa, m, n, l)

    def test_matches_the_scan_on_partitions_over_the_5x5_box(self):
        # the lam box is 5 x 5: m = 5 and n + l = 5; the same Partition pairs in the same order
        found = 0
        for l in range(6):
            for kappa in partitions_in_box(10 - l, l):
                got = enumerate_subpartition_pairs(kappa, 5, 5 - l, l)
                assert got == subpairs_on_partitions(kappa, 5, 5 - l, l), (kappa, l)
                assert all(type(lam) is Partition for lam, _ in got)
                found += len(got)
        assert found

    def test_invalid_kappa(self):
        with pytest.raises(ValueError):
            enumerate_subpartition_pairs(Partition((5,)), 2, 2, 1)

    @pytest.mark.parametrize("m, n, l", [(1, -1, 0), (-1, 1, 1), (1, 1, -1)])
    def test_negative_dimensions(self, m, n, l):
        with pytest.raises(ValueError) as scan_error:
            enumerate_subpartition_pairs(Partition(()), m, n, l)
        with pytest.raises(ValueError) as fiber_error:
            brute_force_fiber(Partition(()), -1, 0)
        assert str(scan_error.value) == str(fiber_error.value)


class TestSignAndLabelingOracles:
    def test_cross_pair_sign_matches_sort_sign(self):
        # every pair of the 4 x 3 box with m, n <= 3: the full inversion count of the merge
        infinite = 0
        for m in range(4):
            for n in range(4):
                for mu in partitions_in_box(4, m):
                    for nu in partitions_in_box(4, n):
                        sign = sort_sign(staircase(mu, m) + staircase(nu, n))
                        r = overlap(mu, nu, m, n)
                        assert r.is_infinite == (sign == 0)
                        assert r.sign == (sign or 1)
                        infinite += r.is_infinite
        assert infinite

    def test_step_time_labeling_matches_padded_sums(self):
        for total in range(8):
            for n in range(total + 1):
                for pi in enumerate_walks(n, total - n):
                    for lam in partitions_in_box(2, total):
                        assert walk_overlap_pair(lam, pi) == padded_sum_oracle(lam.padded(total), pi)

    def test_any_label_sequence_matches_padded_sums(self):
        # reconstruct_from_witness takes public labels: a non-partition result raises, as in the oracle
        raised = 0
        for total in range(5):
            for n in range(total + 1):
                for pi in enumerate_walks(n, total - n):
                    for alpha in itertools.product(range(-1, 3), repeat=total):
                        try:
                            want = padded_sum_oracle(alpha, pi)[:2]
                        except ValueError:
                            with pytest.raises(ValueError):
                                reconstruct_from_witness(pi, alpha)
                            raised += 1
                        else:
                            assert reconstruct_from_witness(pi, alpha) == want
        assert raised


def _fiber_results():
    """Walk fibers, definitional scans and marked-pair scans on small boxes."""
    out = []
    for lam in partitions_in_box(4, 4):
        for m in range(4):
            for n in range(4):
                if lam.length <= m + n:
                    out.append(list(enumerate_overlap_pairs(lam, m, n)))
                    out.append(brute_force_fiber(lam, m, n))
    for m in range(4):
        for n in range(4):
            for l in range(3):
                for kappa in partitions_in_box(m + n, l):
                    out.append(enumerate_subpartition_pairs(kappa, m, n, l))
    return out


def _verify_stdout():
    texts = []
    for mode in ("symbolic", "grid"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(["verify", "all", "--max-box", "2", "--vars", "2", "--mode", mode, "--seed", "1"]) == 0
        texts.append(out.getvalue())
    return texts


class TestUncheckedConstructors:
    """Partition._of and StaircaseWalk._of skip the checks only on values valid by construction."""

    def test_every_unchecked_value_passes_the_checks(self, monkeypatch, fresh_memos):
        want = _fiber_results(), _verify_stdout()
        calls = collections.Counter()

        def checked(cls):
            def make(value):
                calls[cls.__name__] += 1
                return cls(value)

            return staticmethod(make)

        # route both through the checking constructors, which raise ValueError on a bad value
        monkeypatch.setattr(Partition, "_of", checked(Partition))
        monkeypatch.setattr(StaircaseWalk, "_of", checked(StaircaseWalk))
        with pytest.raises(ValueError):
            Partition._of((1, 2))
        fresh_memos()  # a memo would hand back values built before the patch
        assert (_fiber_results(), _verify_stdout()) == want
        assert calls["Partition"] and calls["StaircaseWalk"]
