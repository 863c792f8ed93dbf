import inspect
import itertools
import json
import operator

import pytest

from overlapls.overlap import enumerate_overlap_pairs, staircase
from overlapls.partitions import Partition, binomial, partitions_in_box, rho
from overlapls.walks import (
    StaircaseWalk,
    enumerate_walks,
    is_quasi_partition,
    subsets_and_complements,
    walk_times,
)

REFERENCE_WALK = StaircaseWalk("HVVHHHVHH")


def labeled_walk_oracle(stair, v_times, h_times, build):
    """One walk's (mu, nu, sign), with every constant built for that walk alone: the oracle for the rectangle pass."""
    m, n = len(v_times), len(h_times)
    mu = build(tuple(map(operator.sub, map(stair.__getitem__, v_times), range(m - 1, -1, -1))))
    nu = build(tuple(map(operator.sub, map(stair.__getitem__, h_times), range(n - 1, -1, -1))))
    return mu, nu, -1 if (sum(h_times) + n * m + n * (n + 1) // 2) % 2 else 1


def step_time_encoding(pi: StaircaseWalk):
    """Step-time encoding of the walk's partitions.

    mu(pi) + rho_m equals rho_{m+n} restricted to vertical step times, and
    nu(pi)' + rho_n equals the restriction to horizontal step times.
    """
    big = rho(len(pi))
    return Partition(big.select(pi.v_times())), Partition(big.select(pi.h_times()))


def complement_walk(w):
    """Walk the stairs in the opposite direction: the reversed step word, whose mu is nu of w."""
    return StaircaseWalk(w.steps[::-1])


class TestEnumeration:
    def test_1x1(self):
        assert [w.steps for w in enumerate_walks(1, 1)] == ["HV", "VH"]

    def test_6x3_contains_reference_walk(self):
        walks = list(enumerate_walks(6, 3))
        assert len(walks) == 84
        assert REFERENCE_WALK in walks

    def test_4x4_count(self):
        assert len(list(enumerate_walks(4, 4))) == 70

    def test_order_matches_recursive_definition(self):
        # H before V at the first differing step, word by word
        def gen(h, v):
            if h == 0 and v == 0:
                yield ""
                return
            if h:
                for rest in gen(h - 1, v):
                    yield "H" + rest
            if v:
                for rest in gen(h, v - 1):
                    yield "V" + rest

        for n in range(6):
            for m in range(6):
                assert [w.steps for w in enumerate_walks(n, m)] == list(gen(n, m))

    def test_streams_without_materializing(self):
        walks = enumerate_walks(30, 30)
        assert inspect.isgenerator(walks)
        assert next(walks).steps == "H" * 30 + "V" * 30
        assert next(walks).steps == "H" * 29 + "VH" + "V" * 29

    def test_counts_match_binomial(self):
        for n in range(5):
            for m in range(5):
                walks = list(enumerate_walks(n, m))
                assert len(walks) == len(set(walks)) == binomial(n + m, m)
                assert len(list(walk_times(n, m))) == binomial(n + m, m)


class TestStepTimes:
    def test_reference_walk(self):
        assert REFERENCE_WALK.v_times() == (2, 3, 7)
        assert REFERENCE_WALK.h_times() == (1, 4, 5, 6, 8, 9)

    def test_all_horizontal(self):
        w = StaircaseWalk("HHHH")
        assert w.v_times() == ()
        assert w.h_times() == (1, 2, 3, 4)

    def test_times_partition_the_interval(self):
        for n in range(5):
            for m in range(5):
                for w in enumerate_walks(n, m):
                    assert tuple(sorted(w.v_times() + w.h_times())) == tuple(range(1, n + m + 1))


def _oracle_geometry(w):
    """The walk's step times and partitions, built step by step from the word."""
    v_times = tuple(i + 1 for i, s in enumerate(w.steps) if s == "V")
    h_times = tuple(i + 1 for i, s in enumerate(w.steps) if s == "H")
    rows, cols = [], []
    remaining_h, remaining_v = w.n, w.m
    for s in w.steps:
        if s == "V":
            rows.append(remaining_h)
            remaining_v -= 1
        else:
            cols.append(remaining_v)
            remaining_h -= 1
    return v_times, h_times, Partition(rows), Partition(cols)


class TestGeometry:
    def test_matches_step_by_step_definitions(self):
        for n in range(9):
            for m in range(9 - n):
                walks = list(enumerate_walks(n, m))
                times = list(walk_times(n, m))
                assert len(times) == len(walks)
                # walk_times yields enumerate_walks' walks, in the same order
                for w, (v_times, h_times) in zip(walks, times):
                    oracle_v, oracle_h, mu, nu_conj = _oracle_geometry(w)
                    assert (v_times, h_times) == (w.v_times(), w.h_times()) == (oracle_v, oracle_h)
                    assert (w.mu(), w.nu_conj()) == (mu, nu_conj)

    def test_times_reject_negative_dimensions(self):
        for n, m in ((-1, 2), (2, -1), (-1, -1), (0, -1)):
            with pytest.raises(ValueError):
                walk_times(n, m)

    def test_times_keep_enumerate_walks_order(self):
        # enumerate pairs streams its fiber in this order
        for n in range(6):
            for m in range(6):
                walks = [(w.v_times(), w.h_times()) for w in enumerate_walks(n, m)]
                assert list(walk_times(n, m)) == walks


class TestSubsetsAndComplements:
    def test_each_subset_meets_its_exact_complement(self):
        for seq in ((), "a", "abcde", range(1, 7), (9, 7, 4, 2, 1)):
            k = len(seq)
            for m in range(k + 2):
                chosen, rest = subsets_and_complements(seq, m)
                pairs = list(zip(chosen, rest))
                assert [alpha for alpha, _ in pairs] == list(itertools.combinations(seq, m))
                assert len(pairs) == (binomial(k, m) if m <= k else 0)
                assert next(rest, None) is None
                for alpha, beta in pairs:
                    assert beta == tuple(x for x in seq if x not in alpha)

    def test_ends_of_the_range(self):
        seq = (5, 3, 2)
        assert [list(it) for it in subsets_and_complements(seq, 0)] == [[()], [seq]]
        assert [list(it) for it in subsets_and_complements(seq, 3)] == [[seq], [()]]
        assert [list(it) for it in subsets_and_complements((), 0)] == [[()], [()]]

    def test_negative_size_raises(self):
        with pytest.raises(ValueError):
            subsets_and_complements((1, 2), -1)


class TestWalkPartitions:
    def test_reference_walk(self):
        assert REFERENCE_WALK.mu() == Partition((5, 5, 2))
        assert REFERENCE_WALK.nu() == Partition((4, 1, 1))

    def test_all_vertical_first(self):
        for n in range(1, 4):
            for m in range(1, 4):
                w = StaircaseWalk("V" * m + "H" * n)
                assert w.mu() == Partition((n,) * m)
                assert w.nu() == Partition(())

    def test_nu_is_complement_of_mu(self):
        for n in range(5):
            for m in range(5):
                for w in enumerate_walks(n, m):
                    assert w.nu() == w.mu().complement(n, m)

    def test_sizes_fill_rectangle(self):
        for n in range(5):
            for m in range(5):
                for w in enumerate_walks(n, m):
                    assert w.mu().size + w.nu().size == m * n

    def test_step_time_encoding_exhaustive(self):
        for n in range(7):
            for m in range(7):
                r_m, r_n = rho(m), rho(n)
                for w in enumerate_walks(n, m):
                    enc_v, enc_h = step_time_encoding(w)
                    assert w.mu().add(r_m).padded(m) == enc_v.padded(m)
                    assert w.nu_conj().add(r_n).padded(n) == enc_h.padded(n)


class TestSplit:
    def test_reference_nine_step_split(self):
        # 9-step walk, cut after n - k = 4 steps: 2x2 prefix and 4x1 suffix
        pi1, pi2 = REFERENCE_WALK.split(4)
        assert (pi1.n, pi1.m) == (2, 2)
        assert (pi2.n, pi2.m) == (4, 1)
        assert len(pi1) == 4 and len(pi2) == 5

    def test_zero_cut(self):
        pi1, pi2 = REFERENCE_WALK.split(0)
        assert pi1.steps == ""
        assert pi2 == REFERENCE_WALK

    def test_concatenation_reproduces_walk(self):
        for n in range(5):
            for m in range(5):
                if n + m > 8:
                    continue
                for w in enumerate_walks(n, m):
                    for c in range(len(w) + 1):
                        a, b = w.split(c)
                        assert a.steps + b.steps == w.steps

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            REFERENCE_WALK.split(10)


class TestComplementWalk:
    def test_reversal(self):
        assert complement_walk(REFERENCE_WALK).steps == "HHVHHHVVH"

    def test_involution(self):
        for w in enumerate_walks(3, 2):
            assert complement_walk(complement_walk(w)) == w

    def test_swaps_partitions(self):
        for n in range(5):
            for m in range(5):
                for w in enumerate_walks(n, m):
                    tau = complement_walk(w)
                    assert tau.mu() == w.nu()
                    assert tau.nu() == w.mu()

    def test_step_time_reflection(self):
        for w in enumerate_walks(4, 3):
            tau = complement_walk(w)
            vt, vw = tau.v_times(), w.v_times()
            total = len(w)
            for i in range(w.m):
                assert vw[w.m - 1 - i] == total + 1 - vt[i]


class TestQuasiPartitions:
    def test_reference_labels(self):
        w = StaircaseWalk.from_v_times((1, 3, 7), 9)
        assert is_quasi_partition((4, 2, 3, 1, 1, -1, -1, 0, 0), w)

    def test_partitions_always_pass(self):
        for n in range(5):
            for m in range(5):
                if n + m < 3:
                    continue
                from overlapls.partitions import partitions_in_box

                for lam in partitions_in_box(3, n + m):
                    labels = lam.padded(n + m)
                    for w in enumerate_walks(n, m):
                        assert is_quasi_partition(labels, w)

    def test_double_increase_rejected(self):
        assert not is_quasi_partition((0, 1, 2), StaircaseWalk("HVH"))

    def test_negative_tail_rejected(self):
        assert not is_quasi_partition((1, 1, -1), StaircaseWalk("HVH"))

    def test_same_type_increase_rejected(self):
        assert not is_quasi_partition((0, 1, 0), StaircaseWalk("HHV"))

    def test_cross_type_jump_rejected(self):
        assert not is_quasi_partition((0, 2, 0), StaircaseWalk("HVH"))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            is_quasi_partition((1, 2), StaircaseWalk("HVH"))

    def test_empty_walk(self):
        assert is_quasi_partition((), StaircaseWalk(""))

    @pytest.mark.parametrize("labels, bad", [((1.7, 0.2), "1.7"), (("1", "0"), "'1'")])
    def test_non_integral_labels_rejected(self, labels, bad):
        # int() would read these as (1, 0), a quasi-partition on HV
        with pytest.raises(ValueError, match=f"non-integral label {bad}"):
            is_quasi_partition(labels, StaircaseWalk("HV"))


class TestConstruction:
    def test_from_v_times(self):
        assert StaircaseWalk.from_v_times((2, 3, 7), 9) == REFERENCE_WALK

    def test_repr(self):
        assert repr(StaircaseWalk("HV")) == "StaircaseWalk('HV')"

    def test_walk_is_its_word(self):
        # equality, hashing and len are the word's, and json writes a walk as its word
        assert REFERENCE_WALK == "HVVHHHVHH" and hash(REFERENCE_WALK) == hash("HVVHHHVHH")
        assert len(REFERENCE_WALK) == 9 == REFERENCE_WALK.n + REFERENCE_WALK.m
        assert json.dumps({"walk": REFERENCE_WALK}) == '{"walk": "HVVHHHVHH"}'
        assert type(REFERENCE_WALK.steps) is str and REFERENCE_WALK.steps == REFERENCE_WALK
        with pytest.raises(AttributeError):
            REFERENCE_WALK.label = 1

    def test_invalid_steps(self):
        with pytest.raises(ValueError):
            StaircaseWalk("HXV")

    def test_invalid_v_times(self):
        with pytest.raises(ValueError):
            StaircaseWalk.from_v_times((0, 2), 3)
        with pytest.raises(ValueError):
            StaircaseWalk.from_v_times((2, 2), 3)

    def test_non_integral_v_time_rejected(self):
        # a time of 1.5 matches no step, so it used to give the walk HH with no V step
        with pytest.raises(ValueError, match="non-integral step time 1.5"):
            StaircaseWalk.from_v_times((1.5,), 2)

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            StaircaseWalk.from_v_times((), -1)
        assert StaircaseWalk.from_v_times((), 0) == StaircaseWalk("")

    def test_from_v_times_reads_an_iterator_once(self):
        assert StaircaseWalk.from_v_times((t for t in (1, 3)), 4) == StaircaseWalk("VHVH")


class TestRectangleLabeling:
    def test_fiber_matches_the_per_walk_oracle(self):
        # the fibers sizes: every lam of the 5 x 5 box, m, n <= 4; same triples in the same order
        for lam in partitions_in_box(5, 5):
            for m in range(5):
                for n in range(5):
                    if lam.length <= m + n:
                        stair = (None, *staircase(lam, m + n))
                        want = [labeled_walk_oracle(stair, v, h, Partition._of) for v, h in walk_times(n, m)]
                        assert list(enumerate_overlap_pairs(lam, m, n)) == want
