import itertools
import math
import re

import pytest

from overlapls.partitions import (
    Partition,
    binomial,
    padded_in_box,
    partitions_in_box,
    rect,
    rho,
    shift_first,
    shifted_parts,
)


class TestConstruction:
    def test_trailing_zeros_stripped(self):
        assert Partition((3, 1, 0, 0)) == Partition((3, 1))
        assert Partition((0, 0)) == Partition(())

    def test_unchecked_constructor_matches_the_checked_one(self):
        # every non-increasing tuple over 3..0 of up to 4 entries, trailing zeros included
        for k in range(5):
            for t in itertools.combinations_with_replacement(range(3, -1, -1), k):
                lam = Partition._of(t)
                assert type(lam) is Partition and lam.parts == Partition(t).parts

    def test_rejects_increasing(self):
        with pytest.raises(ValueError):
            Partition((1, 2))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Partition((2, -1))

    def test_rejects_non_integral_parts(self):
        with pytest.raises(ValueError, match="2.7"):
            Partition((2.7, 1))
        with pytest.raises(ValueError, match="'3'"):
            Partition(("3", "1"))
        assert Partition((True,)) == Partition((1,))

    def test_equals_no_tuple_that_is_not_a_partition(self):
        assert Partition((1,)) != (1, 2)
        assert not Partition((1,)) == (1, -1)
        assert not Partition(()) == ("a",)
        assert Partition((2, 1)) == (2, 1)
        assert Partition((2, 1)) != (2, 1, 0)

    def test_equal_tuples_hash_alike(self):
        assert Partition((2, 1, 0)) in {(2, 1)}
        assert Partition((2, 1)) not in {(2, 1, 0)}
        assert {(2, 1): "a"}[Partition((2, 1))] == "a"
        assert len({Partition((2, 1)), (2, 1), Partition((2, 1, 0))}) == 1

    def test_size_and_length(self):
        lam = Partition((7, 4, 2, 2))
        assert lam.size == 15
        assert lam.length == 4

    def test_part_accessor_conventions(self):
        lam = Partition((3, 1))
        assert lam.part(0) == math.inf
        assert lam.part(1) == 3
        assert lam.part(5) == 0


class TestRho:
    def test_zero(self):
        assert rho(0) == Partition(())

    def test_one(self):
        assert rho(1) == Partition(())

    def test_five(self):
        assert rho(5) == Partition((4, 3, 2, 1))


class TestConjugate:
    def test_reference_example(self):
        assert Partition((5, 5, 2)).conjugate() == Partition((3, 3, 2, 2, 2))

    def test_empty(self):
        assert Partition(()).conjugate() == Partition(())

    def test_subpartition_example(self):
        assert Partition((7, 3, 2, 1)).conjugate() == Partition((4, 3, 2, 1, 1, 1, 1))

    def test_involution_and_size(self):
        for lam in partitions_in_box(5, 5):
            assert lam.conjugate().conjugate() == lam
            assert lam.conjugate().size == lam.size


class TestContainsCell:
    def test_beyond_row(self):
        assert Partition((7, 4, 2, 2)).contains_cell(6, 2) is False

    def test_zero_conventions(self):
        lam = Partition((2, 1))
        assert lam.contains_cell(0, 9) is True
        assert lam.contains_cell(9, 0) is True

    def test_inside(self):
        assert Partition((7, 4, 2, 2)).contains_cell(2, 4) is True

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Partition((1,)).contains_cell(-1, 0)


class TestAddUnion:
    def test_reference_add(self):
        assert Partition((5, 5, 2)).add(Partition((4, 3))) == Partition((9, 8, 2))

    def test_union_with_empty(self):
        lam = Partition((3, 2))
        assert lam.union(Partition(())) == lam

    def test_union_conjugate_is_add_of_conjugates(self):
        box = list(partitions_in_box(4, 4))
        for mu in box:
            for nu in box:
                lhs = mu.union(nu).conjugate()
                rhs = mu.conjugate().add(nu.conjugate())
                assert lhs == rhs


class TestIndex:
    def test_reference_values(self):
        lam = Partition((7, 4, 2, 2))
        assert lam.index(6, 3) == 2
        assert lam.index(3, 5) == 1
        assert lam.index(2, 1) == -1

    def test_empty_partition(self):
        for m in range(5):
            for n in range(5):
                assert Partition(()).index(m, n) == min(m, n)

    def test_two_characterizations_agree(self):
        # the largest k with the outside cell is the smallest k with the inside cell
        for lam in partitions_in_box(4, 4):
            for m in range(5):
                for n in range(5):
                    k = lam.index(m, n)
                    assert not lam.contains_cell(m + 1 - k, n + 1 - k)
                    assert lam.contains_cell(m - k, n - k)

    def test_conjugation_invariance(self):
        for lam in partitions_in_box(5, 5):
            for m in range(6):
                for n in range(6):
                    assert lam.index(m, n) == lam.conjugate().index(n, m)


class TestComplement:
    def test_reference_example(self):
        assert Partition((5, 5, 2)).complement(6, 3) == Partition((4, 1, 1))

    def test_full_rectangle(self):
        assert rect(4, 3).complement(4, 3) == Partition(())

    def test_derived_example(self):
        assert Partition((4, 4, 2, 2, 1, 1, 1)).complement(4, 7) == Partition((3, 3, 3, 2, 2))

    def test_rejects_oversized(self):
        with pytest.raises(ValueError):
            Partition((5,)).complement(4, 2)

    def test_involution(self):
        for lam in partitions_in_box(4, 3):
            assert lam.complement(4, 3).complement(4, 3) == lam

    def test_commutes_with_conjugation(self):
        for m in range(1, 6):
            for n in range(1, 6):
                for lam in partitions_in_box(m, n):
                    lhs = lam.complement(m, n).conjugate()
                    rhs = lam.conjugate().complement(n, m)
                    assert lhs == rhs

    def test_commutes_with_addition(self):
        for lam in partitions_in_box(3, 2):
            for kappa in partitions_in_box(2, 2):
                lhs = lam.add(kappa).complement(3 + 2, 2)
                rhs = lam.complement(3, 2).add(kappa.complement(2, 2))
                assert lhs == rhs


class TestHelpers:
    def test_take_drop(self):
        lam = Partition((5, 3, 1))
        assert lam.take(2) == Partition((5, 3))
        assert lam.take(5) == lam
        assert lam.drop(1) == Partition((3, 1))
        assert lam.drop(4) == Partition(())

    def test_negative_part_index(self):
        with pytest.raises(IndexError, match="negative part index"):
            Partition((2, 1)).part(-1)

    def test_select(self):
        lam = Partition((7, 4, 3, 3, 3, 1))
        assert lam.select((2, 3, 7)) == (4, 3, 0)

    def test_shift_first(self):
        assert shift_first(Partition((3, 2)), 2, 3) == Partition((5, 4, 2))
        assert shift_first(Partition((3, 2)), -2, 2) == Partition((1,))
        with pytest.raises(ValueError):
            shift_first(Partition((3, 2)), -3, 2)

    def test_shifted_parts_raise_where_the_checked_shift_does(self):
        def checked_shift(lam, k, l):
            # shift_first's earlier body, through the checking constructor
            p = lam.padded(max(l, lam.length))
            return Partition(tuple(x + k for x in p[:l]) + p[l:])

        raised = 0
        for lam in partitions_in_box(4, 4):
            for k in range(-3, 4):
                for l in range(5):
                    try:
                        want = checked_shift(lam, k, l)
                    except ValueError as e:
                        for shift in (shifted_parts, lambda parts, k, l: shift_first(Partition._of(parts), k, l)):
                            with pytest.raises(ValueError, match=re.escape(str(e))):
                                shift(lam.parts, k, l)
                        raised += 1
                    else:
                        assert shifted_parts(lam.parts, k, l) == want.parts
                        assert shift_first(lam, k, l) == want
        assert 0 < raised < 70 * 7 * 5

    def test_partitions_in_box_count(self):
        # 2000 rows lie deeper than the interpreter's recursion limit
        for m, n in [*itertools.product(range(5), repeat=2), (1, 2000)]:
            assert len(list(partitions_in_box(m, n))) == binomial(m + n, m)

    @pytest.mark.parametrize("m, n", [(2, -1), (-1, 2), (-1, 0)])
    def test_partitions_in_box_rejects_negative_sizes(self, m, n):
        with pytest.raises(ValueError, match="non-negative"):
            partitions_in_box(m, n)  # raises at the call, not at the first item

    def test_padded_in_box_pads_the_partitions_in_box_in_order(self):
        for m, n in [*itertools.product(range(5), repeat=2), (1, 40)]:
            assert list(padded_in_box(m, n)) == [lam.padded(n) for lam in partitions_in_box(m, n)]

    @pytest.mark.parametrize("m, n", [(2, -1), (-1, 2), (-1, 0)])
    def test_padded_in_box_rejects_negative_sizes(self, m, n):
        with pytest.raises(ValueError, match="non-negative"):
            padded_in_box(m, n)  # raises at the call, not at the first item

    def test_contains(self):
        assert Partition((3, 2)).contains(Partition((2, 2)))
        assert not Partition((3, 2)).contains(Partition((2, 2, 1)))

    def test_json(self):
        assert Partition((7, 4, 2, 2)).to_json() == [7, 4, 2, 2]
