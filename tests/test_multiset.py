"""Unit and property-based tests for the multiset (bag) substrate."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.multiset import Multiset

small_ints = st.integers(min_value=-50, max_value=50)
int_lists = st.lists(small_ints, max_size=12)
#: Values of several types, among them the equal keys ``1``, ``1.0`` and
#: ``True`` (one bag entry under whichever key arrived first).
mixed_values = st.one_of(
    st.sampled_from([1, 1.0, True, 0, 0.0, False]),
    small_ints,
    st.text(max_size=2),
    st.tuples(small_ints, small_ints),
)


class TestConstruction:
    def test_from_iterable_counts_duplicates(self):
        bag = Multiset([3, 5, 3, 7])
        assert bag.count(3) == 2
        assert bag.count(5) == 1
        assert bag.count(7) == 1
        assert len(bag) == 4

    def test_from_mapping(self):
        bag = Multiset({"a": 2, "b": 1})
        assert bag.count("a") == 2
        assert len(bag) == 3

    def test_from_mapping_drops_zero_counts(self):
        bag = Multiset({"a": 0, "b": 1})
        assert "a" not in bag
        assert len(bag) == 1

    def test_from_mapping_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            Multiset({"a": -1})

    def test_from_multiset_copies(self):
        original = Multiset([1, 2, 2])
        copy = Multiset(original)
        assert copy == original

    def test_empty_and_singleton(self):
        assert len(Multiset.empty()) == 0
        assert not Multiset.empty()
        single = Multiset.singleton(9)
        assert list(single) == [9]

    def test_empty_is_falsy_nonempty_is_truthy(self):
        assert not Multiset()
        assert Multiset([0])


class TestQueries:
    def test_membership(self):
        bag = Multiset([1, 1, 2])
        assert 1 in bag
        assert 2 in bag
        assert 3 not in bag

    def test_iteration_respects_multiplicity(self):
        bag = Multiset([4, 4, 4, 2])
        assert sorted(bag) == [2, 4, 4, 4]

    def test_distinct(self):
        assert Multiset([1, 1, 2, 3, 3]).distinct() == frozenset({1, 2, 3})

    def test_counts_returns_fresh_dict(self):
        bag = Multiset([1, 1])
        counts = bag.counts()
        counts[1] = 99
        assert bag.count(1) == 2

    def test_min_max_sum(self):
        bag = Multiset([3, 5, 3, 7])
        assert bag.min() == 3
        assert bag.max() == 7
        assert bag.sum() == 18

    def test_min_max_empty_raise(self):
        with pytest.raises(ValueError):
            Multiset().min()
        with pytest.raises(ValueError):
            Multiset().max()

    def test_most_common(self):
        bag = Multiset([1, 1, 1, 2])
        assert bag.most_common()[0] == (1, 3)

    def test_to_sorted_list(self):
        assert Multiset([3, 1, 2, 1]).to_sorted_list() == [1, 1, 2, 3]


class TestAlgebra:
    def test_union_adds_multiplicities(self):
        assert Multiset([1, 2]) | Multiset([2, 3]) == Multiset([1, 2, 2, 3])

    def test_union_with_empty_is_identity(self):
        bag = Multiset([1, 2, 2])
        assert bag | Multiset.empty() == bag

    def test_add_operator_is_union(self):
        assert Multiset([1]) + Multiset([1]) == Multiset([1, 1])

    def test_difference_truncates_at_zero(self):
        assert Multiset([1, 1, 2]) - Multiset([1, 3]) == Multiset([1, 2])

    def test_intersection_takes_minimum(self):
        assert Multiset([1, 1, 2]) & Multiset([1, 2, 2]) == Multiset([1, 2])

    def test_issubset(self):
        assert Multiset([1, 2]) <= Multiset([1, 1, 2, 3])
        assert not Multiset([1, 1]) <= Multiset([1, 2])
        assert Multiset([1, 1, 2, 3]) >= Multiset([1, 2])

    def test_add_and_remove(self):
        bag = Multiset([1])
        grown = bag.add(2).add(1)
        assert grown == Multiset([1, 1, 2])
        assert grown.remove(1) == Multiset([1, 2])

    def test_add_zero_copies_is_noop(self):
        bag = Multiset([1])
        assert bag.add(5, count=0) is bag

    def test_add_negative_count_rejected(self):
        with pytest.raises(ValueError):
            Multiset([1]).add(1, count=-1)

    def test_remove_more_than_present_raises(self):
        with pytest.raises(KeyError):
            Multiset([1]).remove(1, count=2)

    def test_map(self):
        assert Multiset([1, 2, 2]).map(lambda v: v * 10) == Multiset([10, 20, 20])

    def test_immutability_of_operations(self):
        bag = Multiset([1, 2])
        _ = bag | Multiset([3])
        _ = bag - Multiset([1])
        assert bag == Multiset([1, 2])


class TestEqualityHashing:
    def test_equality_ignores_order(self):
        assert Multiset([1, 2, 3]) == Multiset([3, 2, 1])

    def test_inequality_on_multiplicity(self):
        assert Multiset([1, 1]) != Multiset([1])

    def test_hash_consistent_with_equality(self):
        assert hash(Multiset([1, 2, 2])) == hash(Multiset([2, 1, 2]))

    def test_usable_in_sets(self):
        seen = {Multiset([1, 2]), Multiset([2, 1]), Multiset([1, 1])}
        assert len(seen) == 2

    def test_not_equal_to_other_types(self):
        assert Multiset([1]) != [1]

    def test_same_size_bags_compare_by_counts(self):
        # Equal sizes and equal numbers of distinct values: only the
        # counts themselves tell these bags apart.
        assert Multiset([1, 2, 2]) != Multiset([1, 1, 2])
        assert Multiset([1, 2, 2]) != Multiset([1, 3, 3])

    def test_equal_keys_of_different_types_share_an_entry(self):
        assert Multiset([1, 1.0, True]).count(1) == 3
        assert Multiset([1, 1.0]) == Multiset([True, True])

    @given(int_lists, int_lists)
    def test_equality_matches_sorted_contents(self, xs, ys):
        # Bag equality is exact: it holds precisely when the two element
        # lists are permutations of each other.
        assert (Multiset(xs) == Multiset(ys)) == (sorted(xs) == sorted(ys))


class TestProperties:
    @given(int_lists, int_lists)
    def test_union_commutative(self, xs, ys):
        assert Multiset(xs) | Multiset(ys) == Multiset(ys) | Multiset(xs)

    @given(int_lists, int_lists, int_lists)
    def test_union_associative(self, xs, ys, zs):
        a, b, c = Multiset(xs), Multiset(ys), Multiset(zs)
        assert (a | b) | c == a | (b | c)

    @given(int_lists)
    def test_union_with_empty_identity(self, xs):
        assert Multiset(xs) | Multiset() == Multiset(xs)

    @given(int_lists, int_lists)
    def test_union_cardinality_adds(self, xs, ys):
        assert len(Multiset(xs) | Multiset(ys)) == len(xs) + len(ys)

    @given(int_lists, int_lists)
    def test_difference_then_union_contains_original(self, xs, ys):
        a, b = Multiset(xs), Multiset(ys)
        assert a <= (a - b) | (a & b)

    @given(int_lists)
    def test_roundtrip_through_iteration(self, xs):
        bag = Multiset(xs)
        assert Multiset(list(bag)) == bag

    @given(int_lists, int_lists)
    def test_subset_relation_consistent_with_counts(self, xs, ys):
        a, b = Multiset(xs), Multiset(ys)
        expected = all(a.count(v) <= b.count(v) for v in a.distinct())
        assert (a <= b) == expected

    @given(int_lists)
    def test_sum_matches_python_sum(self, xs):
        assert Multiset(xs).sum() == sum(xs)


class TestFunctionalDelta:
    def test_discard_truncates_at_zero(self):
        bag = Multiset([1, 1, 2])
        assert bag.discard(1) == Multiset([1, 2])
        assert bag.discard(1, count=5) == Multiset([2])
        assert bag.discard(99) == bag

    def test_apply_delta_matches_rebuild(self):
        bag = Multiset([1, 2, 2, 3])
        updated = bag.apply_delta(removed=[2, 3], added=[4, 4, 1])
        assert updated == Multiset([1, 1, 2, 4, 4])
        assert len(updated) == 5

    def test_apply_delta_maintains_size_and_counts(self):
        bag = Multiset([1, 2, 2]).apply_delta(removed=[1], added=[3, 2, 2])
        assert len(bag) == 5
        assert bag.count(2) == 4
        assert 3 in bag and 1 not in bag
        assert bag.distinct() == frozenset({2, 3})

    def test_apply_delta_may_remove_what_it_adds(self):
        # Additions land first, so a state that passes through the bag
        # within one delta is legal.
        bag = Multiset([1]).apply_delta(removed=[7, 1], added=[7, 8])
        assert bag == Multiset([8])

    def test_delta_result_hashes_like_a_rebuild(self):
        bag = Multiset([1, 2, 2])
        hash(bag)  # fill the original's hash cache
        updated = bag.apply_delta(removed=[2], added=[5])
        assert hash(updated) == hash(Multiset([1, 2, 5]))
        assert {updated, Multiset([5, 2, 1])} == {updated}

    def test_apply_delta_rejects_absent_removals(self):
        bag = Multiset([1, 2])
        with pytest.raises(KeyError):
            bag.apply_delta(removed=[1, 3], added=[])
        # The failed delta built its counts on a copy: the bag is intact.
        assert bag == Multiset([1, 2])
        assert len(bag) == 2 and bag.count(1) == 1

    @given(int_lists, int_lists, int_lists)
    def test_random_delta_matches_rebuild(self, xs, rem, add):
        # Respect multiplicity: remove each value at most as many times as
        # it is present (additions are applied first, so `add` counts too).
        budget = Multiset(xs + add).counts()
        removable = []
        for value in rem:
            if budget.get(value, 0) > 0:
                budget[value] -= 1
                removable.append(value)
        bag = Multiset(xs)
        updated = bag.apply_delta(removable, add)
        expected = Multiset(xs + add)
        for value in removable:
            expected = expected.remove(value)
        assert updated == expected
        assert len(updated) == len(expected)
        assert bag == Multiset(xs)  # the original is untouched

    @given(
        st.lists(mixed_values, max_size=8),
        st.lists(
            st.tuples(
                st.lists(mixed_values, max_size=5),
                st.lists(st.integers(min_value=0, max_value=20), max_size=5),
            ),
            max_size=6,
        ),
    )
    def test_chained_deltas_of_mixed_values_match_rebuild(self, initial, deltas):
        # Removals may name values that only this delta's additions supply,
        # and 1 / 1.0 / True share one entry, so the fold must apply the
        # additions first and count equal keys together.
        bag = Multiset(initial)
        contents = list(initial)
        for added, picks in deltas:
            pool = contents + added
            chosen = {pick % len(pool) for pick in picks} if pool else set()
            removed = [pool[index] for index in sorted(chosen)]
            bag = bag.apply_delta(removed, added)
            contents = [value for index, value in enumerate(pool) if index not in chosen]
            fresh = Multiset(contents)
            assert bag == fresh
            assert len(bag) == len(fresh)
            assert bag.distinct() == fresh.distinct()
