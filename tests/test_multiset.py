"""Unit and property-based tests for the multiset (bag) substrate."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.multiset import Multiset, MutableMultiset

small_ints = st.integers(min_value=-50, max_value=50)
int_lists = st.lists(small_ints, max_size=12)
#: Values of several types, among them the equal keys ``1``, ``1.0`` and
#: ``True`` (one bag entry, one hash, so one fingerprint).
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


class TestFingerprint:
    def test_equal_bags_have_equal_fingerprints(self):
        assert Multiset([1, 2, 2]).fingerprint() == Multiset([2, 1, 2]).fingerprint()

    def test_fingerprint_distinguishes_multiplicity(self):
        assert Multiset([1, 1]).fingerprint() != Multiset([1]).fingerprint()

    def test_fingerprint_is_64_bit(self):
        assert 0 <= Multiset(range(100)).fingerprint() < 2**64

    @given(int_lists, int_lists)
    def test_fingerprint_consistent_with_equality(self, xs, ys):
        a, b = Multiset(xs), Multiset(ys)
        if a == b:
            assert a.fingerprint() == b.fingerprint()
        # (the converse — unequal bags, equal fingerprints — is possible
        # only as an astronomically rare 64-bit collision)


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

    def test_apply_delta_rejects_absent_removals(self):
        with pytest.raises(KeyError):
            Multiset([1]).apply_delta(removed=[2], added=[])


class TestMutableMultiset:
    def test_add_discard_maintain_size_and_counts(self):
        bag = MutableMultiset([1, 2, 2])
        bag.add(3)
        bag.add(2, count=2)
        assert bag.discard(1) == 1
        assert bag.discard(1) == 0
        assert len(bag) == 5
        assert bag.count(2) == 4
        assert 3 in bag and 1 not in bag

    def test_snapshot_matches_contents_and_is_cached(self):
        bag = MutableMultiset([5, 5, 7])
        first = bag.snapshot()
        assert first == Multiset([5, 7, 5])
        assert bag.snapshot() is first  # no mutation: shared snapshot
        bag.add(9)
        second = bag.snapshot()
        assert second is not first
        assert second == Multiset([5, 5, 7, 9])
        assert first == Multiset([5, 5, 7])  # snapshots are immutable views

    def test_matches_uses_fingerprint_and_confirms(self):
        bag = MutableMultiset([1, 2, 3])
        assert bag.matches(Multiset([3, 2, 1]))
        assert not bag.matches(Multiset([1, 2]))
        assert not bag.matches(Multiset([1, 2, 4]))
        assert bag == Multiset([1, 2, 3])

    @given(int_lists, int_lists, int_lists)
    def test_incremental_fingerprint_matches_fresh_computation(self, xs, rem, add):
        bag = MutableMultiset(xs)
        # Respect multiplicity: remove each value at most as many times as
        # it is present (additions are applied first, so `add` counts too).
        budget = Multiset(xs + add).counts()
        removable = []
        for value in rem:
            if budget.get(value, 0) > 0:
                budget[value] -= 1
                removable.append(value)
        bag.apply_delta(removable, add)
        expected = Multiset(xs + add)
        for value in removable:
            expected = expected.remove(value)
        assert bag.snapshot() == expected
        assert bag.fingerprint() == expected.fingerprint()
        assert len(bag) == len(expected)

    @given(
        st.lists(mixed_values, max_size=8),
        st.lists(
            st.tuples(
                st.lists(mixed_values, max_size=5),
                st.lists(st.integers(min_value=0, max_value=20), max_size=5),
                st.booleans(),
            ),
            max_size=6,
        ),
    )
    def test_fingerprint_stays_fresh_as_unseen_values_arrive(self, initial, deltas):
        bag = MutableMultiset(initial)
        contents = list(initial)
        for added, picks, one_by_one in deltas:
            pool = contents + added
            chosen = {pick % len(pool) for pick in picks} if pool else set()
            removed = [pool[index] for index in sorted(chosen)]
            if one_by_one:
                for value in added:
                    bag.add(value)
                for value in removed:
                    assert bag.discard(value) == 1
            else:
                bag.apply_delta(removed, added)
            contents = [value for index, value in enumerate(pool) if index not in chosen]
            fresh = Multiset(contents)
            assert bag.fingerprint() == fresh.fingerprint()
            assert bag.snapshot() == fresh
            # The memo holds exactly the values the bag holds.
            assert len(bag._fingerprints) == len(fresh.distinct())

    def test_apply_delta_rejects_absent_removals(self):
        bag = MutableMultiset([1, 2])
        with pytest.raises(KeyError):
            bag.apply_delta([3], [])
