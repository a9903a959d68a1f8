"""Finite multisets (bags) of hashable values.

The paper models the collective state of a set of agents as a *multiset* of
agent states: two agents may hold identical states, and the collective state
``S_B`` of a group ``B`` is the bag ``{S_a | a in B}``.  Distributed
functions ``f`` and objective functions ``h`` are functions on such bags,
and the central structural property of the methodology — super-idempotence,
``f(X ∪ Y) = f(f(X) ∪ Y)`` — is stated in terms of bag union.

:class:`Multiset` is an immutable, hashable bag with the operations the
paper uses:

* bag union (``|`` or :meth:`union`), which *adds* multiplicities,
* bag difference (``-``),
* sub-bag containment (``<=``),
* membership, counting and iteration with multiplicity.

Immutability keeps value semantics simple: agent states are snapshots, and a
group transition produces a *new* bag rather than mutating the old one, so
traces of a computation can be stored and compared without defensive copies.

The standard library's :class:`collections.Counter` provides a mutable bag;
we wrap rather than expose it so that bags are hashable (usable as members
of sets of reachable states in the model checker) and so that arithmetic on
negative multiplicities can never arise.

The simulation engines keep their per-round bookkeeping in the same bag:
each round folds its ``(removed, added)`` state delta in with
:meth:`~Multiset.apply_delta`, which copies the counts once and touches
only the changed values, and a round that changed nothing keeps the
previous bag — the same object — so quiet rounds share it.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping
from typing import Any, Hashable, Iterable, Iterator

__all__ = ["Multiset"]


class Multiset:
    """An immutable finite multiset of hashable elements.

    Parameters
    ----------
    elements:
        An iterable of elements (repetitions allowed), or a mapping from
        element to multiplicity.  Multiplicities must be non-negative;
        zero-multiplicity entries are dropped.

    Examples
    --------
    >>> Multiset([3, 5, 3, 7])
    Multiset({3: 2, 5: 1, 7: 1})
    >>> Multiset([1, 2]) | Multiset([2, 3])
    Multiset({1: 1, 2: 2, 3: 1})
    >>> len(Multiset([3, 5, 3, 7]))
    4
    """

    __slots__ = ("_counts", "_size", "_hash")

    def __init__(self, elements: Iterable[Hashable] | Mapping[Hashable, int] = ()):
        if isinstance(elements, Multiset):
            counts = dict(elements._counts)
        elif isinstance(elements, Mapping):
            counts = {}
            for value, count in elements.items():
                if count < 0:
                    raise ValueError(
                        f"multiplicity of {value!r} must be non-negative, got {count}"
                    )
                if count > 0:
                    counts[value] = int(count)
        else:
            counts = dict(Counter(elements))
        self._counts: dict[Hashable, int] = counts
        self._size: int = sum(counts.values())
        self._hash: int | None = None

    # -- construction helpers ------------------------------------------------

    @classmethod
    def _from_counts(cls, counts: dict[Hashable, int], size: int) -> "Multiset":
        """Trusted fast-path constructor: adopt ``counts`` without copying.

        Callers must guarantee positive multiplicities, a correct ``size``
        and exclusive ownership of ``counts`` (the dictionary is adopted,
        not copied).  Used by :meth:`apply_delta` to keep the engines'
        per-round fold free of the O(n) Counter rebuild in
        :meth:`__init__`.
        """
        bag = cls.__new__(cls)
        bag._counts = counts
        bag._size = size
        bag._hash = None
        return bag

    @classmethod
    def empty(cls) -> "Multiset":
        """Return the empty multiset."""
        return _EMPTY

    @classmethod
    def singleton(cls, value: Hashable) -> "Multiset":
        """Return the multiset ``{value}`` containing a single element."""
        return cls([value])

    # -- basic queries -------------------------------------------------------

    def count(self, value: Hashable) -> int:
        """Return the multiplicity of ``value`` (0 if absent)."""
        return self._counts.get(value, 0)

    def __contains__(self, value: Hashable) -> bool:
        return value in self._counts

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def __iter__(self) -> Iterator[Hashable]:
        """Iterate over elements *with multiplicity*."""
        for value, count in self._counts.items():
            for _ in range(count):
                yield value

    def distinct(self) -> frozenset:
        """Return the underlying *set* of distinct elements."""
        return frozenset(self._counts)

    def counts(self) -> dict[Hashable, int]:
        """Return a fresh ``{element: multiplicity}`` dictionary."""
        return dict(self._counts)

    def most_common(self) -> list[tuple[Hashable, int]]:
        """Return ``(element, multiplicity)`` pairs, highest multiplicity first."""
        return Counter(self._counts).most_common()

    # -- bag algebra ---------------------------------------------------------

    def union(self, other: "Multiset") -> "Multiset":
        """Bag union: multiplicities add.

        This is the paper's bold ``∪`` operator.  Note that it differs from
        the set-union of ``Counter`` (which takes the maximum multiplicity).
        """
        other = _coerce(other)
        merged = Counter(self._counts)
        merged.update(other._counts)
        return Multiset(merged)

    def difference(self, other: "Multiset") -> "Multiset":
        """Bag difference: multiplicities subtract, truncating at zero."""
        other = _coerce(other)
        result = Counter(self._counts)
        result.subtract(other._counts)
        return Multiset({v: c for v, c in result.items() if c > 0})

    def intersection(self, other: "Multiset") -> "Multiset":
        """Bag intersection: multiplicities take the minimum."""
        other = _coerce(other)
        return Multiset(
            {
                v: min(c, other.count(v))
                for v, c in self._counts.items()
                if other.count(v) > 0
            }
        )

    def issubset(self, other: "Multiset") -> bool:
        """Return True when every multiplicity in ``self`` is <= that in ``other``."""
        other = _coerce(other)
        return all(count <= other.count(value) for value, count in self._counts.items())

    def add(self, value: Hashable, count: int = 1) -> "Multiset":
        """Return a new multiset with ``count`` extra copies of ``value``."""
        if count < 0:
            raise ValueError("count must be non-negative")
        if count == 0:
            return self
        merged = dict(self._counts)
        merged[value] = merged.get(value, 0) + count
        return Multiset(merged)

    def remove(self, value: Hashable, count: int = 1) -> "Multiset":
        """Return a new multiset with ``count`` copies of ``value`` removed.

        Raises
        ------
        KeyError
            If fewer than ``count`` copies of ``value`` are present.
        """
        present = self.count(value)
        if present < count:
            raise KeyError(
                f"cannot remove {count} copies of {value!r}: only {present} present"
            )
        merged = dict(self._counts)
        if present == count:
            del merged[value]
        else:
            merged[value] = present - count
        return Multiset(merged)

    def discard(self, value: Hashable, count: int = 1) -> "Multiset":
        """Return a new multiset with up to ``count`` copies of ``value`` removed.

        Unlike :meth:`remove`, removing more copies than are present is not
        an error — the multiplicity simply truncates at zero.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        present = self.count(value)
        if present == 0 or count == 0:
            return self
        return self.remove(value, min(count, present))

    def apply_delta(
        self, removed: Iterable[Hashable], added: Iterable[Hashable]
    ) -> "Multiset":
        """Return the multiset after applying a ``(removed, added)`` state delta.

        Additions are applied before removals (so a delta that moves a
        state through the bag is always legal), and removed elements must
        be present with sufficient multiplicity once those additions are
        accounted for.  It costs one dictionary copy plus
        O(|removed| + |added|), instead of the O(n) rebuild that
        ``Multiset(updated_elements)`` would take.

        Raises
        ------
        KeyError
            If the delta would drive a multiplicity negative — a delta
            naming states the bag never held means the caller's
            bookkeeping has drifted.  ``self`` is left unchanged.
        """
        counts = dict(self._counts)
        size = self._size
        for value in added:
            counts[value] = counts.get(value, 0) + 1
            size += 1
        for value in removed:
            present = counts.get(value, 0)
            if present == 0:
                raise KeyError(
                    f"cannot remove {value!r}: not present in the multiset"
                )
            if present == 1:
                del counts[value]
            else:
                counts[value] = present - 1
            size -= 1
        return Multiset._from_counts(counts, size)

    def map(self, transform) -> "Multiset":
        """Return the multiset obtained by applying ``transform`` to each element."""
        return Multiset(transform(value) for value in self)

    def __or__(self, other: "Multiset") -> "Multiset":
        return self.union(other)

    def __add__(self, other: "Multiset") -> "Multiset":
        return self.union(other)

    def __sub__(self, other: "Multiset") -> "Multiset":
        return self.difference(other)

    def __and__(self, other: "Multiset") -> "Multiset":
        return self.intersection(other)

    def __le__(self, other: "Multiset") -> bool:
        return self.issubset(_coerce(other))

    def __ge__(self, other: "Multiset") -> bool:
        return _coerce(other).issubset(self)

    # -- equality / hashing --------------------------------------------------

    def __eq__(self, other: Any) -> bool:
        if isinstance(other, Multiset):
            if self._size != other._size:
                return False
            return self._counts == other._counts
        return NotImplemented

    def __ne__(self, other: Any) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._counts.items()))
        return self._hash

    # -- conversions ---------------------------------------------------------

    def to_sorted_list(self, key=None) -> list:
        """Return the elements (with multiplicity) as a sorted list."""
        return sorted(self, key=key)

    def sum(self):
        """Return the sum of all elements (with multiplicity)."""
        return sum(value * count for value, count in self._counts.items())

    def min(self):
        """Return the smallest element.

        Raises
        ------
        ValueError
            If the multiset is empty.
        """
        if not self._counts:
            raise ValueError("min() of an empty multiset")
        return min(self._counts)

    def max(self):
        """Return the largest element.

        Raises
        ------
        ValueError
            If the multiset is empty.
        """
        if not self._counts:
            raise ValueError("max() of an empty multiset")
        return max(self._counts)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        items = ", ".join(f"{v!r}: {c}" for v, c in sorted(
            self._counts.items(), key=lambda item: repr(item[0])))
        return f"Multiset({{{items}}})"


def _coerce(value) -> Multiset:
    """Accept plain iterables anywhere a Multiset is expected."""
    if isinstance(value, Multiset):
        return value
    return Multiset(value)


_EMPTY = Multiset()
