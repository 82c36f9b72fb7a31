"""An immutable, hashable multiset.

Unordered interconnects are the reason coherence protocols need transient
states (paper, Section III): messages in flight form a *bag*, not a queue.
:class:`Multiset` models such a bag as a canonically sorted tuple of
``(element, count)`` pairs, so two network states with the same messages in
flight are equal and hash equal regardless of insertion order.

The canonical order is a stable sort by ``repr``.  Updates keep it
incrementally rather than re-sorting: :meth:`Multiset.add` bumps an
existing element's count in place or inserts a new element after every
element whose repr is not greater (``bisect_right``), and
:meth:`Multiset.remove` decrements or drops an element where it stands.
Both give exactly the order a fresh stable sort would, ties included.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Tuple, TypeVar

T = TypeVar("T")


def _pair_repr(pair: Tuple[object, int]) -> str:
    return repr(pair[0])


def _sorted_items(counts: Dict[T, int]) -> Tuple[Tuple[T, int], ...]:
    return tuple(sorted(counts.items(), key=_pair_repr))


class Multiset:
    """Immutable multiset with value semantics.

    Elements must be hashable and mutually orderable after keying (we sort by
    ``repr`` as a total-order fallback so heterogeneous elements still
    canonicalise deterministically).  The order is a *stable* sort: elements
    with equal reprs keep the order they were first added in.
    """

    __slots__ = ("_items", "_hash")

    def __init__(self, items: Iterable[T] = ()) -> None:
        counts: Dict[T, int] = {}
        for item in items:
            counts[item] = counts.get(item, 0) + 1
        self._items: Tuple[Tuple[T, int], ...] = _sorted_items(counts)
        self._hash = hash(self._items)

    @classmethod
    def _from_sorted(cls, items: Tuple[Tuple[T, int], ...]) -> "Multiset":
        new = cls.__new__(cls)
        new._items = items
        new._hash = hash(items)
        return new

    def _index(self, item: T) -> int:
        """Position of the element equal to ``item`` (-1 when absent)."""
        for index, (element, _count) in enumerate(self._items):
            if element is item or element == item:
                return index
        return -1

    def _splice(self, start: int, stop: int, pairs: tuple) -> "Multiset":
        items = self._items
        return Multiset._from_sorted(items[:start] + pairs + items[stop:])

    def add(self, item: T, count: int = 1) -> "Multiset":
        """Return a new multiset with ``count`` copies of ``item`` added."""
        if count < 0:
            raise ValueError("count must be non-negative")
        if count == 0:
            return self
        items = self._items
        index = self._index(item)
        if index >= 0:
            # The stored element stays (it may print differently from an
            # equal ``item``), and so does its position.
            element, have = items[index]
            return self._splice(index, index + 1, ((element, have + count),))
        # bisect_right over the elements' reprs (by hand: ``bisect``
        # takes no key function before Python 3.10)
        key = repr(item)
        index, high = 0, len(items)
        while index < high:
            middle = (index + high) // 2
            if key < repr(items[middle][0]):
                high = middle
            else:
                index = middle + 1
        return self._splice(index, index, ((item, count),))

    def remove(self, item: T, count: int = 1) -> "Multiset":
        """Return a new multiset with ``count`` copies of ``item`` removed.

        Raises :class:`KeyError` if fewer than ``count`` copies are present.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        if count == 0:
            return self
        index = self._index(item)
        element, have = self._items[index] if index >= 0 else (item, 0)
        if have < count:
            raise KeyError(f"cannot remove {count} x {item!r}: only {have} present")
        left = ((element, have - count),) if have > count else ()
        return self._splice(index, index + 1, left)

    def count(self, item: T) -> int:
        """Copies of ``item`` present (0 when absent)."""
        index = self._index(item)
        return self._items[index][1] if index >= 0 else 0

    def distinct(self) -> Iterator[T]:
        """Iterate over distinct elements (canonical order)."""
        for element, _count in self._items:
            yield element

    def items(self) -> Iterator[Tuple[T, int]]:
        """Iterate (element, count) pairs in canonical order."""
        return iter(self._items)

    def map(self, fn) -> "Multiset":
        """Return a new multiset with ``fn`` applied to each element.

        Used by symmetry reduction to rename process indices inside
        in-flight messages.  ``fn`` runs once per distinct element; images
        that collide merge their counts under the first one seen.
        """
        counts: Dict[T, int] = {}
        for item, count in self._items:
            image = fn(item)
            counts[image] = counts.get(image, 0) + count
        return Multiset._from_sorted(_sorted_items(counts))

    def __contains__(self, item: object) -> bool:
        return self.count(item) > 0  # type: ignore[arg-type]

    def __len__(self) -> int:
        return sum(count for _item, count in self._items)

    def __iter__(self) -> Iterator[T]:
        for item, count in self._items:
            for _ in range(count):
                yield item

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Multiset):
            return NotImplemented
        return self._items == other._items

    def __hash__(self) -> int:
        return self._hash

    def __bool__(self) -> bool:
        return bool(self._items)

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{item!r}" + (f" x{count}" if count > 1 else "")
            for item, count in self._items
        )
        return f"Multiset({{{inner}}})"
