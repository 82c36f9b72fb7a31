"""Typed messages and network channels.

:class:`UnorderedNetwork` is the interconnect model the paper's case study
assumes ("all networks may be unordered"): a bag of in-flight messages.
:class:`OrderedChannel` is a FIFO per (source, destination) pair — not used
by the paper, but indispensable for experimenting with how much of the
transient-state complexity is *caused* by unordered delivery (see the
ablation benchmark).

A :class:`Message` is hash-consed: each distinct message is built once
and shared, with its hash and repr stored on it.  Sending, delivering and
renaming (under symmetry reduction) therefore probe and order a network's
bag without a Python-level ``__repr__`` or field-tuple hash per element.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, Optional, Tuple

from repro.mc.multiset import Multiset


#: payload types whose value and type together fix the repr; any other
#: payload (a tuple, a frozenset, ...) also keys the intern table by repr
_SCALAR_PAYLOADS = frozenset({type(None), bool, int, str})

#: (mtype, src, dst, payload, payload tag) -> the one shared instance
_INTERNED: Dict[Tuple[Any, ...], "Message"] = {}


class Message:
    """An immutable, interned network message.

    Equal fields give the same instance, so the hash and the repr are
    computed once, when a message is first built, and every later
    construction (and :meth:`renamed`) is one tuple and one dict lookup.
    The hash is ``hash((mtype, src, dst, payload))`` and the repr is the
    ``Message(mtype=..., src=..., dst=..., payload=...)`` form, so sets,
    dicts and repr-sorted multisets order messages as a plain frozen
    dataclass would.  The intern key carries the payload's type (and, for
    non-scalar payloads, its repr), so values that are equal but print
    differently -- payload ``1`` and ``True`` -- stay distinct instances
    that still compare and hash equal.
    """

    __slots__ = ("mtype", "src", "dst", "payload", "_tag", "_hash", "_repr")

    mtype: str
    src: int
    dst: int
    payload: Any

    def __new__(cls, mtype: str, src: int, dst: int, payload: Any = None) -> "Message":
        tag: Any = type(payload)
        if tag not in _SCALAR_PAYLOADS:
            tag = (tag, repr(payload))
        key = (mtype, src, dst, payload, tag)
        # the lookup raises TypeError on an unhashable payload
        return _INTERNED.get(key) or _intern(key)

    def renamed(self, mapping: Tuple[int, ...]) -> "Message":
        """Rename process indices (for symmetry reduction)."""
        src, dst = self.src, self.dst
        key = (
            self.mtype,
            mapping[src] if src >= 0 else src,
            mapping[dst] if dst >= 0 else dst,
            self.payload,
            self._tag,
        )
        return _INTERNED.get(key) or _intern(key)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not Message:
            return NotImplemented
        return self._hash == other._hash and (
            self.mtype, self.src, self.dst, self.payload
        ) == (other.mtype, other.src, other.dst, other.payload)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return self._repr

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of a Message")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of a Message")

    def __reduce__(self) -> Tuple[Any, ...]:
        # pickle and copy rebuild through the constructor, hence through
        # the intern table, under every pickle protocol
        return (Message, (self.mtype, self.src, self.dst, self.payload))


def _intern(key: Tuple[Any, ...]) -> Message:
    """Build the instance for an intern key on its first sight."""
    mtype, src, dst, payload, tag = key
    message = object.__new__(Message)
    init = object.__setattr__
    init(message, "mtype", mtype)
    init(message, "src", src)
    init(message, "dst", dst)
    init(message, "payload", payload)
    init(message, "_tag", tag)
    init(message, "_hash", hash((mtype, src, dst, payload)))
    init(
        message,
        "_repr",
        f"Message(mtype={mtype!r}, src={src!r}, dst={dst!r}, payload={payload!r})",
    )
    # setdefault keeps one instance per key when threads race here
    return _INTERNED.setdefault(key, message)


class UnorderedNetwork:
    """An immutable bag of in-flight messages.

    The bag is a :class:`~repro.mc.multiset.Multiset` ordered by message
    repr; :meth:`send` and :meth:`deliver` update that order in place
    rather than re-sorting, so equal bags are equal tuples whatever the
    order messages were sent in.
    """

    __slots__ = ("_bag",)

    def __init__(self, bag: Optional[Multiset] = None) -> None:
        self._bag = bag if bag is not None else Multiset()

    def send(self, message: Message) -> "UnorderedNetwork":
        return UnorderedNetwork(self._bag.add(message))

    def deliver(self, message: Message) -> "UnorderedNetwork":
        """Remove one copy of ``message`` (it is being consumed)."""
        return UnorderedNetwork(self._bag.remove(message))

    def deliverable(self, dst: int, mtype: Optional[str] = None) -> Iterator[Message]:
        """Messages currently deliverable to ``dst`` (optionally filtered)."""
        for message in self._bag.distinct():
            if message.dst != dst:
                continue
            if mtype is not None and message.mtype != mtype:
                continue
            yield message

    def renamed(self, mapping: Tuple[int, ...]) -> "UnorderedNetwork":
        return UnorderedNetwork(self._bag.map(lambda m: m.renamed(mapping)))

    def __len__(self) -> int:
        return len(self._bag)

    def __iter__(self) -> Iterator[Message]:
        return iter(self._bag)

    def __contains__(self, message: Message) -> bool:
        return message in self._bag

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UnorderedNetwork):
            return NotImplemented
        return self._bag == other._bag

    def __hash__(self) -> int:
        return hash(self._bag)

    def __repr__(self) -> str:
        return f"UnorderedNetwork({list(self._bag)!r})"


class OrderedChannel:
    """An immutable FIFO of messages (point-to-point ordered delivery)."""

    __slots__ = ("_items",)

    def __init__(self, items: Tuple[Message, ...] = ()) -> None:
        self._items = tuple(items)

    def send(self, message: Message) -> "OrderedChannel":
        return OrderedChannel(self._items + (message,))

    @property
    def head(self) -> Optional[Message]:
        return self._items[0] if self._items else None

    def deliver_head(self) -> "OrderedChannel":
        if not self._items:
            raise IndexError("channel is empty")
        return OrderedChannel(self._items[1:])

    def renamed(self, mapping: Tuple[int, ...]) -> "OrderedChannel":
        return OrderedChannel(tuple(m.renamed(mapping) for m in self._items))

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[Message]:
        return iter(self._items)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OrderedChannel):
            return NotImplemented
        return self._items == other._items

    def __hash__(self) -> int:
        return hash(self._items)

    def __repr__(self) -> str:
        return f"OrderedChannel({list(self._items)!r})"
