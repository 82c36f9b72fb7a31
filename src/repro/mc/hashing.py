"""Stable state fingerprints.

The analysis layer groups synthesised solutions by *behaviour*: two solutions
whose explored state graphs have the same fingerprint behave identically
(the paper groups its 12 MSI-large solutions into 3 behavioural sets this
way, observing 5207/6025/6332 visited states per group).  Python's built-in
``hash`` is salted per process, so fingerprints use a deterministic FNV-1a
over the serialised state instead.

The per-state fingerprint walks the :func:`~repro.mc.state.state_key`
tuple directly — mixing type tags, lengths, and encoded leaf values into
the running hash — rather than building a ``repr`` string of the whole key
first, which allocated a throwaway string per state on a hot analysis
path.  Tags and lengths keep the encoding prefix-free, so e.g.
``("ab",)`` and ``("a", "b")`` cannot collide structurally, and ints can
never alias strings.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.mc.state import state_key

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK = (1 << 64) - 1

# Single-byte type tags mixed into the stream ahead of each value.
_TAG_TUPLE = 0x28  # "("
_TAG_INT = 0x69  # "i"
_TAG_STR = 0x73  # "s"
_TAG_OTHER = 0x3F  # "?"


def fingerprint_bytes(data: bytes) -> int:
    """64-bit FNV-1a hash of a byte string."""
    return _mix_bytes(_FNV_OFFSET, data)


def _mix_bytes(value: int, data: bytes) -> int:
    # Consume 8-byte chunks via one int.from_bytes each instead of per-byte
    # iteration: the unrolled shift/XOR/multiply steps are byte-for-byte the
    # same FNV-1a recurrence as the scalar loop (each XORed operand is < 256
    # and the running value stays masked to 64 bits at every step), so the
    # output is identical — pinned on fixed vectors in tests/mc/test_hashing.py.
    prime = _FNV_PRIME
    mask = _MASK
    n_chunks = len(data) >> 3
    offset = n_chunks << 3
    for i in range(0, offset, 8):
        chunk = int.from_bytes(data[i:i + 8], "little")
        value = ((value ^ (chunk & 0xFF)) * prime) & mask
        value = ((value ^ ((chunk >> 8) & 0xFF)) * prime) & mask
        value = ((value ^ ((chunk >> 16) & 0xFF)) * prime) & mask
        value = ((value ^ ((chunk >> 24) & 0xFF)) * prime) & mask
        value = ((value ^ ((chunk >> 32) & 0xFF)) * prime) & mask
        value = ((value ^ ((chunk >> 40) & 0xFF)) * prime) & mask
        value = ((value ^ ((chunk >> 48) & 0xFF)) * prime) & mask
        value = ((value ^ (chunk >> 56)) * prime) & mask
    for byte in data[offset:]:
        value = ((value ^ byte) * prime) & mask
    return value


def _mix_int(value: int, number: int) -> int:
    length = (number.bit_length() + 8) // 8 or 1
    # The byte length is mixed ahead of the payload so the variable-width
    # encoding stays prefix-free (payload bytes cannot re-align across
    # element boundaries); 4 fixed bytes cover any realistic magnitude.
    value = _mix_bytes(value, length.to_bytes(4, "little"))
    return _mix_bytes(value, number.to_bytes(length, "little", signed=True))


def _mix_value(value: int, item: Any) -> int:
    """Mix one serialised-key node (tuple/str/int) into the running hash."""
    if isinstance(item, tuple):
        value = _mix_bytes(value, bytes((_TAG_TUPLE,)))
        value = _mix_int(value, len(item))
        for element in item:
            value = _mix_value(value, element)
        return value
    if isinstance(item, str):
        data = item.encode("utf-8")
        value = _mix_bytes(value, bytes((_TAG_STR,)))
        value = _mix_int(value, len(data))
        return _mix_bytes(value, data)
    if isinstance(item, int):  # bools were lowered to ints by state_key
        value = _mix_bytes(value, bytes((_TAG_INT,)))
        return _mix_int(value, item)
    # state_key only emits tuples/strs/ints, but stay total for direct use.
    data = repr(item).encode("utf-8")
    value = _mix_bytes(value, bytes((_TAG_OTHER,)))
    value = _mix_int(value, len(data))
    return _mix_bytes(value, data)


def fingerprint_state(state: Any) -> int:
    """Deterministic 64-bit fingerprint of a single state."""
    return _mix_value(_FNV_OFFSET, state_key(state))


def fingerprint_state_set(states: Iterable[Any]) -> int:
    """Order-independent fingerprint of a set of states."""
    return combine_fingerprints(fingerprint_state(state) for state in states)


def combine_fingerprints(values: Iterable[int]) -> int:
    """Order-independent combination of per-state fingerprints.

    XOR-combining makes the result independent of iteration order, so it
    can be computed over hash-set contents directly.
    """
    combined = 0
    count = 0
    for value in values:
        combined ^= value
        count += 1
    # Mix in the count so the empty set and self-cancelling pairs differ.
    return fingerprint_bytes(f"{combined}:{count}".encode("ascii"))
