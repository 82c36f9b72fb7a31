"""Typed fields and validated record schemas.

Murphi declares state variables with explicit finite types (enums,
subranges, scalarset indices); typos and out-of-range writes are caught at
model-build time rather than surfacing as unreachable states.  This module
provides the same guard rails for DSL-built protocols:

>>> schema = Schema(
...     st=EnumField("FREE", "OWNED"),
...     owner=IdField(n_procs=3, allow_none=True),
...     acks=RangeField(0, 3),
... )
>>> state = schema.make(st="FREE", owner=None, acks=0)
>>> schema.update(state, st="OWNED", owner=2).owner
2
>>> schema.update(state, owner=7)
Traceback (most recent call last):
    ...
repro.errors.ModelError: field 'owner': 7 not in [0, 3) (or None)
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Tuple

from repro.errors import ModelError
from repro.mc.state import Record


class Field:
    """Base class: a named, validated slot of a record schema."""

    def validate(self, name: str, value: Any) -> None:
        raise NotImplementedError

    def rename(self, value: Any, mapping: Tuple[int, ...]) -> Any:
        """Rename process indices inside the value (symmetry); default: none."""
        return value


class EnumField(Field):
    """A finite set of symbolic values."""

    def __init__(self, *values: str) -> None:
        if not values:
            raise ModelError("EnumField needs at least one value")
        if len(set(values)) != len(values):
            raise ModelError("EnumField values must be distinct")
        self.values: FrozenSet[str] = frozenset(values)

    def validate(self, name: str, value: Any) -> None:
        if value not in self.values:
            raise ModelError(
                f"field {name!r}: {value!r} not one of {sorted(self.values)}"
            )


class RangeField(Field):
    """An integer subrange ``[low, high]`` (inclusive, like Murphi)."""

    def __init__(self, low: int, high: int) -> None:
        if low > high:
            raise ModelError("RangeField low must be <= high")
        self.low = low
        self.high = high

    def validate(self, name: str, value: Any) -> None:
        if not isinstance(value, int) or isinstance(value, bool):
            raise ModelError(f"field {name!r}: {value!r} is not an integer")
        if not self.low <= value <= self.high:
            raise ModelError(
                f"field {name!r}: {value} not in [{self.low}, {self.high}]"
            )


class IdField(Field):
    """A process index (scalarset member), optionally nullable.

    ``sentinel`` (default ``None``) is the value that models "no process"
    (e.g. no current owner); protocols using the Murphi-style ``-1``
    convention declare ``sentinel=-1``.  Under a permutation, non-sentinel
    values are renamed.
    """

    def __init__(
        self, n_procs: int, allow_none: bool = False, sentinel: Any = None
    ) -> None:
        if n_procs < 1:
            raise ModelError("IdField needs at least one process")
        self.n_procs = n_procs
        self.allow_none = allow_none
        self.sentinel = sentinel

    def validate(self, name: str, value: Any) -> None:
        if value == self.sentinel and type(value) is type(self.sentinel):
            if not self.allow_none:
                raise ModelError(f"field {name!r}: {value!r} not allowed")
            return
        if not isinstance(value, int) or isinstance(value, bool):
            raise ModelError(f"field {name!r}: {value!r} is not a process id")
        if not 0 <= value < self.n_procs:
            suffix = f" (or {self.sentinel})" if self.allow_none else ""
            raise ModelError(
                f"field {name!r}: {value} not in [0, {self.n_procs}){suffix}"
            )

    def rename(self, value: Any, mapping: Tuple[int, ...]) -> Any:
        return value if value == self.sentinel else mapping[value]


class IdSetField(Field):
    """A set of process indices (e.g. a sharer list)."""

    def __init__(self, n_procs: int) -> None:
        if n_procs < 1:
            raise ModelError("IdSetField needs at least one process")
        self.n_procs = n_procs

    def validate(self, name: str, value: Any) -> None:
        if not isinstance(value, frozenset):
            raise ModelError(f"field {name!r}: expected a frozenset, got {value!r}")
        for member in value:
            if not isinstance(member, int) or not 0 <= member < self.n_procs:
                raise ModelError(
                    f"field {name!r}: member {member!r} not in [0, {self.n_procs})"
                )

    def rename(self, value: FrozenSet[int], mapping: Tuple[int, ...]) -> FrozenSet[int]:
        return frozenset(mapping[member] for member in value)


class Schema:
    """A validated record layout: field name -> :class:`Field`.

    Produces plain :class:`~repro.mc.state.Record` values, so schema-built
    states interoperate with everything else in the library.
    """

    def __init__(self, **fields: Field) -> None:
        if not fields:
            raise ModelError("a schema needs at least one field")
        for name, field in fields.items():
            if not isinstance(field, Field):
                raise ModelError(f"field {name!r} is not a Field instance")
        self.fields: Dict[str, Field] = dict(fields)

    def make(self, **values: Any) -> Record:
        """Build a validated record; all fields are required."""
        missing = set(self.fields) - set(values)
        if missing:
            raise ModelError(f"missing fields: {sorted(missing)}")
        extra = set(values) - set(self.fields)
        if extra:
            raise ModelError(f"unknown fields: {sorted(extra)}")
        for name, value in values.items():
            self.fields[name].validate(name, value)
        return Record(**values)

    def update(self, record: Record, **changes: Any) -> Record:
        """Validated functional update."""
        for name, value in changes.items():
            field = self.fields.get(name)
            if field is None:
                raise ModelError(f"unknown fields: [{name!r}]")
            field.validate(name, value)
        return record.update(**changes)

    def rename(self, record: Record, mapping: Tuple[int, ...]) -> Record:
        """Rename all process indices in the record (for symmetry)."""
        renamed = {
            name: self.fields[name].rename(value, mapping)
            for name, value in record
        }
        return Record(**renamed)

    def check(self, record: Record) -> None:
        """Validate an existing record against the schema."""
        for name, value in record:
            field = self.fields.get(name)
            if field is None:
                raise ModelError(f"unknown fields: [{name!r}]")
            field.validate(name, value)
