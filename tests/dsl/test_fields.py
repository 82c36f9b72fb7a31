"""Tests for typed fields and validated schemas."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dsl.fields import (
    EnumField,
    IdField,
    IdSetField,
    RangeField,
    Schema,
)
from repro.errors import ModelError
from repro.mc.state import Record


class TestEnumField:
    def test_accepts_members(self):
        EnumField("A", "B").validate("f", "A")

    def test_rejects_non_members(self):
        with pytest.raises(ModelError):
            EnumField("A", "B").validate("f", "C")

    def test_rejects_empty_and_duplicates(self):
        with pytest.raises(ModelError):
            EnumField()
        with pytest.raises(ModelError):
            EnumField("A", "A")


class TestRangeField:
    def test_bounds_inclusive(self):
        field = RangeField(0, 3)
        field.validate("f", 0)
        field.validate("f", 3)

    def test_rejects_out_of_range(self):
        with pytest.raises(ModelError):
            RangeField(0, 3).validate("f", 4)
        with pytest.raises(ModelError):
            RangeField(0, 3).validate("f", -1)

    def test_rejects_bool_masquerading_as_int(self):
        with pytest.raises(ModelError):
            RangeField(0, 3).validate("f", True)

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ModelError):
            RangeField(3, 0)


class TestIdField:
    def test_valid_ids(self):
        IdField(3).validate("f", 2)

    def test_none_handling(self):
        IdField(3, allow_none=True).validate("f", None)
        with pytest.raises(ModelError):
            IdField(3).validate("f", None)

    def test_out_of_range(self):
        with pytest.raises(ModelError):
            IdField(3).validate("f", 3)

    def test_rename(self):
        field = IdField(3, allow_none=True)
        assert field.rename(0, (2, 0, 1)) == 2
        assert field.rename(None, (2, 0, 1)) is None


class TestIdSetField:
    def test_valid(self):
        IdSetField(3).validate("f", frozenset({0, 2}))

    def test_requires_frozenset(self):
        with pytest.raises(ModelError):
            IdSetField(3).validate("f", {0})

    def test_member_range(self):
        with pytest.raises(ModelError):
            IdSetField(3).validate("f", frozenset({3}))

    def test_rename(self):
        renamed = IdSetField(3).rename(frozenset({0, 1}), (2, 0, 1))
        assert renamed == frozenset({2, 0})


class TestSchema:
    @pytest.fixture
    def schema(self):
        return Schema(
            st=EnumField("FREE", "OWNED"),
            owner=IdField(3, allow_none=True),
            sharers=IdSetField(3),
            acks=RangeField(0, 3),
        )

    def test_make_and_read(self, schema):
        record = schema.make(st="FREE", owner=None, sharers=frozenset(), acks=0)
        assert record.st == "FREE"
        assert isinstance(record, Record)

    def test_make_missing_field(self, schema):
        with pytest.raises(ModelError, match="missing"):
            schema.make(st="FREE")

    def test_make_unknown_field(self, schema):
        with pytest.raises(ModelError, match="unknown"):
            schema.make(st="FREE", owner=None, sharers=frozenset(), acks=0, zap=1)

    def test_update_validates(self, schema):
        record = schema.make(st="FREE", owner=None, sharers=frozenset(), acks=0)
        updated = schema.update(record, st="OWNED", owner=2)
        assert updated.owner == 2
        with pytest.raises(ModelError):
            schema.update(record, owner=9)
        with pytest.raises(ModelError):
            schema.update(record, nope=1)

    def test_rename_full_record(self, schema):
        record = schema.make(st="OWNED", owner=0, sharers=frozenset({1}), acks=1)
        renamed = schema.rename(record, (2, 0, 1))
        assert renamed.owner == 2
        assert renamed.sharers == frozenset({0})
        assert renamed.acks == 1

    def test_check_existing_record(self, schema):
        good = schema.make(st="FREE", owner=None, sharers=frozenset(), acks=0)
        schema.check(good)
        with pytest.raises(ModelError):
            schema.check(Record(st="NOPE", owner=None, sharers=frozenset(), acks=0))

    def test_empty_schema_rejected(self):
        with pytest.raises(ModelError):
            Schema()

    @given(st.integers(0, 2), st.integers(0, 3))
    def test_property_valid_values_roundtrip(self, owner, acks):
        schema = Schema(owner=IdField(3), acks=RangeField(0, 3))
        record = schema.make(owner=owner, acks=acks)
        assert (record.owner, record.acks) == (owner, acks)
