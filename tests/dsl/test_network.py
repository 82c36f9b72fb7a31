"""Tests for DSL messages and channels."""

import copy
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dsl.network import Message, OrderedChannel, UnorderedNetwork


def msg(mtype="Data", src=0, dst=1, payload=None):
    return Message(mtype, src, dst, payload)


class TestMessage:
    def test_fields(self):
        message = msg(payload=7)
        assert (message.mtype, message.src, message.dst, message.payload) == (
            "Data", 0, 1, 7,
        )

    def test_renamed(self):
        renamed = msg().renamed((1, 0))
        assert (renamed.src, renamed.dst) == (1, 0)

    def test_renamed_preserves_global_ids(self):
        message = Message("Req", 0, -1)
        renamed = message.renamed((1, 0))
        assert renamed.dst == -1
        assert renamed.src == 1

    def test_hashable(self):
        assert len({msg(), msg()}) == 1


class TestMessageInterning:
    def test_equal_fields_give_the_same_instance(self):
        assert Message("Data", 0, 1, 7) is Message("Data", 0, 1, 7)
        assert msg().renamed((1, 0)) is Message("Data", 1, 0)

    def test_repr_is_the_dataclass_format(self):
        assert repr(Message("Req", 0, -1)) == (
            "Message(mtype='Req', src=0, dst=-1, payload=None)"
        )
        assert repr(msg(payload="v")) == (
            "Message(mtype='Data', src=0, dst=1, payload='v')"
        )

    def test_hash_is_the_field_tuple_hash(self):
        for message in (msg(), msg(payload=3), Message("Inv", -1, 2, (1, "x"))):
            fields = (message.mtype, message.src, message.dst, message.payload)
            assert hash(message) == hash(fields)

    def test_equal_payloads_that_print_differently_stay_apart(self):
        one, true = msg(payload=1), msg(payload=True)
        assert one is not true
        assert one == true and hash(one) == hash(true)
        assert repr(one).endswith("payload=1)")
        assert repr(true).endswith("payload=True)")
        nested_one, nested_true = msg(payload=(1,)), msg(payload=(True,))
        assert nested_one is not nested_true and nested_one == nested_true
        assert repr(nested_true).endswith("payload=(True,))")

    def test_unequal_to_other_types(self):
        assert msg() != ("Data", 0, 1, None)
        assert msg() != msg(dst=2)

    def test_immutable(self):
        message = msg()
        with pytest.raises(AttributeError):
            message.src = 5
        with pytest.raises(AttributeError):
            del message.payload
        with pytest.raises(AttributeError):
            message.extra = 1
        assert message.src == 0

    def test_pickle_and_copy_return_the_interned_instance(self):
        message = msg(payload=(2, "x"))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(message, protocol)) is message
        assert copy.copy(message) is message
        assert copy.deepcopy(message) is message

    def test_unhashable_payload_fails_at_construction(self):
        with pytest.raises(TypeError):
            msg(payload=[1, 2])


class TestUnorderedNetwork:
    def test_send_deliver_roundtrip(self):
        net = UnorderedNetwork().send(msg())
        assert msg() in net
        assert len(net) == 1
        assert len(net.deliver(msg())) == 0

    def test_deliver_missing_raises(self):
        with pytest.raises(KeyError):
            UnorderedNetwork().deliver(msg())

    def test_duplicate_messages_counted(self):
        net = UnorderedNetwork().send(msg()).send(msg())
        assert len(net) == 2
        assert len(net.deliver(msg())) == 1

    def test_deliverable_filters(self):
        net = (
            UnorderedNetwork()
            .send(msg("Data", 0, 1))
            .send(msg("Inv", 0, 1))
            .send(msg("Data", 0, 2))
        )
        assert {m.mtype for m in net.deliverable(1)} == {"Data", "Inv"}
        assert [m.dst for m in net.deliverable(1, "Data")] == [1]

    def test_order_independent_equality(self):
        first = UnorderedNetwork().send(msg("A", 0, 1)).send(msg("B", 1, 0))
        second = UnorderedNetwork().send(msg("B", 1, 0)).send(msg("A", 0, 1))
        assert first == second
        assert hash(first) == hash(second)

    def test_renamed(self):
        net = UnorderedNetwork().send(msg("Data", 0, 1))
        renamed = net.renamed((1, 0))
        assert Message("Data", 1, 0) in renamed

    @given(st.lists(st.tuples(st.sampled_from("AB"), st.integers(0, 1)), max_size=6))
    def test_rename_is_involution_for_swap(self, raw):
        net = UnorderedNetwork()
        for mtype, dst in raw:
            net = net.send(Message(mtype, 0, dst))
        swap = (1, 0)
        assert net.renamed(swap).renamed(swap) == net


class TestOrderedChannel:
    def test_fifo_order(self):
        channel = OrderedChannel().send(msg("A")).send(msg("B"))
        assert channel.head.mtype == "A"
        assert channel.deliver_head().head.mtype == "B"

    def test_empty_head(self):
        assert OrderedChannel().head is None
        with pytest.raises(IndexError):
            OrderedChannel().deliver_head()

    def test_equality_is_order_sensitive(self):
        first = OrderedChannel().send(msg("A")).send(msg("B"))
        second = OrderedChannel().send(msg("B")).send(msg("A"))
        assert first != second

    def test_renamed(self):
        channel = OrderedChannel().send(msg("A", 0, 1))
        assert channel.renamed((1, 0)).head == Message("A", 1, 0)
