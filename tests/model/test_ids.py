"""Bit-packed subscription ids (paper section 3.2, figure 6)."""

import copy
import pickle

import pytest

from repro.model.ids import IdCodec, SubscriptionId, popcount


class TestSubscriptionId:
    def test_attribute_count_is_popcount(self):
        sid = SubscriptionId(broker=2, local_id=1, attr_mask=0b0110100)
        assert sid.attribute_count == 3

    def test_constrains(self):
        sid = SubscriptionId(broker=0, local_id=0, attr_mask=0b101)
        assert sid.constrains(0)
        assert not sid.constrains(1)
        assert sid.constrains(2)

    def test_empty_mask_rejected(self):
        with pytest.raises(ValueError):
            SubscriptionId(broker=0, local_id=0, attr_mask=0)

    def test_negative_fields_rejected(self):
        with pytest.raises(ValueError):
            SubscriptionId(broker=-1, local_id=0, attr_mask=1)
        with pytest.raises(ValueError):
            SubscriptionId(broker=0, local_id=-1, attr_mask=1)

    def test_ordering_is_total(self):
        ids = [
            SubscriptionId(1, 0, 1),
            SubscriptionId(0, 5, 1),
            SubscriptionId(0, 0, 3),
        ]
        ordered = sorted(ids)
        assert ordered[0].broker == 0 and ordered[0].local_id == 0


class TestIdValue:
    """An id is the value of its ``(c1, c2, c3)`` tuple."""

    SID = SubscriptionId(broker=2, local_id=1, attr_mask=0b0110100)

    def test_hash_is_the_triples(self):
        assert hash(self.SID) == hash((2, 1, 0b0110100))

    def test_equals_its_triple(self):
        assert self.SID == (2, 1, 0b0110100)
        assert {self.SID: "x"}[(2, 1, 0b0110100)] == "x"

    @pytest.mark.parametrize("field", ["broker", "local_id", "attr_mask"])
    def test_fields_are_read_only(self, field):
        with pytest.raises(AttributeError):
            setattr(self.SID, field, 3)

    def test_replace_validates(self):
        assert self.SID._replace(local_id=7) == (2, 7, 0b0110100)
        with pytest.raises(ValueError):
            self.SID._replace(attr_mask=0)

    def test_no_instance_dict(self):
        with pytest.raises(AttributeError):
            self.SID.note = 1

    def test_pickle_roundtrip(self):
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            clone = pickle.loads(pickle.dumps(self.SID, protocol))
            assert clone == self.SID and type(clone) is SubscriptionId

    def test_deepcopy_roundtrip(self):
        clone = copy.deepcopy(self.SID)
        assert clone == self.SID and type(clone) is SubscriptionId

    @pytest.mark.parametrize("fields", [(-1, 0, 1), (0, -1, 1), (0, 0, 0)])
    def test_unpickling_an_invalid_id_raises(self, fields):
        forged = tuple.__new__(SubscriptionId, fields)  # skips validation
        data = pickle.dumps(forged)
        with pytest.raises(ValueError):
            pickle.loads(data)

    def test_sorted_orders_as_triples(self):
        triples = [(1, 0, 1), (0, 5, 1), (0, 0, 3), (0, 5, 2), (2, 0, 1), (0, 0, 1)]
        ids = [SubscriptionId(*triple) for triple in triples]
        assert [tuple(sid) for sid in sorted(ids)] == sorted(triples)

    def test_repr_and_str(self):
        assert repr(self.SID) == "SubscriptionId(broker=2, local_id=1, attr_mask=52)"
        assert str(self.SID) == "S(b2.1, c3=0x34)"


class TestPopcount:
    @pytest.mark.parametrize("mask,expected", [(0, 0), (1, 1), (0b111, 3), (1 << 40, 1)])
    def test_values(self, mask, expected):
        assert popcount(mask) == expected


class TestFieldWidths:
    def test_paper_figure6_dimensions(self):
        """4 brokers -> 2 bits, 8 subscriptions -> 3 bits, 7 attributes."""
        codec = IdCodec(num_brokers=4, max_subscriptions=8, num_attributes=7)
        assert codec.field_widths() == (2, 3, 7)
        assert codec.total_bits == 12
        assert codec.byte_size == 2

    def test_paper_scale_examples(self):
        """1000 brokers -> 10 bits; 1M subscriptions -> 20 bits (section 3.2)."""
        codec = IdCodec(num_brokers=1000, max_subscriptions=1_000_000, num_attributes=10)
        assert codec.c1_bits == 10
        assert codec.c2_bits == 20

    def test_single_broker_still_one_bit(self):
        codec = IdCodec(num_brokers=1, max_subscriptions=1, num_attributes=1)
        assert codec.field_widths() == (1, 1, 1)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            IdCodec(0, 1, 1)
        with pytest.raises(ValueError):
            IdCodec(1, 0, 1)
        with pytest.raises(ValueError):
            IdCodec(1, 1, 0)


class TestPacking:
    def test_figure6_layout(self):
        """broker 2, subscription 1, attributes {3,5,6} -> 10|001|0110100."""
        codec = IdCodec(num_brokers=4, max_subscriptions=8, num_attributes=7)
        sid = SubscriptionId(broker=2, local_id=1, attr_mask=0b0110100)
        assert codec.pack(sid) == 0b10_001_0110100

    def test_roundtrip(self):
        codec = IdCodec(num_brokers=24, max_subscriptions=1 << 20, num_attributes=10)
        sid = SubscriptionId(broker=17, local_id=123_456, attr_mask=0b1010101010)
        assert codec.unpack(codec.pack(sid)) == sid

    def test_bytes_roundtrip(self):
        codec = IdCodec(num_brokers=24, max_subscriptions=1000, num_attributes=10)
        sid = SubscriptionId(broker=5, local_id=999, attr_mask=1)
        data = codec.to_bytes(sid)
        assert len(data) == codec.byte_size
        assert codec.from_bytes(data) == sid

    def test_out_of_range_rejected(self):
        codec = IdCodec(num_brokers=4, max_subscriptions=8, num_attributes=7)
        with pytest.raises(ValueError):
            codec.pack(SubscriptionId(broker=4, local_id=0, attr_mask=1))
        with pytest.raises(ValueError):
            codec.pack(SubscriptionId(broker=0, local_id=8, attr_mask=1))
        with pytest.raises(ValueError):
            codec.pack(SubscriptionId(broker=0, local_id=0, attr_mask=1 << 7))

    def test_unpack_range_check(self):
        codec = IdCodec(num_brokers=4, max_subscriptions=8, num_attributes=7)
        with pytest.raises(ValueError):
            codec.unpack(1 << 12)

    def test_pack_many_roundtrip(self):
        codec = IdCodec(num_brokers=8, max_subscriptions=64, num_attributes=5)
        sids = [SubscriptionId(b, b * 2, 1 << b % 5 | 1) for b in range(8)]
        data = codec.pack_many(sids)
        assert codec.unpack_many(data) == sids

    def test_unpack_many_length_check(self):
        codec = IdCodec(num_brokers=8, max_subscriptions=64, num_attributes=5)
        with pytest.raises(ValueError):
            codec.unpack_many(b"\x00\x01\x02")

    def test_codec_equality(self):
        assert IdCodec(8, 64, 5) == IdCodec(8, 64, 5)
        assert IdCodec(8, 64, 5) != IdCodec(8, 64, 6)
