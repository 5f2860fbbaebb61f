"""Tests for serialization, channels and the network simulator."""

from __future__ import annotations

import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.prng import make_prng
from repro.exceptions import ChannelError, ProtocolError
from repro.network.channel import Channel, Eavesdropper
from repro.network.serialization import deserialize, serialize, serialized_size
from repro.network.simulator import Network


def _length(count: int) -> bytes:
    """A serialized length field (big-endian u32)."""
    return struct.pack(">I", count)


class TestSerialization:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            False,
            0,
            -1,
            2**200,
            -(2**200),
            1.5,
            -0.0,
            "",
            "héllo",
            b"",
            b"\x00\xff",
            [],
            [1, "two", None],
            (1, 2),
            {"a": 1, "b": [2, 3]},
            [[1, 2], [3, [4]]],
        ],
    )
    def test_roundtrip(self, value):
        assert deserialize(serialize(value)) == value

    def test_array_roundtrip(self):
        for dtype in (np.uint8, np.int64, np.float64):
            arr = np.arange(12, dtype=dtype).reshape(3, 4)
            out = deserialize(serialize(arr))
            assert out.dtype == arr.dtype
            assert np.array_equal(out, arr)

    def test_nested_arrays_in_lists(self):
        value = [[np.ones((2, 2), dtype=np.uint8)], "tag"]
        out = deserialize(serialize(value))
        assert np.array_equal(out[0][0], value[0][0])

    @pytest.mark.parametrize("dtype", [">u8", ">i8", ">u4", ">i4", ">f8", ">f4"])
    def test_non_native_byte_order_round_trips_exactly(self, dtype):
        """Bodies travel little-endian whatever the array's byte order, so
        a big-endian array decodes to its own values, and its frame is
        the little-endian array's frame."""
        value = np.array([1, 2, 300], dtype=dtype)
        if value.dtype.kind == "f":
            value = np.array([1.5, -2.25, 0.1], dtype=dtype)
        little = value.astype(value.dtype.newbyteorder("<"))
        assert serialize(value) == serialize(little)
        for payload in (value, [value, value, value]):
            out = deserialize(serialize(payload))
            for array in out if isinstance(out, list) else [out]:
                assert array.dtype.name == value.dtype.name
                assert array.tolist() == value.tolist()

    def test_numpy_scalars_coerced(self):
        assert deserialize(serialize(np.int64(7))) == 7
        assert deserialize(serialize(np.float64(1.5))) == 1.5

    def test_unsupported_type_rejected(self):
        with pytest.raises(ChannelError):
            serialize(object())

    def test_unsupported_dtype_rejected(self):
        with pytest.raises(ChannelError):
            serialize(np.array(["a"], dtype=object))

    def test_non_str_dict_key_rejected(self):
        with pytest.raises(ChannelError):
            serialize({1: "x"})

    def test_trailing_bytes_rejected(self):
        with pytest.raises(ChannelError):
            deserialize(serialize(1) + b"junk")

    @pytest.mark.parametrize(
        "data",
        [
            b"A" + serialize("object") + serialize((3,)) + _length(24) + bytes(24),
            b"A" + serialize("nope") + serialize((3,)) + _length(24) + bytes(24),
            b"A" + serialize(5) + serialize((3,)) + _length(24) + bytes(24),
            b"A" + serialize("int64") + serialize((3,)) + _length(16) + bytes(16),
            b"A" + serialize("uint8") + serialize("abc") + _length(3) + bytes(3),
            b"S" + _length(2) + b"\xff\xfe",
            b"D" + _length(1) + serialize([1]) + serialize(2),
            b"A" + serialize("int64") + serialize((-1,)) + _length(24) + bytes(24),
            (b"L" + _length(1)) * 400 + b"N",
        ],
        ids=[
            "object-dtype",
            "unknown-dtype",
            "int-dtype",
            "shape-bytes-mismatch",
            "str-shape",
            "invalid-utf8",
            "list-dict-key",
            "negative-dim",
            "nested-400-deep",
        ],
    )
    def test_hostile_input_raises_channel_error(self, data):
        """Crafted bytes the encoder never emits are rejected the way the
        encoder rejects their values: a ChannelError, never a stray
        ValueError/TypeError/UnicodeDecodeError."""
        with pytest.raises(ChannelError):
            deserialize(data)

    def test_nesting_bound_admits_every_shallower_payload(self):
        from repro.network.serialization import MAX_DEPTH

        value: list = []
        for _ in range(MAX_DEPTH):
            value = [value]
        assert deserialize(serialize(value)) == value
        with pytest.raises(ChannelError, match="levels deep"):
            deserialize(serialize([value]))

    def test_truncated_rejected(self):
        data = serialize([1, 2, 3])
        with pytest.raises(ChannelError):
            deserialize(data[:-2])

    def test_int_size_scales_with_magnitude(self):
        """Cost realism: big masked values cost what big ints cost."""
        small = serialized_size(1)
        large = serialized_size(2**512)
        assert large - small == pytest.approx(64, abs=2)

    def test_bool_not_confused_with_int(self):
        assert deserialize(serialize(True)) is True
        assert deserialize(serialize(1)) == 1

    def test_numpy_bool_scalars(self):
        """np.bool_ is neither bool nor np.integer; it gets the bool tag."""
        assert deserialize(serialize(np.bool_(True))) is True
        assert deserialize(serialize(np.bool_(False))) is False
        assert serialize(np.bool_(True)) == serialize(True)
        assert deserialize(serialize([np.bool_(True), 1])) == [True, 1]

    def test_truncated_int_run_raises_not_misparses(self):
        """A declared count with a truncated I-run tail must raise."""
        data = serialize([2**40, 2**41, 2**42])
        for cut in range(1, len(data)):
            with pytest.raises(ChannelError, match="truncated message"):
                deserialize(data[:cut])

    def test_truncation_error_reports_offset_and_deficit(self):
        """Truncation diagnostics name the offset, need, and remainder."""
        data = serialize([1, 2, 3])
        with pytest.raises(ChannelError, match="truncated message") as exc:
            deserialize(data[:-2])
        detail = str(exc.value)
        assert "offset" in detail
        assert f"of {len(data) - 2} remain" in detail

    def test_truncated_int_run_error_names_record(self):
        """A cut I-run body reports the record's offset and declared size."""
        data = serialize([2**40, 2**41])
        with pytest.raises(ChannelError, match="truncated message") as exc:
            deserialize(data[:-1])
        detail = str(exc.value)
        assert "integer record at offset" in detail
        assert f"holds only {len(data) - 1} byte(s)" in detail

    def test_malformed_length_field_in_run(self):
        """A record whose length field points past the buffer raises."""
        good = bytearray(serialize([7] * 50))
        # Corrupt one record's length field to a huge value.
        good[6 + 3 * 7 + 4] = 0xFF
        with pytest.raises(ChannelError):
            deserialize(bytes(good))

    def test_serialized_size_matches_serialize(self):
        values = [
            None, True, np.bool_(False), 0, -(2**200), 1.5, "héllo", b"\x00",
            [1, "two", None], [2**64 - 1, 2**64, -5], (1, 2),
            {"a": 1, "b": [2, 3]}, np.arange(12, dtype=np.int64).reshape(3, 4),
            np.int64(7), np.float64(1.5),
        ]
        for value in values:
            assert serialized_size(value) == len(serialize(value)), value
        assert serialized_size(values) == len(serialize(values))

    @given(
        st.recursive(
            st.one_of(
                st.none(),
                st.booleans(),
                st.integers(-(2**70), 2**70),
                st.floats(allow_nan=False),
                st.text(max_size=20),
                st.binary(max_size=20),
            ),
            lambda children: st.lists(children, max_size=4)
            | st.dictionaries(st.text(max_size=5), children, max_size=4),
            max_leaves=20,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_property_roundtrip(self, value):
        assert deserialize(serialize(value)) == value


class TestChannel:
    def test_insecure_transmit(self):
        ch = Channel("A", "B", secure=False)
        msg = ch.transmit("A", "B", "kind", "tag", {"x": 1})
        assert msg.payload == {"x": 1}
        assert not msg.sealed

    def test_secure_transmit_roundtrip(self):
        ch = Channel("A", "B", secure=True, key=b"k" * 32, entropy=make_prng(1))
        msg = ch.transmit("A", "B", "kind", "tag", [1, 2, 3])
        assert msg.payload == [1, 2, 3]
        assert msg.sealed

    def test_secure_requires_key(self):
        with pytest.raises(ChannelError):
            Channel("A", "B", secure=True)

    def test_same_endpoints_rejected(self):
        with pytest.raises(ChannelError):
            Channel("A", "A", secure=False)

    def test_non_endpoint_rejected(self):
        ch = Channel("A", "B", secure=False)
        with pytest.raises(ChannelError):
            ch.transmit("A", "C", "k", "", 1)

    def test_stats_directional(self):
        ch = Channel("A", "B", secure=False)
        ch.transmit("A", "B", "k", "", [1] * 100)
        ch.transmit("B", "A", "k", "", 1)
        assert ch.stats("A", "B").messages == 1
        assert ch.stats("B", "A").messages == 1
        assert ch.stats("A", "B").wire_bytes > ch.stats("B", "A").wire_bytes

    def test_kind_stats_separate(self):
        ch = Channel("A", "B", secure=False)
        ch.transmit("A", "B", "alpha", "", [1, 2])
        ch.transmit("A", "B", "beta", "", [1])
        assert ch.kind_stats("A", "B", "alpha").messages == 1
        assert ch.kind_stats("A", "B", "beta").messages == 1

    def test_secure_overhead_counted(self):
        insecure = Channel("A", "B", secure=False)
        secure = Channel("A", "B", secure=True, key=b"k" * 32, entropy=make_prng(2))
        payload = [1, 2, 3]
        insecure.transmit("A", "B", "k", "", payload)
        secure.transmit("A", "B", "k", "", payload)
        delta = (
            secure.stats("A", "B").wire_bytes - insecure.stats("A", "B").wire_bytes
        )
        assert delta == 48  # nonce + tag

    def test_eavesdropper_reads_insecure(self):
        ch = Channel("A", "B", secure=False)
        tap = Eavesdropper("mallory")
        ch.attach_tap(tap)
        ch.transmit("A", "B", "k", "", {"secret": 42})
        assert len(tap.frames) == 1
        assert tap.frames[0].try_read_payload() == {"secret": 42}

    def test_eavesdropper_blocked_on_secure(self):
        ch = Channel("A", "B", secure=True, key=b"k" * 32, entropy=make_prng(3))
        tap = Eavesdropper("mallory")
        ch.attach_tap(tap)
        ch.transmit("A", "B", "k", "", {"secret": 42})
        with pytest.raises(ChannelError):
            tap.frames[0].try_read_payload()

    def test_frames_between_filter(self):
        ch = Channel("A", "B", secure=False)
        tap = Eavesdropper("m")
        ch.attach_tap(tap)
        ch.transmit("A", "B", "k", "", 1)
        ch.transmit("B", "A", "k", "", 2)
        assert len(tap.frames_between("A", "B")) == 1
        assert len(tap.frames_between("B", "A")) == 1


class TestNetwork:
    def _net(self):
        net = Network()
        for name in ("A", "B", "TP"):
            net.add_party(name)
        net.connect("A", "B", secure=False)
        net.connect("A", "TP", secure=False)
        net.connect("B", "TP", secure=False)
        return net

    def test_send_receive_fifo(self):
        net = self._net()
        net.send("A", "B", "k1", 1)
        net.send("A", "B", "k2", 2)
        assert net.receive("B").payload == 1
        assert net.receive("B").payload == 2

    def test_kind_assertion(self):
        net = self._net()
        net.send("A", "B", "good", 1)
        with pytest.raises(ProtocolError):
            net.receive("B", kind="expected")

    def test_sender_assertion(self):
        net = self._net()
        net.send("A", "B", "k", 1)
        with pytest.raises(ProtocolError):
            net.receive("B", sender="TP")

    def test_empty_queue_raises(self):
        net = self._net()
        with pytest.raises(ProtocolError):
            net.receive("A")

    def test_duplicate_party_rejected(self):
        net = self._net()
        with pytest.raises(ChannelError):
            net.add_party("A")

    def test_duplicate_channel_rejected(self):
        net = self._net()
        with pytest.raises(ChannelError):
            net.connect("A", "B", secure=False)

    def test_unknown_channel(self):
        net = Network()
        net.add_party("A")
        net.add_party("B")
        with pytest.raises(ChannelError):
            net.channel("A", "B")

    def test_byte_accounting(self):
        net = self._net()
        net.send("A", "B", "k", [1] * 50)
        net.send("B", "TP", "k", [1] * 10)
        assert net.bytes_sent_by("A") > net.bytes_sent_by("B") > 0
        assert net.bytes_sent_by("TP") == 0
        assert net.total_bytes() == net.bytes_sent_by("A") + net.bytes_sent_by("B")
        assert net.bytes_on_link("A", "B") == net.bytes_sent_by("A")
        assert net.messages_sent_by("A") == 1

    def test_bytes_of_kind(self):
        net = self._net()
        net.send("A", "B", "alpha", [1] * 20)
        net.send("A", "B", "beta", 1)
        assert net.bytes_of_kind("A", "B", "alpha") > net.bytes_of_kind(
            "A", "B", "beta"
        )
        assert net.bytes_of_kind("A", "B", "gamma") == 0

    def test_assert_drained(self):
        net = self._net()
        net.assert_drained()
        net.send("A", "B", "k", 1)
        with pytest.raises(ProtocolError):
            net.assert_drained()
        net.receive("B")
        net.assert_drained()

    def test_pending(self):
        net = self._net()
        assert net.pending("B") == 0
        net.send("A", "B", "k", 1)
        assert net.pending("B") == 1
