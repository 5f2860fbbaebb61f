"""Error-path and contract tests for the party role implementations."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import ProtocolSuiteConfig
from repro.core.scheduler import ConstructionScheduler
from repro.crypto.keys import secret_from_passphrase
from repro.crypto.prng import make_prng
from repro.data.matrix import AttributeSpec, DataMatrix, Schema
from repro.data.partition import GlobalIndex
from repro.distance.local import local_dissimilarity
from repro.distance.numeric import FixedPointCodec
from repro.exceptions import ProtocolError
from repro.network.simulator import Network
from repro.parties.base import Party
from repro.parties.holder import DataHolder
from repro.parties.third_party import ThirdParty
from repro.types import AttributeType

SCHEMA = [
    AttributeSpec("v", AttributeType.NUMERIC, precision=0),
    AttributeSpec("c", AttributeType.CATEGORICAL),
]


def construct_attribute(spec, holders, tp):
    scheduler = ConstructionScheduler(holders, tp)
    scheduler.add_attribute(spec)
    scheduler.run()


def _setup():
    network = Network()
    for name in ("A", "B", "TP"):
        network.add_party(name)
    for pair in (("A", "B"), ("A", "TP"), ("B", "TP")):
        network.connect(*pair, secure=False)
    suite = ProtocolSuiteConfig(secure_channels=False)
    holders = {
        "A": DataHolder("A", DataMatrix(SCHEMA, [[1, "x"], [2, "y"]]), network, suite, make_prng("ea")),
        "B": DataHolder("B", DataMatrix(SCHEMA, [[3, "x"]]), network, suite, make_prng("eb")),
    }
    index = GlobalIndex({"A": 2, "B": 1})
    tp = ThirdParty("TP", network, Schema(SCHEMA), index, suite)
    for pair in (("A", "B"), ("A", "TP"), ("B", "TP")):
        secret = secret_from_passphrase(pair, f"secret-{pair}")
        a, b = pair
        holders.get(a, tp).set_secret(b, secret) if a in holders else tp.set_secret(b, secret)
        holders.get(b, tp).set_secret(a, secret) if b in holders else tp.set_secret(a, secret)
    return network, holders, tp


class TestPartyBase:
    def test_empty_name_rejected(self):
        with pytest.raises(ProtocolError):
            Party("", Network())

    def test_self_secret_rejected(self):
        party = Party("A", Network())
        with pytest.raises(ProtocolError):
            party.set_secret("A", secret_from_passphrase(("A", "B"), 1))

    def test_mismatched_secret_rejected(self):
        party = Party("A", Network())
        with pytest.raises(ProtocolError):
            party.set_secret("B", secret_from_passphrase(("C", "D"), 1))

    def test_missing_secret(self):
        party = Party("A", Network())
        with pytest.raises(ProtocolError):
            party.secret_with("B")


class TestDataHolder:
    def test_local_matrix_rejects_categorical(self):
        _, holders, _ = _setup()
        with pytest.raises(ProtocolError):
            holders["A"].local_matrix(SCHEMA[1])

    def test_send_categorical_without_group_key(self):
        _, holders, _ = _setup()
        with pytest.raises(ProtocolError):
            holders["A"].send_categorical(SCHEMA[1], "TP")

    def test_weights_length_validated(self):
        _, holders, _ = _setup()
        with pytest.raises(ProtocolError):
            holders["A"].send_weights("TP", [1.0])

    @pytest.mark.parametrize(
        "precision, column",
        [
            (0, [2**51, -(2**52) + 7, 12345, 2**62 + 1, 3 * 2**51]),
            (0, [-(2**63), 0, 5]),
            (6, [5_000_000_000.123456, -4_000_000_000.5, 7, 2**40, 0.000001]),
        ],
    )
    def test_local_matrix_beyond_int64_broadcast_is_exact(self, precision, column):
        """Encoded magnitudes >= 2^51 leave the int64 broadcast; the
        matrix must still equal the scalar Figure 12 loop bit for bit."""
        spec = AttributeSpec("v", AttributeType.NUMERIC, precision=precision)
        holder = DataHolder(
            "A",
            DataMatrix([spec], [[v] for v in column]),
            Network(),
            ProtocolSuiteConfig(secure_channels=False),
            make_prng("big"),
        )
        codec = FixedPointCodec(precision)
        encoded = codec.encode_column(column)
        assert max(abs(v) for v in encoded) >= 2**51
        expected = local_dissimilarity(
            encoded, lambda a, b: codec.decode_distance(abs(a - b))
        )
        got = holder.local_matrix(spec)
        assert got.num_objects == expected.num_objects
        assert np.asarray(got.condensed).tobytes() == np.asarray(
            expected.condensed, dtype=np.float64
        ).tobytes()

    def test_group_key_distribution(self):
        _, holders, _ = _setup()
        holders["A"].distribute_group_key(["B"])
        holders["B"].receive_group_key("A")
        assert holders["A"]._group_key == holders["B"]._group_key

    def test_respond_checks_attribute_match(self):
        """A responder expecting attribute X must reject a masked vector
        for attribute Y -- protocol-state divergence is loud."""
        schema = [
            AttributeSpec("v", AttributeType.NUMERIC, precision=0),
            AttributeSpec("w", AttributeType.NUMERIC, precision=0),
        ]
        network = Network()
        for name in ("A", "B", "TP"):
            network.add_party(name)
        for pair in (("A", "B"), ("A", "TP"), ("B", "TP")):
            network.connect(*pair, secure=False)
        suite = ProtocolSuiteConfig(secure_channels=False)
        holder_a = DataHolder(
            "A", DataMatrix(schema, [[1, 10]]), network, suite, make_prng("a")
        )
        holder_b = DataHolder(
            "B", DataMatrix(schema, [[2, 20]]), network, suite, make_prng("b")
        )
        for pair in (("A", "B"), ("A", "TP"), ("B", "TP")):
            secret = secret_from_passphrase(pair, "s")
            if "A" in pair:
                holder_a.set_secret(pair[0] if pair[0] != "A" else pair[1], secret)
            if "B" in pair:
                holder_b.set_secret(pair[0] if pair[0] != "B" else pair[1], secret)
        holder_a.numeric_initiate(schema[0], "B", "TP", responder_size=1)
        with pytest.raises(ProtocolError):
            holder_b.numeric_respond(schema[1], "A", "TP")


class TestThirdParty:
    def test_attribute_matrix_before_finalize(self):
        _, _, tp = _setup()
        with pytest.raises(ProtocolError):
            tp.attribute_matrix("v")

    def test_finalize_unconstructed_attribute(self):
        _, _, tp = _setup()
        with pytest.raises(ProtocolError):
            tp.finalize_attribute("v")

    def test_finalize_categorical_without_columns(self):
        _, _, tp = _setup()
        with pytest.raises(ProtocolError):
            tp.finalize_categorical("c")

    def test_merged_matrix_requires_all_attributes(self):
        network, holders, tp = _setup()
        construct_attribute(SCHEMA[0], holders, tp)
        with pytest.raises(ProtocolError, match="not finalised"):
            tp.merged_matrix()

    def test_weights_length_validated(self):
        network, holders, tp = _setup()
        holders["A"].send(tp.name, "weights", [1.0])
        with pytest.raises(ProtocolError):
            tp.receive_weights("A")

    def test_duplicate_encrypted_column_rejected(self):
        network, holders, tp = _setup()
        holders["A"].distribute_group_key(["B"])
        holders["B"].receive_group_key("A")
        holders["A"].send_categorical(SCHEMA[1], "TP")
        tp.receive_encrypted_column("A")
        holders["A"].send_categorical(SCHEMA[1], "TP")
        with pytest.raises(ProtocolError, match="duplicate"):
            tp.receive_encrypted_column("A")

    def test_comparison_matrix_for_wrong_type_rejected(self):
        network, holders, tp = _setup()
        holders["B"].send(
            "TP",
            "comparison_matrix",
            {"attribute": "c", "initiator": "A", "matrix": [[1]]},
        )
        with pytest.raises(ProtocolError, match="non-numeric"):
            tp.receive_numeric_block("B")

    @pytest.mark.parametrize(
        "fields",
        [
            {"epoch": 1},
            {"part": "shrink", "epoch": 1},
            {"part": "grow"},
        ],
    )
    def test_delta_block_without_a_known_run_rejected(self, fields):
        """A delta comparison matrix must name its run: a missing or
        unknown ``part`` (or a missing ``epoch``) is a protocol error."""
        network, holders, tp = _setup()
        holders["B"].send(
            "TP",
            "comparison_matrix",
            {"attribute": "v", "initiator": "A", **fields, "matrix": [[1]]},
        )
        with pytest.raises(ProtocolError):
            tp.receive_numeric_delta_block("B")

    def test_encrypted_column_for_wrong_type_rejected(self):
        network, holders, tp = _setup()
        holders["A"].send(
            "TP", "encrypted_column", {"attribute": "v", "ciphertexts": [b"x"]}
        )
        with pytest.raises(ProtocolError, match="non-categorical"):
            tp.receive_encrypted_column("A")


class TestConstruction:
    def test_holder_site_mismatch(self):
        network, holders, tp = _setup()
        del holders["B"]
        with pytest.raises(ProtocolError, match="do not match"):
            construct_attribute(SCHEMA[0], holders, tp)

    def test_numeric_attribute_end_to_end(self):
        network, holders, tp = _setup()
        construct_attribute(SCHEMA[0], holders, tp)
        matrix = tp.attribute_matrix("v")
        # Values 1, 2 | 3: distances 1, 2, 1 -> normalised by 2.
        assert matrix[1, 0] == pytest.approx(0.5)
        assert matrix[2, 0] == pytest.approx(1.0)
        assert matrix[2, 1] == pytest.approx(0.5)
        network.assert_drained()
