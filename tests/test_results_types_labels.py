"""Tests for result publication, shared types, and the label grammar."""

from __future__ import annotations

import pytest

from repro.core import labels as grammar
from repro.core.results import Cluster, ClusteringResult, result_from_labels
from repro.data.partition import ObjectRef
from repro.exceptions import ProtocolError
from repro.types import AttributeType, LinkageMethod, ProtocolRole


class TestAttributeType:
    def test_numeric_accepts(self):
        assert AttributeType.NUMERIC.accepts(3)
        assert AttributeType.NUMERIC.accepts(1.5)
        assert not AttributeType.NUMERIC.accepts(True)
        assert not AttributeType.NUMERIC.accepts("3")

    def test_string_types_accept(self):
        for t in (AttributeType.ALPHANUMERIC, AttributeType.CATEGORICAL):
            assert t.accepts("text")
            assert not t.accepts(3)
            assert t.is_string_valued

    def test_numeric_not_string_valued(self):
        assert not AttributeType.NUMERIC.is_string_valued

    def test_enum_values_stable(self):
        """Wire/tag format stability: these strings appear in message tags."""
        assert AttributeType.NUMERIC.value == "numeric"
        assert AttributeType.ALPHANUMERIC.value == "alphanumeric"
        assert AttributeType.CATEGORICAL.value == "categorical"

    def test_roles_match_paper_names(self):
        assert ProtocolRole.INITIATOR.value == "DHJ"
        assert ProtocolRole.RESPONDER.value == "DHK"
        assert ProtocolRole.THIRD_PARTY.value == "TP"

    def test_linkage_members(self):
        assert {m.value for m in LinkageMethod} == {
            "single", "complete", "average", "weighted", "ward",
        }


class TestLabelGrammar:
    def test_role_direction_matters(self):
        """Swapping initiator/responder must change every stream label."""
        assert grammar.numeric_jk("a", "X", "Y") != grammar.numeric_jk("a", "Y", "X")
        assert grammar.numeric_jt("a", "X", "Y") != grammar.numeric_jt("a", "Y", "X")
        assert grammar.alnum_jt("a", "X", "Y") != grammar.alnum_jt("a", "Y", "X")

    def test_attribute_scoping(self):
        assert grammar.numeric_jk("age", "X", "Y") != grammar.numeric_jk(
            "income", "X", "Y"
        )

    def test_protocol_kind_scoping(self):
        """Numeric and alphanumeric streams never collide even for the
        same attribute/pair."""
        assert grammar.numeric_jt("a", "X", "Y") != grammar.alnum_jt("a", "X", "Y")

    def test_channel_key_symmetric(self):
        assert grammar.channel_key("B", "A") == grammar.channel_key("A", "B")

    def test_all_labels_distinct(self):
        labels = {
            grammar.numeric_jk("a", "X", "Y"),
            grammar.numeric_jt("a", "X", "Y"),
            grammar.alnum_jt("a", "X", "Y"),
            grammar.channel_key("X", "Y"),
            grammar.group_key_label(),
        }
        assert len(labels) == 5

    def test_delta_scoped_labels_are_distinct(self):
        """Every delta run label differs from every other one and from
        the initial construction's: a scope that collided would reuse
        the initial run's masks and void Section 4.1's argument."""
        bases = [
            grammar.numeric_jk("a", "X", "Y"),
            grammar.numeric_jt("a", "X", "Y"),
            grammar.alnum_jt("a", "X", "Y"),
        ]
        scopes = [grammar.RunScope()] + [
            grammar.RunScope(epoch, part)
            for epoch in (1, 2)
            for part in grammar.DELTA_PARTS
        ]
        labels = [scope.label(base) for scope in scopes for base in bases]
        assert len(set(labels)) == len(labels) == 15
        assert [grammar.RunScope().label(base) for base in bases] == bases

    def test_delta_scope_label_and_payload_fields(self):
        scope = grammar.RunScope(3, "base")
        assert scope.label("num-jk|a|X>Y") == "num-jk|a|X>Y|delta3|base"
        assert scope.meta() == {"part": "base", "epoch": 3}
        assert grammar.RunScope().meta() == {}

    @pytest.mark.parametrize(
        "epoch, part", [(0, "grow"), (-1, "base"), (1, "shrink"), (1, None)]
    )
    def test_invalid_delta_scope_raises(self, epoch, part):
        with pytest.raises(ValueError):
            grammar.RunScope(epoch, part)


class TestCluster:
    def test_format_members_one_based(self):
        cluster = Cluster(0, (ObjectRef("A", 0), ObjectRef("B", 3)))
        assert cluster.format_members() == "A1, B4"
        assert cluster.format_members(one_based=False) == "A0, B3"


class TestClusteringResult:
    def _result(self):
        refs = [ObjectRef("A", 0), ObjectRef("A", 1), ObjectRef("B", 0)]
        return result_from_labels(refs, [0, 1, 0], quality={0: 0.5, 1: 0.0})

    def test_labels_for(self):
        result = self._result()
        refs = [ObjectRef("B", 0), ObjectRef("A", 1)]
        assert result.labels_for(refs) == [0, 1]

    def test_labels_for_missing_object(self):
        with pytest.raises(ProtocolError):
            self._result().labels_for([ObjectRef("Z", 9)])

    def test_figure13_format(self):
        text = self._result().format_figure13()
        assert text.splitlines() == ["Cluster1\tA1, B1", "Cluster2\tA2"]

    def test_payload_roundtrip(self):
        result = self._result()
        clone = ClusteringResult.from_payload(result.to_payload())
        assert clone.to_payload() == result.to_payload()
        assert clone.quality == {0: 0.5, 1: 0.0}

    def test_result_from_labels_mismatch(self):
        with pytest.raises(ProtocolError):
            result_from_labels([ObjectRef("A", 0)], [0, 1])

    def test_clusters_sorted_by_label(self):
        refs = [ObjectRef("A", i) for i in range(4)]
        result = result_from_labels(refs, [2, 0, 1, 0])
        assert [c.cluster_id for c in result.clusters] == [0, 1, 2]
        assert result.num_objects == 4
