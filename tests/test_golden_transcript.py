"""Golden wire transcript of a small 3-site session.

The communication benchmarks re-derive Table-style totals analytically;
what they cannot catch is *transport-layer drift* -- a serialization
tweak, an extra frame, a changed sealing overhead -- that shifts real
wire bytes while every analytic count stays put.  This module pins the
per-link transcript of one fixed sealed session (message kinds, order,
and exact per-frame wire bytes) as golden data.

Everything here is deterministic in ``master_seed``: if an intentional
transport change moves these numbers, regenerate the constants with the
session below and update them *in the same change* -- that is the
point, the diff then shows the cost of the change.
"""

from __future__ import annotations

import pytest

from repro.core.config import ProtocolSuiteConfig, SessionConfig
from repro.core.session import ClusteringSession
from repro.data.alphabet import DNA_ALPHABET
from repro.data.matrix import AttributeSpec, DataMatrix
from repro.network.channel import Eavesdropper
from repro.types import AttributeType

SCHEMA = [
    AttributeSpec("age", AttributeType.NUMERIC, precision=0),
    AttributeSpec("dna", AttributeType.ALPHANUMERIC, alphabet=DNA_ALPHABET),
    AttributeSpec("city", AttributeType.CATEGORICAL),
]

PARTITIONS = {
    "A": [[34, "ACGTAC", "istanbul"], [71, "TTTTGG", "ankara"]],
    "B": [[38, "ACGAAC", "izmir"], [67, "TTCTGG", "ankara"]],
    "C": [
        [40, "ACGTAA", "istanbul"],
        [69, "TTTTGC", "izmir"],
        [33, "AGGTAC", "bursa"],
    ],
}

MASTER_SEED = 2006

#: Golden per-link transcripts: (sender, kind, wire bytes) per frame, in
#: delivery order, for every link of the 3-site deployment.
GOLDEN_FRAMES = {
    ("A", "B"): [
        ("A", "group_key", 85),
        ("A", "masked_vector", 119),
        ("A", "masked_strings", 114),
    ],
    ("A", "C"): [
        ("A", "group_key", 85),
        ("A", "masked_vector", 119),
        ("A", "masked_strings", 114),
    ],
    ("A", "TP"): [
        ("A", "local_matrix", 126),
        ("A", "local_matrix", 126),
        ("A", "encrypted_column", 139),
        ("A", "weights", 80),
        ("TP", "result", 301),
    ],
    ("B", "C"): [
        ("B", "masked_vector", 119),
        ("B", "masked_strings", 114),
    ],
    ("B", "TP"): [
        ("B", "local_matrix", 126),
        ("B", "comparison_matrix", 177),
        ("B", "local_matrix", 126),
        ("B", "ccm_matrices", 403),
        ("B", "encrypted_column", 139),
        ("B", "weights", 80),
        ("TP", "result", 301),
    ],
    ("C", "TP"): [
        ("C", "local_matrix", 142),
        ("C", "comparison_matrix", 210),
        ("C", "comparison_matrix", 210),
        ("C", "local_matrix", 142),
        ("C", "ccm_matrices", 548),
        ("C", "ccm_matrices", 548),
        ("C", "encrypted_column", 160),
        ("C", "weights", 80),
        ("TP", "result", 301),
    ],
}

#: Per-link wire-byte totals implied by the frames (kept explicit so a
#: failure names the drifted link before anyone diffs frame lists).
GOLDEN_LINK_BYTES = {
    link: sum(size for _, _, size in frames)
    for link, frames in GOLDEN_FRAMES.items()
}

GOLDEN_TOTAL_BYTES = 5334


def _run_tapped_session(suite: ProtocolSuiteConfig | None = None):
    partitions = {
        site: DataMatrix(SCHEMA, rows) for site, rows in PARTITIONS.items()
    }
    config = SessionConfig(num_clusters=2, master_seed=MASTER_SEED)
    if suite is not None:
        config = SessionConfig(
            num_clusters=2, master_seed=MASTER_SEED, suite=suite
        )
    session = ClusteringSession(config, partitions)
    names = [*sorted(partitions), "TP"]
    taps = {}
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            tap = Eavesdropper(f"{a}|{b}")
            session.network.attach_tap(a, b, tap)
            taps[(a, b)] = tap
    session.run()
    return session, taps


class TestGoldenTranscript:
    def test_per_link_frames_and_bytes(self):
        session, taps = _run_tapped_session()
        assert set(taps) == set(GOLDEN_FRAMES)
        for link, tap in sorted(taps.items()):
            frames = [(f.sender, f.kind, len(f.wire)) for f in tap.frames]
            assert frames == GOLDEN_FRAMES[link], f"transcript drifted on {link}"
            assert (
                session.network.bytes_on_link(*link) == GOLDEN_LINK_BYTES[link]
            ), f"byte count drifted on {link}"
        assert session.total_bytes() == GOLDEN_TOTAL_BYTES

    def test_transcript_is_reproducible(self):
        """Two runs with one seed emit byte-identical wire frames."""
        _, taps_one = _run_tapped_session()
        _, taps_two = _run_tapped_session()
        for link in taps_one:
            wire_one = [f.wire for f in taps_one[link].frames]
            wire_two = [f.wire for f in taps_two[link].frames]
            assert wire_one == wire_two, f"non-deterministic frames on {link}"

    @pytest.mark.parametrize("backend", ["memory", "memmap"])
    def test_float64_backends_leave_wire_bytes_untouched(self, backend):
        """Storage is invisible on the wire: every frame of a session on
        a float64 backend is byte-identical to the golden transcript."""
        suite = ProtocolSuiteConfig(
            store_backend=backend, store_block_entries=16, store_cache_bytes=512
        )
        session, taps = _run_tapped_session(suite)
        # Reference pinned to the in-memory backend explicitly, so a
        # REPRO_STORE_BACKEND override (the CI storage-memmap job) cannot
        # move the golden side of the comparison.
        _, golden_taps = _run_tapped_session(
            ProtocolSuiteConfig(store_backend="memory")
        )
        for link in golden_taps:
            wire = [f.wire for f in taps[link].frames]
            golden = [f.wire for f in golden_taps[link].frames]
            assert wire == golden, f"backend {backend} drifted bytes on {link}"
        assert session.total_bytes() == GOLDEN_TOTAL_BYTES
