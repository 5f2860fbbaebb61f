"""Golden wire transcript of a small 3-site session.

The communication benchmarks re-derive Table-style totals analytically;
what they cannot catch is *transport-layer drift* -- a serialization
tweak, an extra frame, a changed sealing overhead -- that shifts real
wire bytes while every analytic count stays put.  This module pins the
per-link transcript of one fixed sealed session (message kinds, order,
and exact per-frame wire bytes) as golden data, and the content of every
frame as one digest per link -- for that session and for one
incremental ingest and one retirement after it.

Everything here is deterministic in ``master_seed``: if an intentional
transport change moves these numbers, regenerate the constants with the
session below and update them *in the same change* -- that is the
point, the diff then shows the cost of the change.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.apps.service import ClusteringService
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


#: Rows the pinned service ingest appends.  Every site grows, so each
#: holder pair runs both a ``"grow"`` and a ``"base"`` delta round, every
#: site ships a local tail, and the categorical column ships a delta.
ARRIVALS = {
    "A": [[52, "ACGTTC", "izmir"]],
    "B": [[29, "TTGTGG", "bursa"], [45, "ACCTAC", "istanbul"]],
    "C": [[60, "AAGTAC", "ankara"]],
}

#: Site-local ids the pinned retirement drops after that ingest.
RETIREMENTS = {"A": [0], "C": [1, 3]}

#: sha256 per link over every frame's (kind, wire bytes), in delivery
#: order.  Sizes alone cannot see a payload whose bytes changed but not
#: its length -- a delta round that reused the initial run's masks, say.
GOLDEN_SESSION_DIGESTS = {
    ("A", "B"): (
        "4efd66265f4f98e9d60b9d0056e59c655a6860309a91ca4c16c891aa6e65c984"
    ),
    ("A", "C"): (
        "34d5bf84c44fb2f59311222da7302d266f45f9efbfde80a09ea8d6bb79ba2342"
    ),
    ("A", "TP"): (
        "46be58403584850fe5642fdff88d237864f8fd448a08dd8afb7b18b45544145a"
    ),
    ("B", "C"): (
        "143cffebe820e7bd61c52a397d77b277efc812a286e4d3c4251e9a0b04089828"
    ),
    ("B", "TP"): (
        "20eff4306500f176f83546f09c71abd6cdb135f4e2d412dbe6641c473f3d49dd"
    ),
    ("C", "TP"): (
        "4c44f2d818cbdb0d4d1a2d351f68ada1bf3a6b183072206ce527070305897786"
    ),
}

#: The same digests for the frames of one service ingest (delta rounds
#: plus the re-clustered result) and of the retirement that follows it.
GOLDEN_INGEST_DIGESTS = {
    ("A", "B"): (
        "795ee47339fb081d6cf915ff74068252df645800b352d31397a7d0258d72809c"
    ),
    ("A", "C"): (
        "e2a4b158cce835c8ebfa388102e138dfff00b4beef6504db4369ffa3f1064201"
    ),
    ("A", "TP"): (
        "df403668c8d9ee70a03e4b1082937e9b9cc2daa9a24b015c6f1baa840bef5ee7"
    ),
    ("B", "C"): (
        "045a4bee58c336e9de6e784a709433da5459cf222e5c9102a968b36096e67595"
    ),
    ("B", "TP"): (
        "613a98ba1949c30680373da9964d57a81c831f9eca6e9b8e5995025e292e3d8b"
    ),
    ("C", "TP"): (
        "1d4038f8742ea148813af42deb498a6e69ab49350d6f02ee1bf035bce9a64213"
    ),
}
GOLDEN_RETIRE_DIGESTS = {
    ("A", "B"): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    ),
    ("A", "C"): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    ),
    ("A", "TP"): (
        "e2d0e2bc15da41d61850abff21d4682e315442fbad882cb7e063ddc668ed4728"
    ),
    ("B", "C"): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    ),
    ("B", "TP"): (
        "5ee8983ac7ee207ed89134abe80ac16bd8a3bd58010ea65c59f0cad421b39376"
    ),
    ("C", "TP"): (
        "590a76b861b5568153ff1299d3c29156384ba3fd7c3d8f34e0c75fcca4dec751"
    ),
}


def _partitions(rows_by_site):
    return {site: DataMatrix(SCHEMA, rows) for site, rows in rows_by_site.items()}


def _tap_every_link(network):
    names = [*sorted(PARTITIONS), "TP"]
    taps = {}
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            tap = Eavesdropper(f"{a}|{b}")
            network.attach_tap(a, b, tap)
            taps[(a, b)] = tap
    return taps


def _link_digests(taps):
    digests = {}
    for link, tap in taps.items():
        digest = hashlib.sha256()
        for frame in tap.frames:
            for part in (frame.kind.encode(), frame.wire):
                digest.update(len(part).to_bytes(8, "big"))
                digest.update(part)
        digests[link] = digest.hexdigest()
    return digests


def _run_tapped_session(suite: ProtocolSuiteConfig | None = None):
    config = SessionConfig(num_clusters=2, master_seed=MASTER_SEED)
    if suite is not None:
        config = SessionConfig(
            num_clusters=2, master_seed=MASTER_SEED, suite=suite
        )
    session = ClusteringSession(config, _partitions(PARTITIONS))
    taps = _tap_every_link(session.network)
    session.run()
    return session, taps


def _run_tapped_service():
    """Per-link digests of one ingest and of one retirement after it."""
    service = ClusteringService(
        SessionConfig(num_clusters=2, master_seed=MASTER_SEED),
        _partitions(PARTITIONS),
    )
    taps = _tap_every_link(service.session.network)
    service.ingest(_partitions(ARRIVALS))
    ingest = _link_digests(taps)
    taps = _tap_every_link(service.session.network)
    service.retire(RETIREMENTS)
    return ingest, _link_digests(taps)


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

    def test_per_link_frame_digests(self):
        _, taps = _run_tapped_session()
        assert _link_digests(taps) == GOLDEN_SESSION_DIGESTS

    def test_delta_and_retirement_frame_digests(self):
        """Pins the content of every delta frame: grow and base rounds,
        local tails, the categorical delta, retirements and results."""
        ingest, retire = _run_tapped_service()
        assert ingest == GOLDEN_INGEST_DIGESTS
        assert retire == GOLDEN_RETIRE_DIGESTS

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
