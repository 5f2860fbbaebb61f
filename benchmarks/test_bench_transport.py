"""T-TRANSPORT -- the throughput-grade transport stack vs the seed.

PR 1 vectorized the protocol arithmetic; after it, a sealed session's
runtime lives in the transport: keystream generation (one ``hmac.new``
per 32 bytes in the seed), the per-byte XOR, paying the whole keystream
*twice* per message (``seal`` then an immediate in-process ``open``),
and the per-element integer wire codec.  This module measures the
rewritten stack against the seed implementations preserved in
:mod:`repro.crypto.reference`:

* **sealed transport** -- what ``Channel.transmit`` pays per message.
  Seed: scalar ``seal`` + scalar ``open``.  New: one shared-keystream
  ``transmit_roundtrip``.  The acceptance bar is >= 5x here, with the
  wire bytes asserted byte-identical.
* **raw seal** -- one-sided sealing throughput (one-call PBKDF2
  keystream + numpy XOR vs ``hmac.new`` per block + per-byte XOR),
  reported alongside.
* **CCM message codec** -- one alphanumeric ``ccm_matrices`` payload
  (32x32 intermediary CCMs of 16x16 ``uint8``): the array-run codec vs
  the seed's per-array records, wire bytes asserted identical.
* **end-to-end session** -- a sealed-channel clustering workload run on
  both transports via :class:`repro.apps.sessions.SessionBatch` (DH
  setup amortised out of the comparison), with every frame of every
  link compared byte for byte before the speedup is asserted.

Headline numbers persist to ``BENCH_transport.json`` (uploaded as a CI
artifact) to start the perf trajectory.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.apps.sessions import SessionBatch
from repro.core.alphanumeric import initiator_mask_strings, responder_ccm_matrices
from repro.core.config import ProtocolSuiteConfig, SessionConfig
from repro.crypto.prng import make_prng
from repro.crypto.reference import ScalarSymmetricCipher, scalar_transport
from repro.crypto.sym import SymmetricCipher
from repro.data.alphabet import DNA_ALPHABET
from repro.data.matrix import AttributeSpec, DataMatrix
from repro.network.channel import Eavesdropper
from repro.network.serialization import deserialize, serialize
from repro.types import AttributeType

KEY = b"\x07" * 32
MESSAGE_BYTES = 1 << 18  # 256 KiB: the scale of an O(n^2) protocol payload

#: The acceptance bar is 5x on an idle machine (16.3x recorded for the
#: sealed transport with the one-call PBKDF2 keystream).  Wall-clock
#: asserts flake on contended shared runners, so CI lowers the gates via
#: env vars instead of turning red on timing noise; local/acceptance runs
#: keep the full bars.
SPEEDUP_BAR = float(os.environ.get("TRANSPORT_SPEEDUP_BAR", "5.0"))
SESSION_BAR = float(os.environ.get("TRANSPORT_SESSION_BAR", "1.3"))


def _message() -> bytes:
    return bytes(i * 31 % 256 for i in range(MESSAGE_BYTES))


def _on_seed_codec(fn):
    """``fn`` on the seed transport: every call enters :func:`scalar_transport`."""

    def run():
        with scalar_transport():
            fn()

    return run


def test_sealed_transport_throughput(table, bench_store, alternating):
    """>= 5x on the per-message cost of a secure channel, bytes identical."""
    message = _message()
    fast = SymmetricCipher(KEY)
    seed = ScalarSymmetricCipher(KEY)

    assert fast.seal(message, make_prng(1)) == seed.seal(message, make_prng(1))
    wire, opened = fast.transmit_roundtrip(message, make_prng(2))
    assert wire == seed.seal(message, make_prng(2)) and opened == message

    seed_wire = seed.seal(message, make_prng(3))
    seed_time, fast_time = alternating(
        lambda: (seed.seal(message, make_prng(3)), seed.open(seed_wire)),
        lambda: fast.transmit_roundtrip(message, make_prng(3)),
        repeats=5,
    )
    seal_seed_time, seal_fast_time = alternating(
        lambda: seed.seal(message, make_prng(4)),
        lambda: fast.seal(message, make_prng(4)),
        repeats=5,
    )

    transport_speedup = seed_time / fast_time
    seal_speedup = seal_seed_time / seal_fast_time
    mib = MESSAGE_BYTES / (1 << 20)
    table(
        "T-TRANSPORT: sealed channel transport (256 KiB message)",
        [
            ("seed seal+open", f"{seed_time * 1e3:.1f} ms", f"{mib / seed_time:.0f} MiB/s"),
            ("shared-keystream roundtrip", f"{fast_time * 1e3:.1f} ms", f"{mib / fast_time:.0f} MiB/s"),
            ("transport speedup", f"{transport_speedup:.1f}x", ""),
            ("raw seal speedup", f"{seal_speedup:.1f}x", ""),
        ],
        ("path", "time", "throughput"),
    )
    bench_store(
        "transport",
        {
            "sealed_transport": {
                "message_bytes": MESSAGE_BYTES,
                "seed_ms": round(seed_time * 1e3, 3),
                "fast_ms": round(fast_time * 1e3, 3),
                "speedup": round(transport_speedup, 2),
                "raw_seal_speedup": round(seal_speedup, 2),
            }
        },
    )
    assert transport_speedup >= SPEEDUP_BAR, (
        f"sealed transport speedup {transport_speedup:.1f}x below the "
        f"{SPEEDUP_BAR}x acceptance bar"
    )
    # The one-sided seal still computes one HMAC per 32-byte block, in
    # OpenSSL's PBKDF2 loop; guard against regressing to the seed's
    # hmac.new-per-block cost without over-asserting.
    assert seal_speedup >= min(2.0, SPEEDUP_BAR)


def test_codec_int_run_speedup(table, bench_store, alternating):
    """Batched integer-run encode/decode vs the seed's per-element loops."""
    import random

    rng = random.Random(5)
    values = [rng.randrange(0, 2**64) for _ in range(65536)]
    wire = serialize(values)
    with scalar_transport():
        assert serialize(values) == wire
    seed_encode, fast_encode, seed_decode, fast_decode = alternating(
        _on_seed_codec(lambda: serialize(values)),
        lambda: serialize(values),
        _on_seed_codec(lambda: deserialize(wire)),
        lambda: deserialize(wire),
        repeats=5,
    )
    encode_speedup = seed_encode / fast_encode
    decode_speedup = seed_decode / fast_decode
    table(
        "T-TRANSPORT: wire codec, 65536-int run (64-bit magnitudes)",
        [
            ("encode", f"{seed_encode * 1e3:.1f} ms", f"{fast_encode * 1e3:.1f} ms", f"{encode_speedup:.1f}x"),
            ("decode", f"{seed_decode * 1e3:.1f} ms", f"{fast_decode * 1e3:.1f} ms", f"{decode_speedup:.1f}x"),
        ],
        ("path", "seed", "batched", "speedup"),
    )
    bench_store(
        "transport",
        {
            "codec_int_run": {
                "values": len(values),
                "encode_speedup": round(encode_speedup, 2),
                "decode_speedup": round(decode_speedup, 2),
            }
        },
    )
    assert encode_speedup >= min(1.5, SPEEDUP_BAR)
    assert decode_speedup >= min(1.2, SPEEDUP_BAR)


def test_codec_ccm_message_speedup(table, bench_store, alternating):
    """Array-run encode/decode of one CCM message vs the seed's per-array
    records (the ``construct-mixed`` shape: 32 DNA strings of 16 per site)."""
    rng = np.random.default_rng(7)
    strings_j, strings_k = (
        ["".join("ACGT"[i] for i in rng.integers(0, 4, 16)) for _ in range(32)] for _ in range(2)
    )
    masked = initiator_mask_strings(strings_j, DNA_ALPHABET, make_prng(3))
    payload = {
        "attribute": "seq",
        "initiator": "A",
        "matrices": responder_ccm_matrices(strings_k, masked, DNA_ALPHABET),
    }
    wire = serialize(payload)
    with scalar_transport():
        assert serialize(payload) == wire
    seed_encode, fast_encode, seed_decode, fast_decode = alternating(
        _on_seed_codec(lambda: serialize(payload)),
        lambda: serialize(payload),
        _on_seed_codec(lambda: deserialize(wire)),
        lambda: deserialize(wire),
        repeats=5,
    )
    encode_speedup = seed_encode / fast_encode
    decode_speedup = seed_decode / fast_decode
    table(
        "T-TRANSPORT: wire codec, one CCM message (1,024 16x16 uint8 arrays)",
        [
            ("encode", f"{seed_encode * 1e3:.1f} ms", f"{fast_encode * 1e3:.1f} ms", f"{encode_speedup:.1f}x"),
            ("decode", f"{seed_decode * 1e3:.1f} ms", f"{fast_decode * 1e3:.1f} ms", f"{decode_speedup:.1f}x"),
        ],
        ("path", "seed", "array runs", "speedup"),
    )
    bench_store(
        "transport",
        {
            "codec_ccm_message": {
                "arrays": 32 * 32,
                "bytes": len(wire),
                "encode_speedup": round(encode_speedup, 2),
                "decode_speedup": round(decode_speedup, 2),
            }
        },
    )
    assert encode_speedup >= min(2.0, SPEEDUP_BAR)
    assert decode_speedup >= min(2.0, SPEEDUP_BAR)


def _workload():
    schema = [
        AttributeSpec("alpha", AttributeType.NUMERIC, precision=2),
        AttributeSpec("beta", AttributeType.NUMERIC, precision=0),
    ]
    rows_per_site = 64
    partitions = {
        site: DataMatrix(
            schema,
            [
                [((seed * 37 + i * 13) % 1000) / 4.0, (seed * 91 + i * 7) % 5000]
                for i in range(rows_per_site)
            ],
        )
        for seed, site in enumerate(("A", "B"), start=1)
    }
    config = SessionConfig(
        num_clusters=3,
        master_seed=17,
        suite=ProtocolSuiteConfig(secure_channels=True),
    )
    return config, partitions


def _run_session(batch: SessionBatch, partitions, with_taps: bool = False):
    session = batch.session(partitions)
    taps = {}
    if with_taps:
        names = sorted(partitions) + ["TP"]
        for i, a in enumerate(names):
            for b in names[i + 1 :]:
                tap = Eavesdropper(f"{a}|{b}")
                session.network.attach_tap(a, b, tap)
                taps[(a, b)] = tap
    result = session.run()
    return session, result, taps


def test_end_to_end_session_speedup(table, bench_store, alternating):
    """A sealed-channel clustering session, fast vs seed transport.

    DH setup is shared through one :class:`SessionBatch` per transport,
    so the measured delta is construction + transport, not key
    agreement.  Transcripts are compared frame for frame first: the
    speedup claim is only meaningful if the wire is byte-identical.
    """
    config, partitions = _workload()

    batch = SessionBatch(config, sorted(partitions))
    fast_session, fast_result, fast_taps = _run_session(batch, partitions, with_taps=True)
    with scalar_transport():
        seed_batch = SessionBatch(config, sorted(partitions))
        seed_session, seed_result, seed_taps = _run_session(
            seed_batch, partitions, with_taps=True
        )

    assert fast_result.to_payload() == seed_result.to_payload()
    assert fast_session.total_bytes() == seed_session.total_bytes()
    for link, fast_tap in fast_taps.items():
        seed_frames = [(f.kind, f.tag, f.wire) for f in seed_taps[link].frames]
        fast_frames = [(f.kind, f.tag, f.wire) for f in fast_tap.frames]
        assert fast_frames == seed_frames, f"wire transcript diverged on {link}"
    fast_tags = {
        tag: total for tag, total in fast_session.network.bytes_by_tag().items()
    }
    assert fast_tags == seed_session.network.bytes_by_tag()

    fast_time = alternating(lambda: _run_session(batch, partitions))[0]
    with scalar_transport():
        seed_time = alternating(lambda: _run_session(seed_batch, partitions), repeats=2)[0]

    speedup = seed_time / fast_time
    table(
        "T-TRANSPORT: end-to-end sealed session (2 sites x 64 rows, 2 numeric attrs)",
        [
            ("seed transport", f"{seed_time * 1e3:.1f} ms"),
            ("fast transport", f"{fast_time * 1e3:.1f} ms"),
            ("speedup", f"{speedup:.2f}x"),
            ("wire bytes", f"{fast_session.total_bytes():,}"),
        ],
        ("configuration", "value"),
    )
    bench_store(
        "transport",
        {
            "end_to_end_session": {
                "sites": 2,
                "rows_per_site": 64,
                "wire_bytes": fast_session.total_bytes(),
                "seed_ms": round(seed_time * 1e3, 2),
                "fast_ms": round(fast_time * 1e3, 2),
                "speedup": round(speedup, 2),
            }
        },
    )
    assert speedup >= SESSION_BAR, (
        f"end-to-end speedup {speedup:.2f}x below the {SESSION_BAR}x bar"
    )


@pytest.mark.benchmark(group="transport")
def test_bench_transmit_roundtrip(benchmark):
    cipher = SymmetricCipher(KEY)
    message = _message()
    wire, _ = benchmark(lambda: cipher.transmit_roundtrip(message, make_prng(1)))
    assert len(wire) == len(message) + SymmetricCipher.OVERHEAD


@pytest.mark.benchmark(group="transport")
def test_bench_int_run_decode(benchmark):
    import random

    rng = random.Random(5)
    values = [rng.randrange(0, 2**64) for _ in range(65536)]
    wire = serialize(values)
    result = benchmark(lambda: deserialize(wire))
    assert result == values
