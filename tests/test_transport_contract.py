"""One receive contract, checked on both transports.

Every case runs on the in-process simulator (:class:`Network`) and on a
mesh of real unix-socket :class:`SocketTransport` endpoints with a short
receive deadline, so a broken case fails fast instead of blocking.  The
contract (:mod:`repro.network.transport`): a lane is FIFO; a lane
receive takes that lane's head only; a tagless receive takes the oldest
message, or the oldest from ``sender``, and raises ``ProtocolError``
after taking it when its kind is not the asserted one.
"""

from __future__ import annotations

import shutil
import tempfile
import threading
import time

import pytest

from repro.exceptions import ChannelError, ProtocolError
from repro.network.simulator import Network
from repro.network.tcp import SocketTransport
from repro.network.transport import Transport
from repro.parties.runner import SessionLinkSecurity

FINGERPRINT = b"\x0c" * 32


class _SimulatorMesh:
    def __init__(self, parties: tuple[str, ...]) -> None:
        self.net = Network()
        for name in parties:
            self.net.add_party(name)
        for i, a in enumerate(parties):
            for b in parties[i + 1 :]:
                self.net.connect(a, b, secure=False)

    def endpoint(self, party: str) -> Transport:
        return self.net

    def send(self, sender: str, recipient: str, kind: str, payload, tag: str = "") -> None:
        self.net.send(sender, recipient, kind, payload, tag=tag)

    def close(self) -> None:
        pass


class _SocketMesh:
    def __init__(self, parties: tuple[str, ...]) -> None:
        self.tmp = tempfile.mkdtemp()
        addresses = {name: f"unix:{self.tmp}/{name}.sock" for name in parties}
        self.transports = {
            name: SocketTransport(
                name,
                addresses,
                SessionLinkSecurity(3, name),
                FINGERPRINT,
                receive_deadline=2.0,
                heartbeat_interval=0.05,
            )
            for name in parties
        }
        threads = [
            threading.Thread(target=t.connect_all, args=(20.0,))
            for t in self.transports.values()
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=25.0)
        assert not any(thread.is_alive() for thread in threads)

    def endpoint(self, party: str) -> Transport:
        return self.transports[party]

    def send(self, sender: str, recipient: str, kind: str, payload, tag: str = "") -> None:
        """Send, then wait until the frame is queued at the recipient, so
        arrival order across connections is the order of these calls."""
        inbox = self.transports[recipient]
        queued = inbox.pending(recipient)
        self.transports[sender].send(sender, recipient, kind, payload, tag=tag)
        deadline = time.monotonic() + 10.0
        while inbox.pending(recipient) == queued:
            assert time.monotonic() < deadline, "frame never arrived"
            time.sleep(0.005)

    def close(self) -> None:
        for transport in self.transports.values():
            transport.close()
        shutil.rmtree(self.tmp, ignore_errors=True)


@pytest.fixture(params=["simulator", "socket"])
def mesh(request):
    """Factory: ``mesh(*parties)`` builds a connected mesh on one transport."""
    built = []

    def build(*parties: str):
        cls = _SimulatorMesh if request.param == "simulator" else _SocketMesh
        built.append(cls(parties))
        return built[-1]

    yield build
    for one in built:
        one.close()


def test_fifo_within_a_lane(mesh):
    m = mesh("A", "TP")
    for value in (1, 2, 3):
        m.send("A", "TP", "k", value, tag="t")
    tp = m.endpoint("TP")
    assert [tp.receive("TP", kind="k", sender="A", tag="t").payload for _ in range(3)] == [1, 2, 3]


def test_lane_receive_skips_older_messages_in_other_lanes(mesh):
    m = mesh("A", "TP")
    m.send("A", "TP", "local_matrix", "first", tag="numeric/age")
    m.send("A", "TP", "comparison_matrix", "second", tag="numeric/age")
    tp = m.endpoint("TP")
    message = tp.receive("TP", kind="comparison_matrix", sender="A", tag="numeric/age")
    assert message.payload == "second"
    assert tp.receive("TP").payload == "first"


def test_tagless_receive_takes_the_named_senders_oldest(mesh):
    m = mesh("A", "B", "TP")
    m.send("B", "TP", "weights", "from-b")
    m.send("A", "TP", "weights", "from-a-1")
    m.send("A", "TP", "weights", "from-a-2")
    tp = m.endpoint("TP")
    assert tp.receive("TP", kind="weights", sender="A").payload == "from-a-1"
    assert tp.receive("TP", kind="weights", sender="B").payload == "from-b"
    assert tp.receive("TP").payload == "from-a-2"


def test_tagless_kind_mismatch_names_taken_message_and_queue(mesh):
    m = mesh("A", "TP")
    m.send("A", "TP", "local_matrix", 1, tag="numeric/age")
    m.send("A", "TP", "weights", 2)
    tp = m.endpoint("TP")
    with pytest.raises(ProtocolError) as excinfo:
        tp.receive("TP", kind="comparison_matrix")
    report = str(excinfo.value)
    assert "expected kind 'comparison_matrix'" in report
    assert "got 'local_matrix' from 'A'" in report
    assert "weights<-A" in report
    assert "local_matrix<-A" not in report
    # The mismatched message was taken; the next one is still there.
    assert tp.pending("TP") == 1
    assert tp.receive("TP", kind="weights", sender="A").payload == 2


def test_tag_without_kind_and_sender_is_rejected(mesh):
    m = mesh("A", "TP")
    m.send("A", "TP", "k", 1, tag="t")
    tp = m.endpoint("TP")
    with pytest.raises(ChannelError, match="requires kind and sender"):
        tp.receive("TP", tag="t")
    with pytest.raises(ChannelError, match="requires kind and sender"):
        tp.receive("TP", kind="k", tag="t")
    assert tp.pending("TP") == 1


def test_pending_and_drain_counts(mesh):
    m = mesh("A", "TP")
    tp = m.endpoint("TP")
    assert tp.pending("TP") == 0
    m.send("A", "TP", "k", 1, tag="t1")
    m.send("A", "TP", "k", 2, tag="t2")
    m.send("A", "TP", "other", 3)
    assert tp.pending("TP") == 3
    tp.receive("TP", kind="k", sender="A", tag="t2")
    assert tp.pending("TP") == 2
    with pytest.raises(ProtocolError, match="undelivered"):
        tp.assert_drained(["TP"])
    assert tp.drain("TP") == 2
    assert tp.pending("TP") == 0
    tp.assert_drained(["TP"])
