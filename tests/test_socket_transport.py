"""Socket transport unit tests: frames, link ciphers, liveness, resume.

Exercises the pieces of :mod:`repro.network.tcp` and
:mod:`repro.network.handshake` in isolation -- address parsing, the
control-frame codec, per-link sealing lockstep, retry-policy validation,
lane abandonment accounting -- and then drives real two-endpoint unix
meshes through the liveness state machine: transient disconnects with
replay, corruption recovery, outbox bounds, permanent death, and the
era-reset protocol a supervisor restart triggers.
"""

from __future__ import annotations

import os
import socket
import tempfile
import threading
import time

import pytest

import repro.network.handshake as hs
from repro.crypto.sym import SymmetricCipher
from repro.core.session import session_entropy
from repro.exceptions import (
    ChannelError,
    ConfigurationError,
    IntegrityError,
    LaneTimeoutError,
    PartyCrashError,
    SessionResetError,
)
from repro.network.faults import FaultPlan, FaultRule
from repro.network.retry import RetryPolicy
from repro.network.serialization import encode_frame, serialize
from repro.network.simulator import Network
from repro.network.tcp import DEAD, UP, SocketTransport, parse_address
from repro.parties.runner import SessionLinkSecurity

FINGERPRINT = b"\x07" * 32


# -- address parsing ---------------------------------------------------------


class TestParseAddress:
    def test_unix(self):
        assert parse_address("unix:/tmp/a.sock") == ("unix", "/tmp/a.sock", 0)

    def test_tcp(self):
        assert parse_address("tcp:127.0.0.1:9000") == ("tcp", "127.0.0.1", 9000)

    @pytest.mark.parametrize(
        "bad", ["unix:", "tcp:host", "tcp::123", "tcp:host:port", "http://x"]
    )
    def test_malformed(self, bad):
        with pytest.raises(ChannelError):
            parse_address(bad)


# -- control frames ----------------------------------------------------------


class TestControlFrames:
    def test_hello_round_trip(self):
        frame = hs.hello_frame("alpha", 2, FINGERPRINT, 4, 17)
        hello = hs.parse_hello(frame)
        assert hello == hs.Hello("alpha", 2, FINGERPRINT, 4, 17)
        # Secrets-adjacent fields stay out of repr.
        assert "fingerprint" not in repr(hello) or FINGERPRINT.hex() not in repr(hello)

    def test_data_round_trip_and_body_last(self):
        frame = hs.data_frame(3, 5, "blob", "t", b"sealed")
        assert list(frame) == ["t", "seq", "era", "kind", "tag", "body"]
        parsed = hs.parse_data(frame)
        assert (parsed.seq, parsed.era, parsed.kind, parsed.tag) == (3, 5, "blob", "t")
        assert parsed.body == b"sealed"

    def test_ack_heartbeat_dh(self):
        assert hs.parse_ack(hs.ack_frame(9, 2)) == hs.Ack(9, 2)
        assert hs.parse_heartbeat(hs.heartbeat_frame(3)) == hs.Heartbeat(3)
        assert hs.parse_dh(hs.dh_frame("beta", 12345)).public == 12345

    def test_frame_type_requires_discriminator(self):
        with pytest.raises(ChannelError, match="discriminator"):
            hs.frame_type({"seq": 1})
        with pytest.raises(ChannelError, match="discriminator"):
            hs.frame_type([1, 2])

    def test_bool_is_not_a_counter(self):
        frame = hs.ack_frame(1, 1)
        frame["seq"] = True
        with pytest.raises(ChannelError, match="seq"):
            hs.parse_ack(frame)

    def test_missing_field(self):
        frame = hs.hello_frame("a", 1, FINGERPRINT, 2, 0)
        del frame["delivered"]
        with pytest.raises(ChannelError, match="delivered"):
            hs.parse_hello(frame)

    def test_fingerprint_check(self):
        hello = hs.parse_hello(hs.hello_frame("a", 1, FINGERPRINT, 2, 0))
        hs.check_fingerprint(FINGERPRINT, hello)
        with pytest.raises(ChannelError, match="different session"):
            hs.check_fingerprint(b"\x00" * 32, hello)


# -- per-link sealing --------------------------------------------------------


def _cipher_pair():
    """Two endpoints of one secure link with independent entropy copies."""
    key = b"k" * 32
    return (
        hs.LinkCipher(("a", "b"), key=key, entropy=session_entropy(5, "nonce", "a", "b")),
        hs.LinkCipher(("a", "b"), key=key, entropy=session_entropy(5, "nonce", "a", "b")),
    )


class TestLinkCipher:
    def test_pair_is_normalised(self):
        assert hs.LinkCipher(("b", "a")).pair == ("a", "b")
        with pytest.raises(ChannelError):
            hs.LinkCipher(("a", "a"))

    def test_insecure_passthrough(self):
        cipher = hs.LinkCipher(("a", "b"))
        assert not cipher.secure
        assert cipher.nonce_draws is None
        assert cipher.open(cipher.seal(b"plain")) == b"plain"

    def test_secure_requires_entropy(self):
        with pytest.raises(ChannelError, match="nonce entropy"):
            hs.LinkCipher(("a", "b"), key=b"k" * 32)

    def test_seal_open_stay_in_lockstep(self):
        sender, receiver = _cipher_pair()
        for i in range(3):
            sealed = sender.seal(b"msg%d" % i)
            assert receiver.open(sealed) == b"msg%d" % i
            # Both streams advanced NONCE_WORDS per frame, in sync.
            assert sender.nonce_draws == receiver.nonce_draws == (
                (i + 1) * hs.LinkCipher.NONCE_WORDS
            )

    def test_integrity_failure_does_not_advance(self):
        sender, receiver = _cipher_pair()
        sealed = sender.seal(b"payload")
        tampered = sealed[:-1] + bytes([sealed[-1] ^ 0xFF])
        with pytest.raises(IntegrityError):
            receiver.open(tampered)
        assert receiver.nonce_draws == 0
        # The replayed original must still open at the same position.
        assert receiver.open(sealed) == b"payload"

    def test_advance_refuses_rewind(self):
        sender, _ = _cipher_pair()
        sender.seal(b"x")
        with pytest.raises(ChannelError, match="rewind"):
            sender.advance(0)
        sender.advance(sender.nonce_draws)  # no-op is fine
        sender.advance(sender.nonce_draws + 2)

    def test_insecure_advance_rejected(self):
        with pytest.raises(ChannelError, match="no nonce stream"):
            hs.LinkCipher(("a", "b")).advance(2)

    def test_seal_payload_serializes(self):
        sender, receiver = _cipher_pair()
        from repro.network.serialization import deserialize

        assert deserialize(receiver.open(sender.seal_payload({"v": 1}))) == {"v": 1}


# -- retry policy validation (construction-time) -----------------------------


class TestRetryPolicyValidation:
    def test_defaults_are_valid(self):
        RetryPolicy()

    def test_max_attempts_positive(self):
        with pytest.raises(ConfigurationError, match="max_attempts must be >= 1"):
            RetryPolicy(max_attempts=0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_backoff_base_must_be_finite(self, bad):
        with pytest.raises(ConfigurationError, match="must be finite"):
            RetryPolicy(backoff_base=bad)

    @pytest.mark.parametrize("bad", [float("nan"), float("-inf")])
    def test_backoff_cap_must_be_finite(self, bad):
        with pytest.raises(ConfigurationError, match="must be finite"):
            RetryPolicy(backoff_cap=bad)

    def test_backoff_must_be_non_negative(self):
        with pytest.raises(ConfigurationError, match=">= 0"):
            RetryPolicy(backoff_base=-0.1)

    def test_deadline_must_be_finite(self):
        with pytest.raises(
            ConfigurationError, match="deadline must be finite"
        ):
            RetryPolicy(deadline=float("inf"))

    @pytest.mark.parametrize("bad", [0.0, -3.0])
    def test_deadline_must_be_positive(self, bad):
        with pytest.raises(ConfigurationError, match="deadline must be > 0"):
            RetryPolicy(deadline=bad)

    def test_backoff_delay_caps(self):
        policy = RetryPolicy(backoff_base=0.01, backoff_cap=0.03)
        assert policy.backoff_delay(1) == 0.01
        assert policy.backoff_delay(2) == 0.02
        assert policy.backoff_delay(10) == 0.03
        with pytest.raises(ConfigurationError, match="attempt must be >= 1"):
            policy.backoff_delay(0)


# -- lane abandonment purges pending state -----------------------------------


def _dead_lane_net(**kw):
    plan = FaultPlan(seed=1, drop=1.0, fault_retransmits=True)
    net = Network(fault_plan=plan, retry=RetryPolicy(max_attempts=3, **kw))
    for party in ("A", "B"):
        net.add_party(party)
    net.connect("A", "B", secure=False)
    return net


class TestLaneAbandonment:
    def test_timeout_purges_the_whole_lane(self):
        net = _dead_lane_net()
        net.send("A", "B", "blob", 1, tag="t")
        net.send("A", "B", "blob", 2, tag="t")
        for _ in range(2):
            with pytest.raises(LaneTimeoutError):
                net.receive("B", kind="blob", sender="A", tag="t")
        # Each lost frame's record is taken by the receive it fails, so
        # the network reports clean instead of leaking dead entries.
        assert net.pending("B") == 0
        net.assert_drained()
        assert net.reliability_stats()["frames_abandoned"] == 2

    def test_other_lanes_survive_the_purge(self):
        # Only the "blob" lane is lossy; "other" frames pass untouched.
        plan = FaultPlan(
            seed=1,
            rules=[FaultRule(kind="blob", drop=1.0)],
            fault_retransmits=True,
        )
        net = Network(fault_plan=plan, retry=RetryPolicy(max_attempts=3))
        for party in ("A", "B"):
            net.add_party(party)
        net.connect("A", "B", secure=False)
        net.send("A", "B", "blob", 1, tag="dead")
        net.send("A", "B", "other", 2, tag="alive")
        with pytest.raises(LaneTimeoutError):
            net.receive("B", kind="blob", sender="A", tag="dead")
        assert net.reliability_stats()["frames_abandoned"] == 1
        assert net.receive("B", kind="other", sender="A", tag="alive").payload == 2
        net.assert_drained()


# -- two-endpoint socket meshes ----------------------------------------------


def _mesh(names=("alpha", "beta"), seed=11, **kw):
    tmp = tempfile.mkdtemp()
    addresses = {
        name: f"unix:{tmp}/{name}.sock" for name in names
    }
    kw.setdefault("heartbeat_interval", 0.05)
    transports = {
        name: SocketTransport(
            name,
            addresses,
            SessionLinkSecurity(seed, name),
            FINGERPRINT,
            **kw,
        )
        for name in names
    }
    threads = [
        threading.Thread(target=t.connect_all, args=(20.0,))
        for t in transports.values()
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=25.0)
    return transports


def _close_all(transports):
    for transport in transports.values():
        transport.close()


class TestSocketTransport:
    def test_round_trip_and_transcript(self):
        mesh = _mesh()
        try:
            alpha, beta = mesh["alpha"], mesh["beta"]
            assert alpha.liveness("beta") == UP
            alpha.send("alpha", "beta", "blob", {"v": 41}, tag="t")
            message = beta.receive("beta", kind="blob", sender="alpha", tag="t")
            assert message.payload == {"v": 41}
            assert message.sealed
            (entry,) = alpha.transcript()
            era, recipient, kind, tag, digest = entry
            assert (era, recipient, kind, tag) == (2, "beta", "blob", "t")
            assert len(digest) == 64
            assert beta.pending("beta") == 0
        finally:
            _close_all(mesh)

    def test_shared_secrets_match_across_endpoints(self):
        mesh = _mesh()
        try:
            assert (
                mesh["alpha"].shared_secrets()["beta"]
                == mesh["beta"].shared_secrets()["alpha"]
            )
            assert mesh["alpha"].nonce_positions() == mesh["beta"].nonce_positions()
        finally:
            _close_all(mesh)

    def test_wrong_endpoint_roles_rejected(self):
        mesh = _mesh()
        try:
            with pytest.raises(ChannelError, match="sends as"):
                mesh["alpha"].send("beta", "alpha", "blob", 1)
            with pytest.raises(ChannelError, match="receives as"):
                mesh["alpha"].receive("beta")
            with pytest.raises(ChannelError, match="requires kind and sender"):
                mesh["alpha"].receive("alpha", tag="t")
        finally:
            _close_all(mesh)

    def test_receive_deadline_is_structured(self):
        mesh = _mesh(receive_deadline=0.2)
        try:
            with pytest.raises(LaneTimeoutError) as exc:
                mesh["beta"].receive("beta", kind="blob", sender="alpha", tag="t")
            assert exc.value.recipient == "beta"
            assert "deadline" in str(exc.value)
        finally:
            _close_all(mesh)

    def test_oversized_pre_handshake_frame_is_refused_before_its_body(self):
        """Before its DH offer a connection carries only hellos and DH
        offers, so a first frame declaring 1 MiB closes it at once -- the
        transport never waits for (or allocates) the body -- and the mesh
        still forms and carries a session."""
        tmp = tempfile.mkdtemp()
        addresses = {name: f"unix:{tmp}/{name}.sock" for name in ("alpha", "beta")}
        mesh = {
            name: SocketTransport(
                name, addresses, SessionLinkSecurity(11, name), FINGERPRINT,
                heartbeat_interval=0.05,
            )
            for name in addresses
        }
        listener = threading.Thread(target=mesh["beta"].connect_all, args=(20.0,))
        listener.start()
        try:
            path = f"{tmp}/beta.sock"
            deadline = time.monotonic() + 10.0
            while not os.path.exists(path) and time.monotonic() < deadline:
                time.sleep(0.01)
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as raw:
                raw.settimeout(5.0)
                raw.connect(path)
                raw.sendall((1 << 20).to_bytes(4, "big"))
                assert raw.recv(1) == b""
            mesh["alpha"].connect_all(20.0)
            listener.join(timeout=25.0)
            mesh["alpha"].send("alpha", "beta", "blob", {"v": 1}, tag="t")
            message = mesh["beta"].receive("beta", kind="blob", sender="alpha", tag="t")
            assert message.payload == {"v": 1}
        finally:
            listener.join(timeout=25.0)
            _close_all(mesh)

    def test_refused_dh_offer_does_not_end_the_dial_loop(self):
        """A peer answering with a valid hello and a degenerate DH public
        (1) breaks that connection, not the redial loop: once a real beta
        listens on the same path, the mesh forms and carries a message."""
        tmp = tempfile.mkdtemp()
        addresses = {name: f"unix:{tmp}/{name}.sock" for name in ("alpha", "beta")}
        path = f"{tmp}/beta.sock"

        def build(name):
            return SocketTransport(
                name, addresses, SessionLinkSecurity(11, name), FINGERPRINT,
                heartbeat_interval=0.05,
            )

        fake = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        fake.bind(path)
        fake.listen(1)
        fake.settimeout(10.0)
        alpha = build("alpha")
        dialer = threading.Thread(target=alpha.connect_all, args=(20.0,))
        dialer.start()
        beta = None
        try:
            conn, _ = fake.accept()
            with conn:
                conn.settimeout(5.0)
                conn.sendall(
                    encode_frame(hs.hello_frame("beta", 1, FINGERPRINT, 2, 0))
                    + encode_frame(hs.dh_frame("beta", 1))
                )
                # Alpha refuses the offer and closes the connection.
                while conn.recv(4096):
                    pass
            fake.close()
            beta = build("beta")
            beta.connect_all(10.0)
            dialer.join(timeout=25.0)
            alpha.send("alpha", "beta", "blob", {"v": 3}, tag="t")
            message = beta.receive("beta", kind="blob", sender="alpha", tag="t")
            assert message.payload == {"v": 3}
        finally:
            fake.close()
            dialer.join(timeout=25.0)
            alpha.close()
            if beta is not None:
                beta.close()

    def test_peer_refusing_every_handshake_spends_the_reconnect_budget(self):
        """A peer that accepts every connection and answers with another
        session's fingerprint is redialed with backoff, one attempt of the
        reconnect budget per connection, and then declared dead."""
        tmp = tempfile.mkdtemp()
        addresses = {name: f"unix:{tmp}/{name}.sock" for name in ("alpha", "beta")}
        fake = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        fake.bind(f"{tmp}/beta.sock")
        fake.listen(8)
        fake.settimeout(0.1)
        accepted = []
        stop = threading.Event()

        def refuse_every_handshake():
            while not stop.is_set():
                try:
                    conn, _ = fake.accept()
                except socket.timeout:
                    continue
                except OSError:
                    return
                accepted.append(time.monotonic())
                with conn:
                    conn.settimeout(5.0)
                    try:
                        conn.sendall(encode_frame(
                            hs.hello_frame("beta", 1, b"\x08" * 32, 2, 0)
                        ))
                        while conn.recv(4096):  # until alpha hangs up
                            pass
                    except OSError:
                        pass

        server = threading.Thread(target=refuse_every_handshake)
        server.start()
        alpha = SocketTransport(
            "alpha", addresses, SessionLinkSecurity(11, "alpha"), FINGERPRINT,
            reconnect=RetryPolicy(max_attempts=4, backoff_base=0.05, backoff_cap=0.2),
            heartbeat_interval=0.05,
        )
        try:
            with pytest.raises(ChannelError, match="declared dead"):
                alpha.connect_all(5.0)
            assert alpha.liveness("beta") == DEAD
            time.sleep(0.3)  # a dial loop still running would connect again
            assert 1 <= len(accepted) <= 4
        finally:
            stop.set()
            server.join(timeout=5.0)
            fake.close()
            alpha.close()

    def test_transient_disconnect_replays_unacked_frames(self):
        mesh = _mesh()
        try:
            alpha, beta = mesh["alpha"], mesh["beta"]
            alpha.send("alpha", "beta", "blob", 1, tag="t")
            assert beta.receive("beta", kind="blob", sender="alpha", tag="t").payload == 1
            alpha.debug_drop_connection("beta")
            # Sends while the link is down wait in the outbox; the
            # reconnect handshake replays exactly the unacked tail.
            alpha.send("alpha", "beta", "blob", 2, tag="t")
            alpha.send("alpha", "beta", "blob", 3, tag="t")
            assert beta.receive("beta", kind="blob", sender="alpha", tag="t").payload == 2
            assert beta.receive("beta", kind="blob", sender="alpha", tag="t").payload == 3
            # Same era throughout: a transient drop is not a reset.
            assert alpha.era == beta.era == 2
        finally:
            _close_all(mesh)

    def test_corrupted_frame_recovers_by_replay(self):
        mesh = _mesh()
        try:
            alpha, beta = mesh["alpha"], mesh["beta"]
            alpha.debug_corrupt_next("beta")
            alpha.send("alpha", "beta", "blob", {"v": 5}, tag="t")
            # The tampered frame fails authentication at beta, the
            # connection tears down, and the reconnect replay delivers
            # the original bytes -- which must open at the same nonce.
            message = beta.receive("beta", kind="blob", sender="alpha", tag="t")
            assert message.payload == {"v": 5}
        finally:
            _close_all(mesh)

    def test_wait_acknowledged_returns_once_frames_are_delivered(self):
        mesh = _mesh()
        try:
            alpha, beta = mesh["alpha"], mesh["beta"]
            for i in range(3):
                alpha.send("alpha", "beta", "blob", i, tag="t")
            alpha.wait_acknowledged()
            assert not alpha._peers["beta"].outbox
            # The peer acks a frame only after queueing it, read or not.
            assert beta.pending("beta") == 3
        finally:
            _close_all(mesh)

    def test_wait_acknowledged_is_bounded_by_the_receive_deadline(self):
        mesh = _mesh(receive_deadline=0.3, dead_after=60.0)
        try:
            alpha = mesh["alpha"]
            mesh["beta"].close()
            alpha.send("alpha", "beta", "blob", 1, tag="t")
            alpha.wait_acknowledged()
            assert alpha._peers["beta"].outbox, "nobody acked; the wait gave up"
        finally:
            mesh["alpha"].close()

    def test_outbox_overflow_is_bounded(self):
        mesh = _mesh(outbox_limit=3, dead_after=60.0)
        try:
            alpha, beta = mesh["alpha"], mesh["beta"]
            beta.close()
            sent = 0
            with pytest.raises(ChannelError, match="outbox .* overflowed"):
                # The peer is gone and acks stop, so the bounded replay
                # buffer must refuse the fourth unacked frame.
                for i in range(10):
                    alpha.send("alpha", "beta", "blob", i, tag="t")
                    sent += 1
            assert sent == 3
        finally:
            mesh["alpha"].close()

    def test_parked_future_era_frames_are_bounded(self):
        # Parked frames are never acked, so an honest peer has at most
        # outbox_limit of them in flight; one more is a desynchronised
        # (or hostile) stream, not something to buffer without end.
        transport = SocketTransport(
            "alpha",
            {"alpha": "unix:/nonexistent/alpha.sock", "beta": "unix:/nonexistent/beta.sock"},
            SessionLinkSecurity(11, "alpha"),
            FINGERPRINT,
            outbox_limit=2,
        )
        try:
            peer = transport._peers["beta"]
            future = transport.era + 1

            def park(seq):
                frame = hs.DataFrame(seq, future, "blob", "t", b"")
                transport._call(transport._process_data(peer, frame, None))

            park(0)
            park(1)
            assert len(peer.parked) == 2
            with pytest.raises(ChannelError, match="future-era data frames parked"):
                park(2)
            assert len(peer.parked) == 2
        finally:
            transport.close()

    def test_frames_of_a_pending_era_wait_for_begin_era(self):
        # A restarted peer's hello voids the era at once; a frame of the
        # new era that arrives before begin_era must be parked, not
        # delivered into the inbox that begin_era clears (it would be
        # acked and then lost, and the receiver would wait for it).
        transport = SocketTransport(
            "alpha",
            {"alpha": "unix:/nonexistent/alpha.sock", "beta": "unix:/nonexistent/beta.sock"},
            SessionLinkSecurity(11, "alpha"),
            FINGERPRINT,
        )
        try:
            peer = transport._peers["beta"]
            peer.cipher = hs.LinkCipher(("alpha", "beta"))  # insecure link
            transport._process_hello(
                peer, hs.parse_hello(hs.hello_frame("beta", 2, FINGERPRINT, 3, 0))
            )
            frame = hs.DataFrame(0, transport.era, "blob", "t", serialize("new era"))
            transport._call(transport._process_data(peer, frame, None))
            assert transport.pending("alpha") == 0
            assert len(peer.parked) == 1
            transport.begin_era()
            message = transport.receive("alpha", kind="blob", sender="beta", tag="t")
            assert message.payload == "new era"
        finally:
            transport.close()

    def test_permanent_death_is_sticky(self):
        mesh = _mesh(
            dead_after=0.3,
            reconnect=RetryPolicy(max_attempts=2, backoff_base=0.01, backoff_cap=0.02),
        )
        try:
            alpha, beta = mesh["alpha"], mesh["beta"]
            beta.close()
            deadline = 100
            while alpha.liveness("beta") != DEAD and deadline:
                threading.Event().wait(0.05)
                deadline -= 1
            assert alpha.liveness("beta") == DEAD
            with pytest.raises(PartyCrashError) as exc:
                alpha.send("alpha", "beta", "blob", 1)
            assert exc.value.party == "beta"
            with pytest.raises(PartyCrashError):
                alpha.receive("alpha", kind="blob", sender="beta")
            transitions = [t for t in alpha.liveness_log() if t[0] == "beta"]
            assert transitions[-1][2] == DEAD
        finally:
            mesh["alpha"].close()

    def test_restart_triggers_era_reset(self):
        tmp = tempfile.mkdtemp()
        addresses = {n: f"unix:{tmp}/{n}.sock" for n in ("alpha", "beta")}

        def build(name, incarnation=1):
            return SocketTransport(
                name,
                addresses,
                SessionLinkSecurity(11, name),
                FINGERPRINT,
                incarnation=incarnation,
                heartbeat_interval=0.05,
            )

        alpha, beta = build("alpha"), build("beta")
        threads = [
            threading.Thread(target=t.connect_all, args=(20.0,))
            for t in (alpha, beta)
        ]
        [t.start() for t in threads]
        [t.join(timeout=25.0) for t in threads]
        try:
            alpha.send("alpha", "beta", "blob", 1, tag="t")
            assert beta.receive("beta", kind="blob", sender="alpha", tag="t").payload == 1
            positions = alpha.nonce_positions()
            # Supervisor "restarts" beta with a bumped incarnation.
            beta.close()
            beta = build("beta", incarnation=2)
            restart = threading.Thread(target=beta.connect_all, args=(20.0,))
            restart.start()
            # Alpha's next protocol action surfaces the reset...
            with pytest.raises(SessionResetError) as exc:
                for _ in range(200):
                    alpha.send("alpha", "beta", "blob", 2, tag="t")
                    threading.Event().wait(0.05)
            assert exc.value.trigger_party == "beta"
            assert exc.value.era == 3
            # ...and begin_era() enters the new one with rebuilt ciphers.
            alpha.begin_era(positions)
            restart.join(timeout=25.0)
            assert alpha.era == beta.era == 3
            beta.advance_nonce_positions(positions)
            alpha.send("alpha", "beta", "blob", 9, tag="t")
            assert beta.receive("beta", kind="blob", sender="alpha", tag="t").payload == 9
            with pytest.raises(ChannelError, match="no session reset"):
                alpha.begin_era()
        finally:
            alpha.close()
            beta.close()

    def test_constructor_validation(self):
        security = SessionLinkSecurity(1, "a")
        with pytest.raises(ChannelError, match="missing from the address map"):
            SocketTransport("a", {"b": "unix:/tmp/b.sock"}, security, FINGERPRINT)
        with pytest.raises(ChannelError, match="at least two"):
            SocketTransport("a", {"a": "unix:/tmp/a.sock"}, security, FINGERPRINT)
        with pytest.raises(ChannelError, match="incarnation"):
            SocketTransport(
                "a",
                {"a": "unix:/tmp/a.sock", "b": "unix:/tmp/b.sock"},
                security,
                FINGERPRINT,
                incarnation=0,
            )
