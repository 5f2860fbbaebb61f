"""Real multi-process transport over asyncio TCP / unix-domain sockets.

:class:`SocketTransport` is the :class:`~repro.network.transport.Transport`
implementation a *party process* uses: each of the session's parties runs
in its own OS process, listens on its spec-assigned address, and speaks
the control protocol of :mod:`repro.network.handshake` to every peer over
a full mesh of stream connections (for each pair, the lexicographically
lower name dials the higher).

Determinism contract: everything protocol-visible -- payload bytes,
sealed wire bytes, per-lane delivery order -- is byte-identical to the
in-process :class:`~repro.network.simulator.Network` running the same
session spec.  The socket layer adds reliability *around* those bytes,
never inside them:

* per-connection sequence numbers plus a bounded replay outbox give
  exactly-once, in-order delivery across transient disconnects (the
  reconnect handshake tells the peer how much was delivered, and the
  sender replays exactly the unacked tail);
* a tampered frame fails authenticated open, which tears the connection
  down; the replayed original then opens at the unchanged nonce
  position (:class:`~repro.network.handshake.LinkCipher` only advances
  on success);
* heartbeats drive a per-peer liveness state machine
  (``connecting -> up -> suspect -> down -> reconnecting -> up | dead``);
  a peer that exhausts the reconnect budget or stays down past
  ``dead_after`` is declared ``dead``, at which point sends and blocked
  receives toward it raise :class:`~repro.exceptions.PartyCrashError`
  so the degraded scheduler can take over;
* a ``hello`` announcing a higher peer incarnation (the supervisor
  restarted that party from a checkpoint) voids the current era:
  blocked and subsequent operations raise
  :class:`~repro.exceptions.SessionResetError` until the party driver
  restores its own checkpoint and calls :meth:`SocketTransport.begin_era`.

Threading model: one asyncio event loop runs on a daemon thread and owns
every socket, all sealing/opening (so per-link cipher event order is the
loop's serialized event order, mirroring the simulator's per-channel
lock), and all peer state.  The party's protocol thread calls
:meth:`send` (bridged via ``run_coroutine_threadsafe``) and blocks in
:meth:`receive` on a condition variable the loop notifies.
"""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
import os
import threading
from collections import deque
from typing import Any, Mapping

from repro.crypto.keys import DiffieHellman
from repro.exceptions import (
    ChannelError,
    LaneTimeoutError,
    PartyCrashError,
    SessionResetError,
)
from repro.network import handshake as hs
from repro.network.handshake import LinkCipher, LinkSecurity
from repro.network.lanes import LaneInbox
from repro.network.message import Message
from repro.network.retry import RetryPolicy
from repro.network.serialization import (
    FRAME_HEADER_LEN,
    MAX_FRAME_BODY,
    decode_frame,
    deserialize,
    encode_frame,
    frame_body_length,
    serialize,
)
from repro.network.transport import Transport

#: Liveness states of one remote peer, as seen locally.
CONNECTING = "connecting"
UP = "up"
SUSPECT = "suspect"
DOWN = "down"
RECONNECTING = "reconnecting"
DEAD = "dead"

#: Missed-heartbeat multiple after which an ``up`` peer turns ``suspect``.
_SUSPECT_AFTER = 2.5

#: Largest frame body read from a connection before its DH offer was
#: processed.  Only hellos (under 200 bytes) and DH offers (315 bytes
#: for the 2048-bit group) travel then; 4 KiB leaves room for long party
#: names and an 8192-bit group, while an unauthenticated peer can no
#: longer make the reader allocate up to ``MAX_FRAME_BODY``.
HANDSHAKE_FRAME_BODY_CAP = 4096

#: One sender-side transcript record: (era, recipient, kind, tag,
#: sha256 hex digest of the frame body as it crossed the wire).
TranscriptEntry = tuple[int, str, str, str, str]


def parse_address(address: str) -> tuple[str, str, int]:
    """Split a party address spec into ``(scheme, host_or_path, port)``.

    Accepted forms: ``"unix:/path/to.sock"`` and ``"tcp:host:port"``.
    """
    if address.startswith("unix:"):
        path = address[len("unix:") :]
        if not path:
            raise ChannelError(f"empty unix socket path in address {address!r}")
        return ("unix", path, 0)
    if address.startswith("tcp:"):
        host, sep, port_text = address[len("tcp:") :].rpartition(":")
        if not sep or not host or not port_text.isdigit():
            raise ChannelError(
                f"malformed tcp address {address!r}; expected 'tcp:host:port'"
            )
        return ("tcp", host, int(port_text))
    raise ChannelError(
        f"unsupported address {address!r}; expected 'unix:...' or 'tcp:host:port'"
    )


class _Peer:
    """Local view of one remote party (loop-thread state).

    All mutable fields are written on the event-loop thread; the fields
    the protocol thread reads (``status``, ``delivered``, counters) are
    additionally only written while holding the transport's condition.
    """

    def __init__(self, name: str, address: str, dial: bool) -> None:
        self.name = name
        self.address = address
        #: Whether the local party dials this peer (lower dials higher).
        self.dial = dial
        self.status = CONNECTING
        self.writer: asyncio.StreamWriter | None = None
        self.cipher: LinkCipher | None = None
        self.shared: bytes | None = None
        self.handshaken = False
        #: Whether a handshake with this peer ever completed.  Sticky, so
        #: :meth:`SocketTransport.connect_all` cannot miss a peer that
        #: handshook, ran and died before the caller looked.
        self.ever_handshaken = False
        #: Next outbound data-frame sequence number (current era).
        self.next_seq = 0
        #: Count of inbound data frames delivered (current era).
        self.delivered = 0
        #: Count of outbound frames the peer acknowledged.
        self.acked = 0
        #: Replay buffer of unacked outbound frames: (seq, frame bytes).
        self.outbox: deque[tuple[int, bytes]] = deque()
        #: Data frames of an era the local party has not begun, held
        #: until :meth:`begin_era` (at most ``outbox_limit``: parked
        #: frames are never acked).
        self.parked: list[hs.DataFrame] = []
        #: Peer's delivered-count from its last hello (in its hello era).
        self.remote_delivered = 0
        self.remote_delivered_era = 0
        self.last_inbound = 0.0
        self.down_since: float | None = None


class SocketTransport(Transport):
    """Per-process socket endpoint implementing the transport contract.

    Parameters
    ----------
    local:
        Name of the party this process runs.
    addresses:
        ``{party_name: address}`` for *every* session party (including
        the local one, whose address this endpoint listens on).
    security:
        The session's :class:`~repro.network.handshake.LinkSecurity`
        provider (DH entropy + link-cipher derivation).
    fingerprint:
        Digest of the shared session spec; handshakes reject peers
        launched from a different spec.
    incarnation:
        Supervisor-issued launch counter (1 on first launch; each
        restart increments it, which is what signals peers to reset).
    reconnect:
        Backoff/budget policy for dialing and re-dialing peers.
    receive_deadline:
        Wall-clock bound on one blocking :meth:`receive`; ``None``
        blocks until liveness declares the sender dead.
    """

    def __init__(
        self,
        local: str,
        addresses: Mapping[str, str],
        security: LinkSecurity,
        fingerprint: bytes,
        *,
        incarnation: int = 1,
        reconnect: RetryPolicy | None = None,
        receive_deadline: float | None = 60.0,
        heartbeat_interval: float = 0.2,
        dead_after: float = 15.0,
        outbox_limit: int = 4096,
    ) -> None:
        if local not in addresses:
            raise ChannelError(f"local party {local!r} missing from the address map")
        if len(addresses) < 2:
            raise ChannelError("a socket session needs at least two parties")
        if incarnation < 1:
            raise ChannelError(f"incarnation must be >= 1, got {incarnation}")
        if outbox_limit < 1:
            raise ChannelError(f"outbox_limit must be >= 1, got {outbox_limit}")
        for address in addresses.values():
            parse_address(address)
        self._local = local
        self._addresses = dict(addresses)
        self._security = security
        self._fingerprint = fingerprint
        # The default redial budget (~30 s) and ``dead_after`` must both
        # comfortably exceed a party-process restart -- a fork plus the
        # checkpoint restore and handshake, or an interpreter start for a
        # stand-alone party; seconds on a loaded machine.
        # Death declared while the supervisor is mid-respawn is sticky
        # and unrecoverable, so these margins are deliberately generous;
        # crash-detection tests tighten them explicitly.
        self._reconnect = reconnect if reconnect is not None else RetryPolicy(
            max_attempts=60, backoff_base=0.05, backoff_cap=0.5
        )
        self._receive_policy = RetryPolicy(max_attempts=1, deadline=receive_deadline)
        self._hb_interval = heartbeat_interval
        self._dead_after = dead_after
        self._outbox_limit = outbox_limit
        #: DH half built from session-deterministic entropy, so the
        #: public value (and every derived pairwise secret) is identical
        #: across restarts and to the single-process session's.
        self._dh = DiffieHellman(security.dh_entropy())
        self._peers: dict[str, _Peer] = {
            name: _Peer(name, addr, dial=name > local)
            for name, addr in self._addresses.items()
            if name != local
        }
        self._cond = threading.Condition()
        # guarded-by: self._cond
        self._inbox: LaneInbox[Message] = LaneInbox(local)
        # guarded-by: self._cond
        self._incarnations: dict[str, int] = {name: 1 for name in self._addresses}
        self._incarnations[local] = incarnation
        # guarded-by: self._cond
        self._era = sum(self._incarnations.values())
        # guarded-by: self._cond
        self._pending_reset: tuple[str, int, int] | None = None
        # guarded-by: self._cond
        self._transcript: list[TranscriptEntry] = []
        # guarded-by: self._cond
        self._liveness_log: list[tuple[str, str, str]] = []
        # guarded-by: self._cond
        self._corrupt_next: set[str] = set()
        # A monotonic one-way latch, deliberately unguarded: written once
        # by close() and read racily by the loop's long-lived coroutines,
        # which only ever see it flip False -> True.
        self._closing = False
        self._server: asyncio.AbstractServer | None = None
        self._tasks: list[asyncio.Task[None]] = []
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever,
            name=f"transport-{local}",
            daemon=True,
        )
        self._thread.start()

    # -- lifecycle ---------------------------------------------------------

    def connect_all(self, timeout: float = 30.0) -> None:
        """Listen, dial every higher-named peer, and block until the
        handshake (hello + DH + cipher) completed with *every* peer.

        A peer that completed it and then died does not fail the call:
        sends and receives toward it raise ``PartyCrashError``, which the
        degraded scheduler handles.
        """
        self._call(self._start_async())
        gate = RetryPolicy(max_attempts=1, deadline=timeout)
        started = gate.start_clock()
        with self._cond:
            while True:
                missing = sorted(
                    name for name, p in self._peers.items() if not p.ever_handshaken
                )
                if not missing:
                    return
                dead = [name for name in missing if self._peers[name].status == DEAD]
                if dead:
                    raise ChannelError(
                        f"cannot establish the session mesh: {dead} declared dead"
                    )
                if gate.expired(started):
                    raise ChannelError(
                        f"handshake with {missing} did not complete "
                        f"within {timeout} s"
                    )
                self._cond.wait(0.05)

    def close(self) -> None:
        """Tear down connections, the listener and the event loop."""
        if self._closing:
            return
        self._closing = True
        with contextlib.suppress(Exception):
            self._call(self._shutdown_async(), timeout=5.0)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=5.0)
        if not self._loop.is_running():
            self._loop.close()

    def _call(self, coro: Any, timeout: float | None = None) -> Any:
        future = asyncio.run_coroutine_threadsafe(coro, self._loop)
        return future.result(timeout)

    async def _start_async(self) -> None:
        scheme, host, port = parse_address(self._addresses[self._local])
        if scheme == "unix":
            with contextlib.suppress(FileNotFoundError):
                os.unlink(host)
            self._server = await asyncio.start_unix_server(
                self._serve_connection, path=host
            )
        else:
            self._server = await asyncio.start_server(
                self._serve_connection, host=host, port=port
            )
        for name in sorted(self._peers):
            peer = self._peers[name]
            if peer.dial:
                self._tasks.append(self._loop.create_task(self._dial_loop(peer)))
        self._tasks.append(self._loop.create_task(self._heartbeat_loop()))

    async def _shutdown_async(self) -> None:
        for task in self._tasks:
            task.cancel()
        for name in sorted(self._peers):
            writer = self._peers[name].writer
            if writer is not None:
                writer.close()
        if self._server is not None:
            self._server.close()

    # -- dialing / accepting ----------------------------------------------

    async def _open_stream(
        self, address: str
    ) -> tuple[asyncio.StreamReader, asyncio.StreamWriter]:
        scheme, host, port = parse_address(address)
        if scheme == "unix":
            return await asyncio.open_unix_connection(host)
        return await asyncio.open_connection(host, port)

    async def _dial_loop(self, peer: _Peer) -> None:
        # A failed attempt is a refused dial or a connection that ended
        # before its handshake completed: both back off and spend the
        # reconnect budget, so a peer that accepts and then refuses every
        # handshake is declared dead instead of redialed at once forever.
        # Only a completed handshake resets the count.
        attempt = 0
        while not self._closing:
            if await self._dial_once(peer):
                attempt = 0
            else:
                attempt += 1
                if attempt >= self._reconnect.max_attempts:
                    self._mark_dead(peer, "reconnect budget exhausted")
                    return
            with self._cond:
                if peer.status == DEAD or self._closing:
                    return
                if peer.status not in (CONNECTING, RECONNECTING):
                    self._set_status_locked(peer, RECONNECTING)
            if attempt:
                await asyncio.sleep(self._reconnect.backoff_delay(attempt))

    async def _dial_once(self, peer: _Peer) -> bool:
        """Dial ``peer`` and run the connection until it breaks; whether
        its handshake completed."""
        try:
            reader, writer = await self._open_stream(peer.address)
        except OSError:
            return False
        try:
            await self._send_control(writer, self._hello_payload(peer))
            await self._send_control(
                writer, hs.dh_frame(self._local, self._dh.public_value)
            )
            await self._attach(peer, reader, writer, inbound_hello=None)
        except Exception:
            # Whatever breaks one connection -- a refused handshake (a
            # degenerate DH offer raises a CryptoError), a torn stream,
            # a malformed frame -- must not end the redial loop.
            # Cancellation is not an Exception and still ends it.
            pass
        finally:
            handshaken = peer.writer is writer and peer.handshaken
            self._detach(peer, writer)
        return handshaken

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        peer: _Peer | None = None
        try:
            frame = await self._read_frame(reader, HANDSHAKE_FRAME_BODY_CAP)
            if hs.frame_type(frame) != hs.HELLO:
                raise ChannelError("connection must open with a hello frame")
            hello = hs.parse_hello(frame)
            candidate = self._peers.get(hello.party)
            if candidate is None or candidate.dial:
                # Unknown party, or one *we* dial (lower name dials
                # higher; an inbound connection from it is bogus).
                raise ChannelError(
                    f"unexpected inbound connection claiming to be "
                    f"{hello.party!r}"
                )
            peer = candidate
            self._process_hello(peer, hello)
            await self._send_control(writer, self._hello_payload(peer))
            await self._send_control(
                writer, hs.dh_frame(self._local, self._dh.public_value)
            )
            await self._attach(peer, reader, writer, inbound_hello=hello)
        except Exception:
            # Any failure ends this connection only; see _dial_loop.
            pass
        finally:
            if peer is not None:
                self._detach(peer, writer)
                with self._cond:
                    if peer.status not in (DEAD,) and not self._closing:
                        self._set_status_locked(peer, DOWN)
            writer.close()

    def _hello_payload(self, peer: _Peer) -> dict[str, Any]:
        """Our hello to ``peer``.  It reaches the peer before our DH
        frame, so its delivered-count is what the peer's replay skips."""
        with self._cond:
            era = self._era
            incarnation = self._incarnations[self._local]
            delivered = peer.delivered
        return hs.hello_frame(self._local, incarnation, self._fingerprint, era, delivered)

    async def _attach(
        self,
        peer: _Peer,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        inbound_hello: hs.Hello | None,
    ) -> None:
        """Run one established connection until it breaks."""
        if peer.writer is not None and peer.writer is not writer:
            # A stale previous connection; drop it in favour of this one.
            peer.writer.close()
        peer.writer = writer
        body_cap = HANDSHAKE_FRAME_BODY_CAP
        while True:
            frame = await self._read_frame(reader, body_cap)
            kind = hs.frame_type(frame)
            now = self._loop.time()
            with self._cond:
                peer.last_inbound = now
                if peer.status == SUSPECT:
                    self._set_status_locked(peer, UP)
            if kind == hs.HELLO:
                self._process_hello(peer, hs.parse_hello(frame))
            elif kind == hs.DH:
                await self._process_dh(peer, hs.parse_dh(frame), writer)
                body_cap = MAX_FRAME_BODY
            elif kind == hs.DATA:
                await self._process_data(peer, hs.parse_data(frame), writer)
            elif kind == hs.ACK:
                self._process_ack(peer, hs.parse_ack(frame))
            elif kind == hs.HEARTBEAT:
                hs.parse_heartbeat(frame)
            else:
                raise ChannelError(f"unknown frame type {kind!r} from {peer.name!r}")

    def _detach(self, peer: _Peer, writer: asyncio.StreamWriter) -> None:
        writer.close()
        if peer.writer is writer:
            peer.writer = None
            peer.handshaken = False
            peer.down_since = self._loop.time()
            with self._cond:
                if peer.status != DEAD and not self._closing:
                    self._set_status_locked(peer, DOWN)

    async def _read_frame(self, reader: asyncio.StreamReader, body_cap: int) -> Any:
        """One frame, refused before its body is read if it declares
        more than ``body_cap`` bytes."""
        header = await reader.readexactly(FRAME_HEADER_LEN)
        body = await reader.readexactly(frame_body_length(header, body_cap))
        return decode_frame(header + body)

    async def _send_control(
        self, writer: asyncio.StreamWriter, frame: Mapping[str, Any]
    ) -> None:
        writer.write(encode_frame(dict(frame)))
        await writer.drain()

    # -- handshake processing ---------------------------------------------

    def _process_hello(self, peer: _Peer, hello: hs.Hello) -> None:
        if hello.party != peer.name:
            raise ChannelError(
                f"connection to {peer.name!r} answered as {hello.party!r}"
            )
        hs.check_fingerprint(self._fingerprint, hello)
        with self._cond:
            known = self._incarnations[peer.name]
            if hello.incarnation < known:
                raise ChannelError(
                    f"stale hello from {peer.name!r}: incarnation "
                    f"{hello.incarnation} < known {known}"
                )
            if hello.incarnation > known:
                # The peer was restarted from a checkpoint: void this
                # era.  The protocol thread surfaces the reset; the
                # driver restores and calls begin_era().
                self._incarnations[peer.name] = hello.incarnation
                self._era = sum(self._incarnations.values())
                self._pending_reset = (peer.name, hello.incarnation, self._era)
                peer.outbox.clear()
                peer.next_seq = 0
                peer.delivered = 0
                peer.acked = 0
                self._cond.notify_all()
            peer.remote_delivered = hello.delivered
            peer.remote_delivered_era = hello.era

    async def _process_dh(
        self, peer: _Peer, offer: hs.DhOffer, writer: asyncio.StreamWriter
    ) -> None:
        if offer.party != peer.name:
            raise ChannelError(
                f"DH frame on the {peer.name!r} connection names {offer.party!r}"
            )
        peer.shared = self._dh.shared_secret(offer.public)
        if peer.cipher is None:
            # First connection (or post-era rebuild happens in
            # begin_era): derive the link cipher.  On a transient
            # reconnect the existing cipher -- and crucially its nonce
            # position -- must survive, so never rebuild here.
            peer.cipher = self._security.link_cipher(
                self._local, peer.name, peer.shared
            )
        await self._replay(peer, writer)
        with self._cond:
            peer.handshaken = True
            peer.ever_handshaken = True
            if peer.status != DEAD:
                self._set_status_locked(peer, UP)
            self._cond.notify_all()

    async def _replay(self, peer: _Peer, writer: asyncio.StreamWriter) -> None:
        """Re-send the unacked outbound tail the peer reports missing."""
        with self._cond:
            if self._pending_reset is not None:
                return
            if peer.remote_delivered_era != self._era:
                return
            frames = [
                frame for seq, frame in peer.outbox if seq >= peer.remote_delivered
            ]
        for frame in frames:
            writer.write(frame)
        if frames:
            await writer.drain()

    # -- data path ---------------------------------------------------------

    async def _process_data(
        self, peer: _Peer, frame: hs.DataFrame, writer: asyncio.StreamWriter | None
    ) -> None:
        with self._cond:
            era = self._era
            expected = peer.delivered
            # A reset voids the era at once, but the new one starts only
            # at begin_era, which clears the inbox: deliver before that
            # and the frame (already acked) would be lost.
            begun = self._pending_reset is None
        if frame.era < era:
            return  # stale era: the sender will reset and re-send
        if frame.era > era or not begun:
            if len(peer.parked) >= self._outbox_limit:
                # An honest peer cannot have more unacked frames in
                # flight than its outbox holds.
                raise ChannelError(
                    f"connection from {peer.name!r} desynchronised: more "
                    f"than {self._outbox_limit} future-era data frames parked"
                )
            peer.parked.append(frame)
            return
        if frame.seq < expected:
            return  # replayed duplicate; already delivered, never re-open
        if frame.seq > expected:
            raise ChannelError(
                f"connection from {peer.name!r} desynchronised: data frame "
                f"seq {frame.seq} arrived while {expected} was expected"
            )
        self._deliver(peer, frame)
        if writer is not None:
            with self._cond:
                delivered = peer.delivered
            await self._send_control(writer, hs.ack_frame(delivered, era))

    def _deliver(self, peer: _Peer, frame: hs.DataFrame) -> None:
        cipher = peer.cipher
        if cipher is None:
            raise ChannelError(
                f"data frame from {peer.name!r} before the link handshake finished"
            )
        # IntegrityError propagates: the connection loop treats the link
        # as broken, and the replayed frame re-opens at the *same* nonce
        # position (open-on-failure never advances).
        plain = cipher.open(frame.body)
        message = Message(
            sender=peer.name,
            recipient=self._local,
            kind=frame.kind,
            tag=frame.tag,
            payload=deserialize(plain),
            wire_bytes=len(frame.body),
            sealed=cipher.secure,
        )
        with self._cond:
            peer.delivered = frame.seq + 1
            self._inbox.put((peer.name, frame.kind, frame.tag), message)
            self._cond.notify_all()

    def _process_ack(self, peer: _Peer, ack: hs.Ack) -> None:
        with self._cond:
            if ack.era != self._era:
                return
            peer.acked = max(peer.acked, ack.seq)
            while peer.outbox and peer.outbox[0][0] < peer.acked:
                peer.outbox.popleft()
            if not peer.outbox:
                self._cond.notify_all()

    # -- liveness ----------------------------------------------------------

    async def _heartbeat_loop(self) -> None:
        while not self._closing:
            await asyncio.sleep(self._hb_interval)
            now = self._loop.time()
            with self._cond:
                era = self._era
            for name in sorted(self._peers):
                peer = self._peers[name]
                if peer.handshaken and peer.writer is not None:
                    with contextlib.suppress(Exception):
                        peer.writer.write(encode_frame(hs.heartbeat_frame(era)))
                with self._cond:
                    if (
                        peer.status == UP
                        and now - peer.last_inbound > _SUSPECT_AFTER * self._hb_interval
                    ):
                        self._set_status_locked(peer, SUSPECT)
                if (
                    peer.status in (DOWN, RECONNECTING)
                    and peer.down_since is not None
                    and now - peer.down_since > self._dead_after
                ):
                    self._mark_dead(peer, f"down for more than {self._dead_after} s")

    def _set_status_locked(self, peer: _Peer, status: str) -> None:
        """Record one liveness transition (caller holds ``self._cond``)."""
        if peer.status == status:
            return
        self._liveness_log.append((peer.name, peer.status, status))
        peer.status = status
        if status in (UP, DEAD):
            self._cond.notify_all()

    def _mark_dead(self, peer: _Peer, reason: str) -> None:
        with self._cond:
            if peer.status == DEAD:
                return
            self._set_status_locked(peer, DEAD)
            peer.outbox.clear()
            self._cond.notify_all()

    def liveness(self, peer: str) -> str:
        """Current liveness state of one peer."""
        if peer not in self._peers:
            raise ChannelError(f"unknown party {peer!r}")
        with self._cond:
            return self._peers[peer].status

    def permanently_down(self, party: str) -> bool:
        return party in self._peers and self.liveness(party) == DEAD

    def liveness_log(self) -> list[tuple[str, str, str]]:
        """Every liveness transition so far: (peer, from, to)."""
        with self._cond:
            return list(self._liveness_log)

    # -- transport interface ----------------------------------------------

    @property
    def parties(self) -> frozenset[str]:
        return frozenset((self._local,))

    @property
    def era(self) -> int:
        with self._cond:
            return self._era

    def send(
        self,
        sender: str,
        recipient: str,
        kind: str,
        payload: Any,
        tag: str = "",
    ) -> None:
        if sender != self._local:
            raise ChannelError(
                f"this endpoint sends as {self._local!r}, not {sender!r}"
            )
        if recipient not in self._peers:
            raise ChannelError(f"unknown party {recipient!r}")
        plain = serialize(payload)
        self._call(self._send_async(recipient, kind, tag, plain))

    async def _send_async(
        self, recipient: str, kind: str, tag: str, plain: bytes
    ) -> None:
        peer = self._peers[recipient]
        with self._cond:
            self._raise_reset_locked()
            if peer.status == DEAD:
                raise PartyCrashError(
                    recipient, f"party {recipient!r} is dead; cannot send {kind!r}"
                )
            era = self._era
        cipher = peer.cipher
        if cipher is None:
            raise ChannelError(
                f"link to {recipient!r} not established; call connect_all first"
            )
        body = cipher.seal(plain)
        with self._cond:
            if len(peer.outbox) >= self._outbox_limit:
                raise ChannelError(
                    f"outbox for {recipient!r} overflowed "
                    f"({self._outbox_limit} frames buffered while the link is down)"
                )
            seq = peer.next_seq
            peer.next_seq = seq + 1
            frame = encode_frame(hs.data_frame(seq, era, kind, tag, body))
            peer.outbox.append((seq, frame))
            self._transcript.append(
                (era, recipient, kind, tag, hashlib.sha256(body).hexdigest())
            )
            corrupt = recipient in self._corrupt_next
            self._corrupt_next.discard(recipient)
        if peer.writer is not None and peer.handshaken:
            out = frame
            if corrupt:
                # Deliberate tamper hook for tests: flip the final byte
                # (inside the MAC tag region, thanks to the frame layout).
                out = frame[:-1] + bytes([frame[-1] ^ 0xFF])
            peer.writer.write(out)
            with contextlib.suppress(OSError, ConnectionError):
                await peer.writer.drain()
        # else: the link is down; the frame waits in the outbox and the
        # reconnect replay delivers it.

    def _raise_reset_locked(self) -> None:
        if self._pending_reset is not None:
            trigger, incarnation, era = self._pending_reset
            raise SessionResetError(trigger, incarnation, era)

    def receive(
        self,
        recipient: str,
        kind: str | None = None,
        sender: str | None = None,
        tag: str | None = None,
    ) -> Message:
        if recipient != self._local:
            raise ChannelError(
                f"this endpoint receives as {self._local!r}, not {recipient!r}"
            )
        if sender is not None and sender not in self._peers:
            raise ChannelError(f"unknown party {sender!r}")
        policy = self._receive_policy
        started = policy.start_clock()
        with self._cond:
            while True:
                self._raise_reset_locked()
                message = self._inbox.take(kind, sender, tag)
                if message is not None:
                    return message
                if sender is not None and self._peers[sender].status == DEAD:
                    raise PartyCrashError(
                        sender,
                        f"party {sender!r} is dead; expected {kind!r} "
                        f"will never arrive",
                    )
                if policy.expired(started):
                    raise LaneTimeoutError(
                        sender if sender is not None else "*",
                        recipient,
                        kind if kind is not None else "*",
                        tag if tag is not None else "",
                        attempts=1,
                        reason="no frame arrived within the receive deadline",
                    )
                self._cond.wait(0.05)

    def wait_acknowledged(self) -> None:
        """Block until every live peer acknowledged every frame sent to it.

        Delivery is guaranteed for acknowledged frames only: the outbox
        replays the unacked tail after a reconnect, but if this party
        dies first, a peer may lose what it had not read yet.  Bounded
        by the receive deadline; returns early, without raising, when
        the deadline passes or an era reset is pending.
        """
        policy = self._receive_policy
        started = policy.start_clock()
        with self._cond:
            while (
                any(p.outbox and p.status != DEAD for p in self._peers.values())
                and self._pending_reset is None
                and not policy.expired(started)
            ):
                self._cond.wait(0.05)

    def pending(self, recipient: str) -> int:
        if recipient != self._local:
            raise ChannelError(f"unknown party {recipient!r}")
        with self._cond:
            return len(self._inbox)

    def drain(self, recipient: str | None = None) -> int:
        if recipient is not None and recipient != self._local:
            raise ChannelError(f"unknown party {recipient!r}")
        with self._cond:
            return self._inbox.clear()

    # -- era reset / checkpoint integration --------------------------------

    def begin_era(self, nonce_positions: Mapping[str, int] | None = None) -> None:
        """Enter the pending era after the driver restored its checkpoint.

        Clears the void era's queues, replay state and sequence
        numbers, rebuilds every link cipher from the stored DH secret,
        fast-forwards each to its checkpointed nonce position
        (:meth:`advance_nonce_positions`), and finally processes any
        frames peers already sent in the new era.  Raises
        :class:`ChannelError` when no reset is pending.
        """
        positions = dict(nonce_positions) if nonce_positions is not None else {}
        self._call(self._begin_era_async(positions))

    async def _begin_era_async(self, positions: dict[str, int]) -> None:
        with self._cond:
            if self._pending_reset is None:
                raise ChannelError("no session reset is pending")
            self._pending_reset = None
            era = self._era
            self._inbox.clear()
            for name in sorted(self._peers):
                peer = self._peers[name]
                peer.next_seq = 0
                peer.delivered = 0
                peer.acked = 0
                peer.outbox.clear()
                if peer.shared is not None:
                    peer.cipher = self._security.link_cipher(
                        self._local, name, peer.shared
                    )
            self._cond.notify_all()
        self.advance_nonce_positions(positions)
        for name in sorted(self._peers):
            peer = self._peers[name]
            parked, peer.parked = peer.parked, []
            for frame in parked:
                if frame.era != era:
                    continue
                await self._process_data(peer, frame, peer.writer)

    def advance_nonce_positions(self, positions: Mapping[str, int]) -> None:
        """The restore path for a restarted party (whose ciphers are
        fresh) and the tail of :meth:`begin_era` for survivors.  Labels
        for links this endpoint is not part of are ignored, so a whole
        session checkpoint can be applied as-is.
        """
        for label in sorted(positions):
            a, _, b = label.partition("|")
            if self._local not in (a, b):
                continue
            other = b if a == self._local else a
            peer = self._peers.get(other)
            if peer is None or peer.cipher is None:
                continue
            if peer.cipher.secure:
                peer.cipher.advance(int(positions[label]))

    def shared_secrets(self) -> dict[str, bytes]:
        """DH shared secret per peer, available once handshakes complete.

        The party driver derives the session's pairwise key schedule
        (:class:`repro.crypto.keys.PairwiseSecret`) from these -- they
        are byte-identical to what :func:`repro.crypto.keys.agree_pairwise`
        returns in a single-process session, because every party's DH
        half is built from the same session-deterministic entropy.
        """
        out: dict[str, bytes] = {}
        for name in sorted(self._peers):
            shared = self._peers[name].shared
            if shared is None:
                raise ChannelError(
                    f"handshake with {name!r} has not completed; "
                    f"call connect_all first"
                )
            out[name] = shared
        return out

    def nonce_positions(self) -> dict[str, int]:
        positions: dict[str, int] = {}
        for name in sorted(self._peers):
            cipher = self._peers[name].cipher
            if cipher is None:
                continue
            draws = cipher.nonce_draws
            if draws is not None:
                a, b = sorted((self._local, name))
                positions[f"{a}|{b}"] = draws
        return positions

    # -- test / observability hooks ----------------------------------------

    def transcript(self, era: int | None = None) -> list[TranscriptEntry]:
        """Sender-side data-frame records, optionally filtered to one era."""
        with self._cond:
            entries = list(self._transcript)
        if era is None:
            return entries
        return [entry for entry in entries if entry[0] == era]

    def debug_corrupt_next(self, recipient: str) -> None:
        """Arm a one-shot tamper of the next data frame to ``recipient``."""
        if recipient not in self._peers:
            raise ChannelError(f"unknown party {recipient!r}")
        with self._cond:
            self._corrupt_next.add(recipient)

    def debug_drop_connection(self, recipient: str) -> None:
        """Force-close the connection to ``recipient`` (transient fault)."""
        if recipient not in self._peers:
            raise ChannelError(f"unknown party {recipient!r}")
        self._call(self._drop_async(recipient))

    async def _drop_async(self, recipient: str) -> None:
        writer = self._peers[recipient].writer
        if writer is not None:
            writer.close()
