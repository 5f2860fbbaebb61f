"""Per-process party driver for multi-process socket sessions.

:class:`PartyRunner` turns one OS process into one party of a session --
a data holder or the third party -- and hands the session itself to
:class:`~repro.core.session.ClusteringSession`, the same driver a
single-process run uses: over this process's
:class:`~repro.network.tcp.SocketTransport` the session performs only
the local party's actions (its slice of the construction step graph,
:meth:`repro.core.scheduler.ConstructionScheduler.run` with ``owner``).
The runner adds what only a party process needs: decoding and checking
the session spec before any thread starts, transport tuning, the
checkpoint and era loop, and the report.  The socket gate test pins
every per-lane sealed frame byte-identical to the in-process simulator
run of the same session spec.

Determinism rests on three properties:

* **Key schedule.** :class:`SessionLinkSecurity` derives the DH entropy
  and per-link channel ciphers from
  :func:`repro.core.session.session_entropy`, the key schedule the
  in-process session uses, so the socket handshake agrees on the very
  secrets the simulator derives out-of-band.
* **In-order per-party slices.** Registration order of the step graph
  is the sequential policy's global order; each party executing its own
  steps in that order, with blocking receives, produces and consumes
  every lane's frames in the simulator's order.
* **Nonce lockstep.** Each link endpoint advances its nonce-stream copy
  once per sealed frame (:class:`~repro.network.handshake.LinkCipher`),
  so sealed wire bytes match the simulator's shared-stream channel.

Crash recovery: after the group-key round every party checkpoints
(group key, holder-entropy draw position, per-link nonce positions).
When a peer is killed and supervisor-restarted with a bumped
incarnation, survivors observe :class:`~repro.exceptions.SessionResetError`,
rebuild the session, restore their in-memory checkpoint, re-enter the
transport's new era and re-run construction from the post-setup state --
the final era's transcript is byte-identical to an uninterrupted run's
construction phase, and the published results are bit-identical.
"""

from __future__ import annotations

import hashlib
import math
import os
import signal
from typing import Any, Mapping

from repro.core import labels
from repro.core.config import ProtocolSuiteConfig, SessionConfig
from repro.core.session import ClusteringSession, check_partitions, session_entropy
from repro.crypto.keys import PairwiseSecret
from repro.crypto.prng import ReseedablePRNG
from repro.data.matrix import AttributeSpec, DataMatrix, Schema
from repro.exceptions import ConfigurationError, SchemaError, SessionResetError
from repro.network.handshake import LinkCipher
from repro.network.retry import RetryPolicy
from repro.network.serialization import deserialize, serialize
from repro.network.tcp import SocketTransport
from repro.types import AttributeType, LinkageMethod

#: Version tag of the session spec / checkpoint blob layouts.
SPEC_FORMAT = 1
CHECKPOINT_FORMAT = 1


class SessionLinkSecurity:
    """Session key schedule for one party process.

    Implements the :class:`~repro.network.handshake.LinkSecurity`
    protocol from the session master seed with
    :func:`repro.core.session.session_entropy`, the derivation the
    in-process session uses: DH entropy per party, channel keys under
    :func:`repro.core.labels.channel_key`, one nonce stream per link.
    """

    def __init__(self, master_seed: int, local: str, secure_channels: bool = True) -> None:
        self._master_seed = master_seed
        self._local = local
        self._secure = secure_channels

    def dh_entropy(self) -> ReseedablePRNG:
        return session_entropy(self._master_seed, "dh", self._local)

    def link_cipher(self, local: str, peer: str, shared: bytes) -> LinkCipher:
        a, b = sorted((local, peer))
        if not self._secure:
            return LinkCipher((a, b))
        secret = PairwiseSecret(pair=(a, b), secret=shared)
        return LinkCipher(
            (a, b),
            key=secret.key(labels.channel_key(a, b)),
            entropy=session_entropy(self._master_seed, "nonce", a, b),
        )


# -- session spec ------------------------------------------------------------


def spec_fingerprint(spec_bytes: bytes) -> bytes:
    """Digest identifying one session spec; all processes must agree."""
    return hashlib.sha256(b"repro.session-spec|" + spec_bytes).digest()


def encode_spec(
    config: SessionConfig,
    schema: Schema,
    partitions: Mapping[str, list],
    addresses: Mapping[str, str],
    tp_name: str = "TP",
    transport: Mapping[str, Any] | None = None,
) -> bytes:
    """Serialize a multi-process session spec to its on-disk form."""
    attrs = []
    for spec in schema:
        if spec.taxonomy is not None:
            raise ConfigurationError(
                f"attribute {spec.name!r} uses a taxonomy; taxonomy metrics "
                f"are not supported over socket transports"
            )
        attrs.append(
            {
                "name": spec.name,
                "type": spec.attr_type.value,
                "precision": spec.precision,
                "alphabet": spec.alphabet.characters if spec.alphabet else None,
            }
        )
    linkage = config.linkage
    suite = config.suite
    if suite.construction_schedule != "sequential":
        raise ConfigurationError(
            "socket sessions support the sequential construction schedule "
            f"only, got {suite.construction_schedule!r}"
        )
    return serialize(
        {
            "format": SPEC_FORMAT,
            "master_seed": config.master_seed,
            "num_clusters": config.num_clusters,
            "linkage": linkage.value if isinstance(linkage, LinkageMethod) else linkage,
            "weights": list(config.weights) if config.weights is not None else None,
            "suite": {
                "prng_kind": suite.prng_kind,
                "mask_bits": suite.mask_bits,
                "batch_numeric": suite.batch_numeric,
                "secure_channels": suite.secure_channels,
                "categorical_digest_size": suite.categorical_digest_size,
                "fresh_string_masks": suite.fresh_string_masks,
                "tolerate_faults": suite.tolerate_faults,
                "store_backend": suite.store_backend,
                "store_block_entries": suite.store_block_entries,
                "store_cache_bytes": suite.store_cache_bytes,
                "store_dir": suite.store_dir,
            },
            "tp_name": tp_name,
            "schema": attrs,
            "partitions": {
                site: [list(row) for row in rows] for site, rows in partitions.items()
            },
            "addresses": dict(addresses),
            "transport": dict(transport) if transport is not None else {},
        }
    )


#: Fields of a session spec blob and of each of its schema entries, with
#: the type each must have.
_SPEC_FIELDS: dict[str, Any] = {
    "master_seed": int, "num_clusters": int, "linkage": str,
    "weights": (list, type(None)), "suite": dict, "tp_name": str, "schema": list,
    "partitions": dict, "addresses": dict, "transport": dict,
}
_ATTRIBUTE_FIELDS: dict[str, Any] = {
    "name": str, "type": str, "precision": int, "alphabet": (str, type(None)),
}


def _check_fields(value: Any, expected: Mapping[str, Any], what: str) -> None:
    """Raise :class:`ConfigurationError` unless ``value`` is a dict that
    holds every field of ``expected``, each of its declared type."""
    if not isinstance(value, dict):
        raise ConfigurationError(f"{what} is not a mapping")
    for name, kind in expected.items():
        if name not in value or not isinstance(value[name], kind):
            raise ConfigurationError(f"{what} field {name!r} is missing or mistyped")


def _check_weights(weights: list | None, width: int) -> None:
    """Raise :class:`ConfigurationError` for a weight vector that
    :func:`repro.distance.merge.merge_weighted` would reject after the
    session is up: not ``width`` real numbers, any negative or
    non-finite value, or all zero."""
    if weights is None:
        return
    if len(weights) != width or not all(
        isinstance(w, (int, float)) and not isinstance(w, bool) for w in weights
    ):
        raise ConfigurationError(f"spec weights must be a list of {width} real numbers")
    try:
        usable = all(math.isfinite(w) and w >= 0 for w in weights) and any(weights)
    except OverflowError:  # an int beyond the float range merges as inf
        usable = False
    if not usable:
        raise ConfigurationError(
            "spec weights must be finite, non-negative and not all zero"
        )


def decode_spec(spec_bytes: bytes) -> dict[str, Any]:
    """Parse and validate a session spec blob.

    A blob of another format or shape raises :class:`ConfigurationError`;
    bytes that do not decode at all raise the codec's ``ChannelError``.
    """
    spec = deserialize(spec_bytes)
    if not isinstance(spec, dict) or spec.get("format") != SPEC_FORMAT:
        raise ConfigurationError("unsupported session spec blob")
    _check_fields(spec, _SPEC_FIELDS, "session spec")
    for attr in spec["schema"]:
        _check_fields(attr, _ATTRIBUTE_FIELDS, "session spec attribute")
    width = len(spec["schema"])
    _check_weights(spec["weights"], width)
    for site, rows in spec["partitions"].items():
        if not isinstance(rows, list) or not all(
            isinstance(row, list) and len(row) == width for row in rows
        ):
            raise ConfigurationError(
                f"spec partition of {site!r} is not a list of {width}-value rows"
            )
    if not all(isinstance(address, str) for address in spec["addresses"].values()):
        raise ConfigurationError("spec addresses must be strings")
    if spec["tp_name"] in spec["partitions"]:
        raise ConfigurationError("third party name collides with a data holder")
    parties = sorted(spec["partitions"]) + [spec["tp_name"]]
    for party in parties:
        if party not in spec["addresses"]:
            raise ConfigurationError(f"spec assigns no address to party {party!r}")
    return spec


def _schema_from_spec(spec: Mapping[str, Any]) -> Schema:
    specs = []
    try:
        for attr in spec["schema"]:
            attr_type = AttributeType(attr["type"])
            kwargs: dict[str, Any] = {"precision": attr["precision"]}
            if attr_type is AttributeType.ALPHANUMERIC and attr["alphabet"] is not None:
                from repro.data.alphabet import Alphabet

                kwargs["alphabet"] = Alphabet(attr["alphabet"])
            specs.append(AttributeSpec(attr["name"], attr_type, **kwargs))
        return Schema(specs)
    except (ValueError, SchemaError) as exc:
        # An unknown attribute type, or a field value out of range.
        raise ConfigurationError(f"invalid schema in the session spec: {exc}") from None


def _partitions_from_spec(spec: Mapping[str, Any]) -> dict[str, DataMatrix]:
    schema = _schema_from_spec(spec)
    try:
        return {
            site: DataMatrix(schema, [tuple(row) for row in rows])
            for site, rows in spec["partitions"].items()
        }
    except SchemaError as exc:
        # A cell of the wrong type for its attribute.
        raise ConfigurationError(f"invalid partition in the session spec: {exc}") from None


def _config_from_spec(spec: Mapping[str, Any]) -> SessionConfig:
    try:
        suite = ProtocolSuiteConfig(**spec["suite"])
    except TypeError as exc:
        # An unknown suite key, or a value of the wrong type.
        raise ConfigurationError(f"invalid suite in the session spec: {exc}") from None
    return SessionConfig(
        num_clusters=spec["num_clusters"],
        linkage=spec["linkage"],
        weights=spec["weights"],
        master_seed=spec["master_seed"],
        suite=suite,
    )


# -- the runner --------------------------------------------------------------


class PartyRunner:
    """Drives one party process through a full socket session.

    Parameters
    ----------
    spec_bytes:
        The serialized session spec (shared verbatim by every process;
        its digest is the handshake fingerprint).
    party:
        Which party this process runs (a site name or the TP name).
    incarnation:
        Supervisor-issued launch counter; a restart announces a higher
        one, which is what resets the surviving peers' era.
    restore_blob:
        A prior checkpoint blob to resume from (restart path).
    checkpoint_path:
        Where to persist the post-setup checkpoint for a later restart.
    exit_after_step:
        Test hook: SIGKILL this process right after the named own
        construction step completes and every peer acknowledged the
        frames sent so far (first era only -- the supervisor strips the
        flag on restart).
    """

    def __init__(
        self,
        spec_bytes: bytes,
        party: str,
        *,
        incarnation: int = 1,
        restore_blob: bytes | None = None,
        checkpoint_path: str | None = None,
        exit_after_step: str | None = None,
    ) -> None:
        self._spec = decode_spec(spec_bytes)
        self._fingerprint = spec_fingerprint(spec_bytes)
        self._party = party
        self._restore_blob = restore_blob
        self._checkpoint_path = checkpoint_path
        self._exit_after = exit_after_step

        self._config = _config_from_spec(self._spec)
        if self._config.suite.construction_schedule != "sequential":
            raise ConfigurationError(
                "socket sessions support the sequential construction "
                "schedule only (each party runs its slice in registration order)"
            )
        self._tp_name: str = self._spec["tp_name"]
        self._partitions = _partitions_from_spec(self._spec)
        # The session's own checks, before the transport starts a thread.
        self._schema = check_partitions(self._partitions, self._tp_name)
        if party != self._tp_name and party not in self._partitions:
            raise ConfigurationError(f"party {party!r} is not named by the spec")

        tuning = dict(self._spec["transport"])
        self._connect_timeout = float(tuning.pop("connect_timeout", 30.0))
        reconnect = None
        if "reconnect_attempts" in tuning:
            reconnect = RetryPolicy(
                max_attempts=int(tuning.pop("reconnect_attempts")),
                backoff_base=float(tuning.pop("reconnect_backoff_base", 0.05)),
                backoff_cap=float(tuning.pop("reconnect_backoff_cap", 0.5)),
            )
        receive_deadline = float(tuning.pop("receive_deadline", 60.0))
        heartbeat_interval = float(tuning.pop("heartbeat_interval", 0.2))
        dead_after = float(tuning.pop("dead_after", 15.0))
        if tuning:
            # Reject before the transport spins up its event loop, so a
            # typoed spec cannot leak a live endpoint.
            raise ConfigurationError(
                f"unknown transport tuning keys {sorted(tuning)}"
            )
        self.transport = SocketTransport(
            party,
            self._spec["addresses"],
            SessionLinkSecurity(
                self._config.master_seed,
                party,
                secure_channels=self._config.suite.secure_channels,
            ),
            self._fingerprint,
            incarnation=incarnation,
            reconnect=reconnect,
            receive_deadline=receive_deadline,
            heartbeat_interval=heartbeat_interval,
            dead_after=dead_after,
        )

    def _session(self) -> ClusteringSession:
        """A fresh session over this process's endpoint.

        Built once per era: the parties carry per-era protocol state (TP
        matrices, holder entropy position), so a reset rebuilds them
        from scratch and the checkpoint re-primes them.
        """
        secrets = {}
        for peer, shared in self.transport.shared_secrets().items():
            secret = PairwiseSecret(pair=(self._party, peer), secret=shared)
            secrets[secret.pair] = secret
        session = ClusteringSession(
            self._config,
            self._partitions,
            tp_name=self._tp_name,
            shared_secrets=secrets,
            transport=self.transport,
        )
        session.after_step = self._maybe_exit_after
        return session

    # -- checkpointing -----------------------------------------------------

    def _setup_cipher_positions(self) -> dict[str, int]:
        """Per-pair nonce positions at the post-setup boundary.

        Deliberately *not* read from the live ciphers: the transport
        loop opens inbound frames on arrival, so a peer that has raced
        ahead into construction advances the local cipher before this
        party takes its checkpoint -- a rollback to such a position
        seals the final era at shifted nonces and breaks transcript
        equality.  The boundary position is instead a pure function of
        the spec: :data:`~repro.network.handshake.LinkCipher.NONCE_WORDS`
        per group-key frame on the leader's holder pairs, zero on every
        other link.
        """
        if not self._config.suite.secure_channels:
            return {}
        sites = sorted(self._partitions)
        parties = sites + [self._tp_name]
        positions: dict[str, int] = {}
        for i, a in enumerate(parties):
            for b in parties[i + 1 :]:
                x, y = sorted((a, b))
                positions[f"{x}|{y}"] = 0
        if any(spec.attr_type is AttributeType.CATEGORICAL for spec in self._schema):
            leader = sites[0]
            for site in sites[1:]:
                x, y = sorted((leader, site))
                positions[f"{x}|{y}"] = LinkCipher.NONCE_WORDS
        return positions

    def _take_checkpoint(self, session: ClusteringSession) -> dict[str, Any]:
        """Record this party's post-setup state; returns it as decoded."""
        state = session.setup_state()
        blob = serialize(
            {
                "format": CHECKPOINT_FORMAT,
                "party": self._party,
                "fingerprint": self._fingerprint,
                "group_key": state["group_keys"].get(self._party),
                "holder_entropy": state["holder_entropy"].get(self._party),
                "cipher_positions": self._setup_cipher_positions(),
            }
        )
        if self._checkpoint_path is not None:
            tmp = self._checkpoint_path + ".tmp"
            with open(tmp, "wb") as handle:
                handle.write(blob)
            os.replace(tmp, self._checkpoint_path)
        return deserialize(blob)

    def _load_checkpoint(self, blob: bytes) -> dict[str, Any]:
        state = deserialize(blob)
        if not isinstance(state, dict) or state.get("format") != CHECKPOINT_FORMAT:
            raise ConfigurationError("unsupported party checkpoint blob")
        if state.get("party") != self._party:
            raise ConfigurationError(
                f"checkpoint belongs to party {state.get('party')!r}, "
                f"not {self._party!r}"
            )
        if state.get("fingerprint") != self._fingerprint:
            raise ConfigurationError(
                "checkpoint was taken under a different session spec"
            )
        return state

    def _restore(
        self,
        session: ClusteringSession,
        checkpoint: Mapping[str, Any],
        nonce_positions: Mapping[str, int],
    ) -> None:
        """Re-prime a fresh session from this party's checkpoint."""

        def own(value: Any) -> dict[str, Any]:
            return {} if value is None else {self._party: value}

        session.restore_setup(
            {
                "group_keys": own(checkpoint["group_key"]),
                "channel_entropy": nonce_positions,
                "holder_entropy": own(checkpoint["holder_entropy"]),
            }
        )

    def _maybe_exit_after(self, step_name: str) -> None:
        if self._exit_after is not None and step_name == self._exit_after:
            # The transport guarantees acknowledged frames only: a frame
            # the peer has not read yet may be lost with the connection.
            # So wait for the acks, then die exactly here, without
            # unwinding (SIGKILL cannot be caught), like a power loss.
            self.transport.wait_acknowledged()
            os.kill(os.getpid(), signal.SIGKILL)

    # -- top-level driver --------------------------------------------------

    def run(self) -> dict[str, Any]:
        """Execute the whole session for this party; returns its report.

        The report carries everything the supervisor and the gate tests
        need: the final era, the published/received result payload, the
        sender-side transcript (per-era), and the degradation record.
        """
        self.transport.connect_all(timeout=self._connect_timeout)
        session = self._session()
        if self._restore_blob is not None:
            checkpoint = self._load_checkpoint(self._restore_blob)
            self._restore(session, checkpoint, checkpoint["cipher_positions"])
        else:
            session.distribute_group_key()
            checkpoint = self._take_checkpoint(session)
        while True:
            try:
                # A frame a remote step never sends surfaces as a fault
                # on the receive, which a tolerant suite degrades on.
                result = session.run()
                break
            except SessionResetError:
                session = self._session()
                self._restore(session, checkpoint, {})
                self.transport.begin_era(checkpoint["cipher_positions"])
        report = session.degraded_report
        assert report is not None
        return {
            "party": self._party,
            "era": self.transport.era,
            "result": None if result is None else dict(result.to_payload()),
            "transcript": [list(entry) for entry in self.transport.transcript()],
            "failed_attributes": list(report.failed_attributes),
            "completed_attributes": list(report.completed_attributes),
            "unreachable": sorted(set(session.unreachable_sites)),
            "liveness": [list(entry) for entry in self.transport.liveness_log()],
        }

    def close(self) -> None:
        self.transport.close()
