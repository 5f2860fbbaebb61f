"""Per-process party driver for multi-process socket sessions.

A single-process :class:`~repro.core.session.ClusteringSession` holds
every party in one interpreter and walks the Figure 11 construction as
one serial program.  :class:`PartyRunner` is the same choreography cut
along party lines: each OS process runs *one* party (a data holder or
the third party) against a :class:`~repro.network.tcp.SocketTransport`,
executes exactly its own slice of the construction step graph
(:meth:`repro.core.scheduler.ConstructionScheduler.run` with ``owner``),
and arrives at the same bytes -- the socket gate test pins every per-lane
sealed frame byte-identical to the in-process simulator run of the same
session spec.

Determinism rests on three properties:

* **Key schedule.** :class:`SessionLinkSecurity` derives the DH entropy
  and per-link channel ciphers from the session's master seed under the
  exact labels :class:`~repro.core.session.ClusteringSession` uses, so
  the socket handshake agrees on the very secrets the simulator derives
  out-of-band.
* **In-order per-party slices.** Registration order of the step graph
  is the sequential policy's global order; each party executing its own
  steps in that order, with blocking receives, produces and consumes
  every lane's frames in the simulator's order.
* **Nonce lockstep.** Each link endpoint advances its nonce-stream copy
  once per sealed frame (:class:`~repro.network.handshake.LinkCipher`),
  so sealed wire bytes match the simulator's shared-stream channel.

Crash recovery: after the group-key phase every party checkpoints
(group key, holder-entropy draw position, per-link nonce positions).
When a peer is killed and supervisor-restarted with a bumped
incarnation, survivors observe :class:`~repro.exceptions.SessionResetError`,
restore their in-memory checkpoint, re-enter the transport's new era and
re-run construction from the post-setup state -- the final era's
transcript is byte-identical to an uninterrupted run's construction
phase, and the published results are bit-identical.
"""

from __future__ import annotations

import hashlib
import math
import os
import signal
from typing import Any, Mapping

from repro.core import labels
from repro.core.config import ProtocolSuiteConfig, SessionConfig
from repro.core.scheduler import ConstructionScheduler, DegradedReport
from repro.core.session import session_entropy
from repro.crypto.keys import PairwiseSecret
from repro.crypto.prng import ReseedablePRNG
from repro.data.matrix import AttributeSpec, DataMatrix, Schema
from repro.data.partition import GlobalIndex
from repro.exceptions import (
    ConfigurationError,
    LaneTimeoutError,
    PartyCrashError,
    ProtocolError,
    SchemaError,
    SessionResetError,
)
from repro.network.handshake import LinkCipher
from repro.network.retry import RetryPolicy
from repro.network.serialization import deserialize, serialize
from repro.network.tcp import DEAD, SocketTransport
from repro.parties.holder import DataHolder
from repro.parties.third_party import ThirdParty
from repro.types import AttributeType, LinkageMethod

#: Version tag of the session spec / checkpoint blob layouts.
SPEC_FORMAT = 1
CHECKPOINT_FORMAT = 1

#: Failures a tolerant socket run degrades on (same set as the
#: in-process scheduler's).
_FAULT_ERRORS = (PartyCrashError, LaneTimeoutError)


class SessionLinkSecurity:
    """Session key schedule for one party process.

    Implements the :class:`~repro.network.handshake.LinkSecurity`
    protocol from the session master seed, reproducing exactly the
    derivations :meth:`repro.core.session.ClusteringSession._setup_parties`
    performs in-process: DH entropy under ``"dh|<name>"``, channel keys
    under :func:`repro.core.labels.channel_key`, nonce streams under
    ``"nonce|<a>|<b>"`` (sorted pair).
    """

    def __init__(self, master_seed: int, local: str, secure_channels: bool = True) -> None:
        self._master_seed = master_seed
        self._local = local
        self._secure = secure_channels

    def dh_entropy(self) -> ReseedablePRNG:
        return session_entropy(self._master_seed, f"dh|{self._local}")

    def link_cipher(self, local: str, peer: str, shared: bytes) -> LinkCipher:
        a, b = sorted((local, peer))
        if not self._secure:
            return LinkCipher((a, b))
        secret = PairwiseSecret(pair=(a, b), secret=shared)
        return LinkCipher(
            (a, b),
            key=secret.key(labels.channel_key(a, b)),
            entropy=session_entropy(self._master_seed, f"nonce|{a}|{b}"),
        )


class _RemoteHolder:
    """Placeholder for a holder living in another process.

    The step graph binds every step to a party object at build time;
    steps owned by remote parties are never executed locally, so any
    attribute access beyond ``name`` is a wiring bug and fails loudly.
    """

    def __init__(self, name: str) -> None:
        self.name = name

    def __getattr__(self, item: str) -> Any:
        raise ProtocolError(
            f"step for remote party {self.name!r} executed locally "
            f"(attribute {item!r}); the plan slicing is broken"
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
        A prior :meth:`checkpoint_blob` to resume from (restart path).
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
        self._incarnation = incarnation
        self._restore_blob = restore_blob
        self._checkpoint_path = checkpoint_path
        self._exit_after = exit_after_step

        self._config = _config_from_spec(self._spec)
        self._schema = _schema_from_spec(self._spec)
        if self._config.suite.construction_schedule != "sequential":
            raise ConfigurationError(
                "socket sessions support the sequential construction "
                "schedule only (each party runs its slice in registration order)"
            )
        self._tp_name: str = self._spec["tp_name"]
        self._sizes = {
            site: len(rows) for site, rows in self._spec["partitions"].items()
        }
        self._index = GlobalIndex(self._sizes)
        self._sites = list(self._index.sites)
        if party != self._tp_name and party not in self._sizes:
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
        self._secrets: dict[str, PairwiseSecret] = {}
        self._checkpoint: dict[str, Any] | None = None
        self._holder: DataHolder | None = None
        self._tp: ThirdParty | None = None
        self._unreachable: list[str] = []

    # -- party / plan construction ----------------------------------------

    def _build_parties(self) -> ConstructionScheduler:
        """(Re)create the local party objects; returns the step graph.

        Called once per era: the objects carry per-era protocol state
        (TP matrices, holder entropy position), so a reset rebuilds them
        from scratch and the checkpoint re-primes them.
        """
        suite = self._config.suite
        transport = self.transport
        self._tp = ThirdParty(
            self._tp_name, transport, self._schema, self._index, suite
        )
        holders: dict[str, Any] = {}
        self._holder = None
        for site in self._sites:
            if site == self._party:
                matrix = DataMatrix(
                    self._schema,
                    [tuple(row) for row in self._spec["partitions"][site]],
                )
                self._holder = DataHolder(
                    site,
                    matrix,
                    transport,
                    suite,
                    entropy=session_entropy(
                        self._config.master_seed, f"holder|{site}"
                    ),
                )
                holders[site] = self._holder
            else:
                holders[site] = _RemoteHolder(site)
        local = self._holder if self._holder is not None else self._tp
        assert local is not None
        for peer, secret in self._secrets.items():
            local.set_secret(peer, secret)
        scheduler = ConstructionScheduler(
            holders, self._tp, tolerate_faults=suite.tolerate_faults
        )
        for spec in self._schema:
            scheduler.add_attribute(spec)
        self._unreachable = []
        return scheduler

    def _derive_secrets(self) -> None:
        """Turn the transport's DH shared secrets into the key schedule."""
        self._secrets = {
            peer: PairwiseSecret(
                pair=tuple(sorted((self._party, peer))), secret=shared
            )
            for peer, shared in self.transport.shared_secrets().items()
        }

    @property
    def needs_group_key(self) -> bool:
        return any(
            spec.attr_type is AttributeType.CATEGORICAL for spec in self._schema
        )

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
        parties = self._sites + [self._tp_name]
        positions: dict[str, int] = {}
        for i, a in enumerate(parties):
            for b in parties[i + 1 :]:
                x, y = sorted((a, b))
                positions[f"{x}|{y}"] = 0
        if self.needs_group_key:
            leader = self._sites[0]
            for site in self._sites[1:]:
                x, y = sorted((leader, site))
                positions[f"{x}|{y}"] = LinkCipher.NONCE_WORDS
        return positions

    def checkpoint_blob(self) -> bytes:
        """Serialize this party's post-setup resumable state."""
        state = {
            "format": CHECKPOINT_FORMAT,
            "party": self._party,
            "fingerprint": self._fingerprint,
            "group_key": (
                self._holder.group_key_bytes() if self._holder is not None else None
            ),
            "holder_entropy": (
                self._holder.entropy_draws() if self._holder is not None else None
            ),
            "cipher_positions": self._setup_cipher_positions(),
        }
        return serialize(state)

    def _take_checkpoint(self) -> None:
        blob = self.checkpoint_blob()
        self._checkpoint = deserialize(blob)
        if self._checkpoint_path is not None:
            tmp = self._checkpoint_path + ".tmp"
            with open(tmp, "wb") as handle:
                handle.write(blob)
            os.replace(tmp, self._checkpoint_path)

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

    def _restore_from(self, state: Mapping[str, Any]) -> None:
        """Re-prime freshly built party objects from checkpointed state."""
        if self._holder is not None:
            if state["group_key"] is not None:
                self._holder.install_group_key(state["group_key"])
            if state["holder_entropy"] is not None:
                self._holder.advance_entropy(int(state["holder_entropy"]))

    # -- phases ------------------------------------------------------------

    def _group_key_phase(self) -> None:
        if not self.needs_group_key or self._holder is None:
            return
        leader = self._sites[0]
        if self._party == leader:
            self._holder.distribute_group_key(self._sites[1:])
        else:
            self._holder.receive_group_key(leader)

    def _maybe_exit_after(self, step_name: str) -> None:
        if self._exit_after is not None and step_name == self._exit_after:
            # The transport guarantees acknowledged frames only: a frame
            # the peer has not read yet may be lost with the connection.
            # So wait for the acks, then die exactly here, without
            # unwinding (SIGKILL cannot be caught), like a power loss.
            self.transport.wait_acknowledged()
            os.kill(os.getpid(), signal.SIGKILL)

    def _weights(self) -> list[float]:
        if self._config.weights is not None:
            return list(self._config.weights)
        return [1.0] * len(self._schema)

    def _result_phase(self, report: DegradedReport) -> dict[str, Any] | None:
        """Exchange weights, cluster, publish; returns the result payload."""
        tolerate = self._config.suite.tolerate_faults
        if self._holder is not None:
            try:
                self._holder.send_weights(self._tp_name, self._weights())
                result = self._holder.receive_result(self._tp_name)
            except _FAULT_ERRORS:
                if not tolerate:
                    raise
                return None
            return dict(result.to_payload())
        tp = self._tp
        assert tp is not None
        for site in self._sites:
            try:
                tp.receive_weights(site)
            except _FAULT_ERRORS:
                if not tolerate:
                    raise
                self._unreachable.append(site)
        reachable = [
            site
            for site in self._sites
            if site not in self._unreachable
            and self.transport.liveness(site) != DEAD
        ]
        degraded = report.degraded or bool(self._unreachable)
        linkage = self._config.linkage
        assert isinstance(linkage, LinkageMethod)
        result = tp.cluster_and_publish(
            reachable,
            self._config.num_clusters,
            linkage,
            attributes=list(report.completed_attributes) if degraded else None,
        )
        return dict(result.to_payload())

    # -- top-level driver --------------------------------------------------

    def run(self) -> dict[str, Any]:
        """Execute the whole session for this party; returns its report.

        The report carries everything the supervisor and the gate tests
        need: the final era, the published/received result payload, the
        sender-side transcript (per-era), and the degradation record.
        """
        self.transport.connect_all(timeout=self._connect_timeout)
        self._derive_secrets()
        if self._restore_blob is not None:
            state = self._load_checkpoint(self._restore_blob)
            self._checkpoint = dict(state)
            scheduler = self._build_parties()
            self._restore_from(state)
            self.transport.advance_cipher_positions(state["cipher_positions"])
        else:
            scheduler = self._build_parties()
            self._group_key_phase()
            self._take_checkpoint()

        result: dict[str, Any] | None = None
        while True:
            try:
                # This party's slice of the step graph, in registration
                # order; a frame a remote step never sends surfaces as a
                # fault on the receive, which a tolerant suite degrades on.
                report = scheduler.run(
                    owner=self._party, after_step=self._maybe_exit_after
                ).report
                result = self._result_phase(report)
                break
            except SessionResetError:
                state = self._checkpoint
                if state is None:
                    raise
                scheduler = self._build_parties()
                self._restore_from(state)
                self.transport.begin_era(state["cipher_positions"])
        self.transport.drain()
        return {
            "party": self._party,
            "era": self.transport.era,
            "result": result,
            "transcript": [list(entry) for entry in self.transport.transcript()],
            "failed_attributes": list(report.failed_attributes),
            "completed_attributes": list(report.completed_attributes),
            "unreachable": sorted(set(self._unreachable)),
            "liveness": [list(entry) for entry in self.transport.liveness_log()],
        }

    def close(self) -> None:
        self.transport.close()
