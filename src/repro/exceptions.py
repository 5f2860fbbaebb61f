"""Exception hierarchy for the ``repro`` library.

All library errors derive from :class:`ReproError` so callers can catch a
single base class.  Subclasses partition the failure space along the major
subsystems: configuration, protocol execution, cryptography, data handling
and clustering.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the library."""


class ConfigurationError(ReproError):
    """A session, protocol or component was configured inconsistently."""


class SchemaError(ReproError):
    """Data does not match the declared attribute schema."""


class PartitionError(ReproError):
    """Invalid horizontal partitioning of a data matrix."""


class ProtocolError(ReproError):
    """A privacy-preserving protocol was violated or misused.

    Raised for out-of-order messages, role mismatches, wrong shapes of
    intermediary matrices, or attempts to run a protocol with parties that
    do not hold the required shared secrets.
    """


class ChannelError(ReproError):
    """A network channel was used incorrectly (closed, wrong endpoint...)."""


class IntegrityError(ChannelError):
    """Message authentication failed on a secure channel."""


class PartyCrashError(ChannelError):
    """A party is down (scripted crash) and cannot send or receive.

    Raised by the network when a *permanently* crashed party attempts
    I/O.  Transient crashes never raise: they only lose frames in
    flight, which the simulator's send recovers by retransmit.
    """

    def __init__(self, party: str, message: str | None = None) -> None:
        self.party = party
        super().__init__(message or f"party {party!r} has crashed")


class LaneTimeoutError(ChannelError, TimeoutError):
    """Reliable delivery gave up on one lane.

    Structured so recovery code (and a human reading a chaos-test log)
    can see exactly which directed lane starved and how hard recovery
    tried: ``sender``/``recipient``/``kind``/``tag`` name the lane,
    ``attempts`` counts delivery attempts including retransmits.
    """

    def __init__(
        self,
        sender: str,
        recipient: str,
        kind: str,
        tag: str,
        attempts: int,
        reason: str = "no deliverable frame",
    ) -> None:
        self.sender = sender
        self.recipient = recipient
        self.kind = kind
        self.tag = tag
        self.attempts = attempts
        lane = f"{kind!r} {sender}->{recipient}" + (f" [{tag}]" if tag else "")
        super().__init__(
            f"reliable delivery timed out on lane {lane} "
            f"after {attempts} attempt(s): {reason}"
        )


class SessionResetError(ChannelError):
    """A peer restarted from a checkpoint; the current epoch is void.

    Raised by a socket transport out of blocked sends/receives when a
    peer's handshake announces a higher incarnation (it was killed and
    restarted by the supervisor).  The party driver catches this,
    restores its own checkpoint, and re-enters the protocol in the new
    era -- see DESIGN.md "Transport" for the reset sequence.
    """

    def __init__(self, trigger_party: str, incarnation: int, era: int) -> None:
        self.trigger_party = trigger_party
        self.incarnation = incarnation
        self.era = era
        super().__init__(
            f"session reset: party {trigger_party!r} restarted "
            f"(incarnation {incarnation}); protocol must resume from "
            f"checkpoint in era {era}"
        )


class SnapshotError(ConfigurationError):
    """A session snapshot blob is unusable for restore.

    Raised when :meth:`repro.apps.service.ClusteringService.restore`
    receives a truncated or corrupted blob, a blob of the wrong format
    version, or a blob that was taken under a different session
    configuration than the one supplied.  Structured so supervisors can
    distinguish "bad checkpoint file" from protocol failures.
    """


class SchedulerStallError(ProtocolError):
    """The parallel scheduler's watchdog fired: no step completed within
    the configured timeout.  The message names every pending step."""


class CryptoError(ReproError):
    """Cryptographic failure (bad key sizes, decryption failure...)."""


class KeyAgreementError(CryptoError):
    """Diffie-Hellman key agreement failed or was misused."""


class ClusteringError(ReproError):
    """Clustering could not be performed on the given dissimilarity input."""


class AttackError(ReproError):
    """An attack harness was invoked on an incompatible transcript."""
