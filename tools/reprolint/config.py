"""Configuration: defaults plus the ``[tool.reprolint]`` pyproject table.

Paths in the config are repo-root-relative POSIX prefixes; a file is in
scope for a rule family when its relative path starts with one of the
family's prefixes.  The defaults encode this repository's layout so the
tool is runnable bare; the pyproject table overrides field by field.
"""

from __future__ import annotations

import tomllib
from dataclasses import dataclass, field
from pathlib import Path


def _norm_prefix(prefix: str) -> str:
    return prefix.replace("\\", "/").strip("/")


@dataclass
class Config:
    """Resolved reprolint configuration."""

    #: Lint roots used when the CLI is invoked without paths.
    paths: list[str] = field(default_factory=lambda: ["src", "tests", "benchmarks"])
    #: Path prefixes skipped entirely (the deliberate-violation corpus).
    exclude: list[str] = field(default_factory=lambda: ["tests/reprolint_fixtures"])

    #: Layers whose output is protocol-visible: determinism (RL1xx) and
    #: secrecy (RL2xx) apply here.
    protocol_paths: list[str] = field(
        default_factory=lambda: [
            "src/repro/core",
            "src/repro/crypto",
            "src/repro/network",
            "src/repro/parties",
        ]
    )
    #: Modules allowed to construct PRNGs directly (the derivation layer).
    prng_construction_allowed: list[str] = field(
        default_factory=lambda: [
            "src/repro/crypto/prng.py",
            "src/repro/crypto/keys.py",
            "src/repro/core/session.py",
            # Fault-injection schedules draw from their own labeled lane
            # streams, deliberately disjoint from protocol entropy.
            "src/repro/network/faults.py",
        ]
    )

    #: Name tokens that mark an identifier as secret-carrying.
    secret_tokens: list[str] = field(
        default_factory=lambda: [
            "secret",
            "seed",
            "key",
            "keystream",
            "plaintext",
            "passphrase",
            "payload",
            "entropy",
            "private",
            "wire",
        ]
    )
    #: Attributes of a secret-named value that are safe to show
    #: (structural metadata, never key material).
    secrecy_safe_attrs: list[str] = field(
        default_factory=lambda: ["pair", "name", "kind", "draws", "endpoints"]
    )
    #: Full identifier names exempt from secret matching (counters and
    #: lane keys whose names merely collide with secret tokens).
    secrecy_safe_names: list[str] = field(
        default_factory=lambda: [
            "payload_bytes",
            "wire_bytes",
            "best_key",
            "lane_key",
            "key_stats",
            # A public key is public by definition; only the private half
            # is material.
            "public_key",
        ]
    )

    #: Fast module -> reference sibling (the executable specification).
    reference_pairs: dict[str, str] = field(
        default_factory=lambda: {
            "src/repro/core/numeric.py": "src/repro/core/reference.py",
            "src/repro/core/alphanumeric.py": "src/repro/core/reference.py",
            "src/repro/crypto/sym.py": "src/repro/crypto/reference.py",
            "src/repro/clustering/linkage.py": "src/repro/clustering/reference.py",
            "src/repro/clustering/kmedoids.py": "src/repro/clustering/reference.py",
            "src/repro/clustering/quality.py": "src/repro/clustering/reference.py",
        }
    )
    #: Per fast module: public names exempt from RL401 (APIs that are
    #: compositions of covered primitives, with the reason in pyproject).
    reference_allowlist: dict[str, list[str]] = field(default_factory=dict)

    #: Paths allowed to touch raw bytes (the wire codec, the crypto layer).
    serialization_allowed: list[str] = field(
        default_factory=lambda: [
            "src/repro/network/serialization.py",
            "src/repro/crypto",
        ]
    )

    #: Paths allowed to open sockets or run event loops (the transport
    #: layer).  Everything else must go through a Transport.
    socket_allowed: list[str] = field(
        default_factory=lambda: ["src/repro/network"]
    )

    #: Paths allowed to memory-map matrix shards (the condensed storage
    #: backend).  Everything else must go through a CondensedStore.
    matrix_storage_allowed: list[str] = field(
        default_factory=lambda: ["src/repro/distance/store.py"]
    )

    def __post_init__(self) -> None:
        self.paths = [_norm_prefix(p) for p in self.paths]
        self.exclude = [_norm_prefix(p) for p in self.exclude]
        self.protocol_paths = [_norm_prefix(p) for p in self.protocol_paths]
        self.prng_construction_allowed = [
            _norm_prefix(p) for p in self.prng_construction_allowed
        ]
        self.serialization_allowed = [
            _norm_prefix(p) for p in self.serialization_allowed
        ]
        self.socket_allowed = [_norm_prefix(p) for p in self.socket_allowed]
        self.matrix_storage_allowed = [
            _norm_prefix(p) for p in self.matrix_storage_allowed
        ]
        self.reference_pairs = {
            _norm_prefix(k): _norm_prefix(v) for k, v in self.reference_pairs.items()
        }
        self.reference_allowlist = {
            _norm_prefix(k): list(v) for k, v in self.reference_allowlist.items()
        }

    # -- scope helpers ----------------------------------------------------

    @staticmethod
    def path_in(rel: str, prefixes: list[str]) -> bool:
        """Whether ``rel`` (POSIX, root-relative) falls under a prefix."""
        for prefix in prefixes:
            if rel == prefix or rel.startswith(prefix + "/"):
                return True
        return False

    def is_excluded(self, rel: str) -> bool:
        return self.path_in(rel, self.exclude)

    def in_protocol_scope(self, rel: str) -> bool:
        return self.path_in(rel, self.protocol_paths)


#: Config keys accepted from pyproject; anything else is a hard error so
#: a typo cannot silently disable a rule family.
_KNOWN_KEYS = {
    "paths",
    "exclude",
    "protocol_paths",
    "prng_construction_allowed",
    "secret_tokens",
    "secrecy_safe_attrs",
    "secrecy_safe_names",
    "reference_pairs",
    "reference_allowlist",
    "serialization_allowed",
    "socket_allowed",
    "matrix_storage_allowed",
}


class ConfigError(Exception):
    """Invalid ``[tool.reprolint]`` table."""


def load_config(pyproject: Path | None) -> Config:
    """Build a :class:`Config` from ``pyproject.toml`` if present."""
    if pyproject is None or not pyproject.is_file():
        return Config()
    with open(pyproject, "rb") as handle:
        table = tomllib.load(handle).get("tool", {}).get("reprolint", {})
    unknown = sorted(set(table) - _KNOWN_KEYS)
    if unknown:
        raise ConfigError(
            f"unknown [tool.reprolint] keys {unknown}; known: {sorted(_KNOWN_KEYS)}"
        )
    return Config(**table)
