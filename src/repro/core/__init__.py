"""The paper's primary contribution: privacy-preserving comparison
protocols and dissimilarity matrix construction.

* :mod:`repro.core.numeric` -- Section 4.1 protocol (Figures 4-6),
* :mod:`repro.core.alphanumeric` -- Section 4.2 protocol (Figures 8-10),
* :mod:`repro.core.categorical` -- Section 4.3 protocol,
* :mod:`repro.core.scheduler` -- the Figure 11 step graph and its executors,
* :mod:`repro.core.delta` -- ingest-epoch plans (new-pairs-only construction),
* :mod:`repro.core.session` -- the one session driver, in-process or in
  a party process, and the session key schedule,
* :mod:`repro.core.results` -- Figure 13 publication format,
* :mod:`repro.core.config` -- session/protocol configuration,
* :mod:`repro.core.labels` -- PRNG/key derivation label grammar.
"""

from repro.core.config import ProtocolSuiteConfig, SessionConfig
from repro.core.results import Cluster, ClusteringResult, result_from_labels
from repro.core.session import ClusteringSession

__all__ = [
    "ProtocolSuiteConfig",
    "SessionConfig",
    "Cluster",
    "ClusteringResult",
    "result_from_labels",
    "ClusteringSession",
]
