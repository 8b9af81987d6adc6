"""repro.resilience — self-healing campaign infrastructure.

The paper's mechanism is trustworthy because every speculative skip falls
back to correct baseline behaviour; this package gives the *campaign
infrastructure* the same property.  Its parts:

* :mod:`repro.resilience.incidents` — a unified incident log: every
  anomaly (corrupt artifact, dead worker, backend divergence) becomes a
  structured :class:`~repro.resilience.incidents.Incident` recorded by an
  :class:`~repro.resilience.incidents.IncidentRecorder` that also feeds
  obs metrics counters and tracer instants;
* :mod:`repro.resilience.integrity` — content-checksummed, schema-versioned
  JSON artifacts written atomically; corrupted or truncated files are
  *detected* (and rebuilt by their owners) instead of trusted;
* :mod:`repro.resilience.leases` — the lease queue that schedules shards
  for both the supervisor and the campaign service: deadline leases,
  requeue with exponential backoff, quarantine after repeated failures;
* :mod:`repro.resilience.supervisor` — long-lived, explicitly supervised
  campaign worker processes leasing shards from that queue: heartbeats,
  hang detection, replacement of dead workers, and salvage of completed
  work from a dead worker's spill checkpoint;
* :mod:`repro.resilience.watchdog` — a runtime divergence watchdog that
  cross-checks the batched backend against the reference interpreter at
  sync points and falls back to the reference backend on divergence.

See ``docs/RESILIENCE.md`` for the state machines and policies.
"""

from repro.resilience.incidents import (
    INCIDENT_SCHEMA_VERSION,
    Incident,
    IncidentKind,
    IncidentRecorder,
    validate_incident_log,
)
from repro.resilience.integrity import (
    INTEGRITY_VERSION,
    payload_checksum,
    read_artifact,
    write_artifact,
)
from repro.resilience.leases import ShardPhase, SupervisorPolicy
from repro.resilience.supervisor import (
    CampaignSupervisor,
    FaultPlan,
    SupervisorReport,
)
from repro.resilience.watchdog import (
    DivergenceWatchdog,
    WatchdogPolicy,
    snapshot_hash,
)

__all__ = [
    "CampaignSupervisor",
    "DivergenceWatchdog",
    "FaultPlan",
    "INCIDENT_SCHEMA_VERSION",
    "INTEGRITY_VERSION",
    "Incident",
    "IncidentKind",
    "IncidentRecorder",
    "ShardPhase",
    "SupervisorPolicy",
    "SupervisorReport",
    "WatchdogPolicy",
    "payload_checksum",
    "read_artifact",
    "snapshot_hash",
    "validate_incident_log",
    "write_artifact",
]
