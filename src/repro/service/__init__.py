"""repro.service — the fault-tolerant, highly-available campaign service.

Turns :func:`repro.experiments.runner.run_campaign` into a long-running
manager/worker system that survives worker crashes, manager restarts,
*manager loss* and corrupt state without losing or double-counting a
single shard:

* :mod:`repro.service.schemas` — dataclass request/response schemas with
  strict validation (the JSON contract of the REST API), including the
  fencing ``epoch`` stamp and the heartbeat ``reclaim`` envelope;
* :class:`~repro.resilience.leases.LeaseQueue` (re-exported here) — the
  lease-based shard queue: workers pull shard leases with deadlines,
  renew via heartbeat, and expired leases are requeued with exponential
  backoff and quarantined after N failures; the in-process campaign
  supervisor schedules through the same queue;
* :mod:`repro.service.store` — the durable, content-addressed result
  store keyed by config hash: shard execution is idempotent, so
  at-least-once delivery dedupes instead of corrupting aggregates;
* :mod:`repro.service.journal` — write-ahead JSONL journal plus atomic
  snapshot; a SIGKILL'd manager replays both on restart, and a standby
  tails the same records over the replication endpoints;
* :mod:`repro.service.manager` — the :class:`CampaignManager` state
  machine composing queue + store + journal, producing final
  :class:`~repro.experiments.runner.CampaignResult`s byte-identical to a
  serial fault-free run; every write is fenced by a monotonic epoch;
* :mod:`repro.service.standby` — :class:`StandbyManager`: WAL-tailing
  replication, leader-loss detection and promotion at a bumped epoch;
* :mod:`repro.service.api` — the stdlib ``http.server`` REST front end
  (submit/list/status/cancel, leases, incidents, Prometheus metrics,
  replication);
* :mod:`repro.service.worker` — the worker agent: registers, pulls
  leases, runs shards through the same ``run_workload`` path as serial
  campaigns and reports back; holds an *ordered endpoint list* and fails
  over to a promoted standby, reclaiming its in-flight lease;
* :mod:`repro.service.gc` — campaign-aware result-store retention
  (``repro service gc``): age/count eviction that never touches a
  result referenced by a live campaign;
* :mod:`repro.service.drill` — the fleet-level chaos drill
  (``repro drill``): scripted kills/partitions/promotions over a live
  campaign, held to a counter-identical-to-serial acceptance bar.

See ``docs/SERVICE.md`` for the API, the lease lifecycle, the recovery
guarantees and the HA/failover runbook.
"""

from repro.resilience.leases import Lease, LeaseQueue, ShardPhase
from repro.service.drill import DrillReport, DrillSpec, run_drill
from repro.service.gc import (
    GcReport,
    ResultGcPolicy,
    collect_garbage,
    referenced_result_keys,
)
from repro.service.journal import (
    JOURNAL_SNAPSHOT_SCHEMA,
    Journal,
    load_epoch,
    store_epoch,
)
from repro.service.manager import CampaignManager
from repro.service.schemas import (
    CampaignSpec,
    CompleteRequest,
    FailRequest,
    LeaseRequest,
    RegisterRequest,
    RenewRequest,
    ShardProgress,
)
from repro.service.standby import StandbyManager
from repro.service.store import RESULT_SCHEMA, ResultStore, shard_result_key
from repro.service.worker import (
    ManagerClient,
    WorkerAgent,
    WorkerChaos,
    WorkerVanished,
    http_exchange,
)

__all__ = [
    "CampaignManager",
    "CampaignSpec",
    "CompleteRequest",
    "DrillReport",
    "DrillSpec",
    "FailRequest",
    "GcReport",
    "JOURNAL_SNAPSHOT_SCHEMA",
    "Journal",
    "Lease",
    "LeaseQueue",
    "LeaseRequest",
    "ManagerClient",
    "RESULT_SCHEMA",
    "RegisterRequest",
    "RenewRequest",
    "ResultGcPolicy",
    "ResultStore",
    "ShardPhase",
    "ShardProgress",
    "StandbyManager",
    "WorkerAgent",
    "WorkerChaos",
    "WorkerVanished",
    "collect_garbage",
    "http_exchange",
    "load_epoch",
    "referenced_result_keys",
    "run_drill",
    "shard_result_key",
    "store_epoch",
]
