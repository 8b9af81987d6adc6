"""Lease-based shard queue: the one shard scheduler of both campaign runtimes.

The campaign service's manager and the in-process
:class:`~repro.resilience.supervisor.CampaignSupervisor` both schedule
through :class:`LeaseQueue`, so pending, backoff, failure counting and
quarantine follow one state machine.  Workers never own shards — they
hold *leases* with deadlines:

* :meth:`LeaseQueue.acquire` hands the oldest ready, unblocked pending
  shard to a worker as a :class:`Lease` expiring ``shard_deadline_s``
  from now; the worker renews it via heartbeat (:meth:`LeaseQueue.renew`);
* a shard added with ``after=`` keys is *blocked* while any of those
  shards is pending or leased, and released once each has completed or
  been quarantined — a campaign queues the shards that store a shared
  input ahead of the shards that read it this way.  Every ``after`` key
  must already be queued, so dependencies cannot form a cycle;
* a lease that expires — worker crash, hang, network partition — is
  swept by :meth:`LeaseQueue.expire`, and a worker-reported failure
  arrives through :meth:`LeaseQueue.fail`: the shard goes back to
  pending with exponential backoff, and after ``max_shard_failures``
  process-level failures it is **quarantined** (the campaign then
  completes *degraded* rather than never);
* :meth:`LeaseQueue.complete` is key-addressed and idempotent: late
  completions (after expiry, after requeue, even after quarantine) are
  banked — the content-addressed result store upstream makes duplicate
  deliveries harmless, so the queue never discards finished work.

The knobs are :class:`SupervisorPolicy`.  The queue is in-memory soft
state: leases are *not* journaled.  After a manager restart every
non-terminal shard is simply pending again; the worst case is a
duplicate execution, which dedupes.  The service's manager journals
failure counts and terminal states, not the queue.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass

from repro.errors import ServiceError, SupervisorError


@dataclass(frozen=True)
class SupervisorPolicy:
    """Lease and supervision knobs (defaults sized for real campaigns;
    tests shrink the deadline to keep hang detection fast)."""

    #: A worker silent for this long loses its lease and is declared hung.
    shard_deadline_s: float = 120.0
    #: Interval between worker heartbeats (each renews the lease).
    heartbeat_interval_s: float = 0.25
    #: Process-level failures (death or hang) before a shard is
    #: quarantined.  Worker-internal retries are separate (RetryPolicy).
    max_shard_failures: int = 3
    #: Exponential requeue backoff: base * factor ** (failures - 1).
    backoff_base_s: float = 0.25
    backoff_factor: float = 2.0
    #: Supervisor monitor loop poll interval.
    poll_interval_s: float = 0.05

    def __post_init__(self) -> None:
        if self.shard_deadline_s <= 0:
            raise SupervisorError(
                f"shard_deadline_s must be positive, got {self.shard_deadline_s}"
            )
        if self.heartbeat_interval_s <= 0:
            raise SupervisorError(
                f"heartbeat_interval_s must be positive, got {self.heartbeat_interval_s}"
            )
        if self.max_shard_failures < 1:
            raise SupervisorError(
                f"max_shard_failures must be >= 1, got {self.max_shard_failures}"
            )

    def backoff(self, failures: int) -> float:
        return self.backoff_base_s * self.backoff_factor ** max(0, failures - 1)


class ShardPhase(enum.Enum):
    """Lifecycle of one shard in the queue."""

    PENDING = "pending"
    LEASED = "leased"
    COMPLETED = "completed"
    QUARANTINED = "quarantined"


@dataclass(frozen=True)
class Lease:
    """One worker's time-bounded claim on one shard."""

    lease_id: str
    key: str
    worker_id: str
    attempt: int
    expires_at: float


@dataclass
class _Shard:
    key: str
    payload: dict
    phase: ShardPhase = ShardPhase.PENDING
    failures: int = 0
    ready_at: float = 0.0
    last_error: str = ""
    lease: Lease | None = None
    #: Keys of the shards this one waits for (see :meth:`LeaseQueue.add`).
    after: tuple[str, ...] = ()


@dataclass
class ExpiredLease:
    """One sweep event from :meth:`LeaseQueue.expire` (for incidents/journal)."""

    key: str
    worker_id: str
    lease_id: str
    failures: int
    quarantined: bool
    backoff_s: float = 0.0
    last_error: str = ""


class LeaseQueue:
    """Oldest-ready-first shard queue with deadline leases and
    dependencies (see module doc).

    Args:
        policy: lease TTL / quarantine budget / backoff knobs.
        clock: monotonic time source (injectable for deterministic tests).
    """

    def __init__(
        self, policy: SupervisorPolicy | None = None, clock=time.monotonic
    ) -> None:
        self.policy = policy or SupervisorPolicy()
        self.clock = clock
        self._shards: dict[str, _Shard] = {}  # insertion order == FIFO order
        self._leases: dict[str, Lease] = {}
        self._lease_seq = 0

    # ------------------------------------------------------------- shards

    def add(
        self, key: str, payload: dict, failures: int = 0, after: tuple[str, ...] = ()
    ) -> None:
        """Enqueue one pending shard (``failures`` seeds the quarantine
        budget when re-adding after recovery).

        The shard is not leased while any shard named in ``after`` is
        pending or leased; each of those must already be queued.
        """
        if key in self._shards:
            raise ServiceError(f"shard {key!r} is already queued")
        unknown = [dep for dep in after if dep not in self._shards]
        if unknown:
            raise ServiceError(f"shard {key!r} waits on unqueued shard(s) {unknown}")
        self._shards[key] = _Shard(
            key=key, payload=payload, failures=failures, after=tuple(after)
        )

    def discard(self, key: str) -> None:
        """Drop a shard (campaign cancelled); leased work is left to
        finish and its completion will be ignored upstream."""
        shard = self._shards.pop(key, None)
        if shard is not None and shard.lease is not None:
            self._leases.pop(shard.lease.lease_id, None)

    def phase(self, key: str) -> ShardPhase | None:
        shard = self._shards.get(key)
        return shard.phase if shard is not None else None

    def failures(self, key: str) -> int:
        shard = self._shards.get(key)
        return shard.failures if shard is not None else 0

    def counts(self) -> dict[str, int]:
        out = {phase.value: 0 for phase in ShardPhase}
        for shard in self._shards.values():
            out[shard.phase.value] += 1
        return out

    # ------------------------------------------------------------- leases

    def acquire(self, worker_id: str) -> tuple[Lease, dict] | None:
        """Lease the oldest ready, unblocked pending shard to ``worker_id``.

        Returns ``(lease, payload)`` or None when nothing is ready (all
        shards terminal, leased, blocked, or still backing off).

        Acquire is **idempotent per worker**: a worker already holding a
        live lease gets that same lease back instead of a second shard.
        A duplicated acquire request (at-least-once delivery through a
        faulty network) therefore cannot strand an orphan lease that
        would later expire as a phantom failure.
        """
        now = self.clock()
        for lease in self._leases.values():
            if lease.worker_id == worker_id and lease.expires_at > now:
                held = self._shards.get(lease.key)
                if held is not None and held.phase is ShardPhase.LEASED:
                    return lease, held.payload
        for shard in self._shards.values():
            if (
                shard.phase is not ShardPhase.PENDING
                or shard.ready_at > now
                or self._blocked(shard)
            ):
                continue
            self._lease_seq += 1
            lease = Lease(
                lease_id=f"L{self._lease_seq}",
                key=shard.key,
                worker_id=worker_id,
                attempt=shard.failures + 1,
                expires_at=now + self.policy.shard_deadline_s,
            )
            shard.phase = ShardPhase.LEASED
            shard.lease = lease
            self._leases[lease.lease_id] = lease
            return lease, shard.payload
        return None

    def renew(self, lease_id: str, worker_id: str) -> Lease | None:
        """Extend a live lease's deadline; None when the lease is gone
        (expired and swept, completed, or from before a manager restart)
        or owned by another worker."""
        lease = self._leases.get(lease_id)
        if lease is None or lease.worker_id != worker_id:
            return None
        if lease.expires_at <= self.clock():
            return None  # expired but not yet swept: do not resurrect
        renewed = Lease(
            lease_id=lease.lease_id,
            key=lease.key,
            worker_id=lease.worker_id,
            attempt=lease.attempt,
            expires_at=self.clock() + self.policy.shard_deadline_s,
        )
        self._leases[lease_id] = renewed
        shard = self._shards.get(lease.key)
        if shard is not None and shard.lease is not None and shard.lease.lease_id == lease_id:
            shard.lease = renewed
        return renewed

    def reclaim(self, key: str, worker_id: str, lease_id: str = "") -> Lease | None:
        """Re-establish a lease on a *pending* shard for a worker whose
        previous lease vanished with a dead or restarted manager.

        The failover path: a promoted standby (or a restarted leader)
        forgot all leases — they are soft state — so a worker mid-shard
        renews against it, carrying (campaign, key).  Re-leasing the
        shard to that worker keeps it from being handed to someone else,
        which is what makes an in-flight shard survive a failover with
        zero re-execution.  ``lease_id`` is honoured when free so the
        worker's heartbeat can keep its id across the failover.

        Returns the (re)established lease, the worker's *existing* live
        lease when it already holds this shard (idempotent), or None
        when the shard is not reclaimable (leased by someone else,
        terminal, or unknown).  Backoff (``ready_at``) is deliberately
        ignored: the reclaiming worker is alive and holds partial work.
        """
        shard = self._shards.get(key)
        if shard is None:
            return None
        if shard.phase is ShardPhase.LEASED:
            lease = shard.lease
            if lease is not None and lease.worker_id == worker_id:
                return self.renew(lease.lease_id, worker_id)
            return None
        if shard.phase is not ShardPhase.PENDING:
            return None
        self._lease_seq += 1
        if not lease_id or lease_id in self._leases:
            lease_id = f"L{self._lease_seq}"
        lease = Lease(
            lease_id=lease_id,
            key=shard.key,
            worker_id=worker_id,
            attempt=shard.failures + 1,
            expires_at=self.clock() + self.policy.shard_deadline_s,
        )
        shard.phase = ShardPhase.LEASED
        shard.lease = lease
        self._leases[lease.lease_id] = lease
        return lease

    def expire(self) -> list[ExpiredLease]:
        """Sweep expired leases: requeue with backoff or quarantine.

        Returns one event per expired lease so the manager can journal
        the failure and record a ``lease_expired`` incident.
        """
        now = self.clock()
        events: list[ExpiredLease] = []
        for lease_id in [
            lid for lid, lease in self._leases.items() if lease.expires_at <= now
        ]:
            lease = self._leases.pop(lease_id)
            shard = self._shards.get(lease.key)
            if shard is None or shard.phase is not ShardPhase.LEASED:
                continue
            error = (
                f"lease {lease_id} for shard {lease.key} held by "
                f"{lease.worker_id} expired after "
                f"{self.policy.shard_deadline_s:.1f}s without renewal"
            )
            quarantined, backoff = self._fail(shard, error)
            events.append(
                ExpiredLease(
                    key=shard.key,
                    worker_id=lease.worker_id,
                    lease_id=lease_id,
                    failures=shard.failures,
                    quarantined=quarantined,
                    backoff_s=backoff,
                    last_error=error,
                )
            )
        return events

    # ---------------------------------------------------------- outcomes

    def complete(self, key: str) -> str:
        """Mark a shard completed; returns what actually happened.

        ``"completed"`` — normal first completion; ``"deduped"`` — the
        shard was already completed (late duplicate delivery);
        ``"healed"`` — a quarantined shard's result arrived late and
        un-quarantined it; ``"unknown"`` — no such shard (cancelled
        campaign or stale key).  Completion is accepted from *any*
        non-terminal state: pending (manager restarted, lease forgotten),
        leased (the normal path), even another worker's lease (the first
        holder crashed, both finished) — finished work is never dropped.
        """
        shard = self._shards.get(key)
        if shard is None:
            return "unknown"
        if shard.phase is ShardPhase.COMPLETED:
            return "deduped"
        healed = shard.phase is ShardPhase.QUARANTINED
        if shard.lease is not None:
            self._leases.pop(shard.lease.lease_id, None)
            shard.lease = None
        shard.phase = ShardPhase.COMPLETED
        shard.last_error = ""
        return "healed" if healed else "completed"

    def fail(self, key: str, error: str) -> tuple[bool, float]:
        """Worker-reported failure of a leased or pending shard; returns
        ``(quarantined, backoff_s)``."""
        shard = self._shards.get(key)
        if shard is None or shard.phase in (ShardPhase.COMPLETED, ShardPhase.QUARANTINED):
            return False, 0.0
        if shard.lease is not None:
            self._leases.pop(shard.lease.lease_id, None)
        return self._fail(shard, error)

    def quarantine(self, key: str, error: str) -> None:
        """Force a shard into quarantine (journal replay path)."""
        shard = self._shards.get(key)
        if shard is None:
            return
        if shard.lease is not None:
            self._leases.pop(shard.lease.lease_id, None)
            shard.lease = None
        shard.phase = ShardPhase.QUARANTINED
        shard.last_error = error

    def last_error(self, key: str) -> str:
        shard = self._shards.get(key)
        return shard.last_error if shard is not None else ""

    def live_leases(self) -> list[Lease]:
        """Snapshot of currently-held leases (soft state, for telemetry)."""
        return list(self._leases.values())

    def has_work(self) -> bool:
        """True while any shard is pending or leased."""
        return any(
            s.phase in (ShardPhase.PENDING, ShardPhase.LEASED)
            for s in self._shards.values()
        )

    def next_ready_at(self) -> float | None:
        """Earliest ``ready_at`` among unblocked pending shards (None
        when none)."""
        times = [
            s.ready_at
            for s in self._shards.values()
            if s.phase is ShardPhase.PENDING and not self._blocked(s)
        ]
        return min(times) if times else None

    # ---------------------------------------------------------- internals

    def _blocked(self, shard: _Shard) -> bool:
        """True while a shard named in ``shard.after`` is still to run
        (a discarded one no longer blocks)."""
        for key in shard.after:
            dep = self._shards.get(key)
            if dep is not None and dep.phase in (ShardPhase.PENDING, ShardPhase.LEASED):
                return True
        return False

    def _fail(self, shard: _Shard, error: str) -> tuple[bool, float]:
        shard.failures += 1
        shard.last_error = error
        shard.lease = None
        if shard.failures >= self.policy.max_shard_failures:
            shard.phase = ShardPhase.QUARANTINED
            return True, 0.0
        backoff = self.policy.backoff(shard.failures)
        shard.phase = ShardPhase.PENDING
        shard.ready_at = self.clock() + backoff
        return False, backoff
