"""Standby manager: WAL-tailing replication + promotion on leader loss.

The HA half of the campaign service.  A :class:`StandbyManager` runs
beside (or far from) the leader and keeps a byte-faithful mirror of the
leader's durable state by *tailing its journal* over the replication
endpoints (:mod:`repro.service.api`):

* ``GET /replication/state?since=N`` — the journal records newer than
  the follower's applied seq (or a full snapshot when the follower is
  older than the leader's last compaction), plus the leader's fencing
  epoch and result-store key list, all read under one leader lock;
* ``GET /replication/result?key=K`` — one content-addressed shard
  result, mirrored into the follower's own store.

Ordering is what makes the mirror trustworthy: the leader stores a
result *before* journaling its completion, and one replication pull
reads journal-tail and key-list under the same lock — so any completion
the follower applies has its result fetchable in the same round.  A
promoted standby therefore recovers exactly like a restarted leader
would, with zero lost completions.

**Promotion** (:meth:`StandbyManager.promote`) happens after
``misses_to_promote`` consecutive failed sync pulls (``leader_lost``
incident): the standby bumps the durable fencing epoch to
``leader_epoch + 1``, then constructs a full
:class:`~repro.service.manager.CampaignManager` over the mirrored data
directory — journal replay, store reconciliation, shard requeue, the
whole recovery path — and records a ``promoted`` incident.  The epoch
bump is what *fences* the old leader: if it revives, every write it
receives stamped with the new epoch is rejected (its journal is no
longer the truth), and every stale-epoch write it forwarded is rejected
by the new leader.  No state is ever silently merged across a
promotion.

The standby never serves worker traffic before promotion; workers hold
an ordered endpoint list ``[leader, standby]`` and only reach the
standby's port once the promoted manager is serving on it.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path

from repro.errors import ServiceError
from repro.resilience.incidents import IncidentKind, IncidentRecorder
from repro.resilience.leases import SupervisorPolicy
from repro.service.journal import Journal, load_epoch, store_epoch
from repro.service.manager import CampaignManager
from repro.service.store import ResultStore
from repro.service.worker import ManagerClient


class StandbyManager:
    """Tails a leader's WAL; promotes itself when the leader is lost.

    Args:
        data_dir: the standby's *own* data directory (journal mirror +
            result mirror + epoch file); must not be the leader's.
        leader_url: the leader's base URL (ignored when ``client`` is
            given — drills pass a fault-injected client).
        client: transport to the leader; ``retries=0`` is deliberate so
            the standby's own miss counter is the failure detector.
        policy: lease policy handed to the promoted manager.
        recorder: incident recorder, shared with the promoted manager so
            ``leader_lost``/``promoted`` appear in its ``/incidents``.
        poll_interval_s: seconds between replication pulls.
        misses_to_promote: consecutive failed pulls before promotion.
        clock: monotonic time source for the promoted manager.
    """

    def __init__(
        self,
        data_dir: str | Path,
        leader_url: str = "",
        client: ManagerClient | None = None,
        policy: SupervisorPolicy | None = None,
        recorder: IncidentRecorder | None = None,
        poll_interval_s: float = 0.2,
        misses_to_promote: int = 5,
        clock=time.monotonic,
        snapshot_every: int = 50,
        reclaim_grace_s: float | None = None,
    ) -> None:
        if client is None and not leader_url:
            raise ServiceError("StandbyManager needs a leader_url or a client")
        self.data_dir = Path(data_dir)
        self.client = client or ManagerClient(leader_url, retries=0, timeout_s=5.0)
        self.policy = policy
        self.recorder = recorder if recorder is not None else IncidentRecorder()
        self.poll_interval_s = poll_interval_s
        self.misses_to_promote = max(1, misses_to_promote)
        self.clock = clock
        self.snapshot_every = snapshot_every
        # Default the promoted manager's reclaim grace to half a lease
        # TTL: longer than a renew interval (ttl/3), shorter than an
        # expiry sweep — in-flight workers reclaim before anyone else
        # can be granted their shard.
        if reclaim_grace_s is None:
            lease_policy = policy or SupervisorPolicy()
            reclaim_grace_s = lease_policy.shard_deadline_s / 2.0
        self.reclaim_grace_s = reclaim_grace_s
        self.stop_event = threading.Event()
        self.promoted_event = threading.Event()
        self.manager: CampaignManager | None = None

        self.journal = Journal(self.data_dir / "journal")
        loaded = self.journal.load()
        self.journal.open_for_append(loaded.last_seq)
        self.store = ResultStore(self.data_dir / "results", recorder=self.recorder)
        self.applied_seq = loaded.last_seq
        self.epoch_path = self.data_dir / "epoch.json"
        self.leader_epoch = load_epoch(self.epoch_path)
        self._have_results = set(self.store.keys())

        self.records_applied = 0
        self.snapshots_mirrored = 0
        self.results_mirrored = 0
        self.sync_rounds = 0
        self.misses = 0
        self.last_error = ""

    # ----------------------------------------------------------------- sync

    def sync_once(self) -> None:
        """One replication pull; raises ServiceError when the leader is
        unreachable or answers garbage (one "miss" for the detector)."""
        status, state = self.client.get(
            f"/replication/state?since={self.applied_seq}"
        )
        if status != 200 or "seq" not in state:
            raise ServiceError(
                f"replication pull answered {status}: {state.get('error', state)}"
            )
        # Journal state FIRST (it was read under the leader's lock
        # together with the key list), results after — never the other
        # way around, or a completion could land journal-visible here
        # with its result not yet fetchable.
        epoch = int(state.get("epoch", 1))
        if epoch != self.leader_epoch:
            self.leader_epoch = epoch
            store_epoch(self.epoch_path, epoch)
        snapshot = state.get("snapshot")
        if snapshot:
            self.journal.write_snapshot(
                snapshot["state"], seq=int(snapshot["seq"])
            )
            self.applied_seq = int(snapshot["seq"])
            self.snapshots_mirrored += 1
        for record in state.get("records", []):
            if self.journal.append_replica(record):
                self.records_applied += 1
        self.applied_seq = max(self.applied_seq, self.journal.seq)
        for key in state.get("result_keys", []):
            if key in self._have_results:
                continue
            rstatus, payload = self.client.get(f"/replication/result?key={key}")
            if rstatus == 200 and isinstance(payload.get("summary"), dict):
                self.store.put(
                    key, payload["summary"], payload.get("recipe", {})
                )
                self._have_results.add(key)
                self.results_mirrored += 1
        self.sync_rounds += 1

    # ------------------------------------------------------------ promotion

    def run(self) -> CampaignManager | None:
        """Follow the leader until it is lost (→ promote, return the new
        manager) or :meth:`stop` is called (→ None)."""
        while not self.stop_event.is_set():
            try:
                self.sync_once()
                self.misses = 0
            except ServiceError as exc:
                self.misses += 1
                self.last_error = str(exc)
                if self.misses >= self.misses_to_promote:
                    self.recorder.record(
                        IncidentKind.LEADER_LOST,
                        f"leader {self.client.base_url} lost: "
                        f"{self.misses} consecutive replication pull(s) "
                        f"failed ({self.last_error})",
                        severity="warning",
                        leader=self.client.base_url,
                        misses=self.misses,
                        applied_seq=self.applied_seq,
                    )
                    return self.promote()
            if self.stop_event.wait(self.poll_interval_s):
                break
        return None

    def promote(self) -> CampaignManager:
        """Bump the fencing epoch, recover a full manager over the
        mirror, and record the ``promoted`` incident."""
        new_epoch = self.leader_epoch + 1
        store_epoch(self.epoch_path, new_epoch)
        self.journal.close()
        manager = CampaignManager(
            self.data_dir,
            policy=self.policy,
            recorder=self.recorder,
            clock=self.clock,
            snapshot_every=self.snapshot_every,
            reclaim_grace_s=self.reclaim_grace_s,
        )
        self.recorder.record(
            IncidentKind.PROMOTED,
            f"standby promoted to leader at epoch {new_epoch} "
            f"(mirrored seq {self.applied_seq}, "
            f"{len(self._have_results)} result(s))",
            severity="warning",
            epoch=new_epoch,
            applied_seq=self.applied_seq,
            campaigns=len(manager.campaigns),
        )
        self.manager = manager
        self.promoted_event.set()
        return manager

    def stop(self) -> None:
        self.stop_event.set()

    # ------------------------------------------------------------ telemetry

    def status(self) -> dict:
        return {
            "role": "leader" if self.manager is not None else "standby",
            "leader": self.client.base_url,
            "leader_epoch": self.leader_epoch,
            "applied_seq": self.applied_seq,
            "sync_rounds": self.sync_rounds,
            "records_applied": self.records_applied,
            "snapshots_mirrored": self.snapshots_mirrored,
            "results_mirrored": self.results_mirrored,
            "misses": self.misses,
            "last_error": self.last_error,
        }
