"""Tests for the campaign service (src/repro/service/).

Covers the lease queue's deadline/backoff/quarantine semantics under a
fake clock, the strict request schemas, the write-ahead journal's
corruption taxonomy (torn tail vs bit flip vs snapshot loss), the
content-addressed result store's idempotence, the manager state machine
(including restart recovery and journal-corruption healing), the REST
API over real HTTP, the worker agent, and the shutdown-hardening
satellites (KeyboardInterrupt flushes checkpoints; missing files are
silent misses, not incidents).

The acceptance property: a service campaign that loses a worker to
SIGKILL *and* has its manager killed and restarted mid-run must produce
a CampaignResult counter-for-counter identical to a serial fault-free
``run_campaign`` of the same spec.
"""

from __future__ import annotations

import json
import multiprocessing
import time

import pytest

from repro.cli import build_parser, main as cli_main
from repro.errors import SchemaError, ServiceError
from repro.experiments.runner import (
    _load_checkpoint,
    _save_checkpoint,
    run_campaign,
)
from repro.experiments.scale import SMOKE
from repro.resilience import IncidentRecorder, SupervisorPolicy
from repro.resilience.integrity import read_artifact
from repro.service import (
    CampaignManager,
    CampaignSpec,
    CompleteRequest,
    Journal,
    LeaseQueue,
    ResultStore,
    ShardPhase,
    shard_result_key,
)
from repro.service.api import ManagerServer
from repro.service.schemas import FailRequest, LeaseRequest
from repro.service.store import RESULT_SCHEMA, RESULT_SCHEMA_VERSION
from repro.service.worker import ManagerClient, WorkerAgent


class Clock:
    """Deterministic monotonic clock for lease tests."""

    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


#: Fast-converging lease knobs: TTL 10s on the fake clock, tiny backoff.
FAST = SupervisorPolicy(
    shard_deadline_s=10.0,
    max_shard_failures=3,
    backoff_base_s=1.0,
    backoff_factor=2.0,
    poll_interval_s=0.01,
)


def _outcome(key: str, failed: str | None = None) -> dict:
    """Synthetic worker outcome, deterministic per key."""
    if failed is not None:
        return {"key": key, "attempts": 1, "retries": 0, "failed": failed, "summary": None}
    return {
        "key": key,
        "attempts": 1,
        "retries": 0,
        "failed": None,
        "summary": {"speedup": 1.0 + len(key) / 100.0, "instructions": 1000},
    }


# --------------------------------------------------------------- lease queue


class TestLeaseQueue:
    def _queue(self):
        clock = Clock()
        return LeaseQueue(FAST, clock=clock), clock

    def test_fifo_acquire_and_complete(self):
        q, _ = self._queue()
        q.add("a", {"n": 1})
        q.add("b", {"n": 2})
        lease, payload = q.acquire("w1")
        assert (lease.key, payload) == ("a", {"n": 1})
        assert lease.attempt == 1
        assert q.phase("a") is ShardPhase.LEASED
        assert q.complete("a") == "completed"
        assert q.phase("a") is ShardPhase.COMPLETED
        assert q.acquire("w1")[0].key == "b"
        assert q.counts() == {"pending": 0, "leased": 1, "completed": 1, "quarantined": 0}

    def test_duplicate_add_rejected(self):
        q, _ = self._queue()
        q.add("a", {})
        with pytest.raises(ServiceError):
            q.add("a", {})

    def test_renew_extends_deadline(self):
        q, clock = self._queue()
        q.add("a", {})
        lease, _ = q.acquire("w1")
        clock.advance(8.0)
        renewed = q.renew(lease.lease_id, "w1")
        assert renewed is not None and renewed.expires_at == pytest.approx(18.0)
        clock.advance(8.0)  # t=16 < 18: still alive thanks to the renewal
        assert q.expire() == []
        clock.advance(3.0)  # t=19 > 18: now it expires
        events = q.expire()
        assert [e.key for e in events] == ["a"]
        assert not events[0].quarantined

    def test_unrenewed_lease_expires_and_requeues_with_backoff(self):
        q, clock = self._queue()
        q.add("a", {})
        q.acquire("w1")
        clock.advance(10.1)
        events = q.expire()
        assert len(events) == 1 and events[0].failures == 1
        assert q.phase("a") is ShardPhase.PENDING
        # Still backing off: not leasable yet.
        assert q.acquire("w2") is None
        clock.advance(events[0].backoff_s + 0.01)
        lease, _ = q.acquire("w2")
        assert lease.key == "a" and lease.attempt == 2

    def test_quarantine_after_failure_budget(self):
        q, clock = self._queue()
        q.add("a", {})
        for i in range(FAST.max_shard_failures):
            clock.advance(FAST.backoff(i) + 0.01)
            assert q.acquire("w1") is not None
            clock.advance(FAST.shard_deadline_s + 0.1)
            events = q.expire()
        assert events[-1].quarantined
        assert q.phase("a") is ShardPhase.QUARANTINED
        assert q.acquire("w1") is None

    def test_completion_is_idempotent_and_heals_quarantine(self):
        q, _ = self._queue()
        q.add("a", {})
        q.acquire("w1")
        assert q.complete("a") == "completed"
        assert q.complete("a") == "deduped"
        q.add("b", {})
        q.quarantine("b", "gave up")
        assert q.complete("b") == "healed"
        assert q.phase("b") is ShardPhase.COMPLETED
        assert q.complete("nope") == "unknown"

    def test_completion_accepted_from_pending(self):
        # Manager restart: lease forgotten, shard pending again — the old
        # worker's late delivery must still land.
        q, _ = self._queue()
        q.add("a", {})
        assert q.complete("a") == "completed"

    def test_renew_wrong_worker_or_expired_is_refused(self):
        q, clock = self._queue()
        q.add("a", {})
        lease, _ = q.acquire("w1")
        assert q.renew(lease.lease_id, "w2") is None
        clock.advance(10.1)
        assert q.renew(lease.lease_id, "w1") is None  # expired: no resurrection
        assert q.renew("L999", "w1") is None

    def test_worker_reported_failure_and_discard(self):
        q, clock = self._queue()
        q.add("a", {})
        q.acquire("w1")
        quarantined, backoff = q.fail("a", "boom")
        assert not quarantined and backoff > 0
        assert q.failures("a") == 1 and q.last_error("a") == "boom"
        q.discard("a")
        assert q.phase("a") is None

    # ------------------------------------------------------ dependencies

    def test_blocked_shard_is_never_acquired(self):
        q, clock = self._queue()
        q.add("art", {})
        q.add("pair", {}, after=("art",))
        assert q.acquire("w1")[0].key == "art"
        # The dependency is leased: the pair stays blocked, even for a
        # second worker and across time.
        assert q.acquire("w2") is None
        clock.advance(5.0)
        assert q.acquire("w2") is None
        assert q.phase("pair") is ShardPhase.PENDING

    def test_completed_dependency_releases(self):
        q, _ = self._queue()
        q.add("art", {})
        q.add("pair", {"n": 1}, after=("art",))
        q.acquire("w1")
        q.complete("art")
        lease, payload = q.acquire("w2")
        assert (lease.key, payload) == ("pair", {"n": 1})

    def test_quarantined_dependency_releases(self):
        q, clock = self._queue()
        q.add("art", {})
        q.add("pair", {}, after=("art",))
        for _ in range(FAST.max_shard_failures):
            clock.advance(30.0)  # past any backoff
            assert q.acquire("w1")[0].key == "art"
            q.fail("art", "boom")
        assert q.phase("art") is ShardPhase.QUARANTINED
        assert q.acquire("w1")[0].key == "pair"

    def test_blocked_until_every_dependency_finishes(self):
        q, _ = self._queue()
        q.add("a", {})
        q.add("b", {})
        q.add("pair", {}, after=("a", "b"))
        q.acquire("w1")
        q.acquire("w2")
        q.complete("a")
        assert q.acquire("w3") is None
        q.quarantine("b", "gave up")
        assert q.acquire("w3")[0].key == "pair"

    def test_next_ready_at_ignores_blocked_shards(self):
        q, clock = self._queue()
        q.add("art", {})
        q.add("pair", {}, after=("art",))
        assert q.next_ready_at() == 0.0  # the dependency itself is ready
        q.acquire("w1")
        # Only the blocked pair is pending: nothing to wake up for.
        assert q.next_ready_at() is None
        _quarantined, backoff = q.fail("art", "boom")
        # A backed-off dependency's ready_at still counts; the pair's
        # (zero) ready_at does not.
        assert q.next_ready_at() == pytest.approx(clock() + backoff)
        assert q.acquire("w1") is None

    def test_unknown_after_key_rejected(self):
        q, _ = self._queue()
        q.add("a", {})
        with pytest.raises(ServiceError, match="unqueued"):
            q.add("pair", {}, after=("a", "later"))
        assert q.phase("pair") is None
        with pytest.raises(ServiceError):
            q.add("self", {}, after=("self",))

    def test_order_without_dependencies_is_unchanged(self):
        q, clock = self._queue()
        for key in "abcd":
            q.add(key, {})
        q.acquire("w0")  # a
        q.fail("a", "boom")  # backs off behind b, c, d
        order = []
        while True:
            clock.advance(0.1)
            granted = q.acquire("w1")
            if granted is None:
                if not q.has_work():
                    break
                clock.advance(FAST.backoff(1))
                continue
            order.append(granted[0].key)
            q.complete(granted[0].key)
        assert order == ["b", "c", "d", "a"]


# ------------------------------------------------------------------ schemas


class TestSchemas:
    def test_spec_roundtrip_and_defaults(self):
        spec = CampaignSpec.from_dict({"workloads": ["apache"]})
        assert spec.abtb_sizes == (256,) and spec.scale == "smoke"
        assert CampaignSpec.from_dict(spec.as_dict()) == spec

    @pytest.mark.parametrize(
        "body",
        [
            {},
            {"workloads": []},
            {"workloads": ["nope"]},
            {"workloads": ["apache", "apache"]},
            {"workloads": ["apache"], "abtb_sizes": [0]},
            {"workloads": ["apache"], "abtb_sizes": [True]},
            {"workloads": ["apache"], "abtb_sizes": [64, 64]},
            {"workloads": ["apache"], "scale": "huge"},
            {"workloads": ["apache"], "backend": "gpu"},
            {"workloads": ["apache"], "timeout_s": -1},
            {"workloads": ["apache"], "max_retries": -1},
            {"workloads": ["apache"], "surprise": 1},
            {"workloads": "apache"},
        ],
    )
    def test_spec_rejects_bad_bodies(self, body):
        with pytest.raises(SchemaError):
            CampaignSpec.from_dict(body)

    def test_complete_request_needs_summary_or_failure(self):
        with pytest.raises(SchemaError):
            CompleteRequest.from_dict(
                {"campaign_id": "c", "key": "k", "worker_id": "w", "outcome": {}}
            )
        ok = CompleteRequest.from_dict(
            {
                "campaign_id": "c", "key": "k", "worker_id": "w",
                "outcome": {"summary": {"speedup": 1.0}},
            }
        )
        assert ok.outcome["summary"]["speedup"] == 1.0

    def test_lease_and_fail_requests_validate(self):
        with pytest.raises(SchemaError):
            LeaseRequest.from_dict({"worker_id": ""})
        with pytest.raises(SchemaError):
            FailRequest.from_dict({"campaign_id": "c", "key": "k", "worker_id": "w"})


# ------------------------------------------------------------------ journal


class TestJournal:
    def test_append_load_roundtrip(self, tmp_path):
        j = Journal(tmp_path / "j")
        j.open_for_append(0)
        j.append("submit", {"campaign_id": "c1"})
        j.append("complete", {"key": "a"})
        j.close()
        state = Journal(tmp_path / "j").load()
        assert [r["type"] for r in state.records] == ["submit", "complete"]
        assert state.problems == [] and state.last_seq == 2

    def test_torn_tail_is_dropped_as_expected_crash(self, tmp_path):
        j = Journal(tmp_path / "j")
        j.open_for_append(0)
        j.append("submit", {"campaign_id": "c1"})
        j.close()
        with open(j.wal_path, "a") as fh:
            fh.write('{"seq": 2, "type": "compl')  # crash mid-append
        state = Journal(tmp_path / "j").load()
        assert len(state.records) == 1
        assert any("torn tail" in p for p in state.problems)

    def test_bitflip_is_detected_and_skipped(self, tmp_path):
        j = Journal(tmp_path / "j")
        j.open_for_append(0)
        j.append("submit", {"campaign_id": "c1"})
        j.append("complete", {"key": "a"})
        j.append("complete", {"key": "b"})
        j.close()
        lines = j.wal_path.read_text().splitlines()
        lines[1] = lines[1].replace('"key": "a"', '"key": "z"')  # corrupt record 2
        j.wal_path.write_text("\n".join(lines) + "\n")
        state = Journal(tmp_path / "j").load()
        assert [r["seq"] for r in state.records] == [1, 3]
        assert any("checksum mismatch" in p for p in state.problems)

    def test_snapshot_truncates_and_replay_skips_covered(self, tmp_path):
        j = Journal(tmp_path / "j")
        j.open_for_append(0)
        j.append("submit", {"campaign_id": "c1"})
        j.write_snapshot({"campaigns": {"c1": {}}})
        j.append("complete", {"key": "a"})
        j.close()
        state = Journal(tmp_path / "j").load()
        assert state.snapshot == {"campaigns": {"c1": {}}}
        assert [r["type"] for r in state.records] == ["complete"]
        assert state.last_seq == 2

    def test_corrupt_snapshot_is_reported_not_fatal(self, tmp_path):
        j = Journal(tmp_path / "j")
        j.open_for_append(0)
        j.write_snapshot({"x": 1})
        j.close()
        text = j.snapshot_path.read_text()
        j.snapshot_path.write_text("garbage" + text)
        state = Journal(tmp_path / "j").load()
        assert state.snapshot is None
        assert any("snapshot" in p for p in state.problems)


# -------------------------------------------------------------- result store


class TestResultStore:
    def test_put_get_and_dedupe(self, tmp_path):
        store = ResultStore(tmp_path)
        key = shard_result_key("apache", 64, "smoke")
        _, deduped = store.put(key, {"speedup": 1.5}, {"workload": "apache"})
        assert not deduped
        _, deduped = store.put(key, {"speedup": 1.5}, {"workload": "apache"})
        assert deduped and store.dedups == 1
        assert store.get(key)["summary"] == {"speedup": 1.5}

    def test_conflicting_second_write_keeps_first_and_records(self, tmp_path):
        recorder = IncidentRecorder()
        store = ResultStore(tmp_path, recorder=recorder)
        key = shard_result_key("apache", 64, "smoke")
        store.put(key, {"speedup": 1.5}, {})
        store.put(key, {"speedup": 9.9}, {})
        assert store.get(key)["summary"]["speedup"] == 1.5
        assert recorder.counts().get("result_conflict") == 1

    def test_divergence_marker_is_not_a_conflict(self, tmp_path):
        recorder = IncidentRecorder()
        store = ResultStore(tmp_path, recorder=recorder)
        key = shard_result_key("apache", 64, "smoke")
        store.put(key, {"speedup": 1.5}, {})
        store.put(key, {"speedup": 1.5, "diverged_backend": True}, {})
        assert "result_conflict" not in recorder.counts()

    def test_corrupt_result_is_miss_with_incident(self, tmp_path):
        recorder = IncidentRecorder()
        store = ResultStore(tmp_path, recorder=recorder)
        key = shard_result_key("apache", 64, "smoke")
        path, _ = store.put(key, {"speedup": 1.5}, {})
        path.write_text(path.read_text().replace("1.5", "2.5"))
        assert store.get(key) is None
        assert recorder.counts().get("result_corrupt") == 1

    def test_missing_result_is_silent_miss(self, tmp_path):
        recorder = IncidentRecorder()
        store = ResultStore(tmp_path, recorder=recorder)
        assert store.get("nope") is None
        assert recorder.counts() == {}

    def test_results_share_envelope_schema(self, tmp_path):
        store = ResultStore(tmp_path)
        key = shard_result_key("apache", 64, "smoke")
        path, _ = store.put(key, {"speedup": 1.0}, {})
        payload = read_artifact(path, RESULT_SCHEMA, RESULT_SCHEMA_VERSION)
        assert payload["key"] == key


# ------------------------------------------------------------------ manager


def _drain(manager: CampaignManager, worker_id: str = "w") -> None:
    """Complete every leasable shard with synthetic outcomes."""
    manager.register_worker(worker_id)
    while True:
        grant = manager.lease(worker_id)
        if grant is None:
            break
        manager.complete(
            CompleteRequest(
                campaign_id=grant["campaign_id"],
                key=grant["key"],
                worker_id=worker_id,
                outcome=_outcome(grant["key"]),
            )
        )


class TestManager:
    def _manager(self, tmp_path, **kw):
        clock = Clock()
        kw.setdefault("policy", FAST)
        kw.setdefault("clock", clock)
        return CampaignManager(tmp_path / "svc", **kw), clock

    def test_lifecycle(self, tmp_path):
        manager, _ = self._manager(tmp_path)
        cid = manager.submit(CampaignSpec(workloads=("apache",), abtb_sizes=(16, 64)))
        assert manager.status(cid)["state"] == "running"
        assert manager.result(cid) is None
        _drain(manager)
        status = manager.status(cid)
        assert status["state"] == "complete"
        assert status["shards"] == {
            "total": 2, "pending": 0, "leased": 0, "completed": 2, "quarantined": 0,
        }
        result = manager.result(cid)
        assert set(result.completed) == {
            "apache::abtb=16::scale=smoke", "apache::abtb=64::scale=smoke",
        }
        assert result.ok and result.attempts == {k: 1 for k in result.completed}

    def test_double_completion_is_idempotent(self, tmp_path):
        manager, _ = self._manager(tmp_path)
        cid = manager.submit(CampaignSpec(workloads=("apache",), abtb_sizes=(16,)))
        grant = manager.lease("w1")
        request = CompleteRequest(
            campaign_id=cid, key=grant["key"], worker_id="w1",
            outcome=_outcome(grant["key"]),
        )
        assert manager.complete(request)["status"] == "completed"
        assert manager.complete(request)["status"] == "deduped"
        # Exactly one stored result file for the config hash.
        assert len(manager.store.keys()) == 1
        assert manager.result(cid).ok

    def test_expiry_requeues_then_quarantines_degraded(self, tmp_path):
        manager, clock = self._manager(tmp_path)
        cid = manager.submit(CampaignSpec(workloads=("apache",), abtb_sizes=(16,)))
        for i in range(FAST.max_shard_failures):
            clock.advance(FAST.backoff(i) + 0.01)
            assert manager.lease("w1") is not None
            clock.advance(FAST.shard_deadline_s + 0.1)
            manager.tick()
        counts = manager.recorder.counts()
        assert counts["lease_expired"] == 3
        assert counts["shard_quarantined"] == 1
        assert counts["shard_requeued"] == 2
        status = manager.status(cid)
        assert status["state"] == "degraded"
        result = manager.result(cid)
        assert result.degraded and set(result.quarantined) == {
            "apache::abtb=16::scale=smoke"
        }

    def test_late_completion_heals_quarantine(self, tmp_path):
        manager, clock = self._manager(tmp_path)
        cid = manager.submit(CampaignSpec(workloads=("apache",), abtb_sizes=(16,)))
        grant = None
        for i in range(FAST.max_shard_failures):
            clock.advance(FAST.backoff(i) + 0.01)
            grant = manager.lease("w1") or grant
            clock.advance(FAST.shard_deadline_s + 0.1)
            manager.tick()
        assert manager.status(cid)["state"] == "degraded"
        response = manager.complete(
            CompleteRequest(
                campaign_id=cid, key=grant["key"], worker_id="w1",
                outcome=_outcome(grant["key"]),
            )
        )
        assert response["status"] in ("completed", "healed")
        assert manager.status(cid)["state"] == "complete"
        assert manager.result(cid).ok

    def test_worker_reported_failures_quarantine(self, tmp_path):
        manager, clock = self._manager(tmp_path)
        cid = manager.submit(CampaignSpec(workloads=("apache",), abtb_sizes=(16,)))
        for i in range(FAST.max_shard_failures):
            clock.advance(FAST.backoff(i) + 0.01)
            grant = manager.lease("w1")
            response = manager.complete(
                CompleteRequest(
                    campaign_id=cid, key=grant["key"], worker_id="w1",
                    outcome=_outcome(grant["key"], failed="model exploded"),
                )
            )
        assert response["status"] == "quarantined"
        assert manager.result(cid).quarantined

    def test_cross_campaign_dedupe(self, tmp_path):
        manager, _ = self._manager(tmp_path)
        spec = CampaignSpec(workloads=("apache",), abtb_sizes=(16, 64))
        cid1 = manager.submit(spec)
        _drain(manager)
        cid2 = manager.submit(spec)
        # Second campaign completes instantly from the store: no leases.
        assert manager.status(cid2)["state"] == "complete"
        assert manager.lease("w9") is None
        assert manager.result(cid2).completed == manager.result(cid1).completed

    def test_cancel(self, tmp_path):
        manager, _ = self._manager(tmp_path)
        cid = manager.submit(CampaignSpec(workloads=("apache",), abtb_sizes=(16,)))
        assert manager.cancel(cid)
        assert not manager.cancel(cid)
        assert manager.status(cid)["state"] == "cancelled"
        assert manager.lease("w1") is None

    def test_restart_recovers_identical_result(self, tmp_path):
        spec = CampaignSpec(workloads=("apache", "mysql"), abtb_sizes=(16, 64))

        # Control: one manager, no interruption.
        control, _ = self._manager(tmp_path / "control")
        control_cid = control.submit(spec)
        _drain(control)
        expected = control.result(control_cid)

        # Crash drill: half the work, then the manager is abandoned
        # without shutdown (= SIGKILL; the WAL alone must carry it).
        crashed, _ = self._manager(tmp_path / "crash", snapshot_every=3)
        cid = crashed.submit(spec)
        crashed.register_worker("w1")
        for _ in range(2):
            grant = crashed.lease("w1")
            crashed.complete(
                CompleteRequest(
                    campaign_id=cid, key=grant["key"], worker_id="w1",
                    outcome=_outcome(grant["key"]),
                )
            )
        held = crashed.lease("w1")  # in-flight lease dies with the manager
        assert held is not None

        recovered = CampaignManager(
            tmp_path / "crash" / "svc", policy=FAST, clock=Clock()
        )
        assert recovered.recorder.counts().get("manager_recovered") == 1
        assert recovered.status(cid)["state"] == "running"
        # The in-flight lease was soft state: the shard is pending again.
        assert recovered.status(cid)["shards"]["pending"] == 2
        _drain(recovered, "w2")
        result = recovered.result(cid)
        assert result.completed == expected.completed
        assert result.attempts == expected.attempts
        assert result.failed == expected.failed == {}
        assert result.quarantined == expected.quarantined == {}

    def test_restart_heals_bitflipped_wal_from_store(self, tmp_path):
        manager, _ = self._manager(tmp_path)
        cid = manager.submit(CampaignSpec(workloads=("apache",), abtb_sizes=(16, 64)))
        _drain(manager)
        expected = manager.result(cid)
        wal = manager.journal.wal_path
        # Flip a byte inside a journaled completion record.
        lines = wal.read_text().splitlines()
        target = next(
            i for i, text in enumerate(lines) if '"type": "complete"' in text
        )
        lines[target] = lines[target].replace('"attempts": 1', '"attempts": 7')
        wal.write_text("\n".join(lines) + "\n")

        recovered = CampaignManager(tmp_path / "svc", policy=FAST, clock=Clock())
        counts = recovered.recorder.counts()
        assert counts.get("journal_corrupt", 0) >= 1
        # The dropped completion was reconciled back from the result store.
        assert recovered.status(cid)["state"] == "complete"
        assert recovered.result(cid).completed == expected.completed

    def test_graceful_shutdown_snapshots_and_refuses_further_work(self, tmp_path):
        manager, _ = self._manager(tmp_path)
        manager.submit(CampaignSpec(workloads=("apache",), abtb_sizes=(16,)))
        manager.shutdown()
        assert manager.recorder.counts().get("shutdown") == 1
        with pytest.raises(ServiceError):
            manager.submit(CampaignSpec(workloads=("apache",), abtb_sizes=(64,)))
        # Restart from the snapshot alone (WAL was truncated into it).
        recovered = CampaignManager(tmp_path / "svc", policy=FAST, clock=Clock())
        assert recovered.status("c0001")["state"] == "running"


# ---------------------------------------------------------------- rest api


@pytest.fixture()
def server(tmp_path):
    manager = CampaignManager(tmp_path / "svc", policy=FAST, clock=Clock())
    srv = ManagerServer(manager, port=0)
    srv.start()
    yield srv
    srv.stop(graceful=True)


class TestApi:
    def test_http_lifecycle(self, server):
        client = ManagerClient(server.url, retries=2)
        status, body = client.post(
            "/campaigns", {"workloads": ["apache"], "abtb_sizes": [16]}
        )
        assert status == 201
        cid = body["campaign_id"]

        status, registration = client.post("/workers/register", {"name": "t"})
        worker_id = registration["worker_id"]
        assert status == 200 and registration["lease_ttl_s"] == FAST.shard_deadline_s

        status, body = client.post("/leases", {"worker_id": worker_id})
        grant = body["lease"]
        assert status == 200 and grant["campaign_id"] == cid

        status, body = client.post(
            f"/leases/{grant['lease_id']}/renew", {"worker_id": worker_id}
        )
        assert status == 200 and body["renewed"]

        status, body = client.get(f"/campaigns/{cid}/result")
        assert status == 409  # still running

        status, body = client.post(
            "/shards/complete",
            {
                "campaign_id": cid, "key": grant["key"], "worker_id": worker_id,
                "outcome": _outcome(grant["key"]),
            },
        )
        assert (status, body["status"]) == (200, "completed")

        status, body = client.get(f"/campaigns/{cid}/result")
        assert status == 200 and grant["key"] in body["completed"]
        status, body = client.get("/campaigns")
        assert status == 200 and len(body["campaigns"]) == 1

    def test_renew_of_unknown_lease_is_gone(self, server):
        client = ManagerClient(server.url, retries=2)
        status, body = client.post("/leases/L999/renew", {"worker_id": "w"})
        assert status == 410 and body == {"renewed": False}

    def test_validation_and_routing_errors(self, server):
        client = ManagerClient(server.url, retries=2)
        assert client.post("/campaigns", {"workloads": ["nope"]})[0] == 400
        assert client.post("/campaigns", {"workloads": ["apache"], "x": 1})[0] == 400
        assert client.get("/campaigns/c9999")[0] == 404
        assert client.post("/no/such/route", {})[0] == 404
        assert client.post("/campaigns/c9999/cancel", {})[1] == {"cancelled": False}

    def test_metrics_incidents_healthz(self, server):
        client = ManagerClient(server.url, retries=2)
        client.post("/campaigns", {"workloads": ["apache"], "abtb_sizes": [16]})
        status, text = client.get_text("/metrics")
        assert status == 200 and "service_campaigns_submitted 1.0" in text
        status, body = client.get("/healthz")
        assert status == 200 and body["ok"] and body["campaigns"] == 1
        server.manager.recorder.record("shutdown", "drill", severity="info")
        status, text = client.get_text("/incidents")
        assert status == 200
        records = [json.loads(line) for line in text.splitlines()]
        assert any(r["kind"] == "shutdown" for r in records)


# ------------------------------------------------------- shutdown hardening


class TestShutdownHardening:
    @pytest.mark.parametrize("sharded", [False, True], ids=["serial", "sharded"])
    def test_run_campaign_interrupt_flushes_checkpoint(
        self, tmp_path, monkeypatch, sharded
    ):
        """Ctrl-C mid-campaign flushes every pair that already landed, so
        resume skips it — in the serial loop and in a sharded run."""
        checkpoint = tmp_path / "campaign.json"
        recorder = IncidentRecorder()
        if sharded:
            import repro.experiments.runner as runner

            class InterruptAfterFirst(runner.CampaignSupervisor):
                def __init__(self, *args, on_complete, **kwargs):
                    def landed(key, outcome):
                        on_complete(key, outcome)
                        raise KeyboardInterrupt

                    super().__init__(*args, on_complete=landed, **kwargs)

            monkeypatch.setattr(runner, "CampaignSupervisor", InterruptAfterFirst)
            options = {"jobs": 2}
        else:
            calls = []

            def run_fn(workload, scale, abtb):
                calls.append(abtb)
                if len(calls) == 2:
                    raise KeyboardInterrupt
                from repro.experiments.runner import run_pair

                return run_pair(workload, scale, abtb)

            options = {"run_fn": run_fn}

        with pytest.raises(KeyboardInterrupt):
            run_campaign(
                ["apache"], SMOKE, abtb_sizes=(16, 64, 256),
                checkpoint_path=checkpoint, recorder=recorder, **options,
            )
        assert recorder.counts().get("shutdown") == 1
        resumed = _load_checkpoint(checkpoint, recorder)
        if sharded:
            # Whichever shard landed first is the one the checkpoint keeps.
            assert len(resumed) == 1
            assert set(resumed) < {
                f"apache::abtb={n}::scale=smoke" for n in (16, 64, 256)
            }
        else:
            assert set(resumed) == {"apache::abtb=16::scale=smoke"}

    def test_load_checkpoint_missing_is_silent(self, tmp_path):
        recorder = IncidentRecorder()
        assert _load_checkpoint(tmp_path / "absent.json", recorder) == {}
        assert _load_checkpoint(tmp_path / "absent.json", None) == {}
        assert recorder.counts() == {}

    def test_save_then_load_still_roundtrips(self, tmp_path):
        path = tmp_path / "ck.json"
        _save_checkpoint(path, {"k": {"speedup": 1.0}})
        assert _load_checkpoint(path, None) == {"k": {"speedup": 1.0}}

    def test_cli_campaign_interrupt_exits_130(self, tmp_path, monkeypatch, capsys):
        import repro.cli as cli

        def boom(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "run_campaign", boom)
        code = cli_main(
            ["campaign", "--workloads", "apache", "--abtb", "16",
             "--incidents-out", str(tmp_path / "inc.jsonl")]
        )
        assert code == 130
        assert "interrupted" in capsys.readouterr().err

    def test_cli_parser_has_service_commands(self):
        parser = build_parser()
        args = parser.parse_args(
            ["serve", "--data-dir", "d", "--port", "0", "--lease-ttl", "5"]
        )
        assert args.func.__name__ == "_cmd_serve"
        args = parser.parse_args(["worker", "--manager", "http://x", "--max-idle", "3"])
        assert args.func.__name__ == "_cmd_worker"
        args = parser.parse_args(
            ["submit", "--workloads", "apache", "--abtb", "16", "--no-wait"]
        )
        assert args.func.__name__ == "_cmd_submit" and not args.wait

    def test_atomic_writers_leave_no_tmp_litter(self, tmp_path):
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.tracer import Tracer

        recorder = IncidentRecorder()
        recorder.record("shutdown", "x", severity="info")
        recorder.write_jsonl(tmp_path / "inc.jsonl")
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.write(str(tmp_path / "m.prom"))
        registry.write(str(tmp_path / "m.jsonl"))
        tracer = Tracer()
        tracer.instant("x")
        tracer.write(str(tmp_path / "t.json"))
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "inc.jsonl", "m.jsonl", "m.prom", "t.json",
        ]
        assert json.loads((tmp_path / "t.json").read_text())["traceEvents"]


# ------------------------------------------------------------- worker + e2e


def _worker_proc(url: str, cache_dir: str, kill_after: int) -> None:
    """Subprocess entry point (module-level for spawn picklability)."""
    from repro.service.worker import ManagerClient, WorkerAgent, WorkerChaos

    chaos = WorkerChaos(kill_after_leases=kill_after) if kill_after else None
    agent = WorkerAgent(
        ManagerClient(url, retries=120, retry_delay_s=0.25),
        name="kill" if kill_after else "steady",
        poll_interval_s=0.1,
        max_idle_s=5.0,
        machine_cache_dir=cache_dir,
        chaos=chaos,
    )
    agent.run()


class TestWorkerAndRecoveryE2E:
    def test_worker_agent_executes_real_shard(self, tmp_path):
        cache = str(tmp_path / "cache")
        serial = run_campaign(["apache"], SMOKE, abtb_sizes=(16,), machine_cache_dir=cache)
        manager = CampaignManager(tmp_path / "svc", policy=SupervisorPolicy())
        server = ManagerServer(manager, port=0)
        server.start()
        try:
            client = ManagerClient(server.url, retries=3)
            _, body = client.post(
                "/campaigns", {"workloads": ["apache"], "abtb_sizes": [16]}
            )
            agent = WorkerAgent(
                ManagerClient(server.url, retries=3),
                max_idle_s=1.0, poll_interval_s=0.05, machine_cache_dir=cache,
            )
            stats = agent.run()
            assert stats["shards_done"] == 1
            result = manager.result(body["campaign_id"])
            assert result.completed == serial.completed
        finally:
            server.stop(graceful=True)

    def test_acceptance_worker_sigkill_and_manager_restart(self, tmp_path):
        """The ISSUE's acceptance criterion, end to end: one worker is
        SIGKILL'd mid-campaign AND the manager is killed (non-graceful
        stop, journal not closed) and restarted on the same port; the
        final CampaignResult must match a serial fault-free run
        counter-for-counter."""
        cache = str(tmp_path / "cache")
        spec = {"workloads": ["apache"], "abtb_sizes": [16, 64, 256]}
        serial = run_campaign(
            ["apache"], SMOKE, abtb_sizes=(16, 64, 256), machine_cache_dir=cache
        )

        policy = SupervisorPolicy(shard_deadline_s=3.0, max_shard_failures=5)
        data_dir = tmp_path / "svc"
        manager1 = CampaignManager(data_dir, policy=policy)
        server1 = ManagerServer(manager1, port=0)
        server1.start()
        port = server1.port

        ctx = multiprocessing.get_context("spawn")
        workers = [
            ctx.Process(target=_worker_proc, args=(server1.url, cache, 1)),
            ctx.Process(target=_worker_proc, args=(server1.url, cache, 0)),
        ]
        for w in workers:
            w.start()
        try:
            client = ManagerClient(server1.url, retries=3)
            _, body = client.post("/campaigns", spec)
            cid = body["campaign_id"]

            # Wait for the SIGKILL'd worker's lease to expire (proves the
            # expiry path ran), then kill the manager non-gracefully.
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                if manager1.recorder.counts().get("lease_expired"):
                    break
                time.sleep(0.1)
            assert manager1.recorder.counts().get("lease_expired"), (
                "worker SIGKILL never surfaced as a lease expiry"
            )
            server1.stop(graceful=False)  # journal left open = crash

            manager2 = CampaignManager(data_dir, policy=policy)
            assert manager2.recorder.counts().get("manager_recovered") == 1
            server2 = ManagerServer(manager2, port=port)
            server2.start()
            try:
                deadline = time.monotonic() + 90.0
                while time.monotonic() < deadline:
                    status = manager2.status(cid)
                    if status["state"] in ("complete", "degraded"):
                        break
                    time.sleep(0.2)
                assert manager2.status(cid)["state"] == "complete"
                result = manager2.result(cid)
                assert result.completed == serial.completed
                assert result.failed == serial.failed == {}
                assert result.quarantined == serial.quarantined == {}
                assert result.attempts == serial.attempts
            finally:
                server2.stop(graceful=True)
        finally:
            for w in workers:
                w.join(timeout=30.0)
                if w.is_alive():
                    w.terminate()
                    w.join(timeout=5.0)
