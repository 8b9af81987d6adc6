"""Tests for the resilience layer.

Covers the integrity envelope (checksummed, schema-versioned artifacts),
checkpoint-corruption handling in both the machine cache and the campaign
checkpoint, the binary trace codec's corruption taxonomy, the campaign
supervisor (kill/requeue, spill salvage, hang/quarantine), the backend
divergence watchdog, the incident recorder, and the ``incidents`` CLI.

The acceptance property threaded through the campaign tests: a campaign
that survives a SIGKILLed worker, a corrupted machine checkpoint and a
forced backend divergence must still produce counters identical to an
unperturbed serial reference run.
"""

from __future__ import annotations

import json
import os
import queue as queue_mod
import time
from collections import deque

import pytest

from repro.cli import main as cli_main
from repro.errors import (
    CheckpointCorruptionError,
    ConfigError,
    ExperimentError,
    TraceCorruptionError,
    TraceError,
)
from repro.experiments.runner import (
    CHECKPOINT_SCHEMA,
    CHECKPOINT_VERSION,
    _load_checkpoint,
    _save_checkpoint,
    pair_key,
    run_campaign,
    run_pair,
    summarize_pair,
)
from repro.experiments.scale import SMOKE
from repro.isa import events as ev
from repro.resilience import (
    CampaignSupervisor,
    FaultPlan,
    IncidentKind,
    IncidentRecorder,
    ShardPhase,
    SupervisorPolicy,
    WatchdogPolicy,
    payload_checksum,
    read_artifact,
    validate_incident_log,
    write_artifact,
)
from repro.resilience.incidents import load_incident_log
from repro.resilience.supervisor import _Worker
from repro.trace.batch import TRACE_HEADER_SIZE, TraceBatch
from repro.uarch import CPU
from repro.uarch.machine import (
    MACHINE_STATE_SCHEMA,
    MACHINE_STATE_VERSION,
    CheckpointStore,
    MachineState,
)

# Fast-converging knobs for supervisor tests: short heartbeats, short
# deadlines, near-instant backoff.  Wall clock per test stays well under
# the shortest deadline * retry budget.
FAST = SupervisorPolicy(
    shard_deadline_s=2.0,
    heartbeat_interval_s=0.05,
    max_shard_failures=3,
    backoff_base_s=0.05,
    backoff_factor=2.0,
    poll_interval_s=0.02,
)


# ------------------------------------------------------------------ helpers


def _echo_worker(payload):
    """Module-level (hence picklable under spawn) campaign worker."""
    return {
        "key": payload["key"],
        "failed": False,
        "attempts": 1,
        "retries": 0,
        "summary": {"value": payload["value"] * 2},
        "incidents": [],
    }


def _pid_worker(payload):
    """Echo worker whose summary names the process that ran the shard."""
    return {**_echo_worker(payload), "summary": {"pid": os.getpid()}}


def _raising_worker(payload):
    raise RuntimeError(f"worker bug for {payload['key']}")


def _machine_state() -> MachineState:
    cpu = CPU()
    cpu.run([ev.block(0x1000, 50), ev.call_direct(0x10C8, 0x2000), ev.block(0x2000, 10)])
    return MachineState.capture(cpu, trace_position=3)


def _strip_divergence(completed: dict) -> dict:
    """Campaign counters with the watchdog's marker flag removed."""
    out = {}
    for key, summary in completed.items():
        summary = dict(summary)
        summary.pop("diverged_backend", None)
        out[key] = summary
    return out


# ------------------------------------------------------ integrity envelope


class TestIntegrityEnvelope:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "artifact.json"
        payload = {"b": [1, 2, 3], "a": {"nested": True}}
        write_artifact(path, payload, "repro.test", 1)
        assert read_artifact(path, "repro.test", 1) == payload
        # One compact line, exactly the sorted-key encoding of the
        # envelope, checksummed as the service journal checksums records.
        envelope = json.loads(path.read_text())
        assert envelope["sha256"] == payload_checksum(payload)
        assert path.read_text() == json.dumps(envelope, sort_keys=True)

    def test_equal_payloads_write_identical_bytes(self, tmp_path):
        one = {"b": [1, 2], "a": {"y": 1, "x": 2}}
        other = {"a": {"x": 2, "y": 1}, "b": [1, 2]}  # equal, built in another order
        first = write_artifact(tmp_path / "1.json", one, "repro.test", 1)
        second = write_artifact(tmp_path / "2.json", other, "repro.test", 1)
        assert first.read_bytes() == second.read_bytes()
        state = _machine_state()
        saved = [state.save(tmp_path / f"m{i}.json").read_bytes() for i in range(2)]
        assert saved[0] == saved[1]

    @pytest.mark.parametrize("kind", ["machine-state", "campaign-checkpoint"])
    def test_indented_envelope_still_reads(self, tmp_path, kind):
        """Artifacts written by the earlier indented writer keep loading."""
        path = tmp_path / "old.json"
        if kind == "machine-state":
            state = _machine_state()
            payload = json.loads(state.to_json())
            schema, version = MACHINE_STATE_SCHEMA, MACHINE_STATE_VERSION
        else:
            payload = {"completed": {"a": {"n": 1}}}
            schema, version = CHECKPOINT_SCHEMA, CHECKPOINT_VERSION
        envelope = {
            "schema": schema,
            "schema_version": version,
            "sha256": payload_checksum(payload),
            "payload": payload,
        }
        path.write_text(json.dumps(envelope, indent=2, sort_keys=True))
        if kind == "machine-state":
            assert MachineState.load(path).cpu == payload["cpu"]
        else:
            assert _load_checkpoint(path) == payload["completed"]

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "artifact.json"
        write_artifact(path, {"x": 1}, "repro.test", 1)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(CheckpointCorruptionError) as exc:
            read_artifact(path, "repro.test", 1)
        assert exc.value.reason == "not-json"

    def test_bitflip_rejected(self, tmp_path):
        path = tmp_path / "artifact.json"
        write_artifact(path, {"counter": 12345}, "repro.test", 1)
        path.write_text(path.read_text().replace("12345", "12346"))
        with pytest.raises(CheckpointCorruptionError) as exc:
            read_artifact(path, "repro.test", 1)
        assert exc.value.reason == "checksum-mismatch"

    def test_wrong_schema_and_version_rejected(self, tmp_path):
        path = tmp_path / "artifact.json"
        write_artifact(path, {"x": 1}, "repro.test", 1)
        with pytest.raises(CheckpointCorruptionError) as exc:
            read_artifact(path, "repro.other", 1)
        assert exc.value.reason == "wrong-schema"
        with pytest.raises(CheckpointCorruptionError) as exc:
            read_artifact(path, "repro.test", 2)
        assert exc.value.reason == "wrong-version"

    def test_not_an_envelope_rejected(self, tmp_path):
        path = tmp_path / "artifact.json"
        path.write_text(json.dumps({"just": "some json"}))
        with pytest.raises(CheckpointCorruptionError) as exc:
            read_artifact(path, "repro.test", 1)
        assert exc.value.reason == "bad-envelope"


# ------------------------------------------------- machine checkpoint store


class TestCheckpointStoreCorruption:
    def test_roundtrip_hits(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save("k", _machine_state())
        loaded = store.load("k")
        assert loaded is not None and loaded.trace_position == 3
        assert store.hits == 1 and store.misses == 0

    def test_truncated_is_miss_with_incident(self, tmp_path):
        recorder = IncidentRecorder()
        store = CheckpointStore(tmp_path, recorder=recorder)
        path = store.save("k", _machine_state())
        path.write_text(path.read_text()[:40])
        assert store.load("k") is None
        assert store.misses == 1
        assert recorder.counts() == {"checkpoint_corrupt": 1}
        assert recorder.incidents[0].context["key"] == "k"

    def test_bitflip_is_miss_with_incident(self, tmp_path):
        recorder = IncidentRecorder()
        store = CheckpointStore(tmp_path, recorder=recorder)
        path = store.save("k", _machine_state())
        raw = bytearray(path.read_bytes())
        # Flip a bit in the payload body, past the envelope header.
        raw[len(raw) // 2] ^= 0x01
        path.write_bytes(bytes(raw))
        assert store.load("k") is None
        assert recorder.counts() == {"checkpoint_corrupt": 1}

    def test_wrong_version_is_miss_with_incident(self, tmp_path):
        recorder = IncidentRecorder()
        store = CheckpointStore(tmp_path, recorder=recorder)
        path = store.save("k", _machine_state())
        envelope = json.loads(path.read_text())
        envelope["schema_version"] = MACHINE_STATE_VERSION + 40
        path.write_text(json.dumps(envelope))
        assert store.load("k") is None
        assert recorder.counts() == {"checkpoint_corrupt": 1}
        assert "wrong-version" in recorder.incidents[0].context["reason"]

    def test_corrupt_checkpoint_never_restored(self, tmp_path):
        # The poisoned payload must not leak into a CPU even partially.
        store = CheckpointStore(tmp_path, recorder=IncidentRecorder())
        path = store.save("k", _machine_state())
        envelope = json.loads(path.read_text())
        envelope["payload"]["cpu"] = {"hostile": True}
        path.write_text(json.dumps(envelope))
        assert store.load("k") is None

    def test_envelope_schema_is_machine_state(self, tmp_path):
        store = CheckpointStore(tmp_path)
        path = store.save("k", _machine_state())
        envelope = json.loads(path.read_text())
        assert envelope["schema"] == MACHINE_STATE_SCHEMA
        assert envelope["schema_version"] == MACHINE_STATE_VERSION


# -------------------------------------------------- campaign checkpoint


class TestCampaignCheckpointCorruption:
    def test_strict_mode_raises(self, tmp_path):
        path = tmp_path / "campaign.json"
        _save_checkpoint(path, {"a": {"n": 1}})
        path.write_text(path.read_text().replace('"n"', '"m"'))
        with pytest.raises(ExperimentError):
            _load_checkpoint(path)

    def test_recorder_mode_requeues(self, tmp_path):
        path = tmp_path / "campaign.json"
        _save_checkpoint(path, {"a": {"n": 1}})
        path.write_text(path.read_text()[:30])
        recorder = IncidentRecorder()
        assert _load_checkpoint(path, recorder=recorder) == {}
        assert recorder.counts() == {"campaign_checkpoint_corrupt": 1}

    def test_clean_checkpoint_loads_either_way(self, tmp_path):
        path = tmp_path / "campaign.json"
        _save_checkpoint(path, {"a": {"n": 1}})
        assert _load_checkpoint(path) == {"a": {"n": 1}}
        assert _load_checkpoint(path, recorder=IncidentRecorder()) == {"a": {"n": 1}}


# ------------------------------------------------------- binary trace codec


def _sample_batch() -> TraceBatch:
    return TraceBatch.from_events(
        [
            ev.block(0x1000, 5),
            ev.call_indirect(0x1014, 0x2000, 0x3000),
            ev.mark(("begin", "get", 1)),
            ev.cond_branch(0x1020, 0x1040, False),
            ev.mark(None),
            ev.store(0x1030, 0x4000),
        ]
    )


class TestTraceCodec:
    def test_roundtrip_bytes_and_file(self, tmp_path):
        batch = _sample_batch()
        assert list(TraceBatch.from_bytes(batch.to_bytes())) == list(batch)
        path = batch.save(tmp_path / "t.rprt")
        loaded = TraceBatch.load(path)
        assert list(loaded) == list(batch)
        # Tuple tags survive the JSON trip as tuples, not lists.
        assert loaded.tag_of(2) == ("begin", "get", 1)

    def test_truncated_header(self):
        raw = _sample_batch().to_bytes()
        with pytest.raises(TraceCorruptionError) as exc:
            TraceBatch.from_bytes(raw[:10])
        assert exc.value.offset == 10

    def test_truncated_tail_reports_offset(self):
        raw = _sample_batch().to_bytes()
        with pytest.raises(TraceCorruptionError) as exc:
            TraceBatch.from_bytes(raw[:-7])
        assert exc.value.offset == len(raw) - 7

    def test_bad_magic_and_version(self):
        raw = _sample_batch().to_bytes()
        with pytest.raises(TraceCorruptionError, match="magic"):
            TraceBatch.from_bytes(b"XXXX" + raw[4:])
        with pytest.raises(TraceCorruptionError, match="version"):
            TraceBatch.from_bytes(raw[:4] + (99).to_bytes(2, "little") + raw[6:])

    def test_bitflip_in_array_detected(self):
        raw = bytearray(_sample_batch().to_bytes())
        raw[-3] ^= 0xFF
        with pytest.raises(TraceCorruptionError, match="checksum"):
            TraceBatch.from_bytes(bytes(raw))

    def test_bitflip_in_tags_detected(self):
        raw = bytearray(_sample_batch().to_bytes())
        raw[TRACE_HEADER_SIZE + 1] ^= 0xFF
        with pytest.raises(TraceCorruptionError) as exc:
            TraceBatch.from_bytes(bytes(raw))
        assert exc.value.offset == TRACE_HEADER_SIZE

    def test_unknown_kind_reports_row(self):
        batch = _sample_batch()
        data = batch.data.copy()
        data["kind"][3] = 99
        raw = TraceBatch(data, batch.tags).to_bytes()
        with pytest.raises(TraceCorruptionError) as exc:
            TraceBatch.from_bytes(raw)
        assert exc.value.row == 3 and "kind 99" in str(exc.value)

    def test_out_of_range_tag_index_reports_row(self):
        batch = _sample_batch()
        data = batch.data.copy()
        data["tag"][0] = 77
        raw = TraceBatch(data, batch.tags).to_bytes()
        with pytest.raises(TraceCorruptionError) as exc:
            TraceBatch.from_bytes(raw)
        assert exc.value.row == 0

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(TraceCorruptionError, match="unreadable"):
            TraceBatch.load(tmp_path / "missing.rprt")

    def test_unencodable_tag_rejected_at_write(self):
        batch = TraceBatch.from_events([ev.mark(object())])
        with pytest.raises(TraceError, match="serialised"):
            batch.to_bytes()

    def test_negative_kind_rejected_by_event_decoder(self):
        from repro.isa.events import event_from_row

        with pytest.raises(TraceCorruptionError, match="unknown event kind"):
            event_from_row(-1, 0, 1, 4, 0, 0, 1)
        with pytest.raises(TraceCorruptionError, match="unknown event kind"):
            event_from_row(12, 0, 1, 4, 0, 0, 1)


# ---------------------------------------------------------- supervisor core


def _shards(n: int):
    return [(f"s{i}", {"key": f"s{i}", "value": i}) for i in range(n)]


class _StubQueue:
    """Worker-message queue stand-in: hands out canned messages, then
    behaves like an empty ``multiprocessing.Queue``."""

    def __init__(self, messages):
        self.messages = deque(messages)

    def get(self, timeout):
        if self.messages:
            return self.messages.popleft()
        time.sleep(timeout)
        raise queue_mod.Empty


class _StubInbox:
    """A worker's task pipe stand-in: records what the parent sends."""

    def __init__(self):
        self.sent = []

    def send(self, task):
        self.sent.append(task)

    def close(self):
        pass


class _StubProcess:
    pid, exitcode = 4242, 0

    def __init__(self, alive: bool):
        self.alive = alive

    def is_alive(self) -> bool:
        return self.alive

    def kill(self) -> None:
        self.alive = False

    def join(self, timeout=None) -> None:
        pass


def _stub_supervisor(tmp_path, alive: bool, messages):
    """A two-shard supervisor (2 s poll) whose one worker holds shard s0,
    and whose outbox holds ``messages``."""
    policy = SupervisorPolicy(poll_interval_s=2.0, backoff_base_s=0.0)
    sup = CampaignSupervisor(_echo_worker, _shards(2), policy=policy, spill_dir=tmp_path)
    worker = _Worker("w1", _StubProcess(alive), _StubInbox())
    sup._workers["w1"] = worker
    assert sup._assign(worker) and worker.lease.key == "s0"
    sup._outbox = _StubQueue(messages)
    return sup, worker


class TestSupervisor:
    def test_clean_run(self, tmp_path):
        sup = CampaignSupervisor(
            _echo_worker, _shards(3), jobs=2, policy=FAST, spill_dir=tmp_path
        )
        report = sup.run()
        assert report.ok and not report.quarantined
        assert sorted(report.outcomes) == ["s0", "s1", "s2"]
        assert report.outcomes["s1"]["summary"] == {"value": 2}
        assert all(state is ShardPhase.COMPLETED for state in report.states.values())
        assert not any(o.get("salvaged") for o in report.outcomes.values())

    def test_workers_are_reused_across_shards(self, tmp_path):
        """jobs=2 keeps two long-lived workers: six shards, at most two pids."""
        sup = CampaignSupervisor(
            _pid_worker, _shards(6), jobs=2, policy=FAST, spill_dir=tmp_path
        )
        report = sup.run()
        assert report.ok and sorted(report.outcomes) == [f"s{i}" for i in range(6)]
        pids = {outcome["summary"]["pid"] for outcome in report.outcomes.values()}
        assert len(pids) <= 2 and os.getpid() not in pids

    def test_killed_worker_is_replaced(self, tmp_path):
        """A worker SIGKILLed mid-campaign is replaced, and the replacement
        finishes the campaign, killed shard included."""
        recorder = IncidentRecorder()
        sup = CampaignSupervisor(
            _pid_worker,
            _shards(3),
            jobs=1,
            policy=FAST,
            recorder=recorder,
            fault_plan=FaultPlan(kill_match="s0", kill_attempts=1),
            spill_dir=tmp_path,
        )
        report = sup.run()
        assert report.ok and sorted(report.outcomes) == ["s0", "s1", "s2"]
        (death,) = [i for i in recorder.as_dicts() if i["kind"] == "worker_death"]
        pids = {outcome["summary"]["pid"] for outcome in report.outcomes.values()}
        assert len(pids) == 1 and death["context"]["pid"] not in pids
        assert sup.leases.failures("s0") == 1

    def test_sigkill_requeues_and_completes(self, tmp_path):
        recorder = IncidentRecorder()
        sup = CampaignSupervisor(
            _echo_worker,
            _shards(3),
            jobs=2,
            policy=FAST,
            recorder=recorder,
            fault_plan=FaultPlan(kill_match="s1", kill_attempts=1),
            spill_dir=tmp_path,
        )
        report = sup.run()
        assert report.ok
        # The killed shard still produced the same outcome as its siblings.
        assert report.outcomes["s1"]["summary"] == {"value": 2}
        counts = recorder.counts()
        assert counts["worker_death"] == 1 and counts["shard_requeued"] == 1

    def test_kill_after_spill_salvages(self, tmp_path):
        recorder = IncidentRecorder()
        sup = CampaignSupervisor(
            _echo_worker,
            _shards(2),
            jobs=2,
            policy=FAST,
            recorder=recorder,
            fault_plan=FaultPlan(kill_match="s0", kill_attempts=99, kill_after_spill=True),
            spill_dir=tmp_path,
        )
        report = sup.run()
        assert report.ok
        assert report.outcomes["s0"]["salvaged"] is True
        assert report.outcomes["s0"]["summary"] == {"value": 0}
        assert report.states["s0"] is ShardPhase.COMPLETED
        assert sup.leases.failures("s0") == 0
        assert recorder.counts()["shard_salvaged"] == 1

    def test_hang_quarantines_after_budget(self, tmp_path):
        policy = SupervisorPolicy(
            shard_deadline_s=0.5,
            heartbeat_interval_s=0.05,
            max_shard_failures=2,
            backoff_base_s=0.05,
            poll_interval_s=0.02,
        )
        recorder = IncidentRecorder()
        sup = CampaignSupervisor(
            _echo_worker,
            _shards(2),
            jobs=2,
            policy=policy,
            recorder=recorder,
            fault_plan=FaultPlan(hang_match="s0", hang_attempts=99),
            spill_dir=tmp_path,
        )
        report = sup.run()
        # The campaign *completes*, degraded: the healthy shard's result is
        # present, the wedged one is quarantined with its failure history.
        assert not report.ok
        assert "s0" in report.quarantined and "s1" in report.outcomes
        assert report.states["s0"] is ShardPhase.QUARANTINED
        assert report.quarantined["s0"]["failures"] == 2
        counts = recorder.counts()
        assert counts["worker_hang"] == 2 and counts["shard_quarantined"] == 1

    def test_worker_exception_quarantines(self, tmp_path):
        policy = SupervisorPolicy(
            shard_deadline_s=2.0,
            heartbeat_interval_s=0.05,
            max_shard_failures=2,
            backoff_base_s=0.02,
            poll_interval_s=0.02,
        )
        sup = CampaignSupervisor(
            _raising_worker, _shards(1), jobs=1, policy=policy, spill_dir=tmp_path
        )
        report = sup.run()
        assert not report.ok and "s0" in report.quarantined
        assert "RuntimeError" in report.quarantined["s0"]["last_error"]

    @pytest.mark.parametrize("tag", ["done", "error"])
    def test_drain_returns_on_first_finished_shard(self, tmp_path, tag):
        """A finished shard's worker gets the next shard at once: the drain
        must not sit out the rest of the poll interval first."""
        payload = {"key": "s0", "summary": {"value": 0}} if tag == "done" else "boom"
        sup, worker = _stub_supervisor(
            tmp_path, alive=True, messages=[("hb", "w1", "s0"), (tag, "w1", "s0", payload)]
        )
        started = time.monotonic()
        sup._drain(sup.policy.poll_interval_s)
        assert time.monotonic() - started < 1.0
        assert not sup._outbox.messages
        # The worker already holds its next lease, and was sent that shard.
        lease = worker.lease
        assert lease is not None and len(worker.inbox.sent) == 2
        shard = {"key": lease.key, "value": int(lease.key[1:])}
        assert worker.inbox.sent[-1] == (lease.key, shard, lease.attempt)
        if tag == "done":
            assert sup.report.outcomes["s0"]["summary"] == {"value": 0}
            assert sup.leases.phase("s0") is ShardPhase.COMPLETED and lease.key == "s1"
        else:
            assert sup.leases.failures("s0") == 1
            assert "boom" in sup.leases.last_error("s0")

    def test_reap_takes_exited_workers_last_message(self, tmp_path):
        """A worker that exits right after reporting ``done`` completed; it
        must not be salvaged or requeued as a death."""
        outcome = {"key": "s0", "summary": {"value": 0}}
        sup, worker = _stub_supervisor(
            tmp_path, alive=False, messages=[("done", "w1", "s0", outcome)]
        )
        sup._reap_dead()
        assert sup.leases.phase("s0") is ShardPhase.COMPLETED
        assert sup.report.outcomes["s0"] == outcome and "salvaged" not in outcome
        assert sup.leases.failures("s0") == 0
        # The exited worker is forgotten, and was never handed s1.
        assert not sup._workers and len(worker.inbox.sent) == 1
        assert sup.leases.phase("s1") is ShardPhase.PENDING

    def test_duplicate_keys_rejected(self):
        from repro.errors import SupervisorError

        with pytest.raises(SupervisorError, match="unique"):
            CampaignSupervisor(_echo_worker, [("a", 1), ("a", 2)])


# --------------------------------------------------- watchdog + campaigns
#
# These drive real simulations at SMOKE scale, so they live behind a
# shared serial reference fixture to pay the baseline cost once.

WORKLOADS = ("apache", "memcached")
ABTB = (64,)


@pytest.fixture(scope="module")
def serial_reference(tmp_path_factory):
    """Unperturbed serial campaign — the ground truth every resilient run
    must reproduce counter-for-counter."""
    return run_campaign(WORKLOADS, SMOKE, abtb_sizes=ABTB, jobs=1)


class TestWatchdog:
    def test_clean_batched_run_matches_reference(self):
        ref = run_pair("apache", SMOKE, abtb_entries=64)
        watched = run_pair(
            "apache",
            SMOKE,
            abtb_entries=64,
            backend="batched",
            watchdog=WatchdogPolicy(check_every=1),
        )
        assert summarize_pair(*watched) == summarize_pair(*ref)
        assert not watched[0].diverged and not watched[1].diverged
        assert watched[0].backend_used == "batched"

    def test_forced_divergence_falls_back_to_reference(self):
        ref = run_pair("apache", SMOKE, abtb_entries=64)
        recorder = IncidentRecorder()
        diverged = run_pair(
            "apache",
            SMOKE,
            abtb_entries=64,
            backend="batched",
            recorder=recorder,
            watchdog=WatchdogPolicy(check_every=1, force_diverge_at_check=1),
        )
        assert diverged[0].diverged and diverged[0].backend_used == "reference"
        counts = recorder.counts()
        assert counts["backend_divergence"] >= 1 and counts["backend_fallback"] >= 1
        # The marked summary differs from the reference ONLY by the marker.
        summary = summarize_pair(*diverged)
        assert summary.pop("diverged_backend") is True
        assert summary == summarize_pair(*ref)


class TestSupervisedCampaign:
    def test_survives_kill_corruption_and_divergence(
        self, serial_reference, tmp_path
    ):
        """The acceptance scenario: one campaign run survives a SIGKILLed
        worker, a corrupted machine checkpoint and a forced backend
        divergence — and its counters match the serial reference."""
        cache_dir = tmp_path / "machines"
        # Seed the machine cache, then corrupt one checkpoint in place.
        run_campaign(
            ("apache",), SMOKE, abtb_sizes=ABTB, jobs=1, machine_cache_dir=cache_dir
        )
        victims = sorted(cache_dir.glob("*.machine.json"))
        assert victims, "warm-up should have populated the machine cache"
        raw = bytearray(victims[0].read_bytes())
        raw[len(raw) // 2] ^= 0x01
        victims[0].write_bytes(bytes(raw))

        recorder = IncidentRecorder()
        checkpoint = tmp_path / "campaign.json"
        manifest = tmp_path / "manifest.json"
        result = run_campaign(
            WORKLOADS,
            SMOKE,
            abtb_sizes=ABTB,
            jobs=2,
            backend="batched",
            machine_cache_dir=cache_dir,
            checkpoint_path=checkpoint,
            manifest_path=manifest,
            recorder=recorder,
            supervisor_policy=FAST,
            fault_plan=FaultPlan(
                kill_match="memcached", kill_attempts=1, diverge_match="apache"
            ),
            watchdog=WatchdogPolicy(check_every=1),
        )
        assert result.ok and not result.degraded
        assert _strip_divergence(result.completed) == _strip_divergence(
            serial_reference.completed
        )
        # The divergence marker sits exactly on the faulted pair.
        diverged_keys = [
            k for k, s in result.completed.items() if s.get("diverged_backend")
        ]
        assert diverged_keys and all("apache" in k for k in diverged_keys)
        counts = recorder.counts()
        assert counts["worker_death"] >= 1
        assert counts["shard_requeued"] >= 1
        assert counts["checkpoint_corrupt"] >= 1
        assert counts["backend_divergence"] >= 1
        assert counts["backend_fallback"] >= 1
        # Manifest is a valid integrity artifact recording the whole story.
        payload = read_artifact(manifest, "repro.campaign-manifest", 1)
        assert sorted(payload["completed"]) == sorted(result.completed)
        assert payload["degraded"] is False
        assert payload["incident_counts"] == counts

    def test_fault_plan_on_serial_campaign_rejected(self):
        """A chaos run that would not shard must fail loudly, not pass clean."""
        plan = FaultPlan(kill_match="memcached")
        with pytest.raises(ConfigError, match="fault plan"):
            run_campaign(("memcached",), SMOKE, abtb_sizes=ABTB, jobs=1, fault_plan=plan)
        with pytest.raises(ConfigError, match="fault plan"):
            run_campaign(
                ("memcached",), SMOKE, abtb_sizes=ABTB, jobs=2, fault_plan=plan,
                sleep_fn=lambda s: None,
            )

    @pytest.mark.parametrize(
        "flag", ["--chaos-kill", "--chaos-hang", "--chaos-diverge"]
    )
    def test_cli_chaos_without_jobs_exits_1(self, flag, capsys):
        code = cli_main(
            ["campaign", "--workloads", "memcached", "--abtb", "64", flag, "memcached"]
        )
        assert code == 1
        assert "fault plan" in capsys.readouterr().err

    def test_quarantine_yields_degraded_partial_manifest(self, tmp_path):
        policy = SupervisorPolicy(
            shard_deadline_s=1.0,
            heartbeat_interval_s=0.05,
            max_shard_failures=1,
            backoff_base_s=0.05,
            poll_interval_s=0.02,
        )
        recorder = IncidentRecorder()
        manifest = tmp_path / "manifest.json"
        result = run_campaign(
            WORKLOADS,
            SMOKE,
            abtb_sizes=ABTB,
            jobs=2,
            recorder=recorder,
            supervisor_policy=policy,
            fault_plan=FaultPlan(hang_match="memcached", hang_attempts=99),
            manifest_path=manifest,
        )
        assert result.degraded and not result.ok and not result.failed
        assert any("memcached" in key for key in result.quarantined)
        assert all("apache" in key for key in result.completed)
        assert recorder.counts()["shard_quarantined"] == 1
        payload = read_artifact(manifest, "repro.campaign-manifest", 1)
        assert payload["degraded"] is True
        assert sorted(payload["quarantined"]) == sorted(result.quarantined)
        assert "quarantined" in result.render()

    def test_fault_plan_spares_artifact_shards(self, serial_reference, tmp_path):
        """A batched, trace-cached campaign stores its bundles and base
        machines through artifact shards; a fault plan matching
        "memcached" hangs the memcached pair, never the memcached
        artifact shard."""
        policy = SupervisorPolicy(
            shard_deadline_s=1.0,
            heartbeat_interval_s=0.05,
            max_shard_failures=1,
            backoff_base_s=0.05,
            poll_interval_s=0.02,
        )
        recorder = IncidentRecorder()
        result = run_campaign(
            WORKLOADS,
            SMOKE,
            abtb_sizes=ABTB,
            jobs=2,
            backend="batched",
            trace_cache_dir=tmp_path / "traces",
            machine_cache_dir=tmp_path / "machines",
            recorder=recorder,
            supervisor_policy=policy,
            fault_plan=FaultPlan(hang_match="memcached"),
        )
        counts = recorder.counts()
        assert counts["worker_hang"] == 1
        assert counts["shard_quarantined"] == 1
        assert list(result.quarantined) == [pair_key("memcached", ABTB[0], SMOKE.name)]
        assert not result.failed
        apache = {k: v for k, v in serial_reference.completed.items() if "apache" in k}
        assert apache and result.completed == apache

    def test_resume_after_kill_merges_identically(self, serial_reference, tmp_path):
        """SIGKILL mid-campaign, then resume from the incremental
        checkpoint: the merged report matches the serial reference."""
        checkpoint = tmp_path / "campaign.json"
        recorder = IncidentRecorder()
        first = run_campaign(
            WORKLOADS,
            SMOKE,
            abtb_sizes=ABTB,
            jobs=2,
            recorder=recorder,
            supervisor_policy=FAST,
            checkpoint_path=checkpoint,
            fault_plan=FaultPlan(kill_match="apache", kill_attempts=1),
        )
        assert first.ok and recorder.counts()["worker_death"] == 1
        # Resume: everything is already checkpointed, nothing re-runs.
        resumed = run_campaign(
            WORKLOADS,
            SMOKE,
            abtb_sizes=ABTB,
            jobs=2,
            supervisor_policy=FAST,
            checkpoint_path=checkpoint,
        )
        assert resumed.resumed == len(resumed.completed)
        assert resumed.completed == serial_reference.completed
        assert first.completed == serial_reference.completed


# ------------------------------------------------------- incident recorder


class TestIncidentRecorder:
    def test_counts_and_metrics(self, tmp_path):
        from repro.obs import Observability

        obs = Observability(metrics_out=str(tmp_path / "metrics.json"))
        recorder = obs.incident_recorder()
        recorder.record(IncidentKind.WORKER_DEATH, "shard died", key="s1")
        recorder.record(IncidentKind.WORKER_DEATH, "again", key="s1")
        recorder.record(IncidentKind.BACKEND_DIVERGENCE, "hash mismatch", severity="fatal")
        assert recorder.counts() == {"backend_divergence": 1, "worker_death": 2}
        assert obs.metrics.counter("incidents.total").value == 3
        assert obs.metrics.counter("incidents.worker_death").value == 2

    def test_jsonl_roundtrip_and_validation(self, tmp_path):
        recorder = IncidentRecorder(clock=lambda: 123.0)
        recorder.record(IncidentKind.TRACE_CORRUPT, "bad row", row=7)
        path = recorder.write_jsonl(tmp_path / "incidents.jsonl")
        assert validate_incident_log(path) == []
        loaded = load_incident_log(path)
        assert len(loaded) == 1
        assert loaded[0].kind == "trace_corrupt" and loaded[0].context == {"row": 7}

    def test_validation_flags_bad_lines(self, tmp_path):
        path = tmp_path / "incidents.jsonl"
        path.write_text(
            json.dumps({"schema_version": 1, "kind": "worker_death", "severity": "error",
                        "message": "ok", "timestamp": 1.0, "context": {}})
            + "\n{not json\n"
            + json.dumps({"schema_version": 1, "kind": "made_up", "severity": "error",
                          "message": "x", "timestamp": 1.0, "context": {}})
            + "\n"
        )
        problems = validate_incident_log(path)
        assert len(problems) == 2

    def test_extend_dicts_drops_garbage(self):
        recorder = IncidentRecorder()
        donor = IncidentRecorder(clock=lambda: 1.0)
        donor.record(IncidentKind.SHARD_SALVAGED, "from worker")
        absorbed = recorder.extend_dicts(donor.as_dicts() + [{"nope": True}, 42])
        assert absorbed == 1
        assert recorder.counts() == {"shard_salvaged": 1}


# ------------------------------------------------------------ incidents CLI


class TestIncidentsCli:
    def _write_log(self, tmp_path):
        recorder = IncidentRecorder(clock=lambda: 1.0)
        recorder.record(IncidentKind.WORKER_DEATH, "shard s1 died", key="s1")
        recorder.record(IncidentKind.CHECKPOINT_CORRUPT, "bad checkpoint")
        return recorder.write_jsonl(tmp_path / "incidents.jsonl")

    def test_summary_ok(self, tmp_path, capsys):
        path = self._write_log(tmp_path)
        assert cli_main(["incidents", str(path)]) == 0
        out = capsys.readouterr().out
        assert "worker_death" in out and "checkpoint_corrupt" in out

    def test_require_present_and_missing(self, tmp_path, capsys):
        path = self._write_log(tmp_path)
        assert cli_main(["incidents", str(path), "--require", "worker_death"]) == 0
        assert cli_main(["incidents", str(path), "--require", "backend_divergence"]) == 1

    def test_json_output(self, tmp_path, capsys):
        path = self._write_log(tmp_path)
        assert cli_main(["incidents", str(path), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["counts"] == {"checkpoint_corrupt": 1, "worker_death": 1}

    def test_invalid_log_rejected(self, tmp_path, capsys):
        path = tmp_path / "incidents.jsonl"
        path.write_text("{broken\n")
        assert cli_main(["incidents", str(path)]) == 1
