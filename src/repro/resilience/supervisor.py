"""Self-healing campaign supervisor: long-lived workers that lease shards.

Every sharded campaign (``run_campaign(jobs > 1)``) runs its shards
here, on ``min(jobs, shards)`` worker processes that live across shards.
Scheduling goes through the campaign service's
:class:`~repro.resilience.leases.LeaseQueue`, which makes every retry,
backoff and quarantine decision; the supervisor keeps three jobs:

* **process management** — each idle worker is leased the next ready
  shard; a heartbeat thread renews the lease while the shard runs; a
  worker whose lease passes ``shard_deadline_s`` is declared hung and
  SIGKILLed, and a dead worker is replaced while work remains;
* **spill salvage** — a worker writes its outcome to an
  integrity-checked spill file before reporting ``done``; before a dead
  or hung worker's failure is counted, the shard is salvaged from that
  file if it is there, so completed work survives the messenger's death;
* **fault injection** — a :class:`FaultPlan` kills or wedges workers
  deterministically *inside* the worker, so tests and the chaos CI job
  exercise exactly the code paths a real fault would take.

Every transition is recorded on the
:class:`~repro.resilience.incidents.IncidentRecorder`.  The supervisor
knows nothing about pairs or workloads, only ``(key, payload)`` shards
and a picklable ``worker_fn``; ``repro.experiments.runner.run_campaign``
supplies both.
"""

from __future__ import annotations

import contextlib
import os
import re
import signal
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import multiprocessing

from repro.errors import CheckpointCorruptionError, SupervisorError
from repro.resilience.incidents import IncidentKind
from repro.resilience.integrity import read_artifact, write_artifact
from repro.resilience.leases import Lease, LeaseQueue, ShardPhase, SupervisorPolicy

#: Schema stamped on worker spill files (see :mod:`repro.resilience.integrity`).
SPILL_SCHEMA = "repro.shard-spill"
SPILL_SCHEMA_VERSION = 1

#: Outcome keys preserved in a spill file (the JSON-safe subset; worker
#: metrics/tracer state is process-local and not salvageable).
SPILL_OUTCOME_KEYS = ("key", "attempts", "retries", "failed", "summary", "incidents")


@dataclass(frozen=True)
class FaultPlan:
    """Deterministic fault injection for supervised workers.

    Matching is by substring on the shard key and by the lease attempt.
    ``*_attempts`` bounds how many attempts the fault fires on (1 = only
    the first), so a killed shard succeeds on requeue and the test can
    assert full recovery.
    """

    #: SIGKILL the worker for matching shards.
    kill_match: str = ""
    kill_attempts: int = 1
    #: Kill *after* the spill file is written (exercises salvage) instead
    #: of before any work (exercises requeue).
    kill_after_spill: bool = False
    #: Suppress heartbeats and stall for matching shards (exercises hang
    #: detection).
    hang_match: str = ""
    hang_attempts: int = 1
    #: Force a watchdog divergence for matching shards (consumed by the
    #: experiment runner, not by the supervisor).
    diverge_match: str = ""

    def should_kill(self, key: str, attempt: int) -> bool:
        return bool(self.kill_match) and self.kill_match in key and attempt <= self.kill_attempts

    def should_hang(self, key: str, attempt: int) -> bool:
        return bool(self.hang_match) and self.hang_match in key and attempt <= self.hang_attempts

    def should_diverge(self, key: str) -> bool:
        return bool(self.diverge_match) and self.diverge_match in key


def _spill_path(spill_dir, key: str) -> Path:
    return Path(spill_dir) / (re.sub(r"[^A-Za-z0-9_.=-]+", "_", key) + ".spill.json")


# --------------------------------------------------------------- worker side


def _heartbeat_loop(outbox, worker_id: str, key: str, interval: float, stop) -> None:
    while not stop.wait(interval):
        try:
            outbox.put(("hb", worker_id, key))
        except Exception:
            return


def _worker_main(worker_fn, worker_id, inbox, outbox, spill_dir, hb_interval, fault_plan):
    """Entry point of one long-lived worker process (must be importable).

    Runs the ``(key, payload, attempt)`` shards it receives on ``inbox``
    until the ``None`` sentinel arrives or the parent is gone.
    """
    # The parent owns shutdown: on Ctrl-C it kills busy workers and
    # stops idle ones itself.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    parent_pid = os.getppid()
    fault_plan = fault_plan or FaultPlan()
    while True:
        if not inbox.poll(1.0):
            if os.getppid() != parent_pid:
                return
            continue
        task = inbox.recv()
        if task is None:
            return
        key, payload, attempt = task
        if fault_plan.should_hang(key, attempt):
            # Simulated wedge: never heartbeat, never finish.  The lease
            # deadline is the only way out.
            time.sleep(3600)
            return
        if fault_plan.should_kill(key, attempt) and not fault_plan.kill_after_spill:
            os.kill(os.getpid(), signal.SIGKILL)
        stop = threading.Event()
        beat = threading.Thread(
            target=_heartbeat_loop, args=(outbox, worker_id, key, hb_interval, stop)
        )
        beat.start()
        try:
            outcome = worker_fn(payload)
        except BaseException as exc:  # worker_fn handles retries; this is a bug escape
            outbox.put(("error", worker_id, key, f"{type(exc).__name__}: {exc}"))
            continue
        finally:
            # Stopped before ``done`` is sent, so no heartbeat trails it.
            stop.set()
            beat.join()
        kept = {k: outcome[k] for k in SPILL_OUTCOME_KEYS if k in outcome}
        spill = {"key": key, "attempt": attempt, "outcome": kept}
        write_artifact(_spill_path(spill_dir, key), spill, SPILL_SCHEMA, SPILL_SCHEMA_VERSION)
        if fault_plan.should_kill(key, attempt) and fault_plan.kill_after_spill:
            os.kill(os.getpid(), signal.SIGKILL)
        outbox.put(("done", worker_id, key, outcome))


# --------------------------------------------------------------- parent side


@dataclass
class _Worker:
    """Parent-side handle of one long-lived worker process."""

    worker_id: str
    process: multiprocessing.Process
    #: The parent's send end of the worker's task pipe.
    inbox: object
    lease: Lease | None = None


@dataclass
class SupervisorReport:
    """What the supervised campaign produced.

    ``outcomes`` holds one outcome dict per completed shard (a salvaged
    one carries ``salvaged: True``); ``quarantined`` maps shard key to
    failure details for shards that exhausted their budget; ``states``
    maps every shard key to its final :class:`ShardPhase`.  ``ok`` means
    nothing was quarantined.
    """

    outcomes: dict = field(default_factory=dict)
    quarantined: dict = field(default_factory=dict)
    states: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.quarantined


class CampaignSupervisor:
    """Runs ``(key, payload)`` shards under supervision (see module doc).

    Args:
        worker_fn: picklable callable, ``payload -> outcome dict``.
        shards: ordered ``(key, payload)`` pairs; keys must be unique.
        jobs: maximum number of worker processes.
        policy: deadlines / retry budget / backoff.
        recorder: optional incident recorder.
        fault_plan: optional deterministic fault injection.
        spill_dir: directory for worker spill files (temp dir by default),
            removed at the end of the run once empty.
        on_complete: called as ``on_complete(key, outcome)`` the moment a
            shard completes or is salvaged — the runner checkpoints here.
    """

    def __init__(
        self,
        worker_fn,
        shards,
        jobs: int = 2,
        policy: SupervisorPolicy | None = None,
        recorder=None,
        fault_plan: FaultPlan | None = None,
        spill_dir: str | Path | None = None,
        on_complete=None,
    ) -> None:
        self.worker_fn = worker_fn
        self.keys = [key for key, _payload in shards]
        if len(set(self.keys)) != len(self.keys):
            raise SupervisorError("shard keys must be unique")
        if jobs < 1:
            raise SupervisorError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.policy = policy or SupervisorPolicy()
        self.recorder = recorder
        self.fault_plan = fault_plan
        self.spill_dir = Path(spill_dir or tempfile.mkdtemp(prefix="repro-spill-"))
        self.on_complete = on_complete
        self.leases = LeaseQueue(self.policy)
        for key, payload in shards:
            self.leases.add(key, payload)
        self.report = SupervisorReport()
        self._workers: dict[str, _Worker] = {}
        self._spawned = 0
        self._outbox = None
        methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context("fork" if "fork" in methods else "spawn")

    # ------------------------------------------------------------ lifecycle

    def run(self) -> SupervisorReport:
        self.spill_dir.mkdir(parents=True, exist_ok=True)
        self._outbox = self._ctx.Queue()
        try:
            while self.leases.has_work():
                self._staff()
                self._drain(self._wait())
                self._check_deadlines()
                self._reap_dead()
        finally:
            self._shutdown()
            self._outbox.close()
            self._outbox.join_thread()
            with contextlib.suppress(OSError):
                self.spill_dir.rmdir()  # only once empty: unread spills stay

        for key in self.keys:
            phase = self.leases.phase(key)
            self.report.states[key] = phase
            if phase is ShardPhase.QUARANTINED:
                self.report.quarantined[key] = {
                    "failures": self.leases.failures(key),
                    "last_error": self.leases.last_error(key),
                }
        return self.report

    # ------------------------------------------------------------ internals

    def _staff(self) -> None:
        """Start workers up to ``min(jobs, unfinished shards)``, then hand
        each idle worker the next ready shard."""
        counts = self.leases.counts()
        wanted = min(self.jobs, counts["pending"] + counts["leased"])
        while len(self._workers) < wanted:
            self._spawn()
        for worker in self._workers.values():
            if worker.lease is None and not self._assign(worker):
                return

    def _spawn(self) -> None:
        self._spawned += 1
        worker_id = f"w{self._spawned}"
        receive, send = self._ctx.Pipe(duplex=False)
        args = (self.worker_fn, worker_id, receive, self._outbox, str(self.spill_dir),
                self.policy.heartbeat_interval_s, self.fault_plan)
        process = self._ctx.Process(target=_worker_main, args=args, daemon=True)
        process.start()
        receive.close()
        self._workers[worker_id] = _Worker(worker_id, process, send)

    def _assign(self, worker: _Worker) -> bool:
        """Lease the next ready shard to ``worker``; False when none is."""
        granted = self.leases.acquire(worker.worker_id)
        if granted is None:
            return False
        worker.lease, payload = granted
        with contextlib.suppress(OSError):  # a worker that just died is reaped
            worker.inbox.send((worker.lease.key, payload, worker.lease.attempt))
        return True

    def _wait(self) -> float:
        """How long the drain may block: one poll interval while a shard
        runs, else until the soonest backed-off shard is ready."""
        wait, ready_at = self.policy.poll_interval_s, self.leases.next_ready_at()
        if ready_at is None or any(w.lease for w in self._workers.values()):
            return wait
        return min(max(0.0, ready_at - time.monotonic()), wait * 4)

    def _drain(self, wait: float) -> None:
        """Handle worker messages: wait up to ``wait`` seconds for the
        first one, then take only what is already queued.

        A live worker that reports ``done`` or ``error`` gets its next
        shard on the spot, so it never sits out the rest of the wait.
        """
        timeout = wait
        while True:
            try:
                tag, worker_id, key, *body = self._outbox.get(timeout=timeout)
            except Exception:  # Empty (and spurious queue teardown races)
                return
            timeout = 0.0
            worker = self._workers.get(worker_id)
            if worker is None or worker.lease is None or worker.lease.key != key:
                continue  # a killed worker's leftovers
            if tag == "hb":
                renewed = self.leases.renew(worker.lease.lease_id, worker_id)
                worker.lease = renewed or worker.lease
                continue
            worker.lease = None
            if tag == "done":
                self._complete(key, body[0])
            else:
                message = f"worker for shard {key} raised: {body[0]}"
                self._record_failure(
                    key, self.leases.fail(key, message), IncidentKind.WORKER_DEATH, message
                )
            if worker.process.is_alive():
                self._assign(worker)

    def _check_deadlines(self) -> None:
        """Kill every worker whose lease is past its deadline.  Its shard
        is salvaged from the spill when it can be; otherwise the queue
        counts the failure as the lease expires."""
        now = time.monotonic()
        pids = {}
        for worker in list(self._workers.values()):
            lease = worker.lease
            if lease is None or lease.expires_at > now:
                continue
            pids[lease.lease_id] = worker.process.pid
            self._kill(worker)
            self._salvage(lease)
        for expired in self.leases.expire():
            worker = self._workers.get(expired.worker_id)
            if worker is not None:  # expired between the check and the sweep
                pids[expired.lease_id] = worker.process.pid
                self._kill(worker)
            self._record_failure(
                expired.key,
                (expired.quarantined, expired.backoff_s),
                IncidentKind.WORKER_HANG,
                f"worker for shard {expired.key} silent past its "
                f"{self.policy.shard_deadline_s:.1f}s lease deadline; killed",
                pid=pids.get(expired.lease_id),
            )

    def _reap_dead(self) -> None:
        dead = [w for w in self._workers.values() if not w.process.is_alive()]
        if not dead:
            return
        # An exited worker has flushed its last message into the outbox:
        # take it first, so a clean finish is not mistaken for a death.
        self._drain(0.0)
        for worker in dead:
            lease = worker.lease
            self._kill(worker)
            if lease is None or self._salvage(lease):
                continue
            exitcode = worker.process.exitcode
            message = (
                f"worker for shard {lease.key} died with exit code {exitcode} "
                f"before delivering its outcome"
            )
            self._record_failure(
                lease.key,
                self.leases.fail(lease.key, message),
                IncidentKind.WORKER_DEATH,
                message,
                pid=worker.process.pid,
                exitcode=exitcode,
            )

    def _salvage(self, lease: Lease) -> bool:
        """Complete a dead worker's shard from its spill file, if intact."""
        try:
            spill = read_artifact(
                _spill_path(self.spill_dir, lease.key), SPILL_SCHEMA, SPILL_SCHEMA_VERSION
            )
        except CheckpointCorruptionError:
            return False
        outcome = dict(spill.get("outcome") or {})
        finished = outcome.get("summary") is not None and not outcome.get("failed")
        if spill.get("key") != lease.key or not finished:
            return False
        outcome.setdefault("key", lease.key)
        outcome["salvaged"] = True
        if self.recorder is not None:
            self.recorder.record(
                IncidentKind.SHARD_SALVAGED,
                f"worker for shard {lease.key} died after finishing; "
                f"outcome salvaged from its spill checkpoint",
                severity="warning",
                key=lease.key,
                attempt=lease.attempt,
            )
        self._complete(lease.key, outcome)
        return True

    def _complete(self, key: str, outcome: dict) -> None:
        self.leases.complete(key)
        self.report.outcomes[key] = outcome
        _spill_path(self.spill_dir, key).unlink(missing_ok=True)
        if self.on_complete is not None:
            self.on_complete(key, outcome)

    def _record_failure(self, key, verdict, kind, message, **context) -> None:
        """Record a process-level failure the queue has just counted, and
        the requeue or quarantine it decided (``verdict``)."""
        if self.recorder is None:
            return
        quarantined, backoff = verdict
        failures = self.leases.failures(key)
        self.recorder.record(kind, message, key=key, attempt=failures, **context)
        if quarantined:
            self.recorder.record(
                IncidentKind.SHARD_QUARANTINED,
                f"shard {key} quarantined after {failures} process-level "
                f"failures; campaign will complete degraded",
                key=key,
                failures=failures,
            )
        else:
            self.recorder.record(
                IncidentKind.SHARD_REQUEUED,
                f"shard {key} requeued (failure {failures}/"
                f"{self.policy.max_shard_failures}, backoff {backoff:.2f}s)",
                severity="warning",
                key=key,
                failures=failures,
                backoff_s=backoff,
            )

    def _kill(self, worker: _Worker) -> None:
        """SIGKILL one worker (if still running) and forget it."""
        self._workers.pop(worker.worker_id, None)
        if worker.process.is_alive():
            worker.process.kill()
        worker.process.join(timeout=5.0)
        worker.inbox.close()

    def _shutdown(self) -> None:
        """Stop every worker: idle ones take the sentinel and exit; busy
        ones (an interrupted run) are killed."""
        workers = list(self._workers.values())
        for worker in workers:
            if worker.lease is None:
                with contextlib.suppress(OSError):
                    worker.inbox.send(None)
        for worker in workers:
            if worker.lease is None:
                worker.process.join(timeout=5.0)
            self._kill(worker)
