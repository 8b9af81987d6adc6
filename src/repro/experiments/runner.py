"""Shared measurement harness.

Mirrors the paper's methodology: start the program (resolving all GOT
entries), warm the server, then measure a steady-state window with
performance counters and per-request timestamps.  Base and enhanced runs
are built from identical configurations, so they consume *identical*
instruction traces — the measured delta is purely the microarchitectural
effect of the mechanism, exactly as in the paper's patched-vs-unpatched
comparison.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from repro.core.config import MechanismConfig
from repro.core.mechanism import TrampolineSkipMechanism
from repro.errors import CheckpointCorruptionError, ConfigError, ExperimentError
from repro.resilience.incidents import IncidentKind, IncidentRecorder
from repro.resilience.integrity import read_artifact, write_artifact
from repro.resilience.supervisor import (
    ARTIFACT_KEY_PREFIX,
    CampaignSupervisor,
    FaultPlan,
    SupervisorPolicy,
)
from repro.resilience.watchdog import DivergenceWatchdog, WatchdogPolicy
from repro.trace.engine import LinkMode, TraceCursor
from repro.trace.store import TraceStore, apply_stats, generate_bundle, trace_key
from repro.uarch.backend import BatchedBackend, make_runner
from repro.uarch.counters import PerfCounters
from repro.uarch.cpu import CPU, CPUConfig
from repro.uarch.machine import (
    MACHINE_STATE_VERSION,
    CheckpointStore,
    MachineState,
    machine_key,
)
from repro.uarch.timing import TimingModel
from repro.workloads import ALL_WORKLOADS
from repro.workloads.base import Workload, WorkloadConfig


@dataclass(frozen=True)
class RequestSample:
    """One request observed in the measurement window."""

    class_name: str
    request_id: int
    instructions: int
    cycles: float


@dataclass
class RunResult:
    """Everything measured in one steady-state window."""

    label: str
    counters: PerfCounters
    requests: list[RequestSample]
    workload: Workload
    cpu: CPU
    mechanism: TrampolineSkipMechanism | None = None
    #: Begin/end marks that had no partner in the window (0 for a healthy
    #: trace; counted, not silently dropped).
    unmatched_marks: int = 0
    #: Request samples discarded for non-finite or negative cycle deltas.
    dropped_samples: int = 0
    #: Engine that actually produced the window ("reference" | "batched").
    #: Differs from the requested backend when the divergence watchdog
    #: fell back mid-run.
    backend_used: str = "reference"
    #: True when the divergence watchdog caught the fast backend drifting
    #: from the reference interpreter; the window then comes from the
    #: reference shadow machine.
    diverged: bool = False

    def requests_of(self, class_name: str) -> list[RequestSample]:
        """Samples of one request class."""
        return [r for r in self.requests if r.class_name == class_name]

    def class_names(self) -> list[str]:
        """Distinct request classes observed, in first-seen order."""
        seen: dict[str, None] = {}
        for r in self.requests:
            seen.setdefault(r.class_name, None)
        return list(seen)

    def latencies_us(
        self,
        class_name: str | None = None,
        timing: TimingModel | None = None,
        noise_sigma: float = 0.0,
        noise_seed: int = 7,
    ) -> list[float]:
        """Per-request response times in microseconds.

        ``noise_sigma`` adds lognormal service-time dispersion (queueing,
        interrupts) keyed by *request id*, so base and enhanced runs get
        identical noise draws (common random numbers) and their latency
        difference stays purely microarchitectural.
        """
        timing = timing if timing is not None else TimingModel()
        samples = self.requests if class_name is None else self.requests_of(class_name)
        out = []
        for r in samples:
            # A sample with a non-finite or negative cycle delta (clock
            # skew, a corrupted mark) would poison every percentile
            # downstream; exclude it rather than propagate it.
            if not math.isfinite(r.cycles) or r.cycles < 0:
                continue
            us = timing.cycles_to_microseconds(r.cycles)
            if noise_sigma > 0:
                rng = np.random.default_rng(np.random.SeedSequence([noise_seed, r.request_id]))
                us *= float(np.exp(rng.normal(0.0, noise_sigma)))
            out.append(us)
        return out

    @property
    def skip_rate(self) -> float:
        """Fraction of trampoline executions avoided in the window."""
        total = self.counters.trampolines_skipped + self.counters.trampolines_executed
        return self.counters.trampolines_skipped / total if total else 0.0


def warmup_machine_key(
    config: WorkloadConfig,
    mode: LinkMode,
    cpu_config: CPUConfig,
    mechanism_config: MechanismConfig | None,
    warmup_requests: int,
) -> str:
    """Checkpoint-store key for one warmed-up machine configuration.

    Covers everything that determines post-warm-up state: the workload
    recipe (seed included), link mode, full CPU geometry, mechanism
    configuration (None for a base machine) and warm-up length.  Machines
    that differ in any of these can never share a checkpoint.
    """
    return machine_key(
        kind="warmup",
        version=MACHINE_STATE_VERSION,
        workload=asdict(config),
        mode=mode.value,
        cpu=cpu_config.as_dict(),
        mechanism=asdict(mechanism_config) if mechanism_config is not None else None,
        warmup_requests=warmup_requests,
    )


#: How many trace events a progress callback batches before firing —
#: large enough that the counting wrapper is noise, small enough that a
#: heartbeat always has fresh numbers.
PROGRESS_EVERY = 2048


def _counted_stream(events, progress, every: int = PROGRESS_EVERY):
    """Wrap an event stream so ``progress(delta)`` fires every ``every``
    retired events (plus once at stream end).  Only exists when a caller
    asked for progress — the disabled path runs the unwrapped stream."""
    pending = 0
    for ev in events:
        pending += 1
        if pending >= every:
            progress(pending)
            pending = 0
        yield ev
    if pending:
        progress(pending)


def run_workload(
    config: WorkloadConfig,
    mechanism: TrampolineSkipMechanism | None = None,
    warmup_requests: int = 10,
    measured_requests: int = 50,
    cpu_config: CPUConfig | None = None,
    mode: LinkMode = LinkMode.DYNAMIC,
    label: str | None = None,
    strict_marks: bool = False,
    obs=None,
    obs_label: str | None = None,
    machine_cache: CheckpointStore | None = None,
    trace_cache: TraceStore | None = None,
    backend: str = "reference",
    recorder: IncidentRecorder | None = None,
    watchdog: WatchdogPolicy | None = None,
    progress=None,
) -> RunResult:
    """Run startup + warmup, then measure a steady-state window.

    ``strict_marks=True`` turns unmatched begin/end marks in the window
    into an :class:`ExperimentError`; otherwise they are counted on the
    result (``unmatched_marks``) and the affected requests excluded.

    ``obs`` is an optional :class:`repro.obs.Observability` session: the
    profiler hooks onto the CPU, the counter sampler rides every phase of
    the run (startup included — that is where the ABTB warm-up transient
    lives), and request windows become trace spans.

    ``machine_cache`` enables warm-up reuse: startup + warm-up state is
    checkpointed per machine configuration, and a later run with the
    *identical* configuration restores it instead of re-simulating —
    the trace generator is drained to the same position (generation is
    stateful and cannot be skipped), so the measurement window is
    counter-for-counter identical to an uncached run.  The cache is
    bypassed when ``obs`` is active, because skipping warm-up simulation
    would silently drop its trace spans and counter samples.

    ``trace_cache`` (a :class:`~repro.trace.store.TraceStore`) engages
    the array-native interchange path: the workload's startup, warm-up
    and measured windows are generated once as structured-array
    :class:`~repro.trace.batch.TraceBatch` segments, serialised through
    the binary codec, and on every later run with the identical recipe
    *loaded* and retired zero-copy by the batched backend — no
    generation at all.  Combined with a ``machine_cache`` hit, the run
    reduces to restoring the warm machine and retiring the measured
    batch.  The path only engages for ``backend="batched"`` with no
    ``obs`` session and no armed watchdog (those paths need the live
    event iterator); otherwise ``trace_cache`` is ignored.  Equivalence
    with the iterator path is enforced by :mod:`repro.difftest`.

    ``backend`` selects the simulation engine (see
    :data:`repro.uarch.backend.BACKENDS`): ``"reference"`` is the
    interpreter, ``"batched"`` the vectorized backend, which is
    counter-for-counter equivalent (enforced by :mod:`repro.difftest`).
    An ``obs`` session forces the reference path regardless:
    ``obs.instrument()`` samples counters *between* stream events, and
    batching would decouple sampling from simulation.

    ``watchdog`` (a :class:`~repro.resilience.watchdog.WatchdogPolicy`)
    arms the runtime divergence watchdog when the backend is ``"batched"``:
    every stream — startup, warm-up and the measurement window — runs
    under cross-checking against a shadow reference machine, and on
    divergence the run falls back to the shadow (``diverged`` /
    ``backend_used`` on the result record what happened; ``recorder``
    gets the incidents).
    """
    label = label or ("enhanced" if mechanism else "base")
    obs_label = obs_label or label
    workload = Workload(config, mode)
    hooks = obs.hooks() if obs is not None else None
    cpu = CPU(cpu_config, mechanism, hooks=hooks)
    run = make_runner(cpu, backend)  # validates the name even when obs wins
    if obs is not None:
        run = cpu.run
        obs.attach_workload(workload)

    dog = None
    if (
        watchdog is not None
        and watchdog.enabled
        and backend == "batched"
        and obs is None
    ):
        shadow_mechanism = (
            TrampolineSkipMechanism(mechanism.config) if mechanism is not None else None
        )
        shadow = CPU(cpu_config, shadow_mechanism)
        dog = DivergenceWatchdog(
            cpu, shadow, policy=watchdog, recorder=recorder, label=obs_label
        )
        run = dog.run

    def active() -> CPU:
        return dog.active_cpu if dog is not None else cpu

    use_cache = machine_cache is not None and obs is None
    cache_key = None
    state = None
    if use_cache:
        cache_key = warmup_machine_key(
            config, mode, cpu.config,
            mechanism.config if mechanism is not None else None,
            warmup_requests,
        )
        state = machine_cache.load(cache_key)

    use_trace = (
        trace_cache is not None
        and obs is None
        and dog is None
        and backend == "batched"
    )
    if use_trace:
        # Array-native interchange path: the whole trace exists as three
        # structured-array segments — loaded from the store on a hit,
        # generated once through the batch-emitting twins on a miss —
        # and the batched backend retires them zero-copy.  Generation
        # usage statistics travel in the store's sidecar, so a hit never
        # touches the (stateful) iterator generators at all.
        bundle_key = trace_key(config, mode, warmup_requests, measured_requests)
        bundle = trace_cache.load(bundle_key)
        if bundle is None:
            bundle = generate_bundle(workload, warmup_requests, measured_requests)
            trace_cache.save(bundle_key, bundle)
        else:
            apply_stats(bundle.stats, workload)
        batched = BatchedBackend(cpu)

        def drive(batch) -> None:
            if progress is None:
                batched.run_batches((batch,))
                return
            for piece in batch.slices(PROGRESS_EVERY):
                batched.run_batches((piece,))
                progress(len(piece.data))

        if state is not None:
            state.restore_into(cpu)
        else:
            drive(bundle.startup)
            drive(bundle.warmup)
        cpu.finalize()
        if state is None and use_cache and cache_key is not None:
            machine_cache.save(
                cache_key,
                MachineState.capture(
                    cpu,
                    meta={
                        "workload": config.name,
                        "mode": mode.value,
                        "label": label,
                        "warmup_requests": warmup_requests,
                    },
                ),
            )
        snapshot = cpu.counters.copy()
        marks_before = len(cpu.marks)
        drive(bundle.measured)
        cpu.finalize()
        window = cpu.counters.delta(snapshot)
        requests, unmatched, dropped = _pair_marks(
            cpu, marks_before, strict=strict_marks
        )
        return RunResult(
            label,
            window,
            requests,
            workload,
            cpu,
            mechanism,
            unmatched_marks=unmatched,
            dropped_samples=dropped,
            backend_used="batched",
        )

    if state is not None:
        # Warm machine found: advance the (stateful) trace generator by
        # draining the startup and warm-up streams — no simulation — and
        # restore the simulated structures from the checkpoint.
        TraceCursor(workload.startup_trace()).drain()
        workload.reset_usage_stats()
        if warmup_requests:
            TraceCursor(workload.trace(warmup_requests, include_marks=False)).drain()
        state.restore_into(cpu)
        if dog is not None:
            state.restore_into(dog.shadow)
            dog.finalize()
        else:
            cpu.finalize()
    else:
        stream = workload.startup_trace()
        if obs is not None:
            stream = obs.instrument(stream, cpu, obs_label)
        if progress is not None:
            stream = _counted_stream(stream, progress)
        run(stream)
        workload.reset_usage_stats()  # Table 3 / Fig 4 cover organic execution
        if warmup_requests:
            stream = workload.trace(warmup_requests, include_marks=False)
            if obs is not None:
                stream = obs.instrument(stream, cpu, obs_label)
            if progress is not None:
                stream = _counted_stream(stream, progress)
            run(stream)
        if dog is not None:
            dog.finalize()
        else:
            cpu.finalize()
        if use_cache and cache_key is not None:
            machine_cache.save(
                cache_key,
                MachineState.capture(
                    active(),
                    meta={
                        "workload": config.name,
                        "mode": mode.value,
                        "label": label,
                        "warmup_requests": warmup_requests,
                    },
                ),
            )
    # Watchdog invariant: a completed stream leaves primary and shadow
    # *verified* equal (or the fallback already happened), so the window
    # snapshot below is valid for whichever machine finishes the run.
    snapshot = active().counters.copy()
    marks_before = len(active().marks)

    stream = workload.trace(measured_requests, start_id=warmup_requests)
    if obs is not None:
        stream = obs.instrument(stream, cpu, obs_label)
    if progress is not None:
        stream = _counted_stream(stream, progress)
    run(stream)
    if dog is not None:
        dog.finalize()
    else:
        cpu.finalize()
    if obs is not None:
        obs.finish_run(cpu, obs_label, marks_from=marks_before)
    measured_cpu = active()
    window = measured_cpu.counters.delta(snapshot)
    requests, unmatched, dropped = _pair_marks(
        measured_cpu, marks_before, strict=strict_marks
    )
    return RunResult(
        label or ("enhanced" if mechanism else "base"),
        window,
        requests,
        workload,
        measured_cpu,
        mechanism if measured_cpu is cpu else measured_cpu.mechanism,
        unmatched_marks=unmatched,
        dropped_samples=dropped,
        backend_used=(
            dog.backend_used if dog is not None
            else ("reference" if obs is not None else backend)
        ),
        diverged=dog.diverged if dog is not None else False,
    )


def run_pair(
    workload_name: str,
    scale,
    abtb_entries: int = 256,
    cpu_config: CPUConfig | None = None,
    mechanism_config: MechanismConfig | None = None,
    seed: int | None = None,
    obs=None,
    machine_cache: CheckpointStore | None = None,
    trace_cache: TraceStore | None = None,
    backend: str = "reference",
    recorder: IncidentRecorder | None = None,
    watchdog: WatchdogPolicy | None = None,
    progress=None,
) -> tuple[RunResult, RunResult]:
    """Base vs enhanced over identical traces of a named workload.

    With a ``machine_cache``, each side's startup + warm-up is simulated
    once per machine configuration and restored thereafter.  The base
    machine's warm-up is independent of the ABTB size, so an ABTB sweep
    re-simulates base warm-up exactly once, and repeated campaigns reuse
    everything.  ``backend`` is passed through to :func:`run_workload`;
    warm-machine checkpoints are shareable across backends because the
    backends are counter-for-counter equivalent.

    ``trace_cache`` shares *generated traces* the same way: the trace
    key covers only the workload recipe and window lengths — not the
    mechanism or ABTB size — so base and enhanced (and every ABTB sweep
    point) consume one stored byte-identical bundle.  Even a cold
    campaign generates each workload's trace exactly once.
    """
    try:
        module = ALL_WORKLOADS[workload_name]
    except KeyError:
        raise ConfigError(f"unknown workload {workload_name!r}") from None
    warmup = scale.warmup(workload_name)
    measured = scale.measured(workload_name)
    if warmup < 0:
        raise ConfigError(f"scale yields negative warmup ({warmup}) for {workload_name}")
    if measured < 1:
        raise ConfigError(
            f"scale yields an empty measurement window ({measured}) for {workload_name}"
        )
    results = []
    for label in ("base", "enhanced"):
        cfg = module.config() if seed is None else module.config(seed=seed)
        mech = None
        if label == "enhanced":
            mcfg = mechanism_config or MechanismConfig(abtb_entries=abtb_entries)
            mech = TrampolineSkipMechanism(mcfg)
        obs_label = f"{workload_name}/abtb={abtb_entries}/{label}" if obs is not None else None
        results.append(
            run_workload(
                cfg, mech, warmup, measured, cpu_config,
                label=label, obs=obs, obs_label=obs_label,
                machine_cache=machine_cache, trace_cache=trace_cache,
                backend=backend,
                recorder=recorder, watchdog=watchdog, progress=progress,
            )
        )
    base, enhanced = results
    if base.counters.instructions == 0:
        raise ExperimentError("empty measurement window")
    return base, enhanced


def _pair_marks(
    cpu: CPU, marks_from: int, strict: bool = False
) -> tuple[list[RequestSample], int, int]:
    """Convert begin/end marks into per-request samples.

    Returns ``(samples, unmatched, dropped)``: *unmatched* counts end
    marks with no open begin plus begins never closed — previously these
    vanished silently, biasing tail percentiles toward whatever happened
    to pair up.  ``strict=True`` raises :class:`ExperimentError` on the
    first unmatched mark instead.  *dropped* counts samples excluded for
    non-finite or negative deltas.
    """
    out: list[RequestSample] = []
    open_marks: dict[int, tuple[str, int, float]] = {}
    unmatched = 0
    dropped = 0
    for mark in cpu.marks[marks_from:]:
        tag = mark.tag
        if not (isinstance(tag, tuple) and len(tag) == 3):
            continue
        phase, class_name, request_id = tag
        if phase == "begin":
            if request_id in open_marks:
                if strict:
                    raise ExperimentError(
                        f"duplicated begin mark for request {request_id}"
                    )
                unmatched += 1
            open_marks[request_id] = (class_name, mark.instructions, mark.cycles)
        elif phase == "end":
            if request_id not in open_marks:
                if strict:
                    raise ExperimentError(
                        f"end mark without begin for request {request_id}"
                    )
                unmatched += 1
                continue
            class_name, instr0, cyc0 = open_marks.pop(request_id)
            d_instr = mark.instructions - instr0
            d_cycles = mark.cycles - cyc0
            if d_instr < 0 or not math.isfinite(d_cycles) or d_cycles < 0:
                if strict:
                    raise ExperimentError(
                        f"request {request_id}: non-monotonic counters "
                        f"(d_instr={d_instr}, d_cycles={d_cycles})"
                    )
                dropped += 1
                continue
            out.append(RequestSample(class_name, request_id, d_instr, d_cycles))
    if open_marks:
        if strict:
            raise ExperimentError(
                f"{len(open_marks)} request(s) never ended: "
                f"{sorted(open_marks)[:5]}"
            )
        unmatched += len(open_marks)
    return out, unmatched, dropped


# --------------------------------------------------------------- campaigns
#
# A campaign sweeps (workload × ABTB size) pairs.  Long sweeps die in
# practice for boring reasons — one hung run, one transient failure — so
# the campaign runner adds a per-run timeout, bounded retry with
# exponential backoff for transient ``ExperimentError``s, a JSON
# checkpoint (written atomically after every completed pair; resume skips
# completed work), and graceful degradation: a pair that keeps failing is
# recorded and the sweep moves on.

#: Version 2: campaign checkpoints moved inside the integrity envelope
#: (schema header + content checksum; see repro.resilience.integrity).
CHECKPOINT_VERSION = 2
CHECKPOINT_SCHEMA = "repro.campaign-checkpoint"
MANIFEST_SCHEMA = "repro.campaign-manifest"
MANIFEST_VERSION = 1


@dataclass(frozen=True)
class RetryPolicy:
    """Timeout/retry knobs for one campaign run.

    ``backoff_max_s`` caps the exponential curve: without it a handful of
    retries of a long ``backoff_base_s`` produces multi-minute sleeps that
    dwarf the runs they guard.  ``jitter`` (a fraction in [0, 1]) spreads
    concurrent shards apart: when N shards fail together — a shared cache
    directory briefly unwritable, a machine-wide stall — an unjittered
    policy has all N retry in lockstep and collide again.  The jitter is
    *deterministic*, seeded from the pair key, so a given shard always
    sleeps the same amount (reruns stay reproducible) while different
    shards desynchronise.  Defaults keep the historical schedule exactly:
    zero jitter, and a cap no smoke-scale sequence ever reaches.
    """

    timeout_s: float | None = None  # None → no per-run timeout
    max_retries: int = 2  # retries after the first attempt
    backoff_base_s: float = 0.25
    backoff_factor: float = 2.0
    backoff_max_s: float = 60.0
    jitter: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.jitter <= 1.0:
            raise ConfigError(f"jitter must be in [0, 1], got {self.jitter}")
        if self.backoff_max_s < 0:
            raise ConfigError(f"backoff_max_s must be >= 0, got {self.backoff_max_s}")

    def backoff(self, attempt: int, key: str = "") -> float:
        """Sleep before retry ``attempt`` (1-based), jittered by ``key``.

        The jitter scales the capped delay by a factor in
        ``[1 - jitter, 1]`` drawn from a hash of ``(key, attempt)`` —
        pure subtraction, so the cap stays a hard upper bound.
        """
        delay = min(
            self.backoff_base_s * (self.backoff_factor ** (attempt - 1)),
            self.backoff_max_s,
        )
        if self.jitter > 0.0:
            digest = hashlib.sha256(f"{key}:{attempt}".encode("utf-8")).digest()
            frac = int.from_bytes(digest[:8], "big") / float(1 << 64)
            delay *= 1.0 - self.jitter * frac
        return delay


@dataclass
class CampaignResult:
    """Outcome of a (possibly resumed, possibly degraded) campaign."""

    completed: dict[str, dict] = field(default_factory=dict)
    failed: dict[str, str] = field(default_factory=dict)
    attempts: dict[str, int] = field(default_factory=dict)
    resumed: int = 0  # pairs skipped because the checkpoint had them
    #: Shards the supervisor gave up on (key → failure details); the
    #: campaign still completes, *degraded*, with a partial manifest.
    quarantined: dict[str, dict] = field(default_factory=dict)
    #: Aggregated trace-store load outcomes across the parent and every
    #: worker ({"hits": n, "misses": n}); empty when no trace cache ran.
    cache_stats: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failed and not self.quarantined

    @property
    def trace_hit_rate(self) -> float:
        """Fraction of trace-store loads that hit (0.0 with no loads)."""
        hits = self.cache_stats.get("hits", 0)
        total = hits + self.cache_stats.get("misses", 0)
        return hits / total if total else 0.0

    @property
    def degraded(self) -> bool:
        """Completed, but missing quarantined shards."""
        return bool(self.quarantined) and not self.failed

    def render(self) -> str:
        lines = [
            f"campaign: {len(self.completed)} pair(s) done "
            f"({self.resumed} from checkpoint), {len(self.failed)} failed"
            + (f", {len(self.quarantined)} quarantined" if self.quarantined else "")
        ]
        for key, summary in sorted(self.completed.items()):
            speedup = summary.get("speedup")
            text = f"{speedup:.4f}x" if isinstance(speedup, float) else "?"
            flag = "  [diverged->reference]" if summary.get("diverged_backend") else ""
            lines.append(f"  {key:<42} speedup {text}{flag}")
        for key, reason in sorted(self.failed.items()):
            lines.append(f"  {key:<42} FAILED: {reason}")
        for key, info in sorted(self.quarantined.items()):
            lines.append(
                f"  {key:<42} QUARANTINED after {info.get('failures', '?')} "
                f"failure(s): {info.get('last_error', '')}"
            )
        return "\n".join(lines)


def pair_key(workload: str, abtb_entries: int, scale_name: str) -> str:
    """Stable checkpoint key for one (workload, config) pair."""
    return f"{workload}::abtb={abtb_entries}::scale={scale_name}"


@dataclass(frozen=True)
class CampaignPoint:
    """One fully-specified campaign task.

    The classic campaign grid is (workload × ABTB size); a point
    additionally pins a full mechanism configuration and/or CPU geometry,
    which is what the sweep engine (:mod:`repro.sweep`) fans out over.
    ``mechanism`` is a dict of :class:`~repro.core.config.MechanismConfig`
    kwargs and ``cpu`` a (possibly partial) dict understood by
    :meth:`~repro.uarch.cpu.CPUConfig.from_dict` — plain JSON-safe dicts,
    so points pickle cleanly across the worker-process boundary and keys
    stay stable in checkpoints.
    """

    key: str
    workload: str
    abtb_entries: int = 256
    mechanism: dict | None = None
    cpu: dict | None = None


def summarize_pair(base: RunResult, enhanced: RunResult) -> dict:
    """JSON-serialisable summary of one base/enhanced pair."""
    out = {
        "instructions": int(base.counters.instructions),
        "base_cycles": float(base.counters.cycles),
        "enhanced_cycles": float(enhanced.counters.cycles),
        "speedup": (
            float(base.counters.cycles / enhanced.counters.cycles)
            if enhanced.counters.cycles
            else 1.0
        ),
        "skip_rate": float(enhanced.skip_rate),
        "unmatched_marks": base.unmatched_marks + enhanced.unmatched_marks,
    }
    if getattr(base, "diverged", False) or getattr(enhanced, "diverged", False):
        # Only present when the watchdog fell back, so summaries from
        # healthy runs keep their historical shape byte-for-byte.
        out["diverged_backend"] = True
    return out


def _load_checkpoint(
    path: Path, recorder: IncidentRecorder | None = None
) -> dict[str, dict]:
    """Resume state from an integrity-checked campaign checkpoint.

    A corrupt, truncated or wrong-version checkpoint is never trusted.
    Without a ``recorder`` it raises :class:`ExperimentError` (the
    historical strict contract: the caller decides whether to delete).
    With one, the corruption is recorded as a
    ``campaign_checkpoint_corrupt`` incident and an empty resume state is
    returned — the affected pairs are simply requeued and re-simulated,
    which is always safe because pair execution is deterministic.
    """
    try:
        payload = read_artifact(path, CHECKPOINT_SCHEMA, CHECKPOINT_VERSION)
        completed = payload.get("completed", {})
        if not isinstance(completed, dict):
            raise CheckpointCorruptionError(
                f"checkpoint {path}: 'completed' is not an object",
                path=path,
                reason="bad-envelope",
            )
    except CheckpointCorruptionError as exc:
        if exc.reason == "missing":
            # First run: nothing to resume.  Read-and-catch instead of an
            # exists() probe — no TOCTOU window against a concurrent
            # writer or cleaner, and no spurious incident.
            return {}
        if recorder is None:
            raise ExperimentError(
                f"checkpoint {path} failed integrity validation "
                f"({exc.reason}): {exc}; delete it to restart"
            ) from exc
        recorder.record(
            IncidentKind.CAMPAIGN_CHECKPOINT_CORRUPT,
            f"campaign checkpoint {path.name} failed integrity validation "
            f"({exc.reason}); completed pairs will be re-run",
            path=str(path),
            reason=exc.reason,
        )
        return {}
    return completed


def _save_checkpoint(path: Path, completed: dict[str, dict]) -> None:
    """Atomic, checksummed write: a crash mid-save never corrupts the
    checkpoint, and any later corruption is detected on load."""
    write_artifact(path, {"completed": completed}, CHECKPOINT_SCHEMA, CHECKPOINT_VERSION)


def _attempt_with_timeout(fn: Callable[[], object], timeout_s: float | None):
    """Run ``fn``, raising ExperimentError on timeout.

    Python cannot kill a running thread, so a timed-out attempt's thread
    is abandoned (daemonised via ``shutdown(wait=False)``) — acceptable
    for a simulator run, and the reason timeouts should be generous.
    The abandoned thread keeps executing; callers that feed it callbacks
    (progress, incident recorders) must gate them through an
    :class:`AttemptGate` so a zombie attempt cannot write into the retry
    attempt's results.
    """
    if timeout_s is None:
        return fn()
    executor = ThreadPoolExecutor(max_workers=1)
    try:
        future = executor.submit(fn)
        try:
            return future.result(timeout=timeout_s)
        except FutureTimeoutError:
            future.cancel()
            raise ExperimentError(f"run exceeded timeout of {timeout_s:.1f}s") from None
    finally:
        executor.shutdown(wait=False)


class AttemptGate:
    """Liveness flag for one run attempt's side-effect callbacks.

    A timed-out attempt's worker thread cannot be killed (see
    :func:`_attempt_with_timeout`), so it survives into the retry and
    keeps calling whatever ``progress``/recorder callbacks it was
    given — double-counting progress and incidents into the *new*
    attempt's results.  Each attempt therefore gets a fresh gate; the
    retry loop flips it with :meth:`expire` before retrying, turning the
    zombie's callbacks into no-ops.
    """

    __slots__ = ("_live",)

    def __init__(self) -> None:
        self._live = True

    @property
    def live(self) -> bool:
        return self._live

    def expire(self) -> None:
        """Silence every callback wrapped by this gate, permanently."""
        self._live = False

    def wrap(self, callback):
        """``callback`` guarded by this gate (None passes through)."""
        if callback is None:
            return None

        def gated(*args, **kwargs):
            if self._live:
                return callback(*args, **kwargs)

        return gated

    def recorder(self, recorder):
        """An incident-recorder proxy that drops records once expired."""
        if recorder is None:
            return None
        return _GatedRecorder(self, recorder)


class _GatedRecorder:
    """Recorder proxy: ``record`` is gated, everything else delegates."""

    __slots__ = ("_gate", "_inner")

    def __init__(self, gate: AttemptGate, inner) -> None:
        self._gate = gate
        self._inner = inner

    def record(self, *args, **kwargs):
        if self._gate.live:
            return self._inner.record(*args, **kwargs)
        return None

    def __getattr__(self, name):
        return getattr(self._inner, name)


def _accepted_kwargs(fn) -> frozenset:
    """Keyword names ``fn`` accepts (everything, for ``**kwargs``).

    Campaign ``run_fn`` callables historically took exactly
    ``(workload, scale, abtb)``; newer capabilities — per-point
    mechanism/CPU configs, the attempt gate — are passed only when the
    callable declares them, so existing custom callables keep working.
    """
    try:
        sig = inspect.signature(fn)
    except (TypeError, ValueError):
        return frozenset()
    names = set()
    for param in sig.parameters.values():
        if param.kind == inspect.Parameter.VAR_KEYWORD:
            return frozenset({"gate", "mechanism", "cpu"})
        if param.kind in (
            inspect.Parameter.KEYWORD_ONLY,
            inspect.Parameter.POSITIONAL_OR_KEYWORD,
        ):
            names.add(param.name)
    return frozenset(names)


def _run_one_pair(
    key: str,
    workload: str,
    scale,
    abtb: int,
    policy: RetryPolicy,
    run_fn: Callable[[str, object, int], tuple[RunResult, RunResult]],
    sleep_fn: Callable[[float], None],
    obs=None,
    mechanism: dict | None = None,
    cpu: dict | None = None,
) -> dict:
    """One pair with the full retry/timeout discipline; never raises.

    Returns an outcome record: ``{"key", "attempts", "retries", "failed",
    "summary"}`` where exactly one of ``failed`` (an error string) and
    ``summary`` (a :func:`summarize_pair` dict) is set.  Both the serial
    loop and the sharded worker run pairs through this, so their
    summaries are produced by identical code.

    ``mechanism``/``cpu`` are optional per-point config dicts (see
    :class:`CampaignPoint`), forwarded to ``run_fn`` when it accepts the
    matching keywords.  Every attempt runs under a fresh
    :class:`AttemptGate` (passed as ``gate=`` to gate-aware ``run_fn``
    callables) that is expired before any retry, so a timed-out
    attempt's abandoned thread cannot leak callbacks into its successor.
    Backoff sleeps are keyed by the pair key for deterministic jitter.
    """
    accepted = _accepted_kwargs(run_fn)
    extra: dict = {}
    if mechanism is not None:
        if "mechanism" not in accepted:
            raise ConfigError(
                "per-point mechanism configs require a run_fn accepting "
                "a 'mechanism' keyword (the default run_fn does)"
            )
        extra["mechanism"] = mechanism
    if cpu is not None:
        if "cpu" not in accepted:
            raise ConfigError(
                "per-point CPU configs require a run_fn accepting a "
                "'cpu' keyword (the default run_fn does)"
            )
        extra["cpu"] = cpu
    gate_aware = "gate" in accepted
    attempt = 0
    retries = 0
    while True:
        attempt += 1
        gate = AttemptGate()
        kwargs = dict(extra)
        if gate_aware:
            kwargs["gate"] = gate
        call = lambda: run_fn(workload, scale, abtb, **kwargs)  # noqa: E731
        try:
            if obs is not None and obs.tracer is not None:
                with obs.tracer.span(
                    f"pair {key}", category="campaign", attempt=attempt
                ):
                    pair = _attempt_with_timeout(call, policy.timeout_s)
            else:
                pair = _attempt_with_timeout(call, policy.timeout_s)
        except ExperimentError as exc:
            gate.expire()  # the abandoned thread must stop reporting
            if attempt > policy.max_retries:
                return {
                    "key": key, "attempts": attempt, "retries": retries,
                    "failed": str(exc), "summary": None,
                }
            retries += 1
            sleep_fn(policy.backoff(attempt, key=key))
            continue
        except Exception as exc:  # non-transient: fail fast, move on
            gate.expire()
            return {
                "key": key, "attempts": attempt, "retries": retries,
                "failed": f"{type(exc).__name__}: {exc}", "summary": None,
            }
        base, enhanced = pair
        return {
            "key": key, "attempts": attempt, "retries": retries,
            "failed": None, "summary": summarize_pair(base, enhanced),
        }


def _obs_spec(obs) -> dict | None:
    """Picklable recipe for rebuilding an equivalent obs session in a
    worker process (live sessions hold tracers/registries and workload
    references that must not cross the fork/spawn boundary)."""
    if obs is None:
        return None
    return {
        "trace": obs.tracer is not None,
        "metrics": obs.metrics is not None,
        "sample_every": obs.sample_every,
        "profile": obs.profiler is not None,
        "sampled_fields": tuple(obs.sampled_fields),
    }


def _obs_from_spec(spec: dict | None):
    if spec is None:
        return None
    from repro.obs import Observability
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.tracer import Tracer

    obs = Observability(
        sample_every=spec["sample_every"],
        profile=spec["profile"],
        sampled_fields=spec["sampled_fields"],
    )
    if spec["trace"]:
        obs.tracer = Tracer()
    if spec["metrics"] and obs.metrics is None:
        obs.metrics = MetricsRegistry()
    return obs


def _pair_runner(obs, machine_cache, trace_cache, backend, recorder, watchdog):
    """The default campaign ``run_fn``: :func:`run_pair` with the
    campaign's caches, backend, recorder and watchdog bound in.  The
    serial loop and the sharded worker both build theirs here."""

    def run_fn(w, s, n, mechanism=None, cpu=None, gate=None):
        rec = gate.recorder(recorder) if gate is not None else recorder
        return run_pair(
            w, s, abtb_entries=n,
            cpu_config=CPUConfig.from_dict(cpu) if cpu else None,
            mechanism_config=MechanismConfig(**mechanism) if mechanism else None,
            obs=obs, machine_cache=machine_cache,
            trace_cache=trace_cache,
            backend=backend, recorder=rec, watchdog=watchdog,
        )

    return run_fn


def _campaign_worker(task: dict) -> dict:
    """Supervised-shard entry point: run one pair in a worker process.

    Rebuilds the per-worker obs session and machine cache from picklable
    specs, runs the pair through :func:`_run_one_pair`, and ships the
    outcome back together with the worker's metric state, trace events
    and incident records for the parent to merge.  An artifact shard's
    task goes to :func:`_artifact_worker` instead.
    """
    if task.get("artifact"):
        return _artifact_worker(task)
    obs = _obs_from_spec(task["obs_spec"])
    recorder = IncidentRecorder(
        metrics=obs.metrics if obs is not None else None,
        tracer=obs.tracer if obs is not None else None,
    )
    cache = (
        CheckpointStore(task["machine_cache_dir"], recorder=recorder)
        if task["machine_cache_dir"] is not None
        else None
    )
    traces = (
        TraceStore(task["trace_cache_dir"], recorder=recorder)
        if task.get("trace_cache_dir") is not None
        else None
    )
    watchdog = task.get("watchdog")
    if task.get("force_diverge"):
        base = watchdog if watchdog is not None else WatchdogPolicy()
        watchdog = WatchdogPolicy(
            check_every=base.check_every or WatchdogPolicy().check_every,
            force_diverge_at_check=1,
        )

    run_fn = _pair_runner(
        obs, cache, traces, task.get("backend", "reference"), recorder, watchdog
    )
    outcome = _run_one_pair(
        task["key"], task["workload"], task["scale"], task["abtb"],
        task["policy"], run_fn, time.sleep, obs=obs,
        mechanism=task.get("mechanism"), cpu=task.get("cpu"),
    )
    if traces is not None:
        # Per-task store instance, so these counters sum cleanly in the
        # parent's CampaignResult.cache_stats aggregation.
        outcome["trace_cache"] = {"hits": traces.hits, "misses": traces.misses}
    outcome["incidents"] = recorder.as_dicts()
    outcome["metrics_state"] = (
        obs.metrics.state_dict() if obs is not None and obs.metrics is not None else None
    )
    outcome["tracer_events"] = (
        list(obs.tracer.events) if obs is not None and obs.tracer is not None else None
    )
    return outcome


def run_campaign(
    workloads: Sequence[str],
    scale,
    abtb_sizes: Sequence[int] = (256,),
    checkpoint_path: str | Path | None = None,
    policy: RetryPolicy = RetryPolicy(),
    run_fn: Callable[[str, object, int], tuple[RunResult, RunResult]] | None = None,
    sleep_fn: Callable[[float], None] = time.sleep,
    obs=None,
    jobs: int = 1,
    machine_cache_dir: str | Path | None = None,
    trace_cache_dir: str | Path | None = None,
    backend: str = "reference",
    recorder: IncidentRecorder | None = None,
    supervisor_policy: SupervisorPolicy | None = None,
    fault_plan: FaultPlan | None = None,
    manifest_path: str | Path | None = None,
    watchdog: WatchdogPolicy | None = None,
    bus=None,
    campaign_id: str = "",
    points: Sequence[CampaignPoint] | None = None,
) -> CampaignResult:
    """Sweep (workload × ABTB size) with timeout, retry and checkpointing.

    ``points`` replaces the (workload × ABTB size) grid with an explicit
    list of :class:`CampaignPoint` tasks, each carrying its own
    checkpoint key and optional mechanism/CPU config dicts — the
    substrate the sweep engine (:mod:`repro.sweep`) builds on.  All the
    machinery below (retry, checkpointing, sharding, supervision,
    artifact shards) applies to points exactly as it does to grid pairs;
    ``workloads``/``abtb_sizes`` must be empty when points are given.

    Transient failures (:class:`ExperimentError`, including timeouts) are
    retried up to ``policy.max_retries`` times with exponential backoff;
    anything else — a :class:`ConfigError`, a crash in the model — fails
    the pair immediately.  Either way the campaign continues and reports
    a partial result.  ``run_fn`` and ``sleep_fn`` exist for tests: the
    default ``run_fn`` is :func:`run_pair`.

    ``jobs > 1`` shards the remaining pairs over ``jobs`` long-lived
    worker processes run by the
    :class:`~repro.resilience.supervisor.CampaignSupervisor`, which leases
    them pairs one at a time: heartbeats, hang detection
    (``supervisor_policy``), kill-and-requeue with backoff, quarantine of
    repeatedly failing shards (the campaign then completes *degraded*;
    see :attr:`CampaignResult.degraded`), and salvage of completed work
    from dead workers.  Every pair is simulated
    by one worker with the same retry/timeout discipline as the serial
    path, outcomes are merged in the serial loop's deterministic order,
    and the campaign checkpoint is still written incrementally as pairs
    finish — so a sharded campaign produces byte-identical summaries and
    checkpoints to a serial one.  Sharding requires the default
    ``run_fn``/``sleep_fn`` (custom callables don't cross process
    boundaries); otherwise the campaign silently runs serially.
    ``fault_plan`` injects deterministic worker kills/hangs/divergences
    for tests and the chaos CI job; it needs a sharded run, and a
    campaign that would run serially rejects it with :class:`ConfigError`.

    ``machine_cache_dir`` holds warm-machine checkpoints shared by all
    workers (see :func:`run_workload`); atomic writes make the racy
    first-fill benign.  ``trace_cache_dir`` holds the content-addressed
    trace store: with ``backend="batched"`` every shard serialises each
    workload's trace once and thereafter loads the stored batches
    instead of regenerating them (see :func:`run_workload`).  A sharded
    batched campaign with a trace store (and no ``obs`` or ``watchdog``)
    stores these shared inputs through *artifact shards*: one per
    (workload, CPU geometry), leased to the same workers ahead of the
    pairs, generating the workload's bundle once and warming each base
    machine once (see :func:`_artifact_worker`).  A pair is leased only
    after its artifact shard has finished; artifact shards never reach
    the checkpoint, ``attempts``, the manifest's pairs or the ``bus``,
    but their store counts and incidents are merged.  ``backend``
    selects the simulation engine for every pair, serial or sharded
    (custom ``run_fn`` callables ignore it).

    With an ``obs`` session, each pair attempt runs under a host-clock
    trace span and the sweep's progress lands in counters
    (``campaign.pairs_completed`` / ``campaign.pairs_failed``) plus a
    per-pair speedup series — deep CPU-level sampling is wired through
    :func:`run_pair` when ``run_fn`` is the default.  Sharded workers
    sample into their own registries/tracers, which are merged into the
    parent session in deterministic pair order.

    ``recorder`` collects every incident — corrupted campaign checkpoints
    are then healed (entries requeued) instead of raising.  ``watchdog``
    arms the backend divergence watchdog in every pair (only meaningful
    with ``backend="batched"``), and ``manifest_path`` writes an
    integrity-checked end-of-campaign manifest including quarantined
    shards and incident counts.

    ``bus`` (a :class:`repro.obs.events.EventBus`) narrates the sweep:
    one ``campaign_started`` event up front, one ``pair_completed`` /
    ``pair_failed`` per pair (correlated by ``campaign_id`` and the pair
    key), and a final ``campaign_complete``.  Default None — the
    disabled path emits nothing and pays nothing.
    """
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    machine_cache = (
        CheckpointStore(machine_cache_dir, recorder=recorder)
        if machine_cache_dir is not None
        else None
    )
    trace_cache = (
        TraceStore(trace_cache_dir, recorder=recorder)
        if trace_cache_dir is not None
        else None
    )
    sharded = jobs > 1 and run_fn is None and sleep_fn is time.sleep
    if fault_plan is not None and not sharded:
        raise ConfigError(
            "a fault plan needs a sharded campaign (jobs > 1 with the "
            "default run_fn/sleep_fn); this one would run serially"
        )
    if run_fn is None:
        run_fn = _pair_runner(
            obs, machine_cache, trace_cache, backend, recorder, watchdog
        )
    path = Path(checkpoint_path) if checkpoint_path is not None else None
    completed = _load_checkpoint(path, recorder) if path is not None else {}
    result = CampaignResult(completed=dict(completed))
    # Every summary the checkpoint must hold: the resumed ones plus each
    # pair the moment it lands.  The incremental saves, the final fold
    # and the interrupt flush all write from this one dict.
    staged = dict(completed)

    def save_checkpoint() -> None:
        if path is not None:
            _save_checkpoint(path, staged)

    scale_name = getattr(scale, "name", str(scale))
    if points is not None:
        if workloads:
            raise ConfigError("pass either workloads or points, not both")
        keys = [p.key for p in points]
        if len(set(keys)) != len(keys):
            raise ConfigError("campaign points have duplicate keys")
        specs = [
            (p.key, p.workload, p.abtb_entries, p.mechanism, p.cpu)
            for p in points
        ]
    else:
        specs = [
            (pair_key(workload, abtb, scale_name), workload, abtb, None, None)
            for workload in workloads
            for abtb in abtb_sizes
        ]
    if bus is not None:
        bus.emit(
            "campaign_started",
            f"campaign over {len(specs)} point(s) at scale {scale_name} "
            f"(backend={backend}, jobs={jobs})",
            campaign_id=campaign_id,
            workloads=sorted({w for _k, w, _a, _m, _c in specs}),
            abtb_sizes=list(abtb_sizes) if points is None else [],
            points=len(specs),
            backend=backend,
            jobs=jobs,
        )
    tasks: list[tuple[str, str, int, dict | None, dict | None]] = []
    for key, workload, abtb, mech_cfg, cpu_cfg in specs:
        if key in completed:
            result.resumed += 1
        else:
            tasks.append((key, workload, abtb, mech_cfg, cpu_cfg))

    # Artifact shards, queued ahead of the pairs: without them every
    # concurrently started cold pair of one workload would regenerate the
    # identical bundle and re-simulate the identical warm-up.  A
    # workload's other geometries wait on its first, which stores the
    # bundle; each pair waits on the shard of its own geometry.
    artifacts: list[tuple[str, dict, tuple[str, ...]]] = []
    needs: dict[str, tuple[str, ...]] = {}  # pair key -> its artifact shard
    if (
        trace_cache is not None
        and backend == "batched"
        and obs is None
        and watchdog is None
        and sharded
    ):
        shard_of: dict[tuple, str] = {}
        of_workload: dict[str, list[str]] = {}
        for key, workload, _abtb, _mech, cpu_cfg in tasks:
            geometry = (
                json.dumps(cpu_cfg, sort_keys=True)
                if cpu_cfg is not None and machine_cache is not None
                else None
            )
            mark = (workload, geometry)
            if mark not in shard_of:
                earlier = of_workload.setdefault(workload, [])
                art_key = f"{ARTIFACT_KEY_PREFIX}{workload}/cpu{len(earlier)}"
                artifacts.append((
                    art_key,
                    {
                        "artifact": True, "key": art_key, "workload": workload,
                        "cpu": cpu_cfg, "scale": scale,
                        "trace_cache_dir": str(trace_cache_dir),
                        "machine_cache_dir": (
                            str(machine_cache_dir)
                            if machine_cache_dir is not None
                            else None
                        ),
                    },
                    tuple(earlier[:1]),
                ))
                earlier.append(art_key)
                shard_of[mark] = art_key
            needs[key] = (shard_of[mark],)

    def add_trace_counts(counts: dict) -> None:
        for field_name in ("hits", "misses"):
            result.cache_stats[field_name] = (
                result.cache_stats.get(field_name, 0) + int(counts.get(field_name, 0))
            )

    def absorb(outcome: dict) -> None:
        """Fold one pair outcome into the result + obs, serially (the
        caller saves the checkpoint)."""
        key = outcome["key"]
        result.attempts[key] = outcome["attempts"]
        if outcome.get("trace_cache"):
            add_trace_counts(outcome["trace_cache"])
        if obs is not None and obs.metrics is not None and outcome["retries"]:
            obs.metrics.counter("campaign.retries").inc(outcome["retries"])
        if outcome["failed"] is not None:
            result.failed[key] = outcome["failed"]
            if obs is not None and obs.metrics is not None:
                obs.metrics.counter("campaign.pairs_failed").inc()
            if bus is not None:
                bus.emit(
                    "pair_failed",
                    f"pair {key} failed after {outcome['attempts']} "
                    f"attempt(s): {outcome['failed']}",
                    severity="warning",
                    campaign_id=campaign_id,
                    shard_key=key,
                    attempts=outcome["attempts"],
                )
            return
        result.completed[key] = staged[key] = outcome["summary"]
        if obs is not None and obs.metrics is not None:
            obs.metrics.counter("campaign.pairs_completed").inc()
            obs.metrics.series("campaign.speedup").append(
                float(len(result.completed)), outcome["summary"]["speedup"]
            )
        if bus is not None:
            bus.emit(
                "pair_completed",
                f"pair {key} completed "
                f"(speedup {outcome['summary']['speedup']:.3f})",
                campaign_id=campaign_id,
                shard_key=key,
                attempts=outcome["attempts"],
                speedup=outcome["summary"]["speedup"],
            )

    def merge_worker_state(outcome: dict) -> None:
        """Fold a worker's obs/incident state into the parent session."""
        if obs is not None:
            if obs.metrics is not None and outcome.get("metrics_state"):
                obs.metrics.merge_state(outcome["metrics_state"])
            if obs.tracer is not None and outcome.get("tracer_events"):
                obs.tracer.events.extend(outcome["tracer_events"])
        if recorder is not None and outcome.get("incidents"):
            recorder.extend_dicts(outcome["incidents"])

    def finish() -> CampaignResult:
        if trace_cache is not None and (trace_cache.hits or trace_cache.misses):
            # Loads done in this process: the serial loop's.
            add_trace_counts(trace_cache.cache_stats())
        if manifest_path is not None:
            _write_manifest(manifest_path, result, recorder)
        if bus is not None:
            bus.emit(
                "campaign_complete",
                f"campaign finished: {len(result.completed)} completed, "
                f"{len(result.failed)} failed, "
                f"{len(result.quarantined)} quarantined",
                severity="warning" if result.failed or result.quarantined else "info",
                campaign_id=campaign_id,
                completed=len(result.completed),
                failed=len(result.failed),
                quarantined=len(result.quarantined),
            )
        return result

    def make_task(
        key: str, workload: str, abtb: int,
        mechanism: dict | None = None, cpu: dict | None = None,
    ) -> dict:
        return {
            "key": key, "workload": workload, "abtb": abtb,
            "mechanism": mechanism, "cpu": cpu,
            "scale": scale, "policy": policy,
            "obs_spec": _obs_spec(obs),
            "machine_cache_dir": (
                str(machine_cache_dir) if machine_cache_dir is not None else None
            ),
            "trace_cache_dir": (
                str(trace_cache_dir) if trace_cache_dir is not None else None
            ),
            "backend": backend,
            "watchdog": watchdog,
            "force_diverge": bool(
                fault_plan is not None and fault_plan.should_diverge(key)
            ),
        }

    def execute() -> CampaignResult:
        if not sharded:
            for key, workload, abtb, mech_cfg, cpu_cfg in tasks:
                outcome = _run_one_pair(
                    key, workload, scale, abtb, policy, run_fn, sleep_fn,
                    obs=obs, mechanism=mech_cfg, cpu=cpu_cfg,
                )
                absorb(outcome)
                if outcome["failed"] is None:
                    save_checkpoint()
            return finish()

        def on_complete(key: str, outcome: dict) -> None:
            # Incremental checkpoint the moment a pair lands (completion
            # order; sorted keys keep the bytes order-independent).  An
            # artifact shard's outcome carries no summary.
            if outcome.get("failed") is None and outcome.get("summary") is not None:
                staged[key] = outcome["summary"]
                save_checkpoint()

        supervisor = CampaignSupervisor(
            _campaign_worker,
            artifacts + [
                (key, make_task(key, workload, abtb, mech_cfg, cpu_cfg), needs.get(key, ()))
                for key, workload, abtb, mech_cfg, cpu_cfg in tasks
            ],
            jobs=jobs,
            policy=supervisor_policy,
            recorder=recorder,
            fault_plan=fault_plan,
            spill_dir=path.parent / f"{path.name}.spill" if path is not None else None,
            on_complete=on_complete,
        )
        report = supervisor.run()
        # Artifact shards only add their store counts and incidents (a
        # quarantined one has left its pairs to fill the caches).  Pairs
        # fold in deterministic task order, like the serial loop.
        for key, *_rest in artifacts:
            if key in report.outcomes:
                add_trace_counts(report.outcomes[key]["trace_cache"])
                merge_worker_state(report.outcomes[key])
        for key, *_rest in tasks:
            if key in report.outcomes:
                outcome = report.outcomes[key]
                absorb(outcome)
                merge_worker_state(outcome)
            elif key in report.quarantined:
                result.quarantined[key] = dict(report.quarantined[key])
        if staged != completed:
            save_checkpoint()
        return finish()

    try:
        return execute()
    except KeyboardInterrupt:
        # SIGINT/SIGTERM (the CLI converts the latter) mid-campaign:
        # flush what we have through the atomic checkpoint path and say
        # so in the incident log, instead of dying mid-write and leaving
        # the next resume to guess.
        save_checkpoint()
        if recorder is not None:
            recorder.record(
                IncidentKind.SHUTDOWN,
                f"campaign interrupted with {len(staged)} pair(s) "
                f"completed; checkpoint flushed, resume will skip them",
                severity="warning",
                completed=len(staged),
                checkpoint=str(path) if path is not None else None,
            )
        raise


def _artifact_worker(task: dict) -> dict:
    """Artifact-shard entry point: store the inputs that every pair of one
    (workload, CPU geometry) shares, in a worker process.

    Two artifacts are shared by *every* pair of one workload: the trace
    bundle (the key excludes mechanism and ABTB size) and, per CPU
    geometry, the warm base machine (its checkpoint key has no mechanism
    either).  The shard generates and stores the bundle when the store
    lacks it, then warms and saves the base machine when the machine
    cache lacks it, loading the bundle only for that.  Enhanced machines
    are per-(workload, mechanism config) — exactly one pair each — and
    are left to the pairs.  Mirrors the default :func:`run_pair` recipe
    (module default config, DYNAMIC mode, scale-derived windows) so the
    keys match what :func:`run_workload` computes.

    Anything that cannot be stored — an unknown workload, a degenerate
    scale, an invalid CPU dict — is skipped: the pairs that wait on this
    shard surface the real error (or fill the caches themselves) through
    the normal retry machinery.  Returns the store's hit/miss counts and
    the incidents, for the parent to merge.
    """
    recorder = IncidentRecorder()
    traces = TraceStore(task["trace_cache_dir"], recorder=recorder)
    machines = (
        CheckpointStore(task["machine_cache_dir"], recorder=recorder)
        if task["machine_cache_dir"] is not None
        else None
    )
    _store_artifacts(task["workload"], task["scale"], task["cpu"], traces, machines)
    return {
        "key": task["key"],
        "trace_cache": {"hits": traces.hits, "misses": traces.misses},
        "incidents": recorder.as_dicts(),
    }


def _store_artifacts(
    name: str,
    scale,
    cpu_dict: dict | None,
    traces: TraceStore,
    machines: CheckpointStore | None,
) -> None:
    """Store ``name``'s trace bundle and its base machine for ``cpu_dict``
    (see :func:`_artifact_worker`)."""
    module = ALL_WORKLOADS.get(name)
    if module is None:
        return
    warmup = scale.warmup(name)
    measured = scale.measured(name)
    if warmup < 0 or measured < 1:
        return
    config = module.config()
    key = trace_key(config, LinkMode.DYNAMIC, warmup, measured)
    bundle = None
    if not traces.has(key):
        bundle = generate_bundle(Workload(config, LinkMode.DYNAMIC), warmup, measured)
        traces.save(key, bundle)
    if machines is None:
        return
    try:
        cpu = CPU(CPUConfig.from_dict(cpu_dict)) if cpu_dict else CPU()
    except (ConfigError, ValueError):
        return
    base_key = warmup_machine_key(config, LinkMode.DYNAMIC, cpu.config, None, warmup)
    if machines.load(base_key) is not None:
        return
    if bundle is None:
        bundle = traces.load(key)
    if bundle is None:  # a corrupt store entry: warm from a fresh bundle
        bundle = generate_bundle(Workload(config, LinkMode.DYNAMIC), warmup, measured)
    BatchedBackend(cpu).run_batches((bundle.startup, bundle.warmup))
    cpu.finalize()
    machines.save(
        base_key,
        MachineState.capture(
            cpu,
            meta={
                "workload": config.name,
                "mode": LinkMode.DYNAMIC.value,
                "label": "base",
                "warmup_requests": warmup,
            },
        ),
    )


def _write_manifest(
    manifest_path: str | Path,
    result: CampaignResult,
    recorder: IncidentRecorder | None,
) -> Path:
    """Integrity-checked end-of-campaign manifest (partial results included)."""
    payload = {
        "completed": result.completed,
        "failed": result.failed,
        "quarantined": result.quarantined,
        "attempts": result.attempts,
        "resumed": result.resumed,
        "degraded": result.degraded,
        "cache_stats": result.cache_stats,
        "incident_counts": recorder.counts() if recorder is not None else {},
    }
    return write_artifact(manifest_path, payload, MANIFEST_SCHEMA, MANIFEST_VERSION)
