"""The traced run: per-layer numbers from the benchmark's own calls.

Tracing stays out of the timed runs.  This run calls each layer's public
functions itself, once per representative point of the workload, with a
span around every call, and derives the per-layer metrics from the spans.
It also checks that the batched backend leaves every point's full
``CPU.snapshot()`` equal to the reference interpreter's, with and without
the mechanism.

Which end-to-end metric each layer figure should move, and on which
workload, is mapped in ``simbench/README.md``.
"""

from __future__ import annotations

import resource
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.config import MechanismConfig
from repro.core.mechanism import TrampolineSkipMechanism
from repro.experiments.runner import run_pair
from repro.sweep.engine import report_sweep, run_sweep
from repro.sweep.spec import SweepSpec
from repro.trace.batch import TraceBatch
from repro.trace.engine import LinkMode, TraceCursor
from repro.trace.store import TraceStore, generate_bundle, trace_key
from repro.uarch.backend import BatchedBackend
from repro.uarch.cpu import CPU, CPUConfig
from repro.uarch.machine import MachineState
from repro.workloads import ALL_WORKLOADS
from repro.workloads.base import Workload

from metrics import busy_frac, values_match
from scenarios import ABTB, PROFILES, BENCH_SCALE, AbtbSweep, paper_errors
from spans import SpanRecorder

UARCH_COUNTS = (
    "instructions", "l1i_misses", "itlb_misses", "l1d_misses", "dtlb_misses",
    "l2_misses", "btb_misses", "branch_mispredictions",
)
CORE_COUNTS = (
    "abtb_hits", "abtb_misses", "abtb_inserts", "abtb_flushes", "bloom_store_hits",
)
#: Layer spans whose summed self time is reported as ``<name>_s``.
TIMED_SPANS = (
    "workloads.build", "workloads.generate", "workloads.iter_generate",
    "trace.encode", "trace.decode", "trace.store_write", "trace.store_read",
    "uarch.retire_reference", "uarch.retire_batched",
    "machine.capture", "machine.restore", "machine.save", "machine.load",
    "sweep.report",
)


@dataclass(frozen=True)
class Point:
    """One representative point: a profile, its windows and machine."""

    profile: str
    warmup: int
    measured: int
    mechanism: MechanismConfig
    cpu: CPUConfig

    @property
    def id(self) -> str:
        return f"{self.profile}/w{self.warmup}+{self.measured}"


def representative_points(scenario) -> list[Point]:
    """One point per profile the workload runs."""
    if isinstance(scenario, AbtbSweep):
        spec = scenario.spec
        out = []
        for profile in sorted({p.workload for p in scenario.points}):
            # The sweep's least paper-like ABTB 256 point: set-associative
            # with the small Bloom filter, the paths the sweep adds.
            point = next(
                p for p in scenario.points
                if p.workload == profile and p.mechanism["abtb_entries"] == ABTB
                and p.mechanism["abtb_ways"] and p.mechanism["bloom_bits"] < 1 << 17
            )
            out.append(Point(
                profile, spec.warmup, spec.measured,
                MechanismConfig(**point.mechanism), CPUConfig.from_dict(point.cpu),
            ))
        return out
    scale = scenario.scale
    return [
        Point(
            p, scale.warmup(p), scale.measured(p),
            MechanismConfig(abtb_entries=ABTB), CPUConfig(),
        )
        for p in PROFILES
    ]


def _retire_reference(cpu: CPU, segments) -> object:
    startup, warmup, measured = segments
    cpu.run(startup)
    cpu.run(warmup)
    cpu.finalize()
    before = cpu.counters.copy()
    cpu.run(measured)
    cpu.finalize()
    return cpu.counters.delta(before)


def _retire_batched(cpu: CPU, bundle) -> object:
    backend = BatchedBackend(cpu)
    backend.run_batches((bundle.startup,))
    backend.run_batches((bundle.warmup,))
    cpu.finalize()
    before = cpu.counters.copy()
    backend.run_batches((bundle.measured,))
    cpu.finalize()
    return cpu.counters.delta(before)


class LayerTour:
    """Calls every layer for a list of points, under spans."""

    def __init__(self, rec: SpanRecorder, work: Path) -> None:
        self.rec = rec
        self.work = work
        self.events = {"generate": 0, "retire": 0}
        self.bundle_bytes = 0
        self.checkpoint_bytes = []
        self.windows = []  # (base window, enhanced window) per point
        self.failures: list[str] = []
        self.checks = 0

    def check(self, ok: bool, what: str) -> None:
        self.checks += 1
        if not ok:
            self.failures.append(what)

    def visit(self, point: Point) -> None:
        span = self.rec.span
        config = ALL_WORKLOADS[point.profile].config()
        mode = LinkMode.DYNAMIC
        with span("point", point=point.id):
            with span("workloads.build"):
                workload = Workload(config, mode)
            with span("workloads.generate"):
                bundle = generate_bundle(workload, point.warmup, point.measured)
            self.events["generate"] += bundle.total_events

            with span("workloads.build"):
                legacy = Workload(config, mode)
            with span("workloads.iter_generate"):
                TraceCursor(legacy.startup_trace()).drain()
                legacy.reset_usage_stats()
                if point.warmup:
                    TraceCursor(legacy.trace(point.warmup, include_marks=False)).drain()
                TraceCursor(legacy.trace(point.measured, start_id=point.warmup)).drain()

            with span("trace.encode"):
                raw = [batch.to_bytes() for batch in bundle.segments()]
            self.bundle_bytes += sum(len(r) for r in raw)
            with span("trace.decode"):
                decoded = [TraceBatch.from_bytes(r) for r in raw]
            self.check(
                all(np.array_equal(a.data, b.data) for a, b in zip(decoded, bundle.segments())),
                f"{point.id}: decode(encode(trace)) != trace",
            )
            store = TraceStore(self.work / "store")
            key = trace_key(config, mode, point.warmup, point.measured)
            with span("trace.store_write"):
                store.save(key, bundle)
            with span("trace.store_read"):
                loaded = store.load(key)
            self.check(
                loaded is not None and np.array_equal(loaded.measured.data, bundle.measured.data),
                f"{point.id}: trace store read != write",
            )

            events = [batch.to_events() for batch in bundle.segments()]
            self.events["retire"] += bundle.total_events
            ref_base = CPU(point.cpu)
            with span("uarch.retire_reference"):
                ref_window = _retire_reference(ref_base, events)
            base = CPU(point.cpu)
            with span("uarch.retire_batched"):
                base_window = _retire_batched(base, bundle)
            enhanced = CPU(point.cpu, TrampolineSkipMechanism(point.mechanism))
            with span("core.retire_enhanced"):
                enh_window = _retire_batched(enhanced, bundle)
            ref_enh = CPU(point.cpu, TrampolineSkipMechanism(point.mechanism))
            with span("check.retire_reference_enhanced"):
                _retire_reference(ref_enh, events)
            self.check(
                values_match(ref_base.snapshot(), base.snapshot())
                and values_match(ref_window.as_dict(), base_window.as_dict()),
                f"{point.id}: base batched snapshot != reference",
            )
            self.check(
                values_match(ref_enh.snapshot(), enhanced.snapshot()),
                f"{point.id}: ABTB {point.mechanism.abtb_entries} batched snapshot != reference",
            )
            self.windows.append((base_window, enh_window))

            path = self.work / f"{point.profile}.machine.json"
            with span("machine.capture"):
                state = MachineState.capture(enhanced)
            with span("machine.save"):
                state.save(path)
            self.checkpoint_bytes.append(path.stat().st_size)
            with span("machine.load"):
                loaded_state = MachineState.load(path)
            restored = CPU(point.cpu, TrampolineSkipMechanism(point.mechanism))
            with span("machine.restore"):
                loaded_state.restore_into(restored)
            self.check(
                values_match(restored.snapshot(), enhanced.snapshot()),
                f"{point.id}: restored machine != captured machine",
            )


def _cpu_seconds(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def traced_run(scenario, rec: SpanRecorder, seed: int) -> tuple[dict, int, list[str]]:
    """Per-layer metrics, the number of checks made, and the failed ones."""
    work = scenario.work
    metrics: dict[str, tuple[float, str]] = {}

    # Runner figures come from one untraced end-to-end unit.
    scenario.prepare()
    parent0, children0 = _cpu_seconds(resource.RUSAGE_SELF), _cpu_seconds(resource.RUSAGE_CHILDREN)
    with rec.span("e2e.unit", point=scenario.name):
        rep = scenario.unit()
    parent = _cpu_seconds(resource.RUSAGE_SELF) - parent0
    children = _cpu_seconds(resource.RUSAGE_CHILDREN) - children0
    metrics["runner.busy_frac"] = (busy_frac(parent, children, scenario.jobs, rep.wall_s), "ratio")
    metrics["runner.parent_cpu_s"] = (parent, "s")
    metrics["runner.points_retried"] = (sum(1 for a in rep.attempts.values() if a > 1), "count")
    lookups = rep.cache_stats.get("hits", 0) + rep.cache_stats.get("misses", 0)
    metrics["trace.store_hit_rate"] = (
        rep.cache_stats.get("hits", 0) / lookups if lookups else 0.0, "ratio"
    )
    failures = [f"{key}: errored or quarantined" for key in sorted(rep.errored)]
    failures += [f"{key}: missing" for key in scenario.keys() if key not in rep.summaries]
    checks = len(scenario.keys())

    # The sweep layer: report over the workload's own sweep directory, or
    # over a one-point sweep for the workloads that run none.
    if isinstance(scenario, AbtbSweep):
        sweep_dir = rep.out_dir
    else:
        sweep_dir = work / "report-sweep"
        spec = SweepSpec(name="report", workloads=("memcached",), warmup=4, measured=20)
        run_sweep(spec, sweep_dir)
    with rec.span("sweep.report", point="sweep"):
        report_sweep(sweep_dir)
    scenario.drop(rep)

    tour = LayerTour(rec, work / "tour")
    for point in representative_points(scenario):
        tour.visit(point)
    shutil.rmtree(work / "tour", ignore_errors=True)
    checks += tour.checks
    failures += tour.failures

    for name in TIMED_SPANS:
        metrics[f"{name}_s"] = (rec.self_time(name), "s")
    gen_s, ref_s, bat_s = (
        rec.duration(n)
        for n in ("workloads.generate", "uarch.retire_reference", "uarch.retire_batched")
    )
    metrics["workloads.generate_ev_per_s"] = (tour.events["generate"] / gen_s, "ev/s")
    metrics["uarch.retire_reference_ev_per_s"] = (tour.events["retire"] / ref_s, "ev/s")
    metrics["uarch.retire_batched_ev_per_s"] = (tour.events["retire"] / bat_s, "ev/s")
    metrics["core.retire_extra_s"] = (rec.duration("core.retire_enhanced") - bat_s, "s")
    metrics["trace.bundle_mb"] = (tour.bundle_bytes / 1e6, "MB")
    metrics["machine.checkpoint_kb"] = (
        sum(tour.checkpoint_bytes) / len(tour.checkpoint_bytes) / 1024, "KiB"
    )

    for name in UARCH_COUNTS:
        metrics[f"uarch.{name}"] = (
            sum(getattr(b, name) + getattr(e, name) for b, e in tour.windows), "count"
        )
    for name in CORE_COUNTS:
        metrics[f"core.{name}"] = (sum(getattr(e, name) for _b, e in tour.windows), "count")
    skipped = sum(e.trampolines_skipped for _b, e in tour.windows)
    executed = sum(e.trampolines_executed for _b, e in tour.windows)
    metrics["core.skip_rate"] = (
        skipped / (skipped + executed) if skipped + executed else 0.0, "ratio"
    )

    # Accuracy on recipes drawn from the seed: data held back from tuning.
    with rec.span("accuracy.heldout", point="heldout"):
        traces = TraceStore(work / "heldout")
        counters = {}
        for profile in PROFILES:
            base, enh = run_pair(
                profile, BENCH_SCALE, ABTB, seed=seed,
                backend="batched", trace_cache=traces,
            )
            counters[profile] = (base.counters, enh.counters)
    t2, t4 = paper_errors(counters)
    metrics["accuracy.t2_err_heldout"] = (t2, "log")
    metrics["accuracy.t4_err_heldout"] = (t4, "log")
    return metrics, checks, failures
