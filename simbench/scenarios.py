"""The benchmark's three workloads: inputs, set-up, timed unit, output check.

Each workload builds what its users would already have before they start
(``prepare``), runs one closed-loop unit of work through public entry
points only (``unit``), and checks the results against a second path
through the simulator (``verify``).

Why these three:

* ``campaign-cold`` is what a user pays after changing a recipe or the
  CPU geometry: every stage of every point runs once, all stores are
  written and none is read.  Generation runs in the campaign's serial
  prefill, retirement in the two workers.
* ``abtb-sweep`` is the design-space sweep with its inputs already
  stored: generation is zero, base machines are restored, and every
  point retires its enhanced run through ABTB + Bloom, so retirement and
  the mechanism dominate.
* ``paper-tables`` is the default experiment path: legacy iterator
  generation plus the reference interpreter, serial, no caches.  It runs
  the same layers through their other implementations, so a gain in the
  batched path must leave it unchanged, and it carries the accuracy
  figures.
"""

from __future__ import annotations

import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.config import MechanismConfig
from repro.experiments.runner import (
    pair_key,
    run_campaign,
    run_pair,
    summarize_pair,
    warmup_machine_key,
)
from repro.experiments.scale import Scale
from repro.experiments.table2 import PAPER_PKI
from repro.experiments.table4 import PAPER_TABLE4
from repro.sweep.engine import run_sweep
from repro.sweep.spec import SweepSpec
from repro.trace.engine import LinkMode
from repro.trace.store import TraceStore, generate_bundle, trace_key
from repro.uarch.backend import BatchedBackend
from repro.uarch.cpu import CPU, CPUConfig
from repro.uarch.machine import CheckpointStore, MachineState
from repro.workloads import ALL_WORKLOADS
from repro.workloads.base import Workload

from metrics import log_error, table2_cells, table4_cells, values_match

PROFILES = ("apache", "firefox", "memcached", "mysql")
#: The two profiles with the highest trampoline PKI, where the ABTB matters most.
SWEEP_PROFILES = ("apache", "mysql")
#: Worker processes for the campaign and the sweep (the reference host has 2 cores).
JOBS = 2
ABTB = 256
#: (warm-up, measured) requests per profile, shared by campaign-cold and
#: paper-tables, which therefore run the same points.  Pinned here rather
#: than taken from the program's presets, so the inputs only change when the
#: benchmark does.  The seed does not move them: request sizes are
#: heavy-tailed, so shifting a window by one or two requests moves its
#: instruction count by up to 22% (mysql) and the Table 2 error by up to 30%,
#: more than any bound could absorb.  The campaign and the sweep accept no
#: recipe seed.
BENCH_SCALE = Scale(
    "bench",
    {"apache": (14, 30), "firefox": (4, 14), "memcached": (40, 250), "mysql": (12, 30)},
)
#: The abtb-sweep grid: entries x ways x Bloom bits, 16 points.
SWEEP_SPEC = SweepSpec(
    name="abtb", workloads=SWEEP_PROFILES, warmup=8, measured=16,
    abtb_entries=(64, 256), abtb_ways=(0, 4), bloom_bits=(1 << 10, 1 << 17),
)


def paper_errors(counters: dict) -> tuple[float, float]:
    """(Table 2, Table 4) mean |log| errors from profile -> (base, enhanced) counters."""
    t2 = log_error(*table2_cells(
        {p: base.pki("trampoline_instructions") for p, (base, _enh) in counters.items()},
        PAPER_PKI,
    ))
    t4 = log_error(*table4_cells(
        {p: (base.table4_row(), enh.table4_row()) for p, (base, enh) in counters.items()},
        PAPER_TABLE4,
    ))
    return t2, t4


@dataclass
class Rep:
    """One timed unit: wall time and the per-point summaries it produced."""

    wall_s: float
    summaries: dict
    errored: set = field(default_factory=set)
    attempts: dict = field(default_factory=dict)
    cache_stats: dict = field(default_factory=dict)
    out_dir: Path | None = None

    @property
    def sim_instructions(self) -> int:
        """Window instructions of every point, retired once by base and once by enhanced."""
        return sum(2 * s["instructions"] for s in self.summaries.values())


@dataclass
class Verdict:
    """What ``verify`` found: points whose outputs disagree, and accuracy."""

    bad_keys: set
    paper_t2_err: float
    paper_t4_err: float
    checks: list = field(default_factory=list)


class Scenario:
    """Shared plumbing: a work directory, the seed and the point keys."""

    name = ""
    jobs = 1
    #: How often set-up is repeated to take its median.
    prepare_reps = 1

    def __init__(self, work: Path, seed: int) -> None:
        self.work = work
        self.seed = seed
        self._dirs = 0

    def fresh_dir(self, stem: str) -> Path:
        self._dirs += 1
        path = self.work / f"{stem}{self._dirs}"
        path.mkdir(parents=True)
        return path

    def prepare(self) -> float:
        """Build what the unit expects to exist already; returns its seconds."""
        return 0.0

    def keys(self) -> list[str]:
        raise NotImplementedError

    def unit(self) -> Rep:
        raise NotImplementedError

    def verify(self, reps: list[Rep]) -> Verdict:
        raise NotImplementedError

    def drop(self, rep: Rep) -> None:
        """Free a finished unit's directory."""
        if rep.out_dir is not None:
            shutil.rmtree(rep.out_dir, ignore_errors=True)


class CampaignCold(Scenario):
    """run_campaign over all profiles x ABTB 256, batched, jobs=2, empty caches."""

    name = "campaign-cold"
    jobs = JOBS
    scale = BENCH_SCALE

    def keys(self) -> list[str]:
        return [pair_key(p, ABTB, self.scale.name) for p in PROFILES]

    def unit(self) -> Rep:
        out = self.fresh_dir("campaign")
        start = time.perf_counter()
        result = run_campaign(
            PROFILES, self.scale, abtb_sizes=(ABTB,), jobs=JOBS, backend="batched",
            machine_cache_dir=out / "machines", trace_cache_dir=out / "traces",
        )
        wall = time.perf_counter() - start
        return Rep(
            wall, dict(result.completed), set(result.failed) | set(result.quarantined),
            dict(result.attempts), dict(result.cache_stats), out,
        )

    def verify(self, reps: list[Rep]) -> Verdict:
        # In-process run_pair over the last unit's stores: every load hits,
        # so this is cheap, and it yields the counters behind the accuracy
        # figures for exactly the points the campaign ran.
        last = reps[-1].out_dir
        traces, machines = TraceStore(last / "traces"), CheckpointStore(last / "machines")
        first = reps[0].summaries
        bad, counters, checks = set(), {}, []
        for profile in PROFILES:
            key = pair_key(profile, ABTB, self.scale.name)
            base, enh = run_pair(
                profile, self.scale, ABTB, backend="batched",
                trace_cache=traces, machine_cache=machines,
            )
            counters[profile] = (base.counters, enh.counters)
            if not values_match(summarize_pair(base, enh), first.get(key)):
                bad.add(key)
                checks.append(f"{key}: campaign != in-process run_pair")
        # The paper-tables path (reference interpreter, iterator generation,
        # no caches) on the same point; the profile rotates with the seed.
        profile = PROFILES[self.seed % len(PROFILES)]
        key = pair_key(profile, ABTB, self.scale.name)
        if not values_match(summarize_pair(*run_pair(profile, self.scale, ABTB)), first.get(key)):
            bad.add(key)
            checks.append(f"{key}: campaign != paper-tables path")
        return Verdict(bad, *paper_errors(counters), checks)


class AbtbSweep(Scenario):
    """run_sweep over ABTB entries x ways x Bloom bits on apache and mysql."""

    name = "abtb-sweep"
    jobs = JOBS
    prepare_reps = 3
    spec = SWEEP_SPEC

    def __init__(self, work: Path, seed: int) -> None:
        super().__init__(work, seed)
        self.points = self.spec.expand()
        self.seeded: Path | None = None

    def keys(self) -> list[str]:
        return [p.key for p in self.points]

    def prepare(self) -> float:
        """Seed the trace store and the base machines.

        Builds exactly what the sweep's own prefill would otherwise build:
        each profile's trace bundle and its warmed base machine, under the
        keys the runner derives for the sweep's windows and CPU geometry.
        """
        out = self.fresh_dir("seed")
        start = time.perf_counter()
        traces = TraceStore(out / "trace-cache")
        machines = CheckpointStore(out / "machine-cache")
        warmup, measured = self.spec.warmup, self.spec.measured
        geometries = {tuple(sorted(p.cpu.items())) for p in self.points}
        for profile in SWEEP_PROFILES:
            config = ALL_WORKLOADS[profile].config()
            bundle = generate_bundle(Workload(config, LinkMode.DYNAMIC), warmup, measured)
            traces.save(trace_key(config, LinkMode.DYNAMIC, warmup, measured), bundle)
            for geometry in geometries:
                cpu = CPU(CPUConfig.from_dict(dict(geometry)))
                BatchedBackend(cpu).run_batches((bundle.startup, bundle.warmup))
                cpu.finalize()
                machines.save(
                    warmup_machine_key(config, LinkMode.DYNAMIC, cpu.config, None, warmup),
                    MachineState.capture(cpu, meta={"workload": profile, "label": "base"}),
                )
        seconds = time.perf_counter() - start
        if self.seeded is not None:
            shutil.rmtree(self.seeded, ignore_errors=True)
        self.seeded = out
        return seconds

    def unit(self) -> Rep:
        out = self.fresh_dir("sweep")
        shutil.copytree(self.seeded, out, dirs_exist_ok=True)
        start = time.perf_counter()
        result = run_sweep(self.spec, out, jobs=JOBS)
        wall = time.perf_counter() - start
        campaign = result.campaign
        return Rep(
            wall, dict(campaign.completed), set(campaign.failed) | set(campaign.quarantined),
            dict(campaign.attempts), dict(campaign.cache_stats), out,
        )

    def design_point(self, profile: str):
        """The paper's design point (256 entries, fully associative, 2^17 Bloom bits)."""
        return next(
            p for p in self.points
            if p.workload == profile and p.mechanism["abtb_entries"] == ABTB
            and p.mechanism["abtb_ways"] == 0 and p.mechanism["bloom_bits"] == 1 << 17
        )

    def verify(self, reps: list[Rep]) -> Verdict:
        last = reps[-1].out_dir
        traces = TraceStore(last / "trace-cache")
        machines = CheckpointStore(last / "machine-cache")
        first = reps[0].summaries
        bad, counters, checks = set(), {}, []
        for profile in SWEEP_PROFILES:
            point = self.design_point(profile)
            base, enh = run_pair(
                profile, self.spec.scale(), ABTB,
                cpu_config=CPUConfig.from_dict(point.cpu),
                mechanism_config=MechanismConfig(**point.mechanism),
                backend="batched", trace_cache=traces, machine_cache=machines,
            )
            counters[profile] = (base.counters, enh.counters)
            if not values_match(summarize_pair(base, enh), first.get(point.key)):
                bad.add(point.key)
                checks.append(f"{point.key}: sweep != in-process run_pair")
        return Verdict(bad, *paper_errors(counters), checks)


class PaperTables(Scenario):
    """run_pair on the reference backend for every profile, serial, no caches."""

    name = "paper-tables"
    scale = BENCH_SCALE

    def __init__(self, work: Path, seed: int) -> None:
        super().__init__(work, seed)
        self.counters: dict = {}

    def keys(self) -> list[str]:
        return [pair_key(p, ABTB, self.scale.name) for p in PROFILES]

    def unit(self) -> Rep:
        summaries, counters = {}, {}
        start = time.perf_counter()
        for profile in PROFILES:
            base, enh = run_pair(profile, self.scale, ABTB)
            summaries[pair_key(profile, ABTB, self.scale.name)] = summarize_pair(base, enh)
            counters[profile] = (base.counters, enh.counters)
        wall = time.perf_counter() - start
        for profile, (base, enh) in counters.items():
            # Whole window counters take part in the repetition check too.
            key = pair_key(profile, ABTB, self.scale.name)
            summaries[key]["counters"] = {"base": base.as_dict(), "enhanced": enh.as_dict()}
        self.counters = self.counters or counters
        return Rep(wall, summaries)

    def verify(self, reps: list[Rep]) -> Verdict:
        # The campaign-cold path (array generation, trace store, batched
        # backend, machine checkpoints) on one of the same points.
        profile = PROFILES[self.seed % len(PROFILES)]
        key = pair_key(profile, ABTB, self.scale.name)
        out = self.fresh_dir("check")
        result = run_campaign(
            [profile], self.scale, abtb_sizes=(ABTB,), backend="batched",
            machine_cache_dir=out / "machines", trace_cache_dir=out / "traces",
        )
        expected = dict(reps[0].summaries.get(key, {}))
        expected.pop("counters", None)
        bad, checks = set(), []
        if not values_match(result.completed.get(key), expected):
            bad.add(key)
            checks.append(f"{key}: reference run_pair != campaign path")
        shutil.rmtree(out, ignore_errors=True)
        return Verdict(bad, *paper_errors(self.counters), checks)


SCENARIOS = {cls.name: cls for cls in (CampaignCold, AbtbSweep, PaperTables)}
