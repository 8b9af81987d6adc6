"""Tests for the batched trace representation and the vectorized backend.

The contract under test is strict: for any event stream, the batched
backend must leave the CPU in a state *identical* to the reference
interpreter's — every counter, every cache/TLB/BTB entry and LRU order,
mechanism state and marks (cycles are derived from the counters).  Equality is asserted
on full :meth:`CPU.snapshot` payloads, not a curated counter subset.
"""

from __future__ import annotations

import pytest

from repro.core import MechanismConfig, TrampolineSkipMechanism
from repro.errors import ConfigError, TraceError
from repro.difftest.harness import workload_events
from repro.isa.events import (
    block,
    call_direct,
    call_indirect,
    coherence_inval,
    cond_branch,
    context_switch,
    jmp_direct,
    jmp_indirect,
    load,
    mark,
    ret,
    store,
)
from repro.isa.kinds import EventKind
from repro.trace.batch import TraceBatch, iter_batches
from repro.uarch import CPU, CPUConfig
from repro.uarch.backend import BACKENDS, BatchedBackend, make_runner
from repro.uarch.cache import SetAssociativeCache
from repro.uarch.component import default_registry
from repro.uarch.cpu import CPUHooks
from repro.workloads import ALL_WORKLOADS
from repro.workloads.base import Workload
from tests.test_cpu import FUNC, GOT, PLT, SITE, plt_call


def mixed_trace(calls: int = 12) -> list:
    """A trace exercising every event kind, trampoline pairs included."""
    events = []
    for i in range(calls):
        events.extend(plt_call())
        events.append(block(0x5000 + 64 * i, 7))
        events.append(load(0x5100, 0x7000_0000 + 64 * i))
        events.append(store(0x5108, 0x7100_0000 + 8 * (i % 3)))
        events.append(cond_branch(0x5110, 0x5200, taken=(i % 3 != 0)))
        events.append(jmp_direct(0x5200, 0x5300 + 16 * (i % 5)))
        events.append(call_indirect(0x5300, 0x6000 + 256 * (i % 4), 0x7200_0000))
        events.append(ret(0x6010, 0x5308))
        if i % 4 == 3:
            events.append(mark(("begin", "req", i)))
            events.append(block(0x5400, 3))
            events.append(mark(("end", "req", i)))
        if i % 5 == 4:
            events.append(context_switch())
        if i % 6 == 5:
            events.append(store(0x5500, GOT))  # GOT rewrite: bloom/ABTB flush
    return events


def run_reference(events, cpu: CPU) -> CPU:
    cpu.run(list(events))
    return cpu


def run_batched(events, cpu: CPU, batch_events: int = 4096) -> CPU:
    BatchedBackend(cpu, batch_events).run(iter(events))
    return cpu


def assert_equivalent(events, make_cpu, batch_events: int = 4096) -> None:
    ref = run_reference(events, make_cpu())
    fast = run_batched(events, make_cpu(), batch_events)
    assert ref.snapshot() == fast.snapshot()


def enhanced() -> CPU:
    return CPU(mechanism=TrampolineSkipMechanism(MechanismConfig(abtb_entries=64)))


class TestTraceBatch:
    def test_round_trip_preserves_every_field(self):
        events = mixed_trace(6)
        batch = TraceBatch.from_events(events)
        back = batch.to_events()
        assert len(back) == len(events)
        for orig, rt in zip(events, back):
            for attr in ("kind", "pc", "n_instr", "nbytes", "target", "mem_addr", "tag"):
                assert getattr(orig, attr) == getattr(rt, attr), attr
            assert bool(orig.taken) == bool(rt.taken)

    def test_iter_batches_chunks_and_sizes(self):
        events = [block(0x1000 + 64 * i, 1) for i in range(10)]
        batches = list(iter_batches(events, 4))
        assert [len(b.data) for b in batches] == [4, 4, 2]

    def test_iter_batches_rejects_nonpositive(self):
        with pytest.raises(TraceError):
            list(iter_batches([block(0x1000, 1)], 0))


class TestBackendEquivalence:
    def test_mixed_trace_base(self):
        assert_equivalent(mixed_trace(), CPU)

    def test_mixed_trace_enhanced(self):
        assert_equivalent(mixed_trace(), enhanced)

    @pytest.mark.parametrize("batch_events", [1, 2, 3, 7, 4096])
    def test_batch_size_invariance(self, batch_events):
        assert_equivalent(mixed_trace(), enhanced, batch_events)

    def test_pair_straddling_batch_boundary(self):
        # Pair head as the last event of a batch: the lookahead must cross
        # into the next batch through the fallback cursor.
        events = [block(0x1000, 1)] * 3 + plt_call() + plt_call()
        for batch_events in (4, 5):  # head at index 3 / tail split
            assert_equivalent(events, enhanced, batch_events)

    def test_marks_identical(self):
        events = mixed_trace()
        ref = run_reference(events, CPU())
        fast = run_batched(events, CPU())
        assert ref.marks == fast.marks
        assert any(m.tag == ("begin", "req", 3) for m in fast.marks)

    def test_context_switch_fallback(self):
        events = plt_call() + [context_switch()] + plt_call()
        assert_equivalent(events, enhanced)

    def test_empty_stream(self):
        assert_equivalent([], CPU)

    @pytest.mark.parametrize("name", sorted(ALL_WORKLOADS))
    def test_workload_slice(self, name):
        cfg = ALL_WORKLOADS[name].config()
        events = list(Workload(cfg).trace(3))
        assert_equivalent(events, enhanced, batch_events=512)


def arm_call(target: int = FUNC, prefix_bytes: int = 8) -> list:
    """An ARM-style library call: the stub's address-computation prefix
    (a short BLOCK at the call target) precedes the ``jmp *GOT``."""
    return [
        call_direct(SITE, PLT),
        block(PLT, prefix_bytes // 4, prefix_bytes),
        jmp_indirect(PLT + prefix_bytes, target, GOT),
        block(target, 10),
        ret(target + 60, SITE + 5),
    ]


def arm_trace() -> list:
    events = []
    for i in range(10):
        events.extend(arm_call())
        # A prefix-shaped BLOCK that is *not* followed by the stub's
        # branch: the call retires as a plain direct call.
        events.append(call_direct(SITE + 0x40, 0x5000))
        events.append(block(0x5000, 2, 8))
        events.append(load(0x5008, 0x7000_0000 + 64 * i))
        events.append(ret(0x5010, SITE + 0x45))
        if i == 6:
            events.append(store(0x5500, GOT))  # GOT rewrite
    return events


def got_store_trace() -> list:
    events = []
    for i in range(12):
        events.extend(plt_call())
        if i % 3 == 2:
            rewrite = store(0x5500, GOT)
            rewrite.tag = "got-store"
            events.append(rewrite)
        events.append(store(0x5508, 0x7100_0000 + 8 * i))
    return events


def coherence_trace() -> list:
    events = []
    for i in range(12):
        events.extend(plt_call())
        events.append(coherence_inval(GOT if i % 4 == 3 else 0x7300_0000 + 64 * i))
    return events


def tail_call_trace() -> list:
    """PLT stubs reached by ``jmp`` (tag "plt", no preceding call)."""
    events = []
    for i in range(10):
        events.append(block(0x5000, 4))
        tramp = jmp_indirect(PLT, FUNC, GOT)
        tramp.tag = "plt"
        events.append(tramp)
        events.append(block(FUNC, 10))
        events.append(ret(FUNC + 60, SITE + 5))
        events.extend(plt_call())
        if i % 4 == 1:
            bare = jmp_indirect(PLT + 16, FUNC + 0x100, 0)  # no GOT load
            bare.tag = "plt"
            events.append(bare)
    return events


def page_crossing_trace() -> list:
    """Fetch spans that cross line and page boundaries, incl. multi-page."""
    events = []
    for i in range(8):
        events.append(block(0xFFC0, 16, 128))  # straddles 0x10000
        events.append(block(0x2_0F00, 700, 9000))  # spans three pages
        events.append(cond_branch(0x2_3220, 0x2_3300, taken=bool(i % 2)))
        events.append(load(0x2_3300, 0x7000_0FF8 + 4096 * (i % 3)))
        events.append(block(0xFFC0, 16, 128))
        events.extend(plt_call())
    return events


def odd_geometry_cpu(mechanism: bool = True) -> CPU:
    """L2 lines twice the L1D's; single-set BTB, I-TLB and D-TLB."""
    registry = default_registry().clone()
    registry.register(
        "l2", lambda c: SetAssociativeCache("L2", 64 * 1024, 128, 4)
    )
    config = CPUConfig(
        btb_entries=4, btb_ways=4,
        itlb_entries=4, itlb_ways=4,
        dtlb_entries=8, dtlb_ways=8,
        l1i_bytes=1024, l1i_ways=2,
        l1d_bytes=1024, l1d_ways=2,
    )
    mech = TrampolineSkipMechanism(MechanismConfig(abtb_entries=64)) if mechanism else None
    return CPU(config, mechanism=mech, registry=registry)


def no_bloom() -> CPU:
    return CPU(
        mechanism=TrampolineSkipMechanism(
            MechanismConfig(abtb_entries=64, use_bloom=False)
        )
    )


#: (trace factory, CPU factory) pairs for the cases retirement treats
#: specially: each must leave both engines in identical full snapshots.
SPECIAL_CASES = {
    "arm-stub-prefix": (arm_trace, enhanced),
    "arm-stub-prefix-base": (arm_trace, CPU),
    "no-bloom-got-store": (got_store_trace, no_bloom),
    "coherence-inval": (coherence_trace, enhanced),
    "plt-tail-call": (tail_call_trace, enhanced),
    "page-crossing-fetch": (page_crossing_trace, enhanced),
    "odd-geometry": (mixed_trace, odd_geometry_cpu),
    "odd-geometry-base": (mixed_trace, lambda: odd_geometry_cpu(False)),
    "odd-geometry-arm": (arm_trace, odd_geometry_cpu),
    "odd-geometry-pages": (page_crossing_trace, odd_geometry_cpu),
}


class TestSpecialCases:
    @pytest.mark.parametrize("batch_events", [1, 2, 3, 4096])
    @pytest.mark.parametrize("case", sorted(SPECIAL_CASES))
    def test_full_snapshot_equal(self, case, batch_events):
        make_trace, make_cpu = SPECIAL_CASES[case]
        assert_equivalent(make_trace(), make_cpu, batch_events)

    def test_cases_exercise_their_paths(self):
        arm = run_reference(arm_trace(), enhanced()).finalize()
        assert arm.trampolines_skipped > 0
        assert arm.trampoline_instructions == 3 * arm.trampolines_executed
        mech = run_reference(got_store_trace(), no_bloom()).mechanism
        assert mech.stats.explicit_flushes == 4
        mech = run_reference(coherence_trace(), enhanced()).mechanism
        assert mech.stats.coherence_flushes > 0
        tail = run_reference(tail_call_trace(), CPU()).finalize()
        assert tail.trampolines_executed == 10 + 10 + 3  # pairs + tail calls
        pages = run_reference(page_crossing_trace(), CPU()).finalize()
        assert pages.itlb_accesses == 8 * 14  # 2 + 4 + 1 + 1 + 2 + 4 per round


def penalty_sum(config: CPUConfig, c) -> float:
    """The cycle formula, written out term by term."""
    t = config.timing
    return (
        t.base_cpi * c.instructions
        + t.l1i_miss * c.l1i_misses
        + t.l1d_miss * c.l1d_misses
        + t.l2_miss * c.l2_misses
        + t.itlb_miss * c.itlb_misses
        + t.dtlb_miss * c.dtlb_misses
        + t.mispredict * c.branch_mispredictions
        + config.direct_btb_bubble * c.direct_btb_bubbles
    )


class TestCycleIdentity:
    """Cycles are the penalty-weighted counter sum, in both engines."""

    @pytest.mark.parametrize("name", sorted(ALL_WORKLOADS))
    def test_cycles_are_the_penalty_sum(self, name):
        events = workload_events(name, requests=3)
        # The reference retires the slice in chunks that end just before
        # each mark (no trampoline lookahead crosses a mark), recording
        # the counters every mark must be priced at.
        ref = enhanced()
        at_marks = []
        start = 0
        for i, ev in enumerate(events):
            if ev.kind == EventKind.MARK:
                ref.run(events[start:i])
                at_marks.append(ref.counters.copy())
                start = i
        ref.run(events[start:])
        fast = run_batched(events, enhanced())
        assert ref.snapshot() == fast.snapshot()
        for cpu in (ref, fast):
            c = cpu.finalize()
            assert c.cycles == penalty_sum(cpu.config, c)
            assert len(cpu.marks) == len(at_marks) > 0
            for mark, counters in zip(cpu.marks, at_marks):
                assert mark.instructions == counters.instructions
                assert mark.cycles == penalty_sum(cpu.config, counters)
        assert ref.counters.direct_btb_bubbles > 0
        assert ref.counters.direct_btb_bubbles == fast.counters.direct_btb_bubbles


class TestHooks:
    def test_hooked_cpu_falls_back_and_matches(self):
        class Recorder(CPUHooks):
            def __init__(self):
                self.trampolines = []
                self.stores = []

            def on_trampoline(self, site_pc, stub_pc, target, skipped, *a, **k):
                self.trampolines.append((site_pc, stub_pc, target, skipped))

            def on_store(self, addr):
                self.stores.append(addr)

        events = mixed_trace()

        def make(rec):
            return CPU(
                mechanism=TrampolineSkipMechanism(MechanismConfig(abtb_entries=64)),
                hooks=rec,
            )

        ref_rec, fast_rec = Recorder(), Recorder()
        ref = run_reference(events, make(ref_rec))
        fast = run_batched(events, make(fast_rec))
        assert ref.snapshot() == fast.snapshot()
        assert ref_rec.trampolines == fast_rec.trampolines
        assert ref_rec.stores == fast_rec.stores
        assert fast_rec.trampolines  # the hook actually observed something

    @pytest.mark.parametrize("batch_events", [1, 2, 3])
    def test_held_back_call_keeps_its_tag(self, batch_events):
        # A call whose pair lookahead crosses a batch end is carried into
        # the next batch; its tag must travel with it.
        class Skips(CPUHooks):
            def __init__(self):
                self.seen = []

            def on_skip(self, call, jmp, target):
                self.seen.append((call.tag, jmp.tag, target))

        events = []
        for i in range(8):
            for ev in plt_call() if i % 2 else arm_call():
                if ev.kind == EventKind.CALL_DIRECT:
                    ev.tag = ("site", i)
                events.append(ev)
        def make(rec):
            mech = TrampolineSkipMechanism(MechanismConfig(abtb_entries=64))
            return CPU(mechanism=mech, hooks=rec)

        ref_rec, fast_rec = Skips(), Skips()
        ref = run_reference(events, make(ref_rec))
        fast = run_batched(events, make(fast_rec), batch_events)
        assert ref.snapshot() == fast.snapshot()
        assert ref_rec.seen == fast_rec.seen
        assert ("site", 7) in [tag for tag, _jmp, _target in fast_rec.seen]


class TestRunnerSelection:
    def test_backends_registry(self):
        assert BACKENDS == ("reference", "batched")

    def test_make_runner_reference_is_cpu_run(self):
        cpu = CPU()
        assert make_runner(cpu, "reference") == cpu.run

    def test_make_runner_rejects_unknown(self):
        with pytest.raises(ConfigError):
            make_runner(CPU(), "warp-speed")

    def test_batched_backend_rejects_bad_batch(self):
        with pytest.raises(ConfigError):
            BatchedBackend(CPU(), 0)

    def test_sync_hook_positions(self):
        events = [block(0x1000 + 64 * i, 1) for i in range(10)]
        positions = []
        BatchedBackend(CPU(), 4).run(iter(events), sync_hook=positions.append)
        assert positions == sorted(positions)
        assert positions[-1] == len(events)


class TestRunnerIntegration:
    def test_run_pair_backend_equivalence(self):
        from repro.experiments.runner import run_pair
        from repro.experiments.scale import Scale

        scale = Scale("tiny", {"memcached": (2, 6)})
        ref_base, ref_enh = run_pair("memcached", scale, abtb_entries=64, seed=7)
        fast_base, fast_enh = run_pair(
            "memcached", scale, abtb_entries=64, seed=7, backend="batched"
        )
        assert ref_base.counters.as_dict() == fast_base.counters.as_dict()
        assert ref_enh.counters.as_dict() == fast_enh.counters.as_dict()
        assert ref_enh.requests == fast_enh.requests

    def test_run_workload_rejects_unknown_backend(self):
        from repro.experiments.runner import run_workload

        cfg = ALL_WORKLOADS["memcached"].config()
        with pytest.raises(ConfigError):
            run_workload(cfg, measured_requests=1, backend="nope")
