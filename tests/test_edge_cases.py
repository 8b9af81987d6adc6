"""Edge-case and corner coverage across modules."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.core import TrampolineSkipMechanism
from repro.isa.events import block, call_direct, jmp_indirect, load, mark, ret
from repro.isa.kinds import EventKind
from repro.uarch import CPU, CPUConfig, PerfCounters
from repro.uarch.timing import TimingModel
from repro.workloads import memcached
from repro.workloads.base import Workload
from tests.test_integration import tiny_workload_config


class TestCpuEventBuffering:
    """The pair-detection lookahead must never drop or duplicate events."""

    def test_call_followed_by_block_elsewhere(self):
        # A direct call whose next event is NOT at its target: both charged.
        cpu = CPU()
        cpu.run([call_direct(0x1000, 0x5000), block(0x9000, 7)])
        assert cpu.finalize().instructions == 8

    def test_call_followed_by_small_block_at_target_then_non_jmp(self):
        # Looks like an ARM stub prefix but no indirect branch follows:
        # the two buffered events must still be processed.
        cpu = CPU(mechanism=TrampolineSkipMechanism())
        cpu.run([
            call_direct(0x1000, 0x5000),
            block(0x5000, 2, 8),
            block(0x6000, 5),
        ])
        assert cpu.finalize().instructions == 8

    def test_two_adjacent_calls(self):
        cpu = CPU()
        cpu.run([
            call_direct(0x1000, 0x5000),
            call_direct(0x5000, 0x6000),
            block(0x6000, 3),
        ])
        assert cpu.finalize().instructions == 5

    def test_trailing_call_at_stream_end(self):
        cpu = CPU()
        cpu.run([call_direct(0x1000, 0x5000)])
        assert cpu.finalize().instructions == 1

    def test_large_block_at_call_target_not_treated_as_stub(self):
        # A 32-byte block at the target is a function body, not a stub.
        cpu = CPU(mechanism=TrampolineSkipMechanism())
        cpu.run([
            call_direct(0x1000, 0x5000),
            block(0x5000, 8, 32),
            jmp_indirect(0x5020, 0x9000, 0x700000),
        ])
        c = cpu.finalize()
        assert c.trampolines_skipped == 0
        assert c.instructions == 10


class TestCpuConfig:
    def test_custom_geometry(self):
        cpu = CPU(CPUConfig(l1i_bytes=8192, l1i_ways=4, btb_entries=64))
        assert cpu.l1i.n_sets == 32
        assert cpu.btb.n_sets == 16

    def test_custom_timing_affects_cycles(self):
        slow = CPU(CPUConfig(timing=TimingModel(base_cpi=2.0)))
        fast = CPU(CPUConfig(timing=TimingModel(base_cpi=0.2)))
        events = [block(0x1000, 100)]
        slow.run(iter(events))
        fast.run(iter(events))
        assert slow.finalize().cycles > fast.finalize().cycles

    def test_finalize_syncs_mechanism_counters(self):
        mech = TrampolineSkipMechanism()
        cpu = CPU(mechanism=mech)
        from tests.test_cpu import GOT, plt_call
        from repro.isa.events import store as store_ev

        cpu.run(plt_call() * 2)
        cpu.run([store_ev(0x1, GOT)])
        c = cpu.finalize()
        assert c.bloom_store_hits == 1


class TestMarkPairing:
    def test_unmatched_end_mark_counted(self):
        from repro.experiments.runner import _pair_marks

        cpu = CPU()
        cpu.run([mark(("end", "X", 5)), mark(("begin", "Y", 6)), block(0x1000, 4), mark(("end", "Y", 6))])
        samples, unmatched, dropped = _pair_marks(cpu, 0)
        assert len(samples) == 1 and samples[0].class_name == "Y"
        assert unmatched == 1 and dropped == 0

    def test_non_request_marks_skipped(self):
        from repro.experiments.runner import _pair_marks

        cpu = CPU()
        cpu.run([mark("freeform"), mark(("begin", "Z", 1)), mark(("end", "Z", 1))])
        samples, unmatched, _ = _pair_marks(cpu, 0)
        assert len(samples) == 1 and unmatched == 0


class TestPreforkTrace:
    def test_switches_between_workers(self):
        wl = Workload(tiny_workload_config())
        events = list(wl.prefork_trace(3, 2))
        switches = sum(1 for e in events if e.kind == EventKind.CONTEXT_SWITCH)
        assert switches == 6  # one per request turn

    def test_distinct_request_ids(self):
        wl = Workload(tiny_workload_config())
        tags = [e.tag for e in wl.prefork_trace(2, 2, include_marks=True) if e.kind == EventKind.MARK]
        ids = {t[2] for t in tags}
        assert ids == {0, 1, 2, 3}

    def test_validation(self):
        wl = Workload(tiny_workload_config())
        with pytest.raises(ConfigError):
            list(wl.prefork_trace(0, 2))


class TestIfuncInWorkloads:
    def test_ifunc_functions_resolve_in_memcached(self):
        # memcached's libc has 5% ifuncs; startup resolves them all.
        wl = Workload(memcached.config())
        for _ in wl.startup_trace():
            pass
        program = wl.program
        from repro.linker.symbols import SymbolKind

        ifuncs = [
            s for s in program.symbols.names()
            if program.symbols.lookup(s).kind is SymbolKind.IFUNC
        ]
        assert ifuncs, "config should define some ifuncs"
        # Any resolved ifunc import points at a variant, not the resolver.
        for caller, symbol in program.resolution_log:
            definition = program.symbols.lookup(symbol)
            if definition is not None and definition.kind is SymbolKind.IFUNC:
                layout = program.modules[definition.module].function(symbol)
                got = program.got_value(caller, symbol)
                assert got in layout.variant_entries


class TestWorkloadConfigVariants:
    def test_plt_sparsity_one_means_no_padding(self):
        wl = Workload(tiny_workload_config(plt_sparsity=1))
        assert len(wl.program.module("app").imports()) == 15

    def test_sites_per_pair_rotation(self):
        wl = Workload(tiny_workload_config(sites_per_pair=3))
        pair = wl._pairs_by_module["app"][0]
        assert len(set(pair.sites)) == 3

    def test_zero_nested_depth(self):
        cfg = tiny_workload_config(max_call_depth=0)
        wl = Workload(cfg)
        for _ in wl.trace(3):
            pass
        # Only app-level pairs can be touched.
        assert all(caller == "app" for caller, _ in wl.touched_pairs)

    def test_arch_replace_roundtrip(self):
        from repro.isa.arch import Arch

        cfg = replace(memcached.config(), arch=Arch.ARM)
        wl = Workload(cfg)
        assert wl.engine.arch is Arch.ARM


class TestCounterExtras:
    def test_as_dict_round_trip(self):
        c = PerfCounters(instructions=5, l2_misses=2)
        d = c.as_dict()
        assert d["instructions"] == 5 and d["l2_misses"] == 2
        assert set(d) == set(PerfCounters.field_names())

    def test_cpi_property(self):
        # 100 instructions at 2 cycles plus 5 L1I misses at 10 cycles.
        c = PerfCounters((2.0, 10.0) + (0.0,) * 6, instructions=100, l1i_misses=5)
        assert c.cycles == 250.0
        assert c.cpi == 2.5

    def test_l2_counters_populate(self):
        cpu = CPU(CPUConfig(l1d_bytes=1024, l1d_ways=2, l2_bytes=65536, l2_ways=4))
        cpu.run([load(0x1000, 0x9000 + 64 * i) for i in range(64)])
        c = cpu.finalize()
        assert c.l2_accesses > 0
        assert c.l2_misses <= c.l2_accesses

    def test_l2_catches_l1_conflict_victims(self):
        cpu = CPU(CPUConfig(l1d_bytes=1024, l1d_ways=2))
        # Thrash L1 with 3 lines mapping to one set; L2 keeps them.
        addrs = [0x0, 0x400, 0x800] * 30
        cpu.run([load(0x1000, a) for a in addrs])
        c = cpu.finalize()
        assert c.l1d_misses > 3
        # Only cold misses reach DRAM: 3 data lines + 1 code line.
        assert c.l2_misses == 4


class TestSeedRobustness:
    """Key invariants must hold across seeds, not just the default."""

    @pytest.mark.parametrize("seed", [3, 17, 4242])
    def test_enhanced_never_slower_across_seeds(self, seed):
        results = []
        for mech in (None, TrampolineSkipMechanism()):
            wl = Workload(tiny_workload_config(seed=seed))
            cpu = CPU(mechanism=mech)
            cpu.run(wl.startup_trace())
            cpu.finalize()
            snap = cpu.counters.copy()
            cpu.run(wl.trace(25, include_marks=False))
            cpu.finalize()
            results.append(cpu.counters.delta(snap))
        base, enh = results
        assert enh.cycles <= base.cycles
        assert enh.instructions < base.instructions

    @pytest.mark.parametrize("seed", [3, 17])
    def test_zero_unsafe_skips_across_seeds(self, seed):
        wl = Workload(tiny_workload_config(seed=seed, context_switch_interval=30_000))
        mech = TrampolineSkipMechanism()
        cpu = CPU(mechanism=mech)
        cpu.run(wl.startup_trace())
        cpu.run(wl.trace(25, include_marks=False))
        assert mech.stats.unsafe_skips == 0
