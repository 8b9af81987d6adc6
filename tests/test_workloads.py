"""Tests for the workload framework and the four calibrated applications."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.isa.events import count_instructions
from repro.isa.kinds import EventKind
from repro.trace.engine import LinkMode
from repro.trace.store import generate_bundle
from repro.uarch import CPU
from repro.workloads import ALL_WORKLOADS, Workload, apache, memcached
from repro.workloads.base import LibrarySpec, RequestClass, WorkloadConfig
from repro.workloads.profiles import PopularityProfile


def small_config(**overrides) -> WorkloadConfig:
    """A fast workload for structural tests."""
    defaults = dict(
        name="small",
        libraries=(
            LibrarySpec("liba.so", n_functions=40, import_pairs=4),
            LibrarySpec("libb.so", n_functions=40),
        ),
        request_classes=(
            RequestClass("REQ", segments=20, segment_instr=30, call_prob=0.8,
                         phase_len=10, phase_set=2, app_phase_fns=3),
        ),
        app_functions=30,
        app_import_pairs=12,
        profile=PopularityProfile(core_size=4, core_mass=0.7, zipf_s=1.0),
        plt_sparsity=2,
        seed=99,
    )
    defaults.update(overrides)
    return WorkloadConfig(**defaults)


class TestWorkloadConfig:
    def test_distinct_pair_target(self):
        assert small_config().distinct_pair_target == 16

    def test_needs_request_classes(self):
        with pytest.raises(ConfigError):
            small_config(request_classes=())

    def test_cannot_import_more_than_defined(self):
        with pytest.raises(ConfigError):
            small_config(app_import_pairs=1000)


class TestWorkloadBuild:
    def test_modules_and_pairs_built(self):
        wl = Workload(small_config())
        assert set(wl.program.modules) == {"app", "liba.so", "libb.so"}
        assert len(wl._pairs_by_module["app"]) == 12
        assert len(wl._pairs_by_module["liba.so"]) == 4

    def test_plt_sparsity_pads_imports(self):
        wl = Workload(small_config())
        assert len(wl.program.module("app").imports()) == 24  # 12 used * 2

    def test_call_sites_inside_caller_text(self):
        wl = Workload(small_config())
        app = wl.program.module("app")
        lo, hi = app.text_range
        for pair in wl._pairs_by_module["app"]:
            for site in pair.sites:
                assert lo <= site < hi

    def test_deterministic_rebuild(self):
        a = Workload(small_config())
        b = Workload(small_config())
        events_a = list(a.trace(3))
        events_b = list(b.trace(3))
        assert events_a == events_b

    def test_different_seeds_differ(self):
        a = list(Workload(small_config(seed=1)).trace(2))
        b = list(Workload(small_config(seed=2)).trace(2))
        assert a != b


class TestTraceGeneration:
    def test_marks_bracket_requests(self):
        wl = Workload(small_config())
        events = list(wl.trace(3))
        tags = [e.tag for e in events if e.kind == EventKind.MARK]
        assert tags[0] == ("begin", "REQ", 0)
        assert tags[-1] == ("end", "REQ", 2)
        assert len(tags) == 6

    def test_marks_optional(self):
        wl = Workload(small_config())
        assert not any(
            e.kind == EventKind.MARK for e in wl.trace(2, include_marks=False)
        )

    def test_start_id_offsets_requests(self):
        wl = Workload(small_config())
        tags = [e.tag for e in wl.trace(2, start_id=10) if e.kind == EventKind.MARK]
        assert tags[0] == ("begin", "REQ", 10)

    def test_trampolines_present_in_dynamic_mode(self):
        wl = Workload(small_config())
        kinds = {e.kind for e in wl.trace(2)}
        assert EventKind.JMP_INDIRECT in kinds

    def test_static_mode_has_no_trampolines(self):
        wl = Workload(small_config(), mode=LinkMode.STATIC)
        events = list(wl.trace(3))
        assert not any(e.kind == EventKind.JMP_INDIRECT and e.tag == "plt" for e in events)

    def test_startup_touches_every_pair(self):
        wl = Workload(small_config())
        for _ in wl.startup_trace():
            pass
        assert wl.distinct_trampolines_touched == wl.config.distinct_pair_target

    def test_usage_stats_reset(self):
        wl = Workload(small_config())
        for _ in wl.startup_trace():
            pass
        wl.reset_usage_stats()
        assert wl.distinct_trampolines_touched == 0
        for _ in wl.trace(2):
            pass
        assert wl.distinct_trampolines_touched > 0

    def test_frequency_curve_sorted(self):
        wl = Workload(small_config())
        for _ in wl.trace(5):
            pass
        curve = wl.frequency_curve()
        assert curve == sorted(curve, reverse=True)
        assert sum(curve) == sum(wl.pair_counts.values())

    def test_context_switches_emitted(self):
        wl = Workload(small_config(context_switch_interval=500))
        kinds = [e.kind for e in wl.trace(5)]
        assert EventKind.CONTEXT_SWITCH in kinds

    def test_all_call_sites_enumerates(self):
        wl = Workload(small_config(sites_per_pair=2))
        sites = wl.all_call_sites()
        assert len(sites) == (12 + 4) * 2
        assert len({s for s, _, _ in sites}) == len(sites)  # unique addresses


class TestCalibration:
    """Coarse checks that each workload hits its paper targets."""

    @pytest.mark.parametrize("name", sorted(ALL_WORKLOADS))
    def test_trampoline_pki_close_to_paper(self, name):
        module = ALL_WORKLOADS[name]
        wl = Workload(module.config())
        cpu = CPU()
        cpu.run(wl.startup_trace())
        snap = cpu.counters.copy()
        cpu.run(wl.trace(6, include_marks=False))
        window = cpu.counters.delta(snap)
        measured = window.pki("trampolines_executed")
        assert measured == pytest.approx(module.PAPER_TRAMPOLINE_PKI, rel=0.35)

    @pytest.mark.parametrize("name", sorted(ALL_WORKLOADS))
    def test_design_universe_matches_table3(self, name):
        module = ALL_WORKLOADS[name]
        assert module.config().distinct_pair_target == module.PAPER_DISTINCT_TRAMPOLINES

    def test_apache_is_prefork(self):
        assert apache.PREFORK and not memcached.PREFORK

    def test_request_mix_weights_respected(self):
        wl = Workload(memcached.config())
        rng = np.random.default_rng(0)
        mix = wl.request_mix(500, rng)
        gets = sum(1 for rc in mix if rc.name == "GET")
        assert 0.8 < gets / 500 < 0.97  # nominal 0.9

    def test_instruction_volume_reasonable(self):
        wl = Workload(memcached.config())
        total = count_instructions(wl.trace(3, include_marks=False))
        assert 3_000 < total // 3 < 30_000  # per-request instructions


# SHA-256 of each segment's ``to_bytes()`` (startup, warm-up, measured) of
# ``generate_bundle(Workload(profile.config()), 1, 2)``.  Any change to
# workload construction or generation that moves a single event changes
# these; update them only together with a stated reason for the change.
BUNDLE_FINGERPRINTS = {
    "apache": (
        "3f37d84f109f2aeab93b1db86e804d2041e6a5292554ce5ab4d63fa512d2fd2c",
        "0f6ad19a3fdb7cc262a792a343dc9e751c1d83f3b6bd8322f8992ede35bdaa05",
        "31036ab43862d063727868547574b32d64b9e38c1c62afc10bdf7d0fc729b767",
    ),
    "firefox": (
        "b61952a20ecc484503febe0949bd0525989a23e8e5f7013c008a02a6e526fe5d",
        "bcfd250bc2cc98be80a3a2f901d6a41b4d9559c0ad99985f2f0bb2ac6be3d869",
        "87d5631352583bcd51a466af713b8f59ae393a4d3de6139fcf4a27c4ec1f6eb0",
    ),
    "memcached": (
        "087239cce7e804fe210068179139388e189235eabdcae43dc86ff5f4cf2b4727",
        "bd9a41cfc607eefd752e67bbd3064d0d8d96b2538a9cec3807fba95a320705b1",
        "8e293926b4919156c677616cb03988db9da29ef05b5c3a4d79f8f5dacdbe2f92",
    ),
    "mysql": (
        "133bad24f867ab3a6249c59dd44499e1b508623b601332e6d5c4ca04d52c754b",
        "a87b4487c4161c6db2820d4c2a88b4a69f7ce8bc6e1bf41a7abe891a8c2c4f1e",
        "1611006fb6d4879d7af226b33ca191f6ef3886321ca56f9bc691070856bf8560",
    ),
}


@pytest.mark.parametrize("name", sorted(ALL_WORKLOADS))
def test_bundle_fingerprint(name):
    """Each profile's trace bundle at a fixed size is byte-for-byte pinned."""
    assert sorted(BUNDLE_FINGERPRINTS) == sorted(ALL_WORKLOADS)
    bundle = generate_bundle(Workload(ALL_WORKLOADS[name].config()), 1, 2)
    digests = tuple(hashlib.sha256(seg.to_bytes()).hexdigest() for seg in bundle.segments())
    assert digests == BUNDLE_FINGERPRINTS[name]
