"""Tests for the numpy-native trace pipeline.

The pipeline's contract, end to end: array-native generation emits
event-for-event (and serialised byte-for-byte) what the legacy iterator
generators emit; the codec round-trips every field of every event kind;
the batched backend retires stored batches to CPU state identical to the
reference interpreter over the iterator stream; and the content-addressed
trace store turns all of it into a deterministic, corruption-safe
campaign cache.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.core import MechanismConfig, TrampolineSkipMechanism
from repro.difftest.harness import diff_backends, workload_batches, workload_events
from repro.errors import TraceError
from repro.experiments.runner import run_campaign, run_pair, run_workload
from repro.experiments.scale import Scale
from repro.isa.kinds import EventKind
from repro.trace.batch import TraceBatch
from repro.trace.engine import LinkMode
from repro.trace.store import (
    TraceStore,
    apply_stats,
    generate_bundle,
    trace_key,
)
from repro.uarch import CPU
from repro.uarch.backend import BatchedBackend
from repro.uarch.machine import CheckpointStore
from repro.workloads import ALL_WORKLOADS
from repro.workloads.base import Workload

PROFILES = ("apache", "firefox", "memcached", "mysql")
REQUESTS = 4
SEED = 2025


def _workload(name: str, mode: LinkMode = LinkMode.DYNAMIC) -> Workload:
    return Workload(ALL_WORKLOADS[name].config(seed=SEED), mode)


# ------------------------------------------------- generation equivalence


class TestArrayGenerationMatchesLegacy:
    """The batch-emitting twins are oracle-checked against the iterators."""

    @pytest.mark.parametrize("name", PROFILES)
    def test_startup_and_requests_byte_identical(self, name):
        legacy = _workload(name)
        events = list(legacy.startup_trace())
        events.extend(legacy.trace(REQUESTS))

        arrayed = _workload(name)
        batches = [arrayed.startup_batch(), arrayed.trace_batch(REQUESTS)]

        total = sum(len(b.data) for b in batches)
        assert total == len(events)
        # Byte-identical through the codec — same rows, same tag
        # interning order — segment by segment.
        assert TraceBatch.from_events(events[: len(batches[0].data)]).to_bytes() == (
            batches[0].to_bytes()
        )
        assert TraceBatch.from_events(events[len(batches[0].data) :]).to_bytes() == (
            batches[1].to_bytes()
        )

    @pytest.mark.parametrize("name", PROFILES)
    def test_usage_stats_identical(self, name):
        legacy = _workload(name)
        list(legacy.startup_trace())
        legacy.reset_usage_stats()
        list(legacy.trace(REQUESTS))

        arrayed = _workload(name)
        arrayed.startup_batch()
        arrayed.reset_usage_stats()
        arrayed.trace_batch(REQUESTS)

        assert arrayed.touched_pairs == legacy.touched_pairs
        assert arrayed.pair_counts == legacy.pair_counts
        assert arrayed.engine.calls_emitted == legacy.engine.calls_emitted
        assert arrayed.engine.resolutions_emitted == legacy.engine.resolutions_emitted

    def test_static_mode_and_warmup_kwargs_match(self):
        legacy = _workload("memcached", LinkMode.STATIC)
        events = list(legacy.trace(REQUESTS, include_marks=False, start_id=7))
        arrayed = _workload("memcached", LinkMode.STATIC)
        batch = arrayed.trace_batch(REQUESTS, include_marks=False, start_id=7)
        assert TraceBatch.from_events(events).to_bytes() == batch.to_bytes()

    def test_template_cache_invalidated_by_binding_epoch(self):
        """A GOT rewrite mid-trace must not leave stale call templates."""
        legacy = _workload("memcached")
        arrayed = _workload("memcached")
        for wl in (legacy, arrayed):
            # Warm the engine (and, on the array side, its template cache).
            if wl is legacy:
                list(wl.startup_trace())
            else:
                wl.startup_batch()
            epoch = wl.program.binding_epoch
            wl.program.reselect_ifuncs(hwcap_level=1)
            assert wl.program.binding_epoch == epoch + 1
        events = list(legacy.trace(REQUESTS))
        batch = arrayed.trace_batch(REQUESTS)
        assert TraceBatch.from_events(events).to_bytes() == batch.to_bytes()


# ----------------------------------------------- codec round-trip (all kinds)


class TestCodecRoundTrip:
    @pytest.mark.parametrize("name", PROFILES)
    def test_round_trip_over_profile(self, name):
        """Satellite contract: from_events/to_events over every profile,
        context-switch and dlclose event kinds included."""
        wl = _workload(name)
        events = list(wl.startup_trace())
        events.extend(wl.trace(REQUESTS))
        # dlclose emits the GOT-reset stores + markers the codec must
        # also carry; unload the last-loaded library once tracing is done.
        events.extend(wl.engine.dlclose_events(wl.config.libraries[-1].name))

        batch = TraceBatch.from_events(events)
        back = batch.to_events()
        assert len(back) == len(events)
        for orig, rt in zip(events, back):
            for attr in ("kind", "pc", "n_instr", "nbytes", "target", "mem_addr", "tag"):
                assert getattr(orig, attr) == getattr(rt, attr), attr
            assert bool(orig.taken) == bool(rt.taken)
        # And byte-stability through a second serialisation.
        assert TraceBatch.from_events(back).to_bytes() == batch.to_bytes()

    def test_context_switch_kind_emitted_and_round_trips(self):
        import dataclasses

        cfg = dataclasses.replace(
            ALL_WORKLOADS["memcached"].config(seed=SEED), context_switch_interval=500
        )
        batch = Workload(cfg, LinkMode.DYNAMIC).trace_batch(5)
        kinds = {int(k) for k in batch.data["kind"]}
        assert int(EventKind.CONTEXT_SWITCH) in kinds
        assert int(EventKind.MARK) in kinds
        assert TraceBatch.from_events(batch.to_events()).to_bytes() == batch.to_bytes()


# ------------------------------------------------------------ batch slicing


class TestBatchSlices:
    def test_slices_are_zero_copy_views_covering_all_rows(self):
        batch = _workload("memcached").trace_batch(REQUESTS)
        pieces = list(batch.slices(101))
        assert sum(len(p.data) for p in pieces) == len(batch.data)
        assert all(p.tags is batch.tags for p in pieces)
        assert pieces[0].data.base is not None  # a view, not a copy

    def test_slices_rejects_nonpositive(self):
        batch = _workload("memcached").trace_batch(1)
        with pytest.raises(TraceError):
            list(batch.slices(0))


# ------------------------------------------------------- batched retirement


class TestRunBatches:
    def test_run_batches_matches_reference_full_snapshot(self):
        events = workload_events("memcached", requests=REQUESTS, seed=SEED)
        batches = workload_batches("memcached", requests=REQUESTS, seed=SEED)

        def make_cpu() -> CPU:
            return CPU(mechanism=TrampolineSkipMechanism(MechanismConfig(abtb_entries=64)))

        ref = make_cpu()
        ref.run(events)
        fast = make_cpu()
        BatchedBackend(fast, 101).run_batches(batches)
        assert ref.snapshot() == fast.snapshot()

    def test_difftest_array_generation_is_clean(self):
        report = diff_backends(
            workload_events("apache", requests=REQUESTS, seed=SEED),
            CPU,
            fast_batches=workload_batches("apache", requests=REQUESTS, seed=SEED),
        )
        assert report.ok, report.render()

    def test_difftest_reports_stream_length_mismatch(self):
        events = workload_events("apache", requests=REQUESTS, seed=SEED)
        batches = workload_batches("apache", requests=REQUESTS, seed=SEED)
        truncated = [batches[0], TraceBatch(batches[1].data[:-3], batches[1].tags)]
        report = diff_backends(events, CPU, fast_batches=truncated)
        assert not report.ok
        assert any(p == "stream.len" for p, _r, _f in report.divergence.diffs)


# ------------------------------------------------------------- trace store


class TestTraceStore:
    def _bundle(self, warmup=2, measured=3):
        wl = _workload("memcached")
        return generate_bundle(wl, warmup, measured), wl

    def test_save_load_round_trip_with_stats(self, tmp_path):
        bundle, wl = self._bundle()
        store = TraceStore(tmp_path)
        cfg = wl.config
        key = trace_key(cfg, LinkMode.DYNAMIC, 2, 3)
        assert not store.has(key)
        store.save(key, bundle)
        assert store.has(key)
        loaded = store.load(key)
        assert loaded is not None
        for got, want in zip(loaded.segments(), bundle.segments()):
            assert got.to_bytes() == want.to_bytes()
        fresh = _workload("memcached")
        apply_stats(loaded.stats, fresh)
        assert fresh.touched_pairs == wl.touched_pairs
        assert fresh.pair_counts == wl.pair_counts
        assert fresh.engine.calls_emitted == wl.engine.calls_emitted

    def test_corrupt_segment_reads_as_miss(self, tmp_path):
        bundle, wl = self._bundle()
        store = TraceStore(tmp_path)
        key = trace_key(wl.config, LinkMode.DYNAMIC, 2, 3)
        entry = store.save(key, bundle)
        raw = bytearray((entry / "measured.trace").read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        (entry / "measured.trace").write_bytes(bytes(raw))
        assert store.has(key)  # marker present...
        assert store.load(key) is None  # ...but the payload is not trusted

    def test_missing_marker_reads_as_miss(self, tmp_path):
        bundle, wl = self._bundle()
        store = TraceStore(tmp_path)
        key = trace_key(wl.config, LinkMode.DYNAMIC, 2, 3)
        entry = store.save(key, bundle)
        (entry / "meta.json").unlink()
        assert store.load(key) is None

    def test_key_covers_recipe_and_windows(self):
        cfg = ALL_WORKLOADS["memcached"].config(seed=SEED)
        base = trace_key(cfg, LinkMode.DYNAMIC, 2, 3)
        assert trace_key(cfg, LinkMode.DYNAMIC, 2, 3) == base
        assert trace_key(cfg, LinkMode.STATIC, 2, 3) != base
        assert trace_key(cfg, LinkMode.DYNAMIC, 3, 3) != base
        assert trace_key(cfg, LinkMode.DYNAMIC, 2, 4) != base
        other = ALL_WORKLOADS["memcached"].config(seed=SEED + 1)
        assert trace_key(other, LinkMode.DYNAMIC, 2, 3) != base


# ----------------------------------------------------- runner integration


class TestRunnerTraceCache:
    SCALE = Scale("t", {"memcached": (3, 2)})

    def _pair(self, **kw):
        base, enhanced = run_pair("memcached", self.SCALE, abtb_entries=16, **kw)
        return (
            base.counters.instructions,
            base.counters.cycles,
            enhanced.counters.cycles,
            len(base.requests),
            base.workload.distinct_trampolines_touched,
            sorted(base.workload.pair_counts.items()),
            base.workload.engine.calls_emitted,
        )

    def test_cold_and_warm_match_reference(self, tmp_path):
        reference = self._pair(backend="reference")
        store = TraceStore(tmp_path)
        cold = self._pair(backend="batched", trace_cache=store)
        warm = self._pair(backend="batched", trace_cache=store)
        assert reference == cold == warm

    def test_trace_cache_ignored_for_reference_backend(self, tmp_path):
        store = TraceStore(tmp_path)
        result = self._pair(backend="reference", trace_cache=store)
        assert result == self._pair(backend="reference")
        assert not list(tmp_path.rglob("meta.json"))  # never engaged

    def test_backend_used_reported(self, tmp_path):
        cfg = ALL_WORKLOADS["memcached"].config(seed=SEED)
        result = run_workload(
            cfg, warmup_requests=1, measured_requests=2,
            backend="batched", trace_cache=TraceStore(tmp_path),
        )
        assert result.backend_used == "batched"
        assert result.requests


# ------------------------------------------------------------ determinism


class TestDeterminism:
    def test_same_seed_byte_identical_batches(self):
        a = _workload("apache").trace_batch(REQUESTS)
        b = _workload("apache").trace_batch(REQUESTS)
        assert a.to_bytes() == b.to_bytes()

    def test_serial_and_sharded_campaigns_store_identical_bytes(self, tmp_path):
        """Satellite contract: the same seed produces byte-identical
        serialised traces whether the campaign runs --jobs 1 or --jobs 4."""
        scale = Scale("t", {"memcached": (2, 2), "apache": (2, 2)})
        summaries = {}
        for jobs in (1, 4):
            root = tmp_path / f"jobs{jobs}"
            result = run_campaign(
                ("memcached", "apache"), scale, abtb_sizes=(16,),
                jobs=jobs, backend="batched",
                machine_cache_dir=root / "machines",
                trace_cache_dir=root / "traces",
            )
            assert result.ok
            summaries[jobs] = result.completed
        assert summaries[1] == summaries[4]
        files1 = sorted(
            p.relative_to(tmp_path / "jobs1")
            for p in (tmp_path / "jobs1").rglob("*.trace")
        )
        files4 = sorted(
            p.relative_to(tmp_path / "jobs4")
            for p in (tmp_path / "jobs4").rglob("*.trace")
        )
        assert files1 and files1 == files4
        for rel in files1:
            assert (tmp_path / "jobs1" / rel).read_bytes() == (
                tmp_path / "jobs4" / rel
            ).read_bytes(), rel

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="counts writes through a patch that forked workers inherit",
    )
    def test_sharded_cold_campaign_stores_each_artifact_once(
        self, tmp_path, monkeypatch
    ):
        """Artifact shards store each workload's bundle and base machine
        exactly once, before any pair of that workload is leased."""
        scale = Scale("t", {"memcached": (2, 2), "apache": (2, 2)})
        workloads, sizes = ("memcached", "apache"), (16, 64)
        pairs = len(workloads) * len(sizes)
        log = tmp_path / "machine-writes.log"
        save = CheckpointStore.save

        def logged_save(store, key, state):
            # One line per write, appended from whichever process wrote.
            with open(log, "a") as fh:
                fh.write(f"{key}\n")
            return save(store, key, state)

        checkpoints = {}
        for jobs in (1, 2):
            root = tmp_path / f"jobs{jobs}"
            if jobs == 2:
                monkeypatch.setattr(CheckpointStore, "save", logged_save)
            result = run_campaign(
                workloads, scale, abtb_sizes=sizes, jobs=jobs, backend="batched",
                machine_cache_dir=root / "machines",
                trace_cache_dir=root / "traces",
                checkpoint_path=root / "ck.json",
            )
            assert result.ok
            checkpoints[jobs] = (root / "ck.json").read_bytes()
        # Every pair loaded its bundle for the base and the enhanced run,
        # and none found it missing: no pair regenerated it.
        assert result.cache_stats["misses"] == 0
        assert result.cache_stats["hits"] == 2 * pairs
        assert len(list((tmp_path / "jobs2" / "traces").rglob("meta.json"))) == len(
            workloads
        )
        # One base machine per workload plus one enhanced machine per pair,
        # each written once.
        writes = log.read_text().split()
        assert len(writes) == len(set(writes)) == len(workloads) + pairs
        assert checkpoints[2] == checkpoints[1]
