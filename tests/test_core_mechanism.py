"""Unit tests for the ABTB, Bloom filter and the skip mechanism."""

from __future__ import annotations

import hashlib

import pytest

from repro.core import ABTB, ABTB_ENTRY_BYTES, BloomFilter, MechanismConfig, TrampolineSkipMechanism
from repro.errors import ConfigError


class TestBloomFilter:
    def test_contains_after_add(self):
        bloom = BloomFilter(1024, 2)
        bloom.add(0x601018)
        assert bloom.maybe_contains(0x601018)

    def test_no_false_negatives(self):
        bloom = BloomFilter(4096, 3)
        keys = [0x601000 + 8 * i for i in range(200)]
        for k in keys:
            bloom.add(k)
        assert all(bloom.maybe_contains(k) for k in keys)

    def test_mostly_negative_when_sparse(self):
        bloom = BloomFilter(1 << 16, 4)
        bloom.add(0x601018)
        misses = sum(bloom.maybe_contains(0x700000 + 8 * i) for i in range(1000))
        assert misses <= 2  # false positives should be rare at this size

    def test_clear_empties(self):
        bloom = BloomFilter(1024, 2)
        bloom.add(0x601018)
        bloom.clear()
        assert not bloom.maybe_contains(0x601018)
        assert bloom.population == 0

    def test_duplicate_add_is_idempotent(self):
        # Regression: ``add`` used to bump the population on every call,
        # so re-inserting a hot GOT address inflated the analytic
        # false-positive estimate (the bitset itself never changed).
        bloom = BloomFilter(4096, 2)
        for _ in range(5):
            bloom.add(0x601018)
        assert bloom.population == 1
        bits_after_first = bloom.set_bits
        bloom.add(0x601018)
        assert bloom.set_bits == bits_after_first
        bloom.add(0x601020)
        assert bloom.population == 2

    def test_analytic_fp_estimate_matches_measurement(self):
        # 150 distinct keys, each inserted twice: duplicates must not
        # skew the estimate.  The analytic rate (1 - e^{-kn/m})^k and the
        # measured rate over a large disjoint probe set must agree.
        bloom = BloomFilter(4096, 2)
        for i in range(150):
            key = 0x601000 + 8 * i
            bloom.add(key)
            bloom.add(key)
        assert bloom.population == 150
        probes = 20_000
        hits = sum(
            bloom.maybe_contains(0x40_0000_0000 + 8 * i) for i in range(probes)
        )
        measured = hits / probes
        analytic = bloom.false_positive_rate
        assert analytic > 0
        assert abs(measured - analytic) <= 0.35 * analytic + 1e-3, (
            f"measured {measured:.5f} vs analytic {analytic:.5f}"
        )

    def test_false_positive_estimate_monotone(self):
        small = BloomFilter(256, 2)
        big = BloomFilter(1 << 16, 2)
        for i in range(100):
            small.add(i * 8)
            big.add(i * 8)
        assert small.false_positive_rate > big.false_positive_rate

    def test_set_bits_grow(self):
        bloom = BloomFilter(1024, 2)
        assert bloom.set_bits == 0
        bloom.add(1)
        assert 1 <= bloom.set_bits <= 2

    def test_storage_bytes(self):
        assert BloomFilter(8192, 2).storage_bytes == 1024

    @pytest.mark.parametrize(
        "bits, digest",
        [
            (64, "7409d053840736318ee6eeeddfee25b2be4ebbebf9143301285becd9f4e9efc4"),
            (1 << 17, "b78c4d360944f17745412c3a86ad7355c3b11998e0a94e46cad8f53689e73084"),
        ],
        ids=["64", "2^17"],
    )
    def test_snapshot_bitset_pinned_and_restore_checked(self, bits, digest):
        # The hex bitset is part of every saved machine state: its bytes
        # must not depend on how the filter holds its bits in memory.
        bloom = BloomFilter(bits, 2)
        for i in range(3):
            bloom.add(0x601000 + 8 * i)
        snap = bloom.snapshot()
        assert hashlib.sha256(snap["bitset"].encode()).hexdigest() == digest
        restored = BloomFilter(bits, 2)
        restored.restore(snap)
        assert restored.snapshot() == snap
        assert restored.maybe_contains(0x601008)
        bitset = int(snap["bitset"], 16)
        dropped = {**snap, "bitset": hex(bitset & (bitset - 1))}  # lowest set bit cleared
        with pytest.raises(ConfigError, match="missing bit"):
            BloomFilter(bits, 2).restore(dropped)

    def test_invalid_config(self):
        with pytest.raises(ConfigError):
            BloomFilter(1000, 2)  # not a power of two
        with pytest.raises(ConfigError):
            BloomFilter(1024, 0)


class TestABTB:
    def test_lookup_after_insert(self):
        abtb = ABTB(16)
        abtb.insert(0x401020, 0x7F0000, 0x601018)
        assert abtb.lookup(0x401020) == 0x7F0000

    def test_miss_returns_none(self):
        assert ABTB(16).lookup(0x401020) is None

    def test_insert_updates_existing(self):
        abtb = ABTB(16)
        abtb.insert(0x401020, 0x7F0000, 0x601018)
        abtb.insert(0x401020, 0x7F9999, 0x601018)
        assert abtb.lookup(0x401020) == 0x7F9999
        assert len(abtb) == 1

    def test_lru_eviction(self):
        abtb = ABTB(2)
        abtb.insert(1, 10, 100)
        abtb.insert(2, 20, 200)
        abtb.lookup(1)  # refresh 1
        abtb.insert(3, 30, 300)  # evicts 2
        assert 1 in abtb and 3 in abtb and 2 not in abtb
        assert abtb.evictions == 1

    def test_fifo_eviction(self):
        abtb = ABTB(2, policy="fifo")
        abtb.insert(1, 10, 100)
        abtb.insert(2, 20, 200)
        abtb.lookup(1)  # does NOT refresh under FIFO
        abtb.insert(3, 30, 300)  # evicts 1 (oldest inserted)
        assert 1 not in abtb and 2 in abtb and 3 in abtb

    def test_flush(self):
        abtb = ABTB(16)
        abtb.insert(1, 10, 100)
        abtb.flush()
        assert len(abtb) == 0 and abtb.flushes == 1

    def test_got_addresses(self):
        abtb = ABTB(16)
        abtb.insert(1, 10, 100)
        abtb.insert(2, 20, 200)
        assert abtb.got_addresses() == {100, 200}

    def test_storage_cost_matches_paper(self):
        assert ABTB(16).storage_bytes == 192  # the paper's 16-entry figure
        assert ABTB_ENTRY_BYTES == 12

    def test_hit_rate(self):
        abtb = ABTB(4)
        abtb.insert(1, 10, 100)
        abtb.lookup(1)
        abtb.lookup(2)
        assert abtb.hit_rate == 0.5

    def test_invalid_config(self):
        with pytest.raises(ConfigError):
            ABTB(0)
        with pytest.raises(ConfigError):
            ABTB(4, policy="random")


class TestMechanism:
    def _mech(self, **kwargs) -> TrampolineSkipMechanism:
        return TrampolineSkipMechanism(MechanismConfig(**kwargs))

    def test_learn_then_map(self):
        mech = self._mech()
        mech.learn(0x400100, 0x401020, 0x7F0000, 0x601018)
        assert mech.mapped_target(0x401020) == 0x7F0000

    def test_store_to_tracked_got_flushes(self):
        mech = self._mech()
        mech.learn(0x400100, 0x401020, 0x7F0000, 0x601018)
        assert mech.snoop_store(0x601018)
        assert mech.mapped_target(0x401020) is None
        assert mech.stats.store_flushes == 1

    def test_store_elsewhere_does_not_flush(self):
        mech = self._mech()
        mech.learn(0x400100, 0x401020, 0x7F0000, 0x601018)
        assert not mech.snoop_store(0x12345678)
        assert mech.mapped_target(0x401020) == 0x7F0000

    def test_flush_clears_bloom_too(self):
        mech = self._mech()
        mech.learn(0x400100, 0x401020, 0x7F0000, 0x601018)
        mech.snoop_store(0x601018)
        # After the flush the filter is empty: the same store won't flush.
        assert not mech.snoop_store(0x601018)

    def test_empty_filter_never_flushes(self):
        mech = self._mech()
        assert not mech.snoop_store(0x601018)

    def test_coherence_invalidation_flushes(self):
        mech = self._mech()
        mech.learn(0x400100, 0x401020, 0x7F0000, 0x601018)
        assert mech.coherence_invalidate(0x601018)
        assert mech.stats.coherence_flushes == 1

    def test_context_switch_flushes_without_asid(self):
        mech = self._mech(asid_support=False)
        mech.learn(0x400100, 0x401020, 0x7F0000, 0x601018)
        mech.on_context_switch()
        assert mech.mapped_target(0x401020) is None
        assert mech.stats.context_flushes == 1

    def test_asid_retains_entries(self):
        mech = self._mech(asid_support=True)
        mech.learn(0x400100, 0x401020, 0x7F0000, 0x601018)
        mech.on_context_switch()
        assert mech.mapped_target(0x401020) == 0x7F0000

    def test_no_bloom_mode_ignores_stores(self):
        mech = self._mech(use_bloom=False)
        mech.learn(0x400100, 0x401020, 0x7F0000, 0x601018)
        assert not mech.snoop_store(0x601018)
        assert mech.mapped_target(0x401020) == 0x7F0000

    def test_explicit_invalidate(self):
        mech = self._mech(use_bloom=False)
        mech.learn(0x400100, 0x401020, 0x7F0000, 0x601018)
        mech.invalidate()
        assert mech.mapped_target(0x401020) is None
        assert mech.stats.explicit_flushes == 1

    def test_storage_includes_bloom_only_when_used(self):
        with_bloom = self._mech(abtb_entries=256, bloom_bits=8192)
        without = self._mech(abtb_entries=256, use_bloom=False)
        assert with_bloom.storage_bytes == 256 * 12 + 1024
        assert without.storage_bytes == 256 * 12

    def test_capacity_respected(self):
        mech = self._mech(abtb_entries=2)
        for i in range(5):
            mech.learn(0x100 + i, 0x200 + i, 0x300 + i, 0x400 + 8 * i)
        assert len(mech.abtb) == 2

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            MechanismConfig(abtb_entries=0)
        with pytest.raises(ConfigError):
            MechanismConfig(bloom_bits=4)
