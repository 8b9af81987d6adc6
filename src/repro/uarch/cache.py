"""Set-associative cache model with LRU replacement.

Only hit/miss behaviour is modelled (no data): the paper's results are
counts of misses per kilo-instruction, which depend on tag state alone.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.uarch.component import check_geometry, decode_table, encode_table


def _in_lru_order(table: dict[int, int]) -> dict[int, int]:
    """Rebuild a tag→stamp table in LRU order (oldest stamp first).

    The live tables rely on dict insertion order for O(1) eviction;
    snapshots only guarantee the stamps, so restore re-sorts.
    """
    return dict(sorted(table.items(), key=lambda kv: kv[1]))


def access_stream(structure, keys: np.ndarray) -> np.ndarray:
    """Access ``keys`` (line or page numbers) in order on an LRU structure.

    Leaves ``structure`` (a cache or TLB) exactly as one
    ``access_line``/``access_page`` call per key would, and returns the
    indexes of the keys that missed, ascending.  Sets are independent, so
    each set's accesses are replayed on their own; a key equal to the
    previous access to its set hits that set's most recently used entry,
    so each run of equal keys is probed once, stamped as its last access.
    """
    n = len(keys)
    if not n:
        return np.empty(0, np.intp)
    mask = structure._set_mask
    order = np.argsort(keys & mask, kind="stable")
    keys = keys[order]
    heads = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    stamps = order[np.append(heads[1:], n) - 1] + (structure._stamp + 1)
    probes = zip(
        heads.tolist(),
        (keys[heads] & mask).tolist(),
        (keys[heads] >> mask.bit_length()).tolist(),
        stamps.tolist(),
    )
    sets, ways = structure._sets, structure.ways
    missed = []
    for head, index, tag, stamp in probes:
        entries = sets[index]
        if tag in entries:
            del entries[tag]
        else:
            missed.append(head)
            if len(entries) >= ways:
                del entries[next(iter(entries))]
        entries[tag] = stamp
    structure._stamp += n
    structure.accesses += n
    structure.misses += len(missed)
    return np.sort(order[missed])


class SetAssociativeCache:
    """A set-associative, LRU, allocate-on-miss cache.

    Used for both L1I and L1D.  Addresses are byte addresses; the cache
    indexes by line.
    """

    def __init__(self, name: str, size_bytes: int, line_bytes: int, ways: int) -> None:
        if size_bytes % (line_bytes * ways) != 0:
            raise ConfigError(
                f"{name}: size {size_bytes} not divisible by line*ways {line_bytes * ways}"
            )
        self.name = name
        self.line_bytes = line_bytes
        self.ways = ways
        self.n_sets = size_bytes // (line_bytes * ways)
        if self.n_sets & (self.n_sets - 1):
            raise ConfigError(f"{name}: set count {self.n_sets} must be a power of two")
        self._set_mask = self.n_sets - 1
        self._line_shift = line_bytes.bit_length() - 1
        if (1 << self._line_shift) != line_bytes:
            raise ConfigError(f"{name}: line size {line_bytes} must be a power of two")
        # Per set: dict tag -> last-use stamp, kept in LRU order (least
        # recently used first) so eviction is O(1) instead of a min()
        # scan.  Hits delete and re-insert their key to move it to the
        # end; the stamp values are what snapshots persist, so restore
        # rebuilds the ordering by sorting on them.
        self._sets: list[dict[int, int]] = [dict() for _ in range(self.n_sets)]
        self._stamp = 0
        self.accesses = 0
        self.misses = 0

    def access_line(self, line: int) -> bool:
        """Access one cache line by line number; returns True on hit."""
        self.accesses += 1
        self._stamp += 1
        index = line & self._set_mask
        tag = line >> self._set_mask.bit_length() if self._set_mask else line
        entries = self._sets[index]
        if tag in entries:
            del entries[tag]  # move to MRU position (dict insertion order)
            entries[tag] = self._stamp
            return True
        self.misses += 1
        if len(entries) >= self.ways:
            del entries[next(iter(entries))]  # first key is LRU
        entries[tag] = self._stamp
        return False

    def access(self, addr: int) -> bool:
        """Access the line containing byte address ``addr``."""
        return self.access_line(addr >> self._line_shift)

    def access_range(self, addr: int, nbytes: int) -> int:
        """Access every line covered by ``[addr, addr+nbytes)``; returns misses."""
        if nbytes <= 0:
            return 0
        first = addr >> self._line_shift
        last = (addr + nbytes - 1) >> self._line_shift
        before = self.misses
        for line in range(first, last + 1):
            self.access_line(line)
        return self.misses - before

    def line_of(self, addr: int) -> int:
        """Line number containing ``addr``."""
        return addr >> self._line_shift

    def contains(self, addr: int) -> bool:
        """Non-mutating residency probe (no stats, no LRU update)."""
        line = self.line_of(addr)
        index = line & self._set_mask
        tag = line >> self._set_mask.bit_length() if self._set_mask else line
        return tag in self._sets[index]

    def flush(self) -> None:
        """Invalidate all lines (stats are preserved)."""
        for entries in self._sets:
            entries.clear()

    @property
    def line_shift(self) -> int:
        """``log2(line_bytes)`` — byte address → line number shift."""
        return self._line_shift

    # --------------------------------------------------------- SimComponent

    def snapshot(self) -> dict:
        """Complete tag/LRU state plus stats, JSON-safe."""
        return {
            "name": self.name,
            "n_sets": self.n_sets,
            "ways": self.ways,
            "line_bytes": self.line_bytes,
            "sets": [encode_table(entries) for entries in self._sets],
            "stamp": self._stamp,
            "accesses": self.accesses,
            "misses": self.misses,
        }

    def restore(self, state: dict) -> None:
        """Restore a snapshot taken on an identically shaped cache."""
        check_geometry(
            self.name,
            state,
            n_sets=self.n_sets,
            ways=self.ways,
            line_bytes=self.line_bytes,
        )
        self._sets = [_in_lru_order(decode_table(rows)) for rows in state["sets"]]
        self._stamp = int(state["stamp"])
        self.accesses = int(state["accesses"])
        self.misses = int(state["misses"])

    def reset(self) -> None:
        """Cold cache: empty sets, zeroed stats."""
        self.flush()
        self._stamp = 0
        self.accesses = 0
        self.misses = 0

    def describe(self) -> dict:
        """Static geometry."""
        return {
            "kind": "set_associative_cache",
            "name": self.name,
            "size_bytes": self.n_sets * self.ways * self.line_bytes,
            "line_bytes": self.line_bytes,
            "ways": self.ways,
            "n_sets": self.n_sets,
        }

    @property
    def miss_rate(self) -> float:
        """Fraction of accesses that missed."""
        return self.misses / self.accesses if self.accesses else 0.0
