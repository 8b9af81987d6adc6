"""Translation lookaside buffer model (set-associative, LRU)."""

from __future__ import annotations

from repro.errors import ConfigError
from repro.memory.pages import PAGE_SHIFT
from repro.uarch.cache import _in_lru_order
from repro.uarch.component import check_geometry, decode_table, encode_table


class TLB:
    """A set-associative TLB over 4 KB pages.

    Like the cache model, only reach (which pages are resident) is
    simulated; translations themselves are identity.
    """

    def __init__(self, name: str, entries: int, ways: int, page_shift: int = PAGE_SHIFT) -> None:
        if entries % ways != 0:
            raise ConfigError(f"{name}: {entries} entries not divisible by {ways} ways")
        self.name = name
        self.ways = ways
        self.n_sets = entries // ways
        if self.n_sets & (self.n_sets - 1):
            raise ConfigError(f"{name}: set count {self.n_sets} must be a power of two")
        self._set_mask = self.n_sets - 1
        self._page_shift = page_shift
        self._sets: list[dict[int, int]] = [dict() for _ in range(self.n_sets)]
        self._stamp = 0
        self.accesses = 0
        self.misses = 0

    def access_page(self, vpn: int) -> bool:
        """Translate one page; returns True on hit."""
        self.accesses += 1
        self._stamp += 1
        index = vpn & self._set_mask
        tag = vpn >> self._set_mask.bit_length() if self._set_mask else vpn
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
        """Translate the page containing ``addr``."""
        return self.access_page(addr >> self._page_shift)

    def access_range(self, addr: int, nbytes: int) -> int:
        """Translate all pages in ``[addr, addr+nbytes)``; returns misses."""
        if nbytes <= 0:
            return 0
        first = addr >> self._page_shift
        last = (addr + nbytes - 1) >> self._page_shift
        before = self.misses
        for vpn in range(first, last + 1):
            self.access_page(vpn)
        return self.misses - before

    def flush(self) -> None:
        """Invalidate all translations (a context switch without ASIDs)."""
        for entries in self._sets:
            entries.clear()

    @property
    def page_shift(self) -> int:
        """Byte address → virtual page number shift."""
        return self._page_shift

    # --------------------------------------------------------- SimComponent

    def snapshot(self) -> dict:
        """Complete residency/LRU state plus stats, JSON-safe."""
        return {
            "name": self.name,
            "n_sets": self.n_sets,
            "ways": self.ways,
            "page_shift": self._page_shift,
            "sets": [encode_table(entries) for entries in self._sets],
            "stamp": self._stamp,
            "accesses": self.accesses,
            "misses": self.misses,
        }

    def restore(self, state: dict) -> None:
        """Restore a snapshot taken on an identically shaped TLB."""
        check_geometry(
            self.name,
            state,
            n_sets=self.n_sets,
            ways=self.ways,
            page_shift=self._page_shift,
        )
        self._sets = [_in_lru_order(decode_table(rows)) for rows in state["sets"]]
        self._stamp = int(state["stamp"])
        self.accesses = int(state["accesses"])
        self.misses = int(state["misses"])

    def reset(self) -> None:
        """Cold TLB: empty sets, zeroed stats."""
        self.flush()
        self._stamp = 0
        self.accesses = 0
        self.misses = 0

    def describe(self) -> dict:
        """Static geometry."""
        return {
            "kind": "tlb",
            "name": self.name,
            "entries": self.n_sets * self.ways,
            "ways": self.ways,
            "n_sets": self.n_sets,
            "page_shift": self._page_shift,
        }

    @property
    def miss_rate(self) -> float:
        """Fraction of translations that missed."""
        return self.misses / self.accesses if self.accesses else 0.0
