"""Performance counters — the model's equivalent of the paper's VTune runs.

Counter names mirror Table 4 of the paper (misses and mispredictions per
kilo-instruction) plus mechanism-specific counters used by Figure 5 and
the ablation experiments.

Cycles are not counted: every cycle the timing model charges is a fixed
penalty times a counted event, so :attr:`PerfCounters.cycles` is computed
from the counters (:data:`CYCLE_TERMS`) and the bundle's penalty weights.
Any two engines that agree on the counters therefore agree on cycles,
bit for bit, whatever order they retired the events in.
"""

from __future__ import annotations

#: The counted events that cost cycles, in the order the cycle sum adds them.
CYCLE_TERMS = (
    "instructions",
    "l1i_misses",
    "l1d_misses",
    "l2_misses",
    "itlb_misses",
    "dtlb_misses",
    "branch_mispredictions",
    "direct_btb_bubbles",
)

#: Stored counters, in declaration order.
_FIELDS = (
    "instructions",
    "l1i_accesses",
    "l1i_misses",
    "l1d_accesses",
    "l1d_misses",
    "l2_accesses",
    "l2_misses",
    "itlb_accesses",
    "itlb_misses",
    "dtlb_accesses",
    "dtlb_misses",
    "branches",
    "branch_mispredictions",
    "btb_lookups",
    "btb_misses",
    "direct_btb_bubbles",
    "loads",
    "stores",
    "trampolines_executed",
    "trampolines_skipped",
    "trampoline_instructions",
    "got_loads",
    "abtb_hits",
    "abtb_misses",
    "abtb_inserts",
    "abtb_flushes",
    "bloom_store_hits",
    "context_switches",
)

#: Every reportable field: the stored counters plus the derived cycles.
_REPORTED = ("instructions", "cycles") + _FIELDS[1:]


class PerfCounters:
    """A bundle of monotonically increasing event counters.

    Supports snapshot/delta arithmetic so experiments can attribute costs
    to individual requests, and PKI normalisation for paper-style tables.

    ``weights`` holds the cycle penalty of each :data:`CYCLE_TERMS` entry
    (see :meth:`repro.uarch.cpu.CPUConfig.cycle_weights`); a bundle
    without weights costs no cycles.  Bundles derived by :meth:`copy`,
    :meth:`delta` and :meth:`merge` keep the weights.
    """

    __slots__ = _FIELDS + ("weights",)

    def __init__(self, weights: tuple[float, ...] | None = None, **initial: int) -> None:
        self.weights = weights
        for name in _FIELDS:
            setattr(self, name, initial.pop(name, 0))
        if initial:
            raise TypeError(f"unknown counter(s): {sorted(initial)}")

    @staticmethod
    def field_names() -> tuple[str, ...]:
        """All reportable fields (counters and ``cycles``) in order."""
        return _REPORTED

    @property
    def cycles(self) -> float:
        """Cycles charged for the counted events (penalty-weighted sum)."""
        return self.cycles_at([getattr(self, name) for name in CYCLE_TERMS])

    def cycles_at(self, counts) -> float:
        """``sum(weight * count)`` for ``counts`` of the :data:`CYCLE_TERMS`
        events, added in that fixed order — what :attr:`cycles` reads when
        the counters hold ``counts``."""
        cycles = 0.0
        if self.weights is not None:
            for weight, count in zip(self.weights, counts):
                cycles += weight * count
        return cycles

    def copy(self) -> "PerfCounters":
        """An independent snapshot of the current values."""
        out = PerfCounters(self.weights)
        for name in _FIELDS:
            setattr(out, name, getattr(self, name))
        return out

    def delta(self, earlier: "PerfCounters") -> "PerfCounters":
        """Counters accumulated since ``earlier`` (self - earlier)."""
        out = PerfCounters(self.weights)
        for name in _FIELDS:
            setattr(out, name, getattr(self, name) - getattr(earlier, name))
        return out

    def merge(self, other: "PerfCounters") -> "PerfCounters":
        """Element-wise sum into a new bundle (multi-run aggregation)."""
        out = PerfCounters(self.weights)
        for name in _FIELDS:
            setattr(out, name, getattr(self, name) + getattr(other, name))
        return out

    def _value(self, field: str) -> int:
        """A counter value, with a helpful error for typo'd field names."""
        if field not in _REPORTED:
            raise ValueError(
                f"unknown counter field {field!r}; valid fields: {', '.join(_REPORTED)}"
            )
        return getattr(self, field)

    def pki(self, field: str) -> float:
        """A counter normalised per kilo-instruction, as the paper reports."""
        value = self._value(field)
        if self.instructions == 0:
            return 0.0
        return 1000.0 * value / self.instructions

    def rate(self, field: str, per: str = "instructions") -> float:
        """``field`` divided by ``per`` (0.0 when the denominator is zero).

        The metrics sampler uses this for windowed ratios, e.g.
        ``rate("abtb_hits", "btb_lookups")`` or plain per-instruction rates.
        """
        numerator = self._value(field)
        denominator = self._value(per)
        return numerator / denominator if denominator else 0.0

    @property
    def cpi(self) -> float:
        """Cycles per instruction."""
        return self.cycles / self.instructions if self.instructions else 0.0

    def as_dict(self) -> dict[str, int]:
        """Plain dict of all counters, ``cycles`` included."""
        return {name: getattr(self, name) for name in _REPORTED}

    # --------------------------------------------------------- SimComponent

    def snapshot(self) -> dict:
        """All stored counter values, JSON-safe (cycles are derived)."""
        return {name: getattr(self, name) for name in _FIELDS}

    def restore(self, state: dict) -> None:
        """Restore a snapshot; unknown fields raise ValueError."""
        unknown = set(state) - set(_FIELDS)
        if unknown:
            raise ValueError(f"unknown counter(s) in snapshot: {sorted(unknown)}")
        for name in _FIELDS:
            setattr(self, name, state.get(name, 0))

    def reset(self) -> None:
        """Zero every counter."""
        for name in _FIELDS:
            setattr(self, name, 0)

    def describe(self) -> dict:
        """Static metadata: the counter fields tracked."""
        return {"kind": "perf_counters", "fields": list(_REPORTED)}

    def table4_row(self) -> dict[str, float]:
        """The five PKI metrics of the paper's Table 4."""
        return {
            "I-$ Misses": self.pki("l1i_misses"),
            "I-TLB Misses": self.pki("itlb_misses"),
            "D-$ Misses": self.pki("l1d_misses"),
            "D-TLB Misses": self.pki("dtlb_misses"),
            "Branch Mispredictions": self.pki("branch_mispredictions"),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{n}={getattr(self, n)}" for n in _REPORTED if getattr(self, n))
        return f"PerfCounters({inner})"
