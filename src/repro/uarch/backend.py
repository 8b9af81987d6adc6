"""Batched simulation backend: retirement one structure at a time.

The reference interpreter (:meth:`repro.uarch.cpu.CPU.run`) retires one
:class:`~repro.isa.events.TraceEvent` at a time and charges every
structure the event touches before moving on.  No structure's state
depends on another's, though: the L1I sees only the fetched lines, the
L2 only the L1 misses, the BTB only the branches, and cycles are a
penalty-weighted sum of the counters
(:attr:`~repro.uarch.counters.PerfCounters.cycles`), so the order in
which structures retire an event does not matter.  :class:`BatchedBackend`
therefore retires each :class:`~repro.trace.batch.TraceBatch` as a chain
of passes, each over one part of the front end, in program order:

1. **control** — BTB, gshare and RAS, plus the ABTB/Bloom mechanism and
   its store snoop.  This pass decides which trampoline-pair rows are
   skipped (never fetched).  It cannot be split: a pair skips only when
   the BTB's prediction equals the ABTB mapping.
2. **fetch** — L1I and I-TLB over the lines and pages of the fetched
   rows.  Runs of repeated lines or pages hit the most recently used
   entry and are probed once (:func:`~repro.uarch.cache.access_stream`).
3. **data** — D-TLB and L1D over the data accesses.
4. **L2** — the merged I-side and D-side L1 miss stream, in program order
   (sort key ``2·row + side``).

A mark's cycles are the cycle sum over the counters at the mark, taken
from each pass's miss rows.  Context switches and coherence invalidations
split a batch and retire through the reference handler; a CPU with hooks
retires wholly through the reference interpreter.  The reference
interpreter is the oracle: :mod:`repro.difftest` checks full-snapshot
equality between the two.

The backend reports a *sync point* after every batch (``sync_hook``):
the CPU state then equals a reference run over the events retired so
far.  A direct call at the end of a batch whose trampoline-pair
lookahead reads past it is held back and retired with the next batch.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.isa.kinds import EventKind
from repro.trace.batch import TraceBatch, iter_batches
from repro.uarch.cache import access_stream
from repro.uarch.counters import CYCLE_TERMS
from repro.uarch.cpu import Mark

#: Backend names accepted by runners, the CLI and the difftest harness.
BACKENDS = ("reference", "batched")

_BLOCK = int(EventKind.BLOCK)
_CALL_DIRECT = int(EventKind.CALL_DIRECT)
_CALL_INDIRECT = int(EventKind.CALL_INDIRECT)
_JMP_INDIRECT = int(EventKind.JMP_INDIRECT)
_JMP_DIRECT = int(EventKind.JMP_DIRECT)
_RET = int(EventKind.RET)
_COND_BRANCH = int(EventKind.COND_BRANCH)
_LOAD = int(EventKind.LOAD)
_STORE = int(EventKind.STORE)
_MARK = int(EventKind.MARK)
_SPLITS = (int(EventKind.CONTEXT_SWITCH), int(EventKind.COHERENCE_INVAL))


class BatchedBackend:
    """Drives a :class:`~repro.uarch.cpu.CPU` over batched traces.

    The backend owns no architectural state: everything lives in the CPU
    and its components, exactly as under the reference interpreter, so
    snapshots, checkpoints and mid-run hook observations are unchanged.
    A backend instance is reusable but not reentrant.
    """

    def __init__(self, cpu, batch_events: int = 4096) -> None:
        if batch_events < 1:
            raise ConfigError(f"batch_events must be positive, got {batch_events}")
        self.cpu = cpu
        self.batch_events = batch_events

    def run(self, events, sync_hook=None):
        """Process an event stream; returns the CPU's (live) counters.

        ``sync_hook(position)`` is called after each batch retires, with
        the number of stream events retired so far; the CPU state then
        equals a reference run over those events.
        """
        return self.run_batches(iter_batches(events, self.batch_events), sync_hook)

    def run_batches(self, batches, sync_hook=None):
        """Like :meth:`run`, but consumes :class:`TraceBatch` objects
        directly — the array-native hot path.

        Oversized batches are re-cut into zero-copy views of at most
        ``batch_events`` rows, so sync points are spaced as in a
        :meth:`run` over the same stream.
        """
        held = None
        position = 0
        for batch in _resliced(batches, self.batch_events):
            if held is not None:
                batch = _join(held, batch)
            cut = _pair_closed(batch.data)
            self._retire(batch.data[:cut], batch.tags)
            held = TraceBatch(batch.data[cut:], batch.tags) if cut < len(batch) else None
            position += cut
            if sync_hook is not None:
                sync_hook(position)
        if held is not None:
            self._retire(held.data, held.tags)
            if sync_hook is not None:
                sync_hook(position + len(held))
        return self.cpu.counters

    def _retire(self, data: np.ndarray, tags: list) -> None:
        """Retire pair-closed rows: the passes between split rows."""
        cpu = self.cpu
        if cpu.hooks is not None:
            cpu.run(TraceBatch(data, tags).to_events())
            return
        start = 0
        for row in np.flatnonzero(np.isin(data["kind"], _SPLITS)).tolist():
            self._passes(data[start:row], tags)
            ev = TraceBatch(data, tags).event(row)
            cpu._dispatch[ev.kind](ev, None)
            start = row + 1
        self._passes(data[start:], tags)

    # -------------------------------------------------------------- passes

    def _passes(self, data: np.ndarray, tags: list) -> None:
        """Retire rows holding no split kind, one structure at a time."""
        if not len(data):
            return
        c = self.cpu.counters
        base = [getattr(c, name) for name in CYCLE_TERMS]
        skipped, mispredicted, bubbles = self._control_pass(data, tags)
        fetched = data["kind"] != _MARK
        fetched[skipped] = False
        l1i_rows, l1i_lines, itlb_rows = self._fetch_pass(data, fetched)
        l1d_rows, dtlb_rows = self._data_pass(data, fetched)
        l2_rows = self._l2_pass(l1i_rows, l1i_lines, l1d_rows, data["mem_addr"])
        marks = np.flatnonzero(data["kind"] == _MARK)
        if len(marks):
            # Each cycle term at a mark: its count before the segment plus
            # the events charged on earlier rows.
            instr = np.cumsum(np.where(fetched, data["n_instr"], 0))[marks]
            term_rows = (l1i_rows, l1d_rows, l2_rows, itlb_rows, dtlb_rows, mispredicted, bubbles)
            at = [instr] + [np.searchsorted(rows, marks) for rows in term_rows]
            for j, ti in enumerate(data["tag"][marks].tolist()):
                counts = [b + int(col[j]) for b, col in zip(base, at)]
                self.cpu.marks.append(
                    Mark(None if ti < 0 else tags[ti], counts[0], c.cycles_at(counts))
                )

    def _fetch_pass(self, data: np.ndarray, fetched: np.ndarray):
        """L1I and I-TLB over every line and page the fetched rows span.

        Returns the rows and lines of the L1I misses, and the rows of the
        I-TLB misses.
        """
        cpu = self.cpu
        c = cpu.counters
        rows = np.flatnonzero(fetched)
        start = data["pc"][rows]
        end = start + np.maximum(data["nbytes"][rows], 1) - 1
        l1i, itlb = cpu.l1i, cpu.itlb
        n, l1i_rows, l1i_lines = _span_pass(l1i, l1i.line_shift, rows, start, end)
        c.instructions += int(data["n_instr"][rows].sum())
        c.l1i_accesses += n
        c.l1i_misses += len(l1i_rows)
        n, itlb_rows, _ = _span_pass(itlb, itlb.page_shift, rows, start, end)
        c.itlb_accesses += n
        c.itlb_misses += len(itlb_rows)
        return l1i_rows, l1i_lines, itlb_rows

    def _data_pass(self, data: np.ndarray, fetched: np.ndarray):
        """D-TLB and L1D over the loads, stores and executed pointer loads.

        Returns the rows of the L1D misses and of the D-TLB misses.
        """
        cpu = self.cpu
        c = cpu.counters
        kind = data["kind"]
        mem = data["mem_addr"]
        indirect = (kind == _CALL_INDIRECT) | (kind == _JMP_INDIRECT)
        dmask = ((kind == _LOAD) | (kind == _STORE) | (indirect & (mem != 0))) & fetched
        rows = np.flatnonzero(dmask)
        addr = mem[rows]
        dtlb, l1d = cpu.dtlb, cpu.l1d
        _, dtlb_rows, _ = _span_pass(dtlb, dtlb.page_shift, rows, addr, addr)
        _, l1d_rows, _ = _span_pass(l1d, l1d.line_shift, rows, addr, addr)
        stores = int(np.count_nonzero(kind == _STORE))
        c.loads += len(rows) - stores
        c.stores += stores
        c.got_loads += int(np.count_nonzero(dmask & (kind == _JMP_INDIRECT)))
        c.dtlb_accesses += len(rows)
        c.dtlb_misses += len(dtlb_rows)
        c.l1d_accesses += len(rows)
        c.l1d_misses += len(l1d_rows)
        return l1d_rows, dtlb_rows

    def _l2_pass(self, l1i_rows, l1i_lines, l1d_rows, mem) -> np.ndarray:
        """The L2 over both L1s' misses in program order; returns the rows
        of the L2 misses.

        An I-side miss probes the L2 by its L1I line number, a D-side miss
        by the L2 line of its address, as the reference does; in a row the
        I-side comes first (sort key ``2·row + side``).
        """
        cpu = self.cpu
        order = np.argsort(np.concatenate((2 * l1i_rows, 2 * l1d_rows + 1)), kind="stable")
        keys = np.concatenate((l1i_lines, mem[l1d_rows] >> cpu.l2.line_shift))[order]
        rows = np.concatenate((l1i_rows, l1d_rows))[order]
        rows = rows[access_stream(cpu.l2, keys)]
        cpu.counters.l2_accesses += len(order)
        cpu.counters.l2_misses += len(rows)
        return rows

    def _control_pass(self, data: np.ndarray, tags: list) -> tuple[list, list, list]:
        """BTB, gshare, RAS and the mechanism, in program order.

        Mirrors the reference's branch handlers and
        :meth:`~repro.uarch.cpu.CPU._trampoline_pair`.  Returns the rows
        never fetched (skipped trampolines), the rows charged a
        misprediction and the rows charged a direct-branch BTB bubble.
        """
        cpu = self.cpu
        c = cpu.counters
        btb = cpu.btb
        lookups, btb_misses, skips = btb.lookups, btb.misses, c.trampolines_skipped
        lookup, update = btb.lookup, btb.update
        record = cpu.gshare.record
        push, pop_check = cpu.ras.push, cpu.ras.pop_and_check
        mech = cpu.mechanism
        use_bloom = mech is None or mech.config.use_bloom
        kinds = data["kind"]
        ctrl = (kinds >= _CALL_DIRECT) & (kinds <= _COND_BRANCH)
        branches = int(np.count_nonzero(ctrl))
        if mech is not None:
            ctrl |= kinds == _STORE
        kinds = kinds.tolist()
        pcs = data["pc"].tolist()
        nbs = data["nbytes"].tolist()
        targets = data["target"].tolist()
        mems = data["mem_addr"].tolist()
        takens = data["taken"].tolist()
        tag_idx = data["tag"].tolist()
        n = len(kinds)
        skipped, mispredicted, bubbles = [], [], []
        pair_end = -1
        for i in np.flatnonzero(ctrl).tolist():
            if i <= pair_end:
                continue
            k = kinds[i]
            pc = pcs[i]
            target = targets[i]
            if k == _COND_BRANCH:
                if record(pc, takens[i]):
                    mispredicted.append(i)
                if takens[i]:
                    if lookup(pc) is None:
                        bubbles.append(i)
                    update(pc, target)
            elif k == _RET:
                if pop_check(target):
                    mispredicted.append(i)
            elif k == _JMP_DIRECT:
                if lookup(pc) is None:
                    bubbles.append(i)
                    update(pc, target)
            elif k == _STORE:
                mech.snoop_store(mems[i])
                if not use_bloom and tag_idx[i] >= 0 and tags[tag_idx[i]] == "got-store":
                    mech.invalidate()
            elif k != _CALL_DIRECT:
                # An indirect call, or an indirect jump outside a pair.
                if k == _CALL_INDIRECT:
                    push(pc + nbs[i])
                elif tag_idx[i] >= 0 and tags[tag_idx[i]] == "plt":
                    c.trampolines_executed += 1  # tail-called trampoline
                    c.trampoline_instructions += 1
                if lookup(pc) != target:
                    mispredicted.append(i)
                update(pc, target)
            else:
                # Trampoline pair: the call's target row is the stub's
                # branch (x86-64) or an ARM address-computation prefix
                # directly followed by it.
                stub = j = -1
                if i + 1 < n and pcs[i + 1] == target:
                    if kinds[i + 1] == _JMP_INDIRECT:
                        j = i + 1
                    elif (
                        kinds[i + 1] == _BLOCK
                        and nbs[i + 1] <= 12
                        and i + 2 < n
                        and kinds[i + 2] == _JMP_INDIRECT
                        and pcs[i + 2] == target + nbs[i + 1]
                    ):
                        stub, j = i + 1, i + 2
                push(pc + nbs[i])
                pred = lookup(pc)
                mapped = None
                if j >= 0 and mech is not None:
                    mapped = mech.mapped_target(target)
                    if mapped is None:
                        c.abtb_misses += 1
                    else:
                        c.abtb_hits += 1
                        if pred == mapped:
                            if mapped != targets[j]:
                                mech.note_unsafe_skip()
                            c.trampolines_skipped += 1
                            skipped.extend(range(i + 1, j + 1))
                            pair_end = j
                            continue
                if mapped is None:
                    if pred is None:
                        bubbles.append(i)
                        update(pc, target)
                    elif pred != target:
                        mispredicted.append(i)
                        update(pc, target)
                elif pred is None:
                    bubbles.append(i)
                    update(pc, mapped)
                    mech.note_promotion()
                elif pred != target:
                    mispredicted.append(i)
                    update(pc, mapped)
                else:
                    update(pc, mapped)
                    mech.note_promotion()
                if j < 0:
                    continue
                pair_end = j
                c.trampolines_executed += 1
                c.trampoline_instructions += 1 + (int(data["n_instr"][stub]) if stub >= 0 else 0)
                jpc, jt = pcs[j], targets[j]
                if lookup(jpc) != jt:
                    mispredicted.append(j)
                update(jpc, jt)
                if mech is not None and mems[j]:
                    mech.learn(pc, target, jt, mems[j])
                    c.abtb_inserts += 1
                    update(pc, jt)
                    mech.note_promotion()
        # A skipped pair's branch row never executes.
        c.branches += branches - (c.trampolines_skipped - skips)
        c.branch_mispredictions += len(mispredicted)
        c.direct_btb_bubbles += len(bubbles)
        c.btb_lookups += btb.lookups - lookups
        c.btb_misses += btb.misses - btb_misses
        return skipped, mispredicted, bubbles


def _span_pass(structure, shift: int, rows, start, end):
    """Probe every line (or page) of each row's byte span ``[start, end]``.

    ``structure`` is a cache (``shift`` its line shift) or a TLB (its page
    shift).  Returns (accesses, rows that missed, keys that missed).
    """
    first = start >> shift
    extra = (end >> shift) - first
    if extra.any():
        count = extra + 1
        offsets = np.arange(int(count.sum())) - np.repeat(np.cumsum(count) - count, count)
        rows = np.repeat(rows, count)
        first = np.repeat(first, count) + offsets
    missed = access_stream(structure, first)
    return len(first), rows[missed], first[missed]


def _pair_closed(data: np.ndarray) -> int:
    """How many leading rows retire without reading past the batch: all
    but a final direct call (or call + ARM stub prefix) whose pair
    lookahead needs the next batch."""
    n = len(data)
    kind = data["kind"]
    if n and kind[n - 1] == _CALL_DIRECT:
        return n - 1
    if (
        n > 1
        and kind[n - 2] == _CALL_DIRECT
        and kind[n - 1] == _BLOCK
        and data["pc"][n - 1] == data["target"][n - 2]
        and data["nbytes"][n - 1] <= 12
    ):
        return n - 2
    return n


def _join(head: TraceBatch, tail: TraceBatch) -> TraceBatch:
    """``head``'s rows followed by ``tail``'s, as one batch.

    Tagged head rows get their tags appended to a copy of ``tail``'s tag
    table (zero-copy slices share one table, so it is never mutated).
    """
    data = np.concatenate((head.data, tail.data))
    tags = tail.tags
    head_tags = data["tag"][: len(head)]
    for row in np.flatnonzero(head_tags >= 0).tolist():
        if tags is tail.tags:
            tags = list(tags)
        tags.append(head.tags[head_tags[row]])
        head_tags[row] = len(tags) - 1
    return TraceBatch(data, tags)


def _resliced(batches, cap: int):
    """``batches`` re-cut into non-empty views of at most ``cap`` rows."""
    for batch in batches:
        if len(batch) > cap:
            yield from batch.slices(cap)
        elif len(batch):
            yield batch


def make_runner(cpu, backend: str = "reference", batch_events: int = 4096):
    """A ``run(events)`` callable for ``cpu`` under the named backend."""
    if backend == "reference":
        return cpu.run
    if backend == "batched":
        return BatchedBackend(cpu, batch_events).run
    raise ConfigError(f"unknown backend {backend!r}; expected one of {BACKENDS}")
