"""Metric arithmetic for the simulator benchmark, free of simulation.

Everything here works on plain numbers and dicts, so the formulas can be
tested on canned inputs (``test_metrics.py``) without running the model.
"""

from __future__ import annotations

import math
import statistics
from pathlib import Path

#: Floor for a measured PKI before taking its log.  The paper prints PKI
#: to two decimals, so its 0.00 cells stand for anything below 0.005; a
#: measured 0 is read the same way instead of as an infinite error.
PKI_FLOOR = 0.005

#: Relative tolerance for float fields when comparing two summaries of the
#: same point.  Cycles are sums of float penalties; a change to the order
#: of that summation moves the last few bits and must not read as a wrong
#: result, while any real model change moves them by far more.
FLOAT_RTOL = 1e-9


def log_error(measured: dict, paper: dict) -> float:
    """Mean |log(measured / paper)| over the cells both dicts share.

    Cells whose paper value is 0 are skipped: the log ratio is undefined
    there and the paper gives no scale to compare against.  Measured
    values are clamped below at :data:`PKI_FLOOR`.
    Raises ``ValueError`` when no cell is left to average.
    """
    errors = []
    for cell, ref in paper.items():
        if cell not in measured or ref == 0:
            continue
        errors.append(abs(math.log(max(measured[cell], PKI_FLOOR) / ref)))
    if not errors:
        raise ValueError("no comparable cells (all paper values are 0 or missing)")
    return sum(errors) / len(errors)


def table2_cells(pki_by_profile: dict, paper_pki: dict) -> tuple[dict, dict]:
    """(measured, paper) cell dicts for Table 2's trampoline PKI."""
    measured = {name: pki_by_profile[name] for name in pki_by_profile if name in paper_pki}
    return measured, {name: paper_pki[name] for name in measured}


def table4_cells(rows_by_profile: dict, paper_table4: dict) -> tuple[dict, dict]:
    """(measured, paper) cell dicts for Table 4.

    ``rows_by_profile`` maps profile -> (base ``table4_row()``, enhanced
    ``table4_row()``); the paper table maps profile -> metric -> (base,
    enhanced).  Cells are keyed ``(profile, metric, side)``.
    """
    measured, paper = {}, {}
    for name, (base_row, enh_row) in rows_by_profile.items():
        for metric, (paper_base, paper_enh) in paper_table4.get(name, {}).items():
            for side, row, ref in (("base", base_row, paper_base), ("enh", enh_row, paper_enh)):
                measured[(name, metric, side)] = row[metric]
                paper[(name, metric, side)] = ref
    return measured, paper


def busy_frac(parent_cpu_s: float, worker_cpu_s: float, jobs: int, wall_s: float) -> float:
    """Share of ``jobs`` cores kept busy: (parent + worker CPU) / (jobs x wall)."""
    if jobs < 1 or wall_s <= 0:
        raise ValueError(f"need jobs >= 1 and wall_s > 0, got jobs={jobs}, wall_s={wall_s}")
    return (parent_cpu_s + worker_cpu_s) / (jobs * wall_s)


def values_match(a, b, rtol: float = FLOAT_RTOL) -> bool:
    """Equality for summaries and snapshots: floats to ``rtol``, the rest exact.

    Dicts and sequences compare element by element; a float on either side
    makes the pair a float comparison, so ``3 == 3.0`` still matches.
    """
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    if isinstance(a, float) or isinstance(b, float):
        if not isinstance(a, (int, float)) or not isinstance(b, (int, float)):
            return False
        return math.isclose(a, b, rel_tol=rtol, abs_tol=0.0)
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(values_match(a[k], b[k], rtol) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(values_match(x, y, rtol) for x, y in zip(a, b))
    return type(a) is type(b) and a == b


def failed_points(units: list, keys: list, bad_keys: set, rtol: float = FLOAT_RTOL) -> int:
    """Points of all units that errored, went missing, or failed a check.

    ``units`` holds one ``(summaries, errored_keys)`` pair per timed unit.
    Every unit must reproduce the first unit's summaries; a key in
    ``bad_keys`` (rejected by a cross-path check) fails in every unit,
    since every unit agrees with the first.
    """
    failed = 0
    first = units[0][0]
    for i, (summaries, errored) in enumerate(units):
        for key in keys:
            summary = summaries.get(key)
            if (
                summary is None
                or key in errored
                or key in bad_keys
                or (i and not values_match(first.get(key), summary, rtol))
            ):
                failed += 1
    return failed


def median(values) -> float:
    """Median of a non-empty sequence."""
    values = list(values)
    if not values:
        raise ValueError("median of no values")
    return float(statistics.median(values))


def src_line_counts(package_dir: Path) -> dict[str, int]:
    """Non-blank lines per top-level module of a package directory.

    A subpackage counts every ``.py`` file beneath it; a top-level module
    file counts under its stem.  Informational only: it lets a change that
    deletes code cite the size it removed.
    """
    counts: dict[str, int] = {}
    for path in sorted(Path(package_dir).rglob("*.py")):
        rel = path.relative_to(package_dir)
        module = rel.parts[0] if len(rel.parts) > 1 else rel.stem
        with path.open(encoding="utf-8") as fh:
            lines = sum(1 for line in fh if line.strip())
        counts[module] = counts.get(module, 0) + lines
    return counts
