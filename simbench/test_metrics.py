"""Tests of the benchmark's metric arithmetic on canned inputs.

Run with ``python3 -m pytest simbench -q`` from the repository root.
"""

from __future__ import annotations

import math

import pytest

from metrics import (
    PKI_FLOOR,
    busy_frac,
    failed_points,
    log_error,
    src_line_counts,
    table2_cells,
    table4_cells,
    values_match,
)
from spans import SpanRecorder


def test_log_error_is_mean_abs_log_ratio():
    measured = {"a": 2.0, "b": 0.5, "c": 1.0}
    paper = {"a": 1.0, "b": 1.0, "c": 1.0}
    assert log_error(measured, paper) == pytest.approx(2 * math.log(2) / 3)


def test_log_error_skips_zero_paper_cells():
    # The zero cell would be a division by zero; it must not count at all,
    # not even in the denominator of the mean.
    measured = {"a": math.e, "zero": 5.0}
    paper = {"a": 1.0, "zero": 0.0}
    assert log_error(measured, paper) == pytest.approx(1.0)


def test_log_error_clamps_a_measured_zero_to_the_floor():
    assert log_error({"a": 0.0}, {"a": 1.0}) == pytest.approx(abs(math.log(PKI_FLOOR)))


def test_log_error_needs_a_comparable_cell():
    with pytest.raises(ValueError):
        log_error({"a": 1.0}, {"a": 0.0})


def test_table_cells_pair_measured_with_paper_values():
    measured, paper = table2_cells({"apache": 11.0, "extra": 3.0}, {"apache": 12.23})
    assert measured == {"apache": 11.0} and paper == {"apache": 12.23}

    rows = {"memcached": ({"I-TLB Misses": 0.02}, {"I-TLB Misses": 0.0})}
    table = {"memcached": {"I-TLB Misses": (0.03, 0.0)}}
    measured, paper = table4_cells(rows, table)
    assert paper == {
        ("memcached", "I-TLB Misses", "base"): 0.03,
        ("memcached", "I-TLB Misses", "enh"): 0.0,
    }
    # Only the base cell counts: the paper's enhanced value is 0.
    assert log_error(measured, paper) == pytest.approx(abs(math.log(0.02 / 0.03)))


def test_busy_frac():
    assert busy_frac(parent_cpu_s=3.0, worker_cpu_s=5.0, jobs=2, wall_s=4.0) == 1.0
    assert busy_frac(1.0, 0.0, 1, 4.0) == 0.25
    with pytest.raises(ValueError):
        busy_frac(1.0, 1.0, 0, 1.0)
    with pytest.raises(ValueError):
        busy_frac(1.0, 1.0, 2, 0.0)


SUMMARY = {
    "instructions": 419213,
    "base_cycles": 1234567.25,
    "enhanced_cycles": 1200000.5,
    "speedup": 1.0288,
    "skip_rate": 0.92,
    "unmatched_marks": 0,
}


def test_values_match_floats_within_tolerance_ints_exact():
    close = dict(SUMMARY, base_cycles=SUMMARY["base_cycles"] * (1 + 1e-13))
    assert values_match(SUMMARY, close)
    far = dict(SUMMARY, base_cycles=SUMMARY["base_cycles"] * (1 + 1e-6))
    assert not values_match(SUMMARY, far)
    assert not values_match(SUMMARY, dict(SUMMARY, instructions=419214))
    assert not values_match(SUMMARY, dict(SUMMARY, extra=1))
    assert not values_match(True, 1)
    assert values_match([1, 2.0, {"x": 3}], (1, 2.0, {"x": 3}))
    assert not values_match([1, 2], [1, 2, 3])
    assert not values_match(SUMMARY, None)


def test_failed_points_counts_errors_drift_and_rejected_keys():
    keys = ["a", "b"]
    first = {"a": SUMMARY, "b": SUMMARY}
    drifted = {"a": SUMMARY, "b": dict(SUMMARY, instructions=1)}
    rounding = {k: dict(v, base_cycles=v["base_cycles"] * (1 + 1e-14)) for k, v in first.items()}
    assert failed_points([(first, set()), (rounding, set())], keys, set()) == 0
    assert failed_points([(first, set()), (drifted, set())], keys, set()) == 1
    assert failed_points([(first, set()), ({"a": SUMMARY}, set())], keys, set()) == 1
    assert failed_points([(first, {"a"})], keys, set()) == 1
    assert failed_points([(first, set()), (first, set())], keys, {"b"}) == 2


def test_src_line_counts_group_by_top_level_module(tmp_path):
    pkg = tmp_path / "pkg"
    (pkg / "sub").mkdir(parents=True)
    (pkg / "cli.py").write_text("a = 1\n\n   \nb = 2\n")
    (pkg / "sub" / "x.py").write_text("x = 1\n")
    (pkg / "sub" / "y.py").write_text("\ny = 1\nz = 2\n")
    assert src_line_counts(pkg) == {"cli": 2, "sub": 3}


def test_span_self_time_subtracts_children():
    rec = SpanRecorder()
    with rec.span("outer", point="p1"):
        with rec.span("inner"):
            pass
    outer, inner = rec.spans
    assert inner["parent"] == outer["id"] and inner["point"] == "p1"
    outer["start"], outer["end"] = 0.0, 10.0
    inner["start"], inner["end"] = 2.0, 5.0
    assert rec.duration("outer") == 10.0
    assert rec.self_time("outer") == 7.0
    assert rec.self_time("inner") == 3.0
