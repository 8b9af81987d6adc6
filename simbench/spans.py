"""In-memory spans for the traced run, written out once at exit.

Each span records its name, start and end (``time.perf_counter``
seconds), the span that encloses it, and the point id shared by every
span of one simulated point.  A layer's self time is its span's duration
minus the part covered by its child spans.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path


class SpanRecorder:
    """Collects nested spans; nothing leaves memory until :meth:`write`."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, point: str | None = None, **attrs):
        """Record ``name`` around the ``with`` body; yields the span dict.

        ``point`` defaults to the enclosing span's point id, so the calls
        made for one simulated point share it without repeating it.
        """
        parent = self._open[-1] if self._open else None
        if point is None and parent is not None:
            point = self.spans[parent]["point"]
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": parent,
            "point": point,
            "start": time.perf_counter(),
            "end": None,
            **attrs,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def duration(self, name: str) -> float:
        """Summed wall seconds of every closed span called ``name``."""
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def self_time(self, name: str) -> float:
        """Summed self seconds of every span called ``name``."""
        child_time: dict[int, float] = {}
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] = (
                    child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
                )
        return sum(
            s["end"] - s["start"] - child_time.get(s["id"], 0.0)
            for s in self.spans
            if s["name"] == name
        )

    def write(self, path: Path) -> Path:
        """Dump every span as JSON (the only time spans touch the disk)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"clock": "perf_counter", "spans": self.spans}, indent=1))
        return path
