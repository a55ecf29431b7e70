"""Spans around calls into kissbound, recorded from outside the package.

Each span holds its name, start and end (seconds since the tracer was
made), the span open around it, the pass it belongs to, and the change in
CPU time and minor page faults of this process and its reaped children
(pool workers are reaped when their pool closes, inside the span that
opened it).  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import resource
import time
from contextlib import contextmanager


def usage() -> dict[str, float]:
    """User and system CPU seconds and minor faults, own plus children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return {
        "user_s": own.ru_utime + kids.ru_utime,
        "sys_s": own.ru_stime + kids.ru_stime,
        "minflt": own.ru_minflt + kids.ru_minflt,
    }


def cpu_seconds(delta: dict[str, float]) -> float:
    return delta["user_s"] + delta["sys_s"]


class Tracer:
    def __init__(self):
        self.origin = time.perf_counter()
        self.spans: list[dict] = []
        self.pass_id = 0
        self._open: list[dict] = []

    def now(self) -> float:
        return time.perf_counter() - self.origin

    @contextmanager
    def span(self, name: str):
        """Record one span; yields its record, complete once the block exits."""
        record = {
            "id": len(self.spans),
            "name": name,
            "pass": self.pass_id,
            "parent": self._open[-1]["id"] if self._open else None,
        }
        self.spans.append(record)
        self._open.append(record)
        before = usage()
        record["start"] = self.now()
        try:
            yield record
        finally:
            record["end"] = self.now()
            after = usage()
            self._open.pop()
            for key, value in before.items():
                record[key] = after[key] - value


def duration(record: dict) -> float:
    return record["end"] - record["start"]
