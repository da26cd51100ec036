"""In-memory spans recorded around the benchmark's calls into `pencils`.

A span has a name ("<layer>.<operation>"), a start and an end from
`time.perf_counter`, the index of its parent span, the run id, and the
counts the caller attaches.  It also records by how many MB the process's
peak RSS (`ru_maxrss`) rose while it was open.  Spans stay in memory and
are written out once, when the run ends.
"""

from __future__ import annotations

import json
import resource
import time
from contextlib import contextmanager
from pathlib import Path


def peak_rss_mb() -> float:
    """The process's peak resident set size so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Span:
    __slots__ = ("name", "parent", "start", "end", "counts", "rss_growth_mb")

    def __init__(self, name: str, parent: int | None):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.counts: dict[str, int] = {}
        self.rss_growth_mb = 0.0

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def count(self, **values: int) -> None:
        for key, value in values.items():
            self.counts[key] = self.counts.get(key, 0) + int(value)


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        sp = Span(name, self._open[-1] if self._open else None)
        self._open.append(len(self.spans))
        self.spans.append(sp)
        rss0 = peak_rss_mb()
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            sp.rss_growth_mb = peak_rss_mb() - rss0
            self._open.pop()

    def self_times(self) -> tuple[list[float], list[float]]:
        """Per span: duration and peak-RSS growth minus those of its
        children.  Children of one span never overlap (one thread), so
        the time they cover is the sum of their durations."""
        secs = [sp.seconds for sp in self.spans]
        rss = [sp.rss_growth_mb for sp in self.spans]
        for sp in self.spans:
            if sp.parent is not None:
                secs[sp.parent] -= sp.seconds
                rss[sp.parent] -= sp.rss_growth_mb
        return secs, rss

    def under(self, root: str) -> list[int]:
        """Indices of the spans inside the first span named `root`,
        including it."""
        inside: set[int] = set()
        for i, sp in enumerate(self.spans):
            if (sp.name == root and not inside) or sp.parent in inside:
                inside.add(i)
        return sorted(inside)

    def write(self, path: Path) -> None:
        secs, _ = self.self_times()
        rows = [
            {"name": sp.name, "parent": sp.parent, "start": sp.start,
             "end": sp.end, "run": self.run_id, "self_s": s,
             "rss_growth_mb": sp.rss_growth_mb, "counts": sp.counts}
            for sp, s in zip(self.spans, secs)
        ]
        path.write_text(json.dumps(rows) + "\n")
