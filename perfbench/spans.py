"""Spans recorded around the benchmark's calls into each nucforce layer.

A span is (name, start, end, parent); every span of one repetition
shares that repetition's run id.  Names are `<module>.<function>...`,
so the layer of a span is the text before the first dot.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext


class Tracer:
    """Keeps spans in memory; `write` puts them out when the run ends."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._open[-1] if self._open else None
        self._open.append(sid)
        rec = [name, 0.0, 0.0, parent]
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._open.pop()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for sid, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"run": self.run_id, "id": sid, "name": name,
                                     "start": start, "end": end, "parent": parent}) + "\n")

    def busy(self) -> dict[str, tuple[int, float]]:
        """Calls and total duration per span name."""
        out: dict = defaultdict(lambda: [0, 0.0])
        for name, start, end, _ in self.spans:
            acc = out[name]
            acc[0] += 1
            acc[1] += end - start
        return {name: (calls, busy) for name, (calls, busy) in out.items()}

    def self_time_by_layer(self) -> dict[str, float]:
        """Per layer: span durations minus the time their child spans cover.

        Children of one span run one after another, so the part of the
        parent's interval they cover is the sum of their durations.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict = defaultdict(float)
        for sid, (name, start, end, _) in enumerate(self.spans):
            out[name.split(".", 1)[0]] += (end - start) - child[sid]
        return dict(out)


class NullTracer:
    """Stands in for Tracer in untraced repetitions."""

    _null = nullcontext()

    def span(self, name: str):
        return self._null
