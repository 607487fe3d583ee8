"""Span recorder for the benchmark's traced run.

A span is one record ``[id, name, parent, start, end]`` around a call into
rootsource, timed with ``time.perf_counter``.  Spans stay in memory and are
written out once, at the end of the run.  Spans are strictly nested (one
thread), so the spans recorded while a root span is open are its subtree.

Two kinds of span exist.  ``span`` is always recorded: the benchmark's own
end-to-end timers (whole pipeline, fit, attribution).  ``layer`` is recorded
only when tracing, one per public call into a layer of rootsource; with
tracing off it costs one ``nullcontext``.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext

LAYERS = ("simulate", "dataio", "fitting", "rootprob", "baselines", "metrics")


def layer_of(name: str) -> str:
    """Module a span belongs to; the benchmark's own spans count as "bench"."""
    head = name.split(".", 1)[0]
    return head if head in LAYERS else "bench"


class Tracer:
    def __init__(self, detail: bool):
        self.detail = detail
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = [len(self.spans), name, self._open[-1] if self._open else None,
               time.perf_counter(), None]
        self.spans.append(rec)
        self._open.append(rec[0])
        try:
            yield rec
        finally:
            self._open.pop()
            rec[4] = time.perf_counter()

    def layer(self, name: str):
        return self.span(name) if self.detail else nullcontext()

    def summary(self, first: int) -> dict:
        """Per-name total seconds and per-layer self seconds of spans[first:].

        A span's self time is its duration minus the durations of its direct
        children, which it covers exactly because spans nest.
        """
        spans = self.spans[first:]
        child_time: dict[int, float] = {}
        for sid, _, parent, start, end in spans:
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        totals: dict[str, float] = {}
        self_s = {layer: 0.0 for layer in LAYERS + ("bench",)}
        for sid, name, _, start, end in spans:
            totals[name] = totals.get(name, 0.0) + (end - start)
            self_s[layer_of(name)] += (end - start) - child_time.get(sid, 0.0)
        return {"totals": totals, "self": self_s}

    def write(self, path) -> None:
        rows = [{"id": sid, "name": name, "parent": parent, "start": start, "end": end}
                for sid, name, parent, start, end in self.spans]
        with open(path, "w") as fp:
            json.dump({"schema": "perfbench-trace-v1", "clock": "perf_counter",
                       "spans": rows}, fp)
