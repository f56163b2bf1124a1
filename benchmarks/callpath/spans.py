"""A single-threaded, in-memory span recorder.

The program carries no spans of its own yet, so every layer is timed
from outside: the benchmark opens a span around each call into a public
function. Two kinds of parent/child edge exist:

* **nested** — the child ran inside the parent's interval (``call`` →
  ``nrmi.prepare``); the parent is whatever span is open;
* **attributed** — the child is a *replay* of work the parent did
  internally, run separately on identical input and hung under the
  parent explicitly (``nrmi.prepare`` → ``serde.encode_args``).

Either way a span's self time is its duration minus its children's
durations, which is what turns "prepare_call took 1.6 ms" into "…of
which 1.1 ms was serde".
"""

from __future__ import annotations

import json
from time import perf_counter_ns
from typing import Dict, List, Optional


class Span:
    __slots__ = ("name", "parent", "trace", "start", "end")

    def __init__(self, name: str, parent: Optional[int], trace: int, start: int) -> None:
        self.name = name
        self.parent = parent
        self.trace = trace
        self.start = start
        self.end = start

    @property
    def duration(self) -> int:
        return self.end - self.start


class _OpenSpan:
    """Context manager for one span; ``as`` yields the span's index."""

    __slots__ = ("_recorder", "_name", "_parent", "_index")

    def __init__(self, recorder: "Recorder", name: str, parent: Optional[int]) -> None:
        self._recorder = recorder
        self._name = name
        self._parent = parent

    def __enter__(self) -> int:
        recorder = self._recorder
        parent = self._parent
        if parent is None and recorder._open:
            parent = recorder._open[-1]
        index = self._index = len(recorder.spans)
        recorder._open.append(index)
        recorder.spans.append(Span(self._name, parent, recorder.trace, perf_counter_ns()))
        return index

    def __exit__(self, *exc_info: object) -> None:
        end = perf_counter_ns()
        recorder = self._recorder
        recorder.spans[self._index].end = end
        recorder._open.pop()


class Recorder:
    """Spans and counts of one traced pass; ``trace`` names the iteration."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, List[float]] = {}
        self.trace = 0
        self._open: List[int] = []
        self._grouped_at = -1
        self._by_name: Dict[str, List[int]] = {}
        self._children: List[int] = []

    def span(self, name: str, parent: Optional[int] = None) -> _OpenSpan:
        """Open a span under *parent* (default: the innermost open span)."""
        return _OpenSpan(self, name, parent)

    def count(self, name: str, value: float) -> None:
        """Record a count taken at the same boundary as the spans."""
        self.counts.setdefault(name, []).append(value)

    def _grouped(self) -> Dict[str, List[int]]:
        """name → span indices, with every span's children's total time
        alongside; rebuilt only when spans were added since."""
        if self._grouped_at != len(self.spans):
            by_name: Dict[str, List[int]] = {}
            children = [0] * len(self.spans)
            for index, span in enumerate(self.spans):
                by_name.setdefault(span.name, []).append(index)
                if span.parent is not None:
                    children[span.parent] += span.duration
            self._by_name, self._children = by_name, children
            self._grouped_at = len(self.spans)
        return self._by_name

    def names(self) -> List[str]:
        return list(self._grouped())

    def durations(self, name: str) -> List[int]:
        return [self.spans[i].duration for i in self._grouped().get(name, ())]

    def self_times(self, name: str) -> List[int]:
        """Per-span duration minus the durations of its children."""
        indices = self._grouped().get(name, ())
        return [self.spans[i].duration - self._children[i] for i in indices]

    def by_trace(self, name: str) -> Dict[int, int]:
        """trace id → duration of the span called *name* in that iteration."""
        return {
            self.spans[i].trace: self.spans[i].duration
            for i in self._grouped().get(name, ())
        }

    def dump(self, path: str) -> None:
        """Write every span as one JSON line (name, parent, trace, ns)."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "name": span.name, "parent": span.parent,
                    "trace": span.trace, "start_ns": span.start, "end_ns": span.end,
                }) + "\n")
