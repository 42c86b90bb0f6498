"""In-memory spans for the traced run, and the per-layer figures derived from them.

A span is one call into a layer's public function: a name, start, end and
the index of the span that was open when it began (-1 for a root). Spans
live in flat arrays while the run goes on and are written to one file when
it ends; nothing is formatted or counted inside a timed region.
"""
from __future__ import annotations

import json
import statistics
from array import array
from pathlib import Path
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.counts: dict[str, int] = {}  # per span name, summed ``count(result)``
        self.on = False
        self._stack: list[int] = []

    def wrap(self, name: str, fn, count=None):
        """A callable that records one span per call while tracing is on.

        With ``count``, ``count(result)`` is added to ``self.counts[name]``
        after the span has ended, so the counting is outside the span.
        """
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        counts = self.counts
        stack, name_ids, parents, starts, ends = (
            self._stack, self.name_ids, self.parents, self.starts, self.ends
        )

        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            index = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                starts[index] = start
                ends[index] = end
            if count is not None:
                counts[name] = counts.get(name, 0) + count(result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, count=None) -> None:
        """Replace ``owner.attr`` (a module global or class attribute) with a traced one."""
        raw = owner.__dict__[attr]
        if isinstance(raw, staticmethod):
            replacement = staticmethod(self.wrap(name, raw.__func__, count))
        else:
            replacement = self.wrap(name, raw, count)
        setattr(owner, attr, replacement)

    def write(self, path: Path) -> None:
        header = {"names": self.names, "count": len(self.starts), "counts": self.counts}
        with path.open("wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.name_ids, self.parents, self.starts, self.ends):
                arr.tofile(fh)


class SpanSet:
    """Spans read back from a file, with parent/child queries."""

    def __init__(self, path: Path) -> None:
        with path.open("rb") as fh:
            header = json.loads(fh.readline())
            n = header["count"]
            arrays = []
            for code in "iidd":
                arr = array(code)
                arr.fromfile(fh, n)
                arrays.append(arr)
        self.names = header["names"]
        self.counts: dict[str, int] = header["counts"]
        self.name_ids, self.parents, self.starts, self.ends = arrays
        self.children: list[list[int]] = [[] for _ in range(n)]
        self._by_name: dict[str, list[int]] = {name: [] for name in self.names}
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                self.children[parent].append(index)
            self._by_name[self.names[self.name_ids[index]]].append(index)

    def name(self, index: int) -> str:
        return self.names[self.name_ids[index]]

    def duration(self, index: int) -> float:
        return self.ends[index] - self.starts[index]

    def root(self, index: int) -> int:
        while self.parents[index] >= 0:
            index = self.parents[index]
        return index

    def has_ancestor(self, index: int, name: str) -> bool:
        index = self.parents[index]
        while index >= 0:
            if self.name(index) == name:
                return True
            index = self.parents[index]
        return False

    def of(self, name: str) -> list[int]:
        return self._by_name.get(name, [])

    def child_time(self, index: int, names: tuple[str, ...] | None = None) -> float:
        """Time covered by direct children (they never overlap: one thread)."""
        return sum(
            self.duration(c) for c in self.children[index] if names is None or self.name(c) in names
        )

    def self_time(self, index: int) -> float:
        return self.duration(index) - self.child_time(index)

    def total(self, name: str) -> float:
        return sum(self.duration(i) for i in self.of(name))


def median_us(values: list[float]) -> float:
    return statistics.median(values) * 1e6 if values else 0.0


def layer_times(spans: SpanSet) -> dict[str, float]:
    """Per-layer times: sums over the run in seconds, per-query medians in µs."""
    in_queries = {"search.before", "search.after"}

    def per_query(name: str) -> list[float]:
        return [
            spans.duration(i) for i in spans.of(name) if spans.name(spans.root(i)) in in_queries
        ]

    after = [i for i in spans.of("search.after") if spans.parents[i] < 0]
    return {
        "corpus.load_s": spans.total("corpus.load"),
        "ontology.load_s": spans.total("ontology.load"),
        "ontology.tokenize_s": spans.total("ontology.tokenize"),
        "relevance.score_s": spans.total("relevance.score"),
        "rpag.crawl_s": spans.total("rpag.crawl"),
        "rpag.self_s": sum(
            spans.duration(i) - spans.child_time(i, ("ontology.tokenize", "relevance.score"))
            for i in spans.of("rpag.crawl")
        ),
        "ibag.build_s": spans.total("ibag.build"),
        "ibag.select_us": median_us(per_query("ibag.select")),
        "bitmask.patterns_s": spans.total("bitmask.patterns"),
        "bitmask.mask_us": median_us(per_query("bitmask.mask")),
        "bitmask.filter_us": median_us(per_query("bitmask.filter")),
        "bundle.serialize_s": spans.total("bundle.serialize"),
        "bundle.write_s": sum(spans.self_time(i) for i in spans.of("bundle.save")),
        "bundle.parse_s": spans.total("bundle.parse"),
        "bundle.decode_s": sum(
            spans.duration(i) - spans.child_time(i, ("bundle.validate",))
            for i in spans.of("bundle.decode")
        ),
        "bundle.validate_s": sum(
            spans.duration(i)
            for i in spans.of("bundle.validate")
            if spans.has_ancestor(i, "bundle.load")
        ),
        "search.overhead_us": median_us([spans.self_time(i) for i in after]),
    }
