"""In-process span tracing from the benchmark's side of each layer.

:func:`install` replaces public functions at the names where their
callers look them up (``patentbulk.aps.build_record``,
``patentbulk.pipeline.record_to_row``, ...) with wrappers that open a
span around each call.  For generators each ``next()`` is one span, so
a parser's span covers its own work and the decompression it pulls, but
not the consumer's.  Spans record their parent and thread; they are kept
in compact columns in memory and written once, by :meth:`Tracer.write`.
"""

from __future__ import annotations

import array
import functools
import gzip
import itertools
import json
import threading
import time
from collections import Counter, defaultdict

# (module, attribute, span name).  Imported names are wrapped at every
# module that imported them, because that is where calls resolve.
FUNCTIONS = (
    ("fetch", "fetch", "fetch.fetch"),
    ("fetch", "_download", "fetch.download"),
    ("fetch", "archive_sizes", "fetch.archive_sizes"),
    ("aps", "build_record", "model.build_record"),
    ("aps", "ipc_parse", "model.ipc_parse"),
    ("xmlgrants", "parse_grant_xml", "xmlgrants.parse_grant_xml"),
    ("xmlgrants", "build_record", "model.build_record"),
    ("xmlgrants", "ipc_parse", "model.ipc_parse"),
    ("model", "ipc_parse", "model.ipc_parse"),
    ("pipeline", "record_to_row", "model.serialize"),
    ("pipeline", "record_to_dict", "model.serialize"),
    ("pipeline", "record_from_row", "model.record_from_row"),
    ("pipeline", "get_bulk_patent_data", "pipeline.run"),
    ("analytics", "weekly_counts", "analytics.weekly_counts"),
    ("analytics", "top_ipc_subclasses", "analytics.top_ipc_subclasses"),
    ("analytics", "lag_stats_by_class", "analytics.lag_stats_by_class"),
    ("analytics", "lag_stats_by_year", "analytics.lag_stats_by_year"),
)
GENERATORS = (
    ("xmlgrants", "split_concatenated_documents", "xmlgrants.split"),
    ("pipeline", "read_csv", "pipeline.read"),
    ("pipeline", "read_jsonl", "pipeline.read"),
)
METHODS = (
    ("pipeline", "CsvSink", "write", "pipeline.sink_write"),
    ("pipeline", "JsonlSink", "write", "pipeline.sink_write"),
)
# Parser reports read once a parse is exhausted: (report attribute, count name).
APS_REPORT = (
    ("lines_read", "aps.lines"),
    ("patn_sections", "aps.patn_sections"),
    ("records_skipped", "aps.records_skipped"),
    ("warnings_total", "aps.warnings"),
)
XML_REPORT = (
    ("slices_seen", "xmlgrants.slices"),
    ("record_errors_total", "xmlgrants.record_errors"),
    ("entity_substitutions", "xmlgrants.entity_substitutions"),
    ("warnings_total", "xmlgrants.warnings"),
)


class _Open:
    __slots__ = ("name", "id", "parent", "start", "child_time")

    def __init__(self, name: int, span_id: int, parent: int, start: float) -> None:
        self.name = name
        self.id = span_id
        self.parent = parent
        self.start = start
        self.child_time = 0.0


class Tracer:
    """Spans and counts of one traced run; thread-safe."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.threads: list[int] = []
        self._name_ids: dict[str, int] = {}
        self._thread_ids: dict[int, int] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self.columns = {
            "id": array.array("q"), "parent": array.array("q"), "name": array.array("H"),
            "thread": array.array("H"), "start": array.array("d"), "end": array.array("d"),
        }
        self.reset()

    def reset(self) -> None:
        """Start the aggregates of a new operation; recorded spans stay."""
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.main_root_time = 0.0

    def _name_id(self, name: str) -> int:
        with self._lock:
            if name not in self._name_ids:
                self._name_ids[name] = len(self.names)
                self.names.append(name)
            return self._name_ids[name]

    def _stack(self) -> list[_Open]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name_id: int) -> _Open:
        stack = self._stack()
        parent = stack[-1].id if stack else 0
        span = _Open(name_id, next(self._ids), parent, time.perf_counter())
        stack.append(span)
        return span

    def close(self, span: _Open) -> None:
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        duration = end - span.start
        if stack:
            stack[-1].child_time += duration
        name = self.names[span.name]
        ident = threading.get_ident()
        with self._lock:
            if ident not in self._thread_ids:
                self._thread_ids[ident] = len(self.threads)
                self.threads.append(ident)
            if not stack and threading.current_thread() is threading.main_thread():
                self.main_root_time += duration
            self.total[name] += duration
            self.self_time[name] += duration - span.child_time
            self.calls[name] += 1
            cols = self.columns
            cols["id"].append(span.id)
            cols["parent"].append(span.parent)
            cols["name"].append(span.name)
            cols["thread"].append(self._thread_ids[ident])
            cols["start"].append(span.start)
            cols["end"].append(end)

    def count(self, name: str, value: int) -> None:
        with self._lock:
            self.counts[name] += value

    def wrap(self, name: str, fn):
        name_id = self._name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(span)

        return traced

    def iterate(self, name_id: int, items):
        """Re-yield ``items`` with one span around each ``next()``."""
        while True:
            span = self.open(name_id)
            try:
                item = next(items)
            except StopIteration:
                return
            finally:
                self.close(span)
            yield item

    def wrap_generator(self, name: str, fn):
        name_id = self._name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.iterate(name_id, fn(*args, **kwargs))

        return traced

    def report_after(self, fn, fields, name: str | None = None):
        """Wrap a parser's ``parse`` so its report is counted when exhausted."""
        name_id = self._name_id(name) if name else None

        @functools.wraps(fn)
        def traced(parser, *args, **kwargs):
            items = fn(parser, *args, **kwargs)
            if name_id is not None:
                items = self.iterate(name_id, items)
            yield from items
            for attribute, count_name in fields:
                self.count(count_name, getattr(parser.report, attribute))

        return traced

    def write(self, path: str) -> int:
        """Write every span as gzipped JSON lines; returns the span count."""
        cols = self.columns
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write(json.dumps({"names": self.names, "threads": self.threads,
                                  "fields": list(cols)}) + "\n")
            for row in zip(*cols.values()):
                out.write("%d %d %d %d %.9f %.9f\n" % row)
        return len(cols["id"])


def install(tracer: Tracer, package) -> list[tuple]:
    """Wrap the package's layer functions; returns what :func:`uninstall` needs."""
    saved = []

    def replace(owner, attribute, value):
        saved.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, value)

    modules = {name: getattr(package, name) for name in
               ("fetch", "aps", "xmlgrants", "model", "pipeline", "analytics")}
    for module, attribute, name in FUNCTIONS:
        owner = modules[module]
        replace(owner, attribute, tracer.wrap(name, getattr(owner, attribute)))
    for module, attribute, name in GENERATORS:
        owner = modules[module]
        replace(owner, attribute, tracer.wrap_generator(name, getattr(owner, attribute)))
    for module, cls, attribute, name in METHODS:
        owner = getattr(modules[module], cls)
        replace(owner, attribute, tracer.wrap(name, getattr(owner, attribute)))
    aps_parser = modules["aps"].ApsParser
    replace(aps_parser, "parse", tracer.report_after(aps_parser.parse, APS_REPORT, "aps.parse"))
    xml_parser = modules["xmlgrants"].XmlWeeklyParser
    replace(xml_parser, "parse", tracer.report_after(xml_parser.parse, XML_REPORT))
    return saved


def uninstall(saved: list[tuple]) -> None:
    for owner, attribute, original in reversed(saved):
        setattr(owner, attribute, original)
