"""Fetch -> parse -> serialize orchestration and the CSV/JSONL sinks.

Outputs are byte-deterministic: for a given record stream the CSV and
JSONL bytes never vary, and rows are ordered by (year, week, in-file
position) regardless of how many weeks are fetched in parallel.
"""

from __future__ import annotations

import csv
import io
import json
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field as dataclass_field
from itertools import islice
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Optional, TextIO, Union

from . import aps, fetch as fetchmod, xmlgrants
from .model import (
    CSV_COLUMNS,
    ParseReport,
    PatentRecord,
    SourceFormat,
    WeekSpec,
    record_from_dict,
    record_from_row,
    record_to_dict,
    record_to_row,
)

# Claims cells routinely exceed the csv module's default field cap.
csv.field_size_limit(64 * 1024 * 1024)


class RunError(Exception):
    """Every requested week failed; carries the per-week reasons."""

    def __init__(self, failures: list[tuple[WeekSpec, str]]) -> None:
        lines = "; ".join("%s: %s" % (w.label(), reason) for w, reason in failures)
        super().__init__("all requested weeks failed (%s)" % lines)
        self.failures = failures


@dataclass
class RunSummary:
    """Outcome of one collection run, printable and JSON-serializable."""

    weeks_requested: int = 0
    weeks_fetched: int = 0
    weeks_failed: list[tuple[WeekSpec, str]] = dataclass_field(default_factory=list)
    records_written: int = 0
    warnings_total: int = 0
    duplicate_wkus: int = 0
    output_bytes: int = 0
    input_bytes_compressed: int = 0
    input_bytes_decompressed: int = 0

    def size_reduction_ratio(self) -> Optional[float]:
        if self.input_bytes_decompressed:
            return self.output_bytes / self.input_bytes_decompressed
        return None

    def to_dict(self) -> dict:
        return {
            "weeks_requested": self.weeks_requested,
            "weeks_fetched": self.weeks_fetched,
            "weeks_failed": [
                {"year": w.year, "week": w.week, "reason": reason}
                for w, reason in self.weeks_failed
            ],
            "records_written": self.records_written,
            "warnings_total": self.warnings_total,
            "duplicate_wkus": self.duplicate_wkus,
            "output_bytes": self.output_bytes,
            "input_bytes_compressed": self.input_bytes_compressed,
            "input_bytes_decompressed": self.input_bytes_decompressed,
            "size_reduction_ratio": self.size_reduction_ratio(),
        }

    def format_table(self) -> str:
        rows = [
            ("weeks requested", str(self.weeks_requested)),
            ("weeks fetched", str(self.weeks_fetched)),
            ("weeks failed", str(len(self.weeks_failed))),
            ("records written", str(self.records_written)),
            ("warnings", str(self.warnings_total)),
            ("duplicate WKUs", str(self.duplicate_wkus)),
            ("output bytes", str(self.output_bytes)),
            ("input bytes (compressed)", str(self.input_bytes_compressed)),
            ("input bytes (decompressed)", str(self.input_bytes_decompressed)),
        ]
        ratio = self.size_reduction_ratio()
        if ratio is not None:
            rows.append(("output/input size ratio", "%.3f" % ratio))
        width = max(len(label) for label, _ in rows)
        lines = ["%-*s  %s" % (width, label, value) for label, value in rows]
        for week, reason in self.weeks_failed:
            lines.append("failed %s: %s" % (week.label(), reason))
        return "\n".join(lines)


class _CountingWriter:
    """Text proxy that counts the UTF-8 bytes passing through."""

    def __init__(self, inner: TextIO) -> None:
        self.inner = inner
        self.bytes_written = 0

    def write(self, text: str) -> int:
        self.bytes_written += len(text.encode("utf-8"))
        return self.inner.write(text)


class CsvSink:
    """Serialized writer for the canonical CSV surface."""

    def __init__(self, out: TextIO, write_header: bool = True) -> None:
        self._counter = _CountingWriter(out)
        self._writer = csv.writer(self._counter, lineterminator="\n")
        if write_header:
            self._writer.writerow(CSV_COLUMNS)

    def write(self, record: PatentRecord) -> None:
        self._writer.writerow(record_to_row(record))

    @property
    def bytes_written(self) -> int:
        return self._counter.bytes_written


class JsonlSink:
    """One JSON object per line; list fields stay arrays."""

    def __init__(self, out: TextIO) -> None:
        self._counter = _CountingWriter(out)

    def write(self, record: PatentRecord) -> None:
        self._counter.write(json.dumps(record_to_dict(record), ensure_ascii=False) + "\n")

    @property
    def bytes_written(self) -> int:
        return self._counter.bytes_written


Sink = Union[CsvSink, JsonlSink]


def read_csv(source: Union[str, Path, TextIO]) -> Iterator[PatentRecord]:
    """Re-read pipeline CSV output, claims newlines included."""
    if hasattr(source, "read"):
        handle, owned = source, False
    else:
        handle, owned = open(source, encoding="utf-8", newline=""), True
    try:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is not None and tuple(header) != CSV_COLUMNS:
            raise ValueError("unexpected CSV header: %r" % (header,))
        for row in reader:
            yield record_from_row(row)
    finally:
        if owned:
            handle.close()


def read_jsonl(source: Union[str, Path, TextIO]) -> Iterator[PatentRecord]:
    if hasattr(source, "read"):
        handle, owned = source, False
    else:
        handle, owned = open(source, encoding="utf-8"), True
    try:
        for line in handle:
            if line.strip():
                yield record_from_dict(json.loads(line))
    finally:
        if owned:
            handle.close()


@dataclass
class PipelineConfig:
    cache_dir: str = "patentbulk-cache"
    base_url: str = fetchmod.DEFAULT_BASE_URL
    transport: Optional[fetchmod.Transport] = None
    jobs: int = 1
    encoding: str = aps.DEFAULT_ENCODING
    retries: int = 3
    progress: Optional[Callable[[str], None]] = None


def _emit_progress(config: PipelineConfig, message: str) -> None:
    if config.progress is not None:
        config.progress(message)


def parse_archive_stream(
    stream: IO[bytes], format: SourceFormat, encoding: str = aps.DEFAULT_ENCODING
) -> tuple[Iterator[PatentRecord], ParseReport]:
    """Era dispatch: records iterator plus the live parser report."""
    if format is SourceFormat.APS:
        parser = aps.ApsParser()
        text = io.TextIOWrapper(stream, encoding=encoding)
        return parser.parse(text), parser.report
    parser = xmlgrants.XmlWeeklyParser(format)
    return parser.parse(stream), parser.report


def _fetch_week(
    week: WeekSpec, config: PipelineConfig
) -> tuple[fetchmod.FetchPlan, fetchmod.CacheEntry]:
    """Resolve one week's archive and fetch it, cache first."""
    plan = fetchmod.resolve_plan(week, config.base_url)
    _emit_progress(config, "fetching %s (%s)" % (week.label(), plan.url))
    entry = fetchmod.fetch(
        plan, config.cache_dir, transport=config.transport, retries=config.retries
    )
    return plan, entry


def _collect_week(
    week: WeekSpec, config: PipelineConfig
) -> tuple[list[PatentRecord], int, int, int]:
    """Fetch and parse one week; returns (records, warnings, compressed,
    decompressed).  Raises on any per-week failure."""
    plan, entry = _fetch_week(week, config)
    compressed, decompressed = fetchmod.archive_sizes(entry)
    _emit_progress(config, "parsing %s" % week.label())
    with fetchmod.open_archive(entry.cache_path) as stream:
        records_iter, report = parse_archive_stream(stream, plan.format, config.encoding)
        records = list(records_iter)
    return records, report.warnings_total, compressed, decompressed


def _run_now(step: Callable[..., object], week: WeekSpec, config: PipelineConfig) -> Future:
    """``step(week, config)`` run on the calling thread, as a finished future."""
    future: Future = Future()
    try:
        future.set_result(step(week, config))
    except Exception as exc:
        future.set_exception(exc)
    return future


def _ordered_weeks(
    weeks: list[WeekSpec], step: Callable[..., object], config: PipelineConfig
) -> Iterator[tuple[WeekSpec, object, Optional[BaseException]]]:
    """Run ``step`` on each of ``weeks``; yield ``(week, result, error)``
    in the order given, ``error`` being what the week raised, if anything.

    At most ``max(1, config.jobs)`` weeks are submitted and not yet
    consumed: the next week is submitted only after the caller has taken
    the oldest, so finished weeks cannot pile up behind a slow one.  With
    one job each step runs on the calling thread, where an interrupt stops
    it at once.
    """
    jobs = max(1, config.jobs)
    todo = iter(weeks)
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        submit = pool.submit if jobs > 1 else _run_now
        pending = deque((week, submit(step, week, config)) for week in islice(todo, jobs))
        while pending:
            week, future = pending.popleft()
            error = future.exception()
            yield week, None if error else future.result(), error
            del future  # the caller is done with this week: free it first
            pending.extend((week, submit(step, week, config)) for week in islice(todo, 1))


def _sorted_weeks(weeks: Iterable[WeekSpec]) -> list[WeekSpec]:
    week_list = sorted(set(weeks))
    if not week_list:
        raise ValueError("weeks must be non-empty")
    return week_list


def _week_failed(
    summary: RunSummary, config: PipelineConfig, week: WeekSpec, error: BaseException
) -> None:
    summary.weeks_failed.append((week, str(error)))
    _emit_progress(config, "failed %s: %s" % (week.label(), error))


def get_bulk_patent_data(
    weeks: Iterable[WeekSpec],
    sink: Sink,
    config: Optional[PipelineConfig] = None,
) -> RunSummary:
    """Collect a range of weeks into one sink.

    Weeks are fetched (cache-first) and parsed ``config.jobs`` at a time,
    and per-week batches reach the sink in ascending (year, week) order.
    A week is parsed whole before its first row is written, so a week that
    fails adds no rows, and at most ``config.jobs`` weeks are held in
    memory.  A failing week is recorded in the summary and does not abort
    the run; if every week fails a RunError is raised instead.
    """
    week_list = _sorted_weeks(weeks)
    config = config or PipelineConfig()
    summary = RunSummary(weeks_requested=len(week_list))
    seen_wkus: set[str] = set()
    for week, result, error in _ordered_weeks(week_list, _collect_week, config):
        if error is not None:
            _week_failed(summary, config, week, error)
            continue
        records, warnings, compressed, decompressed = result
        summary.weeks_fetched += 1
        summary.warnings_total += warnings
        summary.input_bytes_compressed += compressed
        summary.input_bytes_decompressed += decompressed
        for record in records:
            if record.wku in seen_wkus:
                summary.duplicate_wkus += 1
            else:
                seen_wkus.add(record.wku)
            sink.write(record)
        summary.records_written += len(records)
        # drop this week before the loop waits on the next one
        result = records = None

    summary.output_bytes = sink.bytes_written
    if summary.weeks_fetched == 0:
        raise RunError(summary.weeks_failed)
    return summary


def fetch_weeks(
    weeks: Iterable[WeekSpec], config: Optional[PipelineConfig] = None
) -> RunSummary:
    """Fetch a range of weeks into the cache without parsing them; jobs,
    order and failure policy as in :func:`get_bulk_patent_data`."""
    week_list = _sorted_weeks(weeks)
    config = config or PipelineConfig()
    summary = RunSummary(weeks_requested=len(week_list))
    for week, _, error in _ordered_weeks(week_list, _fetch_week, config):
        if error is None:
            summary.weeks_fetched += 1
        else:
            _week_failed(summary, config, week, error)
    if summary.weeks_fetched == 0:
        raise RunError(summary.weeks_failed)
    return summary


def convert_stream(
    stream: IO[bytes],
    format: SourceFormat,
    sink: Sink,
    encoding: str = aps.DEFAULT_ENCODING,
) -> ParseReport:
    """Stream one local file through the era parser into a sink.

    Returns the parser's report, whose ``records_emitted`` is the number
    of rows written; memory stays bounded by the largest single patent
    regardless of file size.
    """
    records, report = parse_archive_stream(stream, format, encoding)
    for record in records:
        sink.write(record)
    return report
