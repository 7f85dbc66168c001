"""Fetch -> parse -> serialize orchestration and the CSV/JSONL sinks.

Outputs are byte-deterministic: for a given record stream the CSV and
JSONL bytes never vary, and rows are ordered by (year, week, in-file
position) regardless of how many weeks are fetched in parallel.
"""

from __future__ import annotations

import csv
import io
import json
import os
import shutil
import tempfile
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import closing, contextmanager, nullcontext
from dataclasses import dataclass, field as dataclass_field
from functools import partial
from itertools import islice
from pathlib import Path
from typing import IO, Callable, ContextManager, Iterable, Iterator, Optional, TextIO, TypeVar, Union

from . import aps, fetch as fetchmod, xmlgrants
from .model import (
    CSV_COLUMNS,
    Grant,
    ParseReport,
    PatentRecord,
    SourceFormat,
    WeekSpec,
    grant_from_row,
    record_from_dict,
    record_from_row,
    record_to_dict,
    record_to_row,
)

# Claims cells routinely exceed the csv module's default field cap.
csv.field_size_limit(64 * 1024 * 1024)

T = TypeVar("T")


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
    _wkus: set[str] = dataclass_field(default_factory=set, init=False, repr=False, compare=False)

    def write(self, records: Iterable[PatentRecord], sink: Sink) -> None:
        """Write ``records`` to ``sink`` as one batch, counting them and the
        ones whose WKU this run has already written.  If iterating
        ``records`` raises, no row reaches the sink and nothing is counted."""
        wkus: list[str] = []
        with sink.spooled() as spool:
            for record in records:
                spool.write(record)
                wkus.append(record.wku)
        new = set(wkus) - self._wkus
        self._wkus |= new
        self.duplicate_wkus += len(wkus) - len(new)
        self.records_written += len(wkus)
        self.output_bytes = sink.bytes_written

    def count_input(self, warnings: int, compressed: int, decompressed: int) -> None:
        """Add one parsed file's warning count and byte sizes."""
        self.warnings_total += warnings
        self.input_bytes_compressed += compressed
        self.input_bytes_decompressed += decompressed

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
        return "\n".join("%-*s  %s" % (width, label, value) for label, value in rows)


class OutputError(OSError):
    """Appending a batch to a sink's output failed part-way."""


class Sink:
    """Writes records to ``out`` with ``write(record)``, one line each, in
    the subclass's format.  Runs write in batches through :meth:`spooled`;
    ``bytes_written`` counts the UTF-8 bytes of the header and of every
    batch appended that way, not those of a direct ``write``.
    """

    def __init__(self, out: TextIO, header: str = "") -> None:
        self.out = out
        out.write(header)
        self.bytes_written = len(header)  # headers are ASCII

    def _headless(self, out: TextIO) -> Sink:
        """A sink of this format over ``out`` that writes no header."""
        return type(self)(out)

    @contextmanager
    def spooled(self) -> Iterator[Sink]:
        """A sink of this format over an anonymous temp file, appended to
        ``out`` when the block exits normally and dropped if it raises, so
        memory holds no batch and a failed batch adds no rows."""
        with tempfile.TemporaryFile("w+", encoding="utf-8", newline="") as spool:
            yield self._headless(spool)
            spool.flush()
            size = spool.buffer.tell()
            spool.seek(0)
            try:
                shutil.copyfileobj(spool, self.out)
            except OSError as exc:
                raise OutputError("writing the output failed: %s" % exc) from exc
        self.bytes_written += size


class CsvSink(Sink):
    """Serialized writer for the canonical CSV surface."""

    def __init__(self, out: TextIO, write_header: bool = True) -> None:
        super().__init__(out, ",".join(CSV_COLUMNS) + "\n" if write_header else "")
        self._writer = csv.writer(out, lineterminator="\n")

    def write(self, record: PatentRecord) -> None:
        self._writer.writerow(record_to_row(record))

    def _headless(self, out: TextIO) -> Sink:
        return type(self)(out, write_header=False)


class JsonlSink(Sink):
    """One JSON object per line; list fields stay arrays."""

    def write(self, record: PatentRecord) -> None:
        self.out.write(json.dumps(record_to_dict(record), ensure_ascii=False) + "\n")


def _open_source(source: Union[str, Path, TextIO]) -> ContextManager[TextIO]:
    """A path opened for reading and closed on exit; an open file as is."""
    if hasattr(source, "read"):
        return nullcontext(source)
    return open(source, encoding="utf-8", newline="")


def _read_rows(source: Union[str, Path, TextIO], decode: Callable[[list[str]], T]) -> Iterator[T]:
    """``decode`` of each row of pipeline CSV output, after checking its
    header; a row that ``decode`` rejects raises naming its line."""
    with _open_source(source) as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is not None and tuple(header) != CSV_COLUMNS:
            raise ValueError("unexpected CSV header: %r" % (header,))
        for row in reader:
            try:
                item = decode(row)
            except ValueError as exc:
                raise ValueError("line %d: %s" % (reader.line_num, exc)) from exc
            yield item


def read_csv(source: Union[str, Path, TextIO]) -> Iterator[PatentRecord]:
    """Re-read pipeline CSV output, claims newlines included."""
    return _read_rows(source, record_from_row)


def read_csv_grants(source: Union[str, Path, TextIO]) -> Iterator[Grant]:
    """The issue date, application date and IPC subclass keys of each row
    of pipeline CSV output; the other six cells are not decoded."""
    return _read_rows(source, grant_from_row)


def read_jsonl(source: Union[str, Path, TextIO]) -> Iterator[PatentRecord]:
    with _open_source(source) as handle:
        for number, line in enumerate(handle, 1):
            if line.strip():
                try:
                    record = record_from_dict(json.loads(line))
                except ValueError as exc:
                    raise ValueError("line %d: %s" % (number, exc)) from exc
                yield record


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


def _reason(error: BaseException) -> str:
    """A week's failure reason: the error's text, or its class name when
    it has none (``MemoryError()``)."""
    return str(error) or type(error).__name__


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


def _run_now(step: Callable[..., object], week: WeekSpec, config: PipelineConfig) -> Future:
    """``step(week, config)`` run on the calling thread, as a finished future."""
    future: Future = Future()
    try:
        future.set_result(step(week, config))
    except Exception as exc:
        future.set_exception(exc)
    return future


def _ordered_weeks(
    weeks: list[WeekSpec], config: PipelineConfig, step: Callable[..., object]
) -> Iterator[tuple[WeekSpec, Future]]:
    """Run ``step(week, config)`` for each of ``weeks``; yield ``(week,
    future)`` in the order given, the future holding the step's result or
    what it raised.

    At most ``max(1, config.jobs)`` weeks are submitted and not yet
    consumed: the next week is submitted only after the caller has taken
    the oldest, so fetched weeks cannot pile up behind a slow one.  With
    one job each step runs on the calling thread, where an interrupt
    stops it at once.
    """
    jobs = max(1, config.jobs)
    todo = iter(weeks)
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        submit = pool.submit if jobs > 1 else _run_now
        pending = deque((week, submit(step, week, config)) for week in islice(todo, jobs))
        while pending:
            yield pending.popleft()
            pending.extend((week, submit(step, week, config)) for week in islice(todo, 1))


def _sorted_weeks(weeks: Iterable[WeekSpec]) -> list[WeekSpec]:
    week_list = sorted(set(weeks))
    if not week_list:
        raise ValueError("weeks must be non-empty")
    return week_list


def _parse_file(
    path: Union[str, Path], format: SourceFormat, encoding: str, consume: Callable[..., None]
) -> tuple[int, int, int]:
    """Open, size and parse one weekly file and pass its records to
    ``consume``; returns the arguments of :meth:`RunSummary.count_input`."""
    path = Path(path)
    zipped = path.suffix == ".zip"
    with fetchmod.open_archive(path) if zipped else open(path, "rb") as stream:
        compressed = path.stat().st_size
        decompressed = fetchmod.archive_sizes(path)[1] if zipped else compressed
        records, report = parse_archive_stream(stream, format, encoding)
        consume(records)
    return report.warnings_total, compressed, decompressed


def write_file(
    path: Union[str, Path],
    format: SourceFormat,
    sink: Sink,
    summary: RunSummary,
    encoding: str = aps.DEFAULT_ENCODING,
) -> None:
    """Parse one weekly file, a ``.zip`` archive or a plain one, into
    ``sink`` and count it in ``summary``.

    Records stream one at a time through :meth:`RunSummary.write`, so
    memory stays bounded by one patent.  A file that fails to open or
    parse raises, and adds no rows and no counts.
    """
    counts = _parse_file(path, format, encoding, lambda records: summary.write(records, sink))
    summary.count_input(*counts)


def _parse_to_spool(path: str, format: SourceFormat, encoding: str, spool_dir: str) -> tuple:
    """Worker step: parse one weekly file into a new file in ``spool_dir``,
    one ``pickle.dump`` per record and then ``None``; returns that file's
    name and the weekly file's counts."""
    import pickle  # not at the top, as multiprocessing: only runs with workers load it

    handle, name = tempfile.mkstemp(dir=spool_dir)
    with open(handle, "wb") as spool:

        def dump(records: Iterator[PatentRecord]) -> None:
            for record in records:
                pickle.dump(record, spool, pickle.HIGHEST_PROTOCOL)
            pickle.dump(None, spool)

        return name, _parse_file(path, format, encoding, dump)


def _write_spool(name: str, counts: tuple, sink: Sink, summary: RunSummary) -> None:
    """Write a worker's spool to ``sink`` one record at a time, deleting
    the file once it is open, and count the weekly file in ``summary``."""
    import pickle

    with open(name, "rb") as spool:
        os.unlink(name)
        summary.write(iter(partial(pickle.load, spool), None), sink)
    summary.count_input(*counts)


@contextmanager
def _week_steps(config: PipelineConfig, weeks: int) -> Iterator[Callable[..., tuple]]:
    """The step :func:`get_bulk_patent_data` runs per week: with one job
    :func:`_fetch_week`; with more, that and then a worker's parse of it."""
    if config.jobs <= 1:
        yield _fetch_week
        return
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    workers = min(config.jobs, weeks, len(os.sched_getaffinity(0)))
    fork = multiprocessing.get_context("fork")
    with tempfile.TemporaryDirectory() as spool_dir, ProcessPoolExecutor(workers, fork) as pool:
        pool.submit(int).result()  # forks every worker now, before any fetch thread starts

        def step(week: WeekSpec, config: PipelineConfig) -> tuple:
            plan, entry = _fetch_week(week, config)
            spooled = pool.submit(
                _parse_to_spool, entry.cache_path, plan.format, config.encoding, spool_dir
            )
            return (plan, entry, *spooled.result())

        yield step


def get_bulk_patent_data(
    weeks: Iterable[WeekSpec],
    sink: Sink,
    config: Optional[PipelineConfig] = None,
) -> RunSummary:
    """Collect a range of weeks into one sink.

    Weeks are fetched (cache-first) ``config.jobs`` at a time and reach
    the sink in ascending (year, week) order.  With one job each is parsed
    on the calling thread by :func:`write_file`.  With ``jobs=N`` they are
    parsed in up to N worker processes, each bounded by one patent, and
    their records reach the sink one at a time through a pickle spool in
    ``TMPDIR``.  The workers are forked when the run starts, so a caller
    whose own threads may then hold locks should use one job.  A failing
    week adds no rows; it is recorded in the summary and does not abort
    the run.  If every week fails a RunError is raised instead, and a
    failed write to the sink's output raises OutputError at once.
    """
    week_list = _sorted_weeks(weeks)
    config = config or PipelineConfig()
    summary = RunSummary(weeks_requested=len(week_list))
    with _week_steps(config, len(week_list)) as step, closing(
        _ordered_weeks(week_list, config, step)
    ) as fetched_weeks:
        for week, fetched in fetched_weeks:
            try:
                plan, entry, *spooled = fetched.result()
                _emit_progress(config, "parsing %s" % week.label())
                if spooled:
                    _write_spool(*spooled, sink, summary)
                else:
                    write_file(entry.cache_path, plan.format, sink, summary, config.encoding)
            except OutputError:
                raise
            except Exception as error:
                summary.weeks_failed.append((week, _reason(error)))
            else:
                summary.weeks_fetched += 1
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
    for week, fetched in _ordered_weeks(week_list, config, _fetch_week):
        error = fetched.exception()
        if error is None:
            summary.weeks_fetched += 1
        else:
            summary.weeks_failed.append((week, _reason(error)))
    if summary.weeks_fetched == 0:
        raise RunError(summary.weeks_failed)
    return summary
