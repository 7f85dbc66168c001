"""Fetch -> parse -> serialize orchestration and the CSV/JSONL sinks.

Outputs are byte-deterministic: for a given record stream the CSV and
JSONL bytes never vary, and rows are ordered by (year, week, in-file
position) regardless of how many weeks are fetched in parallel.
"""

from __future__ import annotations

import csv
import io
import json
import marshal
import os
import shutil
import threading
from collections import deque
from contextlib import closing, contextmanager, nullcontext, suppress
from dataclasses import dataclass, field as dataclass_field
from functools import partial
from itertools import islice
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Optional, TextIO, TypeVar, Union

from . import analytics, aps, fetch as fetchmod
from .model import (
    CSV_COLUMNS,
    Grant,
    ParseReport,
    PatentRecord,
    SourceFormat,
    WeekSpec,
    grant_from_row,
    record_from_row,
    record_to_dict,
    record_to_row,
    row_from_dict,
)

# tempfile, xmlgrants and the thread and process pools are imported in the
# functions that use them: `stats` uses none of them, an APS `convert` no
# xmlgrants, and a run of one job no pool

# Claims cells routinely exceed the csv module's default field cap.
csv.field_size_limit(64 * 1024 * 1024)

T = TypeVar("T")
# a spooled source: spool file name, WKUs written, (warnings, compressed, decompressed)
Spooled = tuple[str, list[str], tuple[int, int, int]]


class RunError(Exception):
    """Every requested week failed; carries the per-week reasons."""

    def __init__(self, failures: list[tuple[WeekSpec, str]]) -> None:
        lines = "; ".join("%s: %s" % (w.label(), reason) for w, reason in failures)
        super().__init__("all requested weeks failed (%s)" % lines)
        self.failures = failures


# the counts of a run: each one's --summary-json key and its summary table label
_COUNTS = (
    ("weeks_requested", "weeks requested"),
    ("weeks_fetched", "weeks fetched"),
    ("weeks_failed", "weeks failed"),
    ("records_written", "records written"),
    ("warnings_total", "warnings"),
    ("duplicate_wkus", "duplicate WKUs"),
    ("output_bytes", "output bytes"),
    ("input_bytes_compressed", "input bytes (compressed)"),
    ("input_bytes_decompressed", "input bytes (decompressed)"),
)


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

    def append(self, spooled: Spooled, sink: Sink) -> None:
        """Append a source spooled by :func:`spool_file` to ``sink`` and count
        its records, the ones whose WKU this run has already written, its
        warnings and its input sizes.  A failed write raises OutputError."""
        name, wkus, (warnings, compressed, decompressed) = spooled
        sink.append(name)
        new = set(wkus) - self._wkus
        self._wkus |= new
        self.duplicate_wkus += len(wkus) - len(new)
        self.records_written += len(wkus)
        self.output_bytes = sink.bytes_written
        self.warnings_total += warnings
        self.input_bytes_compressed += compressed
        self.input_bytes_decompressed += decompressed

    def size_reduction_ratio(self) -> Optional[float]:
        if self.input_bytes_decompressed:
            return self.output_bytes / self.input_bytes_decompressed
        return None

    def to_dict(self) -> dict:
        counts = {key: getattr(self, key) for key, _ in _COUNTS}
        counts["weeks_failed"] = [
            {"year": w.year, "week": w.week, "reason": reason} for w, reason in self.weeks_failed
        ]
        return {**counts, "size_reduction_ratio": self.size_reduction_ratio()}

    def format_table(self) -> str:
        counts = {**self.to_dict(), "weeks_failed": len(self.weeks_failed)}
        rows = [(label, str(counts[key])) for key, label in _COUNTS]
        ratio = self.size_reduction_ratio()
        if ratio is not None:
            rows.append(("output/input size ratio", "%.3f" % ratio))
        width = max(len(label) for label, _ in rows)
        return "\n".join("%-*s  %s" % (width, label, value) for label, value in rows)


class OutputError(OSError):
    """Appending a batch to a sink's output failed part-way."""


class Sink:
    """Writes records to ``out`` with ``write(record)``, one line each, in
    the format of a subclass, which sets ``header`` and defines ``write``.
    Runs write each source to a spool file with :func:`spool_file`, maybe
    in a worker process, through a sink of the same class with no header,
    and copy it to ``out`` with :meth:`append`; ``bytes_written`` counts
    the UTF-8 bytes of the header and of every spool appended, not those
    of a direct ``write``."""

    header = ""  # the format's ASCII header, written first unless ``write_header`` is off

    def __init__(self, out: TextIO, write_header: bool = True) -> None:
        self.out = out
        header = self.header if write_header else ""
        out.write(header)
        self.bytes_written = len(header)

    def append(self, name: str) -> None:
        """Copy the spool file ``name`` to ``out`` and delete it."""
        with open(name, encoding="utf-8", newline="") as spool:
            os.unlink(name)
            size = os.fstat(spool.fileno()).st_size
            try:
                shutil.copyfileobj(spool, self.out)
            except OSError as exc:
                raise OutputError("writing the output failed: %s" % exc) from exc
        self.bytes_written += size


def _csv_cell(cell: str) -> str:
    """``cell`` as a CSV field: quoted, its ``"`` doubled, if it holds ``"``,
    ``,``, ``\\n`` or ``\\r``.  Cells hold no ``\\r`` (``sanitize_field``
    removes it), but one is quoted, as Python 3.12's ``csv.writer`` does."""
    if '"' in cell:
        return '"' + cell.replace('"', '""') + '"'
    if "," in cell or "\n" in cell or "\r" in cell:
        return '"' + cell + '"'
    return cell


class CsvSink(Sink):
    """The canonical CSV surface: a header line, then each record's nine
    cells (:func:`model.record_to_row`) quoted by :func:`_csv_cell`, joined
    with ``,`` and ended by ``\\n``, in one write: the bytes that
    ``csv.writer(out, lineterminator="\\n")`` writes, on any Python version."""

    header = ",".join(CSV_COLUMNS) + "\n"

    def write(self, record: PatentRecord) -> None:
        self.out.write(",".join(map(_csv_cell, record_to_row(record))) + "\n")


class JsonlSink(Sink):
    """One JSON object per line; list fields stay arrays."""

    def write(self, record: PatentRecord) -> None:
        self.out.write(json.dumps(record_to_dict(record), ensure_ascii=False) + "\n")


SINKS = {"csv": CsvSink, "jsonl": JsonlSink}  # each output format's sink, by name


class _Head(io.FileIO):
    """The file at ``path`` up to offset ``end``."""

    read, readall = io.RawIOBase.read, io.RawIOBase.readall  # through readinto

    def __init__(self, path: Union[str, Path], end: int) -> None:
        super().__init__(path)
        self.end = end

    def readinto(self, buffer) -> int:
        return super().readinto(memoryview(buffer)[: max(self.end - self.tell(), 0)])


def _read_rows(
    source: Union[str, Path, TextIO], decode: Callable[[list[str]], T], jsonl: bool = False,
    start: int = 0, end: Optional[int] = None,
) -> Iterator[T]:
    """``decode`` of each row of pipeline output, read from a path or an
    open file: a CSV row, once the header is checked, or the row that
    :func:`model.row_from_dict` makes of a non-blank JSONL line after
    checking it.  A row that fails raises naming its line.  ``start`` and
    ``end``, offsets just past line ends in the file at ``source``, read
    only the lines between them: the CSV header is checked only from 0,
    and a CSV read that stops at ``end`` fails if it ends in a quoted cell."""
    if hasattr(source, "read"):
        opened = nullcontext(source)
    elif end is None:
        opened = open(source, encoding="utf-8", newline="")
    else:
        opened = io.TextIOWrapper(io.BufferedReader(_Head(source, end)), "utf-8", newline="")
    with opened as handle:
        if start:
            handle.seek(start)
        try:
            if jsonl:
                rows = ((number, line) for number, line in enumerate(handle, 1) if line.strip())
            else:
                reader = csv.reader(handle, strict=end is not None)
                header = None if start else next(reader, None)
                if header is not None and tuple(header) != CSV_COLUMNS:
                    raise ValueError("unexpected CSV header: %r" % (header,))
                rows = ((reader.line_num, row) for row in reader)
            for number, row in rows:
                try:
                    item = decode(row_from_dict(json.loads(row)) if jsonl else row)
                except (ValueError, RecursionError) as exc:
                    raise ValueError("line %d: %s" % (number, exc)) from exc
                yield item
        except csv.Error as exc:
            # a line the CSV reader cannot take fails on the reader's count
            raise ValueError("line %d: %s" % (reader.line_num, exc)) from exc


def read_csv(source: Union[str, Path, TextIO]) -> Iterator[PatentRecord]:
    """Re-read pipeline CSV output, claims newlines included."""
    return _read_rows(source, record_from_row)


def read_jsonl(source: Union[str, Path, TextIO]) -> Iterator[PatentRecord]:
    """Re-read pipeline JSONL output; each line must be a record object."""
    return _read_rows(source, record_from_row, jsonl=True)


def _cpus() -> Optional[int]:
    """How many CPUs this process may run on; None without ``os.sched_getaffinity``."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None


def _cpu_idle() -> bool:
    """Whether a forked child would have a CPU of its own: two or more
    :func:`_cpus` (not None: the forks are measured on Linux alone), no
    other thread in this process, whose locks a fork would copy, and not a
    pool worker, whose CPU the pool counts already (``_worker_sink`` set)."""
    return (_cpus() or 0) > 1 and threading.active_count() == 1 and _worker_sink is None


def _seam(path: Union[str, Path], jsonl: bool) -> Optional[int]:
    """The offset just past the first ``\\n`` at or after the middle of
    the regular file at ``path`` with, in CSV, an even count of ``"``
    before it; None if it has no such line end before its last byte."""
    with open(path, "rb", buffering=0) as handle:
        size, quotes, at = os.fstat(handle.fileno()).st_size, 0, 0
        for block in iter(lambda: handle.read(1 << 16), b""):
            start = min(max(size // 2 - at, 0), len(block))
            quotes += block.count(b'"', 0, start)
            while (end := block.find(b"\n", start)) >= 0:
                quotes += block.count(b'"', start, end)
                if jsonl or quotes % 2 == 0:
                    return at + end + 1 if at + end + 1 < size else None
                start = end + 1
            quotes += block.count(b'"', start)
            at += len(block)
    return None


@dataclass
class _Halves:
    """The grants of the regular file at ``path``, read in one process when
    iterated.  ``tally(count)``, with a CPU idle and a :func:`_seam`, counts
    the rows before the seam here and the rest in a forked child, which
    sends its counts back in :func:`analytics._pieces` to be merged.  If either
    half fails, or the seam is not the end of a CSV record, the child is
    killed and the whole file is counted here, as in one process."""

    path: Union[str, Path]
    jsonl: bool

    def __iter__(self) -> Iterator[Grant]:
        return _read_rows(self.path, grant_from_row, self.jsonl)

    def tally(self, count: Callable[[Iterable[Grant]], tuple]) -> tuple:
        seam = _seam(self.path, self.jsonl) if _cpu_idle() else None
        rows = partial(_read_rows, self.path, grant_from_row, self.jsonl)

        def send(out: IO[bytes]) -> None:
            for piece in analytics._pieces(count(rows(seam))):
                data = marshal.dumps(piece)
                out.write(len(data).to_bytes(4, "little") + data)

        # a bad row, a failed child or fork ends the with: count it all here
        if seam is not None:
            with suppress(ValueError, fetchmod.IntegrityError, OSError), io.BufferedReader(
                fetchmod.ForkedPipe(send, str(self.path))
            ) as child:
                tally = count(rows(end=seam))
                for size in iter(lambda: int.from_bytes(child.read(4), "little"), 0):
                    analytics._merge(tally, marshal.loads(child.read(size)))
                return tally
        return count(self)


def read_grants(source: Union[str, Path, TextIO], jsonl: bool = False) -> Iterable[Grant]:
    """The issue date, application date and IPC subclass keys of each row
    of pipeline CSV or JSONL output; the other six cells are not decoded.
    The analyses may tally a regular file in two processes (:class:`_Halves`)."""
    if not hasattr(source, "read") and os.path.isfile(source):
        return _Halves(source, jsonl)
    return _read_rows(source, grant_from_row, jsonl)


@dataclass
class PipelineConfig:
    cache_dir: str = "patentbulk-cache"
    base_url: str = fetchmod.DEFAULT_BASE_URL
    transport: Optional[fetchmod.Transport] = None
    jobs: int = 1
    encoding: str = aps.DEFAULT_ENCODING
    retries: int = 3
    progress: Optional[Callable[[str], None]] = None

    def __post_init__(self) -> None:
        aps.text_encoding(self.encoding)  # a bad name fails here, before any fetch or open


def _emit_progress(config: PipelineConfig, message: str) -> None:
    if config.progress is not None:
        config.progress(message)


def parse_archive_stream(
    stream: IO[bytes], format: SourceFormat, encoding: str = aps.DEFAULT_ENCODING
) -> tuple[Iterator[PatentRecord], ParseReport]:
    """Era dispatch: records iterator plus the live parser report."""
    if format is SourceFormat.APS:
        parser = aps.ApsParser()
        return _parse_text(parser, stream, encoding), parser.report
    from . import xmlgrants
    parser = xmlgrants.XmlWeeklyParser(format)
    return parser.parse(stream), parser.report


def _parse_text(parser: aps.ApsParser, stream: IO[bytes], encoding: str) -> Iterator[PatentRecord]:
    """``parser`` over ``stream`` decoded; the decoder is detached when the
    parse ends, leaving ``stream`` to be closed by the caller that opened it."""
    text = io.TextIOWrapper(stream, encoding=encoding)
    try:
        yield from parser.parse(text)
    finally:
        if not stream.closed:
            text.detach()


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


def _ordered_weeks(
    weeks: list[T], config: PipelineConfig, step: Callable[..., object]
) -> Iterator[tuple[T, Callable[[], object]]]:
    """Run ``step(week, config)`` for each of ``weeks``, weeks or local
    paths; yield ``(week, result)`` in the order given, ``result()``
    returning the step's result or raising what it raised.

    At most ``max(1, config.jobs)`` weeks are submitted and not yet
    consumed: the next week is submitted only after the caller has taken
    the oldest, so fetched weeks cannot pile up behind a slow one.  With
    one job there is no pool: each step runs on the calling thread when
    its ``result()`` is called, where an interrupt stops it at once.
    """
    jobs, todo, pool = max(1, config.jobs), iter(weeks), nullcontext()
    if jobs > 1:
        from concurrent.futures import ThreadPoolExecutor
        pool = ThreadPoolExecutor(max_workers=jobs)
    with pool:
        start = partial if jobs == 1 else lambda *call: pool.submit(*call).result
        pending = deque((week, start(step, week, config)) for week in islice(todo, jobs))
        while pending:
            yield pending.popleft()
            pending.extend((week, start(step, week, config)) for week in islice(todo, 1))


def _sorted_weeks(weeks: Iterable[WeekSpec]) -> list[WeekSpec]:
    week_list = sorted(set(weeks))
    if not week_list:
        raise ValueError("weeks must be non-empty")
    return week_list


def spool_file(
    path: Union[str, Path], format: SourceFormat, encoding: str, sink: Sink,
    spool_dir: Optional[str] = None,
) -> Spooled:
    """Open, size and parse one weekly file, a ``.zip`` archive (the suffix
    in any case), read by :func:`_inflated`, or a plain one, writing each
    record as it is parsed, in ``sink``'s format but not to its output, to
    a new temp file in ``spool_dir`` (default ``TMPDIR``).  Returns the
    :data:`Spooled` result for :meth:`RunSummary.append`.  A file that
    fails to open or parse removes the temp file and raises."""
    import tempfile
    path = Path(path)
    zipped = path.suffix.lower() == ".zip"
    handle, name = tempfile.mkstemp(dir=spool_dir)
    try:
        with open(handle, "w", encoding="utf-8", newline="") as spool, (
            _inflated(path) if zipped else open(path, "rb")
        ) as stream:
            compressed = path.stat().st_size
            decompressed = fetchmod.archive_sizes(path)[1] if zipped else compressed
            records, report = parse_archive_stream(stream, format, encoding)
            writer = type(sink)(spool, write_header=False)
            wkus = []
            for record in records:
                writer.write(record)
                wkus.append(record.wku)
    except BaseException:
        os.unlink(name)
        raise
    return name, wkus, (report.warnings_total, compressed, decompressed)


_worker_sink: Optional[Sink] = None  # the run's sink, set only in workers by the pool's initializer


def _inflated(path: Path) -> IO[bytes]:
    """``fetch.open_archive(path)``; while :func:`_cpu_idle`, a pipe that a
    forked child fills from it, 64 KiB at a time, ahead of the parse."""
    if _cpu_idle():
        with fetchmod.open_archive(path) as stream:  # the child has the archive now
            piped = fetchmod.ForkedPipe(partial(shutil.copyfileobj, stream), str(path))
        return io.BufferedReader(piped, buffer_size=1 << 16)
    return fetchmod.open_archive(path)


def _set_worker_sink(sink: Sink) -> None:
    global _worker_sink
    _worker_sink = sink


def _spool_in_worker(path: str, format: SourceFormat, encoding: str, spool_dir: str) -> Spooled:
    return spool_file(path, format, encoding, _worker_sink, spool_dir)


@contextmanager
def _spooler(config: PipelineConfig, files: int, sink: Sink) -> Iterator[Callable[..., Spooled]]:
    """Yield ``spool(path, format)``, the step every run takes per weekly
    file: :func:`spool_file` with one job on the calling thread, with more
    in a worker process, which gets ``sink`` through the fork.  Once a
    worker has died and broken the pool, the ``files`` not yet handed to
    it are spooled on their own threads; forking new workers then could
    copy a lock held by another thread.  A broken pool that ends the run
    raises ChildProcessError, an OSError.  The pool has at most one worker
    per CPU (:func:`_cpus`, or ``os.cpu_count()`` where that is None)."""
    if config.jobs <= 1:
        yield lambda path, format: spool_file(path, format, config.encoding, sink)
        return
    import multiprocessing
    import tempfile
    from concurrent.futures import process

    workers = min(config.jobs, files, _cpus() or os.cpu_count() or 1)
    fork = multiprocessing.get_context("fork")
    try:
        with tempfile.TemporaryDirectory() as spool_dir, process.ProcessPoolExecutor(
            workers, fork, initializer=_set_worker_sink, initargs=(sink,)
        ) as pool:
            pool.submit(int).result()  # forks every worker now, before the run starts a thread

            def spool(path: Union[str, Path], format: SourceFormat) -> Spooled:
                try:
                    future = pool.submit(_spool_in_worker, path, format, config.encoding, spool_dir)
                except process.BrokenProcessPool:
                    return spool_file(path, format, config.encoding, sink, spool_dir)
                return future.result()

            yield spool
    except process.BrokenProcessPool as exc:  # a RuntimeError; cli.run reports OSErrors
        raise ChildProcessError(str(exc)) from exc


def _run(
    weeks: list[WeekSpec], config: PipelineConfig, step: Callable[..., T], take: Callable[..., None]
) -> RunSummary:
    """Run ``step`` over ``weeks`` with :func:`_ordered_weeks` and pass each
    result, in week order, to ``take(summary, result)``.  A week whose step
    raises fails alone; whatever ``take`` raises ends the run, since part
    of the week may have reached the output.  If every week fails,
    RunError is raised."""
    summary = RunSummary(weeks_requested=len(weeks))
    with closing(_ordered_weeks(weeks, config, step)) as results:
        for week, result in results:
            try:
                outcome = result()
            except Exception as error:  # its reason: its text, or its class name (MemoryError())
                summary.weeks_failed.append((week, str(error) or type(error).__name__))
            else:
                take(summary, outcome)
                summary.weeks_fetched += 1
    if summary.weeks_fetched == 0:
        raise RunError(summary.weeks_failed)
    return summary


def get_bulk_patent_data(
    weeks: Iterable[WeekSpec],
    sink: Sink,
    config: Optional[PipelineConfig] = None,
) -> RunSummary:
    """Collect a range of weeks into one sink.

    Weeks are fetched (cache-first) ``config.jobs`` at a time and reach
    the sink in ascending (year, week) order.  Each is parsed into a temp
    file in ``TMPDIR`` by the spool step :func:`convert_files` shares, and
    appended to the sink on the calling thread.  With ``jobs=N`` the parse
    runs in up to N worker processes, so the sink's ``write`` runs there
    and only its ``append`` here; they are forked when the run starts, so
    a caller whose own threads may then hold locks should use one job.  A
    week whose fetch or parse fails adds no rows and is recorded in the
    summary; if every week fails a RunError is raised.  Any error while a
    spool is appended ends the run at once, a failed write as OutputError.
    """
    week_list = _sorted_weeks(weeks)
    config = config or PipelineConfig()

    def step(week: WeekSpec, config: PipelineConfig) -> Spooled:
        plan, entry = _fetch_week(week, config)
        _emit_progress(config, "parsing %s" % week.label())
        return spool(entry.cache_path, plan.format)

    with _spooler(config, len(week_list), sink) as spool:
        return _run(week_list, config, step, lambda summary, spooled: summary.append(spooled, sink))


def convert_files(
    paths: Iterable[Union[str, Path]],
    format: SourceFormat,
    sink: Sink,
    config: Optional[PipelineConfig] = None,
) -> RunSummary:
    """Parse local weekly files of one era, ``.zip`` archives or plain
    ones, into ``sink`` in the order given, with the spool step and jobs of
    :func:`get_bulk_patent_data`.  The first file that fails to open or
    parse raises and ends the run, the error's text naming the file once;
    the summary counts no weeks."""
    path_list = list(paths)
    if not path_list:
        raise ValueError("paths must be non-empty")
    config = config or PipelineConfig()
    summary = RunSummary()
    with _spooler(config, len(path_list), sink) as spool, closing(
        _ordered_weeks(path_list, config, lambda path, _: spool(path, format))
    ) as results:
        for path, result in results:
            try:
                spooled = result()
            except UnicodeDecodeError as error:  # its text is not made from its args
                raise ValueError("%s: %s" % (path, error)) from error
            except Exception as error:
                # the text of an IntegrityError, or of an OSError with a
                # filename, names the file already
                if not isinstance(error, fetchmod.IntegrityError) and (
                    getattr(error, "filename", None) is None
                ):
                    error.args = ("%s: %s" % (path, error),)
                raise
            summary.append(spooled, sink)
    return summary


def fetch_weeks(
    weeks: Iterable[WeekSpec], config: Optional[PipelineConfig] = None
) -> RunSummary:
    """Fetch a range of weeks into the cache without parsing them; jobs,
    order and failure policy as in :func:`get_bulk_patent_data`."""
    return _run(_sorted_weeks(weeks), config or PipelineConfig(), _fetch_week, lambda *_: None)
