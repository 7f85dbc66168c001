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
import threading
from collections import deque
from contextlib import closing, nullcontext, suppress
from functools import partial
from itertools import islice
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Optional, TextIO, TypeVar, Union

from . import aps, fetch as fetchmod
from .model import (
    CSV_COLUMNS,
    Grant,
    ParseReport,
    PatentRecord,
    READ_SIZE,
    SourceFormat,
    WeekSpec,
    grant_from_row,
    record_from_row,
    record_to_dict,
    record_to_row,
    row_from_dict,
)

# tempfile, shutil, pickle, xmlgrants and analytics are imported where they are
# used: `stats` uses no tempfile, shutil or xmlgrants, and pickle only in a split
# (:class:`_Halves`), an APS `convert` no xmlgrants, a `convert` of one job no
# pickle, and no command but `stats` analytics

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


class RunSummary:
    """Outcome of one collection run, printable and JSON-serializable."""

    def __init__(
        self, weeks_requested: int = 0, weeks_fetched: int = 0,
        weeks_failed: Optional[list[tuple[WeekSpec, str]]] = None, records_written: int = 0,
        warnings_total: int = 0, duplicate_wkus: int = 0, output_bytes: int = 0,
        input_bytes_compressed: int = 0, input_bytes_decompressed: int = 0,
    ) -> None:
        self.weeks_requested, self.weeks_fetched = weeks_requested, weeks_fetched
        self.weeks_failed = [] if weeks_failed is None else weeks_failed
        self.records_written, self.warnings_total = records_written, warnings_total
        self.duplicate_wkus, self.output_bytes = duplicate_wkus, output_bytes
        self.input_bytes_compressed = input_bytes_compressed
        self.input_bytes_decompressed = input_bytes_decompressed
        self._wkus: set[str] = set()

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


def _write_all(out: IO[bytes], data: bytes) -> None:
    """Write ``data`` to the binary file ``out``, whose raw ``write`` may
    take only part of it."""
    view, done = memoryview(data), 0
    while done < len(data):
        done += out.write(view[done:])


class Sink:
    """Writes records to ``out`` with ``write(record)``, one line each, in
    the format of a subclass, which sets ``header`` and defines ``write``
    over :meth:`put`.  ``out`` is a text stream, or a binary file
    (``io.BufferedIOBase`` or ``io.RawIOBase``) that takes the text as
    UTF-8 with ``\n`` line ends and is never closed here.  Runs write
    each source to a spool file with :func:`spool_file`, maybe in a forked
    child, through a sink of the same class with no header, and copy it
    to ``out`` with :meth:`append`, as bytes to a binary file;
    ``bytes_written`` counts the UTF-8 bytes of the header and of every
    spool appended, not those of a direct ``write``.  With
    ``hold_header`` the header waits for the first :meth:`append` or for
    :meth:`write_header`, so a run that fails before either writes
    nothing to ``out``."""

    header = ""  # the format's ASCII header, written first unless ``write_header`` is off

    def __init__(
        self, out: Union[TextIO, IO[bytes]], write_header: bool = True, hold_header: bool = False
    ) -> None:
        self.out = out
        self.binary = isinstance(out, (io.BufferedIOBase, io.RawIOBase))
        # put(text) is every write of text to out: as UTF-8 bytes to a binary file
        self.put = out.write if not self.binary else lambda text: _write_all(out, text.encode())
        self.held = self.header if write_header else ""
        self.bytes_written = len(self.held)
        if not hold_header:
            self.write_header()

    def write_header(self) -> None:
        """Write the header to ``out``, once."""
        if self.held:
            self.put(self.held)
            self.held = ""

    def append(self, name: str) -> None:
        """Copy the spool file ``name`` to ``out``, after the header if it
        is held, and delete it."""
        self.write_header()
        if self.binary:  # the spool's bytes, with no decode and re-encode
            spool, write = open(name, "rb", buffering=0), partial(_write_all, self.out)
        else:
            spool, write = open(name, encoding="utf-8", newline=""), self.out.write
        with spool:
            os.unlink(name)
            size = os.fstat(spool.fileno()).st_size
            try:
                while block := spool.read(READ_SIZE):
                    write(block)
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
        self.put(",".join(map(_csv_cell, record_to_row(record))) + "\n")


class JsonlSink(Sink):
    """One JSON object per line; list fields stay arrays."""

    def write(self, record: PatentRecord) -> None:
        self.put(json.dumps(record_to_dict(record), ensure_ascii=False) + "\n")


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


_forked_child = False  # set in the child of each weekly file at ``jobs`` above 1


def _cpu_idle() -> bool:
    """Whether a forked child would have a CPU of its own: this process may
    run on two or more CPUs (``os.sched_getaffinity``: the forks are
    measured on Linux alone), runs no other thread, whose locks a fork
    would copy, and is no weekly file's child, whose CPU ``jobs`` counts."""
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else ()
    return len(cpus) > 1 and threading.active_count() == 1 and not _forked_child


def _seam(path: Union[str, Path], jsonl: bool) -> Optional[int]:
    """The offset just past the first ``\\n`` at or after the middle of
    the regular file at ``path`` with, in CSV, an even count of ``"``
    before it; None if it has no such line end before its last byte."""
    with open(path, "rb", buffering=0) as handle:
        size, quotes, at = os.fstat(handle.fileno()).st_size, 0, 0
        for block in iter(lambda: handle.read(READ_SIZE), b""):
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


class _Halves:
    """The grants of the regular file at ``path``, read in one process when
    iterated.  ``tally(count)``, with a CPU idle and a :func:`_seam`, counts
    the rows before the seam here and the rest in a forked child
    (:class:`_Forked`), whose tally is unpickled as it arrives and added to
    this one by :func:`analytics._merged`.  If either half fails, or the
    seam is not the end of a CSV record, the child is killed and the whole
    file is counted here, as in one process."""

    def __init__(self, path: Union[str, Path], jsonl: bool) -> None:
        self.path, self.jsonl = path, jsonl

    def __iter__(self) -> Iterator[Grant]:
        return _read_rows(self.path, grant_from_row, self.jsonl)

    def tally(self, count: Callable[[Iterable[Grant]], tuple]) -> tuple:
        from . import analytics

        seam = _seam(self.path, self.jsonl) if _cpu_idle() else None
        rows = partial(_read_rows, self.path, grant_from_row, self.jsonl)
        # a bad row or a failed child ends the with: count it all here
        if seam is not None:
            with suppress(ValueError, fetchmod.IntegrityError, OSError), closing(
                _Forked(lambda: count(rows(seam)), str(self.path))
            ) as tail:
                return analytics._merged(count(rows(end=seam)), tail())
        return count(self)


def read_grants(source: Union[str, Path, TextIO], jsonl: bool = False) -> Iterable[Grant]:
    """The issue date, application date and IPC subclass keys of each row
    of pipeline CSV or JSONL output; the other six cells are not decoded.
    The analyses may tally a regular file in two processes (:class:`_Halves`)."""
    if not hasattr(source, "read") and os.path.isfile(source):
        return _Halves(source, jsonl)
    return _read_rows(source, grant_from_row, jsonl)


class PipelineConfig:
    """How a run fetches and parses; the CLI reads its defaults here."""

    cache_dir, jobs, retries = "patentbulk-cache", 1, 3

    def __init__(
        self, cache_dir: str = cache_dir, base_url: str = fetchmod.DEFAULT_BASE_URL,
        transport: Optional[fetchmod.Transport] = None, jobs: int = jobs,
        encoding: str = aps.DEFAULT_ENCODING, retries: int = retries,
        progress: Optional[Callable[[str], None]] = None,
    ) -> None:
        aps.text_encoding(encoding)  # a bad name fails here, before any fetch or open
        self.cache_dir, self.base_url, self.transport = cache_dir, base_url, transport
        self.jobs, self.encoding, self.retries = jobs, encoding, retries
        self.progress = progress


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


class _Forked:
    """``call()`` run in a forked child (:class:`fetch.ForkedPipe`), which
    pickles back the call's result or its exception; calling this unpickles
    it as it arrives and returns the one or raises the other.  A child that
    dies first raises IntegrityError naming ``name``.  ``close`` kills and
    reaps a child whose result was not taken.  If the fork fails, calling
    this makes the call here."""

    def __init__(self, call: Callable[[], T], name: str) -> None:
        import pickle

        def send(out: IO[bytes]) -> None:
            global _forked_child
            _forked_child = True
            try:
                outcome = True, call()
            except Exception as error:
                outcome = False, error
            pickle.dump(outcome, out)

        self._call, self._load, self._child = call, pickle.load, None
        with suppress(OSError):  # no child: the call is made here
            self._child = fetchmod.ForkedPipe(send, name)

    def __call__(self) -> T:
        if self._child is None:
            return self._call()
        with io.BufferedReader(self._child) as child:
            done, outcome = self._load(child)
        if done:
            return outcome
        raise outcome

    def close(self) -> None:
        if self._child is not None:
            self._child.close()


def _ordered_weeks(
    weeks: list[T], config: PipelineConfig, step: Callable[..., object]
) -> Iterator[tuple[T, Callable[[], object]]]:
    """Run ``step(week, config)`` for each of ``weeks``, weeks or local
    paths; yield ``(week, result)`` in the order given, ``result()``
    returning the step's result or raising what it raised.

    With one job each step runs here when its ``result()`` is called,
    where an interrupt stops it at once.  With more, each runs in a forked
    child of its own (:class:`_Forked`), ``config.jobs`` at most at once:
    the next is forked only after the caller has taken the oldest, so
    finished weeks cannot pile up behind a slow one.  The children make
    their temp files in one directory, removed with the loop, which kills
    and reaps the children not yet taken when it closes; a step whose fork
    failed runs here and makes them where this process does.
    """
    jobs, todo = max(1, config.jobs), iter(weeks)
    if jobs == 1:
        yield from ((week, partial(step, week, config)) for week in todo)
        return
    import tempfile

    def forked_step(week: T) -> object:
        if _forked_child:  # not a step whose fork failed
            tempfile.tempdir = tempdir
        return step(week, config)

    def start(week: T) -> tuple[T, _Forked]:
        name = week.label() if isinstance(week, WeekSpec) else str(week)
        return week, _Forked(partial(forked_step, week), name)

    with tempfile.TemporaryDirectory() as tempdir:
        pending = deque(map(start, islice(todo, jobs)))
        try:
            while pending:
                yield pending[0]
                pending.popleft()
                pending.extend(map(start, islice(todo, 1)))
        finally:
            for _, child in pending:
                child.close()


def _sorted_weeks(weeks: Iterable[WeekSpec]) -> list[WeekSpec]:
    week_list = sorted(set(weeks))
    if not week_list:
        raise ValueError("weeks must be non-empty")
    return week_list


def spool_file(path: Union[str, Path], format: SourceFormat, encoding: str, sink: Sink) -> Spooled:
    """Open, size and parse one weekly file, a ``.zip`` archive (the suffix
    in any case), read by :func:`_inflated`, or a plain one, writing each
    record as it is parsed, in ``sink``'s format but not to its output, to
    a new temp file (``tempfile.mkstemp``).  Returns the
    :data:`Spooled` result for :meth:`RunSummary.append`.  A file that
    fails to open or parse removes the temp file and raises."""
    import tempfile
    path = Path(path)
    zipped = path.suffix.lower() == ".zip"
    handle, name = tempfile.mkstemp()
    try:
        with open(handle, "wb", buffering=READ_SIZE) as spool, (
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


def _inflated(path: Path) -> IO[bytes]:
    """``fetch.open_archive(path)``; while :func:`_cpu_idle`, a pipe that a
    forked child fills from it, 64 KiB at a time, ahead of the parse.  If
    the fork fails, the archive is inflated in this process."""
    import shutil
    stream = fetchmod.open_archive(path)
    if not _cpu_idle():
        return stream
    try:
        piped = fetchmod.ForkedPipe(partial(shutil.copyfileobj, stream), str(path))
    except OSError:  # no child: the parse reads the archive here
        return stream
    stream.close()  # the child has the archive now
    return io.BufferedReader(piped, buffer_size=READ_SIZE)


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
    file by the spool step :func:`convert_files` shares, and appended to
    the sink in the calling process.  With ``jobs=N`` each week's fetch,
    parse and spool run in a forked child of its own, N at a time, so
    ``config.transport``, ``config.progress`` and the sink's ``write``
    run there, and only its ``append`` and the summary here; a caller
    whose threads may hold locks at a fork should use one job.  A week
    whose fetch or parse fails, or whose child dies, adds no rows and is
    recorded in the summary; if every week fails a RunError is raised.
    Any error while a spool is appended ends the run at once, a failed
    write as OutputError.
    """
    week_list = _sorted_weeks(weeks)
    config = config or PipelineConfig()

    def step(week: WeekSpec, config: PipelineConfig) -> Spooled:
        plan, entry = _fetch_week(week, config)
        _emit_progress(config, "parsing %s" % week.label())
        return spool_file(entry.cache_path, plan.format, config.encoding, sink)

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
    parse, or whose child dies, raises and ends the run, the error's text
    naming the file once; the summary counts no weeks."""
    path_list = list(paths)
    if not path_list:
        raise ValueError("paths must be non-empty")
    config = config or PipelineConfig()
    summary = RunSummary()
    with closing(_ordered_weeks(
        path_list, config, lambda path, _: spool_file(path, format, config.encoding, sink)
    )) as results:
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
