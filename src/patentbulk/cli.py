"""Command-line surface: fetch, convert, get, and stats subcommands.

Exit statuses: 0 full success, 2 partial week failures (output and
summary still written), 1 fatal errors and usage mistakes.  Progress and
summaries go to standard error so standard output stays pipe-friendly.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import analytics, fetch as fetchmod, pipeline
from .model import SourceFormat, WeekSpec, tuesdays_in_year

ENV_BASE_URL = "PATENTBULK_BASE_URL"
ENV_CACHE_DIR = "PATENTBULK_CACHE_DIR"

EXIT_OK = 0
EXIT_FATAL = 1
EXIT_PARTIAL = 2


class _ArgumentParser(argparse.ArgumentParser):
    # usage errors exit 1, not argparse's default 2 (2 means partial failure)
    def error(self, message: str) -> None:
        self.print_usage(sys.stderr)
        self.exit(EXIT_FATAL, "%s: error: %s\n" % (self.prog, message))


def parse_range(text: str, lo: int, hi: int, what: str) -> list[int]:
    """Parse ``A-B[,C...]`` into a sorted list of ints, bounds inclusive."""
    values: set[int] = set()
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "-" in part:
            start_text, _, end_text = part.partition("-")
            start, end = int(start_text), int(end_text)
        else:
            start = end = int(part)
        if start > end:
            raise ValueError("%s range %r is reversed" % (what, part))
        for v in range(start, end + 1):
            if not lo <= v <= hi:
                raise ValueError("%s %d out of range %d..%d" % (what, v, lo, hi))
            values.add(v)
    if not values:
        raise ValueError("empty %s selection: %r" % (what, text))
    return sorted(values)


def _resolve_weeks(args: argparse.Namespace) -> list[WeekSpec]:
    years = parse_range(args.years, 1976, 9999, "year")
    if args.weeks is None:
        # every grant week of each selected year (52 or 53 Tuesdays)
        return [
            WeekSpec(y, w) for y in years for w in range(1, tuesdays_in_year(y) + 1)
        ]
    weeks = parse_range(args.weeks, 1, 53, "week")
    return [WeekSpec(y, w) for y in years for w in weeks]


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache-dir",
        default=os.environ.get(ENV_CACHE_DIR, "patentbulk-cache"),
        help="download cache directory (env %s)" % ENV_CACHE_DIR,
    )
    parser.add_argument(
        "--base-url",
        default=os.environ.get(ENV_BASE_URL, fetchmod.DEFAULT_BASE_URL),
        help="bulk data base URL (env %s)" % ENV_BASE_URL,
    )
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="weeks fetched and parsed at once; at most N held in memory")
    parser.add_argument("--retries", type=int, default=3, help="download attempts per week")
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")


def _add_week_selection(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--years", required=True, help="year range, e.g. 1976-1980 or 1976,1978")
    parser.add_argument(
        "--weeks", default=None, help="week range, e.g. 1-8 (default: every grant week)"
    )


def _add_output(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--output", default="-", help="output path ('-' for stdout)")
    parser.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    parser.add_argument(
        "--append", action="store_true", help="append to output, suppressing the header"
    )
    parser.add_argument(
        "--encoding", default="latin-1", help="text encoding for fixed-tag era files"
    )
    parser.add_argument("--summary-json", metavar="PATH", help="also write the run summary as JSON")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="patentbulk",
        description="Fetch USPTO weekly bulk patent grant files and normalize "
        "them into tidy CSV/JSONL.",
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND", parser_class=_ArgumentParser)

    p_fetch = sub.add_parser("fetch", help="download weekly archives into the cache")
    _add_week_selection(p_fetch)
    _add_common(p_fetch)

    p_convert = sub.add_parser("convert", help="convert cached weeks or local files to CSV/JSONL")
    p_convert.add_argument("--input", action="append", metavar="FILE",
                           help="local weekly file (.txt/.xml, or .zip archive); repeatable")
    p_convert.add_argument("--format-era", choices=("aps", "xml2", "xml4"),
                           help="era of --input files")
    p_convert.add_argument("--years", help="year range of cached weeks to convert")
    p_convert.add_argument("--weeks", default=None, help="week range of cached weeks")
    _add_output(p_convert)
    _add_common(p_convert)

    p_get = sub.add_parser("get", help="fetch and convert in one run")
    _add_week_selection(p_get)
    _add_output(p_get)
    _add_common(p_get)

    p_stats = sub.add_parser("stats", help="summary analyses over converted output")
    p_stats.add_argument("analysis", choices=("weekly", "classes", "lag-by-class", "lag-by-year"))
    p_stats.add_argument("--input", required=True, help="pipeline CSV/JSONL output to analyze")
    p_stats.add_argument("--input-format", choices=("csv", "jsonl"),
                         help="override input format sniffing by extension")
    p_stats.add_argument("--top", type=int, default=10, metavar="K",
                         help="number of subclasses for class tables (default 10)")
    p_stats.add_argument("--output", default="-", help="table path ('-' for stdout)")
    p_stats.add_argument("--quiet", action="store_true", help="suppress notes on stderr")

    return parser


def _progress(quiet: bool):
    if quiet:
        return None
    return lambda message: print(message, file=sys.stderr)


def _make_sink(out, format: str, append: bool) -> pipeline.Sink:
    if format == "jsonl":
        return pipeline.JsonlSink(out)
    return pipeline.CsvSink(out, write_header=not append)


def _open_output(args: argparse.Namespace):
    if args.output == "-":
        return sys.stdout, False
    mode = "a" if args.append else "w"
    return open(args.output, mode, encoding="utf-8", newline=""), True


def _finish_run(args: argparse.Namespace, summary: pipeline.RunSummary) -> int:
    if args.summary_json:
        Path(args.summary_json).write_text(json.dumps(summary.to_dict(), indent=2) + "\n")
    if not args.quiet:
        print(summary.format_table(), file=sys.stderr)
    return EXIT_PARTIAL if summary.weeks_failed else EXIT_OK


def _pipeline_config(
    args: argparse.Namespace, transport=None, **fields
) -> pipeline.PipelineConfig:
    return pipeline.PipelineConfig(
        cache_dir=args.cache_dir,
        base_url=args.base_url,
        transport=transport,
        jobs=args.jobs,
        retries=args.retries,
        progress=_progress(args.quiet),
        **fields,
    )


def _cmd_fetch(args: argparse.Namespace) -> int:
    summary = pipeline.fetch_weeks(_resolve_weeks(args), _pipeline_config(args))
    if args.quiet:  # the progress lines name failed weeks otherwise
        for week, reason in summary.weeks_failed:
            print("failed %s: %s" % (week.label(), reason), file=sys.stderr)
    return EXIT_PARTIAL if summary.weeks_failed else EXIT_OK


class _NoNetworkTransport:
    """Used by convert: cached weeks only, any download attempt is a miss."""

    def get(self, url: str) -> fetchmod.TransportResponse:
        raise fetchmod.TransportError("not cached and network disabled for convert")


def _run_weeks(args: argparse.Namespace, transport) -> int:
    weeks = _resolve_weeks(args)
    config = _pipeline_config(args, transport, encoding=args.encoding)
    out, owned = _open_output(args)
    try:
        sink = _make_sink(out, args.format, args.append)
        summary = pipeline.get_bulk_patent_data(weeks, sink, config)
    finally:
        if owned:
            out.close()
    return _finish_run(args, summary)


def _cmd_get(args: argparse.Namespace) -> int:
    return _run_weeks(args, None)


def _convert_local(args: argparse.Namespace) -> int:
    if not args.format_era:
        raise ValueError("--format-era is required with --input")
    format = SourceFormat(args.format_era)
    out, owned = _open_output(args)
    summary = pipeline.RunSummary()
    try:
        sink = _make_sink(out, args.format, args.append)
        for path in args.input:
            stream = _open_input_stream(path)
            try:
                report = pipeline.convert_stream(stream, format, sink, encoding=args.encoding)
            finally:
                stream.close()
            summary.records_written += report.records_emitted
            summary.warnings_total += report.warnings_total
        summary.output_bytes = sink.bytes_written
    finally:
        if owned:
            out.close()
    return _finish_run(args, summary)


def _open_input_stream(path: str):
    if path.endswith(".zip"):
        return fetchmod.open_archive(path)
    return open(path, "rb")


def _cmd_convert(args: argparse.Namespace) -> int:
    if args.input:
        return _convert_local(args)
    if not args.years:
        raise ValueError("convert needs --input FILE or --years/--weeks of cached data")
    return _run_weeks(args, _NoNetworkTransport())


def _cmd_stats(args: argparse.Namespace) -> int:
    format = args.input_format
    if format is None:
        format = "jsonl" if args.input.endswith((".jsonl", ".ndjson")) else "csv"
    reader = pipeline.read_jsonl if format == "jsonl" else pipeline.read_csv
    records = reader(args.input)

    # the table is computed before --output is opened, so an unreadable
    # input leaves no output file behind
    notes: list[str] = []
    if args.analysis == "weekly":
        write_table = analytics.weekly_table
        stats = analytics.weekly_counts(records)
    elif args.analysis == "classes":
        write_table = analytics.classes_table
        stats = analytics.top_ipc_subclasses(records, args.top)
    else:
        write_table = analytics.lag_table
        notes.append("quartiles: %s" % analytics.QUARTILE_RULE)
        if args.analysis == "lag-by-class":
            stats = analytics.lag_stats_by_class(records, args.top)
        else:
            stats = analytics.lag_stats_by_year(records)
            delta = analytics.median_lag_delta(stats)
            if delta is not None:
                notes.append(
                    "median lag delta %d vs %d: %+g days" % (delta[1], delta[0], delta[2])
                )

    out = sys.stdout if args.output == "-" else open(args.output, "w", encoding="utf-8", newline="")
    try:
        write_table(stats, out)
    finally:
        if out is not sys.stdout:
            out.close()
    if not args.quiet:
        for note in notes:
            print(note, file=sys.stderr)
    return EXIT_OK


_COMMANDS = {
    "fetch": _cmd_fetch,
    "convert": _cmd_convert,
    "get": _cmd_get,
    "stats": _cmd_stats,
}


def run(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not args.command:
        parser.print_help(sys.stderr)
        return EXIT_FATAL
    try:
        return _COMMANDS[args.command](args)
    except pipeline.RunError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_FATAL
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_FATAL


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
