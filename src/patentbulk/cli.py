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
from contextlib import nullcontext
from functools import partial
from typing import Callable, ContextManager, Optional, Sequence, TextIO

from . import analytics, aps, fetch as fetchmod, pipeline
from .model import FIRST_YEAR, SourceFormat, WeekSpec, tuesdays_in_year

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


def _int_at_least(lowest: int, kind: str, text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = lowest - 1
    if value < lowest:
        raise argparse.ArgumentTypeError("must be a %s integer, not %r" % (kind, text))
    return value


def _positive_int(text: str) -> int:
    """argparse type of ``--jobs`` and ``--top``: an integer of at least 1."""
    return _int_at_least(1, "positive", text)


def _non_negative_int(text: str) -> int:
    """argparse type of ``--retries``: an integer of at least 0."""
    return _int_at_least(0, "non-negative", text)


def parse_range(text: str, lo: int, hi: int, what: str) -> list[int]:
    """Parse ``A-B[,C...]`` into a sorted list of ints, bounds inclusive."""
    values: set[int] = set()
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        start_text, dash, end_text = part.partition("-")
        try:
            start, end = int(start_text), int(end_text if dash else start_text)
        except ValueError:
            raise ValueError("%s range %r is not N or N-M" % (what, part)) from None
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
    years = parse_range(args.years, FIRST_YEAR, 9999, "year")
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
        default=os.environ.get(ENV_CACHE_DIR, pipeline.PipelineConfig.cache_dir),
        help="download cache directory (env %s)" % ENV_CACHE_DIR,
    )
    parser.add_argument(
        "--base-url",
        default=os.environ.get(ENV_BASE_URL, fetchmod.DEFAULT_BASE_URL),
        help="bulk data base URL (env %s)" % ENV_BASE_URL,
    )
    parser.add_argument("--jobs", type=_positive_int, default=pipeline.PipelineConfig.jobs,
                        metavar="N", help="weekly files fetched and parsed at once")
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")


def _add_week_selection(parser: argparse.ArgumentParser) -> None:
    """The weeks to download, and how often to try each."""
    parser.add_argument("--years", required=True, help="year range, e.g. 1976-1980 or 1976,1978")
    parser.add_argument(
        "--weeks", default=None, help="week range, e.g. 1-8 (default: every grant week)"
    )
    parser.add_argument("--retries", type=_non_negative_int, metavar="N",
                        default=pipeline.PipelineConfig.retries,
                        help="download attempts per week (0: cache only)")


def _add_output(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--output", default="-", help="output path ('-' for stdout)")
    parser.add_argument("--format", choices=tuple(pipeline.SINKS), default="csv")
    parser.add_argument(
        "--append", action="store_true", help="append to output, suppressing the header"
    )
    parser.add_argument(
        "--encoding", type=partial(aps.text_encoding, error=argparse.ArgumentTypeError),
        default=aps.DEFAULT_ENCODING,
        help="text encoding for fixed-tag era files",
    )
    parser.add_argument("--summary-json", metavar="PATH",
                        help="also write the run summary as JSON ('-' for stdout)")


# each stats analysis by name: its tally of the grant rows at --top k, looked up
# in analytics at each call (where a tracer may wrap it), and its table writer
_ANALYSES = {
    "weekly": (lambda rows, k: analytics.weekly_counts(rows), analytics.weekly_table),
    "classes": (lambda rows, k: analytics.top_ipc_subclasses(rows, k), analytics.classes_table),
    "lag-by-class": (lambda rows, k: analytics.lag_stats_by_class(rows, k), analytics.lag_table),
    "lag-by-year": (lambda rows, k: analytics.lag_stats_by_year(rows), analytics.lag_table),
}


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
    p_convert.add_argument("--format-era", choices=[era.value for era in SourceFormat],
                           help="era of --input files")
    p_convert.add_argument("--years", help="year range of cached weeks to convert")
    p_convert.add_argument("--weeks", default=None, help="week range of cached weeks")
    _add_output(p_convert)
    _add_common(p_convert)
    # convert never downloads: a lookup allowed no attempts reads the cache alone
    p_convert.set_defaults(retries=0)

    p_get = sub.add_parser("get", help="fetch and convert in one run")
    _add_week_selection(p_get)
    _add_output(p_get)
    _add_common(p_get)

    p_stats = sub.add_parser("stats", help="summary analyses over converted output")
    p_stats.add_argument("analysis", choices=tuple(_ANALYSES))
    p_stats.add_argument("--input", required=True, help="pipeline CSV/JSONL output to analyze")
    p_stats.add_argument("--input-format", choices=tuple(pipeline.SINKS),
                         help="override input format sniffing by extension")
    p_stats.add_argument("--top", type=_positive_int, default=10, metavar="K",
                         help="number of subclasses for class tables (default 10)")
    p_stats.add_argument("--output", default="-", help="table path ('-' for stdout)")
    p_stats.add_argument("--quiet", action="store_true", help="suppress notes on stderr")

    return parser


def _progress(quiet: bool):
    if quiet:
        return None
    return lambda message: print(message, file=sys.stderr)


def _open_output(path: str, append: bool = False) -> ContextManager[TextIO]:
    """Standard output, left open on exit, or ``path`` opened for writing.

    A new or regular file is published (:func:`fetch.published`), so a
    failed command leaves no partial file and keeps an older one at
    ``path``.  Appends and special files (``/dev/null``, symlinks, pipes)
    are written in place.
    """
    if path == "-":
        return nullcontext(sys.stdout)
    in_place = append or os.path.islink(path) or os.path.exists(path) and not os.path.isfile(path)
    opener = open if in_place else fetchmod.published
    return opener(path, "a" if append else "w", encoding="utf-8", newline="")


def _list_failures(summary: pipeline.RunSummary) -> int:
    """Name each failed week once on stderr, ``--quiet`` or not; returns
    the exit status."""
    for week, reason in summary.weeks_failed:
        print("failed %s: %s" % (week.label(), reason), file=sys.stderr)
    return EXIT_PARTIAL if summary.weeks_failed else EXIT_OK


def _pipeline_config(args: argparse.Namespace, **fields) -> pipeline.PipelineConfig:
    return pipeline.PipelineConfig(
        cache_dir=args.cache_dir,
        base_url=args.base_url,
        jobs=args.jobs,
        retries=args.retries,
        progress=_progress(args.quiet),
        **fields,
    )


def _cmd_fetch(args: argparse.Namespace) -> int:
    return _list_failures(pipeline.fetch_weeks(_resolve_weeks(args), _pipeline_config(args)))


def _convert(args: argparse.Namespace, run: Callable[..., pipeline.RunSummary]) -> int:
    """Run ``run(sink, config)`` into the output, then report its summary."""
    config = _pipeline_config(args, encoding=args.encoding)
    with _open_output(args.output, args.append) as out:
        sink = pipeline.SINKS[args.format](out, write_header=not args.append, hold_header=True)
        summary = run(sink, config)
        sink.write_header()  # a run of weeks with no records still writes it
    if args.summary_json:
        with _open_output(args.summary_json) as out:
            out.write(json.dumps(summary.to_dict(), indent=2) + "\n")
    if not args.quiet:
        print(summary.format_table(), file=sys.stderr)
    return _list_failures(summary)


def _cmd_get(args: argparse.Namespace) -> int:
    return _convert(args, partial(pipeline.get_bulk_patent_data, _resolve_weeks(args)))


def _cmd_convert(args: argparse.Namespace) -> int:
    if args.input:
        if not args.format_era:
            raise ValueError("--format-era is required with --input")
        format = SourceFormat(args.format_era)
        for path in args.input:  # each opens before any file's rows reach the output
            open(path, "rb").close()
        return _convert(args, partial(pipeline.convert_files, args.input, format))
    if not args.years:
        raise ValueError("convert needs --input FILE or --years/--weeks of cached data")
    return _cmd_get(args)


def _cmd_stats(args: argparse.Namespace) -> int:
    format = args.input_format
    if format is None:
        format = "jsonl" if args.input.endswith((".jsonl", ".ndjson")) else "csv"
    # both formats decode only the three fields the analyses read
    # a regular file may be tallied in two processes, each reading a half
    records = pipeline.read_grants(args.input, jsonl=format == "jsonl")

    # the table is computed before --output is opened, so an unreadable
    # input leaves no output file behind
    analyse, write_table = _ANALYSES[args.analysis]
    stats = analyse(records, args.top)
    with _open_output(args.output) as out:
        write_table(stats, out)
    if not args.quiet and write_table is analytics.lag_table:
        print("quartiles: %s" % analytics.QUARTILE_RULE, file=sys.stderr)
        delta = analytics.median_lag_delta(stats)  # None by class: its keys are not years
        if delta is not None:
            print("median lag delta %d vs %d: %+g days" % (delta[1], delta[0], delta[2]),
                  file=sys.stderr)
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
    except (pipeline.RunError, fetchmod.IntegrityError, ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_FATAL


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
