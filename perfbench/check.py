"""Output checker that does not import the library.

Outputs are read back with the stdlib ``csv`` and ``json`` modules and
compared with the generator's manifest; the ``stats`` tables are
recomputed here with independent code.  :class:`Judge` also requires
every operation of a run to write the same bytes.
"""

from __future__ import annotations

import csv
import datetime as dt
import hashlib
import io
import json
from collections import Counter, defaultdict
from typing import Callable, Iterable, Sequence

from corpus import CSV_COLUMNS, first_tuesday

csv.field_size_limit(64 * 1024 * 1024)

MAX_PROBLEMS = 5


def _summarize(cells: dict) -> dict:
    """Reduce one output record to the fields the manifest describes."""
    claims = cells["claims"]
    return {
        "wku": cells["wku"],
        "title": cells["title"],
        "app_date": cells["app_date"] or "",
        "issue_date": cells["issue_date"],
        "inventors": cells["inventors"],
        "references": len(cells["references"]),
        "claims_lines": claims.count("\n") + 1 if claims else 0,
        "ipc": cells["ipc_codes"],
    }


def read_csv_records(path: str) -> list[dict]:
    def split(cell: str) -> list[str]:
        return cell.split("; ") if cell else []

    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if tuple(header or ()) != CSV_COLUMNS:
            raise ValueError("bad CSV header %r" % (header,))
        records = []
        for row in reader:
            if len(row) != len(CSV_COLUMNS):
                raise ValueError("row with %d cells" % len(row))
            cells = dict(zip(CSV_COLUMNS, row))
            for name in ("inventors", "assignees", "ipc_codes", "references"):
                cells[name] = split(cells[name])
            records.append(_summarize(cells))
    return records


def read_jsonl_records(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [_summarize(json.loads(line)) for line in handle if line.strip()]


def compare_records(actual: Sequence[dict], expected: Sequence[dict]) -> list[str]:
    problems = []
    if len(actual) != len(expected):
        problems.append("%d records, expected %d" % (len(actual), len(expected)))
    for index, (got, want) in enumerate(zip(actual, expected)):
        if got != want:
            keys = sorted(k for k in want if got.get(k) != want[k])
            problems.append("record %d (%s): differs in %s" % (index, want["wku"], ", ".join(keys)))
        if len(problems) >= MAX_PROBLEMS:
            break
    return problems


def check_convert(paths: Sequence[str], manifest: dict) -> list[str]:
    (path,) = paths
    reader = read_jsonl_records if path.endswith(".jsonl") else read_csv_records
    try:
        records = reader(path)
    except (OSError, ValueError, KeyError) as exc:
        return ["unreadable output %s: %s" % (path, exc)]
    return compare_records(records, manifest["records"])


# ------------------------------------------------------------ stats tables

STATS_ANALYSES = ("weekly", "classes", "lag-by-class", "lag-by-year")
LAG_HEADER = ("group", "count", "min", "q1", "median", "q3", "max", "negative_lags")


def _number(value: float) -> str:
    return str(int(value)) if value == int(value) else repr(float(value))


def _median(ordered: Sequence[int]) -> float:
    n = len(ordered)
    if n % 2:
        return float(ordered[n // 2])
    return (ordered[n // 2 - 1] + ordered[n // 2]) / 2


def _hinges(values: list[int]) -> list[str]:
    """min, q1, median, q3, max; odd counts put the median in both halves."""
    ordered = sorted(values)
    n = len(ordered)
    five = (ordered[0], _median(ordered[: (n + 1) // 2]), _median(ordered),
            _median(ordered[n // 2:]), ordered[-1])
    return [_number(v) for v in five]


def _table(header: Iterable[str], rows: Iterable[Iterable]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def _add_lag(lags: dict, negatives: Counter, key, lag: int) -> None:
    """Negative lags are source errors: tallied, not summarized."""
    if lag < 0:
        negatives[key] += 1
    else:
        lags[key].append(lag)


def _lag_rows(groups: Iterable, lags: dict, negatives: Counter) -> list[list]:
    return [[key, len(lags[key]), *_hinges(lags[key]), negatives[key]]
            for key in groups if lags.get(key)]


def stats_tables(rows: Sequence[Sequence[str]], top: int = 10) -> dict[str, str]:
    """Expected ``stats`` output for each analysis over CSV ``rows``."""
    weekly: Counter = Counter()
    classes: Counter = Counter()
    parsed = []
    for row in rows:
        app_text, issue_text, ipc_cell = row[2], row[3], row[6]
        issue = dt.date.fromisoformat(issue_text)
        weekly[(issue.year, (issue - first_tuesday(issue.year)).days // 7 + 1)] += 1
        keys = list(dict.fromkeys(code.split(" ")[0] for code in ipc_cell.split("; ") if code))
        classes.update(keys)
        lag = (issue - dt.date.fromisoformat(app_text)).days if app_text else None
        parsed.append((issue.year, keys, lag))

    ranked = sorted(classes.items(), key=lambda item: (-item[1], item[0]))[:top]
    top_keys = [key for key, _ in ranked]
    by_class: dict = defaultdict(list)
    by_year: dict = defaultdict(list)
    class_neg: Counter = Counter()
    year_neg: Counter = Counter()
    for year, keys, lag in parsed:
        if lag is None:
            continue
        _add_lag(by_year, year_neg, year, lag)
        for key in keys:
            if key in top_keys:
                _add_lag(by_class, class_neg, key, lag)

    return {
        "weekly": _table(("year", "week", "count"), [(y, w, n) for (y, w), n in sorted(weekly.items())]),
        "classes": _table(("subclass", "count"), ranked),
        "lag-by-class": _table(LAG_HEADER, _lag_rows(top_keys, by_class, class_neg)),
        "lag-by-year": _table(LAG_HEADER, _lag_rows(sorted(by_year), by_year, year_neg)),
    }


def check_stats(paths: Sequence[str], expected: dict[str, str]) -> list[str]:
    problems = []
    for analysis, path in zip(STATS_ANALYSES, paths):
        try:
            with open(path, encoding="utf-8", newline="") as handle:
                text = handle.read()
        except OSError as exc:
            problems.append("unreadable %s: %s" % (path, exc))
            continue
        if text != expected[analysis]:
            problems.append("stats %s table differs from the recomputed one" % analysis)
    return problems


# ------------------------------------------------------------------ judge


def outputs_sha256(paths: Sequence[str]) -> str:
    digest = hashlib.sha256()
    for path in paths:
        try:
            with open(path, "rb") as handle:
                for block in iter(lambda: handle.read(1 << 20), b""):
                    digest.update(block)
        except OSError:
            digest.update(b"\0missing\0" + path.encode())
    return digest.hexdigest()


class Judge:
    """Counts operations and failures over one run.

    An operation fails on a non-zero exit, on output that disagrees with
    the manifest, or on output bytes that differ from the run's reference
    (the first good operation, or a reference given up front).
    """

    def __init__(self, check: Callable[[Sequence[str]], list[str]], reference: str | None = None) -> None:
        self.check = check
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._verdicts: dict[str, list[str]] = {}

    def judge(self, returncode: int, paths: Sequence[str]) -> bool:
        self.attempted += 1
        problems = []
        if returncode != 0:
            problems.append("exit status %d" % returncode)
        sha = outputs_sha256(paths)
        if sha not in self._verdicts:
            self._verdicts[sha] = self.check(paths)
        problems += self._verdicts[sha]
        if self.reference is not None and sha != self.reference:
            problems.append("output sha256 %s differs from the run's %s" % (sha[:12], self.reference[:12]))
        if problems:
            self.failed += 1
            self.problems += problems[:MAX_PROBLEMS]
            return False
        if self.reference is None:
            self.reference = sha
        return True
