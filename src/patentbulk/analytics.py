"""Summary analyses over emitted records, as plot-ready tables.

Four analyses: weekly issuance counts, top-k IPC subclasses, lag-day
quartiles by subclass, and lag-day quartiles by issue year.  All are
associative group-by reductions over immutable records; shuffling the
input changes no output table.  They read only ``issue_date``,
``app_date`` and ``subclass_keys``, so a :class:`~.model.PatentRecord`
and a :class:`~.model.Grant` decoded from a CSV row serve alike.

Quartiles use the median-of-halves rule (Tukey hinges): with an odd
number of values the median belongs to both halves.  Lag values are
whole days between application and issue; negative lags indicate source
data errors and are excluded from the quartiles but reported in a
data-quality column rather than silently dropped.  Each group keeps one
count per distinct lag day and its quartiles are read from those counts,
so memory holds groups × distinct lag days, whatever the input's size.

Each analysis reads its table from one tally of its input, a tuple of
Counters or of defaultdicts of Counters, so that the tally of one half
of the input can be sent as :func:`_pieces` and merged into the other's
(``pipeline._Halves``).
"""

from __future__ import annotations

import datetime as dt
from bisect import bisect_right
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import partial
from itertools import accumulate, chain, islice
from operator import attrgetter
from typing import Callable, Hashable, Iterable, Iterator, Optional, Sequence, TextIO, Union

from .model import Grant, PatentRecord, first_grant_tuesday

QUARTILE_RULE = "median-of-halves (Tukey hinges)"

# What the analyses read: issue_date, app_date and subclass_keys.
Patent = Union[PatentRecord, Grant]


@dataclass(frozen=True)
class WeeklyCount:
    year: int
    week: int
    count: int


@dataclass(frozen=True)
class ClassCount:
    subclass_key: str
    count: int


@dataclass(frozen=True)
class LagStats:
    """Quartile summary of lag days for one group.

    ``count`` covers the non-negative lags the quartiles summarize;
    ``negative_lags`` tallies excluded negative values.
    """

    group_key: Union[str, int]
    count: int
    min: float
    q1: float
    median: float
    q3: float
    max: float
    negative_lags: int = 0


def lag_days(record: Patent) -> Optional[int]:
    """Calendar days between application and issue; absent without an
    application date.  Negative differences are returned as-is."""
    if record.app_date is None:
        return None
    return (record.issue_date - record.app_date).days


def week_of_issue_date(d: dt.date) -> tuple[int, int]:
    """Grant-week bucket of a date: (year, index of its Tuesday week)."""
    return d.year, (d - first_grant_tuesday(d.year)).days // 7 + 1


def _tallied(records: Iterable[Patent], count: Callable[[Iterable[Patent]], tuple]) -> tuple:
    """``count(records)``, or ``records.tally(count)`` if it has one."""
    return records.tally(count) if hasattr(records, "tally") else count(records)


def _pieces(tally: tuple, size: int = 512) -> Iterator[tuple[int, Optional[Hashable], dict]]:
    """``tally`` as (part, group, counts) of at most ``size`` counts each,
    group None in a part that is a Counter (no group key is None), for
    :func:`_merge`."""
    for index, part in enumerate(tally):
        for key, counts in part.items() if isinstance(part, defaultdict) else [(None, part)]:
            items = iter(counts.items())
            while piece := dict(islice(items, size)):
                yield index, key, piece


def _merge(tally: tuple, piece: tuple[int, Optional[Hashable], dict]) -> None:
    """Add one of the :func:`_pieces` of another tally to ``tally``."""
    index, key, counts = piece
    (tally[index] if key is None else tally[index][key]).update(counts)


def _weeks(records: Iterable[Patent]) -> tuple[Counter]:
    # only each distinct issue date is put in its week, not each record
    counts: Counter = Counter()
    for day, n in Counter(record.issue_date for record in records).items():
        counts[week_of_issue_date(day)] += n
    return (counts,)


def weekly_counts(records: Iterable[Patent]) -> list[WeeklyCount]:
    """Exact group-and-count per week, sorted by (year, week).

    The week is derived from the issue date, which is the grant Tuesday
    the weekly file is named after.
    """
    (counts,) = _tallied(records, _weeks)
    return [WeeklyCount(year, week, n) for (year, week), n in sorted(counts.items())]


def _ranked(counts: Counter, k: int) -> list[tuple[Hashable, int]]:
    """The k largest counts, descending, ties broken by key."""
    if k < 1:
        raise ValueError("k must be positive")
    return sorted(counts.items(), key=lambda item: (-item[1], item[0]))[:k]


def _subclasses(records: Iterable[Patent]) -> tuple[Counter]:
    return (Counter(chain.from_iterable(record.subclass_keys for record in records)),)


def top_ipc_subclasses(records: Iterable[Patent], k: int = 10) -> list[ClassCount]:
    """Top-k subclasses by record count, descending, ties lexicographic.

    A record counts once per distinct subclass it carries: one patent
    classified C07D and C07C increments both.
    """
    (counts,) = _tallied(records, _subclasses)
    return [ClassCount(key, n) for key, n in _ranked(counts, k)]


def _five_number(counts: Counter) -> tuple[float, float, float, float, float]:
    """(min, q1, median, q3, max) of the values ``counts`` tallies, each
    read at its rank in the running totals of the sorted distinct values."""
    values = sorted(counts)
    totals = list(accumulate(counts[v] for v in values))
    n = totals[-1]

    def median(lo: int, hi: int) -> float:  # of the values at ranks lo..hi-1
        ranks = ((lo + hi - 1) // 2, (lo + hi) // 2)
        return sum(values[bisect_right(totals, rank)] for rank in ranks) / 2

    lower, upper = median(0, (n + 1) // 2), median(n // 2, n)
    return float(values[0]), lower, median(0, n), upper, float(values[-1])


def tukey_five_number(values: Iterable[int]) -> tuple[float, float, float, float, float]:
    """(min, q1, median, q3, max) with hinges from median-of-halves."""
    return _five_number(Counter(values))


def _group_lags(
    keys_of: Callable[[Patent], Sequence[Hashable]], records: Iterable[Patent]
) -> tuple[Counter, dict[Hashable, Counter], Counter]:
    """Records, counts of each non-negative lag day, and negative lags per
    key, in one pass; memory grows with keys × distinct lags, not records."""
    records_per_key: Counter = Counter()
    lags: dict[Hashable, Counter] = defaultdict(Counter)
    negatives: Counter = Counter()
    for record in records:
        keys = keys_of(record)
        records_per_key.update(keys)
        lag = lag_days(record)
        if lag is None:
            continue
        for key in keys:
            if lag < 0:
                negatives[key] += 1
            else:
                lags[key][lag] += 1
    return records_per_key, lags, negatives


def _lag_stats(key: Hashable, lags: Counter, negatives: int) -> LagStats:
    return LagStats(key, lags.total(), *_five_number(lags), negatives)


def lag_stats_by(
    records: Iterable[Patent],
    key: Callable[[Patent], Optional[Hashable]],
) -> list[LagStats]:
    """Lag quartiles per group, sorted by group key; records whose key is
    None and groups with no defined non-negative lag are omitted.

    ``key`` may read any field of a :class:`~.model.PatentRecord`, but
    only ``issue_date``, ``app_date`` and ``subclass_keys`` of a
    :class:`~.model.Grant`, the three that ``stats`` decodes from CSV."""

    def keys_of(record: Patent) -> Sequence[Hashable]:
        k = key(record)
        return () if k is None else (k,)

    _, lags, negatives = _tallied(records, partial(_group_lags, keys_of))
    return [_lag_stats(k, lags[k], negatives[k]) for k in sorted(lags)]


def lag_stats_by_year(records: Iterable[Patent]) -> list[LagStats]:
    return lag_stats_by(records, lambda record: record.issue_date.year)


def lag_stats_by_class(records: Iterable[Patent], top: int = 10) -> list[LagStats]:
    """Lag quartiles for the top subclasses only, in class-count order.

    Subclasses rank as in :func:`top_ipc_subclasses`; a record in several
    top classes contributes its lag to each of them.
    """
    by_class = partial(_group_lags, attrgetter("subclass_keys"))
    per_class, lags, negatives = _tallied(records, by_class)
    ranked = _ranked(per_class, top)
    return [_lag_stats(k, lags[k], negatives[k]) for k, _ in ranked if k in lags]


def median_lag_delta(stats: Sequence[LagStats]) -> Optional[tuple[int, int, float]]:
    """(first year, last year, median difference) of a by-year table.

    The by-year trend is reported, not asserted: downstream readers judge
    whether lag times drift over the collected window.
    """
    years = [s for s in stats if isinstance(s.group_key, int)]
    if len(years) < 2:
        return None
    first = min(years, key=lambda s: s.group_key)
    last = max(years, key=lambda s: s.group_key)
    return first.group_key, last.group_key, last.median - first.median


def _format_number(value: float) -> str:
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def write_table(rows: Iterable[tuple], header: Sequence[str], out: TextIO) -> None:
    """Emit a plot-ready CSV table; numbers are formatted minimally."""
    import csv

    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(
            [_format_number(v) if isinstance(v, float) else v for v in row]
        )


def weekly_table(stats: Sequence[WeeklyCount], out: TextIO) -> None:
    write_table(((s.year, s.week, s.count) for s in stats), ("year", "week", "count"), out)


def classes_table(stats: Sequence[ClassCount], out: TextIO) -> None:
    write_table(((s.subclass_key, s.count) for s in stats), ("subclass", "count"), out)


LAG_HEADER = ("group", "count", "min", "q1", "median", "q3", "max", "negative_lags")


def lag_table(stats: Sequence[LagStats], out: TextIO) -> None:
    write_table(
        (
            (s.group_key, s.count, s.min, s.q1, s.median, s.q3, s.max, s.negative_lags)
            for s in stats
        ),
        LAG_HEADER,
        out,
    )
