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
data-quality column rather than silently dropped.  Each group counts its
lag days in a Counter, about 64 bytes an entry.  Once the Counter holds
32 days or more, and its days below ``_DENSE_DAYS`` fill more than one
day in ``_DENSITY`` of a span after the end of the group's array (empty
at first), their counts move to that array of counts indexed by the
day.  The array's cells are the narrowest that hold its counts: 1 byte
at first, then 2 and 4 from the first count that would overflow them
(:func:`_add`).  Its quartiles are read from the running totals of
those counts.  So memory holds, per group, at most about 64 bytes per
distinct lag day, and 1 to 4 bytes per day of the span its array covers
once that is less, whatever the input's size; a corrupt date's lag of
``_DENSE_DAYS`` or more stays one Counter entry.

Each analysis reads its table from one tally of its input, a tuple of
Counters or of defaultdicts of Counters or of arrays, so that the tally
of one half of the input, pickled back from a forked child, can be
added to the other's by :func:`_merged` (``pipeline._Halves``).
"""

from __future__ import annotations

import datetime as dt
from bisect import bisect_right
from collections import Counter, defaultdict
from functools import partial
from itertools import accumulate, chain
from operator import attrgetter
from typing import Callable, Hashable, Iterable, NamedTuple, Optional, Sequence, TextIO, Union

from .model import Grant, PatentRecord, first_grant_tuesday

QUARTILE_RULE = "median-of-halves (Tukey hinges)"
# lags below this many days may be counted in an array per group, the rest
# by day: 2**14 days, 44.9 years, is longer than real pendencies, so a
# corrupt date's lag costs one entry, not an array as long as the lag
_DENSE_DAYS = 2**14
# a group's days move from its Counter to its array once they fill more
# than one day in this many: sized for the array's widest cells, 4 bytes a
# day, against about 64 an entry of a Counter keyed by lag days above 256,
# so an array never costs more than the Counter it replaces
_DENSITY = 16
# the cell types of a group's array, narrowest first: 1, 2 and 4 bytes
_CELLS = "BHI"
# the sizes of a group's Counter at which its days may move to its array:
# the powers of two, so each day is looked at a few times, from 32, as a
# smaller Counter costs at most 2 KB
_DENSIFY_AT = frozenset(2**n for n in range(5, 64))

# What the analyses read: issue_date, app_date and subclass_keys.
Patent = Union[PatentRecord, Grant]


# the rows of the analyses' tables, each a named tuple of its table's columns in order
class WeeklyCount(NamedTuple):
    year: int
    week: int
    count: int


class ClassCount(NamedTuple):
    subclass_key: str
    count: int


class LagStats(NamedTuple):
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


def _merged(tally: tuple, other: tuple) -> tuple:
    """``tally`` with the counts of ``other``, a tally of the same analysis,
    added to it: a Counter's by ``update``, a group's array day by day."""
    for part, added in zip(tally, other):
        if not isinstance(part, defaultdict):
            part.update(added)
            continue
        for key, counts in added.items():
            if isinstance(counts, Counter):
                part[key].update(counts)
            else:  # an array of lag-day counts, its cells maybe wider
                merged = part[key]
                merged.extend([0] * (len(counts) - len(merged)))
                for day, n in enumerate(counts):
                    try:
                        merged[day] += n
                    except OverflowError:
                        merged = _add(part, key, day, n)
    return tally


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


def _five_number(dense: Sequence[int], rare: Counter) -> tuple[float, float, float, float, float]:
    """(min, q1, median, q3, max) of the values tallied as ``dense[v]``
    counts of each v below ``len(dense)`` and ``rare`` counts of values
    above them, each read at its rank in the running totals of the counts
    in value order: in ``dense`` the index of a total is its value."""
    from array import array  # 8 bytes a total, not a Python int's 36

    values = sorted(rare)
    totals = array("Q", accumulate(chain(dense, (rare[v] for v in values))))
    n = totals[-1]

    def at(rank: int) -> int:
        index = bisect_right(totals, rank)
        return index if index < len(dense) else values[index - len(dense)]

    def median(lo: int, hi: int) -> float:  # of the values at ranks lo..hi-1
        return (at((lo + hi - 1) // 2) + at((lo + hi) // 2)) / 2

    lower, upper = median(0, (n + 1) // 2), median(n // 2, n)
    return float(at(0)), lower, median(0, n), upper, float(at(n - 1))


def _add(dense: dict[Hashable, Sequence[int]], key: Hashable, day: int, n: int) -> Sequence[int]:
    """Add ``n`` to the count of ``day`` in group ``key``'s array, which
    is first replaced in ``dense`` by copies in wider cells until the sum
    fits; past 4-byte cells, OverflowError.  Returns the array."""
    counts = dense[key]
    for wider in _CELLS[_CELLS.index(counts.typecode) + 1 :]:
        try:
            counts[day] += n
            return counts
        except OverflowError:
            counts = dense[key] = type(counts)(wider, counts)
    counts[day] += n
    return counts


def _densify(
    dense: dict[Hashable, Sequence[int]], days: dict[Hashable, Counter], key: Hashable
) -> None:
    """Move the counts of group ``key``'s lag days from its Counter to the
    end of its array, up to the largest day below ``_DENSE_DAYS`` such that
    the days moved fill more than one in ``_DENSITY`` of the days the array
    grows by; the Counter keeps the days after it."""
    later = days[key]
    start = len(dense.get(key, ()))
    low = sorted(day for day in later if day < _DENSE_DAYS)
    filled = (day + 1 for n, day in enumerate(low, 1) if _DENSITY * n > day + 1 - start)
    end = max(filled, default=0)
    if not end:
        return
    dense[key].extend([0] * (end - start))
    for day in low[: bisect_right(low, end - 1)]:
        _add(dense, key, day, later.pop(day))
    if later:
        days[key] = Counter(later)  # a dict sized for the days left
    else:
        del days[key]


def _group_lags(
    keys_of: Callable[[Patent], Sequence[Hashable]], records: Iterable[Patent]
) -> tuple[Counter, dict[Hashable, Sequence[int]], Counter, dict[Hashable, Counter]]:
    """Records per key, counts of lag days in an array indexed by the day,
    negative lags, and counts of the lag days after each key's array, per
    key, in one pass; a Counter is passed to :func:`_densify` each time its
    number of days reaches a size in ``_DENSIFY_AT``.  Memory grows with
    keys × lag days, not records."""
    from array import array  # here, so that only the lag analyses load it

    records_per_key: Counter = Counter()
    dense: dict[Hashable, Sequence[int]] = defaultdict(partial(array, _CELLS[0]))
    negatives: Counter = Counter()
    days: dict[Hashable, Counter] = defaultdict(Counter)
    for record in records:
        keys = keys_of(record)
        records_per_key.update(keys)
        lag = lag_days(record)
        if lag is None:
            continue
        for key in keys:
            if lag < 0:
                negatives[key] += 1
            elif lag < len(counts := dense.get(key, ())):
                try:
                    counts[lag] += 1
                except OverflowError:
                    _add(dense, key, lag, 1)
            else:
                counts = days[key]
                counts[lag] += 1
                if len(counts) in _DENSIFY_AT and counts[lag] == 1:
                    _densify(dense, days, key)
    return records_per_key, dense, negatives, days


def _lag_stats(tally: tuple, keys: Iterable[Hashable]) -> list[LagStats]:
    """The :class:`LagStats` of each of ``keys`` that has a non-negative
    lag in a :func:`_group_lags` tally."""
    _, dense, negatives, days = tally
    stats = []
    for key in keys:
        if key not in dense and key not in days:
            continue
        lags, later = dense.get(key, ()), days.get(key, Counter())
        # the halves of a split may have counted a day in an array and a Counter
        for day in [day for day in later if day < len(lags)]:
            lags = _add(dense, key, day, later.pop(day))
        count = sum(lags) + later.total()
        stats.append(LagStats(key, count, *_five_number(lags, later), negatives[key]))
    return stats


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

    tally = _tallied(records, partial(_group_lags, keys_of))
    return _lag_stats(tally, sorted(tally[0]))


def lag_stats_by_year(records: Iterable[Patent]) -> list[LagStats]:
    return lag_stats_by(records, lambda record: record.issue_date.year)


def lag_stats_by_class(records: Iterable[Patent], top: int = 10) -> list[LagStats]:
    """Lag quartiles for the top subclasses only, in class-count order.

    Subclasses rank as in :func:`top_ipc_subclasses`; a record in several
    top classes contributes its lag to each of them.
    """
    by_class = partial(_group_lags, attrgetter("subclass_keys"))
    tally = _tallied(records, by_class)
    return _lag_stats(tally, (k for k, _ in _ranked(tally[0], top)))


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
    write_table(stats, ("year", "week", "count"), out)


def classes_table(stats: Sequence[ClassCount], out: TextIO) -> None:
    write_table(stats, ("subclass", "count"), out)


LAG_HEADER = ("group", "count", "min", "q1", "median", "q3", "max", "negative_lags")


def lag_table(stats: Sequence[LagStats], out: TextIO) -> None:
    write_table(stats, LAG_HEADER, out)
