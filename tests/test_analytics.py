import datetime as dt
import io
import random
import tracemalloc
from array import array
from collections import Counter
from itertools import cycle, islice
from operator import attrgetter

import pytest
from hypothesis import given, settings, strategies as st

import oracle
from conftest import random_records
from patentbulk import analytics
from patentbulk.analytics import (
    ClassCount,
    LagStats,
    WeeklyCount,
    classes_table,
    lag_days,
    lag_stats_by,
    lag_stats_by_class,
    lag_stats_by_year,
    lag_table,
    median_lag_delta,
    top_ipc_subclasses,
    week_of_issue_date,
    weekly_counts,
    weekly_table,
)
from patentbulk.model import Grant, build_record, ipc_parse


def record(issue, app=None, subclasses=(), wku="000000001"):
    return build_record(
        wku=wku,
        issue_date=issue,
        app_date=app,
        ipc_codes=[ipc_parse(s) for s in subclasses],
    )


DENSE = analytics._DENSE_DAYS
# lags spread over real pendencies, either side of the bound of a group's
# array, by day up to an application date of 0001-01-01, and negative
LAGS = {
    "dense": st.integers(0, 3000),
    "bound": st.integers(DENSE - 2, DENSE + 1),
    "rare": st.integers(DENSE, 720_000),
    "negative": st.integers(-400, -1),
}


@st.composite
def lag_records(draw):
    """Records of one to four issue years, each year drawing its lags from
    some of ``LAGS``, so that a year may hold only lags counted by day,
    and lags of a run of days from 0, which from 32 days on move to an
    array; each record is in its year's own subclass and maybe shared ones."""
    records = []
    for year in range(1976, 1976 + draw(st.integers(1, 4))):
        issue = dt.date(year, 1, 6)
        kinds = draw(st.lists(st.sampled_from(sorted(LAGS)), min_size=1, unique=True))
        lags = st.one_of(*(LAGS[kind] for kind in kinds))
        run = list(range(draw(st.sampled_from([0, 20, 40, 70, 130]))))
        for lag in draw(st.lists(st.none() | lags, min_size=1, max_size=12)) + run:
            shared = draw(st.lists(st.sampled_from(["A01B 1/00", "H04L 9/32"]), unique=True))
            records.append(record(
                issue, None if lag is None else issue - dt.timedelta(days=lag),
                ["G%02dB 1/00" % (year - 1970)] + shared,
            ))
    return draw(st.permutations(records))


class Halves(list):
    """Records whose tally, as ``pipeline._Halves`` makes it, counts the
    records before ``cut`` and after it apart and merges the second tally
    into the first."""

    def __init__(self, records, cut):
        super().__init__(records)
        self.cut = cut

    def tally(self, count):
        return analytics._merged(count(self[: self.cut]), count(self[self.cut :]))


def lag_rows(stats):
    return [(s.group_key, s.count, s.min, s.q1, s.median, s.q3, s.max, s.negative_lags)
            for s in stats]


class TestLagDays:
    def test_same_day(self):
        d = dt.date(1976, 1, 6)
        assert lag_days(record(d, app=d)) == 0

    def test_one_non_leap_year(self):
        assert lag_days(record(dt.date(1976, 1, 6), app=dt.date(1975, 1, 6))) == 365

    def test_absent_app_date(self):
        assert lag_days(record(dt.date(1976, 1, 6))) is None

    def test_negative_returned_as_is(self):
        assert lag_days(record(dt.date(1976, 1, 6), app=dt.date(1976, 1, 10))) == -4


class TestWeeklyCounts:
    def test_empty(self):
        assert weekly_counts([]) == []

    def test_three_records_one_week(self):
        d = dt.date(1976, 1, 13)  # second grant Tuesday of 1976
        rows = weekly_counts([record(d) for _ in range(3)])
        assert rows == [WeeklyCount(1976, 2, 3)]

    def test_sorted_by_year_week(self):
        rows = weekly_counts(
            [record(dt.date(1977, 1, 4)), record(dt.date(1976, 1, 6)), record(dt.date(1976, 1, 13))]
        )
        assert [(r.year, r.week) for r in rows] == [(1976, 1), (1976, 2), (1977, 1)]

    def test_count_conservation(self):
        records = random_records(300, seed=5)
        rows = weekly_counts(records)
        assert sum(r.count for r in rows) == len(records)

    def test_week_of_issue_date_is_tuesday_index(self):
        assert week_of_issue_date(dt.date(1976, 1, 6)) == (1976, 1)
        assert week_of_issue_date(dt.date(1976, 2, 24)) == (1976, 8)


class TestTopSubclasses:
    def test_empty(self):
        assert top_ipc_subclasses([]) == []

    def test_counts_and_ordering(self):
        records = (
            [record(dt.date(1976, 1, 6), subclasses=["C07D 1/00"]) for _ in range(3)]
            + [record(dt.date(1976, 1, 6), subclasses=["C07C 2/00"]) for _ in range(2)]
            + [record(dt.date(1976, 1, 6), subclasses=["A01B 3/00"])]
        )
        assert top_ipc_subclasses(records, 2) == [ClassCount("C07D", 3), ClassCount("C07C", 2)]

    def test_multi_class_record_counts_once_per_distinct_subclass(self):
        rows = top_ipc_subclasses(
            [record(dt.date(1976, 1, 6), subclasses=["C07D 1/00", "C07C 2/00", "C07D 9/99"])], 10
        )
        assert rows == [ClassCount("C07C", 1), ClassCount("C07D", 1)]

    def test_ties_broken_lexicographically(self):
        records = [
            record(dt.date(1976, 1, 6), subclasses=["C07D 1/00"]),
            record(dt.date(1976, 1, 6), subclasses=["A01B 1/00"]),
        ]
        assert [r.subclass_key for r in top_ipc_subclasses(records, 2)] == ["A01B", "C07D"]

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            top_ipc_subclasses([], 0)


class TestQuartiles:
    def test_singleton(self):
        assert analytics._five_number((), Counter([5])) == (5.0, 5.0, 5.0, 5.0, 5.0)

    def test_even_count(self):
        assert analytics._five_number((), Counter([1, 2, 3, 4])) == (1.0, 1.5, 2.5, 3.5, 4.0)

    def test_odd_count_hinges_include_median(self):
        assert analytics._five_number((), Counter([1, 2, 3, 4, 5])) == (1.0, 2.0, 3.0, 4.0, 5.0)

    def test_matches_oracle_on_random_data(self):
        rng = random.Random(11)
        for _ in range(200):
            values = [rng.randrange(0, 2000) for _ in range(rng.randrange(1, 40))]
            assert analytics._five_number((), Counter(values)) == oracle.oracle_five_number(values)

    def test_negative_values_match_oracle(self):
        rng = random.Random(12)
        for _ in range(200):
            values = [rng.randrange(-2000, 2 * DENSE) for _ in range(rng.randrange(1, 40))]
            assert analytics._five_number((), Counter(values)) == oracle.oracle_five_number(values)


class TestLagStats:
    def test_by_year_groups_and_orders(self):
        records = [
            record(dt.date(1976, 1, 6), app=dt.date(1975, 1, 6)),
            record(dt.date(1977, 1, 4), app=dt.date(1975, 1, 6)),
            record(dt.date(1976, 1, 13), app=dt.date(1976, 1, 6)),
        ]
        stats = lag_stats_by_year(records)
        assert [s.group_key for s in stats] == [1976, 1977]
        assert stats[0].count == 2

    def test_records_without_lag_omitted(self):
        stats = lag_stats_by_year([record(dt.date(1976, 1, 6))])
        assert stats == []

    def test_negative_lags_reported_not_summarized(self):
        records = [
            record(dt.date(1976, 1, 6), app=dt.date(1975, 1, 6)),
            record(dt.date(1976, 1, 6), app=dt.date(1976, 2, 6)),  # negative
        ]
        (stats,) = lag_stats_by_year(records)
        assert stats.count == 1
        assert stats.negative_lags == 1
        assert stats.min == 365.0

    def test_by_class_filters_to_top_and_multi_counts(self):
        records = [
            record(dt.date(1976, 1, 6), app=dt.date(1975, 1, 6), subclasses=["C07D 1/00", "C07C 1/00"]),
            record(dt.date(1976, 1, 6), app=dt.date(1975, 7, 6), subclasses=["C07D 1/00", "C07C 2/00"]),
            record(dt.date(1976, 1, 6), app=dt.date(1975, 1, 6), subclasses=["A01B 1/00"]),
        ]
        stats = lag_stats_by_class(records, top=2)
        assert [s.group_key for s in stats] == ["C07C", "C07D"]
        assert stats[0].count == stats[1].count == 2  # both records contribute to both

    def test_generic_key_function(self):
        records = [record(dt.date(1976, 1, 6), app=dt.date(1975, 1, 6), wku="D0001"),
                   record(dt.date(1976, 1, 6), app=dt.date(1975, 1, 6), wku="00002")]
        stats = lag_stats_by(records, lambda r: "design" if r.wku.startswith("D") else None)
        assert [s.group_key for s in stats] == ["design"]
        assert stats[0].count == 1

    def test_lag_quartiles_hold_distinct_days_not_records(self):
        """150k lags over 2,901 distinct days: the quartiles are read from
        one count per day, so the peak does not follow the record count."""
        issue = dt.date(2001, 12, 25)
        pool = [Grant(issue, issue - dt.timedelta(days=lag), ()) for lag in range(2901)]
        tracemalloc.start()
        try:
            (stats,) = lag_stats_by_year(islice(cycle(pool), 150_000))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        lags = list(islice(cycle(range(2901)), 150_000))
        assert stats == LagStats(2001, 150_000, *oracle.oracle_five_number(lags))
        assert peak < 1.5 * 2**20

    def test_a_corrupt_date_adds_one_count_not_an_array_as_long_as_its_lag(self):
        # an application date of 0001-01-01: 730,843 days, counted by day
        issue = dt.date(2001, 12, 25)
        pool = [Grant(issue, issue - dt.timedelta(days=lag), ()) for lag in range(2901)]
        corrupt = Grant(issue, dt.date(1, 1, 1), ())
        peaks = []
        for grants in (pool, pool + [corrupt]):
            tracemalloc.start()
            try:
                (stats,) = lag_stats_by_year(grants)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        lags = list(range(2901)) + [(issue - corrupt.app_date).days]
        assert lags[-1] > 730_000
        assert stats == LagStats(2001, 2902, *oracle.oracle_five_number(lags))
        assert peaks[1] - peaks[0] < 64 * 1024

    def test_sparse_groups_keep_counters_and_packed_ones_take_arrays(self):
        """300 subclasses of 40 lags each spread over 16,000 days keep a
        Counter of 40 days each, not an array of 64 KB each; one of 64
        lags over its first 64 days takes an array of 64 counts."""
        issue = dt.date(2001, 12, 25)
        keys = ["H%02d%s" % (k // 26, chr(65 + k % 26)) for k in range(300)]
        grants = [Grant(issue, issue - dt.timedelta(days=400 * n + 100 + k), (key,))
                  for n in range(40) for k, key in enumerate(keys)]
        grants += [Grant(issue, issue - dt.timedelta(days=n), ("A01B",)) for n in range(64)]
        tracemalloc.start()
        try:
            _, dense, _, days = analytics._group_lags(lambda g: g.subclass_keys, grants)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert list(dense) == ["A01B"] and list(dense["A01B"]) == [1] * 64
        assert "A01B" not in days and all(len(days[key]) == 40 for key in keys)
        assert peak < 2 * 2**20

    def test_an_array_grows_over_packed_days_past_its_end_up_to_its_bound(self):
        issue = dt.date(2001, 12, 25)

        def arrays_and_counters(lags):
            grants = [Grant(issue, issue - dt.timedelta(days=lag), ("A01B",)) for lag in lags]
            _, dense, _, days = analytics._group_lags(lambda g: g.subclass_keys, grants)
            return len(dense["A01B"]), len(days.get("A01B", ()))

        # 32 days filling 32 of the 468 days after the array's 64
        assert arrays_and_counters([*range(64), *range(500, 532)]) == (532, 0)
        assert arrays_and_counters([*range(64), *range(500, 532), *range(600, 631)]) == (532, 31)
        assert arrays_and_counters(range(DENSE + 64)) == (DENSE, 64)

    def test_median_lag_delta(self):
        stats = [
            LagStats(1976, 3, 1.0, 1.0, 100.0, 2.0, 2.0),
            LagStats(1978, 3, 1.0, 1.0, 130.5, 2.0, 2.0),
        ]
        assert median_lag_delta(stats) == (1976, 1978, 30.5)
        assert median_lag_delta(stats[:1]) is None


class TestOracleEquivalence:
    def test_all_four_analyses_match_brute_force(self):
        records = random_records(400, seed=21)

        assert [oracle.oracle_lag_days(r) for r in records] == [lag_days(r) for r in records]

        assert [
            ((w.year, w.week), w.count) for w in weekly_counts(records)
        ] == oracle.oracle_weekly_counts(records)

        assert [
            (c.subclass_key, c.count) for c in top_ipc_subclasses(records, 10)
        ] == oracle.oracle_top_subclasses(records, 10)

        assert [
            (s.group_key, s.count, s.min, s.q1, s.median, s.q3, s.max, s.negative_lags)
            for s in lag_stats_by_year(records)
        ] == oracle.oracle_lag_stats_by_year(records)

        assert [
            (s.group_key, s.count, s.min, s.q1, s.median, s.q3, s.max, s.negative_lags)
            for s in lag_stats_by_class(records, 10)
        ] == oracle.oracle_lag_stats_by_class(records, 10)

    @settings(max_examples=200, deadline=None)
    @given(records=lag_records())
    def test_lags_either_side_of_the_array_bound_match_brute_force(self, records):
        assert lag_rows(lag_stats_by_year(records)) == oracle.oracle_lag_stats_by_year(records)
        assert lag_rows(lag_stats_by_class(records, 4)) == oracle.oracle_lag_stats_by_class(records, 4)

    @settings(max_examples=200, deadline=None)
    @given(records=lag_records(), data=st.data())
    def test_halves_that_count_a_group_in_either_form_merge_to_brute_force(self, records, data):
        # one half may count a group's days in an array, the other in a Counter
        halves = Halves(records, data.draw(st.integers(0, len(records))))
        assert lag_rows(lag_stats_by_year(halves)) == oracle.oracle_lag_stats_by_year(records)
        assert lag_rows(lag_stats_by_class(halves, 4)) == oracle.oracle_lag_stats_by_class(records, 4)

    def test_permutation_invariance(self):
        records = random_records(150, seed=33)
        shuffled = records[:]
        random.Random(99).shuffle(shuffled)
        assert weekly_counts(records) == weekly_counts(shuffled)
        assert top_ipc_subclasses(records, 10) == top_ipc_subclasses(shuffled, 10)
        assert lag_stats_by_year(records) == lag_stats_by_year(shuffled)
        assert lag_stats_by_class(records, 10) == lag_stats_by_class(shuffled, 10)

    def test_ordering_laws(self):
        records = random_records(250, seed=4)
        classes = top_ipc_subclasses(records, 10)
        assert all(a.count >= b.count for a, b in zip(classes, classes[1:]))
        weekly = weekly_counts(records)
        assert all(
            (a.year, a.week) < (b.year, b.week) for a, b in zip(weekly, weekly[1:])
        )
        for stats in (lag_stats_by_year(records), lag_stats_by_class(records, 10)):
            for s in stats:
                assert s.min <= s.q1 <= s.median <= s.q3 <= s.max
                assert s.count >= 1


ISSUE = dt.date(2001, 12, 25)
TWO_BYTES = 2**16 - 1  # the largest count a 2-byte cell holds


def lag_grants(key, day, n=1):
    """``n`` grants of subclass ``key`` issued ``day`` days after their application."""
    return [Grant(ISSUE, ISSUE - dt.timedelta(days=day), (key,))] * n


def by_class(grants):
    return analytics._group_lags(attrgetter("subclass_keys"), grants)


def assert_halves_merge_to_the_whole(a, b):
    """The lag stats of the tallies of ``a`` and ``b`` merged, and of
    ``a + b`` tallied whole, equal the oracle's of sorted lists; returns
    the merged tally's arrays."""
    merged, whole = analytics._merged(by_class(a), by_class(b)), by_class(a + b)
    expected = oracle.oracle_lag_stats(a + b, attrgetter("subclass_keys"))
    rows = [(key,) + expected[key] for key in sorted(expected)]
    assert lag_rows(analytics._lag_stats(merged, sorted(merged[0]))) == rows
    assert lag_rows(analytics._lag_stats(whole, sorted(whole[0]))) == rows
    return merged[1]


@st.composite
def lag_halves(draw):
    """Grants of one to three subclasses in a drawn order, cut in two: each
    group has a run of days from 0, which from 32 days on moves to an array,
    and drawn days counted a few times or either side of a 1-byte cell's 255."""
    grants = []
    for key in ("A01B", "C07D", "H04L")[: draw(st.integers(1, 3))]:
        for day in range(draw(st.sampled_from([0, 31, 40]))):
            grants += lag_grants(key, day)
        counts = st.integers(1, 3) | st.integers(250, 260)
        for day, n in draw(st.dictionaries(st.integers(0, 80), counts, max_size=6)).items():
            grants += lag_grants(key, day, n)
    random.Random(draw(st.integers(0, 2**16))).shuffle(grants)
    cut = draw(st.integers(0, len(grants)))
    return grants[:cut], grants[cut:]


class TestCountCells:
    """A group's array starts in 1-byte cells and is copied to wider ones
    by the first count that overflows them, in any of the four stores: a
    lag counted, a Counter's days moved to the array, a half's array
    merged, and a half's Counter day added to the other's array."""

    @settings(max_examples=100, deadline=None)
    @given(halves=lag_halves())
    def test_halves_merge_to_the_whole_and_the_oracle(self, halves):
        assert_halves_merge_to_the_whole(*halves)

    @pytest.mark.parametrize("count", [TWO_BYTES, TWO_BYTES + 1])
    @pytest.mark.parametrize("heavy_first", [False, True])
    def test_one_day_past_two_byte_cells_in_one_process(self, count, heavy_first):
        # the array of days 0-31 exists before day 5's repeats are counted,
        # or a Counter already holding all of them moves to it
        run = [grant for day in range(32) for grant in lag_grants("A01B", day)]
        heavy = lag_grants("A01B", 5, count - 1)
        grants = heavy + run if heavy_first else run + heavy
        (cells,) = assert_halves_merge_to_the_whole(grants, []).values()
        assert cells.typecode == ("H" if count == TWO_BYTES else "I")
        assert (cells[5], sum(cells)) == (count, count + 31)

    @pytest.mark.parametrize("second_has_an_array", [True, False])
    def test_one_day_past_two_byte_cells_over_two_halves(self, second_has_an_array):
        # day 5 counted 40,000 times in the first half's 2-byte cells and
        # 25,536 times in the second's, or in its Counter without an array
        run = [grant for day in range(32) for grant in lag_grants("A01B", day)]
        first = run + lag_grants("A01B", 5, 40_000 - 1)
        second = lag_grants("A01B", 5, TWO_BYTES + 1 - 40_000 - second_has_an_array)
        second += run if second_has_an_array else []
        assert by_class(first)[1]["A01B"].typecode == "H"
        assert [cells.typecode for cells in by_class(second)[1].values()] == (
            ["H"] if second_has_an_array else []
        )
        (cells,) = assert_halves_merge_to_the_whole(first, second).values()
        assert (cells.typecode, cells[5]) == ("I", TWO_BYTES + 1)

    def test_counts_past_four_byte_cells_raise(self):
        dense = {"A01B": array("B", [255, 0])}
        assert analytics._add(dense, "A01B", 1, 2**32 - 1)[1] == 2**32 - 1
        assert dense["A01B"].typecode == "I" and list(dense["A01B"]) == [255, 2**32 - 1]
        with pytest.raises(OverflowError):
            analytics._add(dense, "A01B", 1, 1)
        assert list(dense["A01B"]) == [255, 2**32 - 1]


class TestTables:
    def test_weekly_table(self):
        out = io.StringIO()
        weekly_table([WeeklyCount(1976, 1, 1339)], out)
        assert out.getvalue() == "year,week,count\n1976,1,1339\n"

    def test_classes_table(self):
        out = io.StringIO()
        classes_table([ClassCount("C07D", 431)], out)
        assert out.getvalue() == "subclass,count\nC07D,431\n"

    def test_lag_table_number_formatting(self):
        out = io.StringIO()
        lag_table([LagStats(1976, 4, 1.0, 1.5, 2.5, 3.5, 4.0, 1)], out)
        assert out.getvalue() == (
            "group,count,min,q1,median,q3,max,negative_lags\n"
            "1976,4,1,1.5,2.5,3.5,4,1\n"
        )
