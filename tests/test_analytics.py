import datetime as dt
import io
import random
import tracemalloc
from itertools import cycle, islice

import pytest

import oracle
from conftest import random_records
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
    tukey_five_number,
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
        assert tukey_five_number([5]) == (5.0, 5.0, 5.0, 5.0, 5.0)

    def test_even_count(self):
        assert tukey_five_number([1, 2, 3, 4]) == (1.0, 1.5, 2.5, 3.5, 4.0)

    def test_odd_count_hinges_include_median(self):
        assert tukey_five_number([1, 2, 3, 4, 5]) == (1.0, 2.0, 3.0, 4.0, 5.0)

    def test_matches_oracle_on_random_data(self):
        rng = random.Random(11)
        for _ in range(200):
            values = [rng.randrange(0, 2000) for _ in range(rng.randrange(1, 40))]
            assert tukey_five_number(values) == oracle.oracle_five_number(values)


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
