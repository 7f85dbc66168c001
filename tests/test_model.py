import datetime as dt

import pytest
from hypothesis import given, strategies as st

from patentbulk.model import (
    CSV_COLUMNS,
    MAX_REPORT_MESSAGES,
    IpcParseError,
    ParseReport,
    PatentRecord,
    SourceFormat,
    WeekSpec,
    build_record,
    first_grant_tuesday,
    format_date,
    ipc_parse,
    join_multivalue,
    parse_date,
    record_from_dict,
    record_from_row,
    record_to_dict,
    record_to_row,
    sanitize_field,
    split_multivalue,
    tuesdays_in_year,
)


class TestSanitizeField:
    def test_whitespace_collapse(self):
        assert sanitize_field("  Widget\n  Press ") == "Widget Press"

    def test_delimiter_rewritten(self):
        assert sanitize_field("Acme; Inc") == "Acme, Inc"

    def test_claims_keep_line_structure(self):
        text = "1. A device...\n2. The device of claim 1..."
        assert sanitize_field(text, preserve_newlines=True) == text

    def test_claims_trailing_whitespace_trimmed(self):
        assert sanitize_field("a  \n  b\t\n", preserve_newlines=True) == "a\n  b"

    def test_claims_crlf_normalized(self):
        assert sanitize_field("a\r\nb\rc", preserve_newlines=True) == "a\nb\nc"

    @given(st.text(), st.booleans())
    def test_idempotent(self, text, flag):
        once = sanitize_field(text, flag)
        assert sanitize_field(once, flag) == once

    @given(st.text())
    def test_no_delimiter_survives(self, text):
        assert "; " not in sanitize_field(text)


class TestMultivalue:
    def test_empty_list(self):
        assert join_multivalue([]) == ""

    def test_single_item_verbatim(self):
        assert join_multivalue(["A"]) == "A"

    def test_two_items(self):
        assert join_multivalue(["John Doe", "Jane Roe"]) == "John Doe; Jane Roe"

    def test_rejects_embedded_delimiter(self):
        with pytest.raises(ValueError):
            join_multivalue(["Smith; John"])

    def test_sanitize_then_join(self):
        items = [sanitize_field("Smith; John")]
        assert join_multivalue(items) == "Smith, John"

    def test_rejects_newline_and_empty(self):
        with pytest.raises(ValueError):
            join_multivalue(["a\nb"])
        with pytest.raises(ValueError):
            join_multivalue([""])

    def test_split_empty(self):
        assert split_multivalue("") == []

    def test_split_single(self):
        assert split_multivalue("A") == ["A"]

    def test_split_two(self):
        assert split_multivalue("John Doe; Jane Roe") == ["John Doe", "Jane Roe"]

    @given(st.lists(st.text(min_size=1).map(sanitize_field).filter(bool)))
    def test_round_trip(self, items):
        assert split_multivalue(join_multivalue(items)) == items


class TestDates:
    def test_iso_and_compact_forms(self):
        assert parse_date("1976-01-06") == dt.date(1976, 1, 6)
        assert parse_date("19760106") == dt.date(1976, 1, 6)

    def test_invalid_calendar_dates_rejected(self):
        for bad in ("1976-02-30", "19760000", "1976-13-01", "garbage", ""):
            with pytest.raises(ValueError):
                parse_date(bad)

    @given(st.dates(min_value=dt.date(1900, 1, 1), max_value=dt.date(2100, 1, 1)))
    def test_round_trip(self, d):
        assert parse_date(format_date(d)) == d


class TestWeekSpec:
    def test_first_tuesday_1976(self):
        assert WeekSpec(1976, 1).issue_date() == dt.date(1976, 1, 6)

    def test_first_tuesday_2010(self):
        assert WeekSpec(2010, 1).issue_date() == dt.date(2010, 1, 5)

    def test_all_issue_dates_are_tuesdays(self):
        for year in (1976, 1985, 2002, 2013):
            for week in range(1, tuesdays_in_year(year) + 1):
                assert WeekSpec(year, week).issue_date().weekday() == 1

    def test_week_54_rejected_at_construction(self):
        with pytest.raises(ValueError):
            WeekSpec(1976, 54)

    def test_week_beyond_year_rejected(self):
        last = tuesdays_in_year(1976)
        with pytest.raises(ValueError):
            WeekSpec(1976, last + 1).issue_date()

    def test_year_before_1976_rejected(self):
        with pytest.raises(ValueError):
            WeekSpec(1975, 1)

    def test_ordering_lexicographic(self):
        assert WeekSpec(1976, 53) < WeekSpec(1977, 1) < WeekSpec(1977, 2)

    def test_first_grant_tuesday_is_tuesday(self):
        for year in range(1976, 2030):
            assert first_grant_tuesday(year).weekday() == 1


class TestSourceFormat:
    @pytest.mark.parametrize(
        "year,expected",
        [
            (1976, SourceFormat.APS),
            (2001, SourceFormat.APS),
            (2002, SourceFormat.XML2),
            (2004, SourceFormat.XML2),
            (2005, SourceFormat.XML4),
            (2024, SourceFormat.XML4),
        ],
    )
    def test_era_boundaries(self, year, expected):
        assert SourceFormat.for_year(year) is expected

    def test_pre_1976_rejected(self):
        with pytest.raises(ValueError):
            SourceFormat.for_year(1975)


class TestIpcParse:
    def test_spaced_form(self):
        code = ipc_parse("C07D 295/12")
        assert (code.section, code.class_num, code.subclass) == ("C", "07", "D")
        assert code.remainder == "295/12"

    def test_minimal_subclass_only(self):
        code = ipc_parse("A01B")
        assert (code.section, code.class_num, code.subclass, code.remainder) == ("A", "01", "B", "")

    def test_no_section_letter_rejected(self):
        with pytest.raises(IpcParseError):
            ipc_parse("907X")

    def test_fixed_width_forms(self):
        assert ipc_parse("C07D29512").canonical() == "C07D 295/12"
        assert ipc_parse("A47B 4700").canonical() == "A47B 47/00"

    def test_subclass_key(self):
        assert ipc_parse("C07D 295/12").subclass_key() == "C07D"
        assert len(ipc_parse("A01B").subclass_key()) == 4

    @pytest.mark.parametrize(
        "raw",
        ["C07D 295/12", "A01B", "C07D29512", "A47B 4700", "H04l 9/32", "C07 295/12", "G06F  17/30"],
    )
    def test_canonical_stable_under_reparse(self, raw):
        code = ipc_parse(raw)
        assert ipc_parse(code.canonical()) == code


class TestPatentRecord:
    def _minimal(self, **overrides):
        base = dict(wku="123", issue_date=dt.date(1976, 1, 6))
        base.update(overrides)
        return build_record(**base)

    def test_builder_sanitizes(self):
        record = self._minimal(
            title="  Widget\n press ",
            inventors=["Doe; John", "   "],
            claims="line one  \nline two",
        )
        assert record.title == "Widget press"
        assert record.inventors == ("Doe, John",)
        assert record.claims == "line one\nline two"

    def test_constructor_rejects_unsanitized(self):
        with pytest.raises(ValueError):
            PatentRecord(
                wku="1", title="t", app_date=None, issue_date=dt.date(1976, 1, 6),
                inventors=("a; b",), assignees=(), ipc_codes=(), references=(), claims="",
            )
        with pytest.raises(ValueError):
            PatentRecord(
                wku=" 1", title="t", app_date=None, issue_date=dt.date(1976, 1, 6),
                inventors=(), assignees=(), ipc_codes=(), references=(), claims="",
            )

    def test_row_round_trip(self):
        record = self._minimal(
            title="A, strange; title",
            app_date=dt.date(1975, 2, 28),
            inventors=["Doe; John", "Roe, Jane"],
            ipc_codes=[ipc_parse("C07D 295/12")],
            references=["3283699"],
            claims='1. A claim with "quotes",\n   indented; and more.',
        )
        row = record_to_row(record)
        assert len(row) == len(CSV_COLUMNS)
        assert record_from_row(row) == record

    def test_dict_round_trip(self):
        record = self._minimal(
            inventors=["Doe; John"], claims="a\nb", ipc_codes=[ipc_parse("A01B 1/00")]
        )
        assert record_from_dict(record_to_dict(record)) == record


class TestParseReport:
    def test_skip_counts_one_record_and_one_warning(self):
        report = ParseReport()
        report.skip(7, "dropped")
        report.warn(8, "kept")
        assert report.records_skipped == report.record_errors_total == 1
        assert report.warnings_total == 2
        assert report.warnings == [(7, "dropped"), (8, "kept")]

    def test_messages_capped_while_total_counts_on(self):
        report = ParseReport()
        for position in range(MAX_REPORT_MESSAGES + 5):
            report.warn(position, "w")
        assert report.warnings_total == MAX_REPORT_MESSAGES + 5
        assert len(report.warnings) == MAX_REPORT_MESSAGES
