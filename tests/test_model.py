import datetime as dt
import string

import pytest
from hypothesis import assume, given, strategies as st

from patentbulk import model
from patentbulk.model import (
    CSV_COLUMNS,
    MAX_REPORT_MESSAGES,
    MULTIVALUE_DELIMITER,
    IpcCode,
    IpcParseError,
    ParseReport,
    PatentRecord,
    SourceFormat,
    WeekSpec,
    build_record,
    first_grant_tuesday,
    format_date,
    ipc_parse,
    ipc_subclass_key,
    join_multivalue,
    parse_date,
    record_from_row,
    record_to_dict,
    record_to_row,
    row_from_dict,
    sanitize_field,
    split_multivalue,
    tuesdays_in_year,
)


ARABIC_DIGITS = "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669"
TO_ARABIC_DIGITS = str.maketrans("0123456789", ARABIC_DIGITS)


def _date_by_rule(raw):
    """The ``_DATE_RE`` rule alone, without the fast path."""
    m = model._DATE_RE.match(raw.strip())
    if m is None:
        raise ValueError("unrecognized date: %r" % (raw,))
    return dt.date(*map(int, m.groups()))


def _outcome(parse, raw):
    try:
        return parse(raw)
    except ValueError as error:
        return type(error), str(error)


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

    @given(
        st.lists(
            st.one_of(
                st.text(max_size=4),
                st.sampled_from(("\r", "\r\n", "\n", "\x85", "\x1c", " ", "\t", "\xa0", "\n\n ")),
            )
        ).map("".join)
    )
    def test_claims_mode_keeps_the_per_line_rule(self, text):
        # the rule before the carriage-return guard and the C-level strip
        lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
        expected = "\n".join(line.rstrip() for line in lines).strip("\n")
        assert sanitize_field(text, preserve_newlines=True) == expected

    @given(st.text(), st.booleans())
    def test_idempotent(self, text, flag):
        once = sanitize_field(text, flag)
        assert sanitize_field(once, flag) == once

    @given(st.text())
    def test_no_delimiter_survives(self, text):
        assert "; " not in sanitize_field(text)


# claim lines as a parser may give them: pieces of text, line breaks of
# either kind, items that end in or hold a line break, Unicode whitespace
# (NEL, NBSP, ideographic space) and blank items, at either end too
CLAIM_LINES = st.lists(
    st.lists(
        st.one_of(
            st.text(max_size=4),
            st.sampled_from(
                ("\r", "\r\n", "\n", "\x85", "\xa0", "\u3000", " ", "\t", "abc", "  2. A")
            ),
        ),
        max_size=4,
    ).map("".join)
)


class TestClaimsLines:
    """``build_record(claims=lines)``: the claims of the lines' text."""

    def _claims(self, claims):
        return build_record(wku="1", issue_date=dt.date(1976, 1, 6), claims=claims).claims

    @given(CLAIM_LINES)
    def test_lines_give_the_claims_of_their_text(self, lines):
        assert self._claims(lines) == self._claims("\n".join(lines))

    @given(CLAIM_LINES, st.sampled_from(("", " ", "\xa0", "\n", "\r")))
    def test_blank_first_and_last_lines(self, lines, blank):
        lines = [blank, *lines, blank]
        assert self._claims(lines) == sanitize_field("\n".join(lines), preserve_newlines=True)

    @pytest.mark.parametrize(
        "lines, claims",
        [
            (["abc\n", "def"], "abc\n\ndef"),  # the break is read before the rstrip
            (["a\r  ", "b"], "a\n\nb"),
            (["a\rb", "c "], "a\nb\nc"),
            (["", " 1. A", "\u3000", "  b\x85", ""], " 1. A\n\n  b"),
            ((), ""),
        ],
    )
    def test_breaks_inside_a_line(self, lines, claims):
        assert self._claims(lines) == claims == self._claims("\n".join(lines))


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

    @given(
        st.one_of(
            st.text(),
            st.text(alphabet="0123456789-" + ARABIC_DIGITS + " \tT+:", min_size=8, max_size=12),
            st.dates().map(format_date),  # years below 1000 too
            st.dates().map(lambda d: "%04d%02d%02d" % (d.year, d.month, d.day)),
            st.tuples(st.integers(0, 9999), st.integers(0, 99), st.integers(0, 99)).map(
                lambda ymd: "%04d-%02d-%02d" % ymd  # 2001-02-30, month 00, ...
            ),
            st.dates().map(lambda d: format_date(d).translate(TO_ARABIC_DIGITS)),
            st.builds(
                lambda d, at, char: format_date(d)[:at] + char + format_date(d)[at + 1 :],
                st.dates(min_value=dt.date(1000, 1, 1)),
                st.integers(0, 9),
                st.sampled_from(" +:-TWx" + ARABIC_DIGITS[1]),
            ),
            st.dates().map(lambda d: d.strftime("%G-W%V-%u")),  # ISO week, 10 characters
        ),
        st.sampled_from(["", " ", "\t", "\n"]),
        st.sampled_from(["", " ", "\n"]),
    )
    def test_same_outcome_as_the_regex_rule(self, spelling, before, after):
        # the fast path for the spelling format_date writes must neither
        # accept nor reject a text other than the rule does
        raw = before + spelling + after
        assert _outcome(parse_date, raw) == _outcome(_date_by_rule, raw)


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

    @pytest.mark.parametrize("raw", ["A01B; X", "C07D 295/12; A01B 1/00"])
    def test_delimiter_in_canonical_form_rejected(self, raw):
        with pytest.raises(IpcParseError, match="delimiter"):
            ipc_parse(raw)

    @given(st.from_regex(r"[A-H]\d{2}[A-Z]?", fullmatch=True), st.text(alphabet="X1/; \n"))
    def test_parsed_code_joins_as_one_cell(self, head, tail):
        try:
            canonical = ipc_parse(head + tail).canonical()
        except IpcParseError:
            return
        assert split_multivalue(join_multivalue([canonical])) == [canonical]

    @given(st.text(alphabet="X1/; \n\r"))
    def test_built_code_joins_as_one_cell(self, remainder):
        # the constructor, not the writer, rejects a code that would split its cell
        try:
            canonical = IpcCode("A", "01", "B", remainder).canonical()
        except IpcParseError:
            assert "; " in remainder or "\n" in remainder or "\r" in remainder
            return
        assert split_multivalue(join_multivalue([canonical])) == [canonical]

    def test_fixed_width_forms(self):
        assert ipc_parse("C07D29512").canonical() == "C07D 295/12"
        assert ipc_parse("A47B 4700").canonical() == "A47B 47/00"

    def test_subclass_key(self):
        assert ipc_parse("C07D 295/12").subclass_key() == "C07D"
        assert len(ipc_parse("A01B").subclass_key()) == 4

    @given(
        st.one_of(
            st.text(),
            st.text(alphabet="AChz0179 /\tX" + ARABIC_DIGITS),
            st.builds(
                lambda head, at, char: head[:at] + char + head[at + 1 :],
                st.from_regex(r"[A-H][0-9]{2}[A-Z] 295/12", fullmatch=True),
                st.integers(0, 3),
                st.sampled_from("Zc 1X" + ARABIC_DIGITS[7]),
            ),
            st.builds(
                lambda head, tail, spell: spell(head + tail),
                st.from_regex(r"[A-HZ][0-9]{2}[A-Z]?", fullmatch=True),
                st.sampled_from(["", " 295/12", "29512", " 4700", "/", "9"]),
                st.sampled_from(
                    [
                        str,
                        str.lower,
                        lambda code: code[:3] + code[3:].lower(),
                        lambda code: " " + code,
                        lambda code: code.translate(TO_ARABIC_DIGITS),
                    ]
                ),
            ),
        )
    )
    def test_subclass_key_takes_the_head_rule_of_ipc_parse(self, raw):
        assume(MULTIVALUE_DELIMITER not in raw)  # a cell's items never hold it
        try:
            code = ipc_parse(raw)
        except IpcParseError:
            with pytest.raises(IpcParseError):
                ipc_subclass_key(raw)
            return
        assert ipc_subclass_key(raw) == (code.subclass_key() if code.subclass else None)

    @pytest.mark.parametrize(
        "raw",
        [
            "C07D 295/12", "A01B", "C07D29512", "A47B 4700", "H04l 9/32", "C07 295/12",
            "G06F  17/30", "C07D295", "C07D 295", "C07D0069", "C07D 64  1", "C07  X",
            "C07\t X1",
        ],
    )
    def test_canonical_stable_under_reparse(self, raw):
        code = ipc_parse(raw)
        assert ipc_parse(code.canonical()) == code
        assert str(code) == code.canonical()

    @given(
        st.from_regex(r"[A-H]\d{2}[A-Z]?", fullmatch=True),
        st.text(alphabet=" \t"),
        st.text(alphabet="0123456789 /\t" + string.ascii_uppercase),
    )
    def test_any_remainder_stable_under_reparse(self, head, blanks, remainder):
        code = ipc_parse(head + blanks + remainder)
        assert ipc_parse(code.canonical()) == code

    @pytest.mark.parametrize(
        "raw, canonical",
        [
            ("C07D  705", "C07D 7/05"),  # a right-aligned group in the 5-character field
            ("C07D2951", "C07D 295/1"),  # four bare digits
            ("C07D0069", "C07D 6/9"),  # a zero-padded group, as in "009/04"
            ("C07D 295", "C07D 295"),  # a lone group does not fill the field
            ("C07D  4700", "C07D 47/00"),  # read as the canonical " 4700" is
            ("C07 4700", "C07 47/00"),  # the head keeps the space before the field
        ],
    )
    def test_packed_group_readings(self, raw, canonical):
        assert ipc_parse(raw).canonical() == canonical


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
        for title in ("two\nlines", "two\rlines"):
            with pytest.raises(ValueError, match="title may not contain newlines"):
                PatentRecord(
                    wku="1", title=title, app_date=None, issue_date=dt.date(1976, 1, 6),
                    inventors=(), assignees=(), ipc_codes=(), references=(), claims="",
                )
        # a code built directly, not parsed, is checked when it is built
        for remainder in ("1/00; X", "1/00\n2/00", "1/00\r"):
            with pytest.raises(IpcParseError, match="delimiter"):
                IpcCode("A", "01", "B", remainder)

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
        assert record_from_row(row_from_dict(record_to_dict(record))) == record


class TestValueTypes:
    """Records, IPC codes and week specs are named tuples whose constructor
    checks their fields."""

    def _values(self):
        record = build_record(wku="1", issue_date=dt.date(1976, 1, 6),
                              ipc_codes=[ipc_parse("C07D 295/12")])
        return record, record.ipc_codes[0], WeekSpec(1976, 1)

    def test_immutable(self):
        for value, name in zip(self._values(), ("title", "remainder", "week")):
            with pytest.raises(AttributeError):
                setattr(value, name, getattr(value, name))
            with pytest.raises(AttributeError):
                value.extra = 1

    def test_replace_checks_as_the_constructor_does(self):
        record, code, week = self._values()
        assert week._replace(week=53) == WeekSpec(1976, 53)
        assert code._replace(remainder="1/00").canonical() == "C07D 1/00"
        assert record._replace(title="Widget").title == "Widget"
        with pytest.raises(ValueError, match="week must be in 1..53"):
            week._replace(week=54)
        with pytest.raises(IpcParseError, match="delimiter"):
            code._replace(remainder="1/00; X")
        with pytest.raises(ValueError, match="title may not contain newlines"):
            record._replace(title="two\nlines")

    def test_equal_values_hash_alike(self):
        for value in self._values():
            copy = type(value)(*value)
            assert copy == value == tuple(value) and hash(copy) == hash(value)
            assert copy._asdict() == dict(zip(value._fields, value))


class TestParseReport:
    def test_skip_counts_one_record_and_one_warning(self):
        report = ParseReport()
        report.skip(7, "dropped")
        report.warn(8, "kept")
        assert report.records_skipped == report.record_errors_total == 1
        assert report.warnings_total == 2
        assert report.warnings == [(7, "dropped"), (8, "kept")]

    def test_equal_when_every_count_and_message_is(self):
        first, second = ParseReport(), ParseReport()
        for report in (first, second):
            report.warn(3, "kept")
        assert first == second and not first != second
        second.lines_read += 1
        assert first != second
        assert first != vars(first) and ParseReport.__hash__ is None

    def test_messages_capped_while_total_counts_on(self):
        report = ParseReport()
        for position in range(MAX_REPORT_MESSAGES + 5):
            report.warn(position, "w")
        assert report.warnings_total == MAX_REPORT_MESSAGES + 5
        assert len(report.warnings) == MAX_REPORT_MESSAGES
