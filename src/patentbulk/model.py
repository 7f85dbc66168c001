"""Unified patent record model shared by the parsers, sinks, and analytics.

One granted patent becomes one rectangular record of nine fields.
Multi-valued fields (inventors, assignees, IPC codes, references) are kept
as tuples in memory and joined with ``"; "`` on flat-file surfaces.  The
claims text is the only field allowed to keep embedded newlines; every
other string field is collapsed to a single line at construction.
"""

from __future__ import annotations

import datetime as dt
import re
import string
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from typing import IO, AnyStr, Iterable, Iterator, NamedTuple, Optional, Sequence, Union

MULTIVALUE_DELIMITER = "; "

# Column kinds.  CLAIMS is the one text that may hold newlines; LIST holds strings.
TEXT, CLAIMS, DATE, OPTIONAL_DATE, LIST, IPC_LIST = (
    "text", "claims", "date", "optional date", "list", "IPC list"
)

# Every column's name and kind, in the canonical flat-file order; the
# codecs below and PatentRecord's checks all read it.  Changing the order
# breaks every golden file.
COLUMNS = (
    ("wku", TEXT), ("title", TEXT), ("app_date", OPTIONAL_DATE), ("issue_date", DATE),
    ("inventors", LIST), ("assignees", LIST), ("ipc_codes", IPC_LIST), ("references", LIST),
    ("claims", CLAIMS),
)
CSV_COLUMNS = tuple(name for name, _ in COLUMNS)
LIST_COLUMNS = frozenset(name for name, kind in COLUMNS if kind in (LIST, IPC_LIST))


def sanitize_field(raw: str, preserve_newlines: bool = False) -> str:
    """Normalize raw source text for storage in a record field.

    With ``preserve_newlines`` off (everything but claims) all whitespace
    runs collapse to a single space, the ends are trimmed, and any
    occurrence of the multi-value delimiter ``"; "`` is rewritten to
    ``", "`` so that joining and splitting stay true inverses.

    With ``preserve_newlines`` on (claims only) the line structure is
    kept: line endings are normalized to ``\\n``, trailing whitespace is
    trimmed per line, and blank lines at either end are dropped.
    Idempotent in both modes.
    """
    if preserve_newlines:
        text = raw.replace("\r\n", "\n").replace("\r", "\n") if "\r" in raw else raw
        return "\n".join(map(str.rstrip, text.split("\n"))).strip("\n")
    collapsed = " ".join(raw.split())
    return collapsed.replace(MULTIVALUE_DELIMITER, ", ")


def _unjoinable(item: str) -> bool:
    """Whether ``item`` would make a ``"; "`` join ambiguous: it is empty or
    holds the delimiter or a line break.  The one rule for list items."""
    return not item or MULTIVALUE_DELIMITER in item or "\n" in item or "\r" in item


def join_multivalue(items: Sequence[str]) -> str:
    """Join already-sanitized values with the two-character delimiter.

    Rejects items that would make the join ambiguous; hitting this means
    a sanitization bug upstream, not bad source data.
    """
    for item in items:
        if _unjoinable(item):
            raise ValueError("multi-value item empty or not sanitized: %r" % (item,))
    return MULTIVALUE_DELIMITER.join(items)


def split_multivalue(cell: str) -> list[str]:
    """Inverse of :func:`join_multivalue`; an empty cell is an empty list."""
    if not cell:
        return []
    return cell.split(MULTIVALUE_DELIMITER)


_DATE_RE = re.compile(r"(\d{4})-?(\d{2})-?(\d{2})$")


def parse_date(raw: str) -> dt.date:
    """Parse ``YYYY-MM-DD`` or the bulk files' ``YYYYMMDD`` into a date.

    Raises ValueError for anything that is not a valid Gregorian calendar
    date (bad month lengths, month 00, Feb 30, ...).  The spelling
    :func:`format_date` writes skips the regex; any other goes through it.
    """
    if len(raw) == 10 and raw[4] == "-" and raw[7] == "-" and raw.isascii():
        try:
            return dt.date.fromisoformat(raw)
        except ValueError:
            pass  # the rule below accepts or rejects it, with its own message
    m = _DATE_RE.match(raw.strip())
    if m is None:
        raise ValueError("unrecognized date: %r" % (raw,))
    year, month, day = m.groups()
    return dt.date(int(year), int(month), int(day))


def format_date(d: dt.date) -> str:
    return d.isoformat()


FIRST_YEAR = 1976  # the first year of bulk grant data


def first_grant_tuesday(year: int) -> dt.date:
    """First Tuesday of the year (USPTO issues grants on Tuesdays)."""
    jan1 = dt.date(year, 1, 1)
    return jan1 + dt.timedelta(days=(1 - jan1.weekday()) % 7)


def tuesdays_in_year(year: int) -> int:
    return ((dt.date(year, 12, 31) - first_grant_tuesday(year)).days // 7) + 1


@dataclass(frozen=True, order=True)
class WeekSpec:
    """One weekly bulk file, identified by (year, week index).

    Week ``w`` is the w-th grant Tuesday of the year; ordering is
    lexicographic on (year, week).
    """

    year: int
    week: int

    def __post_init__(self) -> None:
        if self.year < FIRST_YEAR:
            raise ValueError("bulk grant data starts in %d, got year %d" % (FIRST_YEAR, self.year))
        if not 1 <= self.week <= 53:
            raise ValueError("week must be in 1..53, got %d" % self.week)

    def issue_date(self) -> dt.date:
        """Grant Tuesday this week maps to; raises if the year runs out."""
        d = first_grant_tuesday(self.year) + dt.timedelta(weeks=self.week - 1)
        if d.year != self.year:
            raise ValueError(
                "%d has only %d grant Tuesdays, week %d is out of range"
                % (self.year, tuesdays_in_year(self.year), self.week)
            )
        return d

    def label(self) -> str:
        return "%dwk%02d" % (self.year, self.week)


READ_SIZE = 64 * 1024  # the block in which every stream of the package is read and buffered


def cut_before(source: Union[IO[AnyStr], Iterable[AnyStr]], key: AnyStr) -> Iterator[AnyStr]:
    """The input cut before each line-start ``key[1:]``, the marker after
    ``key``'s newline (``"\\nPATN"``, ``b"\\n<?xml"``): each chunk that
    starts with it whole, and what comes before the first in runs of whole
    lines.  ``source`` is a stream, read ``READ_SIZE`` at a time, or an
    iterable of pieces, such as lines, text or bytes as ``key`` is.  Pieces
    are joined, and then dropped, only when one cuts the input or ends a
    line before the first marker: while a chunk is used, the cutter holds
    the text it was cut from and the last read, whatever the input's size.
    """
    empty, newline, marker, width = key[:0], key[:1], key[1:], len(key) - 1
    pieces = iter(partial(source.read, READ_SIZE), empty) if hasattr(source, "read") else source
    parts = []  # the input since the last cut, which starts a line
    marked = False  # whether that input starts with the marker
    tail = newline  # the last ``width`` characters read; the input starts a line
    for piece in pieces:
        window = tail + piece
        tail = window[-width:]
        parts.append(piece)
        if key not in window and (marked or newline not in piece):
            continue
        text, parts = empty.join(parts), []
        begin, cut = 0, text.find(key)
        while cut >= 0:
            yield text[begin : cut + 1]
            begin = cut + 1
            cut = text.find(key, begin)
        marked = text.startswith(marker, begin)
        end = text.rfind(newline) + 1
        if not marked and end > begin:
            yield text[begin:end]
            begin = end
        parts.append(text[begin:])
    text, parts = empty.join(parts), []
    if text:
        yield text


# Warning messages kept verbatim; beyond this only the total grows, so a
# dirty multi-gigabyte file cannot balloon the report.
MAX_REPORT_MESSAGES = 100


@dataclass
class ParseReport:
    """Counters and anomalies accumulated over one parse, either era.

    A position is a line number for the fixed-tag era and a document
    ordinal for the XML eras.  Each era's own counters stay 0 for the
    other era.
    """

    records_emitted: int = 0
    records_skipped: int = 0
    warnings_total: int = 0
    warnings: list[tuple[int, str]] = field(default_factory=list)
    # fixed-tag era
    lines_read: int = 0
    patn_sections: int = 0
    skipped_fields: int = 0
    # XML eras
    slices_seen: int = 0
    entity_substitutions: int = 0

    @property
    def record_errors_total(self) -> int:
        """Former XML-era name of ``records_skipped``, still read by
        ``perfbench/tracing.py``."""
        return self.records_skipped

    def warn(self, position: int, message: str) -> None:
        self.warnings_total += 1
        if len(self.warnings) < MAX_REPORT_MESSAGES:
            self.warnings.append((position, message))

    def skip(self, position: int, message: str) -> None:
        """A record dropped whole; also counted among the warnings."""
        self.records_skipped += 1
        self.warn(position, message)


class WrongFileTypeError(ValueError):
    """Input is not a file of the era it is parsed as."""


class SourceFormat(Enum):
    """Era tag selecting the parser: fixed-tag text or an XML generation."""

    APS = "aps"
    XML2 = "xml2"
    XML4 = "xml4"

    @classmethod
    def for_year(cls, year: int) -> "SourceFormat":
        if year < FIRST_YEAR:
            raise ValueError("no bulk grant data before %d" % FIRST_YEAR)
        if year <= 2001:
            return cls.APS
        if year <= 2004:
            return cls.XML2
        return cls.XML4


class IpcParseError(ValueError):
    """Raised for IPC text without a section letter or two-digit class."""


# a space before the class; any blanks before a subclass letter ("C07  X" is
# C07X, as its canonical form is); blanks before the remainder stay in it
_IPC_HEAD = re.compile(r"([A-H])\s?(\d{2})(?:\s*([A-Z]))?")
# the characters of a canonical head, ``C07D``: no space, ASCII, upper case
_SECTIONS, _DIGITS, _LETTERS = map(frozenset, ("ABCDEFGH", string.digits, string.ascii_uppercase))


_SLASHED_GROUP = re.compile(r"(\d+)/(\d+)$")


def _normalize_ipc_remainder(rest: str) -> str:
    collapsed = " ".join(rest.split())
    # The fixed-tag era packs group and subgroup into one field: five
    # characters, a right-aligned 3-character main group then a 2-digit
    # subgroup ("29512", "  705"), or four bare digits ("2951" is 295/1).
    # Other text reads as its canonical form, " " + collapsed, would, so
    # that form re-parses to the same code ("  4700" is 47/00).
    for field in (rest.rstrip(), " " + collapsed):
        group, subgroup = field[:3].lstrip(" "), field[3:]
        packed = len(field) == 5 or len(field) == 4 and len(group) == 3
        if packed and group.isdecimal() and subgroup.isdecimal():
            collapsed = "%s/%s" % (group, subgroup)
            break
    # Packed fields and XML-era legacy blocks zero-pad the main group
    # ("00069", "009/04"); strip the padding so the same code spelled
    # either way de-duplicates.  Subgroup leading zeros are significant
    # and stay.
    m = _SLASHED_GROUP.match(collapsed)
    if m is not None:
        return "%s/%s" % (m.group(1).lstrip("0") or "0", m.group(2))
    return collapsed


@dataclass(frozen=True)
class IpcCode:
    """Structured International Patent Classification symbol."""

    section: str
    class_num: str
    subclass: Optional[str]
    remainder: str = ""

    def __post_init__(self) -> None:
        if _unjoinable(self.canonical()):
            raise IpcParseError("IPC code holds the delimiter or a newline: %r" % self.canonical())

    def canonical(self) -> str:
        head = self.section + self.class_num + (self.subclass or "")
        return "%s %s" % (head, self.remainder) if self.remainder else head

    def subclass_key(self) -> str:
        """Aggregation key, e.g. ``C07D``; 4 characters when subclass present."""
        return self.section + self.class_num + (self.subclass or "")

    def __str__(self) -> str:
        return self.canonical()


def _ipc_head(raw: str) -> re.Match:
    """The section, class and optional subclass at the start of an IPC
    symbol, matched in its stripped, upper-cased text (``m.string``)."""
    text = raw.strip().upper()
    if not text:
        raise IpcParseError("empty IPC code")
    m = _IPC_HEAD.match(text)
    if m is None:
        raise IpcParseError("malformed IPC code: %r" % (raw,))
    return m


def ipc_subclass_key(raw: str) -> Optional[str]:
    """The 4-character subclass key of an IPC symbol (``C07D`` of
    ``c 07 d 295/12``), or None when it has no subclass; only the head is
    read, by the same rule as :func:`ipc_parse`; a head spelled as
    :meth:`IpcCode.canonical` spells it skips the regex."""
    if (
        len(raw) >= 4
        and raw[0] in _SECTIONS
        and raw[1] in _DIGITS
        and raw[2] in _DIGITS
        and raw[3] in _LETTERS
    ):
        return raw[:4]
    section, class_num, subclass = _ipc_head(raw).groups()
    return None if subclass is None else section + class_num + subclass


def ipc_parse(raw: str) -> IpcCode:
    """Parse an IPC symbol from any of the bulk formats' spellings.

    Tolerates the fixed-tag era's padded fields ("C07D29512", "A47B 4700")
    and the XML eras' slashed or concatenated forms ("C07D 295/12").  The
    canonical form is stable under re-parse; one that holds the ``"; "``
    delimiter raises IpcParseError, as :class:`IpcCode` does.
    """
    m = _ipc_head(raw)
    section, class_num, subclass = m.groups()
    return IpcCode(section, class_num, subclass, _normalize_ipc_remainder(m.string[m.end() :]))


_ONE_LINE_COLUMNS = tuple(name for name, kind in COLUMNS if kind == TEXT)
_STRING_LIST_COLUMNS = tuple(name for name, kind in COLUMNS if kind == LIST)


@dataclass(frozen=True)
class PatentRecord:
    """One granted patent in the unified nine-field rectangular schema.

    Immutable after construction and safe to share across workers.  Use
    :func:`build_record` to construct from raw parser output; the
    constructor itself validates the sanitization invariants.
    """

    wku: str
    title: str
    app_date: Optional[dt.date]
    issue_date: dt.date
    inventors: tuple[str, ...]
    assignees: tuple[str, ...]
    ipc_codes: tuple[IpcCode, ...]
    references: tuple[str, ...]
    claims: str

    def __post_init__(self) -> None:
        if not self.wku or self.wku != self.wku.strip():
            raise ValueError("wku must be non-empty with no surrounding whitespace")
        for name in _ONE_LINE_COLUMNS:
            if "\n" in getattr(self, name) or "\r" in getattr(self, name):
                raise ValueError("%s may not contain newlines" % name)
        # an IpcCode checks its own canonical form
        for name in _STRING_LIST_COLUMNS:
            for item in getattr(self, name):
                if _unjoinable(item):
                    raise ValueError("%s element empty or not sanitized: %r" % (name, item))

    @property
    def subclass_keys(self) -> tuple[str, ...]:
        """Distinct 4-character subclass keys of the IPC codes, first-seen
        order; codes without a subclass have no key and are left out."""
        return tuple(
            dict.fromkeys(c.subclass_key() for c in self.ipc_codes if c.subclass is not None)
        )


class Grant(NamedTuple):
    """The three fields the analyses read, decoded from a CSV row by
    :func:`grant_from_row` without building a :class:`PatentRecord`."""

    issue_date: dt.date
    app_date: Optional[dt.date]
    subclass_keys: tuple[str, ...]


def build_record(
    *,
    wku: str,
    issue_date: dt.date,
    title: str = "",
    app_date: Optional[dt.date] = None,
    inventors: Iterable[str] = (),
    assignees: Iterable[str] = (),
    ipc_codes: Iterable[IpcCode] = (),
    references: Iterable[str] = (),
    claims: str = "",
) -> PatentRecord:
    """Sanitize raw field text and assemble a record.

    List fields are sanitized element-wise with empties dropped; claims
    keep their line structure.
    """

    def clean(items: Iterable[str]) -> tuple[str, ...]:
        return tuple(s for s in (sanitize_field(i) for i in items) if s)

    return PatentRecord(
        wku=sanitize_field(wku),
        title=sanitize_field(title),
        app_date=app_date,
        issue_date=issue_date,
        inventors=clean(inventors),
        assignees=clean(assignees),
        ipc_codes=tuple(ipc_codes),
        references=clean(references),
        claims=sanitize_field(claims, preserve_newlines=True),
    )


class GrantParseError(Exception):
    """One patent could not be turned into a record; the run continues.

    ``ordinal`` is the patent's position: the line of its PATN header in
    the fixed-tag era, the document ordinal in the XML eras.
    """

    def __init__(self, ordinal: int, reason: str) -> None:
        super().__init__("position %d: %s" % (ordinal, reason))
        self.ordinal = ordinal
        self.reason = reason

    def __reduce__(self) -> tuple:
        return type(self), (self.ordinal, self.reason)


_SCALAR_FIELDS = tuple(name for name, kind in COLUMNS if kind in (TEXT, DATE, OPTIONAL_DATE))


def record_fields(values: dict[str, list[str]], position: int, report: ParseReport) -> dict:
    """Turn one patent's raw values, keyed by record field, into
    :func:`build_record`'s keyword arguments; both eras' parsers end here.

    A scalar field takes its first value and the claims join theirs line
    by line.  A patent without a WKU, or whose issue date is missing or
    invalid, raises GrantParseError.  A present but invalid application
    date is stored as absent and an unparseable IPC code is dropped, each
    with a warning in ``report``.  IPC codes de-duplicate by canonical
    form, the first kept.
    """
    fields = {name: values[name][0].strip() for name in _SCALAR_FIELDS if values.get(name)}
    wku = fields.get("wku", "")
    if not wku:
        raise GrantParseError(position, "patent without WKU skipped")
    issue_raw = fields.get("issue_date", "")
    try:
        fields["issue_date"] = parse_date(issue_raw)
    except ValueError:
        raise GrantParseError(
            position, "%s: missing or invalid issue date %r, skipped" % (wku, issue_raw)
        ) from None
    app_raw = fields.pop("app_date", "")
    if app_raw:
        try:
            fields["app_date"] = parse_date(app_raw)
        except ValueError:
            report.warn(position, "%s: invalid application date %r stored as absent" % (wku, app_raw))
    codes: dict[str, IpcCode] = {}
    for raw in values.get("ipc_codes", ()):
        try:
            code = ipc_parse(raw)
        except IpcParseError:
            report.warn(position, "%s: unparseable IPC code %r skipped" % (wku, raw))
            continue
        codes.setdefault(code.canonical(), code)
    fields.update((name, values.get(name, ())) for name in _STRING_LIST_COLUMNS)
    fields.update(ipc_codes=codes.values(), claims="\n".join(values.get("claims", ())))
    return fields


# kind -> (field value -> JSON value, CSV cell -> field value)
_CODECS = {
    TEXT: (str, str),
    CLAIMS: (str, str),
    DATE: (format_date, parse_date),
    OPTIONAL_DATE: (
        lambda d: None if d is None else format_date(d),
        lambda cell: parse_date(cell) if cell else None,
    ),
    LIST: (list, lambda cell: tuple(split_multivalue(cell))),
    IPC_LIST: (
        lambda codes: [c.canonical() for c in codes],
        lambda cell: tuple(ipc_parse(c) for c in split_multivalue(cell)),
    ),
}
_ENCODERS = tuple((name, _CODECS[kind][0]) for name, kind in COLUMNS)
_DECODERS = tuple((name, _CODECS[kind][1]) for name, kind in COLUMNS)
_APP_DATE, _ISSUE_DATE, _IPC_CODES = map(CSV_COLUMNS.index, ("app_date", "issue_date", "ipc_codes"))


def record_to_dict(record: PatentRecord) -> dict:
    """JSON-friendly mapping with keys in schema order; lists stay arrays
    and an absent application date is None."""
    return {name: encode(getattr(record, name)) for name, encode in _ENCODERS}


def record_to_row(record: PatentRecord) -> list[str]:
    """The values of :func:`record_to_dict` as CSV cells: None as ``""``, a
    list joined with ``"; "``, which the constructors keep unambiguous."""
    return [
        MULTIVALUE_DELIMITER.join(value) if type(value) is list else value or ""
        for value in record_to_dict(record).values()
    ]


def record_from_row(row: Sequence[str]) -> PatentRecord:
    """Rebuild a record from a CSV row, each cell decoded by its column's
    kind; exact inverse of record_to_row."""
    if len(row) != len(COLUMNS):
        raise ValueError("expected %d cells, got %d" % (len(COLUMNS), len(row)))
    return PatentRecord(**{name: decode(cell) for (name, decode), cell in zip(_DECODERS, row)})


def grant_from_row(row: Sequence[str]) -> Grant:
    """Decode a CSV row's issue date, application date and IPC subclass
    keys; the other six cells are not read.  A wrong cell count, a bad
    date or an IPC code without a section and class raises ValueError,
    as in :func:`record_from_row`."""
    if len(row) != len(COLUMNS):
        raise ValueError("expected %d cells, got %d" % (len(COLUMNS), len(row)))
    app = parse_date(row[_APP_DATE]) if row[_APP_DATE] else None
    issue = parse_date(row[_ISSUE_DATE])
    keys: list[str] = []
    for code in split_multivalue(row[_IPC_CODES]):
        key = ipc_subclass_key(code)
        if key is not None and key not in keys:
            keys.append(key)
    return Grant(issue, app, tuple(keys))


def row_from_dict(data: object) -> list[str]:
    """The CSV row of a JSON value that :func:`record_to_dict` could have
    given: a value that is not an object, a field of the wrong type and a
    list item that :func:`join_multivalue` rejects raise ValueError; the
    cells are not decoded."""
    if not isinstance(data, dict):
        raise ValueError("expected a JSON object, got %s" % type(data).__name__)
    row = []
    for name in CSV_COLUMNS:
        value = data.get(name)
        if name in LIST_COLUMNS:
            value = [] if value is None else value
            if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
                raise ValueError("%s must be a list of strings" % name)
            value = join_multivalue(value)
        elif not isinstance(value, (str, type(None))):
            raise ValueError("%s must be a string, not %s" % (name, type(value).__name__))
        row.append(value or "")
    return row
