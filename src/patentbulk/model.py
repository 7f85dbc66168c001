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
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, NamedTuple, Optional, Sequence

MULTIVALUE_DELIMITER = "; "

# Canonical flat-file column order.  Changing this breaks every golden file.
CSV_COLUMNS = (
    "wku",
    "title",
    "app_date",
    "issue_date",
    "inventors",
    "assignees",
    "ipc_codes",
    "references",
    "claims",
)


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
        text = raw.replace("\r\n", "\n").replace("\r", "\n")
        return "\n".join(line.rstrip() for line in text.split("\n")).strip("\n")
    collapsed = " ".join(raw.split())
    return collapsed.replace(MULTIVALUE_DELIMITER, ", ")


def join_multivalue(items: Sequence[str]) -> str:
    """Join already-sanitized values with the two-character delimiter.

    Rejects items that would make the join ambiguous; hitting this means
    a sanitization bug upstream, not bad source data.
    """
    for item in items:
        if not item:
            raise ValueError("multi-value item is empty; sanitize upstream")
        if MULTIVALUE_DELIMITER in item or "\n" in item or "\r" in item:
            raise ValueError(
                "multi-value item contains the delimiter or a newline: %r" % (item,)
            )
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
    date (bad month lengths, month 00, Feb 30, ...).
    """
    m = _DATE_RE.match(raw.strip())
    if m is None:
        raise ValueError("unrecognized date: %r" % (raw,))
    year, month, day = m.groups()
    return dt.date(int(year), int(month), int(day))


def format_date(d: dt.date) -> str:
    return d.isoformat()


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
        if self.year < 1976:
            raise ValueError("bulk grant data starts in 1976, got year %d" % self.year)
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
        if year < 1976:
            raise ValueError("no bulk grant data before 1976")
        if year <= 2001:
            return cls.APS
        if year <= 2004:
            return cls.XML2
        return cls.XML4


class IpcParseError(ValueError):
    """Raised for IPC text without a section letter or two-digit class."""


_IPC_HEAD = re.compile(r"([A-H])\s?(\d{2})\s?([A-Z])?")


_SLASHED_GROUP = re.compile(r"(\d+)/(\d+)$")


def _normalize_ipc_remainder(rest: str) -> str:
    # The fixed-tag era packs group/subgroup into a 4-5 char field with a
    # right-aligned 3-char main group and no slash ("29512", " 4700").
    tail = rest.rstrip()
    if (
        "/" not in tail
        and 4 <= len(tail) <= 5
        and all(c.isdigit() or c == " " for c in tail)
    ):
        group = tail[:3].strip()
        subgroup = tail[3:].strip()
        if group and subgroup:
            return "%s/%s" % (group, subgroup)
    collapsed = " ".join(rest.split())
    # XML-era legacy blocks zero-pad the main group ("009/04"); strip the
    # padding so the same code spelled both ways de-duplicates.  Subgroup
    # leading zeros are significant and stay.
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

    def canonical(self) -> str:
        head = self.section + self.class_num + (self.subclass or "")
        return "%s %s" % (head, self.remainder) if self.remainder else head

    def subclass_key(self) -> str:
        """Aggregation key, e.g. ``C07D``; 4 characters when subclass present."""
        return self.section + self.class_num + (self.subclass or "")

    def __str__(self) -> str:  # pragma: no cover - convenience
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
    read, by the same rule as :func:`ipc_parse`."""
    section, class_num, subclass = _ipc_head(raw).groups()
    return None if subclass is None else section + class_num + subclass


def ipc_parse(raw: str) -> IpcCode:
    """Parse an IPC symbol from any of the bulk formats' spellings.

    Tolerates the fixed-tag era's padded fields ("C07D29512", "A47B 4700")
    and the XML eras' slashed or concatenated forms ("C07D 295/12").  The
    canonical form is stable under re-parse.
    """
    m = _ipc_head(raw)
    section, class_num, subclass = m.groups()
    remainder = _normalize_ipc_remainder(m.string[m.end() :])
    # the head holds no "; ", so only the remainder can put it in the canonical form
    if MULTIVALUE_DELIMITER in remainder:
        raise IpcParseError("IPC code holds the %r delimiter: %r" % (MULTIVALUE_DELIMITER, raw))
    return IpcCode(section, class_num, subclass, remainder)


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
        for name in ("wku", "title"):
            if "\n" in getattr(self, name) or "\r" in getattr(self, name):
                raise ValueError("%s may not contain newlines" % name)
        for name in ("inventors", "assignees", "references"):
            for item in getattr(self, name):
                if not item:
                    raise ValueError("%s contains an empty element" % name)
                if MULTIVALUE_DELIMITER in item or "\n" in item or "\r" in item:
                    raise ValueError(
                        "%s element not sanitized: %r" % (name, item)
                    )

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


_SCALAR_FIELDS = ("wku", "title", "app_date", "issue_date")


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
    return dict(
        fields,
        inventors=values.get("inventors", ()),
        assignees=values.get("assignees", ()),
        ipc_codes=codes.values(),
        references=values.get("references", ()),
        claims="\n".join(values.get("claims", ())),
    )


def record_to_row(record: PatentRecord) -> list[str]:
    """Flatten a record into the canonical CSV cell order."""
    return [
        record.wku,
        record.title,
        format_date(record.app_date) if record.app_date else "",
        format_date(record.issue_date),
        join_multivalue(record.inventors),
        join_multivalue(record.assignees),
        join_multivalue([c.canonical() for c in record.ipc_codes]),
        join_multivalue(record.references),
        record.claims,
    ]


def record_from_row(row: Sequence[str]) -> PatentRecord:
    """Rebuild a record from a CSV row; exact inverse of record_to_row."""
    if len(row) != len(CSV_COLUMNS):
        raise ValueError("expected %d cells, got %d" % (len(CSV_COLUMNS), len(row)))
    wku, title, app, issue, inv, assg, ipc, refs, claims = row
    return PatentRecord(
        wku=wku,
        title=title,
        app_date=parse_date(app) if app else None,
        issue_date=parse_date(issue),
        inventors=tuple(split_multivalue(inv)),
        assignees=tuple(split_multivalue(assg)),
        ipc_codes=tuple(ipc_parse(c) for c in split_multivalue(ipc)),
        references=tuple(split_multivalue(refs)),
        claims=claims,
    )


def grant_from_row(row: Sequence[str]) -> Grant:
    """Decode a CSV row's issue date, application date and IPC subclass
    keys; the other six cells are not read.  A wrong cell count, a bad
    date or an IPC code without a section and class raises ValueError,
    as in :func:`record_from_row`."""
    if len(row) != len(CSV_COLUMNS):
        raise ValueError("expected %d cells, got %d" % (len(CSV_COLUMNS), len(row)))
    app = parse_date(row[2]) if row[2] else None
    issue = parse_date(row[3])
    keys: list[str] = []
    for code in split_multivalue(row[6]):
        key = ipc_subclass_key(code)
        if key is not None and key not in keys:
            keys.append(key)
    return Grant(issue, app, tuple(keys))


def record_to_dict(record: PatentRecord) -> dict:
    """JSON-friendly mapping with keys in schema order; lists stay arrays."""
    return {
        "wku": record.wku,
        "title": record.title,
        "app_date": format_date(record.app_date) if record.app_date else None,
        "issue_date": format_date(record.issue_date),
        "inventors": list(record.inventors),
        "assignees": list(record.assignees),
        "ipc_codes": [c.canonical() for c in record.ipc_codes],
        "references": list(record.references),
        "claims": record.claims,
    }


_LIST_FIELDS = ("inventors", "assignees", "ipc_codes", "references")


def record_from_dict(data: object) -> PatentRecord:
    """Rebuild a record from a JSON value; exact inverse of record_to_dict.

    Decodes through :func:`record_from_row`, so a value that is not an
    object, a missing ``wku`` or ``issue_date`` and a field of the wrong
    type all raise ValueError.
    """
    if not isinstance(data, dict):
        raise ValueError("expected a JSON object, got %s" % type(data).__name__)
    row = []
    for name in CSV_COLUMNS:
        value = data.get(name)
        if name in _LIST_FIELDS:
            value = [] if value is None else value
            if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
                raise ValueError("%s must be a list of strings" % name)
            value = join_multivalue(value)
        elif not isinstance(value, (str, type(None))):
            raise ValueError("%s must be a string, not %s" % (name, type(value).__name__))
        row.append(value or "")
    return record_from_row(row)
