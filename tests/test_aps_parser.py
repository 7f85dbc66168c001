import datetime as dt
import io
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from aps_oracle import OracleApsParser
from conftest import parse_aps
from patentbulk import model
from patentbulk.aps import ApsParser
from patentbulk.model import PatentRecord, WrongFileTypeError
from patentbulk.xmlgrants import split_concatenated_documents


def parse_text(text):
    return parse_aps(io.StringIO(text))


class TestBasicParsing:
    def test_empty_input(self):
        records, report = parse_text("")
        assert records == []
        assert report.records_emitted == 0
        assert report.patn_sections == 0

    def test_lines_without_patn_are_wrong_file_type(self, data_dir):
        with pytest.raises(WrongFileTypeError, match="no PATN header"):
            parse_text((data_dir / "era_xml4.xml").read_text(encoding="utf-8"))

    def test_single_minimal_patent(self):
        text = (
            "PATN\n"
            "WKU  039305672\n"
            "APD  19750106\n"
            "TTL  Widget press\n"
            "ISD  19760106\n"
        )
        records, report = parse_text(text)
        assert len(records) == 1
        record = records[0]
        assert record.wku == "039305672"
        assert record.title == "Widget press"
        assert record.app_date == dt.date(1975, 1, 6)
        assert record.issue_date == dt.date(1976, 1, 6)
        assert record.inventors == ()
        assert record.assignees == ()
        assert record.ipc_codes == ()
        assert record.references == ()
        assert record.claims == ""
        assert report.records_emitted == 1

    def test_two_patents_in_file_order(self, aps_fixture_text):
        records, report = parse_text(aps_fixture_text)
        assert [r.wku for r in records] == ["039305672", "D02394801"]
        assert report.records_emitted == 2
        assert report.patn_sections == 2


class TestFixtureFields:
    def test_first_patent(self, aps_fixture_text):
        record = parse_text(aps_fixture_text)[0][0]
        assert record.inventors == ("Doe, John",)
        assert record.assignees == ("Acme Industries, Inc.",)
        assert [c.canonical() for c in record.ipc_codes] == ["C07D 295/12"]
        assert record.references == ("3283699", "3357346")
        assert record.claims == (
            "What is claimed is:\n"
            "1. A widget press comprising:\n"
            "a frame; and\n"
            "a ram movable relative to said frame."
        )

    def test_second_patent(self, aps_fixture_text):
        records, report = parse_text(aps_fixture_text)
        record = records[1]
        # continuation joins the title with a single space
        assert record.title == "Combined widget rack and display stand"
        # APD 19750000 fails calendar validation: stored absent plus warning
        assert record.app_date is None
        assert any("19750000" in message for _, message in report.warnings)
        assert record.inventors == ("Roe, Jane", "Stone, Alice M.")
        assert record.assignees == ()
        assert [c.canonical() for c in record.ipc_codes] == ["A47B 47/00", "A47F 5/00"]
        # claims continuation keeps the original line break
        assert record.claims == (
            "The ornamental design for a combined widget rack and display\n"
            "stand, as shown."
        )

    def test_uref_isd_does_not_clobber_record_date(self, aps_fixture_text):
        # the UREF sections carry their own ISD/NAM tags; those belong to
        # the citation, not the patent
        record = parse_text(aps_fixture_text)[0][0]
        assert record.issue_date == dt.date(1976, 1, 6)
        assert record.inventors == ("Doe, John",)


class TestSectionMachine:
    def test_patn_flushes_previous_record(self):
        text = "PATN\nWKU  1\nISD  19760106\nPATN\nWKU  2\nISD  19760106\n"
        records, report = parse_text(text)
        assert [r.wku for r in records] == ["1", "2"]

    def test_unknown_section_skipped_until_next_boundary(self):
        text = (
            "PATN\nWKU  1\nISD  19760106\n"
            "FOO\n"
            "NAM  Not An Inventor\n"
            "PATN\nWKU  2\nISD  19760106\nINVT\nNAM  Doe; Jane\n"
        )
        records, _ = parse_text(text)
        assert records[0].inventors == ()
        assert records[1].inventors == ("Doe, Jane",)

    def test_two_icl_lines_append_in_order(self):
        text = "PATN\nWKU  1\nISD  19760106\nCLAS\nICL  A01B  100\nICL  C07D29512\n"
        records, _ = parse_text(text)
        assert [c.canonical() for c in records[0].ipc_codes] == ["A01B 1/00", "C07D 295/12"]

    def test_section_without_wku_skipped_with_warning(self):
        text = "PATN\nTTL  No id here\nISD  19760106\nPATN\nWKU  2\nISD  19760106\n"
        records, report = parse_text(text)
        assert [r.wku for r in records] == ["2"]
        assert report.records_skipped == 1
        assert any("WKU" in message for _, message in report.warnings)

    def test_missing_isd_skips_record(self):
        text = "PATN\nWKU  1\nPATN\nWKU  2\nISD  19760106\n"
        records, report = parse_text(text)
        assert [r.wku for r in records] == ["2"]
        assert report.records_skipped == 1

    def test_invalid_isd_skips_record(self):
        text = "PATN\nWKU  1\nISD  19760230\n"
        records, report = parse_text(text)
        assert records == []
        assert report.records_skipped == 1

    def test_unparseable_icl_keeps_record(self):
        text = "PATN\nWKU  1\nISD  19760106\nCLAS\nICL  907X\nICL  A01B  100\n"
        records, report = parse_text(text)
        assert [c.canonical() for c in records[0].ipc_codes] == ["A01B 1/00"]
        assert any("907X" in message for _, message in report.warnings)

    def test_icl_holding_the_delimiter_dropped_with_warning(self):
        text = "PATN\nWKU  1\nISD  19760106\nCLAS\nICL  A01B; X\nICL  A01B  100\n"
        records, report = parse_text(text)
        assert [c.canonical() for c in records[0].ipc_codes] == ["A01B 1/00"]
        assert report.records_emitted == 1
        assert any("A01B; X" in message for _, message in report.warnings)

    def test_repeated_icl_gives_one_code(self):
        # the same code spelled padded and slashed de-duplicates, the first kept
        text = "PATN\nWKU  1\nISD  19760106\nCLAS\nICL  C07D29512\nICL  C07D 295/12\n"
        records, report = parse_text(text)
        assert [c.canonical() for c in records[0].ipc_codes] == ["C07D 295/12"]
        assert report.warnings_total == 0

    def test_dclm_and_clms_concatenate_in_file_order(self):
        text = (
            "PATN\nWKU  1\nISD  19760106\n"
            "DCLM\nPAL  design claim.\n"
            "CLMS\nPAR  1. A claim.\n"
        )
        records, _ = parse_text(text)
        assert records[0].claims == "design claim.\n1. A claim."

    @pytest.mark.parametrize(
        "text, field, expected, skipped",
        [
            (
                "PATN\nWKU  1\nISD  19760106\nINVT\nNAM  Roe; Jane\nNAM  Doe; John\n     Jr.\n",
                "inventors", ("Roe, Jane", "Doe, John Jr."), 0,
            ),
            (
                "PATN\nWKU  1\nISD  19760106\nCLMS\nPAR  1. A press comprising\n     a frame.\n",
                "claims", "1. A press comprising\na frame.", 0,
            ),
            ("PATN\n     stray\nWKU  1\nISD  19760106\n", "title", "", 1),
            # the continuation extends the dropped duplicate, not the kept title
            ("PATN\nWKU  1\nTTL  A\nTTL  B\n     C\nISD  19760106\n", "title", "A", 1),
        ],
        ids=[
            "list-item-joined", "claims-line-kept", "stray-skipped", "duplicate-scalar-dropped",
        ],
    )
    def test_continuation_rules(self, text, field, expected, skipped):
        records, report = parse_text(text)
        assert getattr(records[0], field) == expected
        assert report.skipped_fields == skipped


class TestReportInvariants:
    def test_count_conservation_on_fixture(self, aps_fixture_text):
        records, report = parse_text(aps_fixture_text)
        assert report.records_emitted + report.records_skipped == report.patn_sections
        assert report.records_emitted == len(records)

    def test_skipped_fields_counted(self, aps_fixture_text):
        _, report = parse_text(aps_fixture_text)
        assert report.skipped_fields == 20

    def test_lines_read(self, aps_fixture_text):
        _, report = parse_text(aps_fixture_text)
        assert report.lines_read == aps_fixture_text.count("\n")

    def test_determinism(self, aps_fixture_text):
        first = parse_text(aps_fixture_text)
        second = parse_text(aps_fixture_text)
        assert first[0] == second[0]
        assert first[1] == second[1]

    def test_order_preservation_generated(self):
        rng = random.Random(42)
        chunks = []
        expected = []
        for i in range(50):
            wku = "%09d" % i
            chunks.append("PATN\nWKU  %s\nISD  19760106\n" % wku)
            expected.append(wku)
            if rng.random() < 0.3:
                chunks.append("FREF\nPNO  999\n")
        records, report = parse_text("".join(chunks))
        assert [r.wku for r in records] == expected
        assert report.patn_sections == 50


def test_count_conservation_generated_streams():
    # randomized streams mixing valid sections, missing WKUs, unknown
    # sections, and stray continuations
    rng = random.Random(7)
    for trial in range(25):
        parts = []
        patn_count = 0
        for _ in range(rng.randrange(0, 12)):
            patn_count += 1
            parts.append("PATN\n")
            if rng.random() < 0.8:
                parts.append("WKU  %09d\n" % rng.randrange(10**9))
            if rng.random() < 0.9:
                parts.append("ISD  19760106\n")
            if rng.random() < 0.3:
                parts.append("ZZZZ\n")
                parts.append("NAM  ghost\n")
            if rng.random() < 0.4:
                parts.append("INVT\nNAM  Doe; J.\n")
            if rng.random() < 0.2:
                parts.append("     stray continuation\n")
        records, report = parse_aps(io.StringIO("".join(parts)))
        assert report.patn_sections == patn_count
        assert report.records_emitted + report.records_skipped == patn_count
        assert report.records_emitted == len(records)


# one line of a fixed-tag stream: a tag and a value, a bare tag, a blank
# line or an untagged (continuation or stray) line
_APS_TAGS = ("PATN", "WKU", "ISD", "APD", "TTL", "ICL", "NAM", "CLMS", "CLAS", "INVT", "PAR", "ZZZZ")
# well-formed values too, so that some sections become records
_APS_VALUE = st.one_of(
    st.text(max_size=12), st.sampled_from(("1", "19760106", "19750000", "C07D29512", "A01B; X"))
)
_APS_LINE = st.one_of(
    st.tuples(st.sampled_from(_APS_TAGS), _APS_VALUE).map(lambda t: "%-4s %s" % t),
    st.sampled_from(_APS_TAGS),
    st.just(""),
    st.text(max_size=12).map(lambda value: "     " + value),
    st.text(max_size=8),
)


# chunks of arbitrary lines, some opened by a header that makes a record
_APS_CHUNK = st.tuples(
    st.sampled_from(((), ("PATN",), ("PATN", "WKU  1", "ISD  19760106"))),
    st.lists(_APS_LINE, max_size=10),
).map(lambda chunk: list(chunk[0]) + chunk[1])


@given(st.lists(_APS_CHUNK, max_size=6))
def test_arbitrary_line_streams_give_records_or_wrong_file_type(chunks):
    parser = ApsParser()
    try:
        records = list(parser.parse(io.StringIO("\n".join(sum(chunks, [])))))
    except WrongFileTypeError:
        assert parser.report.patn_sections == 0
        return
    report = parser.report
    assert all(isinstance(r, PatentRecord) for r in records)
    assert report.records_emitted == len(records)
    assert report.records_emitted + report.records_skipped == report.patn_sections


def test_streaming_is_lazy():
    # records must be yielded before the stream is exhausted
    def lines():
        yield "PATN\n"
        yield "WKU  1\n"
        yield "ISD  19760106\n"
        yield "PATN\n"
        raise AssertionError("second section should not be needed")

    parser = ApsParser()
    stream = parser.parse(lines())
    first = next(stream)
    assert first.wku == "1"


# Differential check against the line-at-a-time parser (tests/aps_oracle.py).
# Claims runs take the one-step path unless they hold a header or a tag with
# a blank value; those fall back to the line rules.  Values may end in "\r".
_CLAIMS_LINE = st.one_of(
    st.text(st.characters(blacklist_characters="\n"), min_size=1, max_size=10).map(
        lambda value: "PAR  " + value
    ),
    st.text(st.characters(blacklist_characters="\n"), max_size=10).map(
        lambda value: "     " + value
    ),
    st.sampled_from(
        ("PAR ", "PAL  ", "     ", "", "PAR  x\r", "CLMS", "DCLM  y", "ABST  z", "INVT", "NAM  X")
    ),
)
_SECTION = st.tuples(
    st.sampled_from(((), ("PATN",), ("PATN", "WKU  1", "ISD  19760106"))),
    st.lists(_APS_LINE, max_size=5),
    st.lists(st.tuples(st.sampled_from(("CLMS", "DCLM")), st.lists(_CLAIMS_LINE, max_size=8))),
).map(lambda s: list(s[0]) + s[1] + [line for header, run in s[2] for line in [header, *run]])


@st.composite
def _aps_texts(draw):
    """(text, pieces): a fixed-tag text, its lines all ended by ``\\n``, all
    by ``\\r\\n`` or each by either, the last maybe by nothing, and the
    same text cut at random offsets and inside each ``\\nPATN``."""
    lines = sum(draw(st.lists(_SECTION, max_size=5)), [])
    end = st.sampled_from(("\n", "\r\n"))
    each = st.lists(end, min_size=len(lines), max_size=len(lines))
    ends = draw(st.one_of(end.map(lambda e: [e] * len(lines)), each))
    text = "".join(line + end for line, end in zip(lines, ends))
    if text and draw(st.booleans()):
        text = text.rstrip("\r\n")
    cuts = set(draw(st.lists(st.integers(0, len(text)), max_size=8)))
    at = text.find("\nPATN")
    while at >= 0:
        cuts.add(at + draw(st.integers(1, 4)))
        at = text.find("\nPATN", at + 1)
    bounds = [0, *sorted(cuts), len(text)]
    return text, [text[start:end] for start, end in zip(bounds, bounds[1:])]


def _run(parser, source):
    """(records, error text) of ``parser`` over ``source``, and its report."""
    records, error = [], None
    try:
        records.extend(parser.parse(source))
    except WrongFileTypeError as exc:
        error = str(exc)
    return records, error, parser.report


@settings(max_examples=300)
@given(_aps_texts())
def test_same_records_and_report_as_the_line_parser(text_and_pieces):
    text, pieces = text_and_pieces
    expected = _run(OracleApsParser(), io.StringIO(text))
    assert _run(ApsParser(), io.StringIO(text)) == expected
    assert _run(ApsParser(), iter(pieces)) == expected
    assert _run(ApsParser(), io.StringIO(text).readlines()) == expected


def test_same_records_and_report_as_the_line_parser_on_the_fixture(aps_fixture_text):
    expected = _run(OracleApsParser(), io.StringIO(aps_fixture_text))
    assert expected[0]
    for size in (1, 7, 64, len(aps_fixture_text)):
        pieces = [aps_fixture_text[i : i + size] for i in range(0, len(aps_fixture_text), size)]
        assert _run(ApsParser(), pieces) == expected


def test_lines_before_the_first_patn_are_not_held():
    # a file of another era streams through to its WrongFileTypeError
    parser = ApsParser()

    def lines():
        for number in range(1000):
            assert parser.report.lines_read == number
            yield "<claim>A widget press.</claim>\n"

    with pytest.raises(WrongFileTypeError, match="no PATN header in 1000 lines"):
        list(parser.parse(lines()))

    # the XML splitter's cutter passes on each line before the first prolog as it is read
    fed = []

    def xml_lines():
        for number in range(1000):
            fed.append(number)
            yield b"PATN\n"

    for count, chunk in enumerate(model.cut_before(xml_lines(), b"\n<?xml"), 1):
        assert (chunk, len(fed)) == (b"PATN\n", count)
    assert count == 1000
    with pytest.raises(WrongFileTypeError, match="no XML document prolog"):
        list(split_concatenated_documents(xml_lines()))


def test_stream_is_read_in_pieces():
    sizes = []

    class Counted:
        def read(self, size=-1):
            sizes.append(size)
            return super().read(size)

    class Text(Counted, io.StringIO):
        pass

    class Binary(Counted, io.BytesIO):
        pass

    list(ApsParser().parse(Text("PATN\nWKU  1\nISD  19760106\n")))
    list(split_concatenated_documents(Binary(b'<?xml version="1.0"?>\n<a/>\n')))
    assert sizes == [model.READ_SIZE] * 4


@pytest.mark.parametrize(
    "text",
    [
        "PATN\nWKU  1\nISD  19760106\nCLMS\n" + "PAL  A widget press with a lever.\n" * 80000,
        "<" * 40 * model.READ_SIZE + "\nPATN\nWKU  1\nISD  19760106\n",
        b'<?xml version="1.0"?>\n<claims>\n' + b"<claim>A widget press.</claim>\n" * 90000,
        b"<" * 40 * model.READ_SIZE + b'\n<?xml version="1.0"?>\n<a/>\n',
    ],
    ids=["one-section", "one-line-before-patn", "one-document", "one-line-before-prolog"],
)
def test_text_read_in_pieces_is_joined_once(text):
    # a section, a document or a line spanning many reads is joined at its
    # end, not at each read: the characters joined stay within twice those
    # of the input
    joined, cut_code = [], model.cut_before.__code__

    def count_joins(frame, event, arg):
        if event == "c_call" and frame.f_code is cut_code and arg.__name__ == "join":
            joined.append(sum(map(len, frame.f_locals["parts"])))

    if isinstance(text, str):
        units = ApsParser().parse(io.StringIO(text))
    else:
        units = split_concatenated_documents(io.BytesIO(text))
    sys.setprofile(count_joins)
    try:
        units = list(units)
    finally:
        sys.setprofile(None)
    if isinstance(text, str):
        assert [record.wku for record in units] == ["1"]
    else:
        assert [(s.data, s.ordinal) for s in units] == [(text[text.find(b"<?xml") :], 0)]
    assert len(text) > 40 * model.READ_SIZE and sum(joined) <= 2 * len(text)


@pytest.mark.parametrize(
    "text, key",
    [
        ("<" * 3 * model.READ_SIZE + "\nPATN\n" + "PAL  A widget press.\n" * 20000 + "PATN\n", "\nPATN"),
        (b"<" * 3 * model.READ_SIZE + b"\n<?xml?>\n" + b"<a/>\n" * 60000 + b"<?xml?>\n", b"\n<?xml"),
    ],
    ids=["aps", "xml"],
)
def test_pieces_are_dropped_once_joined(text, key):
    # while the consumer works on a chunk spanning many reads, the cutter
    # holds the text joined from the pieces, not the pieces as well
    chunks = model.cut_before(io.BytesIO(text) if isinstance(text, bytes) else io.StringIO(text), key)
    cut = []
    for chunk in chunks:
        assert chunks.gi_frame.f_locals["parts"] == []
        cut.append(chunk)
    assert text[:0].join(cut) == text and len(cut) == 3
