import datetime as dt
import io
import json
import random
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings, strategies as st

from conftest import parse_aps, run_capped, sink_to_file
from xml_oracle import oracle_split
from patentbulk.model import ParseReport, SourceFormat
from patentbulk.pipeline import CsvSink, JsonlSink, read_csv, read_jsonl
from patentbulk.xmlgrants import (
    ElementMapping,
    GrantParseError,
    WrongFileTypeError,
    XmlDocSlice,
    XmlWeeklyParser,
    _claim_text,
    mapping_for,
    parse_grant_xml,
    split_concatenated_documents,
)

MINIMAL_XML4 = b"""<?xml version="1.0" encoding="UTF-8"?>
<us-patent-grant>
<us-bibliographic-data-grant>
<publication-reference><document-id><doc-number>07000001</doc-number><date>20100105</date></document-id></publication-reference>
<invention-title>Widget press</invention-title>
</us-bibliographic-data-grant>
</us-patent-grant>
"""


def doc(data: bytes, ordinal: int = 0) -> XmlDocSlice:
    return XmlDocSlice(data, ordinal)


class TestSplit:
    def test_single_document(self):
        slices = list(split_concatenated_documents(io.BytesIO(MINIMAL_XML4)))
        assert len(slices) == 1
        assert slices[0].ordinal == 0
        assert slices[0].data == MINIMAL_XML4

    def test_two_documents_in_order(self):
        data = MINIMAL_XML4 + MINIMAL_XML4.replace(b"07000001", b"07000002")
        slices = list(split_concatenated_documents(io.BytesIO(data)))
        assert [s.ordinal for s in slices] == [0, 1]
        assert b"07000001" in slices[0].data
        assert b"07000002" in slices[1].data

    def test_empty_input_is_wrong_file_type(self):
        with pytest.raises(WrongFileTypeError):
            list(split_concatenated_documents(io.BytesIO(b"")))

    def test_non_xml_input_is_wrong_file_type(self):
        with pytest.raises(WrongFileTypeError):
            list(split_concatenated_documents(io.BytesIO(b"PATN\nWKU  1\n")))

    def test_split_conservation(self):
        data = MINIMAL_XML4 + MINIMAL_XML4 + MINIMAL_XML4
        slices = list(split_concatenated_documents(io.BytesIO(data)))
        assert b"".join(s.data for s in slices) == data

    def test_split_conservation_generated(self):
        rng = random.Random(3)
        for _ in range(20):
            n = rng.randrange(1, 9)
            parts = []
            for i in range(n):
                body = MINIMAL_XML4.replace(b"07000001", b"%08d" % i)
                parts.append(body)
                if rng.random() < 0.4:
                    parts.append(b"\n" * rng.randrange(1, 3))
            data = b"".join(parts)
            slices = list(split_concatenated_documents(io.BytesIO(data)))
            assert len(slices) == n
            assert b"".join(s.data for s in slices) == data

    def test_stream_twice_the_memory_cap_splits_under_it(self, data_dir):
        # the fixture document repeated, fed line by line: one document is held at a time
        limit_bytes = 64 * 1024 * 1024
        result = run_capped(
            limit_bytes, "xml", data_dir / "era_xml4.xml", 2 * limit_bytes, timeout=120
        )
        assert result.returncode == 0, result.stderr[-2000:]
        stats = json.loads(result.stdout)
        assert stats["bytes_fed"] >= 2 * limit_bytes
        assert stats["slices"] == stats["repeats"]


# lines of a weekly XML text: a prolog, one not at a line start, near
# misses, whitespace and other bytes
_XML_LINE = st.one_of(
    st.sampled_from(
        [b'<?xml version="1.0"?>', b" <?xml", b"a<?xml", b"<?xm", b"<?XML", b"", b" ", b"\r"]
    ),
    st.binary(max_size=12),
)
_XML_PART = st.one_of(st.just(MINIMAL_XML4.split(b"\n")[:-1]), st.lists(_XML_LINE, max_size=3))


@st.composite
def _xml_texts(draw):
    """(text, pieces): documents and other lines, all ended by ``\\n`` or
    each by ``\\n`` or ``\\r\\n``, the last maybe by nothing, and the same
    text cut at random offsets and inside each ``\\n<?xml``."""
    lines = sum(draw(st.lists(_XML_PART, max_size=6)), [])
    each = st.lists(st.sampled_from((b"\n", b"\r\n")), min_size=len(lines), max_size=len(lines))
    ends = draw(st.one_of(st.just([b"\n"] * len(lines)), each))
    text = b"".join(line + end for line, end in zip(lines, ends))
    if text and draw(st.booleans()):
        text = text.rstrip(b"\r\n")
    cuts = set(draw(st.lists(st.integers(0, len(text)), max_size=8)))
    at = text.find(b"\n<?xml")
    while at >= 0:
        cuts.add(at + draw(st.integers(1, 5)))
        at = text.find(b"\n<?xml", at + 1)
    bounds = [0, *sorted(cuts), len(text)]
    return text, [text[start:end] for start, end in zip(bounds, bounds[1:])]


def _split(split, source):
    """(slices, error text) of ``split`` over ``source``."""
    slices, error = [], None
    try:
        slices.extend(split(source))
    except WrongFileTypeError as exc:
        error = str(exc)
    return slices, error


@settings(max_examples=300)
@given(_xml_texts())
def test_same_slices_as_the_line_splitter(text_and_pieces):
    text, pieces = text_and_pieces
    expected = _split(oracle_split, io.BytesIO(text))
    assert _split(split_concatenated_documents, io.BytesIO(text)) == expected
    assert _split(split_concatenated_documents, io.BytesIO(text).readlines()) == expected
    assert _split(split_concatenated_documents, iter(pieces)) == expected


class TestMappingFor:
    def test_xml4_covers_all_nine_fields(self):
        mapping = mapping_for(SourceFormat.XML4)
        assert set(mapping.fields) == set(ElementMapping.FIELD_NAMES)

    def test_xml2_covers_all_nine_fields(self):
        mapping = mapping_for(SourceFormat.XML2)
        assert set(mapping.fields) == set(ElementMapping.FIELD_NAMES)

    def test_eras_differ_at_root(self):
        assert mapping_for(SourceFormat.XML2).root != mapping_for(SourceFormat.XML4).root

    def test_aps_is_a_contract_violation(self):
        with pytest.raises(ValueError):
            mapping_for(SourceFormat.APS)

    def test_table_missing_a_field_is_named(self):
        mapping = mapping_for(SourceFormat.XML4)
        fields = {name: rule for name, rule in mapping.fields.items() if name != "claims"}
        with pytest.raises(ValueError, match="^mapping table misses fields: claims$"):
            ElementMapping(SourceFormat.XML4, {"root": mapping.root, "fields": fields})


class TestParseGrantXml:
    def test_minimal_document(self):
        record = parse_grant_xml(doc(MINIMAL_XML4), mapping_for(SourceFormat.XML4))
        assert record.wku == "07000001"
        assert record.title == "Widget press"
        assert record.issue_date == dt.date(2010, 1, 5)
        assert record.app_date is None
        assert record.inventors == ()
        assert record.assignees == ()
        assert record.ipc_codes == ()
        assert record.references == ()
        assert record.claims == ""

    def test_three_references_in_document_order(self):
        citations = b"".join(
            b"<us-citation><patcit><document-id><doc-number>%d</doc-number></document-id></patcit></us-citation>" % n
            for n in (3283699, 3357346, 3400000)
        )
        data = MINIMAL_XML4.replace(
            b"</us-bibliographic-data-grant>",
            b"<us-references-cited>" + citations + b"</us-references-cited></us-bibliographic-data-grant>",
        )
        record = parse_grant_xml(doc(data), mapping_for(SourceFormat.XML4))
        assert record.references == ("3283699", "3357346", "3400000")

    def test_truncated_document_is_record_level_error(self):
        truncated = MINIMAL_XML4[: len(MINIMAL_XML4) // 2]
        with pytest.raises(GrantParseError) as excinfo:
            parse_grant_xml(doc(truncated, ordinal=5), mapping_for(SourceFormat.XML4))
        assert excinfo.value.ordinal == 5

    def test_missing_doc_number_is_record_level_error(self):
        data = MINIMAL_XML4.replace(b"<doc-number>07000001</doc-number>", b"")
        with pytest.raises(GrantParseError):
            parse_grant_xml(doc(data), mapping_for(SourceFormat.XML4))

    @pytest.mark.parametrize(
        "doctype",
        [
            b"",
            b'<!DOCTYPE us-patent-grant SYSTEM "grant.dtd" [\n'
            b'<!ENTITY US07000001-D00000.TIF SYSTEM "US07000001-D00000.TIF" NDATA TIF>\n]>\n',
        ],
        ids=["no-doctype", "ndata-entity-declared"],
    )
    def test_unknown_entity_replaced_with_bracketed_name(self, doctype):
        data = MINIMAL_XML4.replace(b"<us-patent-grant>", doctype + b"<us-patent-grant>")
        data = data.replace(b"Widget press", b"Widget &bull; press &amp; more")
        report = ParseReport()
        record = parse_grant_xml(doc(data), mapping_for(SourceFormat.XML4), report)
        assert record.title == "Widget [bull] press & more"
        assert report.entity_substitutions == 1

    def test_undecodable_utf8_falls_back_to_latin1(self):
        data = MINIMAL_XML4.replace(b"Widget press", b"Widget pr\xe9ss")
        record = parse_grant_xml(doc(data), mapping_for(SourceFormat.XML4))
        assert record.title == "Widget pr\u00e9ss"

    def test_lone_surrogate_is_record_level_error(self):
        data = b'<?xml version="1.0" encoding="utf-7"?><us-patent-grant>+2D0-</us-patent-grant>'
        with pytest.raises(GrantParseError) as excinfo:
            parse_grant_xml(doc(data, ordinal=3), mapping_for(SourceFormat.XML4))
        assert excinfo.value.ordinal == 3

    @given(
        st.sampled_from(["UTF-8", "utf-7", "utf-16", "ISO-8859-1", "ascii", "cp1252",
                         "shift_jis", "utf-32", "latin-9", "no-such-codec"]),
        st.lists(st.tuples(st.integers(0, len(MINIMAL_XML4)), st.integers(0, 3),
                           st.binary(max_size=4)), max_size=6),
    )
    def test_mutated_document_is_a_record_or_a_document_error(self, encoding, edits):
        data = MINIMAL_XML4.replace(b"UTF-8", encoding.encode("ascii"))
        for at, cut, insert in edits:
            data = data[:at] + insert + data[at + cut :]
        try:
            parse_grant_xml(doc(data), mapping_for(SourceFormat.XML4))
        except (GrantParseError, WrongFileTypeError):
            pass

    def test_legacy_ipc_and_ipcr_deduplicated(self):
        blocks = (
            b"<classifications-ipcr><classification-ipcr>"
            b"<section>C</section><class>07</class><subclass>D</subclass>"
            b"<main-group>295</main-group><subgroup>12</subgroup>"
            b"</classification-ipcr></classifications-ipcr>"
            b"<classification-ipc>"
            b"<main-classification>C07D295/12</main-classification>"
            b"<further-classification>A01B001/00</further-classification>"
            b"</classification-ipc>"
        )
        data = MINIMAL_XML4.replace(
            b"</us-bibliographic-data-grant>", blocks + b"</us-bibliographic-data-grant>"
        )
        record = parse_grant_xml(doc(data), mapping_for(SourceFormat.XML4))
        assert [c.canonical() for c in record.ipc_codes] == ["C07D 295/12", "A01B 1/00"]

    @pytest.mark.parametrize(
        "groups, expected",
        [(b"<main-group>295</main-group>", "C07D 295"), (b"", "C07D")],
        ids=["no-subgroup", "no-group"],
    )
    def test_ipcr_without_subgroup_or_group(self, groups, expected):
        record = self.ipcr_record(groups)
        assert [c.canonical() for c in record.ipc_codes] == [expected]

    @pytest.mark.parametrize("sink, read", [(CsvSink, read_csv), (JsonlSink, read_jsonl)])
    def test_ipcr_lone_group_reads_back_unchanged(self, tmp_path, sink, read):
        record = self.ipcr_record(b"<main-group>295</main-group>")
        sink_to_file(tmp_path / "out", sink, [record])
        assert list(read(tmp_path / "out")) == [record]

    @staticmethod
    def ipcr_record(groups: bytes):
        block = (
            b"<classifications-ipcr><classification-ipcr>"
            b"<section>C</section><class>07</class><subclass>D</subclass>"
            + groups
            + b"</classification-ipcr></classifications-ipcr>"
        )
        data = MINIMAL_XML4.replace(
            b"</us-bibliographic-data-grant>", block + b"</us-bibliographic-data-grant>"
        )
        return parse_grant_xml(doc(data), mapping_for(SourceFormat.XML4))


class TestLookupRule:
    """Every field but the IPC codes takes the non-empty values of the
    first of its paths that yields any."""

    APPLICANT = (b"<parties><applicants><applicant><addressbook><last-name>Doe</last-name>"
                 b"<first-name>John</first-name></addressbook></applicant></applicants></parties>")

    @staticmethod
    def grant(extra: bytes, title: bytes = b"<invention-title>Widget press</invention-title>"):
        data = MINIMAL_XML4.replace(b"<invention-title>Widget press</invention-title>", title)
        end = b"</us-bibliographic-data-grant>"
        data = data.replace(end, extra + end)
        return parse_grant_xml(doc(data), mapping_for(SourceFormat.XML4))

    def test_scalar_skips_an_empty_first_match_of_its_path(self):
        title = b"<invention-title> </invention-title><invention-title>Widget press</invention-title>"
        assert self.grant(b"", title).title == "Widget press"

    def test_references_fall_through_when_every_match_of_a_path_is_empty(self):
        def cited(outer: bytes, inner: bytes, number: bytes) -> bytes:
            return (b"<%s><%s><patcit><document-id><doc-number>%s</doc-number></document-id>"
                    b"</patcit></%s></%s>" % (outer, inner, number, inner, outer))

        record = self.grant(
            cited(b"us-references-cited", b"us-citation", b" ")
            + cited(b"references-cited", b"citation", b"3283699")
        )
        assert record.references == ("3283699",)

    def test_inventors_fall_back_to_applicants(self):
        assert self.grant(self.APPLICANT).inventors == ("Doe, John",)

    def test_first_path_with_values_wins_over_later_paths(self):
        inventor = (b"<us-parties><inventors><inventor><addressbook><orgname>Roe Labs</orgname>"
                    b"</addressbook></inventor></inventors></us-parties>")
        assert self.grant(inventor + self.APPLICANT).inventors == ("Roe Labs",)

    @pytest.mark.parametrize("field", ["wku", "title", "app_date", "issue_date", "inventors",
                                       "assignees", "references", "claims"])
    def test_a_path_of_empty_matches_falls_through_in_every_field(self, field, data_dir):
        data = (data_dir / "era_xml4.xml").read_bytes()
        expected = parse_grant_xml(doc(data), mapping_for(SourceFormat.XML4))
        fields = dict(mapping_for(SourceFormat.XML4).fields)
        fields[field] = dict(fields[field], paths=[".//blank"] + fields[field]["paths"])
        mapping = ElementMapping(SourceFormat.XML4, {"root": "us-patent-grant", "fields": fields})
        data = data.replace(b"<us-bibliographic-data-grant>",
                            b"<blank> </blank><us-bibliographic-data-grant>")
        assert parse_grant_xml(doc(data), mapping) == expected


class TestEraFixtures:
    def test_xml4_fixture_fields(self, data_dir):
        data = (data_dir / "era_xml4.xml").read_bytes()
        record = parse_grant_xml(doc(data), mapping_for(SourceFormat.XML4))
        assert record.wku == "07641234"
        assert record.title == "Widget press"
        assert record.app_date == dt.date(1995, 6, 7)
        assert record.issue_date == dt.date(1997, 1, 7)
        assert record.inventors == ("Doe, John",)
        assert record.assignees == ("Acme Industries, Inc.",)
        assert [c.canonical() for c in record.ipc_codes] == ["C07D 295/12"]
        # the non-patent-literature citation is excluded
        assert record.references == ("3283699",)
        assert record.claims == (
            "1. A widget press comprising:\n"
            "a frame; and\n"
            "a ram movable relative to said frame."
        )

    def test_xml2_fixture_fields(self, data_dir):
        data = (data_dir / "era_xml2.xml").read_bytes()
        record = parse_grant_xml(doc(data), mapping_for(SourceFormat.XML2))
        assert record.wku == "07641234"
        assert record.title == "Widget press"
        assert record.references == ("3283699",)
        assert record.assignees == ("Acme Industries, Inc.",)

    def test_era_equivalence(self, data_dir):
        aps_text = (data_dir / "era_aps.txt").read_text(encoding="latin-1")
        aps_records, _ = parse_aps(io.StringIO(aps_text))
        xml2_record = parse_grant_xml(
            doc((data_dir / "era_xml2.xml").read_bytes()), mapping_for(SourceFormat.XML2)
        )
        xml4_record = parse_grant_xml(
            doc((data_dir / "era_xml4.xml").read_bytes()), mapping_for(SourceFormat.XML4)
        )
        assert aps_records[0] == xml2_record == xml4_record


class TestWeeklyParser:
    def test_count_conservation_with_bad_document(self, data_dir):
        good = (data_dir / "era_xml4.xml").read_bytes()
        bad = good[: len(good) - 40]  # truncate the final document
        stream = io.BytesIO(good + bad)
        parser = XmlWeeklyParser(SourceFormat.XML4)
        records = list(parser.parse(stream))
        report = parser.report
        assert len(records) == 1
        assert report.slices_seen == 2
        assert report.records_emitted + report.record_errors_total == report.slices_seen
        assert report.warnings[0][0] == 1

    def test_bad_document_is_a_skipped_record(self, data_dir):
        good = (data_dir / "era_xml4.xml").read_bytes()
        parser = XmlWeeklyParser(SourceFormat.XML4)
        truncated = good[:-40] + b"\n"
        records = list(parser.parse(io.BytesIO(good + truncated + good)))
        report = parser.report
        assert report.records_emitted == len(records) == 2
        assert report.records_skipped == 1
        assert report.records_emitted + report.records_skipped == report.slices_seen == 3
        assert report.warnings_total == 1

    def test_determinism(self, data_dir):
        data = (data_dir / "era_xml4.xml").read_bytes() * 3
        first = list(XmlWeeklyParser(SourceFormat.XML4).parse(io.BytesIO(data)))
        second = list(XmlWeeklyParser(SourceFormat.XML4).parse(io.BytesIO(data)))
        assert first == second
        assert len(first) == 3


# text that XML can hold (no NUL) with runs of the whitespace str.split knows
_CLAIM_TEXT = st.lists(
    st.one_of(
        st.text(st.characters(blacklist_characters="\0"), max_size=4),
        st.sampled_from((" ", "  ", "\n", "\t", "\r\n", "\xa0", "\x85", "\x1c", "\u3000")),
    ),
    max_size=6,
).map("".join)
# a claim tree: (tag, text, children, tail), paragraphs among other tags
_CLAIM_TREE = st.recursive(
    st.tuples(st.sampled_from(("p", "b")), _CLAIM_TEXT, st.just(()), _CLAIM_TEXT),
    lambda kids: st.tuples(st.sampled_from(("p", "b")), _CLAIM_TEXT, st.lists(kids, max_size=3), _CLAIM_TEXT),
    max_leaves=8,
)


def _element(tree):
    tag, text, children, tail = tree
    elem = ET.Element(tag)
    elem.text, elem.tail = text, tail
    elem.extend(map(_element, children))
    return elem


@given(_CLAIM_TREE)
def test_claim_text_collapses_each_line_as_alone(tree):
    # the rule that collapsed each marked line on its own
    marked = _element(tree)
    for e in marked.iter():
        if e.tag == "p":
            e.text, e.tail = "\0" + (e.text or ""), "\0" + (e.tail or "")
    lines = (" ".join(line.split()) for line in "".join(marked.itertext()).split("\0"))
    assert _claim_text(_element(tree), frozenset({"p"})) == "\n".join(line for line in lines if line)
