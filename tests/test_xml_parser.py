import datetime as dt
import io
import random

import pytest

from conftest import parse_aps
from patentbulk.model import ParseReport, SourceFormat
from patentbulk.xmlgrants import (
    ElementMapping,
    GrantParseError,
    WrongFileTypeError,
    XmlDocSlice,
    XmlWeeklyParser,
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

    def test_unknown_entity_replaced_with_bracketed_name(self):
        data = MINIMAL_XML4.replace(b"Widget press", b"Widget &bull; press &amp; more")
        report = ParseReport()
        record = parse_grant_xml(doc(data), mapping_for(SourceFormat.XML4), report)
        assert record.title == "Widget [bull] press & more"
        assert report.entity_substitutions == 1

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
