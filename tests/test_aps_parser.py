import datetime as dt
import io
import random

from conftest import parse_aps
from patentbulk.aps import ApsParser


def parse_text(text):
    return parse_aps(io.StringIO(text))


class TestBasicParsing:
    def test_empty_input(self):
        records, report = parse_text("")
        assert records == []
        assert report.records_emitted == 0
        assert report.patn_sections == 0

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

    def test_dclm_and_clms_concatenate_in_file_order(self):
        text = (
            "PATN\nWKU  1\nISD  19760106\n"
            "DCLM\nPAL  design claim.\n"
            "CLMS\nPAR  1. A claim.\n"
        )
        records, _ = parse_text(text)
        assert records[0].claims == "design claim.\n1. A claim."


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
