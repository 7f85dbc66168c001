"""The record rules both eras share (``model.record_fields``): what skips a
patent, what only warns, and how IPC codes merge, checked directly and
through each era's parser."""

import datetime as dt
import io

import pytest

from patentbulk import xmlgrants
from patentbulk.aps import ApsParser
from patentbulk.model import GrantParseError, ParseReport, SourceFormat, record_fields


def fields(values, report=None):
    return record_fields(values, 7, report if report is not None else ParseReport())


class TestRecordFields:
    def test_scalars_take_their_first_value(self):
        result = fields({"wku": [" 1 ", "2"], "issue_date": ["19760106", "19770104"],
                         "title": ["A", "B"]})
        assert (result["wku"], result["title"]) == ("1", "A")
        assert result["issue_date"] == dt.date(1976, 1, 6)
        assert "app_date" not in result

    def test_claims_join_line_by_line(self):
        result = fields({"wku": ["1"], "issue_date": ["19760106"], "claims": ["a", "b"]})
        assert result["claims"] == "a\nb"

    @pytest.mark.parametrize(
        "values, reason",
        [
            ({"issue_date": ["19760106"]}, "patent without WKU skipped"),
            ({"wku": ["  "], "issue_date": ["19760106"]}, "patent without WKU skipped"),
            ({"wku": ["1"]}, "1: missing or invalid issue date '', skipped"),
            ({"wku": ["1"], "issue_date": ["19760230"]},
             "1: missing or invalid issue date '19760230', skipped"),
        ],
        ids=["no-wku", "blank-wku", "no-issue-date", "invalid-issue-date"],
    )
    def test_skips_raise_with_the_position(self, values, reason):
        with pytest.raises(GrantParseError) as excinfo:
            fields(values)
        assert (excinfo.value.ordinal, excinfo.value.reason) == (7, reason)

    def test_grant_parse_error_still_importable_from_xmlgrants(self):
        assert xmlgrants.GrantParseError is GrantParseError

    def test_bad_app_date_and_ipc_only_warn(self):
        report = ParseReport()
        result = fields(
            {"wku": ["1"], "issue_date": ["19760106"], "app_date": ["19750000"],
             "ipc_codes": ["907X", "A01B  100"]},
            report,
        )
        assert "app_date" not in result
        assert [c.canonical() for c in result["ipc_codes"]] == ["A01B 1/00"]
        assert report.warnings == [
            (7, "1: invalid application date '19750000' stored as absent"),
            (7, "1: unparseable IPC code '907X' skipped"),
        ]

    def test_ipc_codes_deduplicate_by_canonical_form_first_kept(self):
        result = fields({"wku": ["1"], "issue_date": ["19760106"],
                         "ipc_codes": ["C07D29512", "A01B 1/00", "C07D 295/12", "A01B  100"]})
        assert [c.canonical() for c in result["ipc_codes"]] == ["C07D 295/12", "A01B 1/00"]


# one patent with an invalid application date (June 31), an unparseable
# IPC code and a repeated IPC code, in the fixed-tag era and in XML4
FAULTY_APS = """PATN
WKU  07641234
APD  19950631
TTL  Widget press
ISD  19970107
CLAS
ICL  C07D29512
ICL  907X
ICL  C07D 295/12
"""

FAULTY_XML4 = b"""<?xml version="1.0" encoding="UTF-8"?>
<us-patent-grant>
<us-bibliographic-data-grant>
<publication-reference><document-id><doc-number>07641234</doc-number><date>19970107</date></document-id></publication-reference>
<application-reference><document-id><doc-number>08486123</doc-number><date>19950631</date></document-id></application-reference>
<invention-title>Widget press</invention-title>
<classifications-ipcr><classification-ipcr><section>C</section><class>07</class><subclass>D</subclass><main-group>295</main-group><subgroup>12</subgroup></classification-ipcr></classifications-ipcr>
<classification-ipc><main-classification>907X</main-classification><further-classification>C07D 295/12</further-classification></classification-ipc>
</us-bibliographic-data-grant>
</us-patent-grant>
"""


def parse_both(aps_text, xml_data):
    """(records, warning messages) of each era's parser, positions dropped."""
    results = []
    for parser, stream in [
        (ApsParser(), io.StringIO(aps_text)),
        (xmlgrants.XmlWeeklyParser(SourceFormat.XML4), io.BytesIO(xml_data)),
    ]:
        records = list(parser.parse(stream))
        results.append((records, [message for _, message in parser.report.warnings]))
    return results


class TestEraEquivalenceOfFaults:
    def test_faulty_patent_gives_equal_records_and_warnings(self):
        (aps_records, aps_warnings), (xml_records, xml_warnings) = parse_both(
            FAULTY_APS, FAULTY_XML4
        )
        assert aps_records == xml_records
        (record,) = aps_records
        assert record.app_date is None
        assert [c.canonical() for c in record.ipc_codes] == ["C07D 295/12"]
        assert aps_warnings == xml_warnings == [
            "07641234: invalid application date '19950631' stored as absent",
            "07641234: unparseable IPC code '907X' skipped",
        ]

    @pytest.mark.parametrize(
        "aps_edit, xml_edit, reason",
        [
            (("WKU  07641234\n", ""), (b"<doc-number>07641234</doc-number>", b""),
             "patent without WKU skipped"),
            (("ISD  19970107", "ISD  19970230"), (b"<date>19970107</date>", b"<date>19970230</date>"),
             "07641234: missing or invalid issue date '19970230', skipped"),
        ],
        ids=["no-wku", "invalid-issue-date"],
    )
    def test_skip_reasons_agree(self, aps_edit, xml_edit, reason):
        results = parse_both(FAULTY_APS.replace(*aps_edit), FAULTY_XML4.replace(*xml_edit))
        assert results == [([], [reason]), ([], [reason])]
