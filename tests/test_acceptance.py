"""Acceptance suite: one test per criterion, one pass/fail line each.

Criteria 1-7 run offline.  Criteria 8-11 download real weekly files
(hundreds of megabytes) and are opt-in: set PATENTBULK_LIVE=1 and give
the downloads a persistent cache via PATENTBULK_CACHE_DIR.
"""

import io
import json
import os
import random
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

import oracle
from conftest import FakeTransport, make_zip, parse_aps, random_records, run_capped, sink_to_file
from patentbulk.fetch import FetchError, fetch, resolve_plan
from patentbulk.model import (
    WeekSpec,
    join_multivalue,
    sanitize_field,
    split_multivalue,
)
from patentbulk.pipeline import (
    CsvSink,
    JsonlSink,
    PipelineConfig,
    get_bulk_patent_data,
    read_csv,
    read_jsonl,
)
from patentbulk.xmlgrants import split_concatenated_documents

DATA = Path(__file__).parent / "data"

LIVE = os.environ.get("PATENTBULK_LIVE") == "1"
live = pytest.mark.skipif(not LIVE, reason="live USPTO downloads disabled (set PATENTBULK_LIVE=1)")


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print("[criterion %s] FAIL %s" % (number, description))
        raise
    print("[criterion %s] PASS %s" % (number, description))


def test_criterion_1_fixture_goldens(tmp_path):
    with criterion(1, "two-patent fixture converts to byte-identical golden CSV/JSONL in <1s"):
        start = time.perf_counter()
        with open(DATA / "aps_two_patents.txt", encoding="latin-1") as handle:
            records, _ = parse_aps(handle)
        csv_path = tmp_path / "out.csv"
        jsonl_path = tmp_path / "out.jsonl"
        sink_to_file(csv_path, CsvSink, records)
        sink_to_file(jsonl_path, JsonlSink, records)
        elapsed = time.perf_counter() - start
        assert csv_path.read_bytes() == (DATA / "golden_two_patents.csv").read_bytes()
        assert jsonl_path.read_bytes() == (DATA / "golden_two_patents.jsonl").read_bytes()
        assert elapsed < 1.0


def test_criterion_2_era_equivalence():
    with criterion(2, "one patent encoded as APS, XML2, and XML4 yields equal records in <1s"):
        from patentbulk.model import SourceFormat
        from patentbulk.xmlgrants import XmlDocSlice, mapping_for, parse_grant_xml

        start = time.perf_counter()
        with open(DATA / "era_aps.txt", encoding="latin-1") as handle:
            (aps_record,), _ = parse_aps(handle)
        xml2_record = parse_grant_xml(
            XmlDocSlice((DATA / "era_xml2.xml").read_bytes(), 0), mapping_for(SourceFormat.XML2)
        )
        xml4_record = parse_grant_xml(
            XmlDocSlice((DATA / "era_xml4.xml").read_bytes(), 0), mapping_for(SourceFormat.XML4)
        )
        elapsed = time.perf_counter() - start
        assert aps_record == xml2_record == xml4_record
        assert elapsed < 1.0


def test_criterion_3_serialization_round_trip(tmp_path):
    with criterion(3, "CSV/JSONL round trip on 1000 records; split/join inverse on 10000 lists"):
        records = random_records(1000, seed=103)
        csv_path = tmp_path / "r.csv"
        jsonl_path = tmp_path / "r.jsonl"
        sink_to_file(csv_path, CsvSink, records)
        sink_to_file(jsonl_path, JsonlSink, records)
        assert list(read_csv(csv_path)) == records
        assert list(read_jsonl(jsonl_path)) == records

        rng = random.Random(301)
        alphabet = "abc XYZ;,\t\n\"'éß0123456789-/"
        for _ in range(10_000):
            items = []
            for _ in range(rng.randrange(0, 5)):
                raw = "".join(rng.choice(alphabet) for _ in range(rng.randrange(1, 12)))
                cleaned = sanitize_field(raw)
                if cleaned:
                    items.append(cleaned)
            assert split_multivalue(join_multivalue(items)) == items


def test_criterion_4_count_conservation():
    with criterion(4, "APS records+skipped == PATN count; XML slices == prologs, bytes conserved"):
        rng = random.Random(401)
        for _ in range(40):
            parts = []
            patn_count = 0
            for _ in range(rng.randrange(0, 15)):
                patn_count += 1
                parts.append("PATN\n")
                if rng.random() < 0.75:
                    parts.append("WKU  %09d\n" % rng.randrange(10**9))
                if rng.random() < 0.85:
                    parts.append("ISD  19760106\n")
                if rng.random() < 0.25:
                    parts.append("WEIRD\nXYZ  junk data\n")
                if rng.random() < 0.5:
                    parts.append("INVT\nNAM  Doe; J.\n")
                if rng.random() < 0.25:
                    parts.append("CLMS\nPAR  1. A claim.\n     continued claim text.\n")
            records, report = parse_aps(io.StringIO("".join(parts)))
            assert report.patn_sections == patn_count
            assert report.records_emitted + report.records_skipped == patn_count
            assert report.records_emitted == len(records)

        base = (DATA / "era_xml4.xml").read_bytes()
        for _ in range(25):
            n = rng.randrange(1, 10)
            blob = []
            for i in range(n):
                blob.append(base.replace(b"07641234", b"%08d" % i))
                if rng.random() < 0.5:
                    blob.append(b"\n")
            data = b"".join(blob)
            slices = list(split_concatenated_documents(io.BytesIO(data)))
            assert len(slices) == data.count(b"<?xml")
            assert b"".join(s.data for s in slices) == data


def test_criterion_5_streaming_bound():
    with criterion(5, "1 GB synthetic APS stream parses under a 256 MB ceiling in <5min"):
        target_bytes = 1_000_000_000
        limit_bytes = 256 * 1024 * 1024
        start = time.perf_counter()
        result = run_capped(
            limit_bytes, "aps", DATA / "aps_two_patents.txt", target_bytes, timeout=300
        )
        elapsed = time.perf_counter() - start
        assert result.returncode == 0, result.stderr[-2000:]
        stats = json.loads(result.stdout)
        assert stats["bytes_fed"] >= target_bytes
        assert stats["records"] == stats["repeats"] * 2
        assert stats["patn_sections"] == stats["records"]
        assert elapsed < 300


def test_criterion_6_analytics_oracle_equivalence():
    with criterion(6, "all four analyses match brute force on 500 records; quartile examples"):
        from collections import Counter

        from patentbulk.analytics import (
            _five_number,
            lag_days,
            lag_stats_by_class,
            lag_stats_by_year,
            top_ipc_subclasses,
            weekly_counts,
        )

        records = random_records(500, seed=601)
        assert [lag_days(r) for r in records] == [oracle.oracle_lag_days(r) for r in records]
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

        # documented hand-computed examples
        assert _five_number((), Counter([5])) == (5.0, 5.0, 5.0, 5.0, 5.0)
        assert _five_number((), Counter([1, 2, 3, 4])) == (1.0, 1.5, 2.5, 3.5, 4.0)


def test_criterion_7_fetch_atomicity_idempotence(tmp_path):
    with criterion(7, "kill-mid-download leaves no cache entry; double fetch hits network once"):
        plan = resolve_plan(WeekSpec(1976, 1), "http://fake.test/bulk")
        payload = make_zip({"w.txt": b"PATN\nWKU  1\nISD  19760106\n" * 50})

        dying = FakeTransport({plan.url: (payload, len(payload) // 2)})
        with pytest.raises(FetchError):
            fetch(plan, tmp_path / "cache", transport=dying, retries=2, sleep=lambda s: None)
        cache = tmp_path / "cache"
        visible = [p.name for p in cache.iterdir() if not p.name.endswith(".lock")]
        assert visible == []

        healthy = FakeTransport({plan.url: payload})
        first = fetch(plan, cache, transport=healthy)
        second = fetch(plan, cache, transport=healthy)
        assert first == second
        assert len(healthy.requests) == 1


# --- live criteria: real downloads, opt-in ---------------------------------


@pytest.fixture(scope="module")
def live_dataset(tmp_path_factory):
    """The collected corpus: 1976-1980, weeks 1-8, converted once."""
    cache_dir = os.environ.get("PATENTBULK_CACHE_DIR") or str(
        tmp_path_factory.mktemp("live-cache")
    )
    out_path = tmp_path_factory.mktemp("live-out") / "dataset.csv"
    weeks = [WeekSpec(y, w) for y in range(1976, 1981) for w in range(1, 9)]
    out = open(out_path, "w", encoding="utf-8", newline="")
    sink = CsvSink(out)
    summary = get_bulk_patent_data(
        weeks,
        sink,
        PipelineConfig(cache_dir=cache_dir, jobs=4, progress=lambda m: print(m, file=sys.stderr)),
    )
    out.close()
    records = list(read_csv(out_path))
    return records, summary


@live
def test_criterion_8_live_week_count(tmp_path):
    with criterion(8, "week (1976, 1) yields a record count in [1000, 1600]"):
        cache_dir = os.environ.get("PATENTBULK_CACHE_DIR") or str(tmp_path / "cache")
        out = io.StringIO()
        summary = get_bulk_patent_data(
            [WeekSpec(1976, 1)], CsvSink(out), PipelineConfig(cache_dir=cache_dir)
        )
        assert 1000 <= summary.records_written <= 1600


@live
def test_criterion_9_live_top_classes(live_dataset):
    with criterion(9, "C07D and C07C are both in the top-10 subclasses of 1976-1980 wk1-8"):
        from patentbulk.analytics import top_ipc_subclasses

        records, _ = live_dataset
        top = {entry.subclass_key for entry in top_ipc_subclasses(records, 10)}
        assert "C07D" in top
        assert "C07C" in top


@live
def test_criterion_10_live_lag_medians(live_dataset):
    with criterion(10, "lag-by-year median < 730 days for every year; delta reported"):
        from patentbulk.analytics import lag_stats_by_year, median_lag_delta

        records, _ = live_dataset
        stats = lag_stats_by_year(records)
        assert {s.group_key for s in stats} == set(range(1976, 1981))
        for s in stats:
            assert s.median < 730, "year %s median %s" % (s.group_key, s.median)
        delta = median_lag_delta(stats)
        print("median lag delta %d vs %d: %+g days (reported, no threshold)" % (
            delta[1], delta[0], delta[2]))


@live
def test_criterion_11_live_size_reduction(live_dataset):
    with criterion(11, "CSV output is smaller than the decompressed weekly inputs"):
        _, summary = live_dataset
        assert summary.weeks_failed == []
        assert summary.output_bytes < summary.input_bytes_decompressed
        print(
            "size reduction ratio %.3f (%d -> %d bytes)"
            % (
                summary.size_reduction_ratio(),
                summary.input_bytes_decompressed,
                summary.output_bytes,
            )
        )
