import datetime as dt
import fcntl
import hashlib
import http.server
import io
import json
import os
import shutil
import threading
import zipfile
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace

import pytest

from conftest import FakeTransport, make_zip
from patentbulk import fetch as fetchmod
from patentbulk.fetch import (
    DEFAULT_BASE_URL,
    FetchError,
    IntegrityError,
    TransportError,
    archive_sizes,
    fetch,
    open_archive,
    resolve_plan,
)
from patentbulk.model import SourceFormat, WeekSpec
from patentbulk.pipeline import PipelineConfig, RunError, fetch_weeks


def _digest(entry):
    """The digest of the cached file's bytes, spelled as its sidecar's."""
    return "sha256:" + hashlib.sha256(Path(entry.cache_path).read_bytes()).hexdigest()


class TestResolvePlan:
    def test_1976_week_1(self):
        plan = resolve_plan(WeekSpec(1976, 1))
        assert plan.issue_date == dt.date(1976, 1, 6)
        assert plan.format is SourceFormat.APS
        assert plan.url == DEFAULT_BASE_URL + "/1976/pftaps19760106_wk01.zip"
        assert plan.cache_path == "pftaps19760106_wk01.zip"

    def test_2010_week_1(self):
        plan = resolve_plan(WeekSpec(2010, 1))
        assert plan.format is SourceFormat.XML4
        assert plan.issue_date == dt.date(2010, 1, 5)
        assert plan.url.endswith("/2010/ipg100105.zip")

    def test_2003_week_is_xml2(self):
        plan = resolve_plan(WeekSpec(2003, 2))
        assert plan.format is SourceFormat.XML2
        assert plan.url.endswith("/2003/pg030114.zip")

    def test_week_beyond_tuesday_count_invalid(self):
        with pytest.raises(ValueError):
            resolve_plan(WeekSpec(1976, 53))

    def test_week_54_invalid_at_construction(self):
        with pytest.raises(ValueError):
            WeekSpec(1976, 54)

    def test_pure_function_of_inputs(self):
        a = resolve_plan(WeekSpec(1980, 8), "http://mirror.test/base")
        b = resolve_plan(WeekSpec(1980, 8), "http://mirror.test/base")
        assert a == b
        assert a.url.startswith("http://mirror.test/base/1980/")

    def test_tuesday_law_across_years(self):
        for year in (1976, 1999, 2002, 2005, 2020):
            for week in (1, 26, 52):
                assert resolve_plan(WeekSpec(year, week)).issue_date.weekday() == 1


class TestFetch:
    def _plan(self):
        return resolve_plan(WeekSpec(1976, 1), "http://fake.test/data")

    def test_download_then_cache_hit(self, tmp_path, fake_transport):
        plan = self._plan()
        payload = make_zip({"a.txt": b"0123456789"})
        fake_transport.add(plan.url, payload)

        entry = fetch(plan, tmp_path, transport=fake_transport)
        assert entry.byte_size == len(payload)
        assert os.path.getsize(entry.cache_path) == len(payload)
        assert _digest(entry) == entry.content_digest

        again = fetch(plan, tmp_path, transport=fake_transport)
        assert again == entry
        assert len(fake_transport.requests) == 1  # idempotent: one network call

    def test_a_file_url_is_read_by_the_default_transport(self, tmp_path, aps_fixture_text):
        # urllib's file handler opens with no HTTP status: that is a success
        served = tmp_path / "served"
        plan = resolve_plan(WeekSpec(1976, 1), served.as_uri())
        payload = make_zip({"w1.txt": aps_fixture_text.encode("latin-1")})
        (served / "1976").mkdir(parents=True)
        (served / "1976" / plan.cache_path).write_bytes(payload)
        entry = fetch(plan, tmp_path / "cache", retries=1)
        assert Path(entry.cache_path).read_bytes() == payload
        assert entry.source_url == plan.url and _digest(entry) == entry.content_digest
        missing = resolve_plan(WeekSpec(1976, 2), served.as_uri())
        with pytest.raises(FetchError, match="giving up after 1 attempts: <urlopen error"):
            fetch(missing, tmp_path / "cache", retries=1)

    def test_entry_cached_while_waiting_for_the_lock_is_not_downloaded(self, tmp_path, monkeypatch):
        # another fetch of the week holds the entry's lock and caches it
        # meanwhile; a thread waits on the lock as a second process would,
        # since flock locks belong to each open file description
        plan = self._plan()
        source = FakeTransport({plan.url: make_zip({"a.txt": b"ok"})})
        cached = fetch(plan, tmp_path / "elsewhere", transport=source)
        cache = tmp_path / "cache"
        cache.mkdir()
        final = cache / plan.cache_path
        looked_up = threading.Event()
        load_entry = fetchmod._load_entry

        def spy(path):
            entry = load_entry(path)
            looked_up.set()
            return entry

        monkeypatch.setattr(fetchmod, "_load_entry", spy)
        transport = FakeTransport()
        with ThreadPoolExecutor(1) as pool, open(cache / (plan.cache_path + ".lock"), "w") as lock:
            fcntl.flock(lock, fcntl.LOCK_EX)
            result = pool.submit(fetch, plan, cache, transport=transport)
            assert looked_up.wait(10)  # the lookup before the lock has missed
            shutil.copy(cached.cache_path, final)
            shutil.copy(fetchmod._meta_path(Path(cached.cache_path)), fetchmod._meta_path(final))
            fcntl.flock(lock, fcntl.LOCK_UN)
            assert result.result(timeout=10) == cached._replace(cache_path=str(final))
        assert transport.requests == []

    def test_zero_attempts_read_the_cache_alone(self, tmp_path, fake_transport):
        plan = self._plan()
        cache = tmp_path / "cache"
        with pytest.raises(FetchError, match="not in cache %s" % cache):
            fetch(plan, cache, transport=fake_transport, retries=0)
        assert fake_transport.requests == []
        assert not cache.exists()  # a miss writes no directory and no lock

        fake_transport.add(plan.url, make_zip({"a.txt": b"ok"}))
        entry = fetch(plan, cache, transport=fake_transport)
        assert fetch(plan, cache, transport=fake_transport, retries=0) == entry
        assert len(fake_transport.requests) == 1

    def test_negative_attempts_raise_before_any_lookup(self, tmp_path, fake_transport):
        cache = tmp_path / "cache"
        with pytest.raises(ValueError, match="retries must be non-negative, not -1"):
            fetch(self._plan(), cache, transport=fake_transport, retries=-1)
        config = PipelineConfig(cache_dir=str(cache), transport=fake_transport, retries=-2)
        with pytest.raises(RunError) as excinfo:
            fetch_weeks([WeekSpec(1976, 1)], config)
        [(_, reason)] = excinfo.value.failures
        assert reason == "retries must be non-negative, not -2"
        assert fake_transport.requests == []
        assert not cache.exists()

    def test_404_fails_without_retry(self, tmp_path, fake_transport):
        plan = self._plan()
        with pytest.raises(FetchError) as excinfo:
            fetch(plan, tmp_path, transport=fake_transport, sleep=lambda s: None)
        assert excinfo.value.status == 404
        assert plan.url in str(excinfo.value)
        assert len(fake_transport.requests) == 1

    def test_5xx_retried_then_fails(self, tmp_path, fake_transport):
        plan = self._plan()
        fake_transport.add(plan.url, 503)
        sleeps = []
        with pytest.raises(FetchError) as excinfo:
            fetch(plan, tmp_path, transport=fake_transport, retries=3, sleep=sleeps.append)
        assert excinfo.value.status == 503
        assert len(fake_transport.requests) == 3
        assert sleeps == [1.0, 2.0]  # exponential backoff

    def test_transport_error_retried_then_succeeds(self, tmp_path):
        plan = self._plan()
        payload = make_zip({"a.txt": b"ok"})
        transport = FakeTransport()
        calls = {"n": 0}

        class Flaky:
            def get(self, url):
                calls["n"] += 1
                if calls["n"] < 3:
                    raise TransportError("connection reset")
                transport.add(url, payload)
                return transport.get(url)

        entry = fetch(plan, tmp_path, transport=Flaky(), sleep=lambda s: None)
        assert entry.byte_size == len(payload)
        assert calls["n"] == 3

    def test_truncated_zip_is_integrity_error(self, tmp_path, fake_transport):
        plan = self._plan()
        payload = make_zip({"a.txt": b"0123456789" * 100})
        fake_transport.add(plan.url, payload[: len(payload) // 2])
        with pytest.raises(IntegrityError):
            fetch(plan, tmp_path, transport=fake_transport, sleep=lambda s: None)
        assert not os.path.exists(tmp_path / plan.cache_path)
        assert not list(tmp_path.glob("*.tmp"))

    def test_kill_mid_download_leaves_no_visible_entry(self, tmp_path, fake_transport):
        plan = self._plan()
        payload = make_zip({"a.txt": b"0123456789" * 1000})
        fake_transport.add(plan.url, (payload, len(payload) // 2))
        with pytest.raises(FetchError):
            fetch(plan, tmp_path, transport=fake_transport, retries=2, sleep=lambda s: None)
        assert not os.path.exists(tmp_path / plan.cache_path)
        assert not os.path.exists(str(tmp_path / plan.cache_path) + ".meta.json")
        assert not list(tmp_path.glob("*.tmp"))

    def test_mid_download_failure_then_recovery(self, tmp_path, fake_transport):
        plan = self._plan()
        payload = make_zip({"a.txt": b"recovered"})

        class FlakyStream:
            def __init__(self):
                self.calls = 0

            def get(self, url):
                self.calls += 1
                if self.calls == 1:
                    fake_transport.add(url, (payload, 4))
                else:
                    fake_transport.add(url, payload)
                return fake_transport.get(url)

        entry = fetch(plan, tmp_path, transport=FlakyStream(), sleep=lambda s: None)
        assert _digest(entry) == entry.content_digest
        assert not list(tmp_path.glob("*.tmp"))

    @pytest.mark.parametrize(
        "compression, offset", [(zipfile.ZIP_STORED, 40), (zipfile.ZIP_DEFLATED, 35)],
        ids=["bad-crc", "bad-deflate-stream"],
    )
    def test_download_failing_testzip_leaves_the_old_archive(
        self, compression, offset, tmp_path, fake_transport
    ):
        plan = self._plan()
        archive = tmp_path / plan.cache_path
        archive.write_bytes(b"an older archive")  # no sidecar, so a miss
        buffer = io.BytesIO()
        with zipfile.ZipFile(buffer, "w", compression) as payload:
            payload.writestr("a.txt", bytes(range(256)) * 40)
        damaged = bytearray(buffer.getvalue())
        damaged[offset] ^= 0xFF  # a byte of the member's data, which starts at 35
        fake_transport.add(plan.url, bytes(damaged))
        with pytest.raises(IntegrityError, match=plan.url):
            fetch(plan, tmp_path, transport=fake_transport, sleep=lambda s: None)
        assert archive.read_bytes() == b"an older archive"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            plan.cache_path, plan.cache_path + ".lock"
        ]

    def test_failed_sidecar_write_leaves_no_entry(self, tmp_path, fake_transport, monkeypatch):
        plan = self._plan()
        fake_transport.add(plan.url, make_zip({"a.txt": b"ok"}))
        with monkeypatch.context() as patch:
            # the sidecar's text holds a character the encoder rejects, so
            # its write fails once its temp file is open
            patch.setattr(
                fetchmod, "json", SimpleNamespace(loads=json.loads, dumps=lambda *a, **k: "{\udc80}")
            )
            with pytest.raises(UnicodeEncodeError):
                fetch(plan, tmp_path, transport=fake_transport)
        assert not list(tmp_path.glob("*.tmp"))
        with pytest.raises(FetchError, match="not in cache"):
            fetch(plan, tmp_path, transport=fake_transport, retries=0)
        entry = fetch(plan, tmp_path, transport=fake_transport)
        assert _digest(entry) == entry.content_digest
        assert json.loads((tmp_path / (plan.cache_path + ".meta.json")).read_text())["byte_size"] == (
            entry.byte_size
        )
        assert len(fake_transport.requests) == 2

    @pytest.mark.parametrize("spoil", ["not-json", "byte-size", "not-object", "null-size"])
    def test_spoiled_sidecar_is_a_miss(self, tmp_path, fake_transport, spoil):
        plan = self._plan()
        fake_transport.add(plan.url, make_zip({"a.txt": b"0123456789"}))
        entry = fetch(plan, tmp_path, transport=fake_transport)
        meta = fetchmod._meta_path(Path(entry.cache_path))
        sidecar = json.loads(meta.read_text())
        meta.write_text({
            "not-json": "{not json",
            "byte-size": json.dumps({**sidecar, "byte_size": 1}),
            "not-object": json.dumps([sidecar]),
            "null-size": json.dumps({**sidecar, "byte_size": None}),
        }[spoil])
        assert fetchmod._load_entry(Path(entry.cache_path)) is None

        again = fetch(plan, tmp_path, transport=fake_transport)
        assert len(fake_transport.requests) == 2  # downloaded again
        assert (again.byte_size, again.content_digest) == (entry.byte_size, entry.content_digest)
        assert fetchmod._load_entry(Path(entry.cache_path)) == again


@contextmanager
def _served(payload, chunked=False):
    """A loopback HTTP server on one thread, its base URL and the paths
    it was asked for.  With ``payload`` None each GET is a 404; else the
    response announces ``payload``'s length, or a chunked body, sends
    half of it and closes."""
    paths = []

    class Handler(http.server.BaseHTTPRequestHandler):
        def do_GET(self):
            paths.append(self.path)
            if payload is None:
                self.send_error(404)
                return
            half = payload[: len(payload) // 2]
            self.send_response(200)
            if chunked:
                self.send_header("Transfer-Encoding", "chunked")
                self.end_headers()
                self.wfile.write(b"%x\r\n%s\r\n" % (len(half), half))
            else:
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(half)

        def log_message(self, *args):
            pass

    server = http.server.HTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, args=(0.05,))
    thread.start()
    try:
        yield "http://127.0.0.1:%d/data" % server.server_port, paths
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        assert not thread.is_alive()


class TestUrllibTransport:
    """The default transport over a loopback server."""

    def test_a_404_fails_after_one_attempt(self, tmp_path):
        with _served(None) as (base, paths):
            plan = resolve_plan(WeekSpec(1976, 1), base)
            with pytest.raises(FetchError) as excinfo:
                fetch(plan, tmp_path, retries=3, sleep=lambda s: None)
        assert excinfo.value.status == 404 and plan.url in str(excinfo.value)
        assert len(paths) == 1

    @pytest.mark.parametrize("chunked", [False, True], ids=["content-length", "chunked"])
    def test_a_body_cut_short_is_retried_and_cached_nowhere(self, tmp_path, chunked):
        payload = make_zip({"a.txt": bytes(range(256)) * 40})
        missing = len(payload) - len(payload) // 2
        reason = r"IncompleteRead" if chunked else "body cut short, %d bytes missing" % missing
        with _served(payload, chunked) as (base, paths):
            plan = resolve_plan(WeekSpec(1976, 1), base)
            response = fetchmod.UrllibTransport().get(plan.url)
            assert response.status == 200
            with pytest.raises(TransportError, match=reason):
                list(response.chunks)
            with pytest.raises(FetchError, match="giving up after 2 attempts: " + reason):
                fetch(plan, tmp_path, retries=2, sleep=lambda s: None)
        assert len(paths) == 3
        assert [p.name for p in tmp_path.iterdir()] == [plan.cache_path + ".lock"]


class TestOpenArchive:
    def _entry(self, tmp_path, members):
        plan = resolve_plan(WeekSpec(1976, 1), "http://fake.test")
        transport = FakeTransport({plan.url: make_zip(members)})
        return fetch(plan, tmp_path, transport=transport)

    def test_single_member_bytes(self, tmp_path):
        entry = self._entry(tmp_path, {"a.txt": b"0123456789"})
        with open_archive(entry.cache_path) as stream:
            assert stream.read() == b"0123456789"

    def test_members_concatenate_in_order(self, tmp_path):
        entry = self._entry(tmp_path, {"1.txt": b"first\n", "2.txt": b"second\n"})
        with open_archive(entry.cache_path) as stream:
            assert stream.read() == b"first\nsecond\n"

    def test_line_iteration_spans_members(self, tmp_path):
        entry = self._entry(tmp_path, {"1.txt": b"a\nb", "2.txt": b"c\nd\n"})
        with open_archive(entry.cache_path) as stream:
            text = io.TextIOWrapper(stream, encoding="latin-1")
            assert list(text) == ["a\n", "bc\n", "d\n"]

    def test_cache_entry_opens_as_its_archive(self, tmp_path):
        # perfbench's decompression drain passes entries, not paths
        entry = self._entry(tmp_path, {"a.txt": b"0123456789"})
        assert os.fspath(entry) == entry.cache_path
        with open_archive(entry) as stream:
            assert stream.read() == b"0123456789"

    def test_bad_crc_names_the_file_and_member(self, tmp_path):
        # spool_file's inflating child raises the same text (test_pipeline.py)
        path = tmp_path / "week.zip"
        with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as archive:
            archive.writestr("a.txt", b"0123456789" * 20000)
            archive.writestr("b.txt", b"second")
        payload = bytearray(path.read_bytes())
        payload[100000] ^= 0x01
        path.write_bytes(bytes(payload))
        with open_archive(path) as stream:
            assert stream.read(7) == b"0123456"
            with pytest.raises(IntegrityError) as caught:
                stream.read()
        assert str(caught.value) == "%s: Bad CRC-32 for file 'a.txt'" % path

    @pytest.mark.parametrize("ahead", [True, False], ids=["ahead", "in-line"])
    def test_closed_inside_a_member(self, tmp_path, ahead):
        entry = self._entry(tmp_path, {"a.txt": b"0123456789" * 20000, "b.txt": b"second"})
        stream = open_archive(entry)
        if ahead:  # as spool_file inflates with a CPU idle: a forked child fills a pipe
            with stream:
                piped = fetchmod.ForkedPipe(lambda out: shutil.copyfileobj(stream, out), str(entry))
            stream = io.BufferedReader(piped)
        assert stream.read(7) == b"0123456"
        stream.close()
        assert stream.closed

    def test_corrupted_archive_is_integrity_error(self, tmp_path):
        entry = self._entry(tmp_path, {"a.txt": b"payload"})
        data = bytearray((tmp_path / "pftaps19760106_wk01.zip").read_bytes())
        data[-10:] = b"X" * 10  # stomp the central directory
        (tmp_path / "pftaps19760106_wk01.zip").write_bytes(bytes(data))
        with pytest.raises(IntegrityError):
            open_archive(entry.cache_path)

    def test_encrypted_member_is_integrity_error(self, tmp_path):
        data = bytearray(make_zip({"plain.txt": b"a", "secret.txt": b"b"}))
        central = data.rfind(b"PK\x01\x02")  # the last member's directory entry
        data[central + 8] |= 0x1  # its general purpose flag: encrypted
        path = tmp_path / "encrypted.zip"
        path.write_bytes(bytes(data))
        with pytest.raises(IntegrityError, match="member 'secret.txt' is encrypted"):
            open_archive(path)

    def test_archive_sizes(self, tmp_path):
        entry = self._entry(tmp_path, {"1.txt": b"x" * 1000, "2.txt": b"y" * 500})
        compressed, decompressed = archive_sizes(entry)
        assert compressed == entry.byte_size
        assert decompressed == 1500
