import datetime as dt
import io
import os
import random
import subprocess
import sys
import tempfile
import threading
import zipfile
from pathlib import Path

import pytest

import patentbulk
from patentbulk.aps import ApsParser
from patentbulk.fetch import TransportError, TransportResponse
from patentbulk.model import IpcCode, build_record

DATA_DIR = Path(__file__).parent / "data"
STREAM_CHILD = Path(__file__).parent / "stream_child.py"

# the threads alive at each os.fork() of this process
FORK_THREADS = []
os.register_at_fork(before=lambda: FORK_THREADS.append(threading.active_count()))


@pytest.fixture
def data_dir() -> Path:
    return DATA_DIR


@pytest.fixture
def aps_fixture_text() -> str:
    return (DATA_DIR / "aps_two_patents.txt").read_text(encoding="latin-1")


class FakeTransport:
    """Scripted transport: maps URL to bytes, an int status, an exception,
    or a (bytes, fail_after) pair that drops the connection mid-stream."""

    def __init__(self, responses=None):
        self.responses = dict(responses or {})
        self.requests = []

    def add(self, url, payload):
        self.responses[url] = payload

    def get(self, url):
        self.requests.append(url)
        if url not in self.responses:
            return TransportResponse(404, iter(()))
        payload = self.responses[url]
        if isinstance(payload, Exception):
            raise payload
        if isinstance(payload, int):
            return TransportResponse(payload, iter(()))
        if isinstance(payload, tuple):
            data, fail_after = payload

            def broken():
                yield data[:fail_after]
                raise TransportError("connection dropped mid-stream")

            return TransportResponse(200, broken())
        return TransportResponse(200, iter([payload[i : i + 8192] for i in range(0, len(payload), 8192)]))


@pytest.fixture
def fake_transport():
    return FakeTransport()


def parse_aps(lines):
    """Drive ApsParser over a whole line stream; returns (records, report)."""
    parser = ApsParser()
    records = list(parser.parse(lines))
    return records, parser.report


def sink_to_file(path, sink_class, records, mode="w", **sink_args) -> int:
    """Write ``records`` as one spool appended to a sink over ``path``
    opened in ``mode``; returns the sink's byte count."""
    with open(path, mode, encoding="utf-8", newline="") as out:
        sink = sink_class(out, **sink_args)
        handle, spool = tempfile.mkstemp()
        with open(handle, "w", encoding="utf-8", newline="") as batch:
            writer = type(sink)(batch, write_header=False)
            for record in records:
                writer.write(record)
        sink.append(spool)
    return sink.bytes_written


def python_command(*args, **env: str) -> dict:
    """The ``args`` and ``env`` keywords of :mod:`subprocess` that run a new
    interpreter with ``args`` and ``env`` added to the environment; it
    imports the package this test run imported, installed or not."""
    package_parent = str(Path(patentbulk.__file__).resolve().parent.parent)
    return {"args": [sys.executable, *map(str, args)],
            "env": {**os.environ, "PYTHONPATH": package_parent, **env}}


def run_python(*args, timeout: float, text: bool = True, **env: str) -> subprocess.CompletedProcess:
    """Run :func:`python_command`'s interpreter to its end; its output is
    captured as text, or as bytes if not ``text``."""
    return subprocess.run(
        **python_command(*args, **env), capture_output=True, text=text, timeout=timeout
    )


def run_capped(limit_bytes: int, *args, timeout: float) -> subprocess.CompletedProcess:
    """Run ``stream_child.py`` with ``args`` under an address-space cap of
    ``limit_bytes``; see that file for its two modes."""
    return run_python(STREAM_CHILD, limit_bytes, *args, timeout=timeout)


def make_zip(members: dict[str, bytes]) -> bytes:
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w", zipfile.ZIP_DEFLATED) as archive:
        for name, data in members.items():
            archive.writestr(name, data)
    return buffer.getvalue()


_SUBCLASSES = ["C07D", "C07C", "A01B", "A47B", "B65D", "G06F", "H01L", "F16B", "D04H", "E04B", "C08F", "A61K"]


def random_record(rng: random.Random):
    """Synthetic but invariant-respecting record for property tests."""
    issue = dt.date(1976, 1, 6) + dt.timedelta(weeks=rng.randrange(0, 260))
    if rng.random() < 0.15:
        app = None
    else:
        # occasionally negative lag to exercise the data-quality tally
        app = issue - dt.timedelta(days=rng.randrange(-30, 1500))
    words = ["widget", "press", "rack", "valve", "Sensor", "émetteur", 'with "quotes"', "a,b", "x; y"]
    title = " ".join(rng.choice(words) for _ in range(rng.randrange(1, 5)))
    names = ["Doe; John", "Roe, Jane", "Ngo\tThi", "O'Hara, Pat", "Acme; Inc."]
    claims_lines = []
    for _ in range(rng.randrange(0, 4)):
        claims_lines.append(rng.choice([
            "1. A device comprising:",
            "  a frame; and",
            "\ta ram, movable relative to said frame.",
            "",
            'we claim "everything"',
        ]))
    subclasses = rng.sample(_SUBCLASSES, rng.randrange(0, 3))
    ipc = [IpcCode(k[0], k[1:3], k[3], "%d/%02d" % (rng.randrange(1, 300), rng.randrange(0, 100))) for k in subclasses]
    return build_record(
        wku="%09d" % rng.randrange(1, 10**9),
        title=title,
        app_date=app,
        issue_date=issue,
        inventors=[rng.choice(names) for _ in range(rng.randrange(0, 3))],
        assignees=[rng.choice(names) for _ in range(rng.randrange(0, 2))],
        ipc_codes=ipc,
        references=["%07d" % rng.randrange(1, 10**7) for _ in range(rng.randrange(0, 3))],
        claims="\n".join(claims_lines),
    )


def random_records(n: int, seed: int = 0) -> list:
    rng = random.Random(seed)
    return [random_record(rng) for _ in range(n)]
