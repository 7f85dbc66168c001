"""Week-to-URL resolution, cached atomic downloads, and archive streaming.

Weekly archives are immutable once published, so the cache keys by file
name; digests recorded in a sidecar index detect local corruption, not
upstream changes.  Every file patentbulk leaves at a path, the cached
archive and its sidecar here and the CLI's table and summary, is written
through one publish step, :func:`published`: a temp file beside the path
that replaces it only when the write ends cleanly, so a partial file is
never visible under a final name.  A download is published only once its
zip verifies.
"""

from __future__ import annotations

import datetime as dt
import fcntl
import io
import json
import os
import signal
import time
import zlib
from contextlib import contextmanager, suppress
from pathlib import Path
from typing import IO, BinaryIO, Callable, Iterator, NamedTuple, Optional, Protocol, Union

from .model import READ_SIZE, SourceFormat, WeekSpec

# hashlib (OpenSSL) and zipfile (bz2, lzma) are imported in the functions
# that use them, as urllib is: `stats` and a plain-file `convert` use neither

DEFAULT_BASE_URL = "https://bulkdata.uspto.gov/data/patent/grant/redbook/fulltext"

# File naming per era, kept as data because USPTO has relocated and
# renamed bulk products before.  {issue} is the week's grant Tuesday.
DEFAULT_NAME_TEMPLATES = {
    SourceFormat.APS: "{year}/pftaps{issue:%Y%m%d}_wk{week:02d}.zip",
    SourceFormat.XML2: "{year}/pg{issue:%y%m%d}.zip",
    SourceFormat.XML4: "{year}/ipg{issue:%y%m%d}.zip",
}

# seconds a connection may stay silent before the attempt counts as failed
_TIMEOUT_S = 60.0
# first retry waits this long, each later one twice the one before
_BACKOFF_S = 1.0


class FetchError(Exception):
    """Download failed; carries the URL and the final HTTP status if any."""

    def __init__(self, url: str, reason: str, status: Optional[int] = None) -> None:
        super().__init__("%s: %s" % (url, reason))
        self.url = url
        self.reason = reason
        self.status = status

    def __reduce__(self) -> tuple:
        return type(self), (self.url, self.reason, self.status)


class IntegrityError(Exception):
    """Archive bytes on disk are not a readable zip, or a member fails to
    decompress or its CRC check."""


class TransportError(Exception):
    """Network-level failure (DNS, connect, mid-stream drop); retryable."""


class FetchPlan(NamedTuple):
    """Everything needed to locate and cache one weekly file."""

    week: WeekSpec
    format: SourceFormat
    url: str
    cache_path: str
    issue_date: dt.date


class CacheEntry(NamedTuple):
    cache_path: str
    source_url: str
    byte_size: int
    content_digest: str
    retrieved_at: str

    def __fspath__(self) -> str:
        # an entry stands for its archive file wherever a path is taken
        return self.cache_path


class TransportResponse:
    def __init__(self, status: int, chunks: Iterator[bytes]) -> None:
        self.status = status
        self.chunks = chunks


class Transport(Protocol):
    def get(self, url: str) -> TransportResponse: ...


class UrllibTransport:
    """Default HTTP(S) transport; tests inject fakes instead."""

    def get(self, url: str) -> TransportResponse:
        # imported on first use: with http.client, email and ssl they would
        # add to the start-up of every command that does not download
        import http.client
        import urllib.error
        import urllib.request

        try:
            response = urllib.request.urlopen(url, timeout=_TIMEOUT_S)
        except urllib.error.HTTPError as exc:
            return TransportResponse(exc.code, iter(()))
        except (urllib.error.URLError, OSError, TimeoutError) as exc:
            raise TransportError(str(exc)) from exc

        def chunks() -> Iterator[bytes]:
            try:
                while block := response.read(READ_SIZE):
                    yield block
                # http.client reads a body that ends before its Content-Length as whole
                if getattr(response, "length", None):
                    raise TransportError("body cut short, %d bytes missing" % response.length)
            except (OSError, http.client.HTTPException) as exc:  # a drop; a cut chunked body
                raise TransportError(str(exc)) from exc
            finally:
                response.close()

        # a response that opened with no status, as from urllib's file:
        # handler, is a success
        status = 200 if response.status is None else response.status
        return TransportResponse(status, chunks())


def resolve_plan(week: WeekSpec, base_url: str = DEFAULT_BASE_URL) -> FetchPlan:
    """Pure function from (week, base URL) to a plan."""
    issue = week.issue_date()
    format = SourceFormat.for_year(week.year)
    template = DEFAULT_NAME_TEMPLATES[format]
    relative = template.format(year=week.year, issue=issue, week=week.week)
    return FetchPlan(
        week=week,
        format=format,
        url=base_url.rstrip("/") + "/" + relative,
        cache_path=relative.rsplit("/", 1)[-1],
        issue_date=issue,
    )


@contextmanager
def published(path: Union[str, os.PathLike[str]], mode: str, **open_args) -> Iterator[IO]:
    """``path`` opened for writing with ``open(..., mode, **open_args)``, as
    the temp file ``PATH.<pid>.tmp`` (a stale one of that name can only be
    left by a dead process, and is truncated).  When the block exits
    cleanly the temp file replaces ``path``; when it raises the temp file
    is removed.  So ``path`` ends up whole or untouched.  An OSError from
    opening the temp file names ``path``."""
    temp = "%s.%d.tmp" % (os.fspath(path), os.getpid())
    try:
        out = open(temp, mode, **open_args)
    except OSError as exc:
        exc.filename = os.fspath(path)
        raise
    try:
        with out:
            yield out
        os.replace(temp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.unlink(temp)
        raise


def _meta_path(final: Path) -> Path:
    return final.with_name(final.name + ".meta.json")


def _load_entry(final: Path) -> Optional[CacheEntry]:
    meta = _meta_path(final)
    if not (final.is_file() and meta.is_file()):
        return None
    try:
        data = json.loads(meta.read_text())
        entry = CacheEntry(
            cache_path=str(final),
            source_url=data["source_url"],
            byte_size=int(data["byte_size"]),
            content_digest=data["content_digest"],
            retrieved_at=data["retrieved_at"],
        )
    except (ValueError, KeyError, TypeError):  # not an object, or a null size
        return None
    if final.stat().st_size != entry.byte_size:
        return None
    return entry


def fetch(
    plan: FetchPlan,
    cache_dir: str,
    transport: Optional[Transport] = None,
    retries: int = 3,
    sleep: Callable[[float], None] = time.sleep,
) -> CacheEntry:
    """Return the week's archive from cache, downloading it first if needed.

    Retries transport errors and 5xx with exponential backoff; a 404 is
    final (a holiday-shifted or missing week, which retrying cannot fix).
    The cache is read before anything is written, and a lookup allowed
    no attempts (``retries=0``) reads it alone: a miss is a FetchError
    naming the cache.  A negative ``retries`` raises ValueError before the
    lookup.  Concurrent fetches of the same week coordinate through a
    per-entry lock so exactly one download occurs.
    """
    if retries < 0:
        raise ValueError("retries must be non-negative, not %d" % retries)
    final = Path(cache_dir) / plan.cache_path
    entry = _load_entry(final)
    if entry is not None:
        return entry
    if retries == 0:
        raise FetchError(plan.url, "not in cache %s" % cache_dir)

    final.parent.mkdir(parents=True, exist_ok=True)
    lock_path = final.with_name(final.name + ".lock")
    with open(lock_path, "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        try:
            entry = _load_entry(final)
            if entry is not None:
                return entry
            return _download(plan, final, transport or UrllibTransport(), retries, sleep)
        finally:
            fcntl.flock(lock, fcntl.LOCK_UN)


def _download(
    plan: FetchPlan,
    final: Path,
    transport: Transport,
    retries: int,
    sleep: Callable[[float], None],
) -> CacheEntry:
    last_status: Optional[int] = None
    last_reason = ""
    for attempt in range(retries):
        if attempt:
            sleep(_BACKOFF_S * (2 ** (attempt - 1)))
        try:
            response = transport.get(plan.url)
            if response.status == 200:
                return _cache_archive(plan, final, response.chunks)
        except TransportError as exc:
            last_reason = str(exc)
            continue
        last_status = response.status
        last_reason = "HTTP %d" % response.status
        if not 500 <= response.status < 600:
            raise FetchError(plan.url, last_reason, status=response.status)
    raise FetchError(
        plan.url, "giving up after %d attempts: %s" % (retries, last_reason),
        status=last_status,
    )


def _cache_archive(plan: FetchPlan, final: Path, chunks: Iterator[bytes]) -> CacheEntry:
    """Publish the downloaded ``chunks`` at ``final`` once they pass
    ``testzip``, then the sidecar that makes them a cache entry.  A
    TransportError mid-stream or an IntegrityError leaves ``final`` as it
    was."""
    import hashlib
    import zipfile
    digest = hashlib.sha256()
    with published(final, "wb") as out:
        for block in chunks:
            out.write(block)
            digest.update(block)
        out.flush()
        try:
            with zipfile.ZipFile(out.name) as archive:
                bad = archive.testzip()
            if bad is not None:
                raise zipfile.BadZipFile("bad CRC for member %r" % bad)
        except (zipfile.BadZipFile, zlib.error, EOFError, OSError) as exc:
            raise IntegrityError("%s: %s" % (plan.url, exc)) from exc
        size = out.tell()
    sidecar = {
        "source_url": plan.url,
        "byte_size": size,
        "content_digest": "sha256:" + digest.hexdigest(),
        "retrieved_at": dt.datetime.now(dt.timezone.utc).isoformat(),
    }
    with published(_meta_path(final), "w") as out:
        out.write(json.dumps(sidecar, indent=2))
    return CacheEntry(cache_path=str(final), **sidecar)


class _ConcatenatedMembers(io.RawIOBase):
    """Stream every archive member in order as one logical byte stream."""

    def __init__(self, archive: zipfile.ZipFile, members: list[zipfile.ZipInfo]) -> None:
        self._archive = archive
        self._members = members
        self._index = 0
        self._current: Optional[BinaryIO] = None

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        import zipfile
        while True:
            try:
                if self._current is None:
                    if self._index >= len(self._members):
                        return 0
                    self._current = self._archive.open(self._members[self._index])
                    self._index += 1
                chunk = self._current.read(len(buffer))
            except (zipfile.BadZipFile, zlib.error, EOFError, NotImplementedError) as exc:
                raise IntegrityError("%s: %s" % (self._archive.filename, exc)) from exc
            if chunk:
                buffer[: len(chunk)] = chunk
                return len(chunk)
            self._current.close()
            self._current = None

    def close(self) -> None:
        if self._current is not None:
            self._current.close()
        self._archive.close()
        super().close()


class ForkedPipe(io.FileIO):
    """A pipe that a forked child fills by ``fill(out)``, ``out`` the pipe's
    binary write end, ahead of the reads.  A failing child sends its
    error's text, prefixed with ``name`` unless it is an IntegrityError's,
    down a second pipe and exits 1; EOF raises IntegrityError with that
    text, or, from a child that sent none (killed, say), with ``name``
    and its exit status or signal.  ``close`` closes the pipe and kills a
    child still running, then reaps it.  A fork that fails closes both
    pipes and raises."""

    read, readall = io.RawIOBase.read, io.RawIOBase.readall  # through readinto, to see EOF

    def __init__(self, fill: Callable[[BinaryIO], object], name: str) -> None:
        (pipe, out), (self._errors, err), self._pid, self._name = os.pipe(), os.pipe(), 0, name
        try:
            self._pid = os.fork()
        except OSError:
            for fd in (pipe, out, self._errors, err):
                os.close(fd)
            raise
        if not self._pid:
            try:
                os.close(pipe)
                with open(out, "wb") as sink:
                    fill(sink)
                os._exit(0)
            except BaseException as exc:  # 4 KiB fits the empty pipe: no wait
                text = str(exc) if isinstance(exc, IntegrityError) else "%s: %s" % (name, exc)
                os.write(err, text.encode()[:4096])
            finally:
                os._exit(1)
        os.close(out)
        os.close(err)
        super().__init__(pipe, "rb")

    def readinto(self, buffer) -> int:
        return super().readinto(buffer) or self._reap(raising=True)

    def close(self) -> None:
        super().close()
        if self._pid:
            os.kill(self._pid, signal.SIGKILL)
        self._reap(raising=False)

    def _reap(self, raising: bool) -> int:
        """Wait for the child, once; if it failed and ``raising`` is set,
        raise IntegrityError with its text.  Returns 0, the size of EOF."""
        if self._pid:
            with open(self._errors, "rb") as sent:
                text = sent.read().decode(errors="replace")
            code, self._pid = os.waitstatus_to_exitcode(os.waitpid(self._pid, 0)[1]), 0
            if code and raising:
                how = "exited %d" % code if code > 0 else "was killed by signal %d" % -code
                raise IntegrityError(text or "%s: the child process %s" % (self._name, how))
        return 0


def open_archive(path: Union[str, os.PathLike[str]]) -> io.BufferedReader:
    """Stream the zip's data members at ``path``, in member order, in this
    process, without materializing the decompressed file."""
    import zipfile
    path = os.fspath(path)
    try:
        archive = zipfile.ZipFile(path)
    except zipfile.BadZipFile as exc:
        raise IntegrityError("%s: %s" % (path, exc)) from exc
    members = [info for info in archive.infolist() if not info.is_dir()]
    for info in members:
        if info.flag_bits & 0x1:
            archive.close()
            raise IntegrityError("%s: member %r is encrypted" % (path, info.filename))
    return io.BufferedReader(_ConcatenatedMembers(archive, members), buffer_size=READ_SIZE)


def archive_sizes(path: Union[str, os.PathLike[str]]) -> tuple[int, int]:
    """(compressed, decompressed) byte sizes of the zip at ``path``: its
    file size and the sum of its data members' sizes from the directory."""
    import zipfile
    with zipfile.ZipFile(path) as archive:
        decompressed = sum(i.file_size for i in archive.infolist() if not i.is_dir())
    return os.path.getsize(path), decompressed
