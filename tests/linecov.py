"""Print the lines of ``src/patentbulk/`` that no in-process test runs.

A line collector from the standard library alone, for hosts without a
coverage package.  It runs ``pytest.main(argv)`` under ``sys.settrace``
and ``threading.settrace``, records every line executed in a file of
``src/patentbulk/``, and prints each executable line that no test ran,
as ``path:line`` or ``path:first-last``.  Executable lines are those the
compiled module's code objects list in ``co_lines``.

A forked child keeps the trace of the thread that forked it, and its
lines are kept too: ``os._exit`` is wrapped so that a child writes the
lines it ran to a file in a temp directory first, and the files are
merged at the end.  So the lines that only a ``--jobs N`` child, the
child that ``spool_file`` forks to inflate an archive, or the child that
``stats`` forks to tally the second half of its input runs count as run.
A child killed by a signal, or a new interpreter (``subprocess``), is
not seen.  Tracing makes the suite several times slower, so deselect
acceptance criterion 5, whose 1 GB streaming bound would run far past
its time limit:

    python tests/linecov.py -q -p no:cacheprovider \\
        --deselect tests/test_acceptance.py::test_criterion_5_streaming_bound

The arguments are pytest's; the exit status is pytest's.
"""

from __future__ import annotations

import marshal
import os
import sys
import tempfile
import threading
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "patentbulk"


def executable_lines(path: Path) -> set[int]:
    """The line numbers of ``path`` that any of its code objects runs."""
    lines: set[int] = set()
    pending = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while pending:
        code = pending.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # 0: module start
        pending.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def spans(lines: list[int]) -> list[str]:
    """Sorted line numbers as ``n`` or ``first-last`` for consecutive runs."""
    out: list[str] = []
    for line in lines:
        if out and line == last + 1:
            out[-1] = "%s-%d" % (out[-1].split("-")[0], line)
        else:
            out.append(str(line))
        last = line
    return out


def main(argv: list[str]) -> int:
    prefix = str(SRC) + "/"
    ran: set[tuple[str, int]] = set()
    parent, exit_now = os.getpid(), os._exit
    children = tempfile.TemporaryDirectory()

    def exit_child(status: int) -> None:
        """``os._exit``, after a forked child has saved the lines it ran; a
        child killed while it saves them leaves only a ``.tmp`` file."""
        try:
            if os.getpid() != parent:
                saved = os.path.join(children.name, str(os.getpid()))
                with open(saved + ".tmp", "wb") as out:
                    marshal.dump(list(ran), out)
                os.rename(saved + ".tmp", saved)
        finally:
            exit_now(status)

    def on_line(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return on_line

    def on_call(frame, event, arg):
        return on_line if frame.f_code.co_filename.startswith(prefix) else None

    os._exit = exit_child
    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        status = pytest.main(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)
        os._exit = exit_now
    with children:
        for name in os.listdir(children.name):
            if name.endswith(".tmp"):
                continue
            with open(os.path.join(children.name, name), "rb") as saved:
                ran.update(map(tuple, marshal.load(saved)))
    for path in sorted(SRC.glob("*.py")):
        unrun = sorted(executable_lines(path) - {n for f, n in ran if f == str(path)})
        if unrun:
            print("%s:%s" % (path.relative_to(ROOT), ",".join(spans(unrun))))
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
