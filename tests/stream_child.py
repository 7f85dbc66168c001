"""Child process for the memory-bound checks.

Caps its own address space at LIMIT_BYTES, then parses a synthetic
stream of repeated fixture sections with ``ApsParser``, or splits one of
repeated fixture documents with ``split_concatenated_documents``, and
prints its counts as JSON; or runs the ``patentbulk`` command line and
exits with its status.  Run:

    python stream_child.py LIMIT_BYTES aps FIXTURE_PATH TARGET_BYTES
    python stream_child.py LIMIT_BYTES xml FIXTURE_PATH TARGET_BYTES
    python stream_child.py LIMIT_BYTES cli ARG...
"""

import itertools
import json
import resource
import sys


def aps_stream(fixture_path: str, target_bytes: int) -> int:
    from patentbulk.aps import ApsParser

    with open(fixture_path, encoding="latin-1") as handle:
        lines = handle.read().splitlines(keepends=True)
    bytes_per_repeat = sum(len(line) for line in lines)
    repeats = target_bytes // bytes_per_repeat + 1

    parser = ApsParser()
    stream = itertools.chain.from_iterable(itertools.repeat(lines, repeats))
    records = sum(1 for _ in parser.parse(stream))

    print(
        json.dumps(
            {
                "records": records,
                "repeats": repeats,
                "bytes_fed": bytes_per_repeat * repeats,
                "patn_sections": parser.report.patn_sections,
                "warnings": len(parser.report.warnings),
            }
        )
    )
    return 0


def xml_stream(fixture_path: str, target_bytes: int) -> int:
    from patentbulk.xmlgrants import split_concatenated_documents

    with open(fixture_path, "rb") as handle:
        lines = handle.read().splitlines(keepends=True)
    bytes_per_repeat = sum(len(line) for line in lines)
    repeats = target_bytes // bytes_per_repeat + 1

    stream = itertools.chain.from_iterable(itertools.repeat(lines, repeats))
    slices = sum(1 for _ in split_concatenated_documents(stream))
    print(json.dumps({"slices": slices, "repeats": repeats, "bytes_fed": bytes_per_repeat * repeats}))
    return 0


def main() -> int:
    limit_bytes, mode, *rest = sys.argv[1:]
    resource.setrlimit(resource.RLIMIT_AS, (int(limit_bytes), int(limit_bytes)))
    streams = {"aps": aps_stream, "xml": xml_stream}
    if mode in streams:
        fixture_path, target_bytes = rest
        return streams[mode](fixture_path, int(target_bytes))
    from patentbulk import cli

    return cli.run(rest)


if __name__ == "__main__":
    sys.exit(main())
