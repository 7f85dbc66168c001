"""The XML splitter as it was before it cut its input with
``patentbulk.model.cut_before``: one Python step per line.  Frozen here as
the reference that ``patentbulk.xmlgrants.split_concatenated_documents``
must match, slices and errors alike; do not change it to follow the
library.
"""

from typing import BinaryIO, Iterable, Iterator, Union

from patentbulk.model import WrongFileTypeError
from patentbulk.xmlgrants import XmlDocSlice


def oracle_split(stream: Union[BinaryIO, Iterable[bytes]]) -> Iterator[XmlDocSlice]:
    """Each document from its line-start ``<?xml`` up to the next; lines
    before the first prolog are dropped."""
    buf: list[bytes] = []
    ordinal = 0
    seen_prolog = False
    for line in stream:
        if line.startswith(b"<?xml"):
            if seen_prolog:
                yield XmlDocSlice(b"".join(buf), ordinal)
                ordinal += 1
            seen_prolog = True
            buf = [line]
        elif seen_prolog:
            buf.append(line)
    if not seen_prolog:
        raise WrongFileTypeError("no XML document prolog found in input")
    yield XmlDocSlice(b"".join(buf), ordinal)
