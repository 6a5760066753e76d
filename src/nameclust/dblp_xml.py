"""Streaming parser for DBLP-style XML dumps.

Memory stays proportional to a single publication element: completed
elements are cleared from the in-progress tree as soon as they are
consumed. Input may be a path, ``-`` for stdin, or any binary file
object, optionally gzip-compressed (detected by magic bytes).
"""

from __future__ import annotations

import contextlib
import gzip
import html.entities
import io
import sys
import xml.etree.ElementTree as ET
import zlib

from .errors import CorpusParseError
from .records import KINDS, RawRecord, parse_mention

_PUB_TAGS = frozenset(KINDS) - {"other"}

_VENUE_TAGS = ("journal", "booktitle")

# DBLP dumps use named entities declared in an external DTD that
# ElementTree does not fetch; map the standard HTML set ourselves.
_ENTITIES = {
    name.rstrip(";"): value
    for name, value in html.entities.html5.items()
    if name.endswith(";")
}


def _open_stream(source, owned: contextlib.ExitStack):
    """Return a binary stream; transparently unwraps gzip.

    A path is opened here and closed by ``owned``. Stdin and
    caller-supplied streams are never closed: a buffering wrapper put
    around one is detached from it by ``owned`` instead.
    """
    if source == "-":
        stream = sys.stdin.buffer
    elif isinstance(source, (str, bytes)):
        stream = owned.enter_context(open(source, "rb"))
    else:
        stream = source
    if hasattr(stream, "peek"):
        buffered = stream
    else:
        buffered = io.BufferedReader(stream)
        owned.callback(buffered.detach)
    if buffered.peek(2)[:2] == b"\x1f\x8b":
        return gzip.open(buffered)
    return buffered


def _element_to_record(elem) -> RawRecord | None:
    kind = elem.tag if elem.tag in _PUB_TAGS else "other"
    record_id = elem.get("key")
    if record_id is None:
        return None
    title = ""
    venue = None
    year = None
    mentions = []
    for child in elem:
        text = "".join(child.itertext()).strip()
        if child.tag == "author" and text:
            mentions.append(parse_mention(text))
        elif child.tag == "title":
            title = text
        elif child.tag in _VENUE_TAGS and text:
            venue = text
        elif child.tag == "year" and text:
            try:
                year = int(text)
            except ValueError:
                year = None
    return RawRecord(
        record_id=record_id,
        kind=kind,
        title=title,
        venue=venue,
        year=year,
        mentions=tuple(mentions),
    )


class _CountingReader:
    """Tracks bytes handed to the parser so errors can report an offset."""

    def __init__(self, stream):
        self._stream = stream
        self.bytes_read = 0

    def read(self, size=-1):
        chunk = self._stream.read(size)
        self.bytes_read += len(chunk)
        return chunk


def parse_dblp(source):
    """Yield one RawRecord per publication element, in document order.

    A path given as ``source`` is closed when iteration ends, is
    abandoned or fails.
    """
    with contextlib.ExitStack() as owned:
        yield from _parse(_CountingReader(_open_stream(source, owned)))


def _parse(stream):
    parser = ET.XMLParser()
    parser.entity.update(_ENTITIES)
    root = None
    try:
        for event, elem in ET.iterparse(stream, events=("start", "end"), parser=parser):
            if event == "start":
                if root is None:
                    root = elem
                continue
            if elem is root:
                continue
            # depth-1 elements are whole publications; deeper ends are fields
            if root is not None and elem in list(root):
                rec = _element_to_record(elem)
                if rec is not None:
                    yield rec
                root.remove(elem)
    except ET.ParseError as exc:
        line, col = exc.position if exc.position else (None, None)
        # str(exc) ends in ": line L, column C", which CorpusParseError restates
        message = str(exc).rsplit(": line ", 1)[0] if exc.position else str(exc)
        raise CorpusParseError(
            message, byte_offset=stream.bytes_read, line=line, column=col
        ) from exc
    except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
        raise CorpusParseError(
            f"damaged gzip data: {exc}", byte_offset=stream.bytes_read
        ) from exc
