"""Streaming parser for DBLP-style XML dumps.

The C expat parser is fed 16 KiB reads and reports each element through
a parser target, which turns the callbacks straight into record fields;
no element tree is built. Memory stays proportional to one read's
publications. Input may be a path, ``-`` for stdin, or any binary file
object, optionally gzip-compressed (detected by magic bytes).
"""

from __future__ import annotations

import contextlib
import gzip
import html.entities
import io
import sys
import types
import xml.etree.ElementTree as ET
import zlib

from .errors import CorpusParseError
from .records import KINDS, RawRecord, parse_mention

_PUB_TAGS = frozenset(KINDS) - {"other"}

_VENUE_TAGS = ("journal", "booktitle")

# bytes handed to the parser per read
_READ_SIZE = 16 * 1024

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


def _record_target(done: list):
    """A parser target that appends each completed publication to ``done``
    as a (key, kind, title, venue, year text, author texts) tuple.

    ``depth`` counts open elements: the root is 1, a publication 2 and
    its fields 3. A field's text is all character data inside it,
    nested markup included, joined and stripped. The last title, the
    last non-empty venue and the last non-empty year win; empty authors
    and publications with no ``key`` are dropped.
    """
    text: list[str] = []  # character data since a field or publication started
    depth = 0
    key = kind = title = venue = year = None
    authors: list[str] = []

    def start(tag, attrib):
        nonlocal depth, key, kind, title, venue, year, authors
        depth += 1
        if depth == 3:
            text.clear()
        elif depth == 2:
            text.clear()
            key = attrib.get("key")
            kind = tag if tag in _PUB_TAGS else "other"
            title, venue, year, authors = "", None, None, []

    def end(tag):
        nonlocal depth, title, venue, year
        depth -= 1
        if depth == 2:
            if tag == "author":
                name = "".join(text).strip()
                if name:
                    authors.append(name)
            elif tag == "title":
                title = "".join(text).strip()
            elif tag in _VENUE_TAGS:
                venue = "".join(text).strip() or venue
            elif tag == "year":
                year = "".join(text).strip() or year
        elif depth == 1 and key is not None:
            done.append((key, kind, title, venue, year, authors))

    return types.SimpleNamespace(start=start, end=end, data=text.append)


def _record(key, kind, title, venue, year, authors) -> RawRecord:
    """The RawRecord of one tuple made by ``_record_target``."""
    if year is not None:
        try:
            year = int(year)
        except ValueError:
            year = None
    return RawRecord(record_id=key, kind=kind, title=title, venue=venue, year=year,
                     mentions=tuple(map(parse_mention, authors)))


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
    """Feed ``stream`` to the parser one read at a time, and yield the
    records each read completes; on an XML or gzip error, yield those
    completed before it, then raise a located CorpusParseError."""
    done: list[tuple] = []
    parser = ET.XMLParser(target=_record_target(done))
    parser.entity.update(_ENTITIES)
    while True:
        failure = None
        try:
            chunk = stream.read(_READ_SIZE)
            if chunk:
                parser.feed(chunk)
            else:
                parser.close()
        except (ET.ParseError, EOFError, zlib.error, gzip.BadGzipFile) as exc:
            failure = exc
        for fields in done:
            yield _record(*fields)
        done.clear()
        if failure is not None:
            raise _located(failure, stream.bytes_read) from failure
        if not chunk:
            return


def _located(exc, byte_offset) -> CorpusParseError:
    """``exc``, an XML or gzip error, with the offset reached."""
    if not isinstance(exc, ET.ParseError):
        return CorpusParseError(f"damaged gzip data: {exc}", byte_offset=byte_offset)
    line, col = exc.position if exc.position else (None, None)
    # str(exc) ends in ": line L, column C", which CorpusParseError restates
    message = str(exc).rsplit(": line ", 1)[0] if exc.position else str(exc)
    return CorpusParseError(message, byte_offset=byte_offset, line=line, column=col)
