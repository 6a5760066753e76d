"""Publication records, author mentions, and the canonical JSONL format."""

from __future__ import annotations

import collections
import itertools
import json
import operator
from dataclasses import dataclass
from pathlib import Path

from .errors import CorpusParseError, DataIntegrityError, MalformedMentionError

KINDS = (
    "article",
    "inproceedings",
    "proceedings",
    "book",
    "incollection",
    "phdthesis",
    "mastersthesis",
    "www",
    "other",
)

# a mention's printed name without its gold suffix, and the suffix or None
AuthorMention = collections.namedtuple("AuthorMention", ["surface_name", "gold_id"])

# builds an AuthorMention without the Python-level __new__ namedtuple adds
_mention = tuple.__new__


@dataclass(frozen=True)
class RawRecord:
    record_id: str
    kind: str
    title: str
    venue: str | None
    year: int | None
    mentions: tuple[AuthorMention, ...]


def parse_mention(raw: str) -> AuthorMention:
    """Split a printed author name into surface name and optional gold id.

    The name is trimmed and its inner whitespace collapsed to single
    spaces (no diacritic folding). Then a trailing " NNNN", one space and
    exactly four ASCII digits 0-9, marks a manually disambiguated
    homonym: "Wei Li 0002" -> ("Wei Li", "0002"). Three or five digits,
    and digits of other scripts, stay part of the name.
    """
    name = " ".join(raw.split())
    if not name:
        raise MalformedMentionError(f"empty author mention: {raw!r}")
    suffix = name[-4:]
    # the collapsed name does not start with a space, so a space fifth
    # from the end has a non-empty surface name before it
    if name[-5:-4] == " " and suffix.isascii() and suffix.isdigit():
        return _mention(AuthorMention, (name[:-5], suffix))
    return _mention(AuthorMention, (name, None))


def gold_key(mention: AuthorMention) -> str:
    assert mention.gold_id is not None
    return f"{mention.surface_name} {mention.gold_id}"


# a JSON string literal as json.dumps(..., ensure_ascii=False) writes it
_string = json.encoder.encode_basestring


def record_to_json(rec: RawRecord) -> str:
    """The record as one line of JSON, equal to ``json.dumps(obj,
    ensure_ascii=False, sort_keys=True)`` of its fields: written piece by
    piece, keys in sorted order, with no dict and no generic encoder."""
    authors = ", ".join([
        '{"gold_id": %s, "name": %s}'
        % ("null" if gold_id is None else _string(gold_id), _string(name))
        for name, gold_id in rec.mentions])
    venue = "null" if rec.venue is None else _string(rec.venue)
    year = "null" if rec.year is None else str(rec.year)
    return (f'{{"authors": [{authors}], "id": {_string(rec.record_id)}, '
            f'"kind": {_string(rec.kind)}, "title": {_string(rec.title)}, '
            f'"venue": {venue}, "year": {year}}}')


# key -> the types json.loads gives that key in a well-formed line
_RECORD_FIELDS = {
    "id": (str,),
    "kind": (str,),
    "title": (str,),
    "venue": (str, type(None)),
    "year": (int, type(None)),
    "authors": (list,),
}
_AUTHOR_FIELDS = {"name": (str,), "gold_id": (str, type(None))}

# fast path: fetch all fields in one call, check their types in one lookup
_record_fields = operator.itemgetter(*_RECORD_FIELDS)
_RECORD_TYPES = frozenset(itertools.product(*_RECORD_FIELDS.values()))
_author_key = operator.itemgetter(*_AUTHOR_FIELDS)
_AUTHOR_TYPES = frozenset(itertools.product(*_AUTHOR_FIELDS.values()))

_JSON_TYPES = {dict: "object", list: "array", str: "string", int: "integer",
               float: "number", bool: "boolean", type(None): "null"}


def _require(obj, fields, what) -> None:
    """Raise ValueError unless ``obj`` is an object with ``fields``."""
    if type(obj) is not dict:
        raise ValueError(f"{what} is a JSON {_JSON_TYPES[type(obj)]}, not an object")
    for key, types in fields.items():
        if key not in obj:
            raise ValueError(f"{what} has no {key!r} key")
        if type(obj[key]) not in types:
            expected = " or ".join(_JSON_TYPES[t] for t in types)
            raise ValueError(f"{what} key {key!r} is a JSON "
                             f"{_JSON_TYPES[type(obj[key])]}, expected {expected}")


# raw_decode parses a line without json.loads's two whitespace scans
_raw_decode = json.JSONDecoder().raw_decode


def _fields(text: str) -> tuple:
    """The id, kind, title, venue, year and authors of one JSONL line.

    Raises ValueError (a JSONDecodeError for bad JSON) naming what is
    wrong.
    """
    try:
        obj, end = _raw_decode(text)
    except json.JSONDecodeError:
        end = None
    # raw_decode failed or left more than the line's own newline: json.loads
    # decides, so leading or trailing whitespace, extra data, a BOM and
    # every parse error get its answer
    if end is None or text[end:] != "\n":
        obj = json.loads(text)
    try:
        values = _record_fields(obj)
    except (KeyError, TypeError):
        values = None
    if values is None or tuple(map(type, values)) not in _RECORD_TYPES:
        _require(obj, _RECORD_FIELDS, "record")
    return values


def _author(obj) -> tuple[str, str | None]:
    """The (name, gold id) of one decoded author; ValueError if malformed."""
    try:
        name, gold_id = key = _author_key(obj)
    except (KeyError, TypeError):
        key = None
    if key is None or (type(name), type(gold_id)) not in _AUTHOR_TYPES:
        _require(obj, _AUTHOR_FIELDS, "author")
    return key


def write_records(records, path) -> int:
    """Write records as one JSON object per line. Returns the count."""
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(record_to_json(rec))
            fh.write("\n")
            n += 1
    return n


def read_utf8(path, error) -> str:
    """The whole file at ``path`` as text; bytes that are not UTF-8 raise
    ``error`` with the path and the offset of the first bad byte."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from None


def read_json(path):
    """The JSON value in the file at ``path``; a file that is not UTF-8
    text or not JSON raises ``DataIntegrityError`` with the path and the
    offset, or the line and column, of the fault."""
    text = read_utf8(path, DataIntegrityError)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataIntegrityError(f"{path}: invalid JSON: {exc.msg} (line {exc.lineno}, "
                                 f"col {exc.colno})") from None


def read_lines(path, author, start=0, stop=None, first_line=1):
    """Yield ``(fields, authors)`` for each record line of a JSONL file.

    ``fields`` is the line's (id, kind, title, venue, year, authors)
    tuple, ``authors`` the list of ``author(name, gold_id)`` for its
    authors in order. ``author`` is called once per distinct (name, gold
    id) pair, the first time the pair is seen, and its result is reused
    for every later mention of the pair. A malformed line (invalid UTF-8
    or JSON, or not a record) raises CorpusParseError with the path and
    its 1-based line.

    Only the lines that begin in bytes ``[start, stop)`` of the file are
    read (to its end if ``stop`` is None); ``start`` must be the start of
    a line, which is line ``first_line`` of the file.
    """
    seen = {}
    # bytes, decoded line by line, so that invalid UTF-8 has a line number
    with open(path, "rb") as fh:
        if start:
            fh.seek(start)
        for lineno, line in enumerate(fh, first_line):
            if stop is not None:
                if start >= stop:
                    break
                start += len(line)
            if line.isspace():
                continue
            try:
                fields = _fields(line.decode("utf-8"))
                values = []
                for a in fields[5]:
                    try:
                        value = seen[_author_key(a)]
                    except (KeyError, TypeError):
                        # first sight of this pair, or a malformed author
                        key = _author(a)
                        value = seen[key] = author(*key)
                    values.append(value)
            except json.JSONDecodeError as exc:
                raise CorpusParseError(f"invalid JSON: {exc.msg}", path=path,
                                       line=lineno, column=exc.colno) from exc
            except ValueError as exc:
                raise CorpusParseError(str(exc), path=path, line=lineno) from exc
            yield fields, values


def read_records(path):
    """Yield the records of a JSONL file one at a time.

    Equal author mentions are one shared (immutable) object. A malformed
    line raises CorpusParseError, as in ``read_lines``.
    """
    for (record_id, kind, title, venue, year, _), mentions in read_lines(path, AuthorMention):
        yield RawRecord(record_id=record_id, kind=kind, title=title, venue=venue,
                        year=year, mentions=tuple(mentions))
