"""Bipartite author-publication network with bounded distance queries.

The graph is immutable after construction. Adjacency is two lists of
sorted id tuples over dense integer ids; publication ids follow sorted
record_id order and author ids follow sorted name order, so traversal
order (and every downstream tie-break) is deterministic.
"""

from __future__ import annotations

import math
import os
import stat

from .errors import DataIntegrityError, UnknownNodeError
from .forked import forked
from .records import read_lines

INFINITE = math.inf

# bytes read at a time while counting the lines before the child's part
_CHUNK = 1 << 20


class BipartiteGraph:
    def __init__(self, pub_keys, pub_index, pub_authors, author_names, author_index,
                 author_pubs):
        self.pub_keys: list[str] = pub_keys
        self.pub_index: dict[str, int] = pub_index
        self.author_names: list[str] = author_names
        self.author_index: dict[str, int] = author_index
        # pub_authors[p]: author ids of publication p; author_pubs[a]:
        # publication ids of author a; both ascending tuples
        self.pub_authors: list[tuple[int, ...]] = pub_authors
        self.author_pubs: list[tuple[int, ...]] = author_pubs

    # -- structure ---------------------------------------------------------

    @property
    def n_pubs(self) -> int:
        return len(self.pub_keys)

    @property
    def n_authors(self) -> int:
        return len(self.author_names)

    def pub_id(self, record_id: str) -> int:
        try:
            return self.pub_index[record_id]
        except KeyError:
            raise UnknownNodeError(f"unknown publication {record_id!r}") from None

    def author_id(self, name: str | None) -> int:
        """Dense id of an author name; -1 for ``None`` (no author)."""
        if name is None:
            return -1
        try:
            return self.author_index[name]
        except KeyError:
            raise UnknownNodeError(f"unknown author {name!r}") from None


def _assemble(rows, names: dict[str, int], parts=()) -> BipartiteGraph:
    """The graph of ``rows``, pairs of a record id and the distinct ids
    its author names have in ``names``, which maps every name to a dense
    id in the order it was first seen, followed by the rows of ``parts``.

    Each part, taken once ``rows`` is consumed, is a list of the record
    ids of later rows, a list of their distinct author ids and the list
    of the author names those ids index. Rows are consumed once. Two rows
    with one id raise ``DataIntegrityError`` before any later row or part
    is taken.
    """
    first = {}  # record id -> its row's position in ``stream``
    stream = []
    for record_id, ids in rows:
        if first.setdefault(record_id, len(stream)) != len(stream):
            raise _twice(record_id)
        stream.append(ids)
    # (end of a run of rows in ``stream``, the names their author ids index)
    runs = [(len(stream), list(names))]
    for keys, authors, part_names in parts:
        start = len(stream)
        part = dict(zip(keys, range(start, start + len(keys))))
        if len(part) < len(keys) or not first.keys().isdisjoint(part):
            seen = set()
            for record_id in keys:
                if record_id in first or record_id in seen:
                    raise _twice(record_id)
                seen.add(record_id)
        first.update(part)
        stream += authors
        runs.append((len(stream), part_names))
    author_names = sorted(set().union(*(run_names for _, run_names in runs)))
    author_index = dict(zip(author_names, range(len(author_names))))
    start = 0
    for end, run_names in runs:
        rank = list(map(author_index.__getitem__, run_names)).__getitem__
        stream[start:end] = [tuple(sorted(map(rank, ids))) for ids in stream[start:end]]
        start = end
    pub_keys = sorted(first)
    pub_authors = list(map(stream.__getitem__, map(first.__getitem__, pub_keys)))
    del stream, first
    author_pubs = [[] for _ in author_names]
    for p, authors in enumerate(pub_authors):
        for a in authors:
            author_pubs[a].append(p)
    return BipartiteGraph(pub_keys, dict(zip(pub_keys, range(len(pub_keys)))), pub_authors,
                          author_names, author_index, list(map(tuple, author_pubs)))


def _twice(record_id) -> DataIntegrityError:
    return DataIntegrityError(f"record id {record_id!r} occurs twice in the records")


def build_graph(records) -> BipartiteGraph:
    """One author node per surface name, one pub node per authored record.

    ``records`` is consumed once, so a generator streams: only record
    ids and surface names are kept. Records without author mentions are
    skipped; duplicate same-name mentions on one record collapse to a
    single edge. Two authored records with one id raise
    ``DataIntegrityError``.
    """
    names: dict[str, int] = {}
    rows = ((rec.record_id, list(dict.fromkeys([names.setdefault(m.surface_name, len(names))
                                                for m in rec.mentions])))
            for rec in records if rec.mentions)
    return _assemble(rows, names)


def load_graph(path) -> BipartiteGraph:
    """``build_graph(read_records(path))``, built in one pass over the
    JSONL file with no record objects: each line goes straight to a
    record id and author ids. A malformed line raises CorpusParseError
    as ``read_records`` does.

    Where ``os.fork`` exists and ``path`` is a regular file, a forked
    child reads the lines after the first newline past its middle while
    this process reads those before; the child's rows follow this
    process's, so every error is the one a serial read meets first.
    """
    cut = _middle_line_end(path) if hasattr(os, "fork") else None
    if cut is None:
        return _assemble(*_rows(path))
    with forked(_tail(path, cut)) as tail:
        return _assemble(*_rows(path, 0, cut), tail)


def _rows(path, *span):
    """The (record id, distinct author ids) rows of the authored records
    that ``read_lines(path, ..., *span)`` reads, and the dict of the
    author names those ids index, filled as the rows are taken. A name
    that a record lists twice, or with and without a gold id, is one id."""
    names: dict[str, int] = {}

    def author(name, gold_id):
        return names.setdefault(name, len(names))

    rows = ((fields[0], ids if len(set(ids)) == len(ids) else list(dict.fromkeys(ids)))
            for fields, ids in read_lines(path, author, *span) if ids)
    return rows, names


def _middle_line_end(path):
    """The offset just past the first newline at or after the middle of
    ``path``, or None if ``path`` is no regular file or that newline is
    its last byte or there is none."""
    st = os.stat(path)
    if not stat.S_ISREG(st.st_mode):
        return None
    with open(path, "rb") as fh:
        fh.seek(st.st_size // 2)
        fh.readline()
        cut = fh.tell()
    return cut if cut < st.st_size else None


def _tail(path, start):
    """Run by the forked child of ``load_graph``: yield one part for
    ``_assemble``, the rows from byte ``start`` of ``path`` to its end;
    if an error stops the read, the part holds the rows before it, and
    the error is raised after it."""
    lines = 0  # newlines before ``start``, so that errors name the file's line
    with open(path, "rb") as fh:
        left = start
        while left:
            chunk = fh.read(min(_CHUNK, left))
            if not chunk:  # the file was cut short since
                break
            lines += chunk.count(b"\n")
            left -= len(chunk)
    rows, names = _rows(path, start, None, lines + 1)
    keys, authors = [], []
    try:
        for record_id, ids in rows:
            keys.append(record_id)
            authors.append(ids)
    finally:
        yield [keys, authors, list(names)]


def _reach(g: BipartiteGraph, src: int, max_hops: int, excluded: int) -> dict[int, int]:
    """Publications within ``max_hops`` publication hops of ``src``.

    Breadth-first over sorted adjacency; the author id ``excluded`` (or
    -1 for none) is never traversed. Maps publication id to hop count in
    visiting order; ``src`` itself is not included.
    """
    hops = {src: 0}
    seen_auths = set()
    frontier = [src]
    for hop in range(1, max_hops + 1):
        nxt = []
        for p in frontier:
            for a in g.pub_authors[p]:
                if a == excluded or a in seen_auths:
                    continue
                seen_auths.add(a)
                for q in g.author_pubs[a]:
                    if q not in hops:
                        hops[q] = hop
                        nxt.append(q)
        if not nxt:
            break
        frontier = nxt
    del hops[src]
    return hops


def pub_distance(g: BipartiteGraph, p1: str, p2: str, max_d: int = 3,
                 excluded_author: str | None = None):
    """Intermediate-node count on the shortest path p1..p2, or INFINITE.

    Finite distances are always odd (paths alternate pub-author-pub).
    """
    if p1 == p2:
        raise ValueError("distance is defined between two distinct publications")
    if max_d < 1 or max_d % 2 == 0:
        raise ValueError("distance bound must be odd and >= 1")
    src = g.pub_id(p1)
    dst = g.pub_id(p2)
    excl = g.author_id(excluded_author)
    hop = _reach(g, src, (max_d + 1) // 2, excl).get(dst)
    return INFINITE if hop is None else 2 * hop - 1


def pubs_within(g: BipartiteGraph, p: str, k: int,
                excluded_author: str | None = None) -> dict[str, int]:
    """All publications at co-author order <= k, mapped to minimal order.

    Order k corresponds to intermediate-node distance 2k - 1.
    """
    if k < 1:
        raise ValueError("co-author order must be >= 1")
    src = g.pub_id(p)
    excl = g.author_id(excluded_author)
    return {g.pub_keys[q]: hop for q, hop in _reach(g, src, k, excl).items()}
