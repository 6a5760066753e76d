"""Bipartite author-publication network and its bounded co-author reach.

The graph is immutable after construction. Adjacency is two lists of
id tuples over dense integer ids, numbered in the order the input first
gives each publication and author name; no output depends on that order.
"""

from __future__ import annotations

import collections
import os
import stat

from .errors import DataIntegrityError
from .forked import forked
from .records import read_lines

# bytes read at a time while counting the lines before the child's part
_CHUNK = 1 << 20


# pub_keys[p] and author_names[a]: the record id and the name of ids p
# and a, which pub_index and author_index map back; pub_authors[p]: author
# ids of publication p, in the record's order; author_pubs[a]: ascending
# publication ids of author a
BipartiteGraph = collections.namedtuple(
    "BipartiteGraph",
    ["pub_keys", "pub_index", "pub_authors", "author_names", "author_index", "author_pubs"])


def _assemble(rows, author_index: dict[str, int], parts=()) -> BipartiteGraph:
    """The graph of ``rows``, pairs of a record id and the distinct ids
    its author names have in ``author_index``, which maps every name to a
    dense id in the order it was first seen, followed by the rows of
    ``parts``. Publications are numbered in the order their rows come.

    Each part, taken once ``rows`` is consumed, is a list of the record
    ids of later rows, a list of their distinct author ids and the list
    of the author names those ids index; each of those names is passed
    once through ``author_index``. Rows are consumed once. Two rows with
    one id raise ``DataIntegrityError`` before any later row or part is
    taken.
    """
    pub_index: dict[str, int] = {}
    pub_authors = []
    for record_id, ids in rows:
        if pub_index.setdefault(record_id, len(pub_authors)) != len(pub_authors):
            raise _twice(record_id)
        pub_authors.append(tuple(ids))
    for keys, authors, names in parts:
        start = len(pub_authors)
        part = dict(zip(keys, range(start, start + len(keys))))
        if len(part) < len(keys) or not pub_index.keys().isdisjoint(part):
            seen = set()
            for record_id in keys:
                if record_id in pub_index or record_id in seen:
                    raise _twice(record_id)
                seen.add(record_id)
        pub_index.update(part)
        rank = [author_index.setdefault(name, len(author_index)) for name in names].__getitem__
        pub_authors += [tuple(map(rank, ids)) for ids in authors]
    author_pubs = [[] for _ in author_index]
    for p, authors in enumerate(pub_authors):
        for a in authors:
            author_pubs[a].append(p)
    return BipartiteGraph(list(pub_index), pub_index, pub_authors, list(author_index),
                          author_index, list(map(tuple, author_pubs)))


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
    author_index: dict[str, int] = {}
    rows = ((rec.record_id, [author_index.setdefault(name, len(author_index)) for name in
                             dict.fromkeys([m.surface_name for m in rec.mentions])])
            for rec in records if rec.mentions)
    return _assemble(rows, author_index)


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
    author_index: dict[str, int] = {}

    def author(name, gold_id):
        return author_index.setdefault(name, len(author_index))

    rows = ((fields[0], ids if len(set(ids)) == len(ids) else list(dict.fromkeys(ids)))
            for fields, ids in read_lines(path, author, *span) if ids)
    return rows, author_index


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
    rows, author_index = _rows(path, start, None, lines + 1)
    keys, authors = [], []
    try:
        for record_id, ids in rows:
            keys.append(record_id)
            authors.append(ids)
    finally:
        yield [keys, authors, list(author_index)]


def pubs_within(g: BipartiteGraph, p: str, k: int,
                excluded_author: str | None = None) -> dict[str, int]:
    """All publications at co-author order <= k, mapped to minimal order.

    Order k corresponds to intermediate-node distance 2k - 1. Breadth-
    first in the graph's id order, so the map is in visiting order; the
    author ``excluded_author`` (None for none) is never traversed, and
    ``p`` itself is not included.
    """
    if k < 1:
        raise ValueError("co-author order must be >= 1")
    src = g.pub_index[p]
    excluded = -1 if excluded_author is None else g.author_index[excluded_author]
    hops = {src: 0}
    seen_auths = set()
    frontier = [src]
    for hop in range(1, k + 1):
        nxt = []
        for q in frontier:
            for a in g.pub_authors[q]:
                if a == excluded or a in seen_auths:
                    continue
                seen_auths.add(a)
                for r in g.author_pubs[a]:
                    if r not in hops:
                        hops[r] = hop
                        nxt.append(r)
        if not nxt:
            break
        frontier = nxt
    del hops[src]
    return {g.pub_keys[q]: hop for q, hop in hops.items()}
