"""Bipartite author-publication network and its bounded co-author reach.

The graph is immutable after construction. A publication is a dense
integer id, numbered in the order the input gives the records; an author
node is its name. No output depends on the numbering.
"""

from __future__ import annotations

import collections
import itertools
import os
import stat

from .errors import DataIntegrityError
from .forked import forked
from .records import read_lines

# bytes read at a time while counting the lines before the child's half
_CHUNK = 1 << 20


# pub_index[record id]: its publication id p, numbered in the dict's order;
# pub_authors[p]: its distinct author names, in the record's order;
# author_pubs[name]: the ascending publication ids of that name's author
BipartiteGraph = collections.namedtuple(
    "BipartiteGraph", ["pub_index", "pub_authors", "author_pubs"])


def _assemble(rows) -> BipartiteGraph:
    """The graph of ``rows``, pairs of a record id and the tuple of its
    distinct author names, consumed once. Publications are numbered in
    the order their rows come; two rows with one id raise
    ``DataIntegrityError`` before any later row is taken.
    """
    pub_index: dict[str, int] = {}
    pub_authors = []
    for record_id, names in rows:
        if pub_index.setdefault(record_id, len(pub_authors)) != len(pub_authors):
            raise _twice(record_id)
        pub_authors.append(names)
    author_pubs = collections.defaultdict(list)
    for p, names in enumerate(pub_authors):
        for a in names:
            author_pubs[a].append(p)
    return BipartiteGraph(pub_index, pub_authors,
                          dict(zip(author_pubs, map(tuple, author_pubs.values()))))


def _twice(record_id) -> DataIntegrityError:
    return DataIntegrityError(f"record id {record_id!r} occurs twice in the records")


def build_graph(records) -> BipartiteGraph:
    """One author node per surface name, one pub node per authored record.

    ``records`` is consumed once, so a generator streams: only record
    ids and surface names are kept, one string for each distinct name.
    Records without author mentions are skipped; duplicate same-name
    mentions on one record collapse to a single edge. Two authored
    records with one id raise ``DataIntegrityError``.
    """
    names: dict[str, str] = {}
    rows = ((rec.record_id, tuple([names.setdefault(name, name) for name in
                                   dict.fromkeys([m.surface_name for m in rec.mentions])]))
            for rec in records if rec.mentions)
    return _assemble(rows)


def load_graph(path) -> BipartiteGraph:
    """``build_graph(read_records(path))``, built in one pass over the
    JSONL file with no record objects: each line goes straight to a
    record id and author names. A malformed line raises CorpusParseError
    as ``read_records`` does.

    Where ``os.fork`` exists and ``path`` is a regular file, a forked
    child reads the lines after the first newline past its middle while
    this process reads those before; the child's rows follow this
    process's, so every error is the one a serial read meets first.
    """
    cut = _middle_line_end(path) if hasattr(os, "fork") else None
    if cut is None:
        return _assemble(_rows(path))
    with forked(_tail(path, cut)) as tail:
        return _assemble(itertools.chain(_rows(path, 0, cut),
                                         itertools.chain.from_iterable(tail)))


def _rows(path, *span):
    """The (record id, tuple of distinct author names) rows of the
    authored records that ``read_lines(path, ..., *span)`` reads. A name
    that a record lists twice, or with and without a gold id, is listed
    once, and equal names are one string object."""
    names: dict[str, str] = {}
    lines = read_lines(path, lambda name, gold_id: names.setdefault(name, name), *span)
    return ((fields[0], tuple(ns) if len(set(ns)) == len(ns) else tuple(dict.fromkeys(ns)))
            for fields, ns in lines if ns)


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
    """Run by the forked child of ``load_graph``: yield one list of the
    rows from byte ``start`` of ``path`` to its end; if an error stops the
    read, the list holds the rows before it, and the error is raised
    after it."""
    lines = 0  # newlines before ``start``, so that errors name the file's line
    with open(path, "rb") as fh:
        left = start
        while left:
            chunk = fh.read(min(_CHUNK, left))
            if not chunk:  # the file was cut short since
                break
            lines += chunk.count(b"\n")
            left -= len(chunk)
    rows = []
    try:
        for row in _rows(path, start, None, lines + 1):
            rows.append(row)
    finally:
        yield rows


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
    if excluded_author is not None and excluded_author not in g.author_pubs:
        raise KeyError(excluded_author)
    seen_auths = set() if excluded_author is None else {excluded_author}
    hops = {src: 0}
    frontier = [src]
    for hop in range(1, k + 1):
        nxt = []
        for q in frontier:
            for a in g.pub_authors[q]:
                if a in seen_auths:
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
    keys = list(g.pub_index)
    return {keys[q]: hop for q, hop in hops.items()}
