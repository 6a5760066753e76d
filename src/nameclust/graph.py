"""Bipartite author-publication network with bounded distance queries.

The graph is immutable after construction. Adjacency is two lists of
sorted id tuples over dense integer ids; publication ids follow sorted
record_id order and author ids follow sorted name order, so traversal
order (and every downstream tie-break) is deterministic.
"""

from __future__ import annotations

import math

from .errors import DataIntegrityError, UnknownNodeError
from .records import read_lines

INFINITE = math.inf


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


def _assemble(rows, names: dict[str, int]) -> BipartiteGraph:
    """The graph of ``rows``, pairs of a record id and the ids its author
    names have in ``names``, which maps every name to a dense id in the
    order it was first seen.

    Rows are consumed once. Two rows with one id raise
    ``DataIntegrityError`` when the second is reached. ``names`` becomes
    the graph's author index.
    """
    first = {}  # record id -> its row's position in ``rows``
    stream = []
    for record_id, ids in rows:
        if first.setdefault(record_id, len(stream)) != len(stream):
            raise DataIntegrityError(
                f"record id {record_id!r} occurs twice in the records")
        stream.append(ids)
    author_names = sorted(names)
    rank = [0] * len(author_names)  # first-seen id -> sorted-name id
    for a, name in enumerate(author_names):
        rank[names[name]] = a
        names[name] = a
    pub_keys = sorted(first)
    pub_authors = []
    for p, record_id in enumerate(pub_keys):
        # a set: a name may occur twice in one record, or with and
        # without a gold id
        pub_authors.append(tuple(sorted({rank[i] for i in stream[first[record_id]]})))
        first[record_id] = p  # ``first`` becomes the publication index
    del stream
    author_pubs = [[] for _ in author_names]
    for p, authors in enumerate(pub_authors):
        for a in authors:
            author_pubs[a].append(p)
    return BipartiteGraph(pub_keys, first, pub_authors, author_names, names,
                          list(map(tuple, author_pubs)))


def build_graph(records) -> BipartiteGraph:
    """One author node per surface name, one pub node per authored record.

    ``records`` is consumed once, so a generator streams: only record
    ids and surface names are kept. Records without author mentions are
    skipped; duplicate same-name mentions on one record collapse to a
    single edge. Two authored records with one id raise
    ``DataIntegrityError``.
    """
    names: dict[str, int] = {}
    rows = ((rec.record_id, [names.setdefault(m.surface_name, len(names))
                             for m in rec.mentions])
            for rec in records if rec.mentions)
    return _assemble(rows, names)


def load_graph(path) -> BipartiteGraph:
    """``build_graph(read_records(path))``, built in one pass over the
    JSONL file with no record objects: each line goes straight to a
    record id and author ids. A malformed line raises CorpusParseError
    as ``read_records`` does.
    """
    names: dict[str, int] = {}

    def author(name, gold_id):
        return names.setdefault(name, len(names))

    rows = ((fields[0], ids) for fields, ids in read_lines(path, author) if ids)
    return _assemble(rows, names)


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
