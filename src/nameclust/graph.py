"""Bipartite author-publication network with bounded distance queries.

The graph is immutable after construction. Adjacency is two lists of
sorted id lists over dense integer ids; publication ids follow sorted
record_id order and author ids follow sorted name order, so traversal
order (and every downstream tie-break) is deterministic.
"""

from __future__ import annotations

import math

from .errors import UnknownNodeError

INFINITE = math.inf


class BipartiteGraph:
    def __init__(self, pub_keys, author_names, pub_adj_sets):
        # pub_keys/author_names sorted; pub_adj_sets[i] = author ids of pub i
        self.pub_keys = pub_keys
        self.author_names = author_names
        self.pub_index = {k: i for i, k in enumerate(pub_keys)}
        self.author_index = {a: i for i, a in enumerate(author_names)}
        # pub_authors[p]: author ids of publication p; author_pubs[a]:
        # publication ids of author a; both ascending
        self.pub_authors = [sorted(s) for s in pub_adj_sets]
        self.author_pubs: list[list[int]] = [[] for _ in author_names]
        for p, authors in enumerate(self.pub_authors):
            for a in authors:
                self.author_pubs[a].append(p)

    # -- structure ---------------------------------------------------------

    @property
    def n_pubs(self) -> int:
        return len(self.pub_keys)

    @property
    def n_authors(self) -> int:
        return len(self.author_names)

    def pub_degree(self, record_id: str) -> int:
        return len(self.pub_authors[self.pub_id(record_id)])

    def authors_of(self, record_id: str) -> list[str]:
        return [self.author_names[a] for a in self.pub_authors[self.pub_id(record_id)]]

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


def build_graph(records) -> BipartiteGraph:
    """One author node per surface name, one pub node per authored record.

    Records without author mentions are skipped; duplicate same-name
    mentions on one record collapse to a single edge.
    """
    pubs = {}
    names = set()
    for rec in records:
        if not rec.mentions:
            continue
        surf = {m.surface_name for m in rec.mentions}
        pubs[rec.record_id] = surf
        names.update(surf)
    pub_keys = sorted(pubs)
    author_names = sorted(names)
    author_index = {a: i for i, a in enumerate(author_names)}
    pub_adj_sets = [{author_index[a] for a in pubs[k]} for k in pub_keys]
    return BipartiteGraph(pub_keys, author_names, pub_adj_sets)


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
