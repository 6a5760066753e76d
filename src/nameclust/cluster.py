"""Threshold-distance clustering of a block by union-find."""

from __future__ import annotations

from .gold import Block
from .graph import BipartiteGraph
from .graph import pubs_within  # noqa: F401  kept in this namespace for perfbench/tracer.py


def count_comparisons(blocks: list[Block]) -> int:
    """Total pairwise comparisons over all blocks: sum of m(m-1)/2."""
    return sum(b.m * (b.m - 1) // 2 for b in blocks)


def name_clusters(members, keys) -> dict[str, str]:
    """The clustering that puts members with equal keys together: record
    id -> cluster id.

    ``members`` come in ascending record id order and ``keys`` gives each
    member's cluster key, in the same order. A cluster's id is the first
    member met with its key, which is its lowest record id, so no id
    depends on the keys' values."""
    first = {}
    return {m: first.setdefault(k, m) for m, k in zip(members, keys)}


def cluster_block(b: Block, g: BipartiteGraph, thresholds) -> list[dict[str, str]]:
    """For each t of ``thresholds``, in order, the connected components
    of the block's publications under "distance (focal author excluded)
    at most t"; unmatched publications stay singletons.

    Two publications are within distance 2k - 1 exactly when the balls
    of k edges around them share a node, so one union-find pass over
    the block's neighbourhood decides every pair at once: starting from
    all members, every edge leaving a node fewer than k edges from the
    nearest member is merged; the forest after k levels is the partition
    at t = 2k - 1. No pair of members is ever compared.
    """
    for t in thresholds:
        if t < 1 or t % 2 == 0:
            raise ValueError("distance bound must be odd and >= 1")
    levels = [(t + 1) // 2 for t in thresholds]
    members = sorted(b.gold_label)
    focal = b.block_key
    pub_authors, author_pubs = g.pub_authors, g.author_pubs
    # parent holds the union-find forest over every node reached so far:
    # publications as their int ids, authors as their names
    ids = [g.pub_index[p] for p in members]
    parent = {p: p for p in ids}

    def find(x):
        # path halving: each node on the way is pointed at its grandparent
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    partitions = {}  # levels done -> the partition after them
    frontier = ids
    for depth in range(max(levels)):
        nxt = []
        for u in frontier:
            if depth % 2 == 0:
                nbrs = [a for a in pub_authors[u] if a != focal]
            else:
                nbrs = author_pubs[u]
            # root is never re-pointed below, so it stays a root
            root = find(u)
            for v in nbrs:
                if v not in parent:
                    parent[v] = root
                    nxt.append(v)
                else:
                    rv = find(v)
                    if rv != root:
                        parent[rv] = root
        if depth + 1 in levels or not nxt:
            partitions[depth + 1] = name_clusters(members, map(find, ids))
        if not nxt:
            break
        frontier = nxt
    # no level after one that reaches no new node can merge, so every
    # deeper threshold reads the partition taken at the stop
    return [partitions[min(k, depth + 1)] for k in levels]


def write_clusters_tsv(blocks, clusterings, path) -> None:
    """TSV dump of each block's clustering, in the order of ``blocks``:
    block_key, record_id, cluster_id, gold_key."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("block_key\trecord_id\tcluster_id\tgold_key\n")
        for b, c in zip(blocks, clusterings, strict=True):
            for rid in sorted(c):
                fh.write(f"{b.block_key}\t{rid}\t{c[rid]}\t{b.gold_label[rid]}\n")
