"""Weighted publication-similarity graph and Louvain refinement.

Used to split over-merged clusters of common names: edges carry weight
2.0 for publications sharing a co-author and 1.0 for co-author-of-
co-author links, and greedy modularity maximization regroups the block.

The pipeline refines each block on dense integer ids from start to
finish: a list-of-dict adjacency over the block's members, Louvain on
that adjacency, and modularity read from Louvain's own state. Every
weight is 1.0 or 2.0, so every sum is an exact integer in a float and
comes out the same whatever the order of addition.
``build_similarity_graph`` and ``louvain`` adapt the same core to
string-node callers.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cluster import Clustering, groups_to_clustering
from .errors import UndefinedModularityError
from .gold import Block
from .graph import BipartiteGraph
from .graph import pubs_within  # noqa: F401  kept in this namespace for perfbench/tracer.py

MAX_PASSES = 100  # cap on Louvain aggregation levels


@dataclass(frozen=True)
class WeightedPubGraph:
    nodes: tuple[str, ...]
    edges: dict[tuple[str, str], float]  # keys (u, v) with u < v

    @property
    def total_weight(self) -> float:
        return sum(self.edges.values())


@dataclass
class Partition:
    assignment: dict[str, int]  # node -> dense community id
    q: float | None = None
    passes: int = 0


def _similarity_adjacency(b: Block, g: BipartiteGraph):
    """The block's members in ascending record id (and so publication
    id) order, and their similarity adjacency over those local ids:
    ``adj[i][j]`` is 2.0 when members i and j share a co-author other
    than the block's own author node, 1.0 when they are co-author-of-
    co-author linked at minimal order 2, and absent otherwise."""
    nodes = sorted(b.members)
    excluded = g.author_id(b.block_key)
    pub_authors, author_pubs = g.pub_authors, g.author_pubs
    local = {g.pub_id(rid): i for i, rid in enumerate(nodes)}
    members = set(local)
    adj: list[dict[int, float]] = []
    for i, p in enumerate(local):
        # order 1: publications of p's non-focal authors; order 2: those
        # of the authors one publication further on, not yet seen
        seen = set(pub_authors[p])
        seen.discard(excluded)
        near = set().union(*[author_pubs[a] for a in seen])
        far = set().union(*[pub_authors[q] for q in near])
        far -= seen
        far.discard(excluded)
        far_pubs = set().union(*[author_pubs[a] for a in far])
        row = dict.fromkeys([local[q] for q in members & far_pubs], 1.0)
        row.update(dict.fromkeys([local[q] for q in members & near], 2.0))
        row.pop(i, None)
        adj.append(row)
    return nodes, adj


def build_similarity_graph(b: Block, g: BipartiteGraph) -> WeightedPubGraph:
    """Edges between block members at co-author order 1 (weight 2.0) or
    minimal order 2 (weight 1.0); the block's own author node is excluded."""
    nodes, adj = _similarity_adjacency(b, g)
    edges = {(nodes[i], nodes[j]): w
             for i, row in enumerate(adj) for j, w in row.items() if j > i}
    return WeightedPubGraph(nodes=tuple(nodes), edges=edges)


def modularity(g: WeightedPubGraph, p: Partition, resolution: float = 1.0) -> float:
    """Weighted Newman-Girvan modularity with multiplicative resolution:
    Q = sum_c [ W_in(c)/W - resolution * (S(c) / 2W)^2 ]."""
    if set(p.assignment) != set(g.nodes):
        raise ValueError("partition must cover exactly the graph's nodes")
    total = g.total_weight
    if total <= 0:
        raise UndefinedModularityError("modularity undefined on an edgeless graph")
    w_in: dict[int, float] = {}
    degree: dict[int, float] = {}
    for (u, v), w in g.edges.items():
        cu, cv = p.assignment[u], p.assignment[v]
        degree[cu] = degree.get(cu, 0.0) + w
        degree[cv] = degree.get(cv, 0.0) + w
        if cu == cv:
            w_in[cu] = w_in.get(cu, 0.0) + w
    q = 0.0
    for c in sorted(set(p.assignment.values())):  # fixed float summation order
        s = degree.get(c, 0.0)
        q += w_in.get(c, 0.0) / total - resolution * (s / (2.0 * total)) ** 2
    return q


def _local_move(adj, k, total, resolution):
    """One level of greedy node moves; returns (communities, moved_any).

    Nodes are swept in ascending id order; a node joins the neighboring
    community with the largest positive gain, ties to the lowest label.
    The communities come back numbered 0..c-1 in ascending label order.
    """
    n = len(adj)
    comm = list(range(n))
    sigma = list(k)  # total degree per community label
    denom = 2.0 * total * total
    moved_any = False
    improved = True
    while improved:
        improved = False
        for i in range(n):
            c_old = comm[i]
            k_i = k[i]
            rk = resolution * k_i
            sigma[c_old] -= k_i
            weights: dict[int, float] = {}
            for j, w in adj[i].items():
                cj = comm[j]
                weights[cj] = weights.get(cj, 0.0) + w
            best_c = c_old
            best_gain = weights.get(c_old, 0.0) / total - rk * sigma[c_old] / denom
            # (gain, -label) is a total order, so the visit order is free
            for c, w in weights.items():
                gain = w / total - rk * sigma[c] / denom
                if gain > best_gain or (gain == best_gain and c < best_c):
                    best_gain = gain
                    best_c = c
            comm[i] = best_c
            sigma[best_c] += k_i
            if best_c != c_old:
                improved = True
                moved_any = True
    dense = {c: d for d, c in enumerate(sorted(set(comm)))}
    return [dense[c] for c in comm], moved_any


def _aggregate(adj, self_w, comm):
    """Collapse communities 0..c-1 into supernodes, keeping edge weights."""
    n_new = max(comm) + 1
    new_adj = [dict() for _ in range(n_new)]
    new_self = [0.0] * n_new
    for i in range(len(adj)):
        ci = comm[i]
        new_self[ci] += self_w[i]
        for j, w in adj[i].items():
            if j <= i:
                continue
            cj = comm[j]
            if ci == cj:
                new_self[ci] += w
            else:
                new_adj[ci][cj] = new_adj[ci].get(cj, 0.0) + w
                new_adj[cj][ci] = new_adj[cj].get(ci, 0.0) + w
    return new_adj, new_self


def _degrees(adj, self_w):
    """Weighted degree of each node; a self weight counts twice."""
    return [sum(adj[i].values()) + 2.0 * self_w[i] for i in range(len(adj))]


def _louvain(adj, total, resolution):
    """Two-phase greedy modularity maximization on a symmetric
    list-of-dict adjacency of total edge weight ``total``.

    Returns (labels, passes, q): each node's community, numbered densely
    by the community's lowest node id, the number of aggregation levels,
    and the partition's modularity (None when there are no edges). Q is
    read from the final level, where a community is one supernode: its
    internal weight is the supernode's self weight and its degree sum
    the supernode's degree, so no pass over the edges is needed.
    """
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    n = len(adj)
    if not total:
        return list(range(n)), 0, None
    self_w = [0.0] * n
    k = _degrees(adj, self_w)
    node_to_super = list(range(n))
    passes = 0
    while passes < MAX_PASSES:
        comm, moved = _local_move(adj, k, total, resolution)
        if not moved:
            break
        passes += 1
        adj, self_w = _aggregate(adj, self_w, comm)
        node_to_super = [comm[s] for s in node_to_super]
        k = _degrees(adj, self_w)

    # dense ids ordered by each community's lowest node id
    first_seen: dict[int, int] = {}
    for s in node_to_super:
        first_seen.setdefault(s, len(first_seen))
    q = 0.0
    for s in first_seen:  # dense-id order, as modularity sums
        q += self_w[s] / total - resolution * (k[s] / (2.0 * total)) ** 2
    return [first_seen[s] for s in node_to_super], passes, q


def louvain(g: WeightedPubGraph, resolution: float = 1.0) -> Partition:
    """Two-phase greedy modularity maximization, deterministic: nodes are
    visited in sorted id order."""
    nodes = list(g.nodes)
    index = {u: i for i, u in enumerate(nodes)}
    adj: list[dict[int, float]] = [dict() for _ in nodes]
    for (u, v), w in g.edges.items():
        iu, iv = index[u], index[v]
        adj[iu][iv] = adj[iu].get(iv, 0.0) + w
        adj[iv][iu] = adj[iv].get(iu, 0.0) + w
    labels, passes, q = _louvain(adj, g.total_weight, resolution)
    return Partition(assignment=dict(zip(nodes, labels)), q=q, passes=passes)


def refine_with_report(b: Block, base: Clustering, g: BipartiteGraph,
                       resolution: float = 1.0):
    """Re-cluster the block by Louvain communities of its similarity graph.

    Returns (Clustering, report) where the report carries modularity
    before/after, pass count, and community count for the JSON export.
    """
    nodes, adj = _similarity_adjacency(b, g)
    k = _degrees(adj, [0.0] * len(adj))
    total = sum(k) / 2.0
    labels, passes, q_after = _louvain(adj, total, resolution)
    q_before = None
    if total:
        # the base clusters numbered in cluster-id order; one pass over
        # the edges for each cluster's internal weight and degree sum
        index = {rid: i for i, rid in enumerate(nodes)}
        cluster_of = [0] * len(nodes)
        for c, cid in enumerate(sorted(base.clusters)):
            for rid in base.clusters[cid]:
                cluster_of[index[rid]] = c
        w_in = [0.0] * len(base.clusters)
        degree = [0.0] * len(base.clusters)
        for i, row in enumerate(adj):
            c = cluster_of[i]
            degree[c] += k[i]
            for j, w in row.items():
                if j > i and cluster_of[j] == c:
                    w_in[c] += w
        q_before = 0.0
        for c in range(len(base.clusters)):
            q_before += w_in[c] / total - resolution * (degree[c] / (2.0 * total)) ** 2
    groups: list[list[str]] = [[] for _ in range(max(labels) + 1)]
    for rid, label in zip(nodes, labels):
        groups[label].append(rid)
    refined = groups_to_clustering(b.block_key, groups, comparisons=base.comparisons)
    report = {
        "block_key": b.block_key,
        "q_before": q_before,
        "q_after": q_after,
        "passes": passes,
        "communities": len(refined.clusters),
    }
    return refined, report
