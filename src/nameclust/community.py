"""Weighted publication-similarity graph and Louvain refinement.

Used to split over-merged clusters of common names: edges carry weight
2.0 for publications sharing a co-author and 1.0 for co-author-of-
co-author links, and greedy modularity maximization regroups the block.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cluster import Clustering, groups_to_clustering
from .errors import UndefinedModularityError
from .gold import Block
from .graph import BipartiteGraph, pubs_within

ORDER_WEIGHTS = {1: 2.0, 2: 1.0}
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

    def communities(self) -> list[set[str]]:
        out: dict[int, set[str]] = {}
        for node, cid in self.assignment.items():
            out.setdefault(cid, set()).add(node)
        return [out[cid] for cid in sorted(out)]


def build_similarity_graph(b: Block, g: BipartiteGraph) -> WeightedPubGraph:
    """Edges between block members at co-author order 1 (weight 2.0) or
    minimal order 2 (weight 1.0); the block's own author node is excluded."""
    nodes = tuple(sorted(b.members))
    edges: dict[tuple[str, str], float] = {}
    for p in nodes:
        for q, order in pubs_within(g, p, 2, b.block_key).items():
            if q <= p or q not in b.members:
                continue
            edges[(p, q)] = ORDER_WEIGHTS[order]
    return WeightedPubGraph(nodes=nodes, edges=edges)


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
    moved_any = False
    improved = True
    while improved:
        improved = False
        for i in range(n):
            c_old = comm[i]
            sigma[c_old] -= k[i]
            weights: dict[int, float] = {}
            for j, w in adj[i].items():
                cj = comm[j]
                weights[cj] = weights.get(cj, 0.0) + w
            best_c = c_old
            best_gain = (
                weights.get(c_old, 0.0) / total
                - resolution * k[i] * sigma[c_old] / (2.0 * total * total)
            )
            # (gain, -label) is a total order, so the visit order is free
            for c, w in weights.items():
                gain = w / total - resolution * k[i] * sigma[c] / (2.0 * total * total)
                if gain > best_gain or (gain == best_gain and c < best_c):
                    best_gain = gain
                    best_c = c
            comm[i] = best_c
            sigma[best_c] += k[i]
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


def louvain(g: WeightedPubGraph, resolution: float = 1.0) -> Partition:
    """Two-phase greedy modularity maximization, deterministic: nodes are
    visited in sorted id order."""
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    nodes = list(g.nodes)
    index = {u: i for i, u in enumerate(nodes)}
    if not g.edges:
        return Partition(assignment={u: i for i, u in enumerate(nodes)})

    adj: list[dict[int, float]] = [dict() for _ in nodes]
    for (u, v), w in g.edges.items():
        iu, iv = index[u], index[v]
        adj[iu][iv] = adj[iu].get(iv, 0.0) + w
        adj[iv][iu] = adj[iv].get(iu, 0.0) + w
    self_w = [0.0] * len(nodes)
    total = g.total_weight

    node_to_super = list(range(len(nodes)))
    passes = 0
    while passes < MAX_PASSES:
        k = [sum(adj[i].values()) + 2.0 * self_w[i] for i in range(len(adj))]
        comm, moved = _local_move(adj, k, total, resolution)
        if not moved:
            break
        passes += 1
        adj, self_w = _aggregate(adj, self_w, comm)
        node_to_super = [comm[s] for s in node_to_super]

    # dense ids ordered by each community's lowest node id
    first_seen: dict[int, int] = {}
    for i, s in enumerate(node_to_super):
        first_seen.setdefault(s, len(first_seen))
    assignment = {nodes[i]: first_seen[node_to_super[i]]
                  for i in range(len(nodes))}
    part = Partition(assignment=assignment, passes=passes)
    part.q = modularity(g, part, resolution)
    return part


def refine_with_report(b: Block, base: Clustering, g: BipartiteGraph,
                       resolution: float = 1.0):
    """Re-cluster the block by Louvain communities of its similarity graph.

    Returns (Clustering, report) where the report carries modularity
    before/after, pass count, and community count for the JSON export.
    """
    wg = build_similarity_graph(b, g)
    part = louvain(wg, resolution)
    q_before = None
    if wg.edges:
        base_part = Partition(assignment={
            rid: i for i, cid in enumerate(sorted(base.clusters))
            for rid in base.clusters[cid]
        })
        q_before = modularity(wg, base_part, resolution)
    refined = groups_to_clustering(
        b.block_key, part.communities(), comparisons=base.comparisons
    )
    report = {
        "block_key": b.block_key,
        "q_before": q_before,
        "q_after": part.q,
        "passes": part.passes,
        "communities": len(refined.clusters),
    }
    return refined, report
