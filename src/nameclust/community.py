"""Weighted publication-similarity graph and Louvain refinement.

Used to split over-merged clusters of common names: edges carry weight
2.0 for publications sharing a co-author and 1.0 for co-author-of-
co-author links, and greedy modularity maximization regroups the block.

The refinement runs on dense integer ids from start to finish, through
three functions: ``build_similarity_graph`` gives the block's members
and a list-of-dict adjacency over them, ``louvain`` partitions that
adjacency, and ``modularity`` scores a partition of it. Work whose
answer is already known is not redone. The adjacency reads the
publication list of each non-focal author of the block's members once
per block, and no other author's.
After its first sweep, a level of Louvain keeps each node's weight to
each neighbouring community current as nodes move, instead of
rescanning every neighbour at every visit, and the next level is read
from those weights.

Every edge weight is a positive integer held in a float (1.0 or 2.0
from the similarity graph). Every sum and difference of such weights is
then an exact integer, while the total stays below 2**53, so it comes
out the same whatever the order of additions and subtractions. That
exactness is why the kept-current weights give the very floats a rescan
gives, and so the same candidates, gains and moves, and why the Q that
``louvain`` reads from its final level equals ``modularity`` of its
partition. ``louvain`` rejects any other weight with ``ValueError``.
"""

from __future__ import annotations

from .cluster import name_clusters
from .errors import UndefinedModularityError
from .gold import Block
from .graph import BipartiteGraph
from .graph import pubs_within  # noqa: F401  kept in this namespace for perfbench/tracer.py

MAX_PASSES = 100  # cap on Louvain aggregation levels


def build_similarity_graph(b: Block, g: BipartiteGraph):
    """The block's members in ascending record id order, and their
    similarity adjacency over their positions there as local ids:
    ``adj[i][j]`` is 2.0 when members i and j share a co-author other
    than the block's own author node, 1.0 when they are co-author-of-
    co-author linked at minimal order 2, and absent otherwise.

    ``near[a]`` holds the members that author a wrote, for each non-focal
    author a of a member, read off the members' own author lists;
    ``far[a]`` is the union of ``near`` over the authors of a's
    publications, so each such author's publication list is read once.
    A member's weight-2 set is the union of ``near`` over its non-focal
    authors, its weight-1 set the union of ``far`` over them less the
    weight-2 set; whatever one of its own authors reaches is already in
    the weight-2 set."""
    nodes = sorted(b.gold_label)
    focal = b.block_key
    pub_authors, author_pubs = g.pub_authors, g.author_pubs
    member_authors = [[a for a in pub_authors[g.pub_index[rid]] if a != focal]
                      for rid in nodes]
    near: dict[str, set[int]] = {}
    for i, authors in enumerate(member_authors):
        for a in authors:
            near.setdefault(a, set()).add(i)
    far: dict[str, set[int]] = {}
    for a in near:
        coauthors = {c for q in author_pubs[a] for c in pub_authors[q]}
        far[a] = set().union(*[near[c] for c in coauthors if c in near])
    adj: list[dict[int, float]] = []
    for i, authors in enumerate(member_authors):
        strong = set().union(*[near[a] for a in authors])
        weak = set().union(*[far[a] for a in authors])
        weak -= strong
        row = dict.fromkeys(weak, 1.0)
        row.update(dict.fromkeys(strong, 2.0))
        row.pop(i, None)
        adj.append(row)
    return nodes, adj


def modularity(adj, labels, resolution: float = 1.0) -> float:
    """Weighted Newman-Girvan modularity with multiplicative resolution
    of the partition that gives node i the community ``labels[i]``:
    Q = sum_c [ W_in(c)/W - resolution * (S(c) / 2W)^2 ], summed over the
    communities in ascending label order."""
    if len(labels) != len(adj):
        raise ValueError("labels must cover exactly the adjacency's nodes")
    k = [sum(row.values()) for row in adj]
    total = sum(k) / 2.0
    if not total:
        raise UndefinedModularityError("modularity undefined on an edgeless graph")
    number = {c: d for d, c in enumerate(sorted(set(labels)))}
    comm = [number[c] for c in labels]
    w_in = [0.0] * len(number)
    degree = [0.0] * len(number)
    for i, row in enumerate(adj):
        c = comm[i]
        degree[c] += k[i]
        for j, w in row.items():
            if j > i and comm[j] == c:
                w_in[c] += w
    q = 0.0
    for c in range(len(number)):
        q += w_in[c] / total - resolution * (degree[c] / (2.0 * total)) ** 2
    return q


def _community_weights(row, comm):
    """{community: total weight of the edges in ``row`` into it}."""
    weights: dict[int, float] = {}
    for j, w in row.items():
        cj = comm[j]
        weights[cj] = weights.get(cj, 0.0) + w
    return weights


def _local_move(adj, k, total, resolution):
    """One level of greedy node moves; returns (communities, next level).

    Nodes are swept in ascending id order; a node joins the neighboring
    community with the largest positive gain, ties to the lowest label.
    The communities come back numbered 0..c-1 in ascending label order.
    The next level is None if no node moved, else the adjacency and
    degrees of the graph whose nodes are the communities, read from
    ``links`` and ``sigma``: no edge is walked again.

    The first sweep, in which nearly every node moves, sums each node's
    weight per neighbouring community at its visit. If it moved a node,
    ``links[i]`` (that map for node i) is built once for every node and
    from then on kept current: a move from ``c_old`` to ``c_new`` shifts
    the node's edge weight from ``c_old`` to ``c_new`` in each
    neighbour's map, dropping an entry that reaches 0. With integer
    weights each entry is the float a rescan would sum.
    """
    n = len(adj)
    comm = list(range(n))
    sigma = list(k)  # total degree per community label
    denom = 2.0 * total * total
    links = None
    improved = True
    while improved:
        improved = False
        for i in range(n):
            c_old = comm[i]
            k_i = k[i]
            rk = resolution * k_i
            sigma[c_old] -= k_i
            weights = _community_weights(adj[i], comm) if links is None else links[i]
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
                if links is not None:
                    for j, w in adj[i].items():
                        lj = links[j]
                        left = lj[c_old] - w
                        if left:
                            lj[c_old] = left
                        else:
                            del lj[c_old]
                        lj[best_c] = lj.get(best_c, 0.0) + w
        if improved and links is None:
            links = [_community_weights(row, comm) for row in adj]
    if links is None:
        return comm, None
    labels = sorted(set(comm))
    dense = {c: d for d, c in enumerate(labels)}
    comm = [dense[c] for c in comm]
    # a community's edge to another is the sum of its nodes' links
    # entries for it; its own entries are internal weight, which its
    # degree in sigma already holds twice
    new_adj: list[dict[int, float]] = [{} for _ in labels]
    for i, row in enumerate(links):
        ci = comm[i]
        out = new_adj[ci]
        for c, w in row.items():
            d = dense[c]
            if d != ci:
                out[d] = out.get(d, 0.0) + w
    return comm, (new_adj, [sigma[c] for c in labels])


def louvain(adj, resolution: float = 1.0):
    """Two-phase greedy modularity maximization on a symmetric
    list-of-dict adjacency, deterministic: nodes are visited in ascending
    id order. Every edge weight must be a positive integer (see the
    module docstring); any other raises ``ValueError``.

    Returns (labels, passes, q): each node's community, numbered densely
    by the community's lowest node id, the number of aggregation levels,
    and the partition's modularity (None when there are no edges). Q is
    read from the final level, where a community is one supernode: its
    degree sum is the supernode's degree, and its internal weight half
    of what that degree holds beyond the supernode's edges, so no pass
    over the original edges is needed.
    """
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    for w in set().union(*map(dict.values, adj)):
        if not (w > 0 and float(w).is_integer()):
            raise ValueError(f"edge weight {w!r}: weights must be positive integers")
    n = len(adj)
    k = [sum(row.values()) for row in adj]
    total = sum(k) / 2.0
    if not total:
        return list(range(n)), 0, None
    node_to_super = list(range(n))
    passes = 0
    while passes < MAX_PASSES:
        comm, level = _local_move(adj, k, total, resolution)
        if level is None:
            break
        passes += 1
        adj, k = level
        node_to_super = [comm[s] for s in node_to_super]

    # dense ids ordered by each community's lowest node id
    first_seen: dict[int, int] = {}
    for s in node_to_super:
        first_seen.setdefault(s, len(first_seen))
    q = 0.0
    for s in first_seen:  # dense-id order, as modularity sums
        w_in = (k[s] - sum(adj[s].values())) / 2.0
        q += w_in / total - resolution * (k[s] / (2.0 * total)) ** 2
    return [first_seen[s] for s in node_to_super], passes, q


def refine_with_report(b: Block, base: dict[str, str], g: BipartiteGraph,
                       resolution: float = 1.0):
    """Re-cluster the block by Louvain communities of its similarity graph.

    Returns (clustering, report) where the report carries modularity
    before/after, pass count, and community count for the JSON export.
    """
    nodes, adj = build_similarity_graph(b, g)
    labels, passes, q_after = louvain(adj, resolution)
    q_before = None if q_after is None else modularity(
        adj, [base[rid] for rid in nodes], resolution)
    refined = name_clusters(nodes, labels)
    report = {
        "q_before": q_before,
        "q_after": q_after,
        "passes": passes,
        "communities": max(labels) + 1,
    }
    return refined, report
