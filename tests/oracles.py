"""Independent brute-force oracles used to check the library.

Everything here recomputes results from first principles and stays off
the code paths under test: distances and similarity edges come from
breadth-first search over an explicitly built networkx node graph,
BCubed from pairwise counting, the best-modularity partition from
exhaustive set-partition enumeration, Louvain from neighbour weights
summed afresh at every visit, DBLP records from an element tree of
the whole document, and the gold suffix from its regular expression.
"""

from __future__ import annotations

import html.entities
import itertools
import math
import re
import xml.etree.ElementTree as ET
from fractions import Fraction

import networkx as nx

from nameclust.records import AuthorMention, RawRecord


# -- bipartite distances -----------------------------------------------------


def build_nx_graph(records):
    """Author/publication node graph straight from the records."""
    g = nx.Graph()
    for rec in records:
        if not rec.mentions:
            continue
        pnode = ("p", rec.record_id)
        g.add_node(pnode)
        for m in rec.mentions:
            g.add_edge(pnode, ("a", m.surface_name))
    return g


def oracle_distance(g, p1, p2, excluded_author=None):
    """Intermediate-node count of the shortest path, or inf."""
    h = g
    if excluded_author is not None and ("a", excluded_author) in g:
        h = nx.restricted_view(g, [("a", excluded_author)], [])
    try:
        edges = nx.shortest_path_length(h, ("p", p1), ("p", p2))
    except (nx.NetworkXNoPath, nx.NodeNotFound):
        return math.inf
    return edges - 1


def oracle_components(g, members, focal_author, threshold):
    """Partition of members under 'distance <= threshold' transitive closure.

    Plain breadth-first search with an explicit cutoff over a dict
    adjacency (networkx views are too slow for the acceptance budget).
    """
    adj = {node: set(g[node]) for node in g}
    forbidden = ("a", focal_author)
    sim = nx.Graph()
    sim.add_nodes_from(members)
    members = sorted(members)
    member_set = set(members)
    max_edges = threshold + 1
    for p in members:
        src = ("p", p)
        if src not in adj:
            continue
        dist = {src: 0}
        frontier = [src]
        while frontier:
            nxt = []
            for node in frontier:
                d = dist[node] + 1
                if d > max_edges:
                    continue
                for nb in adj[node]:
                    if nb == forbidden or nb in dist:
                        continue
                    dist[nb] = d
                    nxt.append(nb)
                    if nb[0] == "p" and nb[1] in member_set and nb[1] != p:
                        sim.add_edge(p, nb[1])
            frontier = nxt
    return sorted((frozenset(c) for c in nx.connected_components(sim)),
                  key=sorted)


def oracle_similarity_edges(g, members, focal_author):
    """Weighted similarity edges {(u, v): w} with u < v between members:
    2.0 at co-author order 1 (a path of 2 edges), 1.0 at minimal order 2
    (4 edges). Breadth-first search per member over a dict adjacency that
    never enters the focal author's node."""
    adj = {node: set(g[node]) for node in g}
    forbidden = ("a", focal_author)
    member_set = set(members)
    weight = {2: 2.0, 4: 1.0}
    edges = {}
    for p in sorted(members):
        dist = {("p", p): 0}
        frontier = [("p", p)]
        for d in range(1, 5):
            nxt = []
            for node in frontier:
                for nb in adj[node]:
                    if nb != forbidden and nb not in dist:
                        dist[nb] = d
                        nxt.append(nb)
            frontier = nxt
        for (kind, q), d in dist.items():
            if kind == "p" and q in member_set and q > p:
                edges[(p, q)] = weight[d]
    return edges


# -- BCubed ------------------------------------------------------------------


def oracle_bcubed_item(items, predicted, gold, e, alpha=0.5):
    """Pairwise-counting BCubed for one item. predicted/gold map item->label."""
    same_cluster = [x for x in items if predicted[x] == predicted[e]]
    same_class = [x for x in items if gold[x] == gold[e]]
    correct_in_cluster = sum(1 for x in same_cluster if gold[x] == gold[e])
    p = correct_in_cluster / len(same_cluster)
    r = correct_in_cluster / len(same_class)
    if p == 0 or r == 0:
        f = 0.0
    else:
        f = 1.0 / (alpha / p + (1 - alpha) / r)
    return p, r, f


def oracle_bcubed_block(items, predicted, gold, alpha=0.5):
    trip = [oracle_bcubed_item(items, predicted, gold, e, alpha) for e in items]
    n = len(items)
    return (sum(t[0] for t in trip) / n,
            sum(t[1] for t in trip) / n,
            sum(t[2] for t in trip) / n)


def oracle_bcubed_exact(items, predicted, gold, alpha=0.5):
    """Block BCubed as exact Fractions, from the same pair counts as
    oracle_bcubed_item, with alpha taken as the exact value of its float.
    Every item shares its own cluster and class, so no side is 0."""
    a = Fraction(alpha)
    sum_p = sum_r = sum_f = Fraction(0)
    for e in items:
        same_cluster = [x for x in items if predicted[x] == predicted[e]]
        same_class = [x for x in items if gold[x] == gold[e]]
        correct_in_cluster = sum(1 for x in same_cluster if gold[x] == gold[e])
        p = Fraction(correct_in_cluster, len(same_cluster))
        r = Fraction(correct_in_cluster, len(same_class))
        sum_p += p
        sum_r += r
        sum_f += 1 / (a / p + (1 - a) / r)
    n = len(items)
    return sum_p / n, sum_r / n, sum_f / n


# -- modularity --------------------------------------------------------------


def oracle_modularity(nodes, edges, labels, resolution=1.0):
    """Direct double loop over ordered node pairs (including i == j)."""
    w = {}
    for (u, v), wt in edges.items():
        w[(u, v)] = w[(v, u)] = wt
    total = sum(edges.values())
    k = {u: 0.0 for u in nodes}
    for (u, v), wt in edges.items():
        k[u] += wt
        k[v] += wt
    q = 0.0
    for i in nodes:
        for j in nodes:
            if labels[i] != labels[j]:
                continue
            q += w.get((i, j), 0.0) / (2.0 * total)
            q -= resolution * k[i] * k[j] / (4.0 * total * total)
    return q


def iter_set_partitions(n):
    """All partitions of range(n) as label lists (restricted growth strings)."""
    labels = [0] * n

    def rec(i, max_label):
        if i == n:
            yield list(labels)
            return
        for lab in range(max_label + 2):
            labels[i] = lab
            yield from rec(i + 1, max(max_label, lab))

    yield from rec(1, 0) if n > 1 else iter([[0]] if n == 1 else [[]])


def oracle_best_partition(nodes, edges, resolution=1.0):
    """Exhaustive argmax of modularity over all partitions (n <= ~10).

    Q is maintained incrementally while walking the restricted-growth
    tree, so the cost per partition is O(n).
    """
    nodes = list(nodes)
    n = len(nodes)
    idx = {u: i for i, u in enumerate(nodes)}
    total = sum(edges.values())
    k = [0.0] * n
    m = [[0.0] * n for _ in range(n)]
    for (u, v), wt in edges.items():
        i, j = idx[u], idx[v]
        k[i] += wt
        k[j] += wt
    for i in range(n):
        for j in range(n):
            if i != j:
                uv = (nodes[i], nodes[j])
                vu = (nodes[j], nodes[i])
                a = edges.get(uv, edges.get(vu, 0.0))
            else:
                a = 0.0
            m[i][j] = a / (2.0 * total) - resolution * k[i] * k[j] / (4.0 * total * total)

    best_q = -math.inf
    best_labels = None
    labels = [0] * n
    members: list[list[int]] = [[] for _ in range(n)]

    def rec(i, max_label, q):
        nonlocal best_q, best_labels
        if i == n:
            if q > best_q:
                best_q = q
                best_labels = list(labels)
            return
        for lab in range(max_label + 2):
            delta = m[i][i] + 2.0 * sum(m[i][j] for j in members[lab])
            labels[i] = lab
            members[lab].append(i)
            rec(i + 1, max(max_label, lab), q + delta)
            members[lab].pop()

    members[0].append(0)
    rec(1, 0, m[0][0])
    members[0].pop()
    return best_q, {nodes[i]: best_labels[i] for i in range(n)}


def partition_from_labels(assignment):
    """Canonical form: sorted tuple of frozensets, for comparing partitions."""
    groups = {}
    for item, lab in assignment.items():
        groups.setdefault(lab, set()).add(item)
    return sorted((frozenset(g) for g in groups.values()), key=sorted)


# -- Louvain -----------------------------------------------------------------


def _oracle_local_move(adj, k, total, resolution):
    """One level of greedy moves, each node's weight to every neighbouring
    community summed afresh from its edges at every visit."""
    n = len(adj)
    comm = list(range(n))
    sigma = list(k)
    moved = False
    improved = True
    while improved:
        improved = False
        for i in range(n):
            c_old = comm[i]
            sigma[c_old] -= k[i]
            weights = {}
            for j, w in adj[i].items():
                weights[comm[j]] = weights.get(comm[j], 0.0) + w

            def gain(c):
                return (weights.get(c, 0.0) / total
                        - resolution * k[i] * sigma[c] / (2.0 * total * total))

            # the largest gain, ties to the lowest label
            best = max([c_old, *weights], key=lambda c: (gain(c), -c))
            comm[i] = best
            sigma[best] += k[i]
            if best != c_old:
                improved = moved = True
    dense = {c: d for d, c in enumerate(sorted(set(comm)))}
    return [dense[c] for c in comm], moved


def oracle_louvain(nodes, edges, resolution=1.0, max_passes=100):
    """Two-phase Louvain by definition. Nodes are swept in id order and
    join the neighbouring community of largest positive gain, ties to the
    lowest label; each level's communities, numbered in ascending label
    order, become the next level's nodes, keeping their internal weight
    as a self weight. Returns ({node: label}, passes, q): labels numbered
    by each community's lowest node, the number of aggregation levels,
    and Q summed over the original edges community by community in label
    order (None without edges)."""
    index = {u: i for i, u in enumerate(nodes)}
    adj = [{} for _ in nodes]
    for (u, v), w in edges.items():
        iu, iv = index[u], index[v]
        adj[iu][iv] = adj[iv][iu] = adj[iu].get(iv, 0.0) + w
    total = sum(edges.values())
    if not total:
        return {u: i for i, u in enumerate(nodes)}, 0, None
    self_w = [0.0] * len(nodes)
    super_of = list(range(len(nodes)))
    passes = 0
    while passes < max_passes:
        k = [sum(row.values()) + 2.0 * s for row, s in zip(adj, self_w)]
        comm, moved = _oracle_local_move(adj, k, total, resolution)
        if not moved:
            break
        passes += 1
        new_adj = [{} for _ in range(max(comm) + 1)]
        new_self = [0.0] * len(new_adj)
        for i, row in enumerate(adj):
            new_self[comm[i]] += self_w[i]
            for j, w in row.items():
                if comm[i] == comm[j]:
                    new_self[comm[i]] += w / 2.0  # each edge seen from both ends
                else:
                    new_adj[comm[i]][comm[j]] = new_adj[comm[i]].get(comm[j], 0.0) + w
        adj, self_w = new_adj, new_self
        super_of = [comm[s] for s in super_of]
    first_seen = {}
    for s in super_of:
        first_seen.setdefault(s, len(first_seen))
    labels = {u: first_seen[super_of[i]] for i, u in enumerate(nodes)}
    w_in = [0.0] * len(first_seen)
    degree = [0.0] * len(first_seen)
    for (u, v), w in edges.items():
        degree[labels[u]] += w
        degree[labels[v]] += w
        if labels[u] == labels[v]:
            w_in[labels[u]] += w
    q = 0.0
    for c in range(len(first_seen)):
        q += w_in[c] / total - resolution * (degree[c] / (2.0 * total)) ** 2
    return labels, passes, q


# -- DBLP XML -----------------------------------------------------------------


_SUFFIX_RE = re.compile(r"^(.*\S) ([0-9]{4})$")


def oracle_mention(raw: str) -> tuple[str, str | None]:
    """The (surface name, gold id) of a printed author name, by definition:
    whitespace normalized, then one space and four ASCII digits after a
    name that ends in a non-space mark the gold id."""
    name = " ".join(raw.split())
    m = _SUFFIX_RE.match(name)
    return (m.group(1), m.group(2)) if m else (name, None)


def oracle_dblp_records(doc: bytes) -> list[RawRecord]:
    """The records of a whole DBLP document, read from its element tree.

    Each child of the root with a ``key`` is a publication; each of its
    children is a field whose text is all character data inside it,
    stripped. Its last title, last non-empty journal or booktitle and
    last non-empty year count; a year that is not an integer is none.
    """
    parser = ET.XMLParser()
    parser.entity.update((name[:-1], value) for name, value
                         in html.entities.html5.items() if name.endswith(";"))
    root = ET.fromstring(doc, parser=parser)
    kinds = {"article", "inproceedings", "proceedings", "book", "incollection",
             "phdthesis", "mastersthesis", "www"}
    records = []
    for pub in root:
        if pub.get("key") is None:
            continue
        title, venue, year, mentions = "", None, None, []
        for child in pub:
            text = "".join(child.itertext()).strip()
            if child.tag == "author" and text:
                mentions.append(AuthorMention(*oracle_mention(text)))
            elif child.tag == "title":
                title = text
            elif child.tag in ("journal", "booktitle") and text:
                venue = text
            elif child.tag == "year" and text:
                try:
                    year = int(text)
                except ValueError:
                    year = None
        records.append(RawRecord(
            record_id=pub.get("key"), kind=pub.tag if pub.tag in kinds else "other",
            title=title, venue=venue, year=year, mentions=tuple(mentions)))
    return records
