"""Shared test inputs.

``groups_to_clustering`` names clusters given as groups in any order.
``wgraph`` makes a graph on string nodes, and ``similarity_graph``,
``louvain`` and ``modularity`` run the package's dense-id community
functions on such graphs and read their results back by node.

The fixed graph family checks Louvain against exhaustive search. All
its graphs have at most 12 nodes so the set-partition argmax stays
enumerable: bridged cliques, stars, paths, and planted two-community
blocks with the {2, 1} weight scheme. ``shared_coauthor_corpus`` draws
small corpora whose blocks share co-authors, ``hub_corpus`` corpora
whose blocks share a few prolific co-authors. ``long_dblp_document`` is
DBLP XML of many parser reads, and ``FailingStream`` a caller stream that
fails part-way.
"""

import collections
import io
import itertools
import random

from conftest import rec
from nameclust import community

# nodes: sorted node names; edges: (u, v) -> weight, each edge once
StringGraph = collections.namedtuple("StringGraph", ["nodes", "edges"])
# assignment: node -> dense community id; q: modularity or None; passes:
# Louvain levels run
Partition = collections.namedtuple("Partition", ["assignment", "q", "passes"])


def groups_to_clustering(groups):
    """The clustering of ``groups``, given in any order, each cluster
    named by the lowest record id in it."""
    assignment = {}
    for grp in groups:
        cid = min(grp)
        for rid in grp:
            assignment[rid] = cid
    return assignment


def wgraph(nodes, edges):
    return StringGraph(nodes=tuple(sorted(nodes)), edges=dict(edges))


def _adjacency(g):
    index = {u: i for i, u in enumerate(g.nodes)}
    adj = [{} for _ in g.nodes]
    for (u, v), w in g.edges.items():
        iu, iv = index[u], index[v]
        adj[iu][iv] = adj[iu].get(iv, 0.0) + w
        adj[iv][iu] = adj[iv].get(iu, 0.0) + w
    return adj


def similarity_graph(block, graph):
    """``community.build_similarity_graph`` on record ids."""
    nodes, adj = community.build_similarity_graph(block, graph)
    return wgraph(nodes, {(nodes[i], nodes[j]): w
                          for i, row in enumerate(adj) for j, w in row.items() if j > i})


def louvain(g, resolution=1.0):
    """``community.louvain`` on ``g``, its labels keyed by node."""
    labels, passes, q = community.louvain(_adjacency(g), resolution)
    return Partition(assignment=dict(zip(g.nodes, labels)), q=q, passes=passes)


def modularity(g, assignment, resolution=1.0):
    """``community.modularity`` of the node -> community map ``assignment``."""
    return community.modularity(_adjacency(g), [assignment[u] for u in g.nodes], resolution)


def _clique(nodes, weight=1.0):
    return {(u, v): weight for u, v in itertools.combinations(sorted(nodes), 2)}


def bridged_cliques(size_a=5, size_b=5, weight=1.0):
    left = [f"l{i}" for i in range(size_a)]
    right = [f"r{i}" for i in range(size_b)]
    edges = {**_clique(left, weight), **_clique(right, weight),
             ("l0", "r0"): 1.0}
    return wgraph(left + right, edges)


def star(n_leaves, weight=1.0):
    nodes = ["hub"] + [f"s{i}" for i in range(n_leaves)]
    return wgraph(nodes, {("hub", f"s{i}"): weight for i in range(n_leaves)})


def path(n, weight=1.0):
    nodes = [f"n{i}" for i in range(n)]
    return wgraph(nodes, {(f"n{i}", f"n{i+1}"): weight for i in range(n - 1)})


def planted_two_communities(size=5, inter_edges=2, seed=0):
    """Each side a connected weight-2 subgraph; weak weight-1 bridges."""
    rng = random.Random(seed)
    left = [f"a{i}" for i in range(size)]
    right = [f"b{i}" for i in range(size)]
    edges = {}
    for side in (left, right):
        for u, v in zip(side, side[1:]):  # spanning path keeps it connected
            edges[(u, v)] = 2.0
        extra = [p for p in itertools.combinations(side, 2) if p not in edges]
        for u, v in rng.sample(extra, min(3, len(extra))):
            edges[(u, v)] = 2.0
    for i in range(inter_edges):
        edges[(left[i % size], right[(i * 2) % size])] = 1.0
    return wgraph(left + right, edges)


def fixed_louvain_graphs():
    return {
        "bridged_cliques_5_5": bridged_cliques(5, 5),
        "bridged_cliques_4_6": bridged_cliques(4, 6),
        "bridged_cliques_weighted": bridged_cliques(5, 5, weight=2.0),
        "star_6": star(6),
        "star_9": star(9),
        # single-sweep greedy merging is provably stuck in a local optimum
        # on unit paths of 6 or more nodes, so the fixed set uses lengths
        # where the modularity maximum is reachable
        "path_4": path(4),
        "path_5": path(5),
        "path_7": path(7),
        "planted_5_5_1bridge": planted_two_communities(5, 1, seed=1),
        "planted_5_5_2bridges": planted_two_communities(5, 2, seed=2),
        "planted_4_4_2bridges": planted_two_communities(4, 2, seed=3),
    }


def shared_coauthor_corpus(rng):
    """Records over one small co-author pool shared by every block; some
    records carry several focal names, some a focal name without a gold
    suffix (publications outside the block that carry its name)."""
    focal = ["Focal A", "Focal B", "Focal C"]
    pool = [f"Co {i}" for i in range(rng.randint(2, 10))]
    records = []
    for i in range(rng.randint(4, 40)):
        names = []
        for f in rng.sample(focal, rng.choice([0, 1, 1, 1, 2, 3])):
            names.append(f"{f} {rng.randint(1, 3):04d}" if rng.random() < 0.8 else f)
        names += rng.sample(pool, rng.randint(0, min(3, len(pool))))
        records.append(rec(f"r{i:03d}", *(names or [rng.choice(pool)])))
    return records


def hub_corpus(rng):
    """Blocks whose records share a few prolific co-authors ("hubs"),
    each with many publications outside every block; other co-authors of
    those publications recur with several hubs. Most members of a block
    meet through one hub, so a union-find over the block's neighbourhood
    builds long chains and reaches the same nodes again and again."""
    focal = ["Focal A", "Focal B", "Focal C"]
    hubs = [f"Hub {i}" for i in range(rng.randint(1, 3))]
    outer = [f"Outer {i}" for i in range(rng.randint(5, 30))]
    records = []
    for i in range(rng.randint(40, 120)):
        names = [rng.choice(hubs)] + rng.sample(outer, rng.randint(0, 2))
        records.append(rec(f"o{i:03d}", *names))
    for i in range(rng.randint(5, 40)):
        names = [f"{f} {rng.randint(1, 4):04d}" if rng.random() < 0.9 else f
                 for f in rng.sample(focal, rng.choice([1, 1, 1, 2]))]
        if rng.random() < 0.7:
            names.append(rng.choice(hubs))
        if rng.random() < 0.3:
            names.append(rng.choice(outer))
        records.append(rec(f"m{i:03d}", *names))
    return records


def long_dblp_document(n_records=3000, seed=0):
    """DBLP XML of ``n_records`` articles, each with a suffixed author, an
    author with an entity and a title that does not compress, so that the
    document and its gzip form both span many 16 KiB reads."""
    rng = random.Random(seed)
    parts = ['<?xml version="1.0"?>\n<!DOCTYPE dblp SYSTEM "dblp.dtd">\n<dblp>\n']
    for i in range(n_records):
        parts.append(f'<article key="a/{i}"><author>Wei Li 000{i % 4 + 1}</author>'
                     f"<author>Ren&eacute; {i % 97}</author>"
                     f"<title>{rng.getrandbits(160):040x}</title><year>{1990 + i % 30}</year>"
                     "</article>\n")
    parts.append("</dblp>\n")
    return "".join(parts).encode()


class FailingStream(io.RawIOBase):
    """A raw stream of ``data`` that calls ``fail`` on every read from
    offset ``fail_at`` on; no read crosses that offset."""

    def __init__(self, data, fail_at, fail):
        self.data, self.pos, self.fail_at, self.fail = data, 0, fail_at, fail

    def readable(self):
        return True

    def readinto(self, buffer):
        if self.pos >= self.fail_at:
            self.fail()
        end = self.fail_at if self.pos < self.fail_at else len(self.data)
        n = min(len(buffer), end - self.pos)
        buffer[:n] = self.data[self.pos:self.pos + n]
        self.pos += n
        return n
