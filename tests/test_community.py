import itertools
import random

import networkx as nx
import pytest

import cases
import oracles
from cases import louvain, modularity, similarity_graph, wgraph
from conftest import clusters_of, rec
from nameclust import community
from nameclust.cluster import cluster_block
from nameclust.community import refine_with_report
from nameclust.errors import UndefinedModularityError
from nameclust.gold import build_blocks, build_gold_standard
from nameclust.graph import build_graph


def clique_edges(nodes, weight=1.0):
    return {(u, v): weight for u, v in itertools.combinations(sorted(nodes), 2)}


def two_cliques_with_bridge():
    left = [f"l{i}" for i in range(5)]
    right = [f"r{i}" for i in range(5)]
    edges = {**clique_edges(left), **clique_edges(right), ("l0", "r0"): 1.0}
    return wgraph(left + right, edges)


# -- similarity graph --------------------------------------------------------


def test_similarity_graph_weights(fig1_records):
    graph = build_graph(fig1_records)
    blocks = {b.block_key: b for b in build_blocks(build_gold_standard(fig1_records))}
    ds = similarity_graph(blocks["Daniel Schall"], graph)
    assert ds.edges == {("k/p1", "k/p2"): 2.0}
    ed = similarity_graph(blocks["Eric Dubois"], graph)
    assert ed.edges == {("k/p3", "k/p4"): 1.0}


def test_similarity_graph_no_links():
    records = [rec("p1", "X Y 0001", "A A"), rec("p2", "X Y 0002", "B B")]
    graph = build_graph(records)
    block = build_blocks(build_gold_standard(records))[0]
    wg = similarity_graph(block, graph)
    assert wg.edges == {}
    assert wg.nodes == ("p1", "p2")


def _edge_components(nodes, edges):
    g = nx.Graph()
    g.add_nodes_from(nodes)
    g.add_edges_from(edges)
    return sorted((frozenset(c) for c in nx.connected_components(g)), key=sorted)


def test_similarity_graph_components_are_threshold_clusters():
    # weight-2 edges join members at distance 1 and weight-1 edges those
    # at distance 3, so the components of the weight-2 edges are the
    # threshold-1 clusters and those of all edges the threshold-3
    # clusters; the blocks here share co-authors, so paths run through
    # publications outside the block
    rng = random.Random(1810)
    units = 0
    for _ in range(150):
        records = cases.shared_coauthor_corpus(rng)
        graph = build_graph(records)
        for block in build_blocks(build_gold_standard(records)):
            wg = similarity_graph(block, graph)
            strong = [e for e, w in wg.edges.items() if w == 2.0]
            for threshold, edges in ((1, strong), (3, list(wg.edges))):
                (c,) = cluster_block(block, graph, [threshold])
                want = sorted((frozenset(v) for v in clusters_of(c).values()), key=sorted)
                assert _edge_components(wg.nodes, edges) == want, \
                    (block.block_key, threshold)
                units += 1
    assert units > 800


def _check_similarity_edges(corpora):
    """Check ``similarity_graph`` against the BFS oracle on every
    block of ``corpora``; returns the weights of all edges."""
    weights = []
    for records in corpora:
        graph = build_graph(records)
        nxg = oracles.build_nx_graph(records)
        for block in build_blocks(build_gold_standard(records)):
            wg = similarity_graph(block, graph)
            assert wg.nodes == tuple(sorted(block.gold_label))
            assert wg.edges == oracles.oracle_similarity_edges(
                nxg, block.gold_label, block.block_key), block.block_key
            weights.extend(wg.edges.values())
    return weights


def test_similarity_graph_matches_bfs_oracle(fig1_records):
    # exact edges and weights: a weight that lands on the wrong pair can
    # leave the components, and so the test above, unchanged
    rng = random.Random(1810)
    corpora = [fig1_records] + [cases.shared_coauthor_corpus(rng) for _ in range(150)]
    weights = _check_similarity_edges(corpora)
    assert weights.count(2.0) > 10_000 and weights.count(1.0) > 4_000


def test_similarity_graph_matches_bfs_oracle_hub_coauthors():
    # members linked through a few prolific co-authors whose many outside
    # publications carry co-authors shared between hubs
    rng = random.Random(4242)
    weights = _check_similarity_edges(cases.hub_corpus(rng) for _ in range(100))
    assert weights.count(2.0) > 3_000 and weights.count(1.0) > 3_000


class _RecordingDict(dict):
    """A dict that records each key it is asked for."""

    def __init__(self, items):
        super().__init__(items)
        self.asked = []

    def __getitem__(self, key):
        self.asked.append(key)
        return super().__getitem__(key)


def test_similarity_graph_reads_only_the_members_authors():
    # a hub's many publications outside the block are never read, and the
    # publication list of each author of a member is read once
    rng = random.Random(19)
    for _ in range(30):
        records = cases.hub_corpus(rng)
        graph = build_graph(records)
        for block in build_blocks(build_gold_standard(records)):
            focal = block.block_key
            a1 = {a for rid in block.gold_label for a in graph.pub_authors[graph.pub_index[rid]]
                  if a != focal}
            recording = graph._replace(author_pubs=_RecordingDict(graph.author_pubs))
            similarity_graph(block, recording)
            asked = recording.author_pubs.asked
            assert set(asked) <= a1 and len(asked) == len(set(asked)), block.block_key


# -- modularity --------------------------------------------------------------


def _as_partition(c):
    """A clustering as a partition numbered in cluster-id order."""
    return {rid: i for i, cid in enumerate(sorted(clusters_of(c)))
            for rid in clusters_of(c)[cid]}


def _check_q_exact(corpora):
    """Refine every block at t=1 and t=3 and check both reported Qs
    against ``modularity`` with ==; returns the Louvain pass counts."""
    passes = []
    for records in corpora:
        graph = build_graph(records)
        for block in build_blocks(build_gold_standard(records)):
            wg = similarity_graph(block, graph)
            for threshold in (1, 3):
                (base,) = cluster_block(block, graph, [threshold])
                refined, report = refine_with_report(block, base, graph)
                if not wg.edges:
                    assert report["q_before"] is report["q_after"] is None
                    continue
                assert report["q_before"] == modularity(wg, _as_partition(base))
                assert report["q_after"] == modularity(wg, _as_partition(refined))
                passes.append(report["passes"])
    return passes


def test_refinement_q_is_modularity_exactly(monkeypatch):
    # every weight is 1.0 or 2.0, so every sum is an exact integer and Q
    # read from Louvain's state is the very float the edge sum gives
    rng = random.Random(2718)
    corpora = [cases.shared_coauthor_corpus(rng) for _ in range(150)]
    passes = _check_q_exact(corpora)
    assert len(passes) > 800 and sum(p >= 2 for p in passes) > 150
    # the same blocks with the level loop cut after one aggregation, so
    # Q is read from a level on which nodes could still move
    monkeypatch.setattr(community, "MAX_PASSES", 1)
    assert max(_check_q_exact(corpora)) == 1


def test_single_edge_together():
    g = wgraph(["a", "b"], {("a", "b"): 1.0})
    p = {"a": 0, "b": 0}
    assert modularity(g, p, 1.0) == pytest.approx(0.0, abs=1e-15)


def test_single_edge_split():
    g = wgraph(["a", "b"], {("a", "b"): 1.0})
    p = {"a": 0, "b": 1}
    assert modularity(g, p, 1.0) == pytest.approx(-0.5, abs=1e-15)


def test_modularity_edgeless_undefined():
    with pytest.raises(UndefinedModularityError):
        community.modularity([{}, {}], [0, 1])


def test_modularity_partition_must_cover():
    with pytest.raises(ValueError):
        community.modularity([{1: 1.0}, {0: 1.0}], [0])


def _random_wgraph(rng, n):
    nodes = [f"n{i}" for i in range(n)]
    edges = {}
    for u, v in itertools.combinations(nodes, 2):
        if rng.random() < 0.4:
            edges[(u, v)] = rng.choice([1.0, 2.0])
    if not edges:
        edges[(nodes[0], nodes[1])] = 1.0
    return wgraph(nodes, edges)


@pytest.mark.parametrize("resolution", [0.5, 1.0, 2.0])
def test_modularity_matches_double_loop_oracle(resolution):
    rng = random.Random(23)
    for _ in range(50):
        g = _random_wgraph(rng, rng.randint(2, 10))
        labels = {u: rng.randint(0, 3) for u in g.nodes}
        got = modularity(g, labels, resolution)
        want = oracles.oracle_modularity(g.nodes, g.edges, labels, resolution)
        assert got == pytest.approx(want, abs=1e-12)


# -- louvain -----------------------------------------------------------------


def test_two_cliques_found():
    g = two_cliques_with_bridge()
    part = louvain(g)
    groups = oracles.partition_from_labels(part.assignment)
    assert groups == [frozenset(f"l{i}" for i in range(5)),
                      frozenset(f"r{i}" for i in range(5))]
    # and that partition is the global argmax
    best_q, _ = oracles.oracle_best_partition(g.nodes, g.edges)
    assert part.q == pytest.approx(best_q, abs=1e-9)


def test_complete_graph_single_community():
    g = wgraph([f"n{i}" for i in range(6)], clique_edges([f"n{i}" for i in range(6)]))
    part = louvain(g)
    assert len(set(part.assignment.values())) == 1


def test_edgeless_graph_all_singletons():
    g = wgraph(["a", "b", "c"], {})
    part = louvain(g)
    assert sorted(part.assignment.values()) == [0, 1, 2]
    assert part.q is None


def test_determinism():
    rng = random.Random(3)
    g = _random_wgraph(rng, 12)
    a = louvain(g)
    b = louvain(g)
    assert a.assignment == b.assignment
    assert a.q == b.q


def test_beats_singletons_on_random_graphs():
    rng = random.Random(7)
    for _ in range(100):
        g = _random_wgraph(rng, rng.randint(3, 14))
        part = louvain(g)
        singletons = {u: i for i, u in enumerate(g.nodes)}
        assert part.q >= modularity(g, singletons) - 1e-12


def test_resolution_validated():
    # as the CLI's check: positive and finite
    for resolution in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="positive and finite"):
            community.louvain([{1: 1.0}, {0: 1.0}], resolution=resolution)


def test_never_exceeds_exhaustive_maximum():
    rng = random.Random(31)
    for _ in range(20):
        g = _random_wgraph(rng, rng.randint(3, 9))
        part = louvain(g)
        best_q, _ = oracles.oracle_best_partition(g.nodes, g.edges)
        assert part.q <= best_q + 1e-12


@pytest.mark.parametrize("name", sorted(cases.fixed_louvain_graphs()))
def test_matches_exhaustive_argmax_on_fixed_set(name):
    g = cases.fixed_louvain_graphs()[name]
    part = louvain(g)
    best_q, _ = oracles.oracle_best_partition(g.nodes, g.edges)
    assert part.q == pytest.approx(best_q, abs=1e-9), name


# Graphs on which Louvain used to send a community's members to another
# supernode when it aggregated a level: the label of a community whose own
# node had left it was read as that node's new community. Each comes from
# criterion 4's generator (random.Random(77), draw number in the name).
MISMAPPED_GRAPHS = {
    "draw_6": (5, [("n0", "n1", 1.0), ("n0", "n2", 2.0), ("n0", "n4", 1.0),
                   ("n2", "n3", 2.0), ("n3", "n4", 1.0)]),
    "draw_214": (7, [("n0", "n1", 2.0), ("n0", "n2", 1.0), ("n0", "n4", 2.0),
                     ("n0", "n5", 2.0), ("n0", "n6", 1.0), ("n1", "n6", 2.0),
                     ("n2", "n3", 2.0), ("n2", "n4", 2.0), ("n3", "n5", 2.0)]),
    "draw_352": (7, [("n0", "n2", 2.0), ("n0", "n6", 2.0), ("n1", "n3", 1.0),
                     ("n2", "n5", 1.0), ("n2", "n6", 2.0), ("n3", "n4", 1.0),
                     ("n3", "n6", 2.0)]),
    "draw_920": (6, [("n0", "n1", 2.0), ("n0", "n4", 2.0), ("n1", "n4", 1.0),
                     ("n3", "n4", 2.0), ("n3", "n5", 1.0)]),
}


def _mismapped_graph(name):
    n, edges = MISMAPPED_GRAPHS[name]
    return wgraph([f"n{i}" for i in range(n)], {(u, v): w for u, v, w in edges})


@pytest.mark.parametrize("name", sorted(MISMAPPED_GRAPHS))
def test_aggregation_keeps_each_community_together(name):
    g = _mismapped_graph(name)
    part = louvain(g)
    best_q, _ = oracles.oracle_best_partition(g.nodes, g.edges)
    assert part.q == pytest.approx(best_q, abs=1e-9)


def test_first_level_optimum_survives_aggregation():
    # the first level already finds the exhaustive argmax, Q = 1/14;
    # aggregating it must not merge {n2, n3} into {n0, n1, n4}
    part = louvain(_mismapped_graph("draw_6"))
    assert oracles.partition_from_labels(part.assignment) == [
        frozenset({"n0", "n1", "n4"}), frozenset({"n2", "n3"})]
    assert part.q == pytest.approx(1 / 14, abs=1e-12)


# -- refinement --------------------------------------------------------------


def _planted_block(bridges=1):
    """Two planted authors, each a connected weight-2 subgraph, joined by
    weak weight-1 edges."""
    records = []
    for a, coas in ((1, ("A1 A", "A2 A")), (2, ("B1 B", "B2 B"))):
        for j in range(5):
            records.append(rec(f"p{a}{j}", f"Plant Name 000{a}", *coas))
    # bridge records give one pub of each author a common non-focal co-author
    # at order 2 (weight 1): pX0 - A1 A - bridge pub - B1 B - pY0 chains
    for i in range(bridges):
        records.append(rec(f"x{i}", "A1 A", "B1 B"))
    return records


def test_refinement_splits_bridged_authors():
    records = _planted_block()
    graph = build_graph(records)
    block = build_blocks(build_gold_standard(records))[0]
    (base,) = cluster_block(block, graph, [3])
    assert len(clusters_of(base)) == 1  # bridge over-merges at threshold 3
    refined, _ = refine_with_report(block, base, graph)
    groups = sorted((sorted(v) for v in clusters_of(refined).values()))
    assert groups == [
        [f"p1{j}" for j in range(5)],
        [f"p2{j}" for j in range(5)],
    ]
    # check against the exhaustive modularity argmax on the same graph
    wg = similarity_graph(block, graph)
    best_q, best = oracles.oracle_best_partition(wg.nodes, wg.edges)
    assert oracles.partition_from_labels(best) == \
        oracles.partition_from_labels({r: g for g, grp in enumerate(groups) for r in grp})


def test_refinement_fixed_point():
    # block whose base clustering already equals the Louvain communities
    records = [
        rec("p1", "Solo Name 0001", "Q Q"),
        rec("p2", "Solo Name 0001", "Q Q"),
    ]
    graph = build_graph(records)
    block = build_blocks(build_gold_standard(records))[0]
    (base,) = cluster_block(block, graph, [3])
    refined, _ = refine_with_report(block, base, graph)
    assert refined == base


def test_isolated_members_stay_singletons():
    records = [
        rec("p1", "Iso Name 0001", "A A"),
        rec("p2", "Iso Name 0001", "A A"),
        rec("p3", "Iso Name 0002", "Z Z"),
    ]
    graph = build_graph(records)
    block = build_blocks(build_gold_standard(records))[0]
    (base,) = cluster_block(block, graph, [3])
    refined, report = refine_with_report(block, base, graph)
    assert clusters_of(refined)[min({"p3"})] == frozenset({"p3"})
    assert report["communities"] == 2


def test_report_fields():
    records = _planted_block()
    graph = build_graph(records)
    block = build_blocks(build_gold_standard(records))[0]
    (base,) = cluster_block(block, graph, [3])
    refined, report = refine_with_report(block, base, graph)
    assert report["q_after"] > report["q_before"]
    assert report["passes"] >= 1
    assert report["communities"] == len(clusters_of(refined))


# -- louvain against the definitional oracle ----------------------------------


def _louvain_matches_oracle(g):
    """Check ``louvain(g)`` against the oracle with ==; returns the
    oracle's (labels, passes, q)."""
    want = oracles.oracle_louvain(g.nodes, g.edges)
    part = louvain(g)
    assert (part.assignment, part.passes, part.q) == want
    return want


def test_louvain_matches_definitional_oracle_on_random_graphs():
    # sparse graphs of up to 60 nodes, most of which take two or more
    # levels, so moves after the first sweep and on aggregated levels are
    # both exercised
    rng = random.Random(4471)
    passes = []
    for _ in range(300):
        n = rng.randint(2, 60)
        density = rng.uniform(1.0, 6.0) / n
        nodes = [f"n{i:02d}" for i in range(n)]
        edges = {(u, v): rng.choice([1.0, 2.0])
                 for u, v in itertools.combinations(nodes, 2) if rng.random() < density}
        passes.append(_louvain_matches_oracle(wgraph(nodes, edges))[1])
    assert sum(p >= 2 for p in passes) > 150 and sum(p >= 3 for p in passes) > 10


def test_refinement_matches_definitional_louvain():
    rng = random.Random(5081)
    units = 0
    for _ in range(150):
        records = cases.shared_coauthor_corpus(rng)
        graph = build_graph(records)
        for block in build_blocks(build_gold_standard(records)):
            labels, passes, q = _louvain_matches_oracle(similarity_graph(block, graph))
            for threshold in (1, 3):
                (base,) = cluster_block(block, graph, [threshold])
                refined, report = refine_with_report(block, base, graph)
                assert oracles.partition_from_labels(refined) == \
                    oracles.partition_from_labels(labels)
                assert report["passes"] == passes
                assert report["q_after"] == q
                units += 1
    assert units > 800


@pytest.mark.parametrize("weight", [0.5, 0, -1.0])
def test_louvain_rejects_weight_that_is_not_a_positive_integer(weight):
    adj = [{1: 1.0}, {0: 1.0, 2: weight}, {1: weight}]
    with pytest.raises(ValueError, match="positive integers"):
        community.louvain(adj)
