import random
import signal

import networkx as nx
import pytest

import cases
import oracles
from cases import groups_to_clustering
from conftest import clusters_of, rec
from nameclust.cluster import cluster_block, count_comparisons, write_clusters_tsv
from nameclust.community import refine_with_report
from nameclust.gold import Block, build_blocks, build_gold_standard
from nameclust.graph import build_graph, pubs_within
from nameclust.synth import SynthConfig, generate_corpus


def _block(key, labels):
    return Block(block_key=key, gold_label=labels)


def _blockset(*sizes):
    blocks = []
    for i, m in enumerate(sizes):
        labels = {f"b{i}/p{j}": f"k{i}" for j in range(m)}
        blocks.append(_block(f"key{i}", labels))
    return blocks


def test_count_comparisons():
    assert count_comparisons(_blockset(3, 2)) == 4
    assert count_comparisons(_blockset(1)) == 0
    assert count_comparisons(_blockset(5, 5, 5)) == 30


@pytest.fixture
def fig1_setup(fig1_records):
    graph = build_graph(fig1_records)
    blocks = {b.block_key: b for b in build_blocks(build_gold_standard(fig1_records))}
    return graph, blocks


def test_threshold1_merges_shared_coauthor(fig1_setup):
    graph, blocks = fig1_setup
    (c,) = cluster_block(blocks["Daniel Schall"], graph, [1])
    assert c["k/p1"] == c["k/p2"]
    assert len(clusters_of(c)) == 1


def test_threshold3_merges_coauthor_of_coauthor(fig1_setup):
    graph, blocks = fig1_setup
    (c1,) = cluster_block(blocks["Eric Dubois"], graph, [1])
    assert len(clusters_of(c1)) == 2  # too far at threshold 1
    (c3,) = cluster_block(blocks["Eric Dubois"], graph, [3])
    assert c3["k/p3"] == c3["k/p4"]
    assert len(clusters_of(c3)) == 1


def test_all_infinite_gives_singletons():
    records = [
        rec("p1", "X Y 0001", "A A"),
        rec("p2", "X Y 0001", "B B"),
        rec("p3", "X Y 0002", "C C"),
    ]
    graph = build_graph(records)
    block = build_blocks(build_gold_standard(records))[0]
    (c,) = cluster_block(block, graph, [3])
    assert len(clusters_of(c)) == 3


def _assert_lowest_ids(c):
    """Every cluster id of ``c`` is the lowest record id of its members;
    returns the number of clusters with more than one member."""
    clusters = clusters_of(c)
    for cid, rids in clusters.items():
        assert cid == min(rids), (cid, sorted(rids))
    return sum(len(rids) > 1 for rids in clusters.values())


def test_cluster_ids_are_lowest_record_id(fig1_setup):
    graph, blocks = fig1_setup
    (c,) = cluster_block(blocks["Daniel Schall"], graph, [1])
    assert set(clusters_of(c)) == {"k/p1"}
    # bridged blocks, so that clusters merge across authors and the
    # refinement has links to split
    records = generate_corpus(SynthConfig(blocks=40, seed=2, bridge_rate=0.3))
    graph = build_graph(records)
    merged = refined_blocks = 0
    for block in build_blocks(build_gold_standard(records)):
        clusterings = cluster_block(block, graph, [1, 3, 5])
        for c in clusterings:
            merged += _assert_lowest_ids(c)
        if not cases.similarity_graph(block, graph).edges:
            continue
        refined, report = refine_with_report(block, clusterings[0], graph)
        merged += _assert_lowest_ids(refined)
        assert report["communities"] == len(set(refined.values()))
        refined_blocks += 1
    assert merged and refined_blocks


def _synthetic_setup(seed, blocks=8):
    records = generate_corpus(SynthConfig(
        blocks=blocks, authors_per_block=(1, 4), pubs_per_author=(2, 12),
        bridge_rate=0.25, seed=seed))
    graph = build_graph(records)
    block_set = build_blocks(build_gold_standard(records))
    return records, graph, block_set


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("threshold", [1, 3])
def test_components_equivalence(seed, threshold):
    records, graph, block_set = _synthetic_setup(seed)
    nxg = oracles.build_nx_graph(records)
    for block in block_set:
        (c,) = cluster_block(block, graph, [threshold])
        got = sorted((frozenset(v) for v in clusters_of(c).values()), key=sorted)
        want = oracles.oracle_components(
            nxg, block.gold_label, block.block_key, threshold)
        assert got == want, block.block_key


# thresholds clustered in one pass, in and out of order; the synthetic
# blocks share no co-author, so there the pass stops at level 2, between
# the two levels that [1, 5] asks for
THRESHOLD_LISTS = [[1, 3], [3, 1], [1, 3, 5], [5, 1, 3], [1, 5]]


def _oracle_partitions(nxg, block):
    return {t: oracles.oracle_components(nxg, block.gold_label, block.block_key, t)
            for t in (1, 3, 5)}


def _check_threshold_lists(block, graph, want):
    """Check ``cluster_block`` over each of ``THRESHOLD_LISTS`` against
    its one-threshold calls and ``want``, the BFS oracle's partition at
    t=1, 3 and 5."""
    single = {t: cluster_block(block, graph, [t])[0] for t in want}
    for thresholds in THRESHOLD_LISTS:
        got = cluster_block(block, graph, thresholds)
        assert got == [single[t] for t in thresholds], (block.block_key, thresholds)
        for t, c in zip(thresholds, got, strict=True):
            components = sorted((frozenset(v) for v in clusters_of(c).values()), key=sorted)
            assert components == want[t], (block.block_key, thresholds)


@pytest.mark.parametrize("seed", range(4))
def test_threshold_lists_equivalence(seed):
    records, graph, block_set = _synthetic_setup(seed)
    nxg = oracles.build_nx_graph(records)
    for block in block_set:
        _check_threshold_lists(block, graph, _oracle_partitions(nxg, block))


def test_threshold_lists_equivalence_fig1(fig1_records, fig1_setup):
    graph, blocks = fig1_setup
    nxg = oracles.build_nx_graph(fig1_records)
    for block in blocks.values():
        _check_threshold_lists(block, graph, _oracle_partitions(nxg, block))


@pytest.mark.parametrize("seed", range(4))
def test_threshold3_coarsens_threshold1(seed):
    _, graph, block_set = _synthetic_setup(seed)
    for block in block_set:
        (fine,) = cluster_block(block, graph, [1])
        (coarse,) = cluster_block(block, graph, [3])
        for members in clusters_of(fine).values():
            targets = {coarse[rid] for rid in members}
            assert len(targets) == 1


def test_order_independence():
    # permuting pair evaluation order never changes the partition: check
    # by comparing against the components of a shuffled-pair brute run
    # deciding every pair with the graph's own distance query
    records, graph, block_set = _synthetic_setup(9, blocks=3)
    for block in block_set:
        (base,) = cluster_block(block, graph, [3])
        members = sorted(block.gold_label)
        pairs = [(p, q) for i, p in enumerate(members) for q in members[i + 1:]]
        rng = random.Random(17)
        rng.shuffle(pairs)
        near = nx.Graph()
        near.add_nodes_from(members)
        near.add_edges_from((p, q) for p, q in pairs
                            if q in pubs_within(graph, p, 2, block.block_key))
        shuffled = groups_to_clustering(nx.connected_components(near))
        assert clusters_of(shuffled) == clusters_of(base)


def _partition(c):
    return sorted(map(sorted, clusters_of(c).values()))


def test_distance_5_chain_stays_split_at_threshold_3():
    # p1 -A- x -B- y -C- p2: only non-members link the two members, and
    # the shortest path has 5 intermediate nodes
    records = [
        rec("p1", "F Name 0001", "A A"),
        rec("x", "A A", "B B"),
        rec("y", "B B", "C C"),
        rec("p2", "F Name 0002", "C C"),
    ]
    graph = build_graph(records)
    block = build_blocks(build_gold_standard(records))[0]
    assert pubs_within(graph, "p1", 3, "F Name")["p2"] == 3
    nxg = oracles.build_nx_graph(records)
    for threshold, want in ((1, [["p1"], ["p2"]]), (3, [["p1"], ["p2"]]),
                            (5, [["p1", "p2"]])):
        (c,) = cluster_block(block, graph, [threshold])
        assert _partition(c) == want, threshold
        assert sorted(map(sorted, oracles.oracle_components(
            nxg, block.gold_label, block.block_key, threshold))) == want


def test_record_with_two_focal_names():
    # r1/r2 carry both ambiguous names; in each block the other focal
    # name is an ordinary co-author, and r3/r4 reach r1 at distance 3
    # through the non-member carrying the other name
    records = [
        rec("r1", "Wei Li 0001", "Jun Wang 0001"),
        rec("r2", "Wei Li 0001", "Jun Wang 0001"),
        rec("r3", "Wei Li 0002", "Ann Bee"),
        rec("r4", "Jun Wang 0002", "Ann Bee"),
        rec("r5", "Wei Li 0003", "Cee Dee"),
    ]
    graph = build_graph(records)
    blocks = {b.block_key: b for b in build_blocks(build_gold_standard(records))}
    wei, jun = blocks["Wei Li"], blocks["Jun Wang"]
    assert _partition(cluster_block(wei, graph, [1])[0]) == [["r1", "r2"], ["r3"], ["r5"]]
    assert _partition(cluster_block(wei, graph, [3])[0]) == [["r1", "r2", "r3"], ["r5"]]
    assert _partition(cluster_block(jun, graph, [1])[0]) == [["r1", "r2"], ["r4"]]
    assert _partition(cluster_block(jun, graph, [3])[0]) == [["r1", "r2", "r4"]]


def _check_components(corpora):
    """Check ``cluster_block`` at t=1, 3 and 5, and over each of
    ``THRESHOLD_LISTS``, against the BFS oracle on every block of
    ``corpora``; returns the largest cluster's size of
    each check."""
    largest = []
    for records in corpora:
        graph = build_graph(records)
        nxg = oracles.build_nx_graph(records)
        for block in build_blocks(build_gold_standard(records)):
            wants = {}
            for threshold in (1, 3, 5):
                (c,) = cluster_block(block, graph, [threshold])
                got = sorted((frozenset(v) for v in clusters_of(c).values()), key=sorted)
                want = oracles.oracle_components(
                    nxg, block.gold_label, block.block_key, threshold)
                assert got == want, (block.block_key, threshold)
                largest.append(max(map(len, got)))
                wants[threshold] = want
            _check_threshold_lists(block, graph, wants)
    return largest


def test_components_equivalence_shared_coauthors():
    # blocks here share co-authors, so the threshold-3 paths run through
    # publications outside the block, which the synthetic corpora never do
    rng = random.Random(2024)
    largest = _check_components(cases.shared_coauthor_corpus(rng) for _ in range(150))
    assert len(largest) > 600


def test_components_equivalence_hub_coauthors():
    # most members of a block meet through a few prolific co-authors with
    # many publications outside the block: long union-find chains, and
    # the same nodes reached again from many members
    rng = random.Random(4242)
    largest = _check_components(cases.hub_corpus(rng) for _ in range(100))
    assert len(largest) > 600 and sum(n >= 10 for n in largest) > 200


def test_even_threshold_rejected(fig1_setup):
    graph, blocks = fig1_setup
    for thresholds in ([2], [1, 2], [2, 1], [3, 1, 0]):
        with pytest.raises(ValueError):
            cluster_block(blocks["Daniel Schall"], graph, thresholds)
    # every threshold is checked before the block is looked up
    with pytest.raises(ValueError):
        cluster_block(Block("Nobody", {"nope": "N 0001"}), graph, [1, 2])


def test_huge_threshold_stops_at_an_empty_frontier(fig1_setup):
    # the expansion ends at the first level that reaches no new node, so
    # a bound far beyond every block's reach costs what t=101 costs; the
    # timer turns an expansion that goes on into a failure, not a hang
    graph, blocks = fig1_setup

    def expired(signum, frame):
        raise TimeoutError("cluster_block kept expanding an empty frontier")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.setitimer(signal.ITIMER_REAL, 5.0)
    try:
        for b in blocks.values():
            assert cluster_block(b, graph, [2**61 - 1]) == cluster_block(b, graph, [101])
            assert cluster_block(b, graph, [1, 2**61 - 1]) == cluster_block(b, graph, [1, 101])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_tsv_export(tmp_path, fig1_setup):
    graph, blocks = fig1_setup
    clusterings = [cluster_block(b, graph, [3])[0] for b in blocks.values()]
    path = tmp_path / "clusters.tsv"
    write_clusters_tsv(list(blocks.values()), clusterings, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "block_key\trecord_id\tcluster_id\tgold_key"
    assert "Daniel Schall\tk/p1\tk/p1\tDaniel Schall 0001" in lines
    assert len(lines) == 1 + sum(b.m for b in blocks.values())
