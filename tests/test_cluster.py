import random

import pytest

import oracles
from conftest import rec
from nameclust.cluster import (
    DisjointSet,
    cluster_block,
    count_comparisons,
    groups_to_clustering,
    write_clusters_tsv,
)
from nameclust.gold import Block, BlockSet, build_blocks, build_gold_standard
from nameclust.graph import build_graph, pub_distance
from nameclust.synth import SynthConfig, generate_corpus


def _block(key, labels):
    return Block(block_key=key, members=frozenset(labels), gold_label=labels)


def _blockset(*sizes):
    blocks = []
    for i, m in enumerate(sizes):
        labels = {f"b{i}/p{j}": f"k{i}" for j in range(m)}
        blocks.append(_block(f"key{i}", labels))
    return BlockSet(blocks=blocks)


def test_count_comparisons():
    assert count_comparisons(_blockset(3, 2)) == 4
    assert count_comparisons(_blockset(1)) == 0
    assert count_comparisons(_blockset(5, 5, 5)) == 30


def test_disjoint_set():
    ds = DisjointSet("abcde")
    assert ds.union("a", "b")
    assert ds.union("b", "c")
    assert not ds.union("a", "c")
    groups = sorted(sorted(g) for g in ds.groups())
    assert groups == [["a", "b", "c"], ["d"], ["e"]]


@pytest.fixture
def fig1_setup(fig1_records):
    graph = build_graph(fig1_records)
    blocks = {b.block_key: b for b in build_blocks(build_gold_standard(fig1_records))}
    return graph, blocks


def test_threshold1_merges_shared_coauthor(fig1_setup):
    graph, blocks = fig1_setup
    c = cluster_block(blocks["Daniel Schall"], graph, 1)
    assert c.assignment["k/p1"] == c.assignment["k/p2"]
    assert len(c.clusters) == 1


def test_threshold3_merges_coauthor_of_coauthor(fig1_setup):
    graph, blocks = fig1_setup
    c1 = cluster_block(blocks["Eric Dubois"], graph, 1)
    assert len(c1.clusters) == 2  # too far at threshold 1
    c3 = cluster_block(blocks["Eric Dubois"], graph, 3)
    assert c3.assignment["k/p3"] == c3.assignment["k/p4"]
    assert len(c3.clusters) == 1


def test_all_infinite_gives_singletons():
    records = [
        rec("p1", "X Y 0001", "A A"),
        rec("p2", "X Y 0001", "B B"),
        rec("p3", "X Y 0002", "C C"),
    ]
    graph = build_graph(records)
    block = build_blocks(build_gold_standard(records)).blocks[0]
    c = cluster_block(block, graph, 3)
    assert len(c.clusters) == 3
    assert c.comparisons == 3


def test_cluster_ids_are_lowest_record_id(fig1_setup):
    graph, blocks = fig1_setup
    c = cluster_block(blocks["Daniel Schall"], graph, 1)
    assert set(c.clusters) == {"k/p1"}


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
        c = cluster_block(block, graph, threshold)
        got = sorted((frozenset(v) for v in c.clusters.values()), key=sorted)
        want = oracles.oracle_components(
            nxg, block.members, block.block_key, threshold)
        assert got == want, block.block_key


@pytest.mark.parametrize("seed", range(4))
def test_threshold3_coarsens_threshold1(seed):
    _, graph, block_set = _synthetic_setup(seed)
    for block in block_set:
        fine = cluster_block(block, graph, 1)
        coarse = cluster_block(block, graph, 3)
        for members in fine.clusters.values():
            targets = {coarse.assignment[rid] for rid in members}
            assert len(targets) == 1


def test_comparison_budget():
    _, graph, block_set = _synthetic_setup(5)
    for block in block_set:
        c = cluster_block(block, graph, 3)
        assert c.comparisons == block.m * (block.m - 1) // 2


def test_order_independence():
    # permuting pair evaluation order never changes the partition: check
    # by comparing against a shuffled-pair brute run deciding every pair
    # with the graph's own distance query
    records, graph, block_set = _synthetic_setup(9, blocks=3)
    for block in block_set:
        base = cluster_block(block, graph, 3)
        members = sorted(block.members)
        pairs = [(p, q) for i, p in enumerate(members) for q in members[i + 1:]]
        rng = random.Random(17)
        rng.shuffle(pairs)
        ds = DisjointSet(members)
        for p, q in pairs:
            if pub_distance(graph, p, q, 3, block.block_key) <= 3:
                ds.union(p, q)
        shuffled = groups_to_clustering(block.block_key, ds.groups())
        assert sorted(map(sorted, shuffled.clusters.values())) == \
            sorted(map(sorted, base.clusters.values()))


def _partition(c):
    return sorted(map(sorted, c.clusters.values()))


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
    block = build_blocks(build_gold_standard(records)).blocks[0]
    assert pub_distance(graph, "p1", "p2", 5, "F Name") == 5
    nxg = oracles.build_nx_graph(records)
    for threshold, want in ((1, [["p1"], ["p2"]]), (3, [["p1"], ["p2"]]),
                            (5, [["p1", "p2"]])):
        c = cluster_block(block, graph, threshold)
        assert _partition(c) == want, threshold
        assert sorted(map(sorted, oracles.oracle_components(
            nxg, block.members, block.block_key, threshold))) == want


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
    assert _partition(cluster_block(wei, graph, 1)) == [["r1", "r2"], ["r3"], ["r5"]]
    assert _partition(cluster_block(wei, graph, 3)) == [["r1", "r2", "r3"], ["r5"]]
    assert _partition(cluster_block(jun, graph, 1)) == [["r1", "r2"], ["r4"]]
    assert _partition(cluster_block(jun, graph, 3)) == [["r1", "r2", "r4"]]


def _shared_coauthor_corpus(rng):
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


def test_components_equivalence_shared_coauthors():
    # blocks here share co-authors, so the threshold-3 paths run through
    # publications outside the block, which the synthetic corpora never do
    rng = random.Random(2024)
    units = 0
    for _ in range(150):
        records = _shared_coauthor_corpus(rng)
        graph = build_graph(records)
        nxg = oracles.build_nx_graph(records)
        for block in build_blocks(build_gold_standard(records)):
            for threshold in (1, 3, 5):
                c = cluster_block(block, graph, threshold)
                got = sorted((frozenset(v) for v in c.clusters.values()), key=sorted)
                want = oracles.oracle_components(
                    nxg, block.members, block.block_key, threshold)
                assert got == want, (block.block_key, threshold)
                assert c.comparisons == block.m * (block.m - 1) // 2
                units += 1
    assert units > 600


def test_even_threshold_rejected(fig1_setup):
    graph, blocks = fig1_setup
    with pytest.raises(ValueError):
        cluster_block(blocks["Daniel Schall"], graph, 2)


def test_tsv_export(tmp_path, fig1_setup):
    graph, blocks = fig1_setup
    clusterings = [cluster_block(b, graph, 3) for b in blocks.values()]
    path = tmp_path / "clusters.tsv"
    write_clusters_tsv(clusterings, blocks, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "block_key\trecord_id\tcluster_id\tgold_key"
    assert "Daniel Schall\tk/p1\tk/p1\tDaniel Schall 0001" in lines
    assert len(lines) == 1 + sum(b.m for b in blocks.values())
