import pytest

from nameclust.bcubed import block_scores
from nameclust.cluster import cluster_block
from nameclust.gold import build_blocks, build_gold_standard
from nameclust.graph import build_graph
from nameclust.synth import SynthConfig, generate_corpus


def test_deterministic_per_seed():
    cfg = SynthConfig(blocks=4, bridge_rate=0.2, seed=5)
    assert generate_corpus(cfg) == generate_corpus(cfg)
    other = SynthConfig(blocks=4, bridge_rate=0.2, seed=6)
    assert generate_corpus(cfg) != generate_corpus(other)


def test_bad_bridge_rate_rejected():
    with pytest.raises(ValueError):
        generate_corpus(SynthConfig(bridge_rate=1.5))


def test_gold_labels_planted():
    records = generate_corpus(SynthConfig(blocks=2, seed=0))
    gold = build_gold_standard(records)
    assert len(gold) == 2
    blocks = build_blocks(gold)
    assert sum(b.m for b in blocks) == len(records)


def test_zero_bridge_rate_gives_perfect_precision():
    records = generate_corpus(SynthConfig(
        blocks=5, bridge_rate=0.0, authors_per_block=(2, 4),
        pubs_per_author=(4, 10), seed=3))
    graph = build_graph(records)
    for block in build_blocks(build_gold_standard(records)):
        for threshold in (1, 3):
            (c,) = cluster_block(block, graph, [threshold])
            assert block_scores(c, block).precision == 1.0


def test_single_author_connected_pool_scores_perfectly():
    records = generate_corpus(SynthConfig(
        blocks=3, bridge_rate=0.0, authors_per_block=(1, 1),
        pubs_per_author=(6, 10), pool_factor=0.3, seed=4))
    graph = build_graph(records)
    for block in build_blocks(build_gold_standard(records)):
        (c,) = cluster_block(block, graph, [1])
        s = block_scores(c, block)
        assert (s.precision, s.recall, s.f) == (1.0, 1.0, 1.0)
