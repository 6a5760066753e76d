import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from cases import groups_to_clustering
from conftest import clusters_of
from nameclust.bcubed import (
    BcubedScores,
    block_scores,
    corpus_scores,
    f_measure,
    item_scores,
)
from nameclust.cluster import cluster_block
from nameclust.gold import Block, build_blocks, build_gold_standard
from nameclust.graph import build_graph
from nameclust.synth import SynthConfig, generate_corpus


def make_block(gold_label):
    return Block(block_key="B", gold_label=dict(gold_label))


def make_clustering(groups):
    return groups_to_clustering([set(g) for g in groups])


def test_f_measure_limits():
    assert f_measure(0.0, 1.0) == 0.0
    assert f_measure(1.0, 0.0) == 0.0
    assert f_measure(1.0, 0.25) == pytest.approx(0.4)


def test_perfect_clustering_scores_one():
    block = make_block({"p1": "x", "p2": "x", "p3": "y"})
    c = make_clustering([["p1", "p2"], ["p3"]])
    for e in block.gold_label:
        assert item_scores(c, block, e) == BcubedScores(1.0, 1.0, 1.0)
    assert block_scores(c, block) == BcubedScores(1.0, 1.0, 1.0)


def test_four_singletons_of_one_author():
    block = make_block({f"p{i}": "x" for i in range(4)})
    c = make_clustering([[f"p{i}"] for i in range(4)])
    s = item_scores(c, block, "p0")
    assert s.precision == 1.0
    assert s.recall == 0.25
    assert s.f == pytest.approx(0.4)


def test_item_outside_block_rejected():
    block = make_block({"p1": "x"})
    c = make_clustering([["p1"]])
    with pytest.raises(KeyError):
        item_scores(c, block, "nope")


def test_block_f_is_mean_of_item_fs():
    # items at F 0.4 and 1.0 average to 0.7; the harmonic combination of
    # the mean P and R would give a different number
    block = make_block({"p1": "x", "p2": "x", "p3": "x", "p4": "x", "p5": "y"})
    c = make_clustering([["p1"], ["p2"], ["p3"], ["p4"], ["p5"]])
    s = block_scores(c, block)
    assert s.f == pytest.approx((4 * 0.4 + 1.0) / 5)
    assert s.f != pytest.approx(f_measure(s.precision, s.recall))


def test_one_big_cluster_law():
    gold = {"p1": "x", "p2": "x", "p3": "y", "p4": "z", "p5": "z"}
    block = make_block(gold)
    c = make_clustering([list(gold)])
    class_size = {"x": 2, "y": 1, "z": 2}
    for e in gold:
        s = item_scores(c, block, e)
        assert s.recall == 1.0
        assert s.precision == class_size[gold[e]] / 5


def test_all_singletons_law():
    gold = {"p1": "x", "p2": "x", "p3": "y"}
    block = make_block(gold)
    c = make_clustering([[p] for p in gold])
    class_size = {"x": 2, "y": 1}
    for e in gold:
        s = item_scores(c, block, e)
        assert s.precision == 1.0
        assert s.recall == 1 / class_size[gold[e]]


def _random_instance(rng, n):
    items = [f"p{i}" for i in range(n)]
    gold = {p: f"g{rng.randint(0, 3)}" for p in items}
    labels = {p: rng.randint(0, 4) for p in items}
    groups = {}
    for p, lab in labels.items():
        groups.setdefault(lab, []).append(p)
    return make_block(gold), make_clustering(groups.values()), gold


@pytest.mark.parametrize("seed", range(10))
def test_oracle_equivalence(seed):
    rng = random.Random(seed)
    block, c, gold = _random_instance(rng, rng.randint(2, 12))
    predicted = {p: c[p] for p in block.gold_label}
    items = sorted(block.gold_label)
    for e in items:
        got = item_scores(c, block, e)
        p, r, f = oracles.oracle_bcubed_item(items, predicted, gold, e)
        assert got.precision == pytest.approx(p, abs=1e-12)
        assert got.recall == pytest.approx(r, abs=1e-12)
        assert got.f == pytest.approx(f, abs=1e-12)
    bp, br, bf = oracles.oracle_bcubed_block(items, predicted, gold)
    got_block = block_scores(c, block)
    assert got_block.precision == pytest.approx(bp, abs=1e-12)
    assert got_block.recall == pytest.approx(br, abs=1e-12)
    assert got_block.f == pytest.approx(bf, abs=1e-12)


def _exact(c, block, alpha):
    items = list(block.gold_label)
    predicted = {p: c[p] for p in items}
    return BcubedScores(*map(float, oracles.oracle_bcubed_exact(
        items, predicted, block.gold_label, alpha)))


ALPHAS = (0, 0.0, 0.25, 0.3, 0.5, 1, 1.0)  # an int alpha too


@pytest.mark.parametrize("seed", range(10))
def test_block_scores_equal_the_exact_oracle(seed):
    rng = random.Random(seed)
    block, c, _ = _random_instance(rng, rng.randint(1, 12))
    for alpha in ALPHAS:
        assert block_scores(c, block, alpha) == _exact(c, block, alpha)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 3)), min_size=1, max_size=15),
       st.sampled_from(ALPHAS))
def test_block_scores_equal_the_exact_oracle_generated(labels, alpha):
    block = make_block({f"p{i}": f"g{g}" for i, (_, g) in enumerate(labels)})
    groups = {}
    for i, (k, _) in enumerate(labels):
        groups.setdefault(k, []).append(f"p{i}")
    c = make_clustering(groups.values())
    assert block_scores(c, block, alpha) == _exact(c, block, alpha)


@pytest.fixture(scope="module")
def bridged_blocks():
    """Each block of the 40-block bridged desk corpus, with its t=1 and
    t=3 clusterings."""
    records = generate_corpus(SynthConfig(blocks=40, seed=2, bridge_rate=0.3))
    graph = build_graph(records)
    blocks = build_blocks(build_gold_standard(records))
    return [(b, cluster_block(b, graph, [1, 3])) for b in blocks]


def test_block_scores_equal_the_exact_oracle_on_a_synth_corpus(bridged_blocks):
    for block, clusterings in bridged_blocks:
        for c in clusterings:
            for alpha in (0.5, 0.3):
                assert block_scores(c, block, alpha) == _exact(c, block, alpha)


def test_block_scores_ignore_dict_order(bridged_blocks):
    rng = random.Random(3)
    instances = [_random_instance(rng, rng.randint(1, 12))[:2] for _ in range(50)]
    instances += [(b, c) for b, clusterings in bridged_blocks for c in clusterings]
    for block, c in instances:
        reversed_block = make_block(reversed(block.gold_label.items()))
        reversed_c = dict(reversed(c.items()))
        for alpha in (0.5, 0.3):
            want = [v.hex() for v in block_scores(c, block, alpha)]
            got = [v.hex() for v in block_scores(reversed_c, reversed_block, alpha)]
            assert got == want


def test_refinement_monotonicity():
    # splitting a cluster never lowers the block's mean precision, and
    # merging two clusters never lowers any item's recall (an individual
    # item's precision can drop under an arbitrary split, so the split
    # direction is only monotone in aggregate)
    rng = random.Random(99)
    for _ in range(50):
        block, c, gold = _random_instance(rng, 10)
        clusters = sorted(clusters_of(c).values(), key=sorted)
        big = max(clusters, key=len)
        if len(big) >= 2:
            members = sorted(big)
            split = [g for g in clusters if g is not big]
            split += [members[: len(members) // 2], members[len(members) // 2:]]
            c_split = make_clustering(split)
            assert block_scores(c_split, block).precision >= \
                block_scores(c, block).precision - 1e-12
        if len(clusters) >= 2:
            merged = [set(clusters[0]) | set(clusters[1])] + \
                [set(g) for g in clusters[2:]]
            c_merged = make_clustering(merged)
            for e in block.gold_label:
                assert item_scores(c_merged, block, e).recall >= \
                    item_scores(c, block, e).recall - 1e-12


def test_corpus_macro_average():
    a = BcubedScores(1.0, 1.0, 1.0)
    b = BcubedScores(0.5, 0.5, 0.5)
    assert corpus_scores([a]) == a
    c = corpus_scores([a, b])
    assert (c.precision, c.recall, c.f) == (0.75, 0.75, 0.75)


def test_corpus_mean_is_exact():
    # summed left to right this reads 0.09999999999999999, and Python
    # 3.12's compensated sum() reads 0.1; the exact mean, rounded once,
    # is 0.1 on every Python version
    c = corpus_scores([BcubedScores(0.1, 0.1, 0.1)] * 10)
    assert (c.precision, c.recall, c.f) == (0.1,) * 3


def test_corpus_ignores_block_order():
    rng = random.Random(11)
    per_block = [BcubedScores(*(rng.random() for _ in range(3))) for _ in range(200)]
    want = corpus_scores(per_block)
    exact = [float(sum(map(Fraction, col)) / len(col)) for col in zip(*per_block)]
    assert tuple(want) == tuple(exact)
    for _ in range(5):
        rng.shuffle(per_block)
        assert corpus_scores(per_block) == want


def test_corpus_empty_rejected():
    with pytest.raises(ValueError):
        corpus_scores([])


def test_f_bounded_by_p_and_r():
    rng = random.Random(5)
    for _ in range(200):
        block, c, _ = _random_instance(rng, 8)
        for e in block.gold_label:
            s = item_scores(c, block, e)
            assert min(s.precision, s.recall) - 1e-12 <= s.f
            assert s.f <= max(s.precision, s.recall) + 1e-12
