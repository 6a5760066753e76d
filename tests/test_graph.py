import math
import random

import pytest

import oracles
from conftest import rec
from nameclust.errors import UnknownNodeError
from nameclust.graph import INFINITE, build_graph, pub_distance, pubs_within
from nameclust.synth import SynthConfig, generate_corpus


@pytest.fixture
def fig1_graph(fig1_records):
    return build_graph(fig1_records)


def test_structure(fig1_graph):
    g = fig1_graph
    assert g.n_pubs == 5
    # suffixes are stripped: 'Daniel Schall 0001' -> author node 'Daniel Schall'
    assert "Daniel Schall" in g.author_index
    assert g.pub_degree("k/p1") == 2
    assert g.authors_of("k/p5") == ["Alice A", "Bob B"]


def test_records_without_mentions_excluded():
    g = build_graph([rec("p1", "A B"), rec("p2")])
    assert g.n_pubs == 1


def test_duplicate_names_collapse_to_one_edge():
    g = build_graph([rec("p1", "A B", "A B", "C D")])
    assert g.pub_degree("p1") == 2


def test_shared_coauthor_distance_is_1(fig1_graph):
    assert pub_distance(fig1_graph, "k/p1", "k/p2", 3, "Daniel Schall") == 1


def test_coauthor_of_coauthor_distance_is_3(fig1_graph):
    assert pub_distance(fig1_graph, "k/p3", "k/p4", 3, "Eric Dubois") == 3
    # tighter bound cannot see the longer path
    assert pub_distance(fig1_graph, "k/p3", "k/p4", 1, "Eric Dubois") == INFINITE


def test_focal_exclusion_matters(fig1_graph):
    # without the exclusion the shared ambiguous name makes them adjacent
    assert pub_distance(fig1_graph, "k/p3", "k/p4", 3, None) == 1


def test_no_path_is_infinite(fig1_graph):
    assert pub_distance(fig1_graph, "k/p1", "k/p3", 3, None) == INFINITE


def test_unknown_nodes_rejected(fig1_graph):
    with pytest.raises(UnknownNodeError):
        pub_distance(fig1_graph, "k/p1", "nope", 3, None)
    with pytest.raises(UnknownNodeError):
        pubs_within(fig1_graph, "k/p1", 1, "No Such Name")


def test_same_pub_rejected(fig1_graph):
    with pytest.raises(ValueError):
        pub_distance(fig1_graph, "k/p1", "k/p1", 3, None)


def test_even_bound_rejected(fig1_graph):
    with pytest.raises(ValueError):
        pub_distance(fig1_graph, "k/p1", "k/p2", 2, None)


def test_pubs_within_order1(fig1_graph):
    assert pubs_within(fig1_graph, "k/p1", 1, "Daniel Schall") == {"k/p2": 1}


def test_pubs_within_order2(fig1_graph):
    within = pubs_within(fig1_graph, "k/p3", 2, "Eric Dubois")
    assert within["k/p5"] == 1
    assert within["k/p4"] == 2


def test_isolated_single_author_pub():
    g = build_graph([rec("p1", "Solo Author"), rec("p2", "X Y", "Z W")])
    assert pubs_within(g, "p1", 2, "Solo Author") == {}


def _random_corpus(seed, blocks=6):
    return generate_corpus(SynthConfig(
        blocks=blocks, authors_per_block=(1, 3), pubs_per_author=(2, 10),
        bridge_rate=0.3, seed=seed))


@pytest.mark.parametrize("seed", range(5))
def test_oracle_equivalence_on_random_graphs(seed):
    records = _random_corpus(seed)
    g = build_graph(records)
    nxg = oracles.build_nx_graph(records)
    rng = random.Random(seed)
    pubs = [r.record_id for r in records]
    focal = records[0].mentions[0].surface_name
    for _ in range(150):
        p1, p2 = rng.sample(pubs, 2)
        for max_d in (1, 3, 5):
            got = pub_distance(g, p1, p2, max_d, focal)
            want = oracles.oracle_distance(nxg, p1, p2, focal)
            if want > max_d:
                want = math.inf
            assert got == want, (p1, p2, max_d)


def test_symmetry_and_oddness():
    records = _random_corpus(11)
    g = build_graph(records)
    rng = random.Random(11)
    pubs = [r.record_id for r in records]
    for _ in range(200):
        p1, p2 = rng.sample(pubs, 2)
        d12 = pub_distance(g, p1, p2, 5, None)
        d21 = pub_distance(g, p2, p1, 5, None)
        assert d12 == d21
        if d12 != INFINITE:
            assert d12 % 2 == 1


def test_monotonicity_in_bound():
    records = _random_corpus(13)
    g = build_graph(records)
    rng = random.Random(13)
    pubs = [r.record_id for r in records]
    for _ in range(200):
        p1, p2 = rng.sample(pubs, 2)
        d_small = pub_distance(g, p1, p2, 1, None)
        d_big = pub_distance(g, p1, p2, 5, None)
        if d_small != INFINITE:
            assert d_big == d_small
