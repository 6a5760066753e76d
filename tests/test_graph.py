import math
import random

import pytest

import oracles
from conftest import rec
from nameclust.errors import DataIntegrityError, UnknownNodeError
from nameclust.graph import INFINITE, build_graph, load_graph, pub_distance, pubs_within
from nameclust.records import read_records, write_records
from nameclust.synth import SynthConfig, generate_corpus

GRAPH_FIELDS = ("pub_keys", "author_names", "pub_index", "author_index", "pub_authors",
                "author_pubs")


@pytest.fixture
def fig1_graph(fig1_records):
    return build_graph(fig1_records)


def test_structure(fig1_graph):
    g = fig1_graph
    assert g.n_pubs == 5
    # suffixes are stripped: 'Daniel Schall 0001' -> author node 'Daniel Schall'
    assert "Daniel Schall" in g.author_index
    assert len(g.pub_authors[g.pub_id("k/p1")]) == 2
    assert [g.author_names[a] for a in g.pub_authors[g.pub_id("k/p5")]] == \
        ["Alice A", "Bob B"]


def test_records_without_mentions_excluded():
    g = build_graph([rec("p1", "A B"), rec("p2")])
    assert g.n_pubs == 1


def test_one_shot_generator_builds_the_same_graph():
    records = generate_corpus(SynthConfig(blocks=5, bridge_rate=0.3, seed=4))
    records.append(rec("z/editor-only"))
    from_list = build_graph(records)
    from_gen = build_graph(r for r in records)
    for attr in GRAPH_FIELDS:
        assert getattr(from_gen, attr) == getattr(from_list, attr), attr
    assert from_gen.n_pubs == len(records) - 1


def test_duplicate_record_id_rejected():
    with pytest.raises(DataIntegrityError, match="'p1' occurs twice"):
        build_graph([rec("p1", "A B"), rec("p2", "C D"), rec("p1", "E F")])


def _loaded_both_ways(path):
    """``load_graph(path)``, checked equal to ``build_graph(read_records(path))``."""
    loaded = load_graph(path)
    built = build_graph(read_records(path))
    for attr in GRAPH_FIELDS:
        assert getattr(loaded, attr) == getattr(built, attr), attr
    return loaded


@pytest.mark.parametrize("seed", range(4))
def test_load_graph_equals_build_graph_on_synth_corpora(tmp_path, seed):
    records = generate_corpus(SynthConfig(
        blocks=8, authors_per_block=(1, 4), pubs_per_author=(2, 12),
        bridge_rate=0.3, shared_pool_size=6, seed=seed))
    path = tmp_path / "records.jsonl"
    write_records(records, path)
    assert _loaded_both_ways(path).n_pubs == len(records)


def test_load_graph_equals_build_graph_on_edge_cases(tmp_path):
    path = tmp_path / "records.jsonl"
    write_records([
        rec("p3", "A B 0001", "C D"),
        rec("p0"),  # no authors
        rec("p1", "C D", "A B", "C D"),  # a name twice; A B without its gold id
        rec("p2", "A B 0002", "A B 0001", "E F"),  # one name under two gold ids
        rec("p0"),  # author-less ids may repeat
    ], path)
    with open(path, "a") as fh:
        fh.write("\n  \n")  # blank lines
    g = _loaded_both_ways(path)
    assert g.pub_keys == ["p1", "p2", "p3"]
    assert g.author_names == ["A B", "C D", "E F"]
    assert g.pub_authors == [(0, 1), (0, 2), (0, 1)]
    assert g.author_pubs == [(0, 1, 2), (0, 2), (1,)]


def test_load_graph_rejects_a_duplicate_record_id(tmp_path):
    path = tmp_path / "records.jsonl"
    write_records([rec("p1", "A B"), rec("p2", "C D"), rec("p1", "E F"),
                   rec("p2", "G H")], path)
    for build in (load_graph, lambda p: build_graph(read_records(p))):
        with pytest.raises(DataIntegrityError) as exc:
            build(path)
        assert str(exc.value) == "record id 'p1' occurs twice in the records"


def test_duplicate_names_collapse_to_one_edge():
    g = build_graph([rec("p1", "A B", "A B", "C D")])
    assert len(g.pub_authors[g.pub_id("p1")]) == 2


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
