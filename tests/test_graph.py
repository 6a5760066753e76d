import gc
import math
import os
import random
import signal
import tempfile
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import counting_fork, no_child_left, rec
from nameclust import graph
from nameclust.errors import CorpusParseError, DataIntegrityError
from nameclust.graph import build_graph, load_graph, pubs_within
from nameclust.records import (AuthorMention, RawRecord, read_records, record_to_json,
                               write_records)
from nameclust.synth import SynthConfig, generate_corpus

GRAPH_FIELDS = ("pub_index", "pub_authors", "author_pubs")


@pytest.fixture
def fig1_graph(fig1_records):
    return build_graph(fig1_records)


def test_structure(fig1_graph):
    g = fig1_graph
    assert len(g.pub_index) == 5
    # suffixes are stripped: 'Daniel Schall 0001' -> author node 'Daniel Schall'
    assert "Daniel Schall" in g.author_pubs
    assert len(g.pub_authors[g.pub_index["k/p1"]]) == 2
    assert list(g.pub_authors[g.pub_index["k/p5"]]) == ["Alice A", "Bob B"]


def test_graph_is_a_named_tuple_of_three_tables(fig1_graph):
    assert isinstance(fig1_graph, tuple)
    assert fig1_graph._fields == ("pub_index", "pub_authors", "author_pubs")


def test_records_without_mentions_excluded():
    g = build_graph([rec("p1", "A B"), rec("p2")])
    assert len(g.pub_index) == 1


def test_one_shot_generator_builds_the_same_graph():
    records = generate_corpus(SynthConfig(blocks=5, bridge_rate=0.3, seed=4))
    records.append(rec("z/editor-only"))
    from_list = build_graph(records)
    from_gen = build_graph(r for r in records)
    for attr in GRAPH_FIELDS:
        assert getattr(from_gen, attr) == getattr(from_list, attr), attr
    assert len(from_gen.pub_index) == len(records) - 1


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
    data = path.read_bytes()
    assert data[len(data) // 2 - 1] != ord("\n")  # a line straddles the middle
    # a forked child reads the second half, and the graph is the same
    assert len(_loaded_every_way(path, forked=True)[0]) == len(records)


# -- the forked load: a child reads the lines after the middle -------------


def _outcome(build, path):
    """The fields of the graph ``build(path)`` gives, or the type, text
    and location of the error it raises."""
    try:
        g = build(path)
        return tuple(getattr(g, attr) for attr in GRAPH_FIELDS)
    except (CorpusParseError, DataIntegrityError) as exc:
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "column", None)


def _loaded_every_way(path, forked):
    """The outcome of ``load_graph(path)``, checked equal to that of a load
    with no ``os.fork`` and to that of ``build_graph(read_records(path))``;
    the first load must start a child exactly if ``forked``, and leave
    none behind."""
    pids = []
    with pytest.MonkeyPatch.context() as m:
        m.setattr(os, "fork", counting_fork(pids))
        loaded = _outcome(load_graph, path)
    assert len(pids) == forked and no_child_left()
    with pytest.MonkeyPatch.context() as m:
        m.delattr(os, "fork")
        assert _outcome(load_graph, path) == loaded
        assert _outcome(lambda p: build_graph(read_records(p)), path) == loaded
    return loaded


def _line(i, *names):
    return (record_to_json(rec(f"r/{i:02d}", f"A{i % 7} B", *names)) + "\n").encode()


def _good_lines():
    """40 records of nearly equal length, so that lines 1-15 lie before
    the middle of the file and lines 26-40 after it."""
    return [_line(i, "C D 0001", "E F") for i in range(40)]


def _damaged(at):
    """``_good_lines()`` with line ``i`` (from 0) replaced by ``at[i]``."""
    lines = _good_lines()
    for i, line in at.items():
        lines[i] = line
    return lines


@pytest.mark.parametrize("lines, error, message, line", [
    # one fault, after the middle
    (_damaged({30: b"{\n"}), CorpusParseError, "invalid JSON", 31),
    (_damaged({30: b'{"id": "a/\xff"}\n'}), CorpusParseError,
     "can't decode byte 0xff", 31),
    (_damaged({30: b'{"id" "a/2"}\n'}), CorpusParseError,
     "invalid JSON: Expecting ':' delimiter", 31),
    (_damaged({30: _line(5)}), DataIntegrityError, "'r/05' occurs twice", None),
    (_damaged({31: _line(29)}), DataIntegrityError, "'r/29' occurs twice",
     None),
    # two faults: the first in the file wins
    (_damaged({5: b'{"id": 1}\n', 30: b"{\n"}), CorpusParseError,
     "record key 'id' is a JSON integer", 6),
    (_damaged({10: _line(3), 30: b"{\n"}), DataIntegrityError,
     "'r/03' occurs twice", None),
    (_damaged({28: b"{\n", 32: _line(1)}), CorpusParseError, "invalid JSON",
     29),
    (_damaged({31: _line(29), 34: b"[]\n"}), DataIntegrityError,
     "'r/29' occurs twice", None),
    (_damaged({10: b"\n", 12: b"{\n"}), CorpusParseError, "invalid JSON", 13),
    (_damaged({4: b"\n", 5: b" \r\n", 30: b"{\n"}), CorpusParseError, "invalid JSON", 31),
], ids=["json-after", "utf8-after", "column-after", "duplicate-across",
        "duplicate-after", "json-both-sides", "duplicate-before-json-after",
        "json-before-duplicate-after", "duplicate-before-array-after", "json-before",
        "blank-lines-before-json-after"])
def test_forked_load_raises_the_error_of_a_serial_load(tmp_path, lines, error, message,
                                                       line):
    path = tmp_path / "records.jsonl"
    path.write_bytes(b"".join(lines))
    cut = graph._middle_line_end(path)
    assert path.read_bytes()[:cut].count(b"\n") in range(15, 26)
    kind, text, at, _ = _loaded_every_way(path, forked=True)
    assert (kind, at) == (error, line) and message in text


@pytest.mark.parametrize("last, keys", [
    (_line(1, "X" * 400), ["r/00", "r/01"]),
    (_line(1, "X" * 400)[:-1], ["r/00", "r/01"]),  # no newline at the end
    (b" " * 400 + b"\n", ["r/00"]),
], ids=["newline", "no-newline", "blank"])
def test_file_whose_middle_is_in_its_last_line_loads_in_one_process(tmp_path, last, keys):
    path = tmp_path / "records.jsonl"
    path.write_bytes(_line(0) + last)
    assert list(_loaded_every_way(path, forked=False)[0]) == keys


def test_child_is_killed_when_the_first_half_fails(tmp_path, monkeypatch):
    # the child's half would take a minute; the error in this process's
    # half must not wait for it
    parent = os.getpid()
    read_lines = graph.read_lines

    def slow_in_the_child(*args):
        if os.getpid() != parent:
            time.sleep(60)
        return read_lines(*args)

    monkeypatch.setattr(graph, "read_lines", slow_in_the_child)
    path = tmp_path / "records.jsonl"
    path.write_bytes(b"".join(_damaged({3: b"{\n"})))
    began = time.monotonic()
    with pytest.raises(CorpusParseError):
        load_graph(path)
    assert time.monotonic() - began < 30 and no_child_left()


@pytest.mark.parametrize("end", ["killed", "exit-0"])
def test_child_that_ends_early_is_an_error(tmp_path, monkeypatch, end):
    parent = os.getpid()
    read_lines = graph.read_lines

    def ending_in_the_child(*args):
        if os.getpid() != parent:
            if end == "killed":
                os.kill(os.getpid(), signal.SIGKILL)
            os._exit(0)
        return read_lines(*args)

    monkeypatch.setattr(graph, "read_lines", ending_in_the_child)
    path = tmp_path / "records.jsonl"
    path.write_bytes(b"".join(_good_lines()))
    how = "was killed by signal 9" if end == "killed" else "exited with status 0"
    with pytest.raises(ChildProcessError, match=how):
        load_graph(path)
    assert no_child_left()


_NAMES = st.sampled_from(["Wei Li", "Wei Li 0001", "Wei Li 0002", "Ann Bo", "Ann Bo 0001",
                          "Cy Do", "\u00e9 \u00fc"])
_RECORD_LINE = st.builds(
    lambda i, names, crlf: (record_to_json(RawRecord(
        f"r/{i}", "article", "t" * (i % 5), None, None,
        tuple(AuthorMention(*(n.rsplit(" ", 1) if n[-1].isdigit() else (n, None)))
              for n in names))) + ("\r\n" if crlf else "\n")).encode(),
    st.integers(0, 30), st.lists(_NAMES, max_size=4), st.booleans())
_LINES = st.lists(st.one_of(_RECORD_LINE, st.sampled_from([b"\n", b" \n", b"\r\n"])),
                  max_size=30)


@settings(max_examples=60, deadline=None)
@given(_LINES, st.booleans())
def test_forked_load_equals_serial_load_on_drawn_files(lines, cut_last_newline):
    # blank lines, CRLF endings, repeated names and ids, and a last line
    # with or without its newline
    data = b"".join(lines)
    if cut_last_newline:
        data = data.removesuffix(b"\n")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "records.jsonl"
        path.write_bytes(data)
        cut = graph._middle_line_end(path)
        assert (cut is None) == (b"\n" not in data[len(data) // 2:-1])
        _loaded_every_way(path, forked=cut is not None)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
def test_forked_load_peaks_no_higher_than_a_serial_load(tmp_path, monkeypatch):
    # the child's rows join this process's rows in one stream, so the
    # loading process holds no second copy of the child's half
    path = tmp_path / "records.jsonl"
    write_records(generate_corpus(SynthConfig(blocks=200, seed=2, bridge_rate=0.3)), path)
    assert graph._middle_line_end(path) is not None

    def traced_peak():
        gc.collect()
        tracemalloc.start()
        try:
            load_graph(path)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    with monkeypatch.context() as m:
        m.delattr(os, "fork")
        serial = traced_peak()
    assert traced_peak() <= 1.05 * serial


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
    assert list(g.pub_index) == ["p3", "p1", "p2"]
    assert list(g.author_pubs) == ["A B", "C D", "E F"]
    assert g.pub_authors == [("A B", "C D"), ("C D", "A B"), ("A B", "E F")]
    assert g.author_pubs == {"A B": (0, 1, 2), "C D": (0, 1), "E F": (2,)}


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
    assert len(g.pub_authors[g.pub_index["p1"]]) == 2


def test_each_distinct_name_is_one_string(tmp_path, monkeypatch):
    # mentions of one name, parsed apart (and with and without a gold id),
    # are equal strings but distinct objects; the graph keeps one of each
    records = [rec(f"p{i}", "Wei Li 0001" if i % 2 else "".join(["Wei", " Li"]),
                   "".join(["C", " D"])) for i in range(6)]
    assert len({id(m.surface_name) for r in records for m in r.mentions}) > 2
    path = tmp_path / "records.jsonl"
    write_records(records, path)
    monkeypatch.delattr(os, "fork")
    for g in (build_graph(records), load_graph(path)):
        names = [a for authors in g.pub_authors for a in authors]
        assert len({id(a) for a in names}) == len(g.author_pubs) == 2


def _distance(g, p1, p2, t, focal):
    """Intermediate-node count on the shortest p1..p2 path not through
    ``focal`` if it is at most the odd bound ``t``, else ``math.inf``."""
    hop = pubs_within(g, p1, (t + 1) // 2, focal).get(p2)
    return math.inf if hop is None else 2 * hop - 1


def test_shared_coauthor_distance_is_1(fig1_graph):
    assert _distance(fig1_graph, "k/p1", "k/p2", 3, "Daniel Schall") == 1


def test_coauthor_of_coauthor_distance_is_3(fig1_graph):
    assert _distance(fig1_graph, "k/p3", "k/p4", 3, "Eric Dubois") == 3
    # tighter bound cannot see the longer path
    assert _distance(fig1_graph, "k/p3", "k/p4", 1, "Eric Dubois") == math.inf


def test_focal_exclusion_matters(fig1_graph):
    # without the exclusion the shared ambiguous name makes them adjacent
    assert _distance(fig1_graph, "k/p3", "k/p4", 3, None) == 1


def test_no_path_is_infinite(fig1_graph):
    assert _distance(fig1_graph, "k/p1", "k/p3", 3, None) == math.inf


def test_unknown_nodes_rejected(fig1_graph):
    with pytest.raises(KeyError) as exc:
        pubs_within(fig1_graph, "nope", 2, None)
    assert exc.value.args == ("nope",)
    with pytest.raises(KeyError) as exc:
        pubs_within(fig1_graph, "k/p1", 1, "No Such Name")
    assert exc.value.args == ("No Such Name",)


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
            got = _distance(g, p1, p2, max_d, focal)
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
        d12 = _distance(g, p1, p2, 5, None)
        d21 = _distance(g, p2, p1, 5, None)
        assert d12 == d21
        if d12 != math.inf:
            assert d12 % 2 == 1


def test_monotonicity_in_bound():
    records = _random_corpus(13)
    g = build_graph(records)
    rng = random.Random(13)
    pubs = [r.record_id for r in records]
    for _ in range(200):
        p1, p2 = rng.sample(pubs, 2)
        d_small = _distance(g, p1, p2, 1, None)
        d_big = _distance(g, p1, p2, 5, None)
        if d_small != math.inf:
            assert d_big == d_small
