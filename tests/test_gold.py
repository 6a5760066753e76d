import json

import pytest

from conftest import rec
from nameclust.errors import DataIntegrityError
from nameclust.gold import (
    build_blocks,
    build_gold_standard,
    read_gold,
    sample_blocks,
    write_gold,
)


@pytest.fixture
def wei_li_corpus():
    return [
        rec("p1", "Wei Li 0001", "Jane Roe"),
        rec("p2", "Wei Li 0001", "John Doe"),
        rec("p3", "Wei Li 0002", "Jane Roe"),
        rec("p4", "Jane Roe"),  # no gold mention
    ]


def test_build_gold_standard(wei_li_corpus):
    gold = build_gold_standard(wei_li_corpus)
    assert set(gold) == {"Wei Li"}
    authors = gold["Wei Li"]
    assert authors["Wei Li 0001"] == {"p1", "p2"}
    assert authors["Wei Li 0002"] == {"p3"}
    assert sum(map(len, gold.values())) == 2


def test_no_suffixed_names_gives_empty_gold():
    gold = build_gold_standard([rec("p1", "Jane Roe")])
    assert gold == {}
    assert build_blocks(gold) == []


def test_min_gold_authors_filter():
    corpus = [rec("p1", "Wei Li 0001"), rec("p2", "A B 0001"), rec("p3", "A B 0002")]
    gold = build_gold_standard(corpus, min_gold_authors=2)
    assert set(gold) == {"A B"}


def test_build_blocks(wei_li_corpus):
    blocks = build_blocks(build_gold_standard(wei_li_corpus))
    assert len(blocks) == 1
    block = blocks[0]
    assert block.block_key == "Wei Li"
    assert block.m == 3
    assert block.gold_label == {
        "p1": "Wei Li 0001", "p2": "Wei Li 0001", "p3": "Wei Li 0002"}
    assert len(set(block.gold_label.values())) == 2


def test_conflicting_gold_assignment_rejected():
    gold = {"X Y": {"X Y 0001": {"p1"}, "X Y 0002": {"p1"}}}
    with pytest.raises(DataIntegrityError):
        build_blocks(gold)


def _many_blocks(n):
    records = []
    for i in range(n):
        records.append(rec(f"p{i}", f"Name {i:05d} 0001"))
    return build_blocks(build_gold_standard(records))


def test_sample_is_deterministic():
    bs = _many_blocks(50)
    a = sample_blocks(bs, 10, seed=42)
    b = sample_blocks(bs, 10, seed=42)
    assert [x.block_key for x in a] == [x.block_key for x in b]
    c = sample_blocks(bs, 10, seed=43)
    assert [x.block_key for x in a] != [x.block_key for x in c]


def test_sample_full_is_identity():
    bs = _many_blocks(8)
    sampled = sample_blocks(bs, 8, seed=0)
    assert sorted(b.block_key for b in sampled) == sorted(b.block_key for b in bs)


def test_sample_too_large_rejected():
    with pytest.raises(ValueError):
        sample_blocks(_many_blocks(3), 4, seed=0)


def test_gold_round_trip(tmp_path, wei_li_corpus):
    gold = build_gold_standard(wei_li_corpus)
    path = tmp_path / "gold.json"
    write_gold(gold, path)
    assert {bk: {ak: set(rids) for ak, rids in authors.items()}
            for bk, authors in read_gold(path).items()} == gold


def test_record_listed_twice_under_one_author_is_one_member(tmp_path):
    path = tmp_path / "gold.json"
    path.write_text(json.dumps({"A": {"A 0001": ["a/1", "a/1"], "A 0002": ["a/2"]}}))
    (block,) = build_blocks(read_gold(path))
    assert block.m == 2
    assert block.gold_label == {"a/1": "A 0001", "a/2": "A 0002"}


@pytest.mark.parametrize("obj, block", [
    ({"A": ["a/1"]}, "A"),
    ({"A": {"A 0001": ["a/1"]}, "B": {"B 0001": "b/1"}}, "B"),
    ({"A": {"A 0001": [1]}}, "A"),
    ({"A": None}, "A"),
    ([{"A": {"A 0001": ["a/1"]}}], None),
    ("A", None),
    ({"A": {}}, "A"),
    ({"A": {"A 0001": ["a/1"], "A 0002": []}}, "A"),
])
def test_read_gold_rejects_other_shapes(tmp_path, obj, block):
    path = tmp_path / "gold.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(DataIntegrityError) as exc:
        read_gold(path)
    message = str(exc.value)
    assert str(path) in message
    if block is None:
        assert "not a JSON object of blocks" in message
    else:
        assert f"gold block {block!r}" in message
