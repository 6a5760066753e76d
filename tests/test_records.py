import json
import weakref

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import oracles
from nameclust.errors import CorpusParseError, MalformedMentionError
from nameclust.graph import load_graph
from nameclust.records import (
    AuthorMention,
    RawRecord,
    parse_mention,
    read_records,
    record_to_json,
    write_records,
)
from conftest import rec


def test_suffix_split():
    m = parse_mention("Wei Li 0002")
    assert m.surface_name == "Wei Li"
    assert m.gold_id == "0002"


def test_plain_name():
    m = parse_mention("Daniel Schall")
    assert m.surface_name == "Daniel Schall"
    assert m.gold_id is None


def test_three_digits_is_not_a_suffix():
    m = parse_mention("Wei Li 123")
    assert m.surface_name == "Wei Li 123"
    assert m.gold_id is None


def test_five_digits_is_not_a_suffix():
    assert parse_mention("Wei Li 12345").gold_id is None


def test_whitespace_normalized():
    m = parse_mention("  Wei   Li   0002 ")
    assert m.surface_name == "Wei Li"
    assert m.gold_id == "0002"


@pytest.mark.parametrize("bad", ["", "   ", "\t\n"])
def test_empty_mention_rejected(bad):
    with pytest.raises(MalformedMentionError):
        parse_mention(bad)


def _ascii_digits(s):
    return s.isascii() and s.isdigit()


@given(st.text(min_size=1).filter(lambda s: s.strip()))
@example("a ¹²³⁴")  # superscripts: str.isdigit, but no gold suffix
@example("Wei Li ١٢٣٤")  # Arabic-Indic digits
@example("Wei Li １２３４")  # fullwidth digits
def test_suffix_law(raw):
    # gold_id present implies the normalized string is exactly
    # surface_name + " " + gold_id, and the suffix is four ASCII digits
    m = parse_mention(raw)
    if m.gold_id is not None:
        assert " ".join(raw.split()) == f"{m.surface_name} {m.gold_id}"
        assert len(m.gold_id) == 4 and _ascii_digits(m.gold_id)
    assert m.surface_name
    assert not (m.surface_name[-5:-4] == " " and _ascii_digits(m.surface_name[-4:]))


@pytest.mark.parametrize("raw", ["Wei Li ١٢٣٤", "Wei Li １２３４", "Wei Li ¹²³⁴"])
def test_digits_of_other_scripts_are_no_suffix(raw):
    assert parse_mention(raw) == AuthorMention(surface_name=raw, gold_id=None)


# names ending in digits of several scripts, with mixed whitespace
_MENTION_TEXT = st.lists(st.sampled_from([
    "Wei", "Li", "a", "é", "0", "0001", "123", "12345", "١٢٣٤", "１２３４", "¹²³⁴",
    "٣", "２", "9", " ", "  ", "\t", "\n", "\u00a0", "\u2003", "\u3000", "\x1c"]),
    min_size=1, max_size=8).map("".join)


@given(_MENTION_TEXT)
@example("Wei Li\u00a00002")
@example("\u20031234\t")
def test_parse_mention_equals_the_definitional_split(raw):
    if not raw.split():
        with pytest.raises(MalformedMentionError):
            parse_mention(raw)
        return
    assert tuple(parse_mention(raw)) == oracles.oracle_mention(raw)


def test_jsonl_round_trip(tmp_path):
    records = [
        rec("a/1", "Wei Li 0001", "Jane Roe"),
        rec("a/2", "Jane Roe"),
        rec("a/3"),  # editor-only record, no mentions
    ]
    path = tmp_path / "records.jsonl"
    assert write_records(records, path) == 3
    back = list(read_records(path))
    assert back == records


def test_json_line_is_stable(tmp_path):
    r = rec("a/1", "Wei Li 0001")
    first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
    write_records([r], first)
    back = list(read_records(first))
    assert back == [r]
    write_records(back, second)
    assert second.read_bytes() == first.read_bytes()


_FIELDS = ("record_id", "kind", "title", "venue", "year", "mentions")
_VALUES = ("a/1", "article", "T", "J", 2015, (AuthorMention("Wei Li", "0001"),))
_OTHER = ("a/2", "www", "U", None, None, ())


def test_raw_record_by_position_equals_by_keyword():
    by_position = RawRecord(*_VALUES)
    assert by_position == RawRecord(**dict(zip(_FIELDS, _VALUES)))
    assert tuple(getattr(by_position, f) for f in _FIELDS) == _VALUES


@pytest.mark.parametrize("i", range(len(_FIELDS)), ids=_FIELDS)
def test_raw_records_differing_in_one_field_are_unequal(i):
    values = list(_VALUES)
    values[i] = _OTHER[i]
    assert RawRecord(*values) != RawRecord(*_VALUES)


def test_equal_raw_records_hash_equal():
    one, two = RawRecord(*_VALUES), RawRecord(*_VALUES)
    assert one is not two and hash(one) == hash(two)
    assert len({one, two, RawRecord(*_OTHER)}) == 2
    # a record is not equal to a tuple of its fields
    assert one != _VALUES


def test_raw_record_is_weakly_referable_and_repr_names_its_fields():
    r = RawRecord(*_VALUES)
    assert weakref.ref(r)() is r
    assert repr(r) == ("RawRecord(record_id='a/1', kind='article', title='T', venue='J', "
                       "year=2015, mentions=(AuthorMention(surface_name='Wei Li', "
                       "gold_id='0001'),))")


# text rich in what JSON must escape, mixed with arbitrary text
_TEXT = st.text(alphabet='"\\/\x00\x07\x1f\x7f\n\r\t\b\f\u2028é€😀 a0') | st.text()
_RECORDS = st.builds(
    RawRecord, record_id=_TEXT, kind=_TEXT, title=_TEXT, venue=st.none() | _TEXT,
    year=st.none() | st.integers(),
    mentions=st.lists(st.builds(AuthorMention, surface_name=_TEXT,
                                gold_id=st.none() | _TEXT),
                      max_size=4).map(tuple))


@given(_RECORDS)
@example(RawRecord(record_id="a/1", kind="www", title='"\\', venue=None, year=None,
                   mentions=()))
def test_record_to_json_equals_json_dumps(r):
    obj = {"id": r.record_id, "kind": r.kind, "title": r.title, "venue": r.venue,
           "year": r.year, "authors": [{"name": m.surface_name, "gold_id": m.gold_id}
                                       for m in r.mentions]}
    assert record_to_json(r) == json.dumps(obj, ensure_ascii=False, sort_keys=True)


def test_read_records_shares_equal_mentions(tmp_path):
    records = [
        rec("a/1", "Wei Li 0001", "Jane Roe"),
        rec("a/2", "Jane Roe", "Wei Li 0001", "Wei Li"),
    ]
    path = tmp_path / "records.jsonl"
    write_records(records, path)
    one, two = read_records(path)
    assert (one, two) == tuple(records)
    assert one.mentions[0] is two.mentions[1]  # "Wei Li 0001"
    assert one.mentions[1] is two.mentions[0]  # "Jane Roe"
    assert two.mentions[2] is not two.mentions[1]  # same name, no gold id
    again = tmp_path / "again.jsonl"
    write_records((one, two), again)
    assert again.read_bytes() == path.read_bytes()
    assert tuple(read_records(again)) == (one, two)


def _errors_of_both_readers(path):
    """The record ids ``read_records`` yields from ``path`` before its
    error, and the CorpusParseError of ``read_records`` and of
    ``load_graph``, which must agree."""
    seen = []
    with pytest.raises(CorpusParseError) as by_records:
        for r in read_records(path):
            seen.append(r.record_id)
    with pytest.raises(CorpusParseError) as by_graph:
        load_graph(path)

    def where(err):
        return str(err), err.path, err.line, err.column

    assert where(by_graph.value) == where(by_records.value)
    return seen, by_records.value


_MISSING = object()
GOOD = {"id": "a/1", "kind": "article", "title": "t", "venue": None,
        "year": 2015, "authors": [{"name": "Wei Li", "gold_id": "0001"}]}


def _with(**changes):
    obj = dict(GOOD, **changes)
    return json.dumps({k: v for k, v in obj.items() if v is not _MISSING})


@pytest.mark.parametrize("line, message", [
    ('{"id": "a/1", "kind": ', "invalid JSON"),
    ("[1, 2]", "record is a JSON array, not an object"),
    ('"a/1"', "record is a JSON string, not an object"),
    (_with(authors=_MISSING), "record has no 'authors' key"),
    (_with(id=_MISSING), "record has no 'id' key"),
    (_with(id=7), "record key 'id' is a JSON integer, expected string"),
    (_with(year="2015"), "record key 'year' is a JSON string, expected integer or null"),
    (_with(year=True), "record key 'year' is a JSON boolean"),
    (_with(venue=["J"]), "record key 'venue' is a JSON array, expected string or null"),
    (_with(authors={"name": "X"}), "record key 'authors' is a JSON object, expected array"),
    (_with(authors=["Wei Li"]), "author is a JSON string, not an object"),
    (_with(authors=[{"name": "Wei Li"}]), "author has no 'gold_id' key"),
    (_with(authors=[{"name": None, "gold_id": None}]),
     "author key 'name' is a JSON null, expected string"),
    (_with(authors=[{"name": "Wei Li", "gold_id": 1}]),
     "author key 'gold_id' is a JSON integer, expected string or null"),
], ids=["bad-json", "array", "string", "no-authors", "no-id", "int-id", "string-year",
        "bool-year", "array-venue", "object-authors", "string-author",
        "author-no-gold-id", "null-name", "int-gold-id"])
def test_malformed_line_reports_path_and_line(tmp_path, line, message):
    path = tmp_path / "records.jsonl"
    # the bad line is line 4 of the file: a good line, a blank line, a good line
    path.write_text(f"{_with()}\n\n{_with(id='a/2')}\n{line}\n{_with(id='a/3')}\n")
    seen, err = _errors_of_both_readers(path)
    assert seen == ["a/1", "a/2"]
    assert err.path == path
    assert err.line == 4
    assert message in str(err)
    assert str(path) in str(err) and "line 4" in str(err)


def test_invalid_utf8_reports_its_line(tmp_path):
    path = tmp_path / "records.jsonl"
    path.write_bytes(_with().encode() + b'\n{"id": "a/\xff"}\n')
    _, err = _errors_of_both_readers(path)
    assert err.line == 2
    assert "can't decode byte 0xff" in str(err)


def test_malformed_json_column_is_within_the_line(tmp_path):
    path = tmp_path / "records.jsonl"
    path.write_text(_with() + "\n" + '{"id" "a/2"}\n')
    _, err = _errors_of_both_readers(path)
    assert (err.line, err.column) == (2, 7)
    assert "line 2, col 7" in str(err)
    # a fault at the end of a line is just after its last character, with
    # or without a newline (LF or CRLF) after it
    for line, column in [("{\n", 2), ("{\r\n", 2), ("{", 2), ('{"id": \n', 8)]:
        path.write_bytes((_with() + "\n" + line).encode())
        _, err = _errors_of_both_readers(path)
        assert (err.line, err.column) == (2, column), line
        assert f"line 2, col {column})" in str(err)


@pytest.mark.parametrize("text", [
    "  " + _with(id="a/2") + "\n",
    _with(id="a/2") + "\r\n",
    _with(id="a/2") + " \t\n",
    _with(id="a/2"),  # last line, no newline
    _with(id="a/2") + " x\n",
    _with(id="a/2") + "{}\n",
    "\ufeff" + _with(id="a/2") + "\n",
    _with(id="a/2")[:-1] + ",\n",
], ids=["leading-space", "crlf", "trailing-space", "no-newline", "trailing-garbage",
        "second-object", "bom", "unclosed"])
def test_line_decoding_agrees_with_json_loads(tmp_path, text):
    # the decoder parses with raw_decode and hands every line that leaves
    # more than its newline to json.loads, so each reader must give what
    # json.loads gives, except that a fault json.loads places past the
    # newline, on its line 2, is given just after the line's end
    path = tmp_path / "records.jsonl"
    path.write_bytes((_with() + "\n" + text).encode())
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        _, err = _errors_of_both_readers(path)
        column = exc.colno if exc.lineno == 1 else len(text.rstrip("\r\n")) + 1
        assert str(err) == f"invalid JSON: {exc.msg} ({path}; line 2, col {column})"
    else:
        assert [r.record_id for r in read_records(path)] == ["a/1", obj["id"]]
        assert list(load_graph(path).pub_index) == ["a/1", obj["id"]]
