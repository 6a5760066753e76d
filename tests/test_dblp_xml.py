import errno
import gc
import gzip
import io
import os
import signal
import tracemalloc
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from cases import FailingStream, long_dblp_document
from conftest import no_child_left
from nameclust.dblp_xml import parse_dblp
from nameclust.errors import CorpusParseError

MINIMAL = b"""<?xml version="1.0"?>
<dblp>
<inproceedings key="conf/x/1">
<author>Wei Li 0001</author><author>Jane Roe</author>
<title>A Paper</title><booktitle>CONF</booktitle><year>2014</year>
</inproceedings>
<article key="journals/y/2">
<author>Jane Roe</author>
<title>Another</title><journal>J</journal><year>2015</year>
</article>
<proceedings key="conf/x/2015">
<editor>Some Editor</editor><title>Proc</title>
</proceedings>
</dblp>
"""


def test_minimal_document():
    recs = list(parse_dblp(io.BytesIO(MINIMAL)))
    assert len(recs) == 3
    first = recs[0]
    assert first.kind == "inproceedings"
    assert first.record_id == "conf/x/1"
    assert len(first.mentions) == 2
    assert first.mentions[0].surface_name == "Wei Li"
    assert first.mentions[0].gold_id == "0001"
    assert first.venue == "CONF"
    assert first.year == 2014
    # editor-only proceedings yields a record with no mentions
    assert recs[2].mentions == ()


def test_empty_stream():
    assert list(parse_dblp(io.BytesIO(b"<dblp></dblp>"))) == []


def test_unknown_element_becomes_other():
    doc = b'<dblp><widget key="w/1"><author>A B</author><title>t</title></widget></dblp>'
    recs = list(parse_dblp(io.BytesIO(doc)))
    assert recs[0].kind == "other"
    assert recs[0].mentions[0].surface_name == "A B"


def test_character_entities_resolved():
    # DBLP dumps declare their DTD; that declaration is what lets the
    # parser substitute named entities from its table
    doc = ('<?xml version="1.0"?><!DOCTYPE dblp SYSTEM "dblp.dtd">'
           '<dblp><article key="a/1"><author>Ren&eacute; M&#252;ller</author>'
           "<title>t</title></article></dblp>").encode()
    recs = list(parse_dblp(io.BytesIO(doc)))
    assert recs[0].mentions[0].surface_name == "René Müller"


def test_gzip_input(tmp_path):
    path = tmp_path / "dump.xml.gz"
    path.write_bytes(gzip.compress(MINIMAL))
    assert len(list(parse_dblp(str(path)))) == 3


def test_path_object_reads_as_its_str(tmp_path, forks):
    # an os.PathLike source is a path: opened by the parse and closed after it
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for name, data in (("long.xml", long_dblp_document()),
                           ("dump.xml.gz", gzip.compress(MINIMAL))):
            path = tmp_path / name
            path.write_bytes(data)
            assert list(parse_dblp(path)) == list(parse_dblp(str(path)))
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
    assert forks and no_child_left()


def test_opened_files_closed_and_caller_streams_left_open(tmp_path):
    plain = tmp_path / "dump.xml"
    plain.write_bytes(MINIMAL)
    packed = tmp_path / "dump.xml.gz"
    packed.write_bytes(gzip.compress(MINIMAL))
    bad = tmp_path / "bad.xml"
    bad.write_bytes(b"<dblp><article key=")
    callers = [io.BytesIO(MINIMAL), io.BytesIO(gzip.compress(MINIMAL))]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for source in (str(plain), str(packed), *callers):
            assert len(list(parse_dblp(source))) == 3
        abandoned = parse_dblp(str(plain))
        next(abandoned)
        del abandoned
        with pytest.raises(CorpusParseError):
            list(parse_dblp(str(bad)))
        gc.collect()
    leaks = [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)]
    assert leaks == []
    assert not any(stream.closed for stream in callers)


def test_author_order_preserved():
    doc = (b'<dblp><article key="a/1"><author>C C</author><author>A A</author>'
           b"<author>B B</author><title>t</title></article></dblp>")
    recs = list(parse_dblp(io.BytesIO(doc)))
    assert [m.surface_name for m in recs[0].mentions] == ["C C", "A A", "B B"]


def test_malformed_xml_reports_offset():
    doc = b'<dblp><article key="a/1"><author>A</artic'
    with pytest.raises(CorpusParseError) as exc:
        list(parse_dblp(io.BytesIO(doc)))
    assert exc.value.byte_offset is not None
    assert exc.value.line is not None
    # ElementTree's own ": line 1, column 34" is not repeated
    assert str(exc.value) == "unclosed token (byte~41; line 1, col 34)"


@pytest.mark.parametrize("damage", ["truncated", "corrupt", "bad_crc"])
def test_damaged_gzip_reports_offset(damage):
    packed = bytearray(gzip.compress(MINIMAL))
    if damage == "truncated":
        del packed[len(packed) // 2:]
    elif damage == "corrupt":
        packed[10:40] = bytes(30)
    else:
        packed[-8] ^= 1
    with pytest.raises(CorpusParseError) as exc:
        list(parse_dblp(io.BytesIO(bytes(packed))))
    assert str(exc.value).startswith("damaged gzip data: ")
    assert exc.value.byte_offset is not None


_AUTHORS = st.lists(st.sampled_from(
    ["Wei Li 0001", "Jane Roe", "Ren&eacute; M&#252;ller", "A &amp; B"]), max_size=3)


@st.composite
def dblp_documents(draw):
    """A valid DBLP-shaped document and its record count."""
    parts = [b'<?xml version="1.0"?>\n<!DOCTYPE dblp SYSTEM "dblp.dtd">\n<dblp>\n']
    n = draw(st.integers(0, 4))
    for i in range(n):
        authors = "".join(f"<author>{a}</author>" for a in draw(_AUTHORS))
        parts.append(f'<article key="a/{i}">{authors}<title>t{i}</title></article>\n'.encode())
    parts.append(b"</dblp>\n")
    return b"".join(parts), n


@settings(max_examples=300, deadline=None)
@given(document=dblp_documents(), gzipped=st.booleans(), data=st.data())
def test_every_truncated_prefix_is_a_parse_error_with_offset(document, gzipped, data):
    # a gzipped document cut anywhere, and a plain one cut before its
    # root's closing tag ends, fail with a located CorpusParseError only
    doc, n = document
    if gzipped:
        doc = gzip.compress(doc)
        end = len(doc) - 1
    else:
        end = doc.rindex(b"</dblp>") + len("</dblp>") - 1
    assert len(list(parse_dblp(io.BytesIO(doc)))) == n
    prefix = doc[:data.draw(st.integers(0, end), label="prefix length")]
    with pytest.raises(CorpusParseError) as exc:
        for _ in parse_dblp(io.BytesIO(prefix)):
            pass
    assert exc.value.byte_offset is not None


def _big_document(n_records):
    buf = io.BytesIO()
    buf.write(b"<dblp>\n")
    for i in range(n_records):
        buf.write(
            f'<article key="big/{i}"><author>Author {i % 977}</author>'
            f"<author>Author {(i * 7) % 977}</author>"
            f"<title>Some reasonably long title text {i} about a topic</title>"
            f"<journal>J{i % 31}</journal><year>{1990 + i % 30}</year>"
            "</article>\n".encode()
        )
    buf.write(b"</dblp>\n")
    return buf.getvalue()


def test_streaming_memory_bounded():
    # 10^5 records: peak allocation while iterating must stay tiny
    # compared to the document (memory proportional to one record)
    doc = _big_document(100_000)
    stream = io.BytesIO(doc)
    tracemalloc.start()
    tracemalloc.reset_peak()
    count = 0
    for rec in parse_dblp(stream):
        count += 1
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert count == 100_000
    assert peak < len(doc) / 4, f"peak {peak} vs document {len(doc)}"


# pieces of field text: markup, entities, CDATA and comments inside a field
_PIECES = st.sampled_from([
    "Wei", " Li", "  ", "\n", "&eacute;", "&#252;", "&amp;", "&lt;b&gt;", "<i>it</i>",
    "<sub>2<b>x</b></sub>", "<![CDATA[a<b&c]]>", "<!-- note -->"])
_TEXT = st.lists(_PIECES, max_size=5).map("".join)
_FIELDS = {
    "author": st.one_of(_TEXT, st.sampled_from(
        ["Wei Li 0001", "Jane Roe", "", "   ", "\n\t", "Ren&eacute; M&#252;ller 0002"])),
    # an author inside a title is no mention; a long title straddles reads
    "title": st.tuples(_TEXT, st.sampled_from(["", "<author>Nested Name</author>"]),
                       st.integers(0, 9000)).map(lambda t: t[0] + t[1] + "p" * t[2]),
    "journal": _TEXT,
    "booktitle": _TEXT,
    "year": st.sampled_from(["2015", " 1999\n", "", "20x5", "&#50;001", "MMXV"]),
    "pages": _TEXT,
    "ee": _TEXT,
}


@st.composite
def dblp_publications(draw, i):
    tag = draw(st.sampled_from(["article", "inproceedings", "www", "proceedings", "widget"]))
    key = draw(st.sampled_from([f' key="a/{i}"', f' mdate="2015" key="r&amp;d/{i}"', ""]))
    fields = draw(st.lists(st.sampled_from(sorted(_FIELDS)), max_size=6))
    body = "".join(f"<{f}>{draw(_FIELDS[f])}</{f}>" + draw(st.sampled_from(["", "\n", "x"]))
                   for f in fields)
    return f"<{tag}{key}>{body}</{tag}>\n"


@st.composite
def mixed_documents(draw):
    head = '<?xml version="1.0"?>\n<!DOCTYPE dblp SYSTEM "dblp.dtd">\n<dblp>\n'
    body = "".join(draw(dblp_publications(i)) for i in range(draw(st.integers(0, 8))))
    if draw(st.booleans()):
        # blank space before the publications puts the end of the first
        # 16 KiB read at a drawn point among them
        cut = draw(st.integers(0, len(body)))
        head += " " * (16 * 1024 - len(head) - cut)
    return (head + body + "</dblp>\n").encode()


@settings(max_examples=200, deadline=None)
@given(doc=mixed_documents(), gzipped=st.booleans())
def test_records_equal_the_element_tree_oracle(doc, gzipped):
    want = oracles.oracle_dblp_records(doc)
    source = gzip.compress(doc) if gzipped else doc
    assert list(parse_dblp(io.BytesIO(source))) == want


@pytest.mark.parametrize("tail", [
    b'<article key="a/x"><author>B</artic',  # found when the input ends
    b'<article key="a/x"><author>B</title></article><article key="a/y"/></dblp>',
])
def test_records_before_a_parse_error_are_yielded_first(tail):
    # 600 records span three 16 KiB reads; the error falls in the last
    good = [f'<article key="a/{i}"><author>A {i}</author><title>t</title></article>\n'
            for i in range(600)]
    doc = ("<dblp>\n" + "".join(good)).encode() + tail
    assert len(doc) > 2 * 16 * 1024
    ids = []
    with pytest.raises(CorpusParseError):
        for rec in parse_dblp(io.BytesIO(doc)):
            ids.append(rec.record_id)
    assert ids == [f"a/{i}" for i in range(600)]


# -- the forked child, which reads and parses the whole input ---------------


def _outcome(source):
    """The records ``parse_dblp(source())`` yields and the error it ends
    with, or None."""
    records = []
    try:
        for rec in parse_dblp(source()):
            records.append(rec)
    except Exception as exc:
        return records, exc
    return records, None


def _in_both_processes(source, monkeypatch, forks):
    """The outcome of parsing ``source()`` with the forked child and with
    every read in this process; the first must have forked."""
    forked = _outcome(source)
    assert len(forks) == 1 and no_child_left()
    with monkeypatch.context() as m:
        m.delattr(os, "fork")
        alone = _outcome(source)
    assert len(forks) == 1
    return forked, alone


def _where(err):
    return type(err), str(err), err.byte_offset, err.line, err.column


def test_long_document_parses_as_in_one_process(monkeypatch, forks):
    doc = long_dblp_document()
    assert len(doc) > 8 * 16 * 1024
    for source in (doc, gzip.compress(doc)):
        forked = list(parse_dblp(io.BytesIO(source)))
        assert forks and no_child_left()
        with monkeypatch.context() as m:
            m.delattr(os, "fork")
            assert list(parse_dblp(io.BytesIO(source))) == forked
        assert forked == oracles.oracle_dblp_records(doc)
        forks.clear()


@pytest.mark.parametrize("size", ["short", "long"])
def test_the_child_parses_from_the_first_read(size, forks):
    # no record is built from a read of the caller's own: by the first
    # record, the one child has been forked
    doc = MINIMAL if size == "short" else long_dblp_document()
    records = parse_dblp(io.BytesIO(doc))
    first = next(records)
    assert len(forks) == 1
    assert first == oracles.oracle_dblp_records(doc)[0]
    records.close()
    assert no_child_left()


@pytest.mark.parametrize("gzipped", [False, True])
def test_dump_shorter_than_one_read_parses_as_in_one_process(gzipped, monkeypatch, forks):
    # the child's first read meets the end of the input
    pack = gzip.compress if gzipped else bytes
    dump = pack(MINIMAL)
    assert len(dump) < 16 * 1024
    (records, err), (alone, alone_err) = _in_both_processes(
        lambda: io.BytesIO(dump), monkeypatch, forks)
    assert err is None and alone_err is None
    assert records == alone == oracles.oracle_dblp_records(MINIMAL)
    forks.clear()
    # a truncated copy: the error is raised in the child
    cut = dump[:len(dump) * 2 // 3] if gzipped else MINIMAL[:MINIMAL.index(b"<proceedings")]
    (records, err), (alone, alone_err) = _in_both_processes(
        lambda: io.BytesIO(cut), monkeypatch, forks)
    assert isinstance(err, CorpusParseError)
    assert records == alone
    assert _where(err) == _where(alone_err)
    if not gzipped:
        assert [r.record_id for r in records] == ["conf/x/1", "journals/y/2"]
        assert err.byte_offset == len(cut)


@pytest.mark.parametrize("tail", [
    b'<article key="a/x"><author>B</artic',  # found when the input ends
    b'<article key="a/x"><author>B</title></article><article key="a/y"/></dblp>',
])
def test_malformed_xml_after_the_first_read_is_located_as_in_one_process(
        tail, monkeypatch, forks):
    doc = long_dblp_document()[:-len("</dblp>\n")] + tail
    (records, err), (alone, alone_err) = _in_both_processes(
        lambda: io.BytesIO(doc), monkeypatch, forks)
    assert isinstance(err, CorpusParseError)
    assert [r.record_id for r in records] == [f"a/{i}" for i in range(3000)]
    assert records == alone
    assert _where(err) == _where(alone_err)
    assert err.byte_offset > 16 * 1024 and err.line > 1000


@pytest.mark.parametrize("damage", ["truncated", "corrupt", "bad_crc"])
def test_damaged_gzip_after_the_first_read_is_located_as_in_one_process(
        damage, monkeypatch, forks):
    # two gzip members, the second damaged as in test_damaged_gzip_reports_offset
    doc = long_dblp_document()
    half = len(doc) // 2
    packed = bytearray(gzip.compress(doc[half:]))
    if damage == "truncated":
        del packed[len(packed) // 2:]
    elif damage == "corrupt":
        packed[10:40] = bytes(30)
    else:
        packed[-8] ^= 1
    packed = gzip.compress(doc[:half]) + packed
    (records, err), (alone, alone_err) = _in_both_processes(
        lambda: io.BytesIO(packed), monkeypatch, forks)
    assert isinstance(err, CorpusParseError)
    assert str(err).startswith("damaged gzip data: ")
    assert len(records) > 100 and records == alone
    assert _where(err) == _where(alone_err)


def _raise_eio():
    raise OSError(errno.EIO, "simulated read failure")


def test_read_error_after_the_first_read_is_raised_as_in_one_process(monkeypatch, forks):
    doc = long_dblp_document()
    (records, err), (alone, alone_err) = _in_both_processes(
        lambda: FailingStream(doc, 5 * 16 * 1024, _raise_eio), monkeypatch, forks)
    assert type(err) is OSError
    assert (err.errno, err.strerror, str(err)) == (
        alone_err.errno, alone_err.strerror, str(alone_err))
    assert str(err) == "[Errno 5] simulated read failure"
    assert records == alone and len(records) > 100


@pytest.mark.parametrize("how", ["close", "del"])
def test_abandoned_iteration_leaves_no_child(how, forks):
    records = parse_dblp(io.BytesIO(long_dblp_document()))
    for _ in range(1000):  # well past the first read's records
        next(records)
    assert len(forks) == 1
    if how == "close":
        records.close()
    else:
        del records
        gc.collect()
    assert no_child_left()


def test_killed_child_is_an_error_not_an_early_end(forks):
    parent = os.getpid()

    def kill_the_child():
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)

    doc = long_dblp_document()
    stream = FailingStream(doc, 5 * 16 * 1024, kill_the_child)
    with pytest.raises(ChildProcessError, match="killed by signal 9"):
        for _ in parse_dblp(stream):
            pass
    assert len(forks) == 1 and no_child_left()
