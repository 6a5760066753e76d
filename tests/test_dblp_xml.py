import gc
import gzip
import io
import tracemalloc
import warnings

import pytest

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
