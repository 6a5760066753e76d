import errno
import gzip
import io
import json
import os
import random
import signal
import subprocess
import sys
import threading
import tracemalloc
import weakref
from pathlib import Path

import pytest

import nameclust
import nameclust.cli
from cases import FailingStream, groups_to_clustering, long_dblp_document
from conftest import no_child_left, rec
import nameclust.graph
from nameclust.bcubed import block_scores
from nameclust.cli import _per_block, main, read_config
from nameclust.errors import DataIntegrityError
from nameclust.gold import (Block, build_blocks, build_gold_standard, read_gold,
                            sample_blocks, write_gold)
from nameclust.records import AuthorMention, RawRecord, write_records
from nameclust.synth import SynthConfig, generate_corpus

SRC = Path(nameclust.__file__).resolve().parents[1]

MINIMAL_XML = b"""<?xml version="1.0"?>
<dblp>
<article key="a/1"><author>Wei Li 0001</author><author>J Roe</author>
<title>t1</title><year>2001</year></article>
<article key="a/2"><author>Wei Li 0001</author><author>J Roe</author>
<title>t2</title><year>2002</year></article>
<article key="a/3"><author>Wei Li 0002</author><author>K Poe</author>
<title>t3</title><year>2003</year></article>
</dblp>
"""


def run_cli(*argv):
    return main([str(a) for a in argv])


def test_ingest_minimal(tmp_path, capsys):
    xml = tmp_path / "dump.xml"
    xml.write_bytes(MINIMAL_XML)
    records = tmp_path / "records.jsonl"
    gold = tmp_path / "gold.json"
    assert run_cli("ingest", "--input", xml, "--records-out", records,
                   "--gold-out", gold) == 0
    assert len(records.read_text().splitlines()) == 3
    gold_obj = json.loads(gold.read_text())
    assert set(gold_obj) == {"Wei Li"}
    assert gold_obj["Wei Li"]["Wei Li 0001"] == ["a/1", "a/2"]


# a/1 names two gold authors of "Wei Li", so it has no single gold label there
TWO_IDENTITIES_XML = b"""<?xml version="1.0"?>
<dblp>
<article key="a/1"><author>Wei Li 0001</author><author>Wei Li 0002</author>
<title>t1</title><year>2001</year></article>
<article key="a/2"><author>Wei Li 0001</author><author>J Roe</author>
<title>t2</title><year>2002</year></article>
<article key="a/3"><author>Wei Li 0002</author><author>K Poe</author>
<title>t3</title><year>2003</year></article>
</dblp>
"""


def test_record_with_two_gold_authors_of_a_name_is_left_out_of_its_block(
        tmp_path, capsys):
    xml = tmp_path / "dump.xml"
    xml.write_bytes(TWO_IDENTITIES_XML)
    records, gold = tmp_path / "records.jsonl", tmp_path / "gold.json"
    assert run_cli("ingest", "--input", xml, "--records-out", records,
                   "--gold-out", gold) == 0
    assert len(records.read_text().splitlines()) == 3
    assert json.loads(gold.read_text()) == {
        "Wei Li": {"Wei Li 0001": ["a/2"], "Wei Li 0002": ["a/3"]}}
    inputs = ("--records", records, "--gold", gold)
    assert run_cli("run", *inputs, "--out-dir", tmp_path / "run") == 0
    assert run_cli("common-names", *inputs, "--out-dir", tmp_path / "cn",
                   "--min-block-size", 0) == 0
    assert "data error" not in capsys.readouterr().err


def test_ingest_gzip_and_no_gold_warning(tmp_path, capsys):
    xml = tmp_path / "dump.xml.gz"
    xml.write_bytes(gzip.compress(
        b'<dblp><article key="a/1"><author>No Gold</author><title>t</title>'
        b"</article></dblp>"))
    assert run_cli("ingest", "--input", xml,
                   "--records-out", tmp_path / "r.jsonl",
                   "--gold-out", tmp_path / "g.json") == 0
    assert "no suffix-identified authors" in capsys.readouterr().err


def test_ingest_malformed_exits_2(tmp_path, capsys):
    xml = tmp_path / "bad.xml"
    xml.write_bytes(b"<dblp><article key=")
    assert run_cli("ingest", "--input", xml,
                   "--records-out", tmp_path / "r.jsonl",
                   "--gold-out", tmp_path / "g.json") == 2
    assert "data error" in capsys.readouterr().err


@pytest.mark.parametrize("source", ["path", "stdin"])
def test_ingest_truncated_gzip_exits_2_with_offset(tmp_path, monkeypatch, capsys, source):
    packed = gzip.compress(MINIMAL_XML)
    cut = packed[:len(packed) // 2]
    xml = tmp_path / "dump.xml.gz"
    xml.write_bytes(cut)
    if source == "stdin":
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(cut)))
        xml = "-"
    assert run_cli("ingest", "--input", xml,
                   "--records-out", tmp_path / "r.jsonl",
                   "--gold-out", tmp_path / "g.json") == 2
    err = capsys.readouterr().err
    assert err.startswith("nameclust: data error: damaged gzip data: ")
    assert "(byte~" in err and err.count("\n") == 1


@pytest.mark.parametrize("existing", [False, True])
def test_ingest_data_error_leaves_no_partial_output(tmp_path, capsys, existing):
    xml = tmp_path / "bad.xml"
    xml.write_bytes(b'<dblp><article key="a/1"><author>A</author><title>t</title>'
                    b'</article><article key="a/2"><author>B</artic')
    out = tmp_path / "out"
    out.mkdir()
    records, gold = out / "records.jsonl", out / "gold.json"
    if existing:
        records.write_text("earlier records\n")
        gold.write_text("{}\n")
    assert run_cli("ingest", "--input", xml, "--records-out", records,
                   "--gold-out", gold) == 2
    assert "data error: unclosed token" in capsys.readouterr().err
    # no temporary file is left, and what was there before stays as it was
    if existing:
        assert sorted(p.name for p in out.iterdir()) == ["gold.json", "records.jsonl"]
        assert records.read_text() == "earlier records\n" and gold.read_text() == "{}\n"
    else:
        assert list(out.iterdir()) == []


@pytest.mark.parametrize("argv, config, n", [
    (["--min-gold-authors", -3], None, -3),
    ([], "min_gold_authors = 0\n", 0),
], ids=["flag", "config"])
def test_ingest_min_gold_authors_below_1_exits_1(tmp_path, capsys, argv, config, n):
    xml = tmp_path / "dump.xml"
    xml.write_bytes(MINIMAL_XML)
    if config is not None:
        (tmp_path / "bad.conf").write_text(config, encoding="utf-8")
        argv = ["--config", tmp_path / "bad.conf"]
    out = tmp_path / "out"
    out.mkdir()
    assert run_cli("ingest", "--input", xml, "--records-out", out / "records.jsonl",
                   "--gold-out", out / "gold.json", *argv) == 1
    err = capsys.readouterr().err
    assert err == f"nameclust: error: min gold authors must be >= 1, got {n}\n"
    assert list(out.iterdir()) == []


def test_ingest_min_gold_authors_flag_beats_config(tmp_path, capsys):
    xml = tmp_path / "dump.xml"
    xml.write_bytes(b"""<dblp>
<article key="a/1"><author>Wei Li 0001</author><title>t1</title></article>
<article key="a/2"><author>Wei Li 0002</author><title>t2</title></article>
<article key="a/3"><author>Jo Ng 0001</author><title>t3</title></article>
</dblp>""")
    cfg = tmp_path / "ingest.conf"
    cfg.write_text("min_gold_authors = 2\n", encoding="utf-8")
    gold = tmp_path / "gold.json"
    argv = ["ingest", "--input", xml, "--records-out", tmp_path / "records.jsonl",
            "--gold-out", gold, "--config", cfg]
    assert run_cli(*argv) == 0
    assert sorted(json.loads(gold.read_text())) == ["Wei Li"]
    assert run_cli(*argv, "--min-gold-authors", 1) == 0
    assert sorted(json.loads(gold.read_text())) == ["Jo Ng", "Wei Li"]


def test_ingest_into_missing_directory_names_the_output(tmp_path, capsys):
    xml = tmp_path / "dump.xml"
    xml.write_bytes(MINIMAL_XML)
    records = tmp_path / "none" / "records.jsonl"
    assert run_cli("ingest", "--input", xml, "--records-out", records,
                   "--gold-out", tmp_path / "gold.json") == 2
    err = capsys.readouterr().err
    assert err == f"nameclust: data error: [Errno 2] No such file or directory: '{records}'\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dump.xml"]


def test_ingest_replaces_existing_outputs(tmp_path, capsys):
    xml = tmp_path / "dump.xml"
    xml.write_bytes(MINIMAL_XML)
    records, gold = tmp_path / "records.jsonl", tmp_path / "gold.json"
    records.write_text("earlier records\n" * 10)
    assert run_cli("ingest", "--input", xml, "--records-out", records,
                   "--gold-out", gold) == 0
    assert len(records.read_text().splitlines()) == 3
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "dump.xml", "gold.json", "records.jsonl"]
    # the outputs get the mode any new file gets, as the input did
    assert {records.stat().st_mode, gold.stat().st_mode} == {xml.stat().st_mode}


# -- ingest of documents longer than the first 16 KiB read, parsed in a child --


@pytest.mark.parametrize("source", ["path", "gzip", "stdin"])
def test_ingest_of_many_reads_leaves_no_child(tmp_path, monkeypatch, capsys, forks,
                                              source):
    doc = long_dblp_document()
    xml = tmp_path / "dump.xml"
    xml.write_bytes(doc)
    if source == "gzip":
        xml = tmp_path / "dump.xml.gz"
        xml.write_bytes(gzip.compress(doc))
    elif source == "stdin":
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(doc)))
        xml = "-"
    records, gold = tmp_path / "records.jsonl", tmp_path / "gold.json"
    assert run_cli("ingest", "--input", xml, "--records-out", records,
                   "--gold-out", gold) == 0
    assert len(forks) == 1 and no_child_left()
    ids = [json.loads(line)["id"] for line in records.read_text().splitlines()]
    assert ids == [f"a/{i}" for i in range(3000)]
    assert sorted(json.loads(gold.read_text())["Wei Li"]) == [
        f"Wei Li 000{k}" for k in range(1, 5)]
    assert capsys.readouterr().out == "ingest: 3000 records, 1 gold blocks, 4 gold authors\n"


@pytest.mark.parametrize("damage", ["xml", "read"])
def test_ingest_error_after_the_first_read_exits_2_leaving_no_child(
        tmp_path, monkeypatch, capsys, forks, damage):
    doc = long_dblp_document()
    if damage == "xml":
        xml = tmp_path / "bad.xml"
        xml.write_bytes(doc[:-len("</dblp>\n")] + b'<article key="a/x"><author>B</artic')
        message = "unclosed token (byte~"
    else:
        def fail():
            raise OSError(errno.EIO, "simulated read failure")
        stream = FailingStream(doc, 5 * 16 * 1024, fail)
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BufferedReader(stream)))
        xml = "-"
        message = "[Errno 5] simulated read failure\n"
    out = tmp_path / "out"
    out.mkdir()
    assert run_cli("ingest", "--input", xml, "--records-out", out / "records.jsonl",
                   "--gold-out", out / "gold.json") == 2
    assert len(forks) == 1 and no_child_left()
    err = capsys.readouterr().err
    assert err.startswith(f"nameclust: data error: {message}") and err.count("\n") == 1
    assert list(out.iterdir()) == []


def test_ingest_process_writes_each_output_once(tmp_path, monkeypatch, capsys):
    # the child leaves through os._exit, so the buffered records file and
    # stdout it inherits are never flushed a second time
    xml = tmp_path / "dump.xml"
    xml.write_bytes(long_dblp_document())
    done = _python(["-m", "nameclust.cli", "ingest", "--input", str(xml),
                    "--records-out", str(tmp_path / "records.jsonl"),
                    "--gold-out", str(tmp_path / "gold.json")])
    assert done.stdout == "ingest: 3000 records, 1 gold blocks, 4 gold authors\n"
    monkeypatch.delattr(os, "fork")
    assert run_cli("ingest", "--input", xml, "--records-out", tmp_path / "alone.jsonl",
                   "--gold-out", tmp_path / "alone.json") == 0
    for name, alone in (("records.jsonl", "alone.jsonl"), ("gold.json", "alone.json")):
        assert (tmp_path / name).read_bytes() == (tmp_path / alone).read_bytes(), name


@pytest.mark.parametrize("command", ["ingest", "synth"])
def test_one_file_for_both_outputs_exits_1_before_reading_input(tmp_path, capsys, command):
    # the gold standard, written second, would replace the records; the
    # second name reaches the same file through a symlinked directory
    (tmp_path / "out").mkdir()
    (tmp_path / "link").symlink_to("out")
    argv = ["--input", tmp_path / "missing.xml"] if command == "ingest" else []
    assert run_cli(command, *argv, "--records-out", tmp_path / "out" / "both.json",
                   "--gold-out", tmp_path / "link" / "both.json") == 1
    err = capsys.readouterr().err
    assert err == ("nameclust: error: --records-out and --gold-out name the same file: "
                   f"{tmp_path / 'link' / 'both.json'}\n")
    assert list((tmp_path / "out").iterdir()) == []


@pytest.mark.parametrize("flag", ["--records-out", "--gold-out"])
def test_output_that_names_the_input_exits_1_leaving_the_dump(tmp_path, capsys, flag):
    # the output would replace the dump it is parsed from; the output's
    # name reaches the dump through a symlinked directory
    (tmp_path / "in").mkdir()
    (tmp_path / "link").symlink_to("in")
    xml = tmp_path / "in" / "dump.xml"
    xml.write_bytes(MINIMAL_XML)
    outputs = {"--records-out": tmp_path / "records.jsonl", "--gold-out": tmp_path / "gold.json"}
    outputs[flag] = tmp_path / "link" / "dump.xml"
    assert run_cli("ingest", "--input", xml, *[a for kv in outputs.items() for a in kv]) == 1
    assert capsys.readouterr().err == (
        f"nameclust: error: {flag} names the --input file: {outputs[flag]}\n")
    assert xml.read_bytes() == MINIMAL_XML
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in", "link"]
    assert list((tmp_path / "in").iterdir()) == [xml]


@pytest.mark.parametrize("flag", ["--records-out", "--gold-out"])
@pytest.mark.parametrize("command", ["ingest", "synth"])
def test_output_that_is_a_directory_exits_1_before_writing(tmp_path, capsys, command,
                                                            flag):
    # no file can replace a directory; the other output, already there,
    # must not be replaced before that is found
    xml = tmp_path / "dump.xml"
    xml.write_bytes(MINIMAL_XML)
    argv = ["--input", xml] if command == "ingest" else []
    records, gold = tmp_path / "records.jsonl", tmp_path / "gold.json"
    directory, other = (records, gold) if flag == "--records-out" else (gold, records)
    directory.mkdir()
    other.write_text("earlier\n")
    assert run_cli(command, *argv, "--records-out", records, "--gold-out", gold) == 1
    assert capsys.readouterr().err == f"nameclust: error: {flag} is a directory: {directory}\n"
    assert other.read_text() == "earlier\n"
    assert list(directory.iterdir()) == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dump.xml", "gold.json",
                                                          "records.jsonl"]


def test_synth_into_missing_directory_leaves_neither_output(tmp_path, capsys):
    gold = tmp_path / "none" / "gold.json"
    assert run_cli("synth", "--records-out", tmp_path / "records.jsonl",
                   "--gold-out", gold) == 2
    err = capsys.readouterr().err
    assert err == f"nameclust: data error: [Errno 2] No such file or directory: '{gold}'\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, message", [
    (["--bridge-rate", 1.5], "bridge rate must be in [0, 1], got 1.5"),
    (["--pubs-min", 3, "--pubs-max", 1], "publications per author must satisfy"),
    (["--authors-min", 5, "--authors-max", 2], "authors per block must satisfy"),
    (["--coauthors-min", 4, "--coauthors-max", 3], "co-authors per publication must"),
    (["--shared-pool", 0, "--bridge-rate", 0.5], "needs a shared pool of at least 1"),
    (["--pool-factor", "inf"], "pool factor must be finite and >= 0, got inf"),
    (["--pool-factor", "nan"], "pool factor must be finite and >= 0, got nan"),
    (["--pool-factor", -5], "pool factor must be finite and >= 0, got -5.0"),
    (["--blocks", -2], "blocks must be >= 0, got -2"),
])
def test_synth_bad_argument_exits_1(tmp_path, capsys, argv, message):
    records = tmp_path / "r.jsonl"
    assert run_cli("synth", "--records-out", records, "--gold-out", tmp_path / "g.json",
                   *argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("nameclust: error: ") and message in err
    assert err.count("\n") == 1
    assert not records.exists()


def test_usage_error_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("run")  # missing required flags
    assert exc.value.code == 1


@pytest.fixture
def synth_corpus(tmp_path):
    records = tmp_path / "records.jsonl"
    gold = tmp_path / "gold.json"
    assert run_cli("synth", "--records-out", records, "--gold-out", gold,
                   "--blocks", 6, "--bridge-rate", 0.2, "--seed", 11,
                   "--pubs-min", 4, "--pubs-max", 12) == 0
    return records, gold


def test_run_report_shape(tmp_path, synth_corpus):
    records, gold = synth_corpus
    out = tmp_path / "out"
    assert run_cli("run", "--records", records, "--gold", gold,
                   "--out-dir", out, "--seed", 1) == 0
    report = json.loads((out / "report.json").read_text())
    assert [t["threshold"] for t in report["thresholds"]] == [1, 3]
    for entry in report["thresholds"]:
        assert set(entry["corpus"]) == {"p", "r", "f"}
        assert len(entry["per_block"]) == report["sample_count"]
        # report integrity: per-block triples re-aggregate to the corpus triple
        for key in ("p", "r", "f"):
            mean = sum(b[key] for b in entry["per_block"]) / len(entry["per_block"])
            assert abs(mean - entry["corpus"][key]) < 1e-12
    # Eq.-1 audit figure is present and plausible
    assert report["comparisons"] > 0
    assert (out / "clusters_t1.tsv").exists()
    assert (out / "clusters_t3.tsv").exists()


def test_run_coarsening_direction(tmp_path, synth_corpus):
    records, gold = synth_corpus
    out = tmp_path / "out"
    run_cli("run", "--records", records, "--gold", gold, "--out-dir", out)
    report = json.loads((out / "report.json").read_text())
    by_t = {t["threshold"]: t["corpus"] for t in report["thresholds"]}
    assert by_t[3]["r"] >= by_t[1]["r"]  # threshold 3 coarsens threshold 1


def test_run_sample_too_large_exits_1(tmp_path, synth_corpus, capsys):
    records, gold = synth_corpus
    assert run_cli("run", "--records", records, "--gold", gold,
                   "--out-dir", tmp_path / "o", "--sample-count", 999) == 1


def test_run_worker_count_does_not_change_bytes(tmp_path, synth_corpus):
    records, gold = synth_corpus
    outs = []
    for workers in (1, 4):
        out = tmp_path / f"out{workers}"
        assert run_cli("run", "--records", records, "--gold", gold,
                       "--out-dir", out, "--seed", 3,
                       "--workers", workers) == 0
        outs.append((out / "report.json").read_bytes())
    assert outs[0] == outs[1]


def test_common_names_empty(tmp_path, synth_corpus, capsys):
    records, gold = synth_corpus
    out = tmp_path / "cn"
    assert run_cli("common-names", "--records", records, "--gold", gold,
                   "--out-dir", out, "--min-block-size", 10_000) == 0
    report = json.loads((out / "common_names.json").read_text())
    assert report["status"] == "empty"
    assert report["qualifying_blocks"] == 0


def test_common_names_before_after(tmp_path):
    records = tmp_path / "records.jsonl"
    gold = tmp_path / "gold.json"
    run_cli("synth", "--records-out", records, "--gold-out", gold,
            "--blocks", 2, "--bridge-rate", 0.25, "--seed", 2,
            "--pubs-min", 30, "--pubs-max", 40)
    out = tmp_path / "cn"
    assert run_cli("common-names", "--records", records, "--gold", gold,
                   "--out-dir", out, "--min-block-size", 50) == 0
    report = json.loads((out / "common_names.json").read_text())
    assert report["status"] == "ok"
    assert report["qualifying_blocks"] >= 1
    assert report["after"]["p"] > report["before"]["p"]
    for pb in report["per_block"]:
        assert {"q_before", "q_after", "passes", "communities"} <= set(pb)


def test_config_file_and_flag_precedence(tmp_path, synth_corpus):
    records, gold = synth_corpus
    cfg = tmp_path / "run.conf"
    cfg.write_text("thresholds = 1\nseed = 9  # comment\nalpha = 0.5\n")
    out = tmp_path / "out"
    assert run_cli("run", "--records", records, "--gold", gold,
                   "--out-dir", out, "--config", cfg) == 0
    report = json.loads((out / "report.json").read_text())
    assert [t["threshold"] for t in report["thresholds"]] == [1]
    assert report["sample_seed"] == 9
    # a flag overrides the file
    out2 = tmp_path / "out2"
    assert run_cli("run", "--records", records, "--gold", gold,
                   "--out-dir", out2, "--config", cfg, "--threshold", 3) == 0
    report2 = json.loads((out2 / "report.json").read_text())
    assert [t["threshold"] for t in report2["thresholds"]] == [3]


def test_config_file_with_a_bom_and_another_commands_setting(tmp_path, synth_corpus):
    # the BOM is no part of the first key, and a setting of common-names
    # is accepted by run, so that one file serves both
    records, gold = synth_corpus
    cfg = tmp_path / "run.conf"
    cfg.write_text("thresholds = 1\nseed = 9\nresolution = 2\n", encoding="utf-8-sig")
    assert cfg.read_bytes().startswith(b"\xef\xbb\xbfthresholds")
    out = tmp_path / "out"
    assert run_cli("run", "--records", records, "--gold", gold,
                   "--out-dir", out, "--config", cfg) == 0
    report = json.loads((out / "report.json").read_text())
    assert [t["threshold"] for t in report["thresholds"]] == [1]
    assert report["sample_seed"] == 9


def test_read_config_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.conf"
    bad.write_text("just words\n")
    from nameclust.cli import UsageError
    with pytest.raises(UsageError):
        read_config(bad)


def test_report_pretty_print(tmp_path, synth_corpus, capsys):
    records, gold = synth_corpus
    out = tmp_path / "out"
    run_cli("run", "--records", records, "--gold", gold, "--out-dir", out)
    capsys.readouterr()
    assert run_cli("report", out / "report.json") == 0
    text = capsys.readouterr().out
    assert "threshold=1" in text and "BCubed F" in text


def test_report_of_an_empty_common_names_report(tmp_path, synth_corpus, capsys):
    records, gold = synth_corpus
    out = tmp_path / "cn"
    assert run_cli("common-names", "--records", records, "--gold", gold,
                   "--out-dir", out, "--min-block-size", 10_000) == 0
    capsys.readouterr()
    assert run_cli("report", out / "common_names.json") == 0
    assert capsys.readouterr().out == (
        "          BCubed P  BCubed R  BCubed F\n"
        "qualifying blocks: 0\n")
    # blocks that qualified must have their scores
    path = tmp_path / "report.json"
    path.write_text(json.dumps({"status": "empty", "qualifying_blocks": 2}))
    assert run_cli("report", path) == 2
    assert capsys.readouterr().err == f"nameclust: data error: {path}: before is missing\n"


@pytest.mark.parametrize("obj", [{"status": "done", "blocks": [1, 2]}, [3, {"b": 1, "a": 2}]])
def test_report_of_other_json_is_printed_as_it_is(tmp_path, capsys, obj):
    path = tmp_path / "other.json"
    path.write_text(json.dumps(obj))
    assert run_cli("report", path) == 0
    captured = capsys.readouterr()
    assert captured.out == json.dumps(obj, indent=2, sort_keys=True) + "\n"
    assert captured.err == ""


@pytest.mark.parametrize("report, message", [
    ({"thresholds": [{"threshold": 1}]}, "thresholds[0].corpus is missing"),
    ({"thresholds": [3]}, "thresholds[0] must be an object, not int"),
    ({"thresholds": {}}, "thresholds must be a list, not dict"),
    ({"thresholds": [{"threshold": "1", "corpus": {"p": 1, "r": 1, "f": 1}}]},
     "thresholds[0].threshold must be an integer, not str"),
    ({"thresholds": []}, "sample_count is missing"),
    ({"before": 3}, "before must be an object, not int"),
    ({"before": {"p": 1, "r": 1}}, "before.f is missing"),
    ({"before": {"p": 1, "r": 1, "f": 1}, "after": {"p": 1, "r": True, "f": 1}},
     "after.r must be a number, not bool"),
    ({"before": {"p": 1, "r": 1, "f": 1}, "after": {"p": 1, "r": 1, "f": 1}},
     "qualifying_blocks is missing"),
])
def test_report_of_wrong_shape_exits_2(tmp_path, capsys, report, message):
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    assert run_cli("report", path) == 2
    captured = capsys.readouterr()
    assert captured.err == f"nameclust: data error: {path}: {message}\n"
    assert captured.out == ""


def _python(args, hashseed=0, timeout=120):
    """Run the interpreter in a fresh process with the package on its path."""
    env = dict(os.environ, PYTHONHASHSEED=str(hashseed), PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=timeout, check=True)


def test_outputs_identical_across_hash_seeds(tmp_path):
    # set and frozenset iteration order follows PYTHONHASHSEED, so every
    # float sum must run in a fixed order for the bytes to match
    records = tmp_path / "records.jsonl"
    gold = tmp_path / "gold.json"
    assert run_cli("synth", "--records-out", records, "--gold-out", gold,
                   "--blocks", 4, "--bridge-rate", 0.25, "--seed", 5,
                   "--pubs-min", 20, "--pubs-max", 40) == 0
    outputs = []
    for hashseed in (1, 2):
        out = tmp_path / f"h{hashseed}"
        _python(["-m", "nameclust.cli", "run", "--records", str(records),
                 "--gold", str(gold), "--out-dir", str(out / "run")], hashseed)
        _python(["-m", "nameclust.cli", "common-names", "--records", str(records),
                 "--gold", str(gold), "--out-dir", str(out / "cn"),
                 "--min-block-size", "50"], hashseed)
        outputs.append({str(f.relative_to(out)): f.read_bytes()
                        for f in sorted(out.rglob("*")) if f.is_file()})
    assert sorted(outputs[0]) == ["cn/common_names.json", "run/clusters_t1.tsv",
                                  "run/clusters_t3.tsv", "run/report.json"]
    for name in outputs[0]:
        assert outputs[0][name] == outputs[1][name], name


def test_cli_import_loads_no_numpy_or_scipy():
    # nor what only ingest (the XML stack) or synth runs, nor dataclasses
    probe = ("import sys, nameclust.cli; print(sorted(m for m in sys.modules "
             "if m.split('.')[0] in ('numpy', 'scipy', 'concurrent', 'logging', "
             "'dataclasses', 'xml', 'gzip', 'html') or m == 'nameclust.synth'))")
    assert _python(["-c", probe]).stdout.strip() == "[]"
    # the package root is only a version: it imports none of its modules
    probe = ("import sys, nameclust; "
             "print(sorted(m for m in sys.modules if m.startswith('nameclust.')))")
    assert _python(["-c", probe]).stdout.strip() == "[]"


@pytest.mark.parametrize("gzipped", [False, True])
def test_ingest_command_loads_no_xml_parser(tmp_path, gzipped):
    # the forked child parses from the first read, so only the child
    # imports the XML stack and builds the entity table
    doc = long_dblp_document()
    xml = tmp_path / "dump.xml"
    xml.write_bytes(gzip.compress(doc) if gzipped else doc)
    probe = ("import sys; from nameclust.cli import main; main(sys.argv[1:]); "
             "print(sorted(m for m in ('xml.etree.ElementTree', 'pyexpat', 'html.entities') "
             "if m in sys.modules))")
    done = _python(["-c", probe, "ingest", "--input", str(xml),
                    "--records-out", str(tmp_path / "records.jsonl"),
                    "--gold-out", str(tmp_path / "gold.json")])
    assert done.stdout == "ingest: 3000 records, 1 gold blocks, 4 gold authors\n[]\n"


def _tracked(records, peak):
    """Pass ``records`` through, appending to ``peak`` how many of the
    records yielded so far are still alive at each yield."""
    def gen(*args, **kwargs):
        refs = []
        for record in records(*args, **kwargs):
            refs = [r for r in refs if r() is not None]
            refs.append(weakref.ref(record))
            peak.append(len(refs))
            yield record
    return gen


@pytest.mark.parametrize("argv", [["run"], ["common-names", "--min-block-size", 5]])
def test_run_and_common_names_hold_no_record_list(tmp_path, synth_corpus, argv):
    # the load keeps nothing of a line but the graph's entries for it, so
    # a 4 KiB title on every line, and an author-less line after each one,
    # leave the command's peak traced memory where it was; a loader that
    # collected decoded lines or record objects would hold all the padding
    records, gold = synth_corpus
    pad = "x" * 4096
    padded = tmp_path / "padded.jsonl"
    lines = records.read_text().splitlines()
    with open(padded, "w", encoding="utf-8") as fh:
        for i, line in enumerate(lines):
            obj = json.loads(line)
            fh.write(json.dumps(dict(obj, title=obj["title"] + pad)) + "\n")
            fh.write(json.dumps(dict(obj, id=f"pad/{i}", title=pad, authors=[])) + "\n")

    def peak(path, out):
        tracemalloc.start()
        try:
            assert run_cli(argv[0], "--records", path, "--gold", gold,
                           "--out-dir", out, *argv[1:]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(records, tmp_path / "warm")  # first-use caches and imports
    plain = peak(records, tmp_path / "plain")
    grown = peak(padded, tmp_path / "padded") - plain
    assert grown < len(pad) * len(lines) // 10, (grown, plain)
    for f in (tmp_path / "plain").iterdir():
        assert (tmp_path / "padded" / f.name).read_bytes() == f.read_bytes(), f.name


def test_ingest_holds_no_record_list(tmp_path, monkeypatch, capsys):
    articles = "".join(
        f'<article key="a/{i}"><author>Wei Li 000{i % 3 + 1}</author>'
        f"<author>Co {i % 5}</author><title>t{i}</title></article>"
        for i in range(40))
    xml = tmp_path / "dump.xml"
    xml.write_text(f"<dblp>{articles}</dblp>")
    alive = []
    monkeypatch.setattr(nameclust.cli, "parse_dblp",
                        _tracked(nameclust.cli.parse_dblp, alive))
    records = tmp_path / "records.jsonl"
    gold = tmp_path / "gold.json"
    assert run_cli("ingest", "--input", xml, "--records-out", records,
                   "--gold-out", gold) == 0
    assert len(alive) == 40 and max(alive) <= 2
    assert len(records.read_text().splitlines()) == 40
    gold_obj = json.loads(gold.read_text())
    assert sorted(gold_obj["Wei Li"]) == ["Wei Li 0001", "Wei Li 0002", "Wei Li 0003"]
    assert sum(len(v) for v in gold_obj["Wei Li"].values()) == 40
    assert "ingest: 40 records, 1 gold blocks, 3 gold authors" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["run"],
    ["common-names"],
    ["common-names", "--min-block-size", 10_000],  # no qualifying block
])
def test_malformed_records_exit_2_with_location(tmp_path, synth_corpus, capsys, argv):
    records, gold = synth_corpus
    lines = records.read_text().splitlines()
    obj = json.loads(lines[2])
    del obj["authors"]
    lines[2] = json.dumps(obj)
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    assert run_cli(argv[0], "--records", bad, "--gold", gold,
                   "--out-dir", tmp_path / "o", *argv[1:]) == 2
    err = capsys.readouterr().err
    assert "data error: record has no 'authors' key" in err
    assert str(bad) in err and "line 3" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [["run"], ["common-names", "--min-block-size", 0]])
def test_gold_record_missing_from_records_exits_2(tmp_path, synth_corpus, capsys,
                                                  argv):
    records, gold = synth_corpus
    gold_obj = json.loads(gold.read_text())
    first, last = sorted(gold_obj)[0], sorted(gold_obj)[-1]
    next(iter(gold_obj[first].values())).append("zz/missing-2")
    next(iter(gold_obj[last].values())).extend(["zz/missing-3", "zz/missing-1"])
    gold.write_text(json.dumps(gold_obj))
    assert run_cli(argv[0], "--records", records, "--gold", gold,
                   "--out-dir", tmp_path / "o", *argv[1:]) == 2
    err = capsys.readouterr().err
    assert f"gold record 'zz/missing-1' of block {last!r}" in err
    assert "missing-2" not in err and "missing-3" not in err


@pytest.mark.parametrize("argv", [["run"], ["common-names", "--min-block-size", 0]])
def test_gold_block_name_missing_from_records_exits_2(tmp_path, synth_corpus, capsys,
                                                      argv):
    records, gold = synth_corpus
    gold_obj = json.loads(gold.read_text())
    first = sorted(gold_obj)[0]
    gold_obj["Nobody Here"] = {
        "Nobody Here 0001": sorted(next(iter(gold_obj[first].values())))[:2]}
    gold.write_text(json.dumps(gold_obj))
    assert run_cli(argv[0], "--records", records, "--gold", gold,
                   "--out-dir", tmp_path / "o", *argv[1:]) == 2
    assert "block 'Nobody Here' is not an author name" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["run"], ["common-names", "--min-block-size", 0]])
def test_gold_record_not_naming_its_block_exits_2(tmp_path, capsys, argv):
    records = tmp_path / "records.jsonl"
    write_records([rec("p1", "X Y 0001", "A A"), rec("p2", "X Y 0002", "A A"),
                   rec("p3", "Q Q", "A A"), rec("p4", "Q Q", "B B")], records)
    gold = tmp_path / "gold.json"
    gold.write_text(json.dumps({"X Y": {"X Y 0001": ["p4", "p1", "p3"],
                                        "X Y 0002": ["p2"]}}))
    out = tmp_path / "o"
    assert run_cli(argv[0], "--records", records, "--gold", gold,
                   "--out-dir", out, *argv[1:]) == 2
    err = capsys.readouterr().err
    assert "gold record 'p3' of block 'X Y' does not name 'X Y' as an author" in err
    assert "'p4'" not in err
    assert not out.exists()


def _tab_in_xml_key(tmp_path):
    xml = tmp_path / "dump.xml"
    xml.write_bytes(MINIMAL_XML.replace(b'key="a/1"', b'key="a/1&#9;x"'))
    assert run_cli("ingest", "--input", xml, "--records-out", tmp_path / "records.jsonl",
                   "--gold-out", tmp_path / "gold.json") == 0
    return "'a/1\\tx' of block 'Wei Li'"


def _line_break_in_jsonl_name(tmp_path):
    # two bad fields: the error names the lower, the block key 'Wei\nLi'
    lines = [{"id": rid, "kind": "article", "title": "t", "venue": None, "year": None,
              "authors": [{"name": name, "gold_id": gid}, {"name": "J Roe", "gold_id": None}]}
             for rid, name, gid in [("p1", "Wei\nLi", "0001"), ("p2", "Wei\nLi", "0002"),
                                    ("z\r1", "Ann Bee", "0001")]]
    (tmp_path / "records.jsonl").write_text("".join(json.dumps(x) + "\n" for x in lines))
    (tmp_path / "gold.json").write_text(json.dumps({
        "Wei\nLi": {"Wei\nLi 0001": ["p1"], "Wei\nLi 0002": ["p2"]},
        "Ann Bee": {"Ann Bee 0001": ["z\r1"]}}))
    return "'Wei\\nLi' of block 'Wei\\nLi'"


@pytest.mark.parametrize("make", [_tab_in_xml_key, _line_break_in_jsonl_name])
def test_tab_or_line_break_in_a_tsv_field_exits_2(tmp_path, capsys, make):
    named = make(tmp_path)
    inputs = ["--records", tmp_path / "records.jsonl", "--gold", tmp_path / "gold.json"]
    out = tmp_path / "o"
    assert run_cli("run", *inputs, "--out-dir", out) == 2
    err = capsys.readouterr().err
    assert f"data error: {named} holds a tab or line break" in err
    assert "z\\r1" not in err
    assert not out.exists()
    # common-names writes only JSON, which holds any string
    assert run_cli("common-names", *inputs, "--out-dir", out,
                   "--min-block-size", 0) == 0


def test_gold_conflict_outside_the_sample_exits_2(tmp_path, synth_corpus, capsys):
    # every block of the gold file is checked, not only the sampled ones
    records, gold = synth_corpus
    sampled = {b.block_key for b in sample_blocks(build_blocks(read_gold(gold)), 2, 7)}
    gold_obj = json.loads(gold.read_text())
    key = min(set(gold_obj) - sampled)
    (first, *_), second = list(gold_obj[key].values())[:2]
    second.append(first)
    gold.write_text(json.dumps(gold_obj))
    out = tmp_path / "o"
    assert run_cli("run", "--records", records, "--gold", gold, "--out-dir", out,
                   "--sample-count", 2, "--seed", 7) == 2
    err = capsys.readouterr().err
    assert f"record {first!r} carries both " in err and f"in block {key!r}" in err
    assert not out.exists()


@pytest.mark.parametrize("argv, config, message", [
    (["common-names", "--threshold", 2], None, "threshold must be odd and >= 1, got 2"),
    (["run", "--threshold", 1, "--threshold", 0], None, "threshold must be odd"),
    (["common-names", "--resolution", 0], None, "resolution must be positive"),
    (["common-names", "--resolution", "inf"], None, "resolution must be positive"),
    (["run", "--sample-count", 0], None, "sample count must be >= 1, got 0"),
    (["run", "--sample-count", -1], None, "sample count must be >= 1, got -1"),
    (["run", "--alpha", 2], None, "alpha must lie in [0, 1], got 2.0"),
    (["common-names", "--alpha", -0.5], None, "alpha must lie in [0, 1]"),
    (["run", "--alpha", "nan"], None, "alpha must lie in [0, 1]"),
    (["run"], "alpha = 2\n", "alpha must lie in [0, 1]"),
    (["run"], "sample_count = 0\n", "sample count must be >= 1"),
    (["common-names"], "threshold = 4\n", "threshold must be odd"),
    (["common-names"], "resolution = -1\n", "resolution must be positive"),
    (["run"], "alpha = half\n", "--config: bad value 'half' for alpha"),
    (["run", "--workers", 0], None, "workers must be >= 1, got 0"),
    (["common-names", "--workers", -2], None, "workers must be >= 1, got -2"),
    (["run"], "workers = -2\n", "workers must be >= 1, got -2"),
    (["common-names"], "workers = 0\n", "workers must be >= 1, got 0"),
    (["run", "--threshold", 1, "--threshold", 1], None, "threshold 1 given twice"),
    (["run"], "thresholds = 3,1,3\n", "threshold 3 given twice"),
    (["run"], "treshold = 5\n", "bad.conf:1: unknown setting 'treshold'"),
    (["common-names"], "alpha = 0.5\n# a comment\nmin-blocksize = 5\n",
     "bad.conf:3: unknown setting 'min_blocksize'"),
    (["run"], "seed = 1\n\ufeffalpha = 0.5\n", "bad.conf:2: unknown setting '\\ufeffalpha'"),
    (["common-names", "--min-block-size", -3], None, "min block size must be >= 0, got -3"),
    (["common-names"], "min_block_size = -1\n", "min block size must be >= 0, got -1"),
])
def test_bad_setting_exits_1_before_reading_input(tmp_path, capsys, argv, config,
                                                  message):
    # the records and gold files do not exist, so reading either would
    # exit 2; the setting is rejected first
    extra = []
    if config is not None:
        (tmp_path / "bad.conf").write_text(config, encoding="utf-8")
        extra = ["--config", tmp_path / "bad.conf"]
    out = tmp_path / "out"
    assert run_cli(argv[0], "--records", tmp_path / "none.jsonl",
                   "--gold", tmp_path / "none.json", "--out-dir", out,
                   *argv[1:], *extra) == 1
    err = capsys.readouterr().err
    assert err.startswith("nameclust: error: ") and message in err
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("under", [False, True])
@pytest.mark.parametrize("command", ["run", "common-names"])
def test_out_dir_that_cannot_be_made_exits_1_before_reading_input(tmp_path, monkeypatch,
                                                                  capsys, command, under):
    # an --out-dir that is a file, or lies under one, is found before the
    # graph is loaded, not once every block is done
    afile = tmp_path / "afile"
    afile.write_text("earlier\n")

    def no_load(path):
        raise AssertionError("load_graph called")

    monkeypatch.setattr(nameclust.cli, "load_graph", no_load)
    out = afile / "sub" if under else afile
    assert run_cli(command, "--records", tmp_path / "none.jsonl",
                   "--gold", tmp_path / "none.json", "--out-dir", out) == 1
    assert capsys.readouterr().err == \
        f"nameclust: error: --out-dir cannot be made: {afile} is not a directory\n"
    assert afile.read_text() == "earlier\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile"]


@pytest.mark.parametrize("argv, config, message", [
    (["run", "--threshold", 2, "--alpha", 2], None, "threshold must be odd and >= 1, got 2"),
    (["run", "--threshold", 2], "alpha = half\n", "--config: bad value 'half' for alpha"),
    (["common-names", "--min-block-size", -1, "--workers", 0], None,
     "workers must be >= 1, got 0"),
    (["common-names", "--resolution", 0, "--threshold", 4], None,
     "threshold must be odd and >= 1, got 4"),
    (["run", "--sample-count", 0, "--workers", 0, "--alpha", 5], None,
     "alpha must lie in [0, 1], got 5.0"),
])
def test_several_bad_settings_report_the_first_in_table_order(tmp_path, capsys, argv,
                                                              config, message):
    # a value of the wrong type in --config is found before any range
    # check; the range checks then run in the order of cli.SETTINGS
    extra = []
    if config is not None:
        (tmp_path / "bad.conf").write_text(config, encoding="utf-8")
        extra = ["--config", tmp_path / "bad.conf"]
    out = tmp_path / "out"
    assert run_cli(argv[0], "--records", tmp_path / "none.jsonl",
                   "--gold", tmp_path / "none.json", "--out-dir", out,
                   *argv[1:], *extra) == 1
    assert capsys.readouterr().err == f"nameclust: error: {message}\n"
    assert not out.exists()


def test_every_setting_default_passes_its_own_check():
    for name, (default, _, check) in nameclust.cli.SETTINGS.items():
        assert check(default) is None, name


def test_every_setting_is_a_flag_whose_default_is_left_to_the_table():
    # a flag default other than None would hide both --config and the
    # table's default
    parser = nameclust.cli.build_parser()
    commands = next(a for a in parser._actions if a.dest == "command").choices
    defaults = {}
    for command in ("ingest", "run", "common-names"):
        for action in commands[command]._actions:
            defaults.setdefault(action.dest, []).append(action.default)
    for name in nameclust.cli.SETTINGS:
        assert defaults.get(name), name
        assert all(d is None for d in defaults[name]), (name, defaults[name])


def test_run_with_empty_gold_exits_2(tmp_path, synth_corpus, capsys):
    records, gold = synth_corpus
    gold.write_text("{}\n")
    assert run_cli("run", "--records", records, "--gold", gold,
                   "--out-dir", tmp_path / "o") == 2
    assert "has no blocks to evaluate" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["run"], ["common-names", "--min-block-size", 0]])
def test_gold_of_wrong_shape_exits_2(tmp_path, synth_corpus, capsys, argv):
    records, gold = synth_corpus
    gold_obj = json.loads(gold.read_text())
    last = sorted(gold_obj)[-1]
    authors = gold_obj[last]
    # a list for the author map, no gold author, a gold author with no record
    for shape in (sorted(next(iter(authors.values()))), {}, {next(iter(authors)): []}):
        gold.write_text(json.dumps({**gold_obj, last: shape}))
        assert run_cli(argv[0], "--records", records, "--gold", gold,
                       "--out-dir", tmp_path / "o", *argv[1:]) == 2
        err = capsys.readouterr().err
        assert f"data error: {gold}: gold block {last!r}" in err
        assert "Traceback" not in err


# a UTF-16 byte order mark: the first byte is no UTF-8 start byte
NOT_UTF8 = "not UTF-8 text: invalid start byte at byte 0"


@pytest.mark.parametrize("argv", [["run"], ["common-names", "--min-block-size", 0]])
def test_gold_not_utf8_exits_2(tmp_path, synth_corpus, capsys, argv):
    records, gold = synth_corpus
    gold.write_bytes(b"\xff\xfe" + gold.read_bytes())
    assert run_cli(argv[0], "--records", records, "--gold", gold,
                   "--out-dir", tmp_path / "o", *argv[1:]) == 2
    assert capsys.readouterr().err == f"nameclust: data error: {gold}: {NOT_UTF8}\n"


@pytest.mark.parametrize("argv", [["run"], ["common-names", "--min-block-size", 0]])
def test_gold_not_json_exits_2_with_location(tmp_path, synth_corpus, capsys, argv):
    records, gold = synth_corpus
    gold.write_text('{\n "Wei Li": x}\n')
    out = tmp_path / "o"
    assert run_cli(argv[0], "--records", records, "--gold", gold, "--out-dir", out,
                   *argv[1:]) == 2
    assert capsys.readouterr().err == (
        f"nameclust: data error: {gold}: invalid JSON: Expecting value (line 2, col 12)\n")
    assert not out.exists()


def test_report_not_json_exits_2_with_location(tmp_path, capsys):
    path = tmp_path / "report.json"
    path.write_text('{"before": {"p": 1,}}')
    assert run_cli("report", path) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"nameclust: data error: {path}: invalid JSON: Expecting "
                            f"property name enclosed in double quotes (line 1, col 20)\n")
    assert captured.out == ""


def test_report_not_utf8_exits_2(tmp_path, capsys):
    path = tmp_path / "report.json"
    path.write_bytes(b"\xff\xfe" + json.dumps({"before": 1}).encode())
    assert run_cli("report", path) == 2
    captured = capsys.readouterr()
    assert captured.err == f"nameclust: data error: {path}: {NOT_UTF8}\n"
    assert captured.out == ""


@pytest.mark.parametrize("argv", [["run"], ["common-names"]])
def test_config_not_utf8_exits_1(tmp_path, capsys, argv):
    cfg = tmp_path / "bad.conf"
    cfg.write_bytes(b"\xff\xfealpha = 0.5\n")
    out = tmp_path / "out"
    assert run_cli(argv[0], "--records", tmp_path / "none.jsonl",
                   "--gold", tmp_path / "none.json", "--out-dir", out,
                   "--config", cfg) == 1
    assert capsys.readouterr().err == f"nameclust: error: {cfg}: {NOT_UTF8}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [["run"], ["common-names", "--min-block-size", 0]])
def test_duplicate_record_id_exits_2(tmp_path, synth_corpus, capsys, argv):
    records, gold = synth_corpus
    lines = records.read_text().splitlines()
    first = json.loads(lines[0])
    dup = json.loads(lines[5])
    dup["id"] = first["id"]
    lines.insert(7, json.dumps(dup))
    records.write_text("\n".join(lines) + "\n")
    assert run_cli(argv[0], "--records", records, "--gold", gold,
                   "--out-dir", tmp_path / "o", *argv[1:]) == 2
    assert f"record id {first['id']!r} occurs twice" in capsys.readouterr().err


def _damage_gold_encoding(records, gold):
    gold.write_bytes(b"\xff\xfe" + gold.read_bytes())


def _damage_record_line(records, gold):
    lines = records.read_text().splitlines()
    lines[1] = "{"
    records.write_text("\n".join(lines) + "\n")


def _damage_gold_record(records, gold):
    gold_obj = json.loads(gold.read_text())
    next(iter(next(iter(gold_obj.values())).values())).append("zz/missing")
    gold.write_text(json.dumps(gold_obj))


def _damage_gold_no_authors(records, gold):
    gold_obj = json.loads(gold.read_text())
    gold.write_text(json.dumps({**gold_obj, min(gold_obj): {}}))


def _damage_gold_no_record_ids(records, gold):
    gold_obj = json.loads(gold.read_text())
    first = min(gold_obj)
    gold.write_text(json.dumps({**gold_obj, first: {f"{first} 0001": []}}))


@pytest.mark.parametrize("damage", [_damage_gold_encoding, _damage_record_line,
                                    _damage_gold_record, _damage_gold_no_authors,
                                    _damage_gold_no_record_ids])
@pytest.mark.parametrize("argv", [["run"], ["common-names", "--min-block-size", 0]])
def test_data_error_creates_no_out_dir(tmp_path, synth_corpus, capsys, argv, damage):
    records, gold = synth_corpus
    damage(records, gold)
    out = tmp_path / "o" / "nested"
    assert run_cli(argv[0], "--records", records, "--gold", gold,
                   "--out-dir", out, *argv[1:]) == 2
    assert "data error: " in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_run_sample_too_large_creates_no_out_dir(tmp_path, synth_corpus, capsys):
    records, gold = synth_corpus
    out = tmp_path / "o"
    assert run_cli("run", "--records", records, "--gold", gold, "--out-dir", out,
                   "--sample-count", 10_000) == 1
    assert not out.exists()


# -- run and common-names read records.jsonl in two processes ---------------


@pytest.fixture
def large_corpus(tmp_path):
    """A corpus of a few hundred records, whose second half a forked
    child reads."""
    records = tmp_path / "records.jsonl"
    gold = tmp_path / "gold.json"
    assert run_cli("synth", "--records-out", records, "--gold-out", gold,
                   "--blocks", 20, "--bridge-rate", 0.2, "--seed", 3) == 0
    return records, gold


def _outputs(out):
    return {f.name: f.read_bytes() for f in sorted(out.iterdir())}


@pytest.mark.parametrize("argv", [["run"], ["common-names", "--min-block-size", 0],
                                  ["run", "--threshold", 1, "--threshold", 3,
                                   "--threshold", 5]])
def test_forked_load_leaves_no_child_and_changes_no_output(tmp_path, large_corpus,
                                                           monkeypatch, capsys, forks,
                                                           argv):
    # one fork reads half of the records, one clusters half of the blocks
    records, gold = large_corpus
    assert run_cli(argv[0], "--records", records, "--gold", gold,
                   "--out-dir", tmp_path / "forked", *argv[1:]) == 0
    assert len(forks) == 2 and no_child_left()
    forked_out = capsys.readouterr().out
    monkeypatch.delattr(os, "fork")
    assert run_cli(argv[0], "--records", records, "--gold", gold,
                   "--out-dir", tmp_path / "alone", *argv[1:]) == 0
    assert capsys.readouterr().out == forked_out
    assert _outputs(tmp_path / "forked") == _outputs(tmp_path / "alone")


@pytest.mark.parametrize("fork", [True, False])
def test_outputs_do_not_depend_on_record_order(tmp_path, monkeypatch, capsys, forks, fork):
    # the graph numbers publications and authors in the order the records
    # come; no output may follow that order
    records = tmp_path / "records.jsonl"
    gold = tmp_path / "gold.json"
    assert run_cli("synth", "--records-out", records, "--gold-out", gold,
                   "--blocks", 40, "--seed", 2, "--bridge-rate", 0.3) == 0
    lines = records.read_text().splitlines(keepends=True)
    random.Random(5).shuffle(lines)
    shuffled = tmp_path / "shuffled.jsonl"
    shuffled.write_text("".join(lines))
    assert shuffled.read_bytes() != records.read_bytes()
    if not fork:
        monkeypatch.delattr(os, "fork")
    capsys.readouterr()
    commands = [["run", "--threshold", 1, "--threshold", 3, "--threshold", 5]]
    commands += [["common-names", "--min-block-size", 0, "--threshold", t] for t in (1, 3, 5)]
    for k, argv in enumerate(commands):
        seen = []
        for path in (records, shuffled):
            out = tmp_path / f"{path.stem}{k}"
            assert run_cli(argv[0], "--records", path, "--gold", gold,
                           "--out-dir", out, *argv[1:]) == 0
            seen.append((capsys.readouterr().out, _outputs(out)))
        assert seen[0] == seen[1], argv
    assert bool(forks) == fork and no_child_left()


def _renamed(records, gold):
    """``records`` with every author name that is no block key of ``gold``
    replaced by a fresh one, through a fixed bijection that mixes the
    names' order and puts every new name before every block key."""
    blocks = set(read_gold(gold))
    lines = [json.loads(line) for line in records.read_text(encoding="utf-8").splitlines()]
    others = list(dict.fromkeys(a["name"] for obj in lines for a in obj["authors"]
                                if a["name"] not in blocks))
    fresh = [f"A{i}" for i in range(len(others))]
    random.Random(7).shuffle(fresh)
    rename = dict(zip(others, fresh))
    renamed = records.with_name("renamed.jsonl")
    with open(renamed, "w", encoding="utf-8") as fh:
        for obj in lines:
            for a in obj["authors"]:
                a["name"] = rename.get(a["name"], a["name"])
            fh.write(json.dumps(obj, ensure_ascii=False) + "\n")
    return renamed


@pytest.mark.parametrize("fork", [True, False])
def test_outputs_do_not_depend_on_the_other_authors_names(tmp_path, monkeypatch, capsys,
                                                          forks, fork):
    # an author node is its name, but only the block's own name may
    # matter: renaming every other author changes no byte of any output
    records = tmp_path / "records.jsonl"
    gold = tmp_path / "gold.json"
    assert run_cli("synth", "--records-out", records, "--gold-out", gold,
                   "--blocks", 40, "--seed", 2, "--bridge-rate", 0.3) == 0
    renamed = _renamed(records, gold)
    assert renamed.read_bytes() != records.read_bytes()
    if not fork:
        monkeypatch.delattr(os, "fork")
    capsys.readouterr()
    commands = [["run", "--threshold", 1, "--threshold", 3, "--threshold", 5]]
    commands += [["common-names", "--min-block-size", 0, "--threshold", t] for t in (1, 3)]
    for k, argv in enumerate(commands):
        seen = []
        for path in (records, renamed):
            out = tmp_path / f"{path.stem}{k}"
            assert run_cli(argv[0], "--records", path, "--gold", gold,
                           "--out-dir", out, *argv[1:]) == 0
            seen.append((capsys.readouterr().out, _outputs(out)))
        assert seen[0] == seen[1], argv
    assert bool(forks) == fork and no_child_left()


def _reided(records, gold):
    """``records`` and ``gold`` with every record id replaced through a
    fixed bijection that keeps the ids' order but not their length or
    characters, and that bijection."""
    lines = [json.loads(line) for line in records.read_text(encoding="utf-8").splitlines()]
    rng = random.Random(11)
    reid = {rid: f"{i:06d}/é{'x' * rng.randrange(4)}"
            for i, rid in enumerate(sorted(obj["id"] for obj in lines))}
    new_records = records.with_name("reided.jsonl")
    with open(new_records, "w", encoding="utf-8") as fh:
        for obj in lines:
            obj["id"] = reid[obj["id"]]
            fh.write(json.dumps(obj, ensure_ascii=False) + "\n")
    new_gold = gold.with_name("reided_gold.json")
    new_gold.write_text(json.dumps(
        {bk: {ak: [reid[rid] for rid in rids] for ak, rids in authors.items()}
         for bk, authors in read_gold(gold).items()}, ensure_ascii=False), encoding="utf-8")
    return new_records, new_gold, reid


@pytest.mark.parametrize("fork", [True, False])
def test_outputs_follow_an_order_preserving_renaming_of_the_record_ids(
        tmp_path, monkeypatch, capsys, forks, fork):
    # only the order of the record ids may matter: renaming them through an
    # order-preserving bijection leaves the reports as they were and maps
    # the record and cluster ids of the cluster files
    records = tmp_path / "records.jsonl"
    gold = tmp_path / "gold.json"
    assert run_cli("synth", "--records-out", records, "--gold-out", gold,
                   "--blocks", 40, "--seed", 2, "--bridge-rate", 0.3) == 0
    new_records, new_gold, reid = _reided(records, gold)
    if not fork:
        monkeypatch.delattr(os, "fork")
    capsys.readouterr()
    commands = [["run", "--threshold", 1, "--threshold", 3, "--threshold", 5]]
    commands += [["common-names", "--min-block-size", 0, "--threshold", t] for t in (1, 3)]
    for k, argv in enumerate(commands):
        seen = []
        for path, g in ((records, gold), (new_records, new_gold)):
            out = tmp_path / f"{path.stem}{k}"
            assert run_cli(argv[0], "--records", path, "--gold", g,
                           "--out-dir", out, *argv[1:]) == 0
            seen.append((capsys.readouterr().out, _outputs(out)))
        (said, before), (said_after, after) = seen
        assert said == said_after and before.keys() == after.keys(), argv
        for name, data in before.items():
            if name.endswith(".tsv"):
                rows = [row.split("\t") for row in data.decode("utf-8").splitlines()]
                data = "".join("\t".join([bk, reid.get(rid, rid), reid.get(cid, cid), gk]) + "\n"
                               for bk, rid, cid, gk in rows).encode("utf-8")
            assert after[name] == data, (argv, name)
    assert bool(forks) == fork and no_child_left()


def _with_fresh_corpus(records, gold):
    """``records`` and ``gold`` with a second synthetic corpus appended
    whose author names and record ids are all fresh: its own with " b"
    put after each name and "/b" after each id, so that the new blocks'
    keys and ids sort among the old ones."""
    extra = [RawRecord(r.record_id + "/b", r.kind, r.title, r.venue, r.year,
                       tuple(AuthorMention(m.surface_name + " b", m.gold_id)
                             for m in r.mentions))
             for r in generate_corpus(SynthConfig(blocks=20, bridge_rate=0.3, seed=3))]
    union = records.with_name("union.jsonl")
    write_records(extra, union)
    union.write_bytes(records.read_bytes() + union.read_bytes())
    union_gold = gold.with_name("union_gold.json")
    write_gold({**read_gold(gold), **build_gold_standard(extra)}, union_gold)
    return union, union_gold


def _own_blocks(out, blocks):
    """Each output file of ``out`` cut down to what it says of ``blocks``:
    the cluster files' rows and the reports' per-block entries."""
    kept = {}
    for f in sorted(out.iterdir()):
        if f.suffix == ".tsv":
            kept[f.name] = [row for row in f.read_text(encoding="utf-8").splitlines()[1:]
                            if row.split("\t")[0] in blocks]
        else:
            report = json.loads(f.read_text(encoding="utf-8"))
            per_blocks = ([t["per_block"] for t in report["thresholds"]]
                          if "thresholds" in report else [report["per_block"]])
            kept[f.name] = [[e for e in per_block if e["block_key"] in blocks]
                            for per_block in per_blocks]
    return kept


@pytest.mark.parametrize("fork", [True, False])
def test_appending_a_disjoint_corpus_changes_no_block_of_the_first(
        tmp_path, monkeypatch, capsys, forks, fork):
    # a block's results depend only on its own part of the network: a
    # second corpus sharing no name and no id with the first changes no
    # cluster file row, and no per-block report entry, of the first's blocks
    records = tmp_path / "records.jsonl"
    gold = tmp_path / "gold.json"
    assert run_cli("synth", "--records-out", records, "--gold-out", gold,
                   "--blocks", 40, "--seed", 2, "--bridge-rate", 0.3) == 0
    union, union_gold = _with_fresh_corpus(records, gold)
    blocks = set(read_gold(gold))
    assert len(read_gold(union_gold)) == len(blocks) + 20
    if not fork:
        monkeypatch.delattr(os, "fork")
    commands = [["run", "--threshold", 1, "--threshold", 3]]
    commands += [["common-names", "--min-block-size", 0, "--threshold", t] for t in (1, 3)]
    for k, argv in enumerate(commands):
        seen = []
        for path, g in ((records, gold), (union, union_gold)):
            out = tmp_path / f"{path.stem}{k}"
            assert run_cli(argv[0], "--records", path, "--gold", g,
                           "--out-dir", out, *argv[1:]) == 0
            seen.append(_own_blocks(out, blocks))
        assert seen[0] == seen[1], argv
        assert all(seen[0].values()), argv
    capsys.readouterr()
    assert bool(forks) == fork and no_child_left()


def _open_fds():
    """This process's open file descriptors, or None where there is no
    /proc to list them."""
    return sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


@pytest.mark.parametrize("command, failing", [("ingest", 1), ("run", 1), ("run", 2),
                                               ("common-names", 1), ("common-names", 2)])
def test_failed_fork_exits_2_with_no_output_and_no_open_pipe(tmp_path, large_corpus,
                                                             monkeypatch, capsys, command,
                                                             failing):
    # the fork that fails is the command's first (ingest's parse, the
    # records load) or its second (the block stage; ingest has only one)
    fork = os.fork
    calls = []

    def fork_or_fail():
        calls.append(None)
        if len(calls) == failing:
            raise OSError(errno.EAGAIN, "simulated fork failure")
        return fork()

    records, gold = large_corpus
    out = tmp_path / "out"
    out.mkdir()
    if command == "ingest":
        xml = tmp_path / "dump.xml"
        xml.write_bytes(long_dblp_document())
        argv = ["--input", xml, "--records-out", out / "records.jsonl",
                "--gold-out", out / "gold.json"]
    else:
        argv = ["--records", records, "--gold", gold, "--out-dir", out / "o"]
        if command == "common-names":
            argv += ["--min-block-size", 0]
    capsys.readouterr()
    monkeypatch.setattr(os, "fork", fork_or_fail)
    before = _open_fds()
    assert run_cli(command, *argv) == 2
    assert _open_fds() == before
    assert len(calls) == failing and no_child_left()
    assert capsys.readouterr().err == (
        f"nameclust: data error: [Errno {errno.EAGAIN}] simulated fork failure\n")
    assert list(out.iterdir()) == []


def test_records_from_a_fifo_load_in_one_process(tmp_path, large_corpus, monkeypatch,
                                                  capsys, forks):
    records, gold = large_corpus
    assert run_cli("run", "--records", records, "--gold", gold,
                   "--out-dir", tmp_path / "file") == 0
    from_file = capsys.readouterr().out
    forks.clear()
    load_graph = nameclust.cli.load_graph
    forks_at_load = []

    def counted_load(path):
        graph = load_graph(path)
        forks_at_load.append(len(forks))
        return graph

    monkeypatch.setattr(nameclust.cli, "load_graph", counted_load)
    fifo = tmp_path / "records.fifo"
    os.mkfifo(fifo)

    def feed():
        with open(fifo, "wb") as fh:
            fh.write(records.read_bytes())

    writer = threading.Thread(target=feed)
    writer.start()
    try:
        assert run_cli("run", "--records", fifo, "--gold", gold,
                       "--out-dir", tmp_path / "fifo") == 0
    finally:
        writer.join(timeout=60)
    # the load forked no child; the block stage forked one after it
    assert not writer.is_alive() and forks_at_load == [0]
    assert len(forks) == 1 and no_child_left()
    assert capsys.readouterr().out == from_file
    assert _outputs(tmp_path / "fifo") == _outputs(tmp_path / "file")


@pytest.mark.parametrize("at", [0.25, 0.75])
@pytest.mark.parametrize("fault", ["json", "duplicate"])
def test_data_error_in_either_half_exits_2_leaving_no_child(tmp_path, large_corpus,
                                                            capsys, forks, at, fault):
    records, gold = large_corpus
    lines = records.read_text().splitlines()
    bad = int(len(lines) * at)
    if fault == "json":
        lines[bad] = "{"
        message = f"invalid JSON: Expecting property name enclosed in double quotes " \
                  f"({records}; line {bad + 1}, col 2)"
    else:
        lines[bad] = lines[bad - 1]
        message = f"record id {json.loads(lines[bad])['id']!r} occurs twice in the records"
    records.write_text("\n".join(lines) + "\n")
    out = tmp_path / "o"
    assert run_cli("run", "--records", records, "--gold", gold, "--out-dir", out) == 2
    assert len(forks) == 1 and no_child_left()
    assert capsys.readouterr().err == f"nameclust: data error: {message}\n"
    assert not out.exists()


def test_records_child_killed_mid_load_exits_2_with_no_out_dir(tmp_path, large_corpus,
                                                               monkeypatch, capsys, forks):
    parent = os.getpid()
    read_lines = nameclust.graph.read_lines

    def killed_in_the_child(*args):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return read_lines(*args)

    monkeypatch.setattr(nameclust.graph, "read_lines", killed_in_the_child)
    records, gold = large_corpus
    out = tmp_path / "o"
    assert run_cli("run", "--records", records, "--gold", gold, "--out-dir", out) == 2
    assert len(forks) == 1 and no_child_left()
    assert capsys.readouterr().err == (
        "nameclust: data error: a forked child process was killed by signal 9 before "
        "it finished\n")
    assert not out.exists()


# -- run and common-names cluster the blocks in two processes ---------------


BLOCK_STAGE_ARGVS = [["run", "--threshold", 1, "--threshold", 3, "--threshold", 5],
                     ["common-names", "--min-block-size", 0]]


def _blocks_of_sizes(sizes):
    """Blocks b0, b1, ... of ``sizes`` members, whose gold authors take
    the members in turn, three at a time."""
    blocks = []
    for k, m in enumerate(sizes):
        labels = {f"b{k}/{j:02d}": f"b{k} {j % 3 + 1:04d}" for j in range(m)}
        blocks.append(Block(f"b{k}", labels))
    return blocks


def _scored_clusterings(b):
    """A ``run``-shaped result: (clustering, scores) for the block in
    one cluster and in two."""
    members = sorted(b.gold_label)
    pairs = []
    for groups in ([members], [members[0::2], members[1::2]]):
        c = groups_to_clustering([g for g in groups if g])
        pairs.append((c, block_scores(c, b, 0.5)))
    return pairs


@pytest.mark.parametrize("sizes", [[], [4], [5, 2], [2, 7, 3], [3, 3, 3, 3, 3]])
@pytest.mark.parametrize("job", [lambda b: (b.block_key, sorted(b.gold_label)),
                                 _scored_clusterings])
@pytest.mark.parametrize("fork", [True, False])
def test_per_block_equals_the_list_in_one_process(monkeypatch, forks, sizes, job, fork):
    if not fork:
        monkeypatch.delattr(os, "fork")
    blocks = _blocks_of_sizes(sizes)
    expected = [job(b) for b in blocks]
    assert _per_block(blocks, job) == expected
    assert len(forks) == (fork and len(blocks) >= 2) and no_child_left()


def test_per_block_deals_ties_in_block_order(forks):
    # the largest block stays here, then the child and this process take
    # turns; equal blocks go in block order
    parent = os.getpid()
    blocks = _blocks_of_sizes([3, 3, 5, 3, 3])
    dealt = _per_block(blocks, lambda b: (b.block_key, os.getpid() != parent))
    assert dealt == [("b0", True), ("b1", False), ("b2", False), ("b3", True),
                     ("b4", False)]
    assert len(forks) == 1 and no_child_left()


def test_run_clusters_each_block_once_for_all_thresholds(tmp_path, synth_corpus, monkeypatch):
    # one union-find pass per block serves both thresholds; in one process,
    # so that every call is counted here
    monkeypatch.delattr(os, "fork")
    cluster_block = nameclust.cli.cluster_block
    calls = []

    def counted(b, *args):
        calls.append(b.block_key)
        return cluster_block(b, *args)

    monkeypatch.setattr(nameclust.cli, "cluster_block", counted)
    records, gold = synth_corpus
    assert run_cli("run", "--records", records, "--gold", gold, "--out-dir", tmp_path / "o",
                   "--threshold", 1, "--threshold", 3) == 0
    assert calls == [b.block_key for b in build_blocks(read_gold(gold))]


def _child_share_key(gold):
    """The key of the largest block that the block stage deals to its
    forked child: the second largest, ties in block order."""
    blocks = build_blocks(read_gold(gold))
    return sorted(blocks, key=lambda b: -b.m)[1].block_key


@pytest.mark.parametrize("argv", BLOCK_STAGE_ARGVS)
def test_block_stage_child_killed_exits_2_with_no_out_dir(tmp_path, large_corpus,
                                                          monkeypatch, capsys, forks, argv):
    parent = os.getpid()
    cluster_block = nameclust.cli.cluster_block

    def killed_in_the_child(*args):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return cluster_block(*args)

    monkeypatch.setattr(nameclust.cli, "cluster_block", killed_in_the_child)
    records, gold = large_corpus
    out = tmp_path / "o"
    assert run_cli(argv[0], "--records", records, "--gold", gold, "--out-dir", out,
                   *argv[1:]) == 2
    assert len(forks) == 2 and no_child_left()
    assert capsys.readouterr().err == (
        "nameclust: data error: a forked child process was killed by signal 9 before "
        "it finished\n")
    assert not out.exists()


@pytest.mark.parametrize("argv", BLOCK_STAGE_ARGVS)
def test_block_stage_error_in_the_child_reads_as_in_one_process(tmp_path, large_corpus,
                                                                monkeypatch, capsys, forks,
                                                                argv):
    records, gold = large_corpus
    key = _child_share_key(gold)
    parent = os.getpid()
    block_scores = nameclust.cli.block_scores
    raised_here = []

    def failing(c, b, alpha):
        if b.block_key == key:
            if os.getpid() == parent:
                raised_here.append(key)
            raise DataIntegrityError(f"block {key!r} failed")
        return block_scores(c, b, alpha)

    monkeypatch.setattr(nameclust.cli, "block_scores", failing)
    message = f"nameclust: data error: block {key!r} failed\n"
    out = tmp_path / "o"
    assert run_cli(argv[0], "--records", records, "--gold", gold, "--out-dir", out,
                   *argv[1:]) == 2
    # the forked child raised it and this process only relayed it
    assert len(forks) == 2 and raised_here == [] and no_child_left()
    assert capsys.readouterr().err == message
    assert not out.exists()
    monkeypatch.delattr(os, "fork")
    assert run_cli(argv[0], "--records", records, "--gold", gold, "--out-dir", out,
                   *argv[1:]) == 2
    assert raised_here == [key]
    assert capsys.readouterr().err == message
    assert not out.exists()


def test_block_stage_outputs_identical_across_hash_seeds(tmp_path, large_corpus):
    records, gold = large_corpus
    runs = []
    for hashseed in (1, 2):
        out = tmp_path / f"h{hashseed}"
        stdout = []
        for argv in BLOCK_STAGE_ARGVS:
            stdout.append(_python(["-m", "nameclust.cli", *map(str, argv), "--records",
                                   str(records), "--gold", str(gold),
                                   "--out-dir", str(out / argv[0])], hashseed).stdout)
        runs.append((stdout, {str(f.relative_to(out)): f.read_bytes()
                              for f in sorted(out.rglob("*")) if f.is_file()}))
    assert sorted(runs[0][1]) == ["common-names/common_names.json", "run/clusters_t1.tsv",
                                  "run/clusters_t3.tsv", "run/clusters_t5.tsv",
                                  "run/report.json"]
    assert runs[0] == runs[1]
