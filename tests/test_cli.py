import errno
import gzip
import io
import json
import os
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
from cases import FailingStream, long_dblp_document
from conftest import no_child_left
import nameclust.graph
from nameclust.cli import main, read_config

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


@pytest.mark.parametrize("argv, message", [
    (["--bridge-rate", 1.5], "bridge rate must be in [0, 1], got 1.5"),
    (["--pubs-min", 3, "--pubs-max", 1], "publications per author must satisfy"),
    (["--authors-min", 5, "--authors-max", 2], "authors per block must satisfy"),
    (["--coauthors-min", 4, "--coauthors-max", 3], "co-authors per publication must"),
    (["--shared-pool", 0, "--bridge-rate", 0.5], "needs a shared pool of at least 1"),
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
    probe = ("import sys, nameclust.cli; print(sorted(m for m in sys.modules "
             "if m.split('.')[0] in ('numpy', 'scipy', 'concurrent', 'logging')))")
    assert _python(["-c", probe]).stdout.strip() == "[]"
    # the package root is only a version: it imports none of its modules
    probe = ("import sys, nameclust; "
             "print(sorted(m for m in sys.modules if m.startswith('nameclust.')))")
    assert _python(["-c", probe]).stdout.strip() == "[]"


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
])
def test_bad_setting_exits_1_before_reading_input(tmp_path, capsys, argv, config,
                                                  message):
    # the records and gold files do not exist, so reading either would
    # exit 2; the setting is rejected first
    extra = []
    if config is not None:
        (tmp_path / "bad.conf").write_text(config)
        extra = ["--config", tmp_path / "bad.conf"]
    out = tmp_path / "out"
    assert run_cli(argv[0], "--records", tmp_path / "none.jsonl",
                   "--gold", tmp_path / "none.json", "--out-dir", out,
                   *argv[1:], *extra) == 1
    err = capsys.readouterr().err
    assert err.startswith("nameclust: error: ") and message in err
    assert err.count("\n") == 1
    assert not out.exists()


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


@pytest.mark.parametrize("argv", [["run"], ["common-names", "--min-block-size", 0]])
def test_forked_load_leaves_no_child_and_changes_no_output(tmp_path, large_corpus,
                                                           monkeypatch, capsys, forks,
                                                           argv):
    records, gold = large_corpus
    assert run_cli(argv[0], "--records", records, "--gold", gold,
                   "--out-dir", tmp_path / "forked", *argv[1:]) == 0
    assert len(forks) == 1 and no_child_left()
    forked_out = capsys.readouterr().out
    monkeypatch.delattr(os, "fork")
    assert run_cli(argv[0], "--records", records, "--gold", gold,
                   "--out-dir", tmp_path / "alone", *argv[1:]) == 0
    assert capsys.readouterr().out == forked_out
    assert _outputs(tmp_path / "forked") == _outputs(tmp_path / "alone")


def test_records_from_a_fifo_load_in_one_process(tmp_path, large_corpus, capsys, forks):
    records, gold = large_corpus
    assert run_cli("run", "--records", records, "--gold", gold,
                   "--out-dir", tmp_path / "file") == 0
    from_file = capsys.readouterr().out
    forks.clear()
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
    assert not writer.is_alive() and forks == []
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
                  f"({records}; line {bad + 1}, col 1)"
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
