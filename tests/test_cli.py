import gzip
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nameclust
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
    probe = ("import sys, nameclust.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy')))")
    assert _python(["-c", probe]).stdout.strip() == "[]"
