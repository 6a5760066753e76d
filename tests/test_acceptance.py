"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``. Criterion 6 needs
the 2015-05-01 DBLP snapshot (point DBLP_XML_2015 at the file) and is
skipped otherwise; criteria 1-5 and 7 stand alone.
"""

import json
import os
import random
import time

import pytest

import cases
import oracles
from conftest import clusters_of
from nameclust.bcubed import block_scores, corpus_scores, item_scores
from nameclust.cli import main as cli_main
from nameclust.cluster import cluster_block, count_comparisons
from nameclust.community import refine_with_report
from nameclust.dblp_xml import parse_dblp
from nameclust.gold import build_blocks, build_gold_standard, sample_blocks, write_gold
from nameclust.graph import build_graph
from nameclust.records import write_records
from nameclust.synth import SynthConfig, generate_corpus
from test_bcubed import make_block, make_clustering


def _report(criterion, detail, elapsed, budget):
    assert elapsed < budget, f"criterion {criterion} overran: {elapsed:.1f}s"
    print(f"\nACCEPTANCE {criterion}: PASS ({detail}; {elapsed:.1f}s < {budget:.0f}s)")


def test_criterion_1_bcubed_oracle_equivalence():
    start = time.perf_counter()
    rng = random.Random(2025)
    for _ in range(1000):
        n = rng.randint(1, 12)
        items = [f"p{i}" for i in range(n)]
        gold = {p: f"g{rng.randint(0, 3)}" for p in items}
        groups = {}
        for p in items:
            groups.setdefault(rng.randint(0, 4), []).append(p)
        block = make_block(gold)
        clustering = make_clustering(groups.values())
        predicted = {p: clustering[p] for p in items}
        for e in items:
            got = item_scores(clustering, block, e)
            p_, r_, f_ = oracles.oracle_bcubed_item(items, predicted, gold, e)
            assert abs(got.precision - p_) < 1e-12
            assert abs(got.recall - r_) < 1e-12
            assert abs(got.f - f_) < 1e-12
        got_b = block_scores(clustering, block)
        bp, br, bf = oracles.oracle_bcubed_block(items, predicted, gold)
        assert abs(got_b.precision - bp) < 1e-12
        assert abs(got_b.recall - br) < 1e-12
        assert abs(got_b.f - bf) < 1e-12
    _report(1, "1000 instances <= 12 items vs pairwise oracle @1e-12",
            time.perf_counter() - start, 10)


def test_criterion_2_and_3_components_and_audit(tmp_path):
    start = time.perf_counter()
    records = generate_corpus(SynthConfig(
        blocks=200, authors_per_block=(1, 4), pubs_per_author=(2, 18),
        bridge_rate=0.25, seed=424242))
    graph = build_graph(records)
    gold = build_gold_standard(records)
    block_set = build_blocks(gold)
    assert len(block_set) == 200
    assert max(b.m for b in block_set) <= 200
    nxg = oracles.build_nx_graph(records)

    for block in block_set:
        partitions = {}
        for threshold in (1, 3):
            (c,) = cluster_block(block, graph, [threshold])
            got = sorted((frozenset(v) for v in clusters_of(c).values()), key=sorted)
            want = oracles.oracle_components(
                nxg, block.gold_label, block.block_key, threshold)
            assert got == want, (block.block_key, threshold)
            partitions[threshold] = c
        # threshold 3 coarsens threshold 1
        for members in clusters_of(partitions[1]).values():
            assert len({partitions[3][r] for r in members}) == 1
    # criterion 3: the count that run reports is the closed form, written
    # out here rather than read from the package
    write_records(records, tmp_path / "records.jsonl")
    write_gold(gold, tmp_path / "gold.json")
    out = tmp_path / "out"
    assert cli_main(["run", "--records", str(tmp_path / "records.jsonl"),
                     "--gold", str(tmp_path / "gold.json"), "--out-dir", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    pairs = sum(b.m * (b.m - 1) // 2 for b in block_set)
    assert report["comparisons"] == count_comparisons(block_set) == pairs
    elapsed = time.perf_counter() - start
    _report(2, "200 blocks vs all-pairs oracle, both thresholds, coarsening",
            elapsed, 60)
    _report(3, f"run's reported comparisons == sum m(m-1)/2 == {pairs}",
            elapsed, 60)


def test_criterion_4_louvain_desk_scale():
    start = time.perf_counter()
    for name, g in sorted(cases.fixed_louvain_graphs().items()):
        part = cases.louvain(g)
        best_q, _ = oracles.oracle_best_partition(g.nodes, g.edges)
        assert abs(part.q - best_q) < 1e-9, name

    rng = random.Random(77)
    for _ in range(1000):
        n = rng.randint(3, 14)
        nodes = [f"n{i}" for i in range(n)]
        edges = {}
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.35:
                    edges[(nodes[i], nodes[j])] = rng.choice([1.0, 2.0])
        if not edges:
            edges[(nodes[0], nodes[1])] = 1.0
        wg = cases.wgraph(nodes, edges)
        part = cases.louvain(wg)
        singles = {u: i for i, u in enumerate(nodes)}
        assert part.q >= cases.modularity(wg, singles) - 1e-12
    _report(4, "fixed set == exhaustive argmax @1e-9; Q >= Q(singletons) on 1000 graphs",
            time.perf_counter() - start, 120)


def test_criterion_5_table2_direction_synthetic():
    start = time.perf_counter()
    records = generate_corpus(SynthConfig(
        blocks=28, authors_per_block=(2, 4), pubs_per_author=(110, 160),
        bridge_rate=0.2, pool_factor=0.4, seed=20150501))
    graph = build_graph(records)
    blocks = [b for b in build_blocks(build_gold_standard(records)) if b.m > 200]
    assert len(blocks) == 28
    before, after = [], []
    for block in blocks:
        (base,) = cluster_block(block, graph, [3])
        refined, _ = refine_with_report(block, base, graph)
        before.append(block_scores(base, block))
        after.append(block_scores(refined, block))
    b = corpus_scores(before)
    a = corpus_scores(after)
    assert a.precision - b.precision >= 0.15, (b, a)
    assert a.recall < b.recall, (b, a)
    _report(5, f"28 common-name blocks: P {b.precision:.2f}->{a.precision:.2f}, "
               f"R {b.recall:.2f}->{a.recall:.2f}",
            time.perf_counter() - start, 300)


@pytest.mark.skipif("DBLP_XML_2015" not in os.environ,
                    reason="2015-05-01 DBLP snapshot not available; "
                           "criteria 1-5 stand alone")
def test_criterion_6_table1_reproduction():
    start = time.perf_counter()
    # two streamed passes over the dump, as the CLI reads it: a record
    # list would hold GBs
    gold = build_gold_standard(parse_dblp(os.environ["DBLP_XML_2015"]))
    assert sum(map(len, gold.values())) == 5408
    blocks = sample_blocks(build_blocks(gold), 1000, seed=1)
    graph = build_graph(parse_dblp(os.environ["DBLP_XML_2015"]))
    expected = {1: (0.98, 0.74, 0.79), 3: (0.94, 0.81, 0.82)}
    for threshold, (ep, er, ef) in expected.items():
        scores = corpus_scores(
            [block_scores(cluster_block(b, graph, [threshold])[0], b) for b in blocks])
        assert abs(scores.precision - ep) <= 0.05
        assert abs(scores.recall - er) <= 0.05
        assert abs(scores.f - ef) <= 0.05
    _report(6, "1000-block sample within +/-0.05 of the reported triples",
            time.perf_counter() - start, 3600)


def test_criterion_7_worker_count_determinism(tmp_path):
    start = time.perf_counter()
    records = tmp_path / "records.jsonl"
    gold = tmp_path / "gold.json"
    assert cli_main(["synth", "--records-out", str(records),
                     "--gold-out", str(gold), "--blocks", "10",
                     "--bridge-rate", "0.2", "--seed", "8",
                     "--pubs-min", "10", "--pubs-max", "30"]) == 0
    run_bytes = []
    cn_bytes = []
    for workers in ("1", "3", "7"):
        out = tmp_path / f"w{workers}"
        assert cli_main(["run", "--records", str(records), "--gold", str(gold),
                         "--out-dir", str(out), "--seed", "4",
                         "--sample-count", "8", "--workers", workers]) == 0
        run_bytes.append((out / "report.json").read_bytes()
                         + (out / "clusters_t1.tsv").read_bytes()
                         + (out / "clusters_t3.tsv").read_bytes())
        cn_out = tmp_path / f"cn{workers}"
        assert cli_main(["common-names", "--records", str(records),
                         "--gold", str(gold), "--out-dir", str(cn_out),
                         "--min-block-size", "30", "--workers", workers]) == 0
        cn_bytes.append((cn_out / "common_names.json").read_bytes())
    assert len(set(run_bytes)) == 1
    assert len(set(cn_bytes)) == 1
    _report(7, "run + common-names byte-identical across 1/3/7 workers",
            time.perf_counter() - start, 120)
