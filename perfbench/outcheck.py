"""Checks of the CLI's outputs, one result per unit of work.

A unit is a (block, threshold) pair for ``run``, a refined block for
``common-names`` and an input record for ``ingest``. A unit fails when
its output is missing or wrong. Each check returns a ``Verdict``; the
invariants hold on any seed, and on the seed a reference was made from
(``reference.json``) every unit is also compared with that reference.

BCubed is recomputed here from the cluster TSV and ``gold.json`` with
code of its own, so the check does not trust the package's scorer.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

TOL = 1e-12


@dataclass
class Verdict:
    attempted: int
    failed: set = field(default_factory=set)
    drift: set = field(default_factory=set)  # units whose floats moved within TOL
    notes: list = field(default_factory=list)
    quality: dict = field(default_factory=dict)
    reference: dict = field(default_factory=dict)  # this run's values, to save as one

    def fail(self, unit, why) -> None:
        if unit not in self.failed and len(self.notes) < 20:
            self.notes.append(f"{unit}: {why}")
        self.failed.add(unit)


def _close(a, b) -> bool:
    return (a is None and b is None) or (
        a is not None and b is not None and abs(a - b) <= TOL)


def _compare(v: Verdict, unit, got: dict, want: dict) -> None:
    """Reference comparison: exact for everything except floats, which
    may drift by TOL (counted, not failed)."""
    for key, w in want.items():
        g = got.get(key)
        if g == w:
            continue
        if isinstance(w, float) and isinstance(g, float) and _close(g, w):
            v.drift.add(unit)
        else:
            v.fail(unit, f"{key} is {g!r}, reference {w!r}")


def _f(p, r, alpha):
    return 0.0 if p == 0 or r == 0 else 1.0 / (alpha / p + (1 - alpha) / r)


def bcubed(partition: dict[str, set], labels: dict[str, str], alpha: float):
    """Block BCubed (P, R, F): the mean over items of the item scores."""
    class_size: dict[str, int] = {}
    for lab in labels.values():
        class_size[lab] = class_size.get(lab, 0) + 1
    ps, rs, fs = [], [], []
    for members in partition.values():
        per_label: dict[str, int] = {}
        for rid in members:
            per_label[labels[rid]] = per_label.get(labels[rid], 0) + 1
        for rid in members:
            inter = per_label[labels[rid]]
            p, r = inter / len(members), inter / class_size[labels[rid]]
            ps.append(p)
            rs.append(r)
            fs.append(_f(p, r, alpha))
    n = len(ps)
    return math.fsum(ps) / n, math.fsum(rs) / n, math.fsum(fs) / n


def _digest(partition: dict[str, set]) -> str:
    canon = sorted(sorted(c) for c in partition.values())
    return hashlib.sha256(json.dumps(canon).encode()).hexdigest()[:16]


def _gold_labels(gold: dict) -> dict[str, dict[str, str]]:
    return {bk: {rid: ak for ak, rids in authors.items() for rid in rids}
            for bk, authors in gold.items()}


def _read_tsv(path) -> dict[str, dict[str, list]]:
    """block -> record -> [cluster ids, gold keys] (lists, to see duplicates)."""
    out: dict[str, dict[str, list]] = {}
    with open(path, encoding="utf-8", newline="") as fh:
        rows = csv.reader(fh, delimiter="\t", quoting=csv.QUOTE_NONE)
        if next(rows, None) != ["block_key", "record_id", "cluster_id", "gold_key"]:
            raise ValueError(f"{path}: unexpected header")
        for block, rid, cid, gkey in rows:
            out.setdefault(block, {}).setdefault(rid, []).append((cid, gkey))
    return out


def check_run(out_dir: Path, gold_path: Path, thresholds, sample_count,
              reference: dict | None) -> Verdict:
    gold = json.loads(Path(gold_path).read_text(encoding="utf-8"))
    labels = _gold_labels(gold)
    n_blocks = sample_count if sample_count is not None else len(labels)
    v = Verdict(attempted=n_blocks * len(thresholds))
    every = [(f"#{i}", t) for i in range(n_blocks) for t in thresholds]
    try:
        report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
        tsvs = {t: _read_tsv(out_dir / f"clusters_t{t}.tsv") for t in thresholds}
        entries = {e["threshold"]: e for e in report["thresholds"]}
        alpha = report["alpha"]
        per_block = {t: {b["block_key"]: b for b in entries[t]["per_block"]}
                     for t in thresholds}
    except (OSError, ValueError, KeyError, TypeError) as exc:
        for unit in every:
            v.fail(unit, f"unreadable output: {exc!r}")
        return v

    keys = sorted(per_block[thresholds[0]])
    if (len(keys) != n_blocks or report.get("sample_count") != n_blocks
            or any(sorted(per_block[t]) != keys or sorted(tsvs[t]) != keys
                   for t in thresholds)
            or not set(keys) <= set(labels)):
        for unit in every:
            v.fail(unit, "evaluated block sets differ between report, TSVs and gold")
        return v
    pairs = sum(len(labels[k]) * (len(labels[k]) - 1) // 2 for k in keys)
    if report.get("comparisons") != pairs:
        for unit in every:
            v.fail(unit, f"comparisons {report.get('comparisons')} != {pairs}")
    ref_units = (reference or {}).get("units", {})

    partitions: dict[tuple, dict] = {}
    for t in thresholds:
        scores = []
        for k in keys:
            unit = (k, t)
            rows = tsvs[t][k]
            partition: dict[str, set] = {}
            for rid, hits in rows.items():
                partition.setdefault(hits[0][0], set()).add(rid)
            partitions[unit] = partition
            if set(rows) != set(labels[k]) or any(len(h) != 1 for h in rows.values()):
                v.fail(unit, "records missing, extra or repeated in the TSV")
                scores.append((math.nan,) * 3)
                continue
            if any(h[0][1] != labels[k][rid] for rid, h in rows.items()):
                v.fail(unit, "TSV gold key differs from gold.json")
            p, r, f = bcubed(partition, labels[k], alpha)
            scores.append((p, r, f))
            got = per_block[t][k]
            if got.get("m") != len(labels[k]):
                v.fail(unit, f"m is {got.get('m')}, gold has {len(labels[k])}")
            if not all(_close(got.get(n), x) for n, x in zip("prf", (p, r, f))):
                v.fail(unit, f"BCubed {got.get('p'), got.get('r'), got.get('f')} "
                             f"!= recomputed {(p, r, f)}")
            mine = {"digest": _digest(partition),
                    **{n: got.get(n) for n in "prf"}}
            v.reference.setdefault("units", {})[f"{k}|t{t}"] = mine
            if reference is not None:
                want = ref_units.get(f"{k}|t{t}")
                if want is None:
                    v.fail(unit, "not in the reference")
                else:
                    _compare(v, unit, mine, want)
        corpus = entries[t].get("corpus", {})
        for n, i in zip("prf", range(3)):
            mean = math.fsum(s[i] for s in scores) / len(scores)
            if not _close(corpus.get(n), mean):
                for k in keys:
                    v.fail((k, t), f"corpus {n} {corpus.get(n)} != mean {mean}")
        v.quality[f"bcubed_f_t{t}"] = corpus.get("f")
        v.reference.setdefault("corpus", {})[f"t{t}"] = corpus

    for lo, hi in zip(thresholds, thresholds[1:]):
        for k in keys:
            fine, coarse = partitions[(k, lo)], partitions[(k, hi)]
            where = {rid: cid for cid, ms in coarse.items() for rid in ms}
            if any(len({where.get(rid) for rid in ms}) != 1 for ms in fine.values()):
                v.fail((k, hi), f"t={hi} does not coarsen t={lo}")
    if reference is not None:
        for name, want in reference.get("corpus", {}).items():
            _compare(v, ("corpus", name), v.reference["corpus"].get(name, {}), want)
    v.quality["pairs"] = pairs * len(thresholds)
    return v


def check_common_names(out_dir: Path, gold_path: Path, min_block_size,
                       reference: dict | None) -> Verdict:
    gold = json.loads(Path(gold_path).read_text(encoding="utf-8"))
    labels = _gold_labels(gold)
    want_keys = sorted(k for k, lab in labels.items() if len(lab) > min_block_size)
    v = Verdict(attempted=len(want_keys))
    try:
        report = json.loads((out_dir / "common_names.json").read_text(encoding="utf-8"))
        per_block = {b["block_key"]: b for b in report["per_block"]}
    except (OSError, ValueError, KeyError, TypeError) as exc:
        for k in want_keys:
            v.fail(k, f"unreadable output: {exc!r}")
        return v
    if report.get("status") != "ok" or report.get("qualifying_blocks") != len(want_keys):
        for k in want_keys:
            v.fail(k, f"status {report.get('status')!r}, "
                      f"{report.get('qualifying_blocks')} qualifying blocks")
    ref_units = (reference or {}).get("units", {})
    for k in want_keys:
        got = per_block.get(k)
        if got is None:
            v.fail(k, "missing from common_names.json")
            continue
        m = len(labels[k])
        if got.get("m") != m:
            v.fail(k, f"m is {got.get('m')}, gold has {m}")
        if not (isinstance(got.get("communities"), int) and 1 <= got["communities"] <= m):
            v.fail(k, f"communities {got.get('communities')!r} outside 1..{m}")
        triples = [got.get(side, {}).get(n) for side in ("before", "after") for n in "prf"]
        if not all(isinstance(x, float) and 0.0 <= x <= 1.0 for x in triples):
            v.fail(k, f"BCubed outside [0, 1]: {triples}")
        mine = {key: got.get(key) for key in ("q_before", "q_after", "passes", "communities")}
        mine.update({f"{side}.{n}": got.get(side, {}).get(n)
                     for side in ("before", "after") for n in "prf"})
        v.reference.setdefault("units", {})[k] = mine
        if reference is not None:
            want = ref_units.get(k)
            if want is None:
                v.fail(k, "not in the reference")
            else:
                _compare(v, k, mine, want)
    for side in ("before", "after"):
        for n in "prf":
            vals = [per_block[k].get(side, {}).get(n) for k in want_keys if k in per_block]
            if not vals or not all(isinstance(x, float) for x in vals):
                continue  # the blocks concerned already failed
            corpus = report.get(side, {}).get(n)
            if not _close(corpus, math.fsum(vals) / len(vals)):
                for k in want_keys:
                    v.fail(k, f"{side}.{n} {corpus} is not the mean of its blocks")
    v.quality["bcubed_f_t3"] = report.get("before", {}).get("f")
    v.quality["bcubed_f_refined"] = report.get("after", {}).get("f")
    v.quality["pairs"] = sum(len(labels[k]) * (len(labels[k]) - 1) // 2 for k in want_keys)
    return v


def check_ingest(records_path: Path, gold_path: Path, expected: list[dict],
                 expected_gold: dict) -> Verdict:
    """Every record and the gold standard against what the XML encodes."""
    v = Verdict(attempted=len(expected))
    want = {r["id"]: r for r in expected}
    got: dict[str, dict] = {}
    try:
        with open(records_path, encoding="utf-8") as fh:
            for line in fh:
                if line.strip():
                    rec = json.loads(line)
                    if rec.get("id") in got:
                        v.fail(rec["id"], "ingested twice")
                    got[rec.get("id")] = rec
        gold = json.loads(Path(gold_path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        for rid in want:
            v.fail(rid, f"unreadable output: {exc!r}")
        return v
    for rid, rec in want.items():
        if got.get(rid) != rec:
            v.fail(rid, f"ingested as {got.get(rid)!r}, expected {rec!r}")
    for rid in set(got) - set(want):
        v.fail(("extra", rid), "not in the input")
    for block in set(gold) | set(expected_gold):
        if gold.get(block) != expected_gold.get(block):
            for rids in expected_gold.get(block, {}).values():
                for rid in rids:
                    v.fail(rid, f"gold block {block!r} differs")
    return v
