"""Command-line pipeline: ingest, synth, run, common-names, report.

Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from . import __version__
from .bcubed import BcubedScores, EvalConfig, block_scores, corpus_scores
from .cluster import cluster_block, count_comparisons, write_clusters_tsv
from .community import LouvainConfig, refine_with_report
from .dblp_xml import parse_dblp
from .errors import CorpusParseError, DataIntegrityError, NameclustError
from .gold import build_blocks, build_gold_standard, read_gold, sample_blocks, write_gold
from .graph import build_graph
from .records import read_records, record_to_json
from .synth import SynthConfig, generate_corpus

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(EXIT_USAGE)


class UsageError(NameclustError):
    pass


def read_config(path) -> dict[str, str]:
    """Flat ``key = value`` file; '#' starts a comment."""
    out: dict[str, str] = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        out[key.strip().replace("-", "_")] = value.strip()
    return out


def _setting(args, config, name, default, cast):
    """Flag beats config file beats built-in default."""
    flag = getattr(args, name, None)
    if flag is not None:
        return flag
    if name in config:
        return cast(config[name])
    return default


def _dump_json(obj, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, ensure_ascii=False, sort_keys=True, indent=2)
        fh.write("\n")


def _triple(s: BcubedScores) -> dict:
    return {"p": s.precision, "r": s.recall, "f": s.f}


# -- subcommands -------------------------------------------------------------


def cmd_ingest(args) -> int:
    config = read_config(args.config) if args.config else {}
    min_gold = _setting(args, config, "min_gold_authors", 1, int)
    records = []
    with open(args.records_out, "w", encoding="utf-8") as fh:
        for rec in parse_dblp(args.input):
            fh.write(record_to_json(rec))
            fh.write("\n")
            records.append(rec)
    gold = build_gold_standard(records, min_gold_authors=min_gold)
    write_gold(gold, args.gold_out)
    n_authors = gold.author_count
    print(f"ingest: {len(records)} records, {len(gold.entries)} gold blocks, "
          f"{n_authors} gold authors")
    if n_authors == 0:
        print("warning: no suffix-identified authors found; gold standard is empty",
              file=sys.stderr)
    return EXIT_OK


def cmd_synth(args) -> int:
    cfg = SynthConfig(
        blocks=args.blocks,
        authors_per_block=(args.authors_min, args.authors_max),
        pubs_per_author=(args.pubs_min, args.pubs_max),
        pool_factor=args.pool_factor,
        coauthors_per_pub=(args.coauthors_min, args.coauthors_max),
        bridge_rate=args.bridge_rate,
        shared_pool_size=args.shared_pool,
        seed=args.seed,
    )
    records = generate_corpus(cfg)
    with open(args.records_out, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(record_to_json(rec))
            fh.write("\n")
    gold = build_gold_standard(records)
    write_gold(gold, args.gold_out)
    print(f"synth: {len(records)} records, {len(gold.entries)} blocks, "
          f"{gold.author_count} planted authors (seed {cfg.seed})")
    return EXIT_OK


def _evaluate_blocks(blocks, graph, threshold, alpha, workers):
    """Cluster and score blocks; deterministic regardless of worker count."""
    cfg = EvalConfig(alpha=alpha)

    def one(block):
        clustering = cluster_block(block, graph, threshold)
        return block.block_key, clustering, block_scores(clustering, block, cfg)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(one, blocks))
    else:
        results = [one(b) for b in blocks]
    results.sort(key=lambda t: t[0])
    return results


def cmd_run(args) -> int:
    config = read_config(args.config) if args.config else {}
    thresholds = _setting(args, config, "thresholds", [1, 3],
                          lambda s: [int(x) for x in s.split(",")])
    sample_count = _setting(args, config, "sample_count", None, int)
    seed = _setting(args, config, "seed", 0, int)
    alpha = _setting(args, config, "alpha", 0.5, float)
    workers = _setting(args, config, "workers", 1, int)
    for t in thresholds:
        if t < 1 or t % 2 == 0:
            raise UsageError(f"threshold must be odd and >= 1, got {t}")

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    records = list(read_records(args.records))
    gold = read_gold(args.gold)
    blocks = build_blocks(gold)
    if sample_count is not None:
        if sample_count > blocks.n:
            raise UsageError(
                f"sample count {sample_count} exceeds {blocks.n} available blocks")
        blocks = sample_blocks(blocks, sample_count, seed)
    graph = build_graph(records)
    blocks_by_key = {b.block_key: b for b in blocks}

    comparisons = count_comparisons(blocks)
    report = {
        "alpha": alpha,
        "sample_count": blocks.n,
        "sample_seed": seed,
        "comparisons": comparisons,
        "thresholds": [],
    }
    for t in thresholds:
        results = _evaluate_blocks(blocks.blocks, graph, t, alpha, workers)
        observed = sum(c.comparisons for _, c, _ in results)
        if observed != comparisons:
            raise DataIntegrityError(
                f"comparison audit failed: {observed} != {comparisons}")
        write_clusters_tsv([c for _, c, _ in results], blocks_by_key,
                           out_dir / f"clusters_t{t}.tsv")
        per_block = [
            {"block_key": key, "m": blocks_by_key[key].m, **_triple(s)}
            for key, _, s in results
        ]
        corpus = corpus_scores([s for _, _, s in results])
        report["thresholds"].append(
            {"threshold": t, "corpus": _triple(corpus), "per_block": per_block})
        print(f"threshold={t}: P={corpus.precision:.4f} R={corpus.recall:.4f} "
              f"F={corpus.f:.4f} ({blocks.n} blocks, {comparisons} comparisons)")
    _dump_json(report, out_dir / "report.json")
    return EXIT_OK


def cmd_common_names(args) -> int:
    config = read_config(args.config) if args.config else {}
    min_block_size = _setting(args, config, "min_block_size", 200, int)
    threshold = _setting(args, config, "threshold", 3, int)
    alpha = _setting(args, config, "alpha", 0.5, float)
    resolution = _setting(args, config, "resolution", 1.0, float)
    workers = _setting(args, config, "workers", 1, int)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    records = list(read_records(args.records))
    gold = read_gold(args.gold)
    blocks = [b for b in build_blocks(gold) if b.m > min_block_size]
    blocks.sort(key=lambda b: b.block_key)

    report = {
        "threshold": threshold,
        "alpha": alpha,
        "resolution": resolution,
        "min_block_size": min_block_size,
        "qualifying_blocks": len(blocks),
    }
    if not blocks:
        report["status"] = "empty"
        _dump_json(report, out_dir / "common_names.json")
        print(f"common-names: no blocks larger than {min_block_size} publications")
        return EXIT_OK

    graph = build_graph(records)
    eval_cfg = EvalConfig(alpha=alpha)
    louvain_cfg = LouvainConfig(resolution=resolution)

    def one(block):
        base = cluster_block(block, graph, threshold)
        refined, info = refine_with_report(block, base, graph, louvain_cfg)
        return (block.block_key, block_scores(base, block, eval_cfg),
                block_scores(refined, block, eval_cfg), info)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(one, blocks))
    else:
        results = [one(b) for b in blocks]
    results.sort(key=lambda t: t[0])

    blocks_by_key = {b.block_key: b for b in blocks}
    before = corpus_scores([r[1] for r in results])
    after = corpus_scores([r[2] for r in results])
    report["status"] = "ok"
    report["before"] = _triple(before)
    report["after"] = _triple(after)
    report["per_block"] = [
        {
            "block_key": key,
            "m": blocks_by_key[key].m,
            "before": _triple(b_scores),
            "after": _triple(a_scores),
            **info,
        }
        for key, b_scores, a_scores, info in results
    ]
    _dump_json(report, out_dir / "common_names.json")
    print(f"common-names: {len(blocks)} blocks > {min_block_size} pubs")
    print(f"  before: P={before.precision:.4f} R={before.recall:.4f} F={before.f:.4f}")
    print(f"  after:  P={after.precision:.4f} R={after.recall:.4f} F={after.f:.4f}")
    return EXIT_OK


def cmd_report(args) -> int:
    with open(args.report, encoding="utf-8") as fh:
        obj = json.load(fh)
    if "thresholds" in obj:
        print(f"{'':<14}{'BCubed P':>10}{'BCubed R':>10}{'BCubed F':>10}")
        for entry in obj["thresholds"]:
            c = entry["corpus"]
            print(f"threshold={entry['threshold']:<4}"
                  f"{c['p']:>10.2f}{c['r']:>10.2f}{c['f']:>10.2f}")
        print(f"blocks: {obj['sample_count']}  comparisons: {obj['comparisons']}")
    elif "before" in obj:
        print(f"{'':<8}{'BCubed P':>10}{'BCubed R':>10}{'BCubed F':>10}")
        for label in ("before", "after"):
            c = obj[label]
            print(f"{label:<8}{c['p']:>10.2f}{c['r']:>10.2f}{c['f']:>10.2f}")
        print(f"qualifying blocks: {obj['qualifying_blocks']}")
    else:
        print(json.dumps(obj, indent=2, sort_keys=True))
    return EXIT_OK


# -- argument wiring ---------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="nameclust",
                     description="Homonym author-name disambiguation over "
                                 "co-authorship networks.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse DBLP XML into canonical records + gold")
    p.add_argument("--input", required=True, help="XML path, .gz allowed, '-' for stdin")
    p.add_argument("--records-out", required=True)
    p.add_argument("--gold-out", required=True)
    p.add_argument("--min-gold-authors", type=int, default=None)
    p.add_argument("--config")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("synth", help="generate a seeded synthetic corpus")
    p.add_argument("--records-out", required=True)
    p.add_argument("--gold-out", required=True)
    p.add_argument("--blocks", type=int, default=10)
    p.add_argument("--authors-min", type=int, default=2)
    p.add_argument("--authors-max", type=int, default=4)
    p.add_argument("--pubs-min", type=int, default=5)
    p.add_argument("--pubs-max", type=int, default=15)
    p.add_argument("--pool-factor", type=float, default=0.4)
    p.add_argument("--coauthors-min", type=int, default=2)
    p.add_argument("--coauthors-max", type=int, default=3)
    p.add_argument("--bridge-rate", type=float, default=0.0)
    p.add_argument("--shared-pool", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("run", help="cluster sampled blocks and evaluate")
    p.add_argument("--records", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--threshold", dest="thresholds", type=int, action="append",
                   default=None, help="repeatable; default 1 and 3")
    p.add_argument("--sample-count", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--config")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("common-names",
                       help="refine big blocks with community detection")
    p.add_argument("--records", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--min-block-size", type=int, default=None)
    p.add_argument("--threshold", type=int, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--resolution", type=float, default=None)
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--config")
    p.set_defaults(func=cmd_common_names)

    p = sub.add_parser("report", help="pretty-print a report JSON")
    p.add_argument("report")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"nameclust: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (CorpusParseError, DataIntegrityError, OSError, json.JSONDecodeError) as exc:
        print(f"nameclust: data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
