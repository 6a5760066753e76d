"""Command-line pipeline: ingest, synth, run, common-names, report.

Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import sys
from pathlib import Path

from . import __version__
from .bcubed import BcubedScores, block_scores, corpus_scores
from .cluster import cluster_block, count_comparisons, write_clusters_tsv
from .community import refine_with_report
from .dblp_xml import parse_dblp
from .errors import CorpusParseError, DataIntegrityError, NameclustError
from .gold import build_blocks, build_gold_standard, read_gold, sample_blocks, write_gold
# read_records and build_graph are kept in this namespace for perfbench/tracer.py
from .graph import build_graph, load_graph  # noqa: F401
from .records import (read_json, read_records, read_utf8, record_to_json,  # noqa: F401
                      write_records)
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
    for lineno, line in enumerate(read_utf8(path, UsageError).splitlines(), 1):
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
        try:
            return cast(config[name])
        except ValueError:
            raise UsageError(f"--config: bad value {config[name]!r} for {name}") from None
    return default


def _check_settings(thresholds, alpha, workers, resolution=1.0, sample_count=None) -> None:
    """Reject a bad ``run`` or ``common-names`` setting, from a flag or
    from ``--config``, before any input is read. The sample count's upper
    bound, the number of blocks, is checked once the gold file is read."""
    for t in thresholds:
        if t < 1 or t % 2 == 0:
            raise UsageError(f"threshold must be odd and >= 1, got {t}")
    if not 0.0 <= alpha <= 1.0:
        raise UsageError(f"alpha must lie in [0, 1], got {alpha}")
    if not (resolution > 0.0 and math.isfinite(resolution)):
        raise UsageError(f"resolution must be positive and finite, got {resolution}")
    if sample_count is not None and sample_count < 1:
        raise UsageError(f"sample count must be >= 1, got {sample_count}")
    if workers < 1:
        raise UsageError(f"workers must be >= 1, got {workers}")


def _dump_json(obj, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj, ensure_ascii=False, sort_keys=True, indent=2) + "\n")


def _triple(s: BcubedScores) -> dict:
    return {"p": s.precision, "r": s.recall, "f": s.f}


# -- subcommands -------------------------------------------------------------


def _fresh_file_beside(path, owned: contextlib.ExitStack) -> str:
    """Create an empty file under a new name in ``path``'s directory, with
    the mode ``open`` gives a new file, and return its name. ``owned``
    removes it unless it has been moved away by then."""
    directory, name = os.path.split(os.path.abspath(path))
    while True:
        tmp = os.path.join(directory, f".{name}.{os.urandom(4).hex()}.tmp")
        try:
            os.close(os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
        except FileExistsError:
            continue
        except OSError as exc:
            # name the output asked for, not the temporary file
            raise OSError(exc.errno, exc.strerror, path) from None
        owned.callback(Path(tmp).unlink, missing_ok=True)
        return tmp


def cmd_ingest(args) -> int:
    config = read_config(args.config) if args.config else {}
    min_gold = _setting(args, config, "min_gold_authors", 1, int)
    n_records = 0
    # both files are written under temporary names and take their own
    # only once the whole dump has parsed, so a data error leaves neither
    with contextlib.ExitStack() as owned:
        records_tmp = _fresh_file_beside(args.records_out, owned)
        gold_tmp = _fresh_file_beside(args.gold_out, owned)
        with open(records_tmp, "w", encoding="utf-8") as fh:

            def written():
                # each record goes to the JSONL file on its way to the gold
                # standard; none is kept
                nonlocal n_records
                for rec in parse_dblp(args.input):
                    fh.write(record_to_json(rec) + "\n")
                    n_records += 1
                    yield rec

            gold = build_gold_standard(written(), min_gold_authors=min_gold)
        write_gold(gold, gold_tmp)
        os.replace(records_tmp, args.records_out)
        os.replace(gold_tmp, args.gold_out)
    n_authors = gold.author_count
    print(f"ingest: {n_records} records, {len(gold.entries)} gold blocks, "
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
    try:
        records = generate_corpus(cfg)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    write_records(records, args.records_out)
    gold = build_gold_standard(records)
    write_gold(gold, args.gold_out)
    print(f"synth: {len(records)} records, {len(gold.entries)} blocks, "
          f"{gold.author_count} planted authors (seed {cfg.seed})")
    return EXIT_OK


def _inputs(args, choose):
    """The graph of ``--records``, the gold blocks of ``--gold`` that
    ``choose`` keeps, and ``--out-dir``. Every kept gold record must be an
    authored record, and every kept block name an author, in the records.
    The directory is made only once all of that has passed, so a data
    error leaves no directory."""
    # the graph holds no reference cycles and lives until the process
    # exits, so no collection need scan it: none runs while it is built
    # (in the child that reads half of it, too), and it is frozen out of
    # every collection after
    gc.disable()
    try:
        graph = load_graph(args.records)
    finally:
        gc.freeze()
        gc.enable()
    blocks = choose(build_blocks(read_gold(args.gold)))
    missing = [(rid, b.block_key) for b in blocks for rid in b.members
               if rid not in graph.pub_index]
    if missing:
        rid, key = min(missing)
        raise DataIntegrityError(
            f"gold record {rid!r} of block {key!r} is not an authored record "
            f"in --records")
    for b in blocks:
        if b.block_key not in graph.author_index:
            raise DataIntegrityError(
                f"block {b.block_key!r} is not an author name in --records")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return graph, blocks, out_dir


def cmd_run(args) -> int:
    config = read_config(args.config) if args.config else {}
    thresholds = _setting(args, config, "thresholds", [1, 3],
                          lambda s: [int(x) for x in s.split(",")])
    sample_count = _setting(args, config, "sample_count", None, int)
    seed = _setting(args, config, "seed", 0, int)
    alpha = _setting(args, config, "alpha", 0.5, float)
    workers = _setting(args, config, "workers", 1, int)
    _check_settings(thresholds, alpha, workers, sample_count=sample_count)

    def choose(blocks):
        if not blocks:
            raise DataIntegrityError(f"gold file {args.gold} has no blocks to evaluate")
        if sample_count is None:
            return blocks
        if sample_count > len(blocks):
            raise UsageError(
                f"sample count {sample_count} exceeds {len(blocks)} available blocks")
        return sample_blocks(blocks, sample_count, seed)

    graph, blocks, out_dir = _inputs(args, choose)
    blocks_by_key = {b.block_key: b for b in blocks}
    comparisons = count_comparisons(blocks)
    report = {
        "alpha": alpha,
        "sample_count": len(blocks),
        "sample_seed": seed,
        "comparisons": comparisons,
        "thresholds": [],
    }
    for t in thresholds:
        clusterings = [cluster_block(b, graph, t) for b in blocks]
        observed = sum(c.comparisons for c in clusterings)
        if observed != comparisons:
            raise DataIntegrityError(
                f"comparison audit failed: {observed} != {comparisons}")
        write_clusters_tsv(clusterings, blocks_by_key, out_dir / f"clusters_t{t}.tsv")
        scores = [block_scores(c, b, alpha) for c, b in zip(clusterings, blocks)]
        per_block = [{"block_key": b.block_key, "m": b.m, **_triple(s)}
                     for b, s in zip(blocks, scores)]
        corpus = corpus_scores(scores)
        report["thresholds"].append(
            {"threshold": t, "corpus": _triple(corpus), "per_block": per_block})
        print(f"threshold={t}: P={corpus.precision:.4f} R={corpus.recall:.4f} "
              f"F={corpus.f:.4f} ({len(blocks)} blocks, {comparisons} comparisons)")
    _dump_json(report, out_dir / "report.json")
    return EXIT_OK


def cmd_common_names(args) -> int:
    config = read_config(args.config) if args.config else {}
    min_block_size = _setting(args, config, "min_block_size", 200, int)
    threshold = _setting(args, config, "threshold", 3, int)
    alpha = _setting(args, config, "alpha", 0.5, float)
    resolution = _setting(args, config, "resolution", 1.0, float)
    workers = _setting(args, config, "workers", 1, int)
    _check_settings([threshold], alpha, workers, resolution)

    graph, blocks, out_dir = _inputs(
        args, lambda blocks: [b for b in blocks if b.m > min_block_size])
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

    base_scores, refined_scores, per_block = [], [], []
    for b in blocks:
        base = cluster_block(b, graph, threshold)
        refined, info = refine_with_report(b, base, graph, resolution)
        base_scores.append(block_scores(base, b, alpha))
        refined_scores.append(block_scores(refined, b, alpha))
        per_block.append({"block_key": b.block_key, "m": b.m, "before": _triple(base_scores[-1]),
                          "after": _triple(refined_scores[-1]), **info})
    before = corpus_scores(base_scores)
    after = corpus_scores(refined_scores)
    report["status"] = "ok"
    report["before"] = _triple(before)
    report["after"] = _triple(after)
    report["per_block"] = per_block
    _dump_json(report, out_dir / "common_names.json")
    print(f"common-names: {len(blocks)} blocks > {min_block_size} pubs")
    print(f"  before: P={before.precision:.4f} R={before.recall:.4f} F={before.f:.4f}")
    print(f"  after:  P={after.precision:.4f} R={after.recall:.4f} F={after.f:.4f}")
    return EXIT_OK


_REPORT_KINDS = {dict: "an object", list: "a list", int: "an integer",
                 (int, float): "a number"}


def _report_value(path, value, where, kind):
    """``value``, found at ``where`` in the report at ``path``, checked to
    be of ``kind``."""
    if value is None:
        raise DataIntegrityError(f"{path}: {where} is missing")
    if isinstance(value, bool) or not isinstance(value, kind):
        raise DataIntegrityError(
            f"{path}: {where} must be {_REPORT_KINDS[kind]}, not {type(value).__name__}")
    return value


def _report_scores(path, value, where):
    """The BCubed P, R and F of the scores object found at ``where``."""
    scores = _report_value(path, value, where, dict)
    return [_report_value(path, scores.get(m), f"{where}.{m}", (int, float))
            for m in ("p", "r", "f")]


def cmd_report(args) -> int:
    path = args.report
    obj = read_json(path)
    keys = obj.keys() if isinstance(obj, dict) else ()
    if "thresholds" in keys:
        rows = []
        for i, entry in enumerate(_report_value(path, obj["thresholds"], "thresholds", list)):
            where = f"thresholds[{i}]"
            entry = _report_value(path, entry, where, dict)
            t = _report_value(path, entry.get("threshold"), f"{where}.threshold", int)
            rows.append((f"threshold={t:<4}",
                         _report_scores(path, entry.get("corpus"), f"{where}.corpus")))
        blocks = _report_value(path, obj.get("sample_count"), "sample_count", int)
        comparisons = _report_value(path, obj.get("comparisons"), "comparisons", int)
        footer = f"blocks: {blocks}  comparisons: {comparisons}"
        width = 14
    elif "before" in keys:
        rows = [(label, _report_scores(path, obj.get(label), label))
                for label in ("before", "after")]
        qualifying = _report_value(path, obj.get("qualifying_blocks"), "qualifying_blocks", int)
        footer = f"qualifying blocks: {qualifying}"
        width = 8
    else:
        print(json.dumps(obj, indent=2, sort_keys=True))
        return EXIT_OK
    print(f"{'':<{width}}{'BCubed P':>10}{'BCubed R':>10}{'BCubed F':>10}")
    for label, (p, r, f) in rows:
        print(f"{label:<{width}}{p:>10.2f}{r:>10.2f}{f:>10.2f}")
    print(footer)
    return EXIT_OK


# -- argument wiring ---------------------------------------------------------

WORKERS_HELP = ("accepted and checked (must be >= 1) but has no effect: "
                "blocks always run one after another")


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
    p.add_argument("--workers", type=int, default=None, help=WORKERS_HELP)
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
    p.add_argument("--workers", type=int, default=None, help=WORKERS_HELP)
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
    except (CorpusParseError, DataIntegrityError, OSError) as exc:
        print(f"nameclust: data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
