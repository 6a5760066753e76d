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
from .forked import forked
from .gold import build_blocks, build_gold_standard, read_gold, sample_blocks, write_gold
# read_records and build_graph are kept in this namespace for perfbench/tracer.py
from .graph import build_graph, load_graph  # noqa: F401
from .records import (read_json, read_records, read_utf8, record_to_json,  # noqa: F401
                      write_records)

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


def _thresholds_fault(thresholds):
    for k, t in enumerate(thresholds):
        if t < 1 or t % 2 == 0:
            return f"threshold must be odd and >= 1, got {t}"
        if t in thresholds[:k]:
            return f"threshold {t} given twice"


def _at_least(low, what):
    return lambda n: f"{what} must be >= {low}, got {n}" if n is not None and n < low else None


# every setting of ingest, run and common-names, the only keys a --config
# file may hold: its built-in default, its type in the file, and its check,
# which returns what is wrong with a value, or None; _settings checks the
# values in this order
SETTINGS = {
    "min_gold_authors": (1, int, _at_least(1, "min gold authors")),
    "thresholds": ((1, 3), lambda s: [int(x) for x in s.split(",")], _thresholds_fault),
    "threshold": (3, int, lambda t: _thresholds_fault([t])),
    "alpha": (0.5, float,
              lambda a: None if 0.0 <= a <= 1.0 else f"alpha must lie in [0, 1], got {a}"),
    "resolution": (1.0, float, lambda r: None if r > 0.0 and math.isfinite(r)
                   else f"resolution must be positive and finite, got {r}"),
    "sample_count": (None, int, _at_least(1, "sample count")),
    "seed": (0, int, lambda s: None),
    "workers": (1, int, _at_least(1, "workers")),
    "min_block_size": (200, int, _at_least(0, "min block size")),
}


def read_config(path) -> dict[str, str]:
    """Flat ``key = value`` file; '#' starts a comment. Every key must be
    a setting of some subcommand, so that one file serves them all."""
    out: dict[str, str] = {}
    text = read_utf8(path, UsageError).removeprefix("\ufeff")
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        key = key.strip().replace("-", "_")
        if key not in SETTINGS:
            raise UsageError(f"{path}:{lineno}: unknown setting {key!r}")
        out[key] = value.strip()
    return out


def _settings(args, *names) -> list:
    """The value of each named setting: its flag, else its ``--config``
    entry, else its built-in default. All are checked, in ``SETTINGS``
    order, before any input is read; the sample count's upper bound, the
    number of blocks, is checked once the gold file is read."""
    config = read_config(args.config) if args.config else {}
    values = {}
    for name in names:
        default, cast, _ = SETTINGS[name]
        value = getattr(args, name)
        if value is None and name in config:
            try:
                value = cast(config[name])
            except ValueError:
                raise UsageError(f"--config: bad value {config[name]!r} for {name}") from None
        values[name] = default if value is None else value
    for name, (_, _, check) in SETTINGS.items():
        if name in values and (fault := check(values[name])):
            raise UsageError(fault)
    return [values[name] for name in names]


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


@contextlib.contextmanager
def _written_together(*paths):
    """Yield a fresh file beside each of ``paths`` to write in the block,
    and move each to its path once the block ends without error; an error
    leaves no temporary file and every path as it was."""
    with contextlib.ExitStack() as owned:
        tmps = [_fresh_file_beside(path, owned) for path in paths]
        yield tmps
        for tmp, path in zip(tmps, paths):
            os.replace(tmp, path)


def _distinct_outputs(args, source="-") -> None:
    """Reject an output that is a directory, which no file can replace, or
    the input file ``source``, which it would replace (``-`` is stdin),
    and one file named for both outputs: the gold would replace the
    records."""
    for flag, path in (("--records-out", args.records_out), ("--gold-out", args.gold_out)):
        if os.path.isdir(path):
            raise UsageError(f"{flag} is a directory: {path}")
        if source != "-" and os.path.realpath(path) == os.path.realpath(source):
            raise UsageError(f"{flag} names the --input file: {path}")
    if os.path.realpath(args.records_out) == os.path.realpath(args.gold_out):
        raise UsageError(f"--records-out and --gold-out name the same file: {args.gold_out}")


def cmd_ingest(args) -> int:
    _distinct_outputs(args, args.input)
    (min_gold,) = _settings(args, "min_gold_authors")
    n_records = 0
    # both files take their names only once the whole dump has parsed, so
    # a data error leaves neither
    with _written_together(args.records_out, args.gold_out) as (records_tmp, gold_tmp):
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
    n_authors = sum(map(len, gold.values()))
    print(f"ingest: {n_records} records, {len(gold)} gold blocks, "
          f"{n_authors} gold authors")
    if n_authors == 0:
        print("warning: no suffix-identified authors found; gold standard is empty",
              file=sys.stderr)
    return EXIT_OK


def cmd_synth(args) -> int:
    # imported here: no other command generates a corpus
    from .synth import SynthConfig, generate_corpus

    _distinct_outputs(args)
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
    gold = build_gold_standard(records)
    with _written_together(args.records_out, args.gold_out) as (records_tmp, gold_tmp):
        write_records(records, records_tmp)
        write_gold(gold, gold_tmp)
    print(f"synth: {len(records)} records, {len(gold)} blocks, "
          f"{sum(map(len, gold.values()))} planted authors (seed {cfg.seed})")
    return EXIT_OK


def _inputs(args, choose):
    """The graph of ``--records`` and the gold blocks of ``--gold`` that
    ``choose`` keeps. Every kept gold record must be an authored record,
    and every kept block name an author, in the records, and each such
    record must name its block's author. These are the only membership
    checks: the block stage indexes the graph's tables directly."""
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
    missing = [(rid, b.block_key) for b in blocks for rid in b.gold_label
               if rid not in graph.pub_index]
    if missing:
        rid, key = min(missing)
        raise DataIntegrityError(
            f"gold record {rid!r} of block {key!r} is not an authored record "
            f"in --records")
    for b in blocks:
        if b.block_key not in graph.author_pubs:
            raise DataIntegrityError(
                f"block {b.block_key!r} is not an author name in --records")
    strays = [(rid, b.block_key) for b in blocks for rid in b.gold_label
              if b.block_key not in graph.pub_authors[graph.pub_index[rid]]]
    if strays:
        rid, key = min(strays)
        raise DataIntegrityError(
            f"gold record {rid!r} of block {key!r} does not name {key!r} as an author "
            f"in --records")
    return graph, blocks


def _check_tsv_fields(blocks) -> None:
    """Reject a block key, record id or gold key that holds a tab or a
    line break: it would split its row of ``clusters_t*.tsv``."""
    bad = [(v, b.block_key) for b in blocks
           for v in (b.block_key, *b.gold_label, *b.gold_label.values())
           if "\t" in v or "\n" in v or "\r" in v]
    if bad:
        v, key = min(bad)
        raise DataIntegrityError(
            f"{v!r} of block {key!r} holds a tab or line break, which "
            f"clusters_t*.tsv cannot hold")


def _out_dir(args) -> Path:
    """``--out-dir``, checked before any input is read: the nearest of it
    and its parents that exists must be a directory, or it could not be
    made. The caller makes it only once every block is done, so that an
    error before then leaves no directory."""
    path = Path(args.out_dir)
    nearest = next(p for p in (path, *path.parents) if os.path.lexists(p))
    if not nearest.is_dir():
        raise UsageError(f"--out-dir cannot be made: {nearest} is not a directory")
    return path


def _per_block(blocks, job):
    """``[job(b) for b in blocks]``, on two cores where ``os.fork``
    exists and there are two blocks or more.

    The blocks are dealt largest first (by m, ties in block order)
    alternately to this process and to one forked child. The child sends
    its blocks' results in one message, and this process, once its own
    share is done, puts each in its place. An error in either share stops
    the command; when both shares fail, this process's error is the one
    raised.
    """
    if not hasattr(os, "fork") or len(blocks) < 2:
        return [job(b) for b in blocks]
    order = sorted(range(len(blocks)), key=lambda i: -blocks[i].m)
    mine, theirs = order[0::2], order[1::2]

    def child_share():
        yield [job(blocks[i]) for i in theirs]

    results = [None] * len(blocks)
    with forked(child_share()) as received:
        for i in mine:
            results[i] = job(blocks[i])
        (message,) = received
    for i, result in zip(theirs, message, strict=True):
        results[i] = result
    return results


def cmd_run(args) -> int:
    thresholds, sample_count, seed, alpha, _ = _settings(
        args, "thresholds", "sample_count", "seed", "alpha", "workers")
    out_dir = _out_dir(args)

    def choose(blocks):
        if not blocks:
            raise DataIntegrityError(f"gold file {args.gold} has no blocks to evaluate")
        if sample_count is None:
            return blocks
        if sample_count > len(blocks):
            raise UsageError(
                f"sample count {sample_count} exceeds {len(blocks)} available blocks")
        return sample_blocks(blocks, sample_count, seed)

    graph, blocks = _inputs(args, choose)
    _check_tsv_fields(blocks)

    def job(b):
        return [(c, block_scores(c, b, alpha)) for c in cluster_block(b, graph, thresholds)]

    results = _per_block(blocks, job)
    out_dir.mkdir(parents=True, exist_ok=True)
    comparisons = count_comparisons(blocks)
    report = {
        "alpha": alpha,
        "sample_count": len(blocks),
        "sample_seed": seed,
        "comparisons": comparisons,
        "thresholds": [],
    }
    for k, t in enumerate(thresholds):
        clusterings = [r[k][0] for r in results]
        write_clusters_tsv(blocks, clusterings, out_dir / f"clusters_t{t}.tsv")
        scores = [r[k][1] for r in results]
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
    min_block_size, threshold, alpha, resolution, _ = _settings(
        args, "min_block_size", "threshold", "alpha", "resolution", "workers")
    out_dir = _out_dir(args)

    graph, blocks = _inputs(args, lambda blocks: [b for b in blocks if b.m > min_block_size])

    def job(b):
        (base,) = cluster_block(b, graph, [threshold])
        refined, info = refine_with_report(b, base, graph, resolution)
        return block_scores(base, b, alpha), block_scores(refined, b, alpha), info

    results = _per_block(blocks, job)
    out_dir.mkdir(parents=True, exist_ok=True)
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

    per_block = [{"block_key": b.block_key, "m": b.m, "before": _triple(base),
                  "after": _triple(refined), **info}
                 for b, (base, refined, info) in zip(blocks, results)]
    before = corpus_scores([base for base, _, _ in results])
    after = corpus_scores([refined for _, refined, _ in results])
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
    elif "before" in keys or "qualifying_blocks" in keys:
        # a report of no qualifying blocks has no scores to print
        empty = "before" not in keys and obj["qualifying_blocks"] == 0
        rows = [] if empty else [(label, _report_scores(path, obj.get(label), label))
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

WORKERS_HELP = ("accepted and checked (must be >= 1) but has no effect: the "
                "blocks are shared between two processes where os.fork exists")


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
