"""Seeded workload inputs: synthetic corpora and DBLP-shaped XML.

Everything here runs before the timed section. The same seed gives
byte-identical files.
"""

from __future__ import annotations

import gzip
from collections import defaultdict

from nameclust.gold import build_gold_standard, write_gold
from nameclust.records import write_records
from nameclust.synth import SynthConfig, generate_corpus

# criterion-5 shape: few large blocks (m = 220..640) with bridge co-authors
LARGE_SHAPE = {"pubs_per_author": (110, 160), "bridge_rate": 0.2}
# criterion-2 shape: many small blocks
SMALL_SHAPE = {"authors_per_block": (1, 4), "pubs_per_author": (2, 18),
               "bridge_rate": 0.25}


def _block_of(rec) -> str:
    """The block a synthetic record was planted in: its gold mention's name."""
    return next(m.surface_name for m in rec.mentions if m.gold_id is not None)


def balanced_large_corpus(seed: int, blocks: int, target_records: int,
                          target_pairs: int) -> list:
    """Records of ``blocks`` large-shape blocks whose record count and pair
    count sum m(m-1)/2 are as close as possible to the targets.

    Draws twice as many blocks as needed from the seed, then swaps blocks
    in and out of the selection while that brings both totals closer.
    Blocks share no names, so dropping one leaves the others' graphs
    intact. Fixing both totals keeps the work per invocation the same
    across seeds; without it the pair count of a 28-block corpus spreads
    by about 10% between seeds.
    """
    records = generate_corpus(SynthConfig(blocks=2 * blocks, seed=seed, **LARGE_SHAPE))
    by_block: dict[str, list] = defaultdict(list)
    for rec in records:
        by_block[_block_of(rec)].append(rec)
    size = {k: len(v) for k, v in by_block.items()}

    def gap(keys):
        m = sum(size[k] for k in keys)
        pairs = sum(size[k] * (size[k] - 1) // 2 for k in keys)
        return abs(m / target_records - 1) + abs(pairs / target_pairs - 1)

    keys = sorted(by_block)
    chosen, rest = keys[:blocks], keys[blocks:]
    best = gap(chosen)
    improved = True
    while improved:
        improved = False
        for i in range(len(chosen)):
            for j in range(len(rest)):
                chosen[i], rest[j] = rest[j], chosen[i]
                g = gap(chosen)
                if g < best:
                    best, improved = g, True
                else:
                    chosen[i], rest[j] = rest[j], chosen[i]
    keep = set(chosen)
    return [rec for rec in records if _block_of(rec) in keep]


def small_corpus(seed: int, blocks: int) -> list:
    return generate_corpus(SynthConfig(blocks=blocks, seed=seed, **SMALL_SHAPE))


def write_corpus(records, records_path, gold_path) -> None:
    """The CLI's input files, in the formats the package itself writes."""
    write_records(records, records_path)
    write_gold(build_gold_standard(records), gold_path)


# -- DBLP-shaped XML ---------------------------------------------------------

_ENTITY = {"ü": "uuml", "é": "eacute", "ö": "ouml", "ä": "auml", "ß": "szlig"}
_KINDS = ("article", "inproceedings", "incollection")


def _xml_text(s: str) -> str:
    s = s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    s = s.replace('"', "&quot;")
    return "".join(f"&{_ENTITY[c]};" if c in _ENTITY else
                   c if ord(c) < 128 else f"&#{ord(c)};" for c in s)


def _decorate(name: str) -> str:
    """Put accented letters into some names so entities get exercised.

    Keeps the final token, so a four-digit gold suffix stays one and a
    filler name never becomes one.
    """
    head, _, tail = name.rpartition(" ")
    if not head:
        return name
    code = sum(map(ord, name)) % 4
    if code == 0:
        head = head.replace("u", "ü", 1)
    elif code == 1:
        head = head.replace("e", "é", 1)
    elif code == 2:
        head = head.replace("a", "ä", 1) + " Weiß"
    return f"{head} {tail}"


def _record(rid, kind, title, venue, year, mentions):
    """Expected record, in the shape of one line of the canonical JSONL."""
    return {"id": rid, "kind": kind, "title": title, "venue": venue, "year": year,
            "authors": [{"name": n, "gold_id": g} for n, g in mentions]}


def dblp_records(seed: int, blocks: int) -> list[dict]:
    """A small-shape synthetic corpus recast as DBLP records.

    Adds what a real dump has and the synthetic generator lacks: three
    publication kinds, titles with markup characters, keys that need
    escaping, accented names, editor-only proceedings and ``www`` person
    records carrying the suffixed name.
    """
    out = []
    authors_seen = {}
    for i, rec in enumerate(small_corpus(seed, blocks)):
        kind = _KINDS[i % 3]
        rid = rec.record_id.replace("synth/", "synth/r&d/", 1) if i % 11 == 5 else rec.record_id
        title = rec.title + (' & <Analysis> of "Units"' if i % 5 == 0 else "")
        mentions = []
        for m in rec.mentions:
            surface = _decorate(m.surface_name)
            mentions.append((surface, m.gold_id))
            if m.gold_id is not None:
                authors_seen.setdefault((surface, m.gold_id), None)
        out.append(_record(rid, kind, title, rec.venue, rec.year, mentions))
    for n, (surface, gid) in enumerate(authors_seen):
        out.append(_record(f"homepages/{n // 100}/{n}", "www", "Home Page", None, None,
                           [(surface, gid)]))
        if n % 50 == 0:
            out.append(_record(f"conf/synth/{n}", "proceedings", f"Proceedings {n}",
                               f"Synth {n}", 2010, []))
    return out


def expected_gold(records: list[dict]) -> dict:
    """{block: {gold key: sorted record ids}}, the layout of ``gold.json``."""
    gold: dict[str, dict[str, set]] = defaultdict(lambda: defaultdict(set))
    for rec in records:
        for a in rec["authors"]:
            if a["gold_id"] is not None:
                gold[a["name"]][f"{a['name']} {a['gold_id']}"].add(rec["id"])
    return {b: {k: sorted(v) for k, v in authors.items()} for b, authors in gold.items()}


def write_dblp_xml(records: list[dict], path) -> int:
    """Gzipped XML with a DOCTYPE, as in the DBLP dump. Returns the
    uncompressed size in bytes."""
    parts = ['<?xml version="1.0" encoding="ISO-8859-1"?>\n'
             '<!DOCTYPE dblp SYSTEM "dblp.dtd">\n<dblp>\n']
    for rec in records:
        kind = rec["kind"]
        fields = [f'<{kind} mdate="2015-04-01" key="{_xml_text(rec["id"])}">']
        for a in rec["authors"]:
            raw = a["name"] if a["gold_id"] is None else f"{a['name']} {a['gold_id']}"
            fields.append(f"<author>{_xml_text(raw)}</author>")
        if kind == "proceedings":
            fields.append("<editor>Some Editor</editor>")
        fields.append(f"<title>{_xml_text(rec['title'])}</title>")
        if rec["venue"] is not None:
            tag = "journal" if kind == "article" else "booktitle"
            fields.append(f"<pages>1-10</pages><{tag}>{_xml_text(rec['venue'])}</{tag}>")
        if rec["year"] is not None:
            fields.append(f"<year>{rec['year']}</year>")
        fields.append(f"<url>db/{_xml_text(rec['id'])}.html</url></{kind}>\n")
        parts.append("".join(fields))
    parts.append("</dblp>\n")
    data = "".join(parts).encode("ascii")
    with gzip.open(path, "wb", compresslevel=1) as fh:
        fh.write(data)
    return len(data)
