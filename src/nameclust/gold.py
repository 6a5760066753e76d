"""Gold standard extraction and homonym blocks."""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

from .errors import DataIntegrityError
from .records import gold_key, read_json


@dataclass
class GoldStandard:
    """block_key -> gold author key -> set of record ids."""

    entries: dict[str, dict[str, set[str]]] = field(default_factory=dict)

    @property
    def author_count(self) -> int:
        return sum(len(keys) for keys in self.entries.values())


@dataclass(frozen=True)
class Block:
    block_key: str
    members: frozenset[str]
    gold_label: dict[str, str]

    @property
    def m(self) -> int:
        return len(self.members)


def build_gold_standard(records, min_gold_authors: int = 1) -> GoldStandard:
    """Collect suffix-identified mentions into the evaluation universe.

    A block is retained when it has at least ``min_gold_authors`` distinct
    gold identities (default 1: any name with at least one disambiguated
    author).
    """
    entries: dict[str, dict[str, set[str]]] = {}
    for rec in records:
        for mention in rec.mentions:
            if mention.gold_id is None:
                continue
            block = entries.setdefault(mention.surface_name, {})
            block.setdefault(gold_key(mention), set()).add(rec.record_id)
    if min_gold_authors > 1:
        entries = {
            key: authors
            for key, authors in entries.items()
            if len(authors) >= min_gold_authors
        }
    return GoldStandard(entries=entries)


def build_blocks(gold: GoldStandard) -> list[Block]:
    """One block per gold block key, in key order."""
    blocks = []
    for block_key in sorted(gold.entries):
        labels: dict[str, str] = {}
        for author_key, rids in gold.entries[block_key].items():
            for rid in rids:
                prev = labels.get(rid)
                if prev is not None and prev != author_key:
                    raise DataIntegrityError(
                        f"record {rid!r} carries both {prev!r} and "
                        f"{author_key!r} in block {block_key!r}"
                    )
                labels[rid] = author_key
        blocks.append(
            Block(
                block_key=block_key,
                members=frozenset(labels),
                gold_label=labels,
            )
        )
    return blocks


def sample_blocks(blocks: list[Block], count: int, seed: int) -> list[Block]:
    """Uniform sample without replacement, deterministic per seed; the
    sample is in key order."""
    if count > len(blocks):
        raise ValueError(f"cannot sample {count} of {len(blocks)} blocks")
    ordered = sorted(blocks, key=lambda b: b.block_key)
    chosen = random.Random(seed).sample(ordered, count)
    chosen.sort(key=lambda b: b.block_key)
    return chosen


def write_gold(gold: GoldStandard, path) -> None:
    obj = {
        bk: {ak: sorted(rids) for ak, rids in authors.items()}
        for bk, authors in gold.entries.items()
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj, ensure_ascii=False, sort_keys=True, indent=1) + "\n")


def _is_author_map(authors) -> bool:
    """A gold block's shape: gold author key -> list of record ids."""
    return isinstance(authors, dict) and all(
        isinstance(rids, list) and all(isinstance(r, str) for r in rids)
        for rids in authors.values())


def read_gold(path) -> GoldStandard:
    """Read ``write_gold``'s format; a file that is not UTF-8, not JSON
    or of another shape, or a block with no gold author or a gold author
    with no record id, raises ``DataIntegrityError`` naming the file (and
    the first offending block or the line and column of invalid JSON)."""
    obj = read_json(path)
    if not isinstance(obj, dict):
        raise DataIntegrityError(f"{path}: gold file is not a JSON object of blocks")
    entries = {}
    for bk, authors in obj.items():
        if not _is_author_map(authors):
            raise DataIntegrityError(
                f"{path}: gold block {bk!r} does not map gold author keys to "
                f"lists of record ids")
        if not authors:
            raise DataIntegrityError(f"{path}: gold block {bk!r} has no gold authors")
        for ak, rids in authors.items():
            if not rids:
                raise DataIntegrityError(
                    f"{path}: gold block {bk!r}: gold author {ak!r} has no record ids")
        entries[bk] = {ak: set(rids) for ak, rids in authors.items()}
    return GoldStandard(entries=entries)
