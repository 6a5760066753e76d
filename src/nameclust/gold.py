"""Gold standard extraction and homonym blocks."""

from __future__ import annotations

import collections
import json
import random

from .errors import DataIntegrityError
from .records import gold_key, read_json


class Block(collections.namedtuple("Block", ["block_key", "gold_label"])):
    """A homonym block: its name and the gold author key of each of its
    record ids."""

    __slots__ = ()

    @property
    def m(self) -> int:
        return len(self.gold_label)


def build_gold_standard(records, min_gold_authors: int = 1) -> dict:
    """Collect suffix-identified mentions into the evaluation universe:
    block key -> gold author key -> set of record ids.

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
    return entries


def build_blocks(gold) -> list[Block]:
    """One block per key of the gold mapping (block key -> gold author
    key -> record ids), in key order; a record listed twice under one
    gold author is one member."""
    blocks = []
    for block_key in sorted(gold):
        labels: dict[str, str] = {}
        for author_key, rids in gold[block_key].items():
            for rid in rids:
                prev = labels.get(rid)
                if prev is not None and prev != author_key:
                    raise DataIntegrityError(
                        f"record {rid!r} carries both {prev!r} and "
                        f"{author_key!r} in block {block_key!r}"
                    )
                labels[rid] = author_key
        blocks.append(Block(block_key, labels))
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


def write_gold(gold, path) -> None:
    obj = {
        bk: {ak: sorted(rids) for ak, rids in authors.items()}
        for bk, authors in gold.items()
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj, ensure_ascii=False, sort_keys=True, indent=1) + "\n")


def _is_author_map(authors) -> bool:
    """A gold block's shape: gold author key -> list of record ids."""
    return isinstance(authors, dict) and all(
        isinstance(rids, list) and all(isinstance(r, str) for r in rids)
        for rids in authors.values())


def read_gold(path) -> dict:
    """Read ``write_gold``'s format, as block key -> gold author key ->
    list of record ids; a file that is not UTF-8, not JSON or of another
    shape, or a block with no gold author or a gold author with no record
    id, raises ``DataIntegrityError`` naming the file (and the first
    offending block or the line and column of invalid JSON)."""
    obj = read_json(path)
    if not isinstance(obj, dict):
        raise DataIntegrityError(f"{path}: gold file is not a JSON object of blocks")
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
    return obj
