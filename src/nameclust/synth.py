"""Seeded synthetic corpora with planted authors for desk-scale runs.

Each block is one ambiguous name shared by several planted authors.
Every author draws co-authors from a private pool, which makes that
author's publications a connected order-1 subgraph; bridge edges are
introduced by a per-block pool of "common" co-authors that any author
may hit at the configured rate, mimicking spurious links between
different people's work.
"""

from __future__ import annotations

import collections
import math
import random

from .records import AuthorMention, RawRecord, parse_mention


# pool_factor: private co-author pool size as a fraction of the author's
# pub count; the pairs are (min, max) ranges
SynthConfig = collections.namedtuple(
    "SynthConfig",
    ["blocks", "authors_per_block", "pubs_per_author", "pool_factor",
     "coauthors_per_pub", "bridge_rate", "shared_pool_size", "seed"],
    defaults=(10, (2, 4), (5, 15), 0.4, (2, 3), 0.0, 4, 0))


def generate_corpus(cfg: SynthConfig) -> list[RawRecord]:
    """Deterministic per seed; gold ids ride on the focal mentions."""
    if cfg.blocks < 0:
        raise ValueError(f"blocks must be >= 0, got {cfg.blocks}")
    if not (cfg.pool_factor >= 0.0 and math.isfinite(cfg.pool_factor)):
        raise ValueError(f"pool factor must be finite and >= 0, got {cfg.pool_factor}")
    if not 0.0 <= cfg.bridge_rate <= 1.0:
        raise ValueError(f"bridge rate must be in [0, 1], got {cfg.bridge_rate}")
    for what, (lo, hi) in (("authors per block", cfg.authors_per_block),
                           ("publications per author", cfg.pubs_per_author),
                           ("co-authors per publication", cfg.coauthors_per_pub)):
        if not 0 <= lo <= hi:
            raise ValueError(f"{what} must satisfy 0 <= min <= max, got {lo} and {hi}")
    if cfg.bridge_rate > 0 and cfg.shared_pool_size < 1:
        raise ValueError("a positive bridge rate needs a shared pool of at least 1")
    rng = random.Random(cfg.seed)
    records: list[RawRecord] = []
    for b in range(cfg.blocks):
        block_name = f"Ambiguous Name{b:03d}"
        shared_pool = [f"Common Coauthor{b:03d}-{s}" for s in range(cfg.shared_pool_size)]
        n_authors = rng.randint(*cfg.authors_per_block)
        for a in range(1, n_authors + 1):
            n_pubs = rng.randint(*cfg.pubs_per_author)
            pool_size = max(2, round(cfg.pool_factor * n_pubs))
            pool = [f"Private Coauthor{b:03d}-{a:04d}-{i}" for i in range(pool_size)]
            for j in range(n_pubs):
                coauthors = rng.sample(pool, min(rng.randint(*cfg.coauthors_per_pub), pool_size))
                if rng.random() < cfg.bridge_rate:
                    coauthors.append(rng.choice(shared_pool))
                mentions = [parse_mention(f"{block_name} {a:04d}")]
                mentions.extend(
                    AuthorMention(surface_name=name, gold_id=None)
                    for name in coauthors
                )
                records.append(
                    RawRecord(
                        record_id=f"synth/b{b:03d}/a{a:04d}/p{j:04d}",
                        kind="article",
                        title=f"Synthetic paper {b}-{a}-{j}",
                        venue=f"Venue {b % 7}",
                        year=2000 + (j % 20),
                        mentions=tuple(mentions),
                    )
                )
    return records
