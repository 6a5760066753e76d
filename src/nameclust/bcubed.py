"""BCubed precision/recall/F at item, block, and corpus level."""

from __future__ import annotations

import collections

from .gold import Block

BcubedScores = collections.namedtuple("BcubedScores", ["precision", "recall", "f"])


def f_measure(p: float, r: float, alpha: float = 0.5) -> float:
    """Weighted harmonic combination; 0 when either side is 0 (the limit)."""
    if p == 0.0 or r == 0.0:
        return 0.0
    return 1.0 / (alpha / p + (1.0 - alpha) / r)


def _intersections(c: dict[str, str], b: Block):
    """Per (cluster, gold class) overlap counts."""
    counts: dict[str, dict[str, int]] = {}
    for rid, cid in c.items():
        label = b.gold_label[rid]
        per = counts.setdefault(cid, {})
        per[label] = per.get(label, 0) + 1
    return counts


def item_scores(c: dict[str, str], b: Block, e: str, alpha: float = 0.5) -> BcubedScores:
    """Scores of a single publication: precision is the fraction of its
    predicted cluster sharing its gold author, recall the fraction of its
    gold author's publications captured by the cluster."""
    if e not in b.gold_label:
        raise KeyError(f"{e!r} is not a member of block {b.block_key!r}")
    cid = c[e]
    label = b.gold_label[e]
    mates = [rid for rid, other in c.items() if other == cid]
    class_size = sum(1 for lab in b.gold_label.values() if lab == label)
    inter = sum(1 for rid in mates if b.gold_label[rid] == label)
    p = inter / len(mates)
    r = inter / class_size
    return BcubedScores(p, r, f_measure(p, r, alpha))


def block_scores(c: dict[str, str], b: Block, alpha: float = 0.5) -> BcubedScores:
    """Arithmetic mean of the item scores over the block's publications;
    F is averaged per item, not taken from the mean P and R."""
    counts = _intersections(c, b)
    cluster_sizes = {cid: sum(per.values()) for cid, per in counts.items()}
    class_sizes: dict[str, int] = {}
    for label in b.gold_label.values():
        class_sizes[label] = class_sizes.get(label, 0) + 1
    m = len(b.gold_label)
    sum_p = sum_r = sum_f = 0.0
    for rid in sorted(b.gold_label):  # fixed float summation order
        cid = c[rid]
        label = b.gold_label[rid]
        inter = counts[cid][label]
        p = inter / cluster_sizes[cid]
        r = inter / class_sizes[label]
        sum_p += p
        sum_r += r
        sum_f += f_measure(p, r, alpha)
    return BcubedScores(sum_p / m, sum_r / m, sum_f / m)


def corpus_scores(per_block: list[BcubedScores]) -> BcubedScores:
    """Macro-average over blocks."""
    if not per_block:
        raise ValueError("cannot aggregate an empty list of block scores")
    n = len(per_block)
    # summed left to right: sum() adds floats with compensation since
    # Python 3.12, which would change the last digit between versions
    sum_p = sum_r = sum_f = 0.0
    for s in per_block:
        sum_p += s.precision
        sum_r += s.recall
        sum_f += s.f
    return BcubedScores(sum_p / n, sum_r / n, sum_f / n)
