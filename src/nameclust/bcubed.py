"""BCubed precision/recall/F at item, block, and corpus level."""

from __future__ import annotations

import collections
import math

from .gold import Block

BcubedScores = collections.namedtuple("BcubedScores", ["precision", "recall", "f"])


def f_measure(p: float, r: float, alpha: float = 0.5) -> float:
    """Weighted harmonic combination; 0 when either side is 0 (the limit)."""
    if p == 0.0 or r == 0.0:
        return 0.0
    return 1.0 / (alpha / p + (1.0 - alpha) / r)


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


def _mean(parts: dict[int, int], m: int) -> float:
    """sum(n / d for d, n in parts.items()) / m, rounded once."""
    lcm = math.lcm(*parts)
    return sum(n * (lcm // d) for d, n in parts.items()) / (lcm * m)


def block_scores(c: dict[str, str], b: Block, alpha: float = 0.5) -> BcubedScores:
    """Arithmetic mean of the item scores over the block's publications;
    F is averaged per item, not taken from the mean P and R.

    The i members of a (cluster c, gold class l) cell each score i/|c|,
    i/|l| and i/(alpha|c| + (1-alpha)|l|); with alpha = an/ad exactly,
    each mean is an integer sum per denominator, rounded once."""
    an, ad = alpha.as_integer_ratio()
    sizes = collections.Counter(c.values())
    classes = collections.Counter(b.gold_label.values())
    cells = collections.Counter(zip(c.values(), map(b.gold_label.__getitem__, c)))
    p, r, f = {}, {}, {}  # {denominator: summed numerators}
    for (cid, label), i in cells.items():
        size, cls = sizes[cid], classes[label]
        sq = i * i
        p[size] = p.get(size, 0) + sq
        r[cls] = r.get(cls, 0) + sq
        d = an * size + (ad - an) * cls  # ad times F's denominator
        f[d] = f.get(d, 0) + sq * ad
    m = len(b.gold_label)
    return BcubedScores(_mean(p, m), _mean(r, m), _mean(f, m))


def corpus_scores(per_block: list[BcubedScores]) -> BcubedScores:
    """Macro-average over blocks: the exact mean of the given floats,
    rounded once, whatever their order."""
    if not per_block:
        raise ValueError("cannot aggregate an empty list of block scores")
    means = []
    for column in zip(*per_block):
        parts: dict[int, int] = {}
        for v in column:
            n, d = v.as_integer_ratio()
            parts[d] = parts.get(d, 0) + n
        means.append(_mean(parts, len(per_block)))
    return BcubedScores(*means)
