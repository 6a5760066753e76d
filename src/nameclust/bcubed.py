"""BCubed precision/recall/F at item, block, and corpus level."""

from __future__ import annotations

from dataclasses import dataclass

from .cluster import Clustering
from .gold import Block


@dataclass(frozen=True)
class BcubedScores:
    precision: float
    recall: float
    f: float


@dataclass(frozen=True)
class EvalConfig:
    alpha: float = 0.5
    # F is computed per item and then averaged; set True to instead take
    # the harmonic combination of the already-averaged P and R
    f_from_means: bool = False


def f_measure(p: float, r: float, alpha: float = 0.5) -> float:
    """Weighted harmonic combination; 0 when either side is 0 (the limit)."""
    if p == 0.0 or r == 0.0:
        return 0.0
    return 1.0 / (alpha / p + (1.0 - alpha) / r)


def _intersections(c: Clustering, b: Block):
    """Per (cluster, gold class) overlap counts."""
    counts: dict[str, dict[str, int]] = {}
    for rid, cid in c.assignment.items():
        label = b.gold_label[rid]
        per = counts.setdefault(cid, {})
        per[label] = per.get(label, 0) + 1
    return counts


def item_scores(c: Clustering, b: Block, e: str, cfg: EvalConfig = EvalConfig()) -> BcubedScores:
    """Scores of a single publication: precision is the fraction of its
    predicted cluster sharing its gold author, recall the fraction of its
    gold author's publications captured by the cluster."""
    if e not in b.members:
        raise KeyError(f"{e!r} is not a member of block {b.block_key!r}")
    cid = c.assignment[e]
    label = b.gold_label[e]
    cluster_size = len(c.clusters[cid])
    class_size = sum(1 for lab in b.gold_label.values() if lab == label)
    inter = sum(1 for rid in c.clusters[cid] if b.gold_label[rid] == label)
    p = inter / cluster_size
    r = inter / class_size
    return BcubedScores(p, r, f_measure(p, r, cfg.alpha))


def block_scores(c: Clustering, b: Block, cfg: EvalConfig = EvalConfig()) -> BcubedScores:
    """Arithmetic mean of the item scores over the block's publications."""
    counts = _intersections(c, b)
    class_sizes: dict[str, int] = {}
    for label in b.gold_label.values():
        class_sizes[label] = class_sizes.get(label, 0) + 1
    m = len(b.members)
    sum_p = sum_r = sum_f = 0.0
    for rid in sorted(b.members):  # fixed float summation order
        cid = c.assignment[rid]
        label = b.gold_label[rid]
        inter = counts[cid][label]
        p = inter / len(c.clusters[cid])
        r = inter / class_sizes[label]
        sum_p += p
        sum_r += r
        sum_f += f_measure(p, r, cfg.alpha)
    mean_p, mean_r = sum_p / m, sum_r / m
    if cfg.f_from_means:
        return BcubedScores(mean_p, mean_r, f_measure(mean_p, mean_r, cfg.alpha))
    return BcubedScores(mean_p, mean_r, sum_f / m)


def corpus_scores(per_block: list[BcubedScores], weights=None) -> BcubedScores:
    """Macro-average over blocks; pass per-block weights (e.g. sizes) for
    the non-default micro variant."""
    if not per_block:
        raise ValueError("cannot aggregate an empty list of block scores")
    if weights is None:
        weights = [1.0] * len(per_block)
    if len(weights) != len(per_block):
        raise ValueError("weights must align with block scores")
    wsum = float(sum(weights))
    p = sum(w * s.precision for w, s in zip(weights, per_block)) / wsum
    r = sum(w * s.recall for w, s in zip(weights, per_block)) / wsum
    f = sum(w * s.f for w, s in zip(weights, per_block)) / wsum
    return BcubedScores(p, r, f)
