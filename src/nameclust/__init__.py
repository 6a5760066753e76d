"""Homonym author-name disambiguation over co-authorship networks."""

__version__ = "0.1.0"

from .bcubed import BcubedScores, block_scores, corpus_scores, item_scores
from .cluster import Clustering, cluster_block, count_comparisons
from .community import (
    Partition,
    WeightedPubGraph,
    build_similarity_graph,
    louvain,
    modularity,
    refine_with_report,
)
from .dblp_xml import parse_dblp
from .gold import Block, GoldStandard, build_blocks, build_gold_standard, sample_blocks
from .graph import INFINITE, BipartiteGraph, build_graph, load_graph, pub_distance, pubs_within
from .records import AuthorMention, RawRecord, parse_mention
from .synth import SynthConfig, generate_corpus

__all__ = [
    "AuthorMention",
    "BcubedScores",
    "BipartiteGraph",
    "Block",
    "Clustering",
    "GoldStandard",
    "INFINITE",
    "Partition",
    "RawRecord",
    "SynthConfig",
    "WeightedPubGraph",
    "block_scores",
    "build_blocks",
    "build_gold_standard",
    "build_graph",
    "build_similarity_graph",
    "cluster_block",
    "corpus_scores",
    "count_comparisons",
    "generate_corpus",
    "item_scores",
    "load_graph",
    "louvain",
    "modularity",
    "parse_dblp",
    "parse_mention",
    "pub_distance",
    "pubs_within",
    "refine_with_report",
    "sample_blocks",
]
