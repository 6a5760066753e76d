"""Spans around the package's public functions, and the per-layer
metrics derived from them.

``WRAPS`` is the one table of wrapped functions. Each entry patches the
module global through which the pipeline calls the function, so the
package itself is not changed. A name that a later version no longer
has is recorded as missing; every metric that needs it is then reported
as absent instead of as a wrong number.

This module must not import ``nameclust``: the traced child imports the
package inside a span of its own to measure import time.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import math
import time

# (module whose global is patched, attribute, span name)
WRAPS = (
    ("nameclust.cli", "read_records", "records.read"),
    ("nameclust.cli", "parse_dblp", "dblp_xml.parse"),
    ("nameclust.cli", "read_gold", "gold.read"),
    ("nameclust.cli", "build_blocks", "gold.blocks"),
    ("nameclust.cli", "sample_blocks", "gold.sample"),
    ("nameclust.cli", "build_gold_standard", "gold.build"),
    ("nameclust.cli", "write_gold", "gold.write"),
    ("nameclust.cli", "build_graph", "graph.build"),
    ("nameclust.cli", "cluster_block", "cluster.block"),
    ("nameclust.cli", "write_clusters_tsv", "cli.write_tsv"),
    ("nameclust.cli", "block_scores", "bcubed.block"),
    ("nameclust.cli", "corpus_scores", "bcubed.corpus"),
    ("nameclust.cli", "refine_with_report", "community.refine"),
    ("nameclust.cluster", "pubs_within", "graph.reach"),
    ("nameclust.community", "pubs_within", "graph.reach"),
    ("nameclust.community", "build_similarity_graph", "community.simgraph"),
    ("nameclust.community", "louvain", "community.louvain"),
    ("nameclust.community", "modularity", "community.modularity"),
)

# generators are timed across their iteration, not their call
GENERATORS = {"records.read", "dblp_xml.parse"}

# spans whose first argument is a Block; reach calls inside them are
# scored against that block's members
BLOCK_SCOPES = {"cluster.block", "community.simgraph"}


def _result_info(name, result):
    """Counts taken from a wrapped call's result, outside its timing."""
    if name == "graph.build":
        return {"n_pubs": getattr(result, "n_pubs", 0),
                "n_authors": getattr(result, "n_authors", 0)}
    if name == "cluster.block":
        return {"comparisons": getattr(result, "comparisons", 0)}
    if name == "community.simgraph":
        return {"edges": len(getattr(result, "edges", ()))}
    if name == "community.louvain":
        return {"passes": getattr(result, "passes", 0)}
    return None


class Recorder:
    """Spans kept in memory as [name, start, end, parent, busy, info]."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.missing: list[str] = []
        self.block_members: list = []

    def begin(self, name) -> int:
        parent = self.stack[-1] if self.stack else -1
        now = time.perf_counter()
        self.spans.append([name, now, now, parent, 0.0, None])
        self.stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, i, since=None) -> None:
        """Close span ``i``; ``since`` starts this stretch of a generator."""
        span = self.spans[i]
        span[2] = time.perf_counter()
        span[4] += span[2] - (span[1] if since is None else since)
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        i = self.begin(name)
        try:
            yield
        finally:
            self.end(i)

    def install(self) -> None:
        for module, attr, name in WRAPS:
            try:
                mod = importlib.import_module(module)
            except ImportError:
                mod = None
            fn = getattr(mod, attr, None)
            if not callable(fn):
                self.missing.append(name)
                continue
            wrap = self._wrap_gen if name in GENERATORS else self._wrap_call
            setattr(mod, attr, wrap(name, fn))

    def _wrap_call(self, name, fn):
        scoped = name in BLOCK_SCOPES
        reach = name == "graph.reach"

        def wrapper(*args, **kwargs):
            if scoped:
                self.block_members.append(getattr(args[0], "members", frozenset()))
            i = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(i)
                if scoped:
                    self.block_members.pop()
            if reach and isinstance(result, dict):
                members = self.block_members[-1] if self.block_members else frozenset()
                self.spans[i][5] = {"pubs": len(result),
                                    "members": len(result.keys() & members)}
            else:
                self.spans[i][5] = _result_info(name, result)
            return result

        return wrapper

    def _wrap_gen(self, name, fn):
        def wrapper(*args, **kwargs):
            return self._iterate(name, fn(*args, **kwargs))

        return wrapper

    def _iterate(self, name, it):
        i = None
        n = 0
        try:
            while True:
                if i is None:
                    i = self.begin(name)
                    since = self.spans[i][1]
                else:
                    since = time.perf_counter()
                    self.stack.append(i)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self.end(i, since)
                n += 1
                yield item
        finally:
            if i is not None:
                self.spans[i][5] = {"items": n}

    def dump(self, path, extra) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "missing": self.missing, **extra}, fh)


# -- per-layer metrics -------------------------------------------------------

# name -> (unit, better, span names it needs)
LAYER_METRICS = {
    "records.read_s": ("s", "lower", {"records.read"}),
    "records.count": ("count", "higher", {"records.read"}),
    "dblp_xml.parse_s": ("s", "lower", {"dblp_xml.parse"}),
    "dblp_xml.records": ("count", "higher", {"dblp_xml.parse"}),
    "dblp_xml.mb_per_s": ("MB/s", "higher", {"dblp_xml.parse"}),
    "gold.load_s": ("s", "lower", {"gold.read", "gold.blocks", "gold.sample"}),
    "gold.build_s": ("s", "lower", {"gold.build", "gold.write"}),
    "graph.build_s": ("s", "lower", {"graph.build"}),
    "graph.n_pubs": ("count", "higher", {"graph.build"}),
    "graph.n_authors": ("count", "higher", {"graph.build"}),
    "graph.reach_calls": ("count", "lower", {"graph.reach"}),
    "graph.reach_s": ("s", "lower", {"graph.reach"}),
    "graph.reach_pubs": ("count", "lower", {"graph.reach"}),
    "graph.reach_member_ratio": ("ratio", "higher", {"graph.reach"} | BLOCK_SCOPES),
    "cluster.calls": ("count", "higher", {"cluster.block"}),
    "cluster.self_s": ("s", "lower", {"cluster.block", "graph.reach"}),
    "cluster.comparisons": ("count", "higher", {"cluster.block"}),
    "cluster.block_ms_p50": ("ms", "lower", {"cluster.block"}),
    "cluster.block_ms_tail": ("ms", "lower", {"cluster.block"}),
    "cluster.block_ms_tail_pct": ("percentile", "higher", {"cluster.block"}),
    "cluster.block_samples": ("count", "higher", {"cluster.block"}),
    "community.simgraph_s": ("s", "lower", {"community.simgraph"}),
    "community.simgraph_edges": ("count", "higher", {"community.simgraph"}),
    "community.louvain_s": ("s", "lower", {"community.louvain"}),
    "community.louvain_passes": ("count", "lower", {"community.louvain"}),
    "community.modularity_s": ("s", "lower", {"community.modularity"}),
    "community.modularity_calls": ("count", "lower", {"community.modularity"}),
    "community.refine_self_s": ("s", "lower", {"community.refine", "community.simgraph",
                                               "community.louvain", "community.modularity"}),
    "bcubed.score_s": ("s", "lower", {"bcubed.block", "bcubed.corpus"}),
    "bcubed.calls": ("count", "higher", {"bcubed.block", "bcubed.corpus"}),
    "cli.import_s": ("s", "lower", set()),
    "cli.write_s": ("s", "lower", {"cli.write_tsv", "gold.write"}),
    "cli.self_s": ("s", "lower", {name for _, _, name in WRAPS}),
    "trace.overhead_s": ("s", "lower", set()),
}


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten samples beyond it."""
    return max(0, min(99, math.floor(100 * (1 - 10 / n)))) if n else 0


def percentile(values, pct):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def layer_metrics(trace: dict, xml_bytes: int = 0) -> tuple[dict, list[float]]:
    """Per-layer values of one traced invocation, and its per-block
    clustering times in ms (pooled over invocations by the caller)."""
    spans = trace["spans"]
    busy: dict[str, float] = {}
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    info: dict[str, dict] = {}
    child_busy = [0.0] * len(spans)
    for name, _, _, parent, b, _ in spans:
        if parent >= 0:
            child_busy[parent] += b
    block_ms = []
    for i, (name, _, _, _, b, extra) in enumerate(spans):
        busy[name] = busy.get(name, 0.0) + b
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + b - child_busy[i]
        if extra:
            acc = info.setdefault(name, {})
            for k, v in extra.items():
                acc[k] = acc.get(k, 0) + v
        if name == "cluster.block":
            block_ms.append(1000.0 * b)

    def total(*names):
        return sum(busy.get(n, 0.0) for n in names)

    def count(name, key):
        return info.get(name, {}).get(key, 0)

    parse_s = busy.get("dblp_xml.parse", 0.0)
    reach_pubs = count("graph.reach", "pubs")
    tail = tail_percentile(len(block_ms))
    values = {
        "records.read_s": total("records.read"),
        "records.count": count("records.read", "items"),
        "dblp_xml.parse_s": parse_s,
        "dblp_xml.records": count("dblp_xml.parse", "items"),
        "dblp_xml.mb_per_s": xml_bytes / 1e6 / parse_s if parse_s else 0.0,
        "gold.load_s": total("gold.read", "gold.blocks", "gold.sample"),
        "gold.build_s": total("gold.build", "gold.write"),
        "graph.build_s": total("graph.build"),
        "graph.n_pubs": count("graph.build", "n_pubs"),
        "graph.n_authors": count("graph.build", "n_authors"),
        "graph.reach_calls": calls.get("graph.reach", 0),
        "graph.reach_s": total("graph.reach"),
        "graph.reach_pubs": reach_pubs,
        "graph.reach_member_ratio": (count("graph.reach", "members") / reach_pubs
                                     if reach_pubs else 0.0),
        "cluster.calls": calls.get("cluster.block", 0),
        "cluster.self_s": self_s.get("cluster.block", 0.0),
        "cluster.comparisons": count("cluster.block", "comparisons"),
        "cluster.block_ms_p50": percentile(block_ms, 50) if block_ms else 0.0,
        "cluster.block_ms_tail": percentile(block_ms, tail) if block_ms else 0.0,
        "cluster.block_ms_tail_pct": tail,
        "cluster.block_samples": len(block_ms),
        "community.simgraph_s": total("community.simgraph"),
        "community.simgraph_edges": count("community.simgraph", "edges"),
        "community.louvain_s": total("community.louvain"),
        "community.louvain_passes": count("community.louvain", "passes"),
        "community.modularity_s": total("community.modularity"),
        "community.modularity_calls": calls.get("community.modularity", 0),
        "community.refine_self_s": self_s.get("community.refine", 0.0),
        "bcubed.score_s": total("bcubed.block", "bcubed.corpus"),
        "bcubed.calls": calls.get("bcubed.block", 0) + calls.get("bcubed.corpus", 0),
        "cli.import_s": total("cli.import"),
        "cli.write_s": total("cli.write_tsv", "gold.write"),
        "cli.self_s": self_s.get("cli.main", 0.0),
    }
    missing = set(trace["missing"])
    for name, (_, _, needs) in LAYER_METRICS.items():
        if needs & missing:
            values.pop(name, None)
    return values, block_ms
