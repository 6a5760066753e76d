"""The benchmark in perfbench/ wraps package functions by module global.

A renamed or moved function would leave its per-layer metrics silently
blank there, so this checks every wrapped name here. It only reads
perfbench/tracer.py, loaded by path (the harness is not a package).
A wrapped name the pipeline does not call through its module global
reads 0 there, so the refinement's calls are checked too.
"""

import collections
import importlib
import importlib.util
import inspect
from pathlib import Path

from conftest import rec
from nameclust import community
from nameclust.cluster import cluster_block
from nameclust.gold import build_blocks, build_gold_standard
from nameclust.graph import build_graph

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_is_a_package_callable():
    tracer = _load_tracer()
    assert tracer.WRAPS
    for module, attr, span in tracer.WRAPS:
        assert module.split(".")[0] == "nameclust", module
        fn = getattr(importlib.import_module(module), attr, None)
        assert callable(fn), f"{module}.{attr} ({span}) is gone"
        if span in tracer.GENERATORS:
            # timed across its iteration, so it must stay a generator
            assert inspect.isgeneratorfunction(fn), f"{module}.{attr}"


def test_refinement_calls_the_wrapped_community_names(monkeypatch):
    names = ("build_similarity_graph", "louvain", "modularity")
    calls = collections.Counter()
    for name in names:
        def counted(*args, _name=name, _fn=getattr(community, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(community, name, counted)
    # the two members share a co-author (one edge) or do not (no edge)
    for coauthor, modularity_calls in (("A A", 1), ("B B", 0)):
        calls.clear()
        records = [rec("p1", "X Y 0001", "A A"), rec("p2", "X Y 0002", coauthor)]
        graph = build_graph(records)
        (block,) = build_blocks(build_gold_standard(records))
        (base,) = cluster_block(block, graph, [3])
        _, report = community.refine_with_report(block, base, graph)
        assert [calls[n] for n in names] == [1, 1, modularity_calls], coauthor
        assert (report["q_before"] is None) == (report["q_after"] is None) == \
            (modularity_calls == 0)
