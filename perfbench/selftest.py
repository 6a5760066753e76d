#!/usr/bin/env python3
"""Fast self-check of the benchmark harness on tiny inputs.

    python3 perfbench/selftest.py

Checks that every workload reports every metric with correct outputs,
that the output checks catch a corrupted output and a reference
mismatch, that a wrapped name missing from the package makes its
metrics absent instead of crashing, and that generators are timed
across their iteration. Takes about ten seconds.
"""

from __future__ import annotations

import json
import shutil
import sys
import time

import run
import tracer

TINY = {
    "run-large": {"blocks": 2, "records": 810, "pairs": 170_000},
    "common-names": {"blocks": 2, "records": 810, "pairs": 170_000, "min_block_size": 200},
    "run-sample": {"blocks": 40, "sample": 10},
    "ingest-xml": {"blocks": 20},
}


def check_workloads():
    for workload, sizes in TINY.items():
        for trace in (0, 1):
            result, details = run.run_workload(workload, 3, 0, trace, sizes)
            assert result["correct"], (workload, trace, details["invocations"])
            assert result["failed"] == 0 < result["attempted"], result
            names = tracer.LAYER_METRICS if trace else run.END_TO_END
            assert set(result["metrics"]) == set(names), (workload, set(result["metrics"]))
            if not trace:
                assert all(m["value"] > 0 for m in result["metrics"].values()), result


def check_detection():
    base = run.WORK / "selftest"
    inputs = base / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    try:
        setup = run.Setup("run-large", 3, TINY["run-large"], inputs)
        inv = base / "inv"
        assert run.invoke(setup, inputs, inv, "probe")["failed"] == 0
        tsv = inv / "out" / "clusters_t3.tsv"
        rows = tsv.read_text(encoding="utf-8").splitlines()
        block, rid, _, gold = rows[1].split("\t")
        rows[1] = "\t".join([block, rid, rid + "-moved", gold])
        tsv.write_text("\n".join(rows) + "\n", encoding="utf-8")
        verdict = setup.check(inv)
        assert (block, 3) in verdict.failed, verdict.notes
        assert (block, 1) not in verdict.failed, verdict.notes

        setup = run.Setup("run-large", run.DEFAULT_SEED, run.SIZES["run-large"], inputs)
        assert setup.reference is not None, "reference.json does not match SIZES"
        assert run.invoke(setup, inputs, inv, "probe")["failed"] == 0
        unit = next(iter(setup.reference["units"]))
        setup.reference["units"][unit]["digest"] = "0" * 16
        assert len(setup.check(inv).failed) == 1
    finally:
        shutil.rmtree(base, ignore_errors=True)


def check_tracer():
    rec = tracer.Recorder()
    saved = tracer.WRAPS
    tracer.WRAPS = saved + (("nameclust.cluster", "no_such_function", "graph.reach"),)
    try:
        rec.install()
    finally:
        tracer.WRAPS = saved
        import importlib

        for module in {m for m, _, _ in saved}:
            importlib.reload(sys.modules[module])
    assert rec.missing == ["graph.reach"], rec.missing
    values, _ = tracer.layer_metrics({"spans": [], "missing": rec.missing})
    assert "graph.reach_s" not in values and "cluster.self_s" not in values
    assert "cluster.calls" in values

    def slow_items():
        for i in range(3):
            time.sleep(0.02)
            yield i

    rec = tracer.Recorder()
    with rec.span("cli.main"):
        for _ in rec._wrap_gen("records.read", slow_items)():
            time.sleep(0.05)
    spans = {s[0]: s for s in rec.spans}
    busy = spans["records.read"][4]
    assert 0.06 <= busy < 0.1, busy
    assert spans["records.read"][5] == {"items": 3}
    values, _ = tracer.layer_metrics(json.loads(json.dumps({"spans": rec.spans,
                                                            "missing": []})))
    assert values["cli.self_s"] >= 0.15, values["cli.self_s"]


def main() -> int:
    if not (run.SRC / "nameclust" / "cli.py").is_file():
        print(f"selftest: no package source at {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    for check in (check_tracer, check_detection, check_workloads):
        t0 = time.monotonic()
        check()
        print(f"ok {check.__name__} ({time.monotonic() - t0:.1f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
