#!/usr/bin/env python3
"""Pipeline benchmark for the nameclust CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A single closed-loop client runs the CLI in a child process with
``--workers 1``, one invocation after another, for ``--seconds`` seconds.
Each invocation gets fresh copies of the seeded inputs and its outputs
are checked. ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced invocations and reports the per-layer
metrics. The last line of stdout is the JSON result; the lines before it
are a table for people. Details of the run (environment, calibration
loop, every invocation) go to ``.perfbench-work/last-<workload>-trace<t>.json``.

Run from the root of a source checkout; the package is imported from
``src/``, nothing is installed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import outcheck
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
DEFAULT_SEED = 1
# a hung child is killed this long after the run started, so that the
# benchmark itself ends within 180 s
KILL_AFTER_S = 160
THRESHOLDS = [1, 3]

WORKLOADS = {
    "run-large": "run at t=1,3 on few large blocks (criterion-5 shape): "
                 "the per-block pair loop and graph reach dominate",
    "common-names": "common-names refinement of blocks over 200 pubs: the only "
                    "workload where similarity graph, Louvain and modularity run",
    "run-sample": "run on a sample of a quarter of many small blocks: loading and "
                  "graph build dominate, per-block fixed cost shows",
    "ingest-xml": "ingest of gzipped DBLP-shaped XML with entities and www records: "
                  "the only workload that parses XML",
}

# Sizes keep one invocation at about 1.5-3 s on a 2-core Xeon VM so that a
# 25 s run holds about ten invocations and reports their median.
SIZES = {
    "run-large": {"blocks": 12, "records": 4860, "pairs": 1_050_000},
    "common-names": {"blocks": 8, "records": 3240, "pairs": 700_000, "min_block_size": 200},
    "run-sample": {"blocks": 1600, "sample": 400},
    "ingest-xml": {"blocks": 1000},
}

END_TO_END = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "records_per_s": ("1/s", "higher"),
}
# printed for people, not in the JSON result: absent on some workloads or 0
INFO = {
    "pairs_per_s": ("1/s", "higher"),
    "failed_frac": ("ratio", "lower"),
    "bcubed_f_t1": ("1", "higher"),
    "bcubed_f_t3": ("1", "higher"),
    "bcubed_f_refined": ("1", "higher"),
}


class Setup:
    """A workload's inputs for one seed, and how to run and check it."""

    def __init__(self, workload, seed, sizes, inputs: Path):
        import corpora

        self.workload, self.files = workload, []
        self.xml_bytes = 0
        self.reference = _load_reference(workload, seed, sizes)
        if workload in ("run-large", "common-names"):
            records = corpora.balanced_large_corpus(seed, sizes["blocks"], sizes["records"],
                                                    sizes["pairs"])
        elif workload == "run-sample":
            records = corpora.small_corpus(seed, sizes["blocks"])
        if workload == "ingest-xml":
            expected = corpora.dblp_records(seed, sizes["blocks"])
            gold = corpora.expected_gold(expected)
            self.xml_bytes = corpora.write_dblp_xml(expected, inputs / "dblp.xml.gz")
            self.files = ["dblp.xml.gz"]
            self.n_records = len(expected)
            self.argv = lambda d: ["ingest", "--input", str(d / "dblp.xml.gz"),
                                   "--records-out", str(d / "out" / "records.jsonl"),
                                   "--gold-out", str(d / "out" / "gold.json")]
            self.check = lambda d: outcheck.check_ingest(
                d / "out" / "records.jsonl", d / "out" / "gold.json", expected, gold)
            return
        corpora.write_corpus(records, inputs / "records.jsonl", inputs / "gold.json")
        self.files = ["records.jsonl", "gold.json"]
        self.n_records = len(records)
        common = ["--records", "records.jsonl", "--gold", "gold.json", "--out-dir", "out",
                  "--workers", "1"]
        if workload == "common-names":
            size = sizes["min_block_size"]
            self.argv = lambda d: ["common-names", *common, "--min-block-size", str(size)]
            self.check = lambda d: outcheck.check_common_names(
                d / "out", d / "gold.json", size, self.reference)
            return
        sample = sizes.get("sample")
        extra = ["--sample-count", str(sample)] if sample else []
        self.argv = lambda d: ["run", *common, *extra]
        self.check = lambda d: outcheck.check_run(
            d / "out", d / "gold.json", THRESHOLDS, sample, self.reference)


def _load_reference(workload, seed, sizes):
    """Reference outputs of this workload, if they were made for this seed
    and these sizes."""
    path = HERE / "reference.json"
    if not path.exists():
        return None
    ref = json.loads(path.read_text(encoding="utf-8")).get(workload)
    if ref is None or ref["seed"] != seed or ref["sizes"] != sizes:
        return None
    return ref["outputs"]


def invoke(setup: Setup, inputs: Path, d: Path, mode: str, kill_at=None) -> dict:
    """One CLI invocation in a fresh directory; returns its measurements.
    The child is killed at monotonic time ``kill_at`` if still running."""
    if d.exists():
        shutil.rmtree(d)
    (d / "out").mkdir(parents=True)
    for name in setup.files:
        shutil.copyfile(inputs / name, d / name)
    env = dict(os.environ, PYTHONPATH=str(SRC), HOME=str(d), TMPDIR=str(d))
    env.pop("PYTHONHASHSEED", None)  # let hash order vary, as it does for users
    marks = d / f"{mode}.json"
    cmd = [sys.executable, str(HERE / "child.py"), mode, str(marks), "--", *setup.argv(d)]
    with open(d / "stdout", "wb") as out, open(d / "stderr", "wb") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=d, env=env, stdout=out, stderr=err)
        timeout = KILL_AFTER_S if kill_at is None else max(1.0, kill_at - t0)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    verdict = setup.check(d)
    probe = json.loads(marks.read_text()) if marks.exists() else {}
    failed = verdict.attempted if proc.returncode else min(len(verdict.failed),
                                                            verdict.attempted)
    run = {
        "mode": mode,
        "rc": proc.returncode,
        "wall_s": wall,
        "setup_s": probe["first_unit"] - t0 if "first_unit" in probe else wall,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "attempted": verdict.attempted,
        "failed": failed,
        "float_drift_units": len(verdict.drift),
        "notes": verdict.notes,
        "quality": verdict.quality,
        "kernel": probe.get("kernel"),
    }
    if proc.returncode:
        run["stderr"] = (d / "stderr").read_text(errors="replace")[-2000:]
    if mode == "trace":
        run["trace"] = probe
    return run


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: host speed, not a metric."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i % 7
    return time.perf_counter() - t0


def environment(kernel) -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), None)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu, "kernel": kernel}


def run_workload(workload, seed, seconds, trace, sizes=None) -> tuple[dict, dict]:
    """Measure one workload; returns the result object and run details."""
    sizes = sizes or SIZES[workload]
    kill_at = time.monotonic() + KILL_AFTER_S
    base = WORK / f"{workload}-{os.getpid()}"
    inputs = base / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    try:
        calibration_s = calibrate()
        setup = Setup(workload, seed, sizes, inputs)
        runs = []
        durations = []
        deadline = time.monotonic() + seconds
        while True:
            t0 = time.monotonic()
            runs.append(invoke(setup, inputs, base / "inv", "probe", kill_at))
            if trace:
                runs.append(invoke(setup, inputs, base / "inv", "trace", kill_at))
            durations.append(time.monotonic() - t0)
            if time.monotonic() + statistics.median(durations) > deadline:
                break
    finally:
        shutil.rmtree(base, ignore_errors=True)

    plain = [r for r in runs if r["mode"] == "probe"]

    def med(key, rs=plain):
        return statistics.median(r[key] for r in rs)

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    quality = plain[-1]["quality"]
    info = {
        "failed_frac": failed / attempted if attempted else 1.0,
        **{k: v for k, v in quality.items() if k.startswith("bcubed")},
    }
    if "pairs" in quality:
        info["pairs_per_s"] = statistics.median(quality["pairs"] / r["wall_s"] for r in plain)
    if trace:
        traced = [r for r in runs if r["mode"] == "trace"]
        per_inv, block_ms = [], []
        for r in traced:
            values, ms = tracer.layer_metrics(r.pop("trace"), setup.xml_bytes)
            per_inv.append(values)
            block_ms.extend(ms)
        values = {k: statistics.median(v[k] for v in per_inv) for k in per_inv[0]}
        if "cluster.block_ms_p50" in values and block_ms:
            values["cluster.block_samples"] = len(block_ms)
            values["cluster.block_ms_tail_pct"] = tracer.tail_percentile(len(block_ms))
            values["cluster.block_ms_p50"] = tracer.percentile(block_ms, 50)
            values["cluster.block_ms_tail"] = tracer.percentile(
                block_ms, values["cluster.block_ms_tail_pct"])
        values["trace.overhead_s"] = med("wall_s", traced) - med("wall_s")
        metrics = {k: {"value": v, "unit": tracer.LAYER_METRICS[k][0]}
                   for k, v in values.items()}
    else:
        values = {
            "wall_s": med("wall_s"),
            "setup_s": med("setup_s"),
            "peak_rss_mb": med("peak_rss_mb"),
            "records_per_s": statistics.median(setup.n_records / r["wall_s"] for r in plain),
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k][0]} for k, v in values.items()}
    result = {"correct": failed == 0 and all(r["rc"] == 0 for r in runs),
              "attempted": attempted, "failed": failed, "metrics": metrics}
    details = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "sizes": sizes, "input_records": setup.n_records, "xml_bytes": setup.xml_bytes,
        "calibration_s": calibration_s, "environment": environment(plain[0]["kernel"]),
        "float_drift_units": sum(r["float_drift_units"] for r in runs),
        "info": info, "invocations": runs,
    }
    return result, details


def print_table(result, details) -> None:
    env = details["environment"]
    print(f"workload {details['workload']}  seed {details['seed']}  "
          f"invocations {len(details['invocations'])}  "
          f"input records {details['input_records']}")
    print(f"host: {env['cpu']}, {env['nproc']} cpus, python {env['python']}, "
          f"numpy {env['numpy']}, scipy {env['scipy']}, kernel {env['kernel']}; "
          f"calibration loop {details['calibration_s']:.3f} s")
    units = {**END_TO_END, **INFO, **{k: v[:2] for k, v in tracer.LAYER_METRICS.items()}}
    rows = [(k, m["value"], *units[k]) for k, m in result["metrics"].items()]
    rows += [(k, v, *units.get(k, ("count", "higher"))) for k, v in details["info"].items()]
    for name, value, unit, better in rows:
        print(f"  {name:<28} {value:>14.6g} {unit:<10} ({better} is better)")
    print(f"  check.float_drift_units      {details['float_drift_units']:>14d}")
    notes = [n for r in details["invocations"] for n in r["notes"]]
    for note in notes[:10]:
        print(f"  check failed: {note}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "nameclust" / "cli.py").is_file():
        print(f"perfbench: no package source at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result, details = run_workload(args.workload, args.seed, args.seconds, args.trace)
    WORK.mkdir(exist_ok=True)
    (WORK / f"last-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(details, indent=1, default=str), encoding="utf-8")
    print_table(result, details)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
