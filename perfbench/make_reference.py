#!/usr/bin/env python3
"""Record reference outputs for the default seed of each workload.

    python3 perfbench/make_reference.py

Runs every workload once at ``run.DEFAULT_SEED`` and its standard sizes,
requires the invariant checks to pass, and writes per-unit partition
digests, BCubed triples and Louvain details to ``reference.json``. Later
runs on that seed compare every unit with it. Re-run only on purpose,
at a commit whose outputs are known to be right; ``ingest-xml`` needs no
reference because its expected output is known from the generator on
any seed.
"""

from __future__ import annotations

import json
import shutil
import sys

import run


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    out = {}
    for workload, sizes in run.SIZES.items():
        if workload == "ingest-xml":
            continue
        base = run.WORK / f"reference-{workload}"
        inputs = base / "inputs"
        inputs.mkdir(parents=True, exist_ok=True)
        try:
            setup = run.Setup(workload, run.DEFAULT_SEED, sizes, inputs)
            setup.reference = None
            result = run.invoke(setup, inputs, base / "inv", "probe")
            verdict = setup.check(base / "inv")
        finally:
            shutil.rmtree(base, ignore_errors=True)
        if result["rc"] or verdict.failed:
            print(f"{workload}: outputs fail the invariants, no reference written:",
                  *verdict.notes[:5], sep="\n  ", file=sys.stderr)
            return 1
        out[workload] = {"seed": run.DEFAULT_SEED, "sizes": sizes,
                         "outputs": verdict.reference}
        print(f"{workload}: {len(verdict.reference.get('units', {}))} units")
    (run.HERE / "reference.json").write_text(
        json.dumps(out, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
