"""Regenerate reference.json: what the correctness gate pins for each run.

    python3 perfbench/capture_reference.py [catalog_sweep|noise_replica|many_objectives ...]

Runs one pass of each named reference-checked part of a workload
(default: all of them) for every seed variant with the code in ``src/`` and writes its
table; the tables of other workloads are kept.  Capture only from a commit
whose records are known good; a perf change must reproduce the reference,
not regenerate it.
"""

import json
import os
import sys

import run  # first: puts src/ on sys.path for workloads
from workloads import REFERENCE, REFERENCED, VARIANTS, load_reference


def main(names):
    table = load_reference() if os.path.exists(REFERENCE) else {}
    for name in names:
        cells = table[name] = {}
        for variant in range(VARIANTS):
            workload = REFERENCED[name](variant, run.ROOT, run.OUT)
            for _, fn in workload.steps():
                for r in fn():
                    if r.record is not None:
                        cells[r.key] = workload.reference_entry(r.record)
            print(f"{name} variant {variant}: {len(cells)} cells", file=sys.stderr)
    run._cleanup_exports()
    with open(REFERENCE, "w") as fh:
        json.dump(table, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    os.makedirs(run.OUT, exist_ok=True)
    main(sys.argv[1:] or REFERENCED)
