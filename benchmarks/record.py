#!/usr/bin/env python3
"""Rewrite expected.json: each workload's outputs on its fixed reference inputs.

    python3 benchmarks/record.py

The benchmark compares every run against these values. Re-record only
for a change that is meant to alter the numbers, and say so with it.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    run.prepare()
    import workloads

    recorded = {}
    for name, workload in workloads.WORKLOADS.items():
        recorded[name] = workload.reference_outputs()
    # one line per workload keeps a re-recording reviewable as a diff
    lines = [f" {json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(recorded.items())]
    run.EXPECTED.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {run.EXPECTED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
