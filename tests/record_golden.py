#!/usr/bin/env python3
"""Rewrite this environment's entry of golden.json: the digests of every file the golden run writes.

    python3 tests/record_golden.py

``tests/test_golden.py`` compares every run against these digests, under
a key naming the numpy version, the Python version and the machine;
entries for other environments are kept. Re-record only for a change that
is meant to alter the outputs, and say so with it.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import ctcfuse  # noqa: E402,F401  (pins the thread pools before numpy loads)
import test_golden  # noqa: E402


def main() -> int:
    start = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            digests = test_golden.golden_run(Path(tmp))
        finally:
            os.chdir(start)
    recorded = json.loads(test_golden.GOLDEN.read_text()) if test_golden.GOLDEN.exists() else {}
    recorded[test_golden.env_key()] = digests
    test_golden.GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests for {test_golden.env_key()} to {test_golden.GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
