#!/usr/bin/env python3
"""Rewrite this environment's entry of golden.json: the digests of every file the golden run writes.

    python3 tests/record_golden.py

It prints each path whose digest changed, was added or was removed under
this environment's key, and leaves golden.json untouched when none did.

``tests/test_golden.py`` compares every run against these digests, under
a key naming the numpy version, the Python version and the machine;
entries for other environments are kept. Re-record only for a change that
is meant to alter the outputs, and say so with it.
"""

from __future__ import annotations

import contextlib
import io
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
        try:  # the commands' own output would bury the report below
            with contextlib.redirect_stdout(io.StringIO()):
                digests = test_golden.golden_run(Path(tmp))
        finally:
            os.chdir(start)
    key = test_golden.env_key()
    recorded = json.loads(test_golden.GOLDEN.read_text()) if test_golden.GOLDEN.exists() else {}
    before = recorded.get(key, {})
    diff = [("changed", p) for p in sorted(digests.keys() & before.keys()) if digests[p] != before[p]]
    diff += [("added", p) for p in sorted(digests.keys() - before.keys())]
    diff += [("removed", p) for p in sorted(before.keys() - digests.keys())]
    for what, path in diff:
        print(f"{what} {path}")
    if not diff:
        print(f"{len(digests)} digests for {key} unchanged; {test_golden.GOLDEN} left as it was")
        return 0
    recorded[key] = digests
    test_golden.GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests for {key} to {test_golden.GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
