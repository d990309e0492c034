"""Every demo script runs to completion against the current library."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import ctcfuse

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_zero(script, tmp_path):
    src = str(Path(ctcfuse.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, str(script)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_demos_found():
    # an empty glob would parametrize the test above away silently
    assert DEMOS
