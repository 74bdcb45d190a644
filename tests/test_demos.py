"""Every demo runs to completion against the package in ``src/``.

Each demo is a separate script, so each runs in its own interpreter with
temporary files kept under the test's own directory, which the demo must
leave clean.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    # a demo's scratch directories go when it exits
    assert list(tmp_path.glob("*-demo-*")) == []
    if demo.name == "reproducibility.py":
        # each check the demo makes prints "<claim>: True" when it holds
        lines = proc.stdout.splitlines()
        assert [line for line in lines if line.endswith(": False")] == []
        assert sum(line.endswith(": True") for line in lines) == 4
