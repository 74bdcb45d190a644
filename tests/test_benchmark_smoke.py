"""The benchmark's own smoke tests pass against the package in ``src/``.

``perfbench/smoke.py`` runs every workload at tiny sizes through the calls
the benchmark makes, so a change that breaks one of those calls (a renamed
function, a dropped keyword) fails here, not only when the benchmark runs.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_smoke_passes():
    work = ROOT / ".perfbench_work"
    before = set(work.glob("smoke-*")) if work.exists() else set()
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "smoke.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    # the smoke run removes its scratch directory when it ends
    after = set(work.glob("smoke-*")) if work.exists() else set()
    assert after <= before
