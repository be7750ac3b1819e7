"""The benchmark's smoke run passes against the library as it stands.

`perfbench/smoke.py` runs one round of every workload and its negative
checks through the same library names and call forms as the benchmark, so
a renamed name or a changed signature fails here.  It writes only to the
ignored `perfbench/out/`.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_smoke_run_passes():
    run = subprocess.run([sys.executable, str(ROOT / "perfbench" / "smoke.py")], cwd=ROOT,
                         capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stdout[-2000:] + run.stderr[-2000:]
    assert "all cases behave" in run.stdout
