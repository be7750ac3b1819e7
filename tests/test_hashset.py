"""Training and the oracle stay byte-identical: `tools/hashset.py` against
the committed set.

`tools/hashset.txt` holds the 26 run hashes (metrics.csv and checkpoint
bytes, eval_count) and the Gaussian oracle's residual hash, under `#` lines
naming the numpy and BLAS builds that made them.  Under other builds the
rounding may differ, so the test skips there.  A deliberate change of
training bytes or of the oracle's residuals is re-baselined by regenerating
the file with `python3 tools/hashset.py > tools/hashset.txt`; `git diff`
must then show only the lines the change meant to move (a change to the
oracle alone moves the oracle line alone), and the commit names each one.
"""

import difflib
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "tools" / "hashset.py"
COMMITTED = ROOT / "tools" / "hashset.txt"


def _split(text: str) -> tuple[list, list]:
    lines = text.splitlines()
    return ([ln for ln in lines if ln.startswith("#")],
            [ln for ln in lines if not ln.startswith("#")])


def test_hash_set_matches_committed():
    run = subprocess.run([sys.executable, str(SCRIPT)], cwd=ROOT,
                         capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    got_header, got = _split(run.stdout)
    want_header, want = _split(COMMITTED.read_text())
    if got_header != want_header:
        pytest.skip(f"hash set recorded under {'; '.join(want_header)}, "
                    f"running {'; '.join(got_header)}")
    assert len(want) == 27
    diff = "\n".join(difflib.unified_diff(want, got, "tools/hashset.txt", "running code",
                                          lineterm=""))
    assert got == want, f"training bytes changed:\n{diff}"
