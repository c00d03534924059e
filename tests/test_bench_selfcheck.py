"""The benchmark's correctness gate runs with the tests.

``bench/selfcheck.py`` runs one round of each workload clean and once with a
planted wrong answer, through the same checks the benchmark applies: S
against an independent oracle, record sums and sweep trial counts.  Running
it here puts those checks on every test run, not only on benchmark runs.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_selfcheck_passes_clean_rounds_and_catches_planted_faults():
    src = str(ROOT / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, "bench/selfcheck.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert child.returncode == 0, child.stdout + child.stderr
    assert "all planted faults caught" in child.stdout
