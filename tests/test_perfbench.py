"""The benchmark's own self-test, run against the library as it is.

``perfbench/selftest.py`` reads the library through its workloads and
tracer (``Indicatrix.hull_points``, ``SandwichIndicatrix.outer``,
``SolveInfo.params``, two solves in a traced pass), so a library change
that breaks that contract fails here and not only in a benchmark run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    done = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.rstrip().endswith("selftest passed")
