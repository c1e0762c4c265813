"""The CI workflow against the files it must agree with.

.github/workflows/tier1.yml is read as text: its Tier-1 step must run the
"Tier-1 verify" command of ROADMAP.md, and its Python matrix must include
the `requires-python` floor of pyproject.toml.  Under the pytest settings
of pyproject.toml, a failing hypothesis test must fail alone, not end the
run.
"""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()


def test_workflow_runs_the_roadmap_tier1_command():
    roadmap = (ROOT / "ROADMAP.md").read_text()
    command = re.search(r"^\*\*Tier-1 verify:\*\* `([^`]+)`$", roadmap, re.M)
    step = re.search(r"^ *- name: Tier-1\n *run: (.+)$", WORKFLOW, re.M)
    assert command and step
    assert step.group(1) == command.group(1)


def test_workflow_matrix_includes_the_python_floor():
    floor = re.search(r'^requires-python = ">=(\d+\.\d+)"$', (ROOT / "pyproject.toml").read_text(), re.M)
    matrix = re.search(r"^ *python-version: \[(.*)\]$", WORKFLOW, re.M)
    assert floor and matrix
    assert floor.group(1) == "3.10"
    assert floor.group(1) in re.findall(r'"([^"]+)"', matrix.group(1))


FAILING_FILE = """
import warnings

from hypothesis import given, settings, strategies as st


@settings(max_examples=5, database=None, deadline=None)
@given(st.integers())
def test_fails(x):
    assert x != x


def test_warns():
    warnings.warn("every other warning stays an error", UserWarning)


def test_runs_after():
    pass
"""


def test_a_failing_hypothesis_test_does_not_end_the_run(tmp_path):
    # the hypothesis plugin reports a failing example from a hook that hits
    # a DeprecationWarning of mypy_extensions; as an error it ended the
    # session with INTERNALERROR, and no later test ran
    (tmp_path / "test_failing.py").write_text(FAILING_FILE)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_failing.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert done.returncode == 1
    assert "2 failed, 1 passed" in done.stdout
    assert "FAILED test_failing.py::test_fails" in done.stdout
    assert "FAILED test_failing.py::test_warns - UserWarning" in done.stdout
