"""The CI workflow against the files it must agree with.

.github/workflows/tier1.yml is read as text: its Tier-1 step must run the
"Tier-1 verify" command of ROADMAP.md, and its Python matrix must include
the `requires-python` floor of pyproject.toml.
"""

import re
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
