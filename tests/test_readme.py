"""Every python code block of README.md runs as written."""

import pathlib
import re

import pytest

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)


def test_readme_has_its_python_examples():
    # the quick start with wu_metric and the min_vol_simplex example
    assert any("wu_metric(" in b for b in BLOCKS)
    assert any("min_vol_simplex(" in b for b in BLOCKS)


@pytest.mark.parametrize("source", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_python_block_runs(source):
    exec(compile(source, str(README), "exec"), {})
