"""scripts/diff_registry.py on small hand-made registry directories."""

from pathlib import Path

import pytest
from helpers import script

diff_registry = script("diff_registry")

HEADER = "case,a,rel_err,branch,ok\n"
ROWS = "x,1;2,1e-10,active,true\ny,4;8,0,slack,true\n"


def write(root: Path, name: str, files: dict[str, str]) -> Path:
    folder = root / name
    folder.mkdir()
    for stem, text in files.items():
        (folder / f"{stem}.csv").write_text(text)
    return folder


def run(tmp_path, old: dict[str, str], new: dict[str, str], capsys):
    code = diff_registry.main(
        [str(write(tmp_path, "old", old)), str(write(tmp_path, "new", new))]
    )
    lines = [line.split("\t") for line in capsys.readouterr().out.splitlines()]
    return code, lines


def test_identical_directories_print_nothing(tmp_path, capsys):
    files = {"alpha": HEADER + ROWS, "beta": HEADER + ROWS}
    assert run(tmp_path, files, files, capsys) == (0, [])


def test_numeric_changes_are_listed_with_their_relative_change(tmp_path, capsys):
    new = HEADER + "x,1;2.000002,1e-10,active,true\ny,4;8,1e-16,slack,true\n"
    code, lines = run(tmp_path, {"alpha": HEADER + ROWS}, {"alpha": new}, capsys)
    assert code == 0
    assert lines == [
        ["alpha", "0 (case=x)", "a", "1;2", "1;2.000002", "1e-06"],
        ["alpha", "1 (case=y)", "rel_err", "0", "1e-16", "inf"],
    ]


@pytest.mark.parametrize(
    "new_rows, column",
    [
        ("x,1;2,1e-10,active,false\ny,4;8,0,slack,true\n", "ok"),
        ("x,1;2,1e-10,slack,true\ny,4;8,0,slack,true\n", "branch"),
        ("x,1;2,1e-10,active,true\ny,4;8;16,0,slack,true\n", "a"),
    ],
)
def test_flag_and_text_changes_fail(tmp_path, capsys, new_rows, column):
    code, lines = run(tmp_path, {"alpha": HEADER + ROWS}, {"alpha": HEADER + new_rows}, capsys)
    assert code == 1
    assert [(line[2], line[-1]) for line in lines] == [(column, "-")]


def test_structural_changes_fail(tmp_path, capsys):
    old = {"alpha": HEADER + ROWS, "beta": HEADER + ROWS}
    new = {"alpha": HEADER + ROWS.splitlines(keepends=True)[0], "gamma": HEADER + ROWS}
    code, lines = run(tmp_path, old, new, capsys)
    assert code == 1
    assert lines == [
        ["beta", "file", "present", "missing"],
        ["gamma", "file", "missing", "present"],
        ["alpha", "rows", "2", "1"],
    ]


def test_header_changes_list_columns_and_still_compare_shared_cells(tmp_path, capsys):
    # rel_err dropped, gap added at the end, and one shared cell moved
    new = "case,a,branch,ok,gap\nx,1;2,active,true,0\ny,4;8.000008,slack,true,0\n"
    code, lines = run(tmp_path, {"alpha": HEADER + ROWS}, {"alpha": new}, capsys)
    assert code == 1
    assert lines == [
        ["alpha", "column", "rel_err", "present", "missing"],
        ["alpha", "column", "gap", "missing", "present"],
        ["alpha", "1 (case=y)", "a", "4;8", "4;8.000008", "1e-06"],
    ]


def test_reordered_columns_are_matched_by_name(tmp_path, capsys):
    new = "case,rel_err,a,branch,ok\nx,1e-10,1;2,active,true\ny,0,4;8,slack,true\n"
    code, lines = run(tmp_path, {"alpha": HEADER + ROWS}, {"alpha": new}, capsys)
    assert code == 1
    assert lines == [["alpha", "header", str(HEADER.strip().split(",")),
                      str(new.splitlines()[0].split(","))]]
