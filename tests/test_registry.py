"""The registry at its defaults, pinned byte for byte.

tests/data/registry holds the CSVs that `scripts/run_all_experiments.py`
writes with no settings; any changed cell fails.  After a change that moves
cells on purpose, regenerate the files with that script and list the moved
cells with `scripts/diff_registry.py`.
"""

import shutil
from pathlib import Path

from helpers import script

SNAPSHOT = Path(__file__).resolve().parent / "data" / "registry"
diff_registry = script("diff_registry")
run_all_experiments = script("run_all_experiments")


def changed_cells(old: Path, new: Path, capsys) -> str:
    """What diff_registry prints for the CSVs of old against those of new."""
    capsys.readouterr()
    for path in sorted(old.glob("*.csv")):
        diff_registry.diff_tables(
            path.stem, diff_registry.read(path), diff_registry.read(new / path.name)
        )
    return capsys.readouterr().out


def test_registry_matches_the_snapshot(tmp_path, capsys):
    assert run_all_experiments.main(["--out-dir", str(tmp_path)]) == 0
    names = sorted(p.name for p in SNAPSHOT.glob("*.csv"))
    assert sorted(p.name for p in tmp_path.iterdir()) == names and len(names) == 8
    assert changed_cells(SNAPSHOT, tmp_path, capsys) == ""
    for name in names:
        assert (tmp_path / name).read_bytes() == (SNAPSHOT / name).read_bytes(), name


def test_a_hand_edited_cell_fails_the_comparison(tmp_path, capsys):
    edited = tmp_path / "edited"
    shutil.copytree(SNAPSHOT, edited)
    path = edited / "rem_two.csv"
    text = path.read_text()
    # the expected 1/sqrt(3) of the bounded row, its last digits changed
    path.write_text(text.replace(",0.57735026918962584,", ",0.57735026918962595,"))
    assert changed_cells(SNAPSHOT, edited, capsys).split("\t")[:5] == [
        "rem_two", "1 (kind=bounded)", "expected", "0.57735026918962584",
        "0.57735026918962595",
    ]
