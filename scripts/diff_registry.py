#!/usr/bin/env python3
"""List every cell that differs between two directories of registry CSVs.

    python scripts/diff_registry.py OLD_DIR NEW_DIR

Both directories are as written by `scripts/run_all_experiments.py`, one
NAME.csv per experiment.  Each changed cell prints as one tab-separated
line: experiment, row (index and first cell), column, old value, new value
and, for numbers, the relative change |new - old| / |old| (the largest over
the components of a ';'-joined vector).  When a header changed, each
dropped or added column prints as one line, and the cells of the columns
both headers share are still compared, matched by name.  Exits 1 if an
`ok` flag, a non-numeric cell, a header, a row count or the set of files
changed, and 0 otherwise, also when numbers changed.
"""

import argparse
import csv
import math
import pathlib
import sys


def numbers(cell: str) -> list[float] | None:
    """The components of a numeric cell, or None if the cell is not numeric."""
    try:
        return [float(part) for part in cell.split(";")]
    except ValueError:
        return None


def relative_change(old: list[float], new: list[float]) -> float:
    worst = 0.0
    for a, b in zip(old, new):
        if a == b or (math.isnan(a) and math.isnan(b)):
            continue
        rel = abs(b - a) / abs(a) if a != 0.0 else math.inf
        worst = max(worst, math.inf if math.isnan(rel) else rel)
    return worst


def read(path: pathlib.Path) -> list[list[str]]:
    with path.open(newline="") as fh:
        return list(csv.reader(fh))


def diff_tables(name: str, old: list[list[str]], new: list[list[str]]) -> bool:
    """Print the changed cells of one experiment; True if only numbers changed."""
    if not old or not new:
        print(f"{name}\theader\t{old[:1]}\t{new[:1]}")
        return False
    header, fresh = old[0], new[0]
    for column in header:
        if column not in fresh:
            print(f"{name}\tcolumn\t{column}\tpresent\tmissing")
    for column in fresh:
        if column not in header:
            print(f"{name}\tcolumn\t{column}\tmissing\tpresent")
    if header != fresh and sorted(header) == sorted(fresh):
        print(f"{name}\theader\t{header}\t{fresh}")
    if len(old) != len(new):
        print(f"{name}\trows\t{len(old) - 1}\t{len(new) - 1}")
        return False
    numeric_only = header == fresh
    for row, (was, now) in enumerate(zip(old[1:], new[1:])):
        label = f"{row} ({header[0]}={was[0]})" if was else str(row)
        now_cells = dict(zip(fresh, now))
        for column, a in zip(header, was):
            b = now_cells.get(column, a)
            if a == b:
                continue
            x, y = numbers(a), numbers(b)
            if column != "ok" and x is not None and y is not None and len(x) == len(y):
                print(f"{name}\t{label}\t{column}\t{a}\t{b}\t{relative_change(x, y):.3g}")
            else:
                print(f"{name}\t{label}\t{column}\t{a}\t{b}\t-")
                numeric_only = False
    return numeric_only


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_dir", type=pathlib.Path)
    parser.add_argument("new_dir", type=pathlib.Path)
    args = parser.parse_args(argv)
    old = {p.stem: p for p in args.old_dir.glob("*.csv")}
    new = {p.stem: p for p in args.new_dir.glob("*.csv")}
    clean = old.keys() == new.keys()
    for name in sorted(old.keys() ^ new.keys()):
        print(f"{name}\tfile\t{'present' if name in old else 'missing'}\t"
              f"{'present' if name in new else 'missing'}")
    for name in sorted(old.keys() & new.keys()):
        clean &= diff_tables(name, read(old[name]), read(new[name]))
    return 0 if clean else 1


if __name__ == "__main__":
    sys.exit(main())
