#!/usr/bin/env python3
"""Run every registered experiment and collect the CSVs in one directory.

Equivalent to calling `wumetric run NAME --out DIR/NAME.csv` for each
registered name; exits nonzero if any experiment has a failing row.
"""

import argparse
import pathlib
import sys

from wumetric.cli import main as wumetric_main
from wumetric.experiments import EXPERIMENTS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out-dir", default="results", help="directory for the CSV files"
    )
    args = parser.parse_args(argv)

    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    failures = []
    for name in EXPERIMENTS:
        code = wumetric_main(["run", name, "--out", str(out_dir / f"{name}.csv")])
        if code != 0:
            failures.append((name, code))
    print(f"wrote {len(EXPERIMENTS)} CSV files to {out_dir}/")
    if failures:
        for name, code in failures:
            print(f"FAILED: {name} (exit {code})", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
