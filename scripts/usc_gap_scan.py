#!/usr/bin/env python3
"""Map where the volume-ratio certificates actually certify.

Scans the contradiction certificate on gn = G2 x Delta^(n-2) over an
(x, t) grid, for n = 2 and for --n, and prints, per t, the solver ratio at
each x together with the x -> 0 limit.  Ratios above 1 certify that no
enclosing-simplex volume can be upper semicontinuous at the degenerate
base point.  As in `wumetric run g2_usc`, n = 2 is the two-variable
certificate on G2 = {|z1|(1 + |z2|) < 1} pinned at t^2 (t > 1); larger n
pin t itself (t > n/2).  Each cell is marked `a` or `s` by the regime its
certificate reports: both certificate constraints active, or the first
one slack.  The limit is `gn_ratio(n, 0, pin)`, which switches formula at
t = n - 1.
"""

import argparse

from wumetric.wu import certify_contradiction_gn, gn_ratio


def scan(n, x_grid, t_grid) -> None:
    pins = "t^2" if n == 2 else "t"
    print(f"# {n}-variable certificate pinned at {pins} (solver ratio, limit as x -> 0)")
    for t in t_grid:
        pin = t * t if n == 2 else t
        cells = []
        for x in x_grid:
            rep = certify_contradiction_gn(n, x, pin)
            cells.append(f"{rep.ratio:.6f}{rep.regime[0]}{'*' if rep.certified else ' '}")
        print(f"t={t:<4.2f} limit={gn_ratio(n, 0.0, pin):.6f}  " + " ".join(cells))
    print("(* = certified: solver ratio > 1; a/s = active/slack regime)\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=3, help="dimension scanned after n = 2")
    parser.add_argument(
        "--x-grid",
        default="0.1,0.01,0.001,0.0001",
        help="comma-separated base-point offsets",
    )
    parser.add_argument(
        "--t-grid",
        default="1.1,1.3,1.6,2.0,3.0",
        help="comma-separated t values; each n scans those above n/2",
    )
    args = parser.parse_args(argv)
    if args.n < 2:
        parser.error("--n must be >= 2")
    x_grid = [float(v) for v in args.x_grid.split(",")]
    t_grid = [float(v) for v in args.t_grid.split(",")]
    for n in sorted({2, args.n}):
        scan(n, x_grid, [t for t in t_grid if t > n / 2.0])
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
