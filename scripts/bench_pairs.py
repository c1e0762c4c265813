#!/usr/bin/env python3
"""Paired benchmark runs of this checkout against a parent revision.

    python scripts/bench_pairs.py --workload cloud_solve --parent HEAD~1 \\
        --pairs 10 --seed 711 --seconds 20

Each pair runs `perfbench/run.py --workload W --seed S --seconds T --trace 0`
once in this checkout and once in a clean copy of the parent revision
(`git archive`, extracted to a temporary directory that is removed after),
both on the same seed; pair i uses seed S + i, and the side that runs first
alternates.  Then `--trace-pairs` pairs of traced runs (`--trace 1`, seeds
after those of the untraced pairs) give the per-layer split.  Prints, for
each end-to-end and per-layer metric of `BENCHMARK.json`, the median and
quartiles of each side and the pairs the change won, and writes
`BENCH_<workload>.json` with every run of both sides, both revisions, the
seeds, the run length and the line counts of `src/` on each side.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import pathlib
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs: list[dict], metrics: list[dict]) -> dict[str, dict]:
    """Per metric: each side's quartiles and the pairs the change won.

    pairs: one {"parent": {metric: value}, "change": {metric: value}} per
    pair; metrics: BENCHMARK.json's end-to-end entries (name, better).  A
    pair is won when the change is strictly better, lost when strictly
    worse.
    """
    out = {}
    for spec in metrics:
        name, sign = spec["name"], 1.0 if spec["better"] == "higher" else -1.0
        before = [p["parent"][name] for p in pairs]
        after = [p["change"][name] for p in pairs]
        gains = [sign * (b - a) for a, b in zip(before, after)]
        out[name] = {
            "better": spec["better"],
            "parent": dict(zip(("q1", "median", "q3"), quartiles(before))),
            "change": dict(zip(("q1", "median", "q3"), quartiles(after))),
            "won": sum(g > 0 for g in gains),
            "lost": sum(g < 0 for g in gains),
            "pairs": len(pairs),
        }
    return out


def format_summary(summary: dict[str, dict]) -> list[str]:
    lines = []
    for name, s in summary.items():
        p, c = s["parent"], s["change"]
        lines.append(
            f"{name}: {p['median']:.4g} [{p['q1']:.4g}-{p['q3']:.4g}] -> "
            f"{c['median']:.4g} [{c['q1']:.4g}-{c['q3']:.4g}], "
            f"change won {s['won']}/{s['pairs']} ({s['better']} is better)"
        )
    return lines


def src_lines(tree: pathlib.Path) -> dict[str, int]:
    return {
        str(p.relative_to(tree)): len(p.read_text().splitlines())
        for p in sorted((tree / "src").rglob("*.py"))
    }


def src_digest(tree: pathlib.Path) -> str:
    """SHA-256 over the paths and contents of src/*.py: names the code run."""
    h = hashlib.sha256()
    for p in sorted((tree / "src").rglob("*.py")):
        h.update(str(p.relative_to(tree)).encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def run_once(tree: pathlib.Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The metrics of one run in tree: end-to-end ones untraced, per-layer
    ones traced."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, check=True, capture_output=True, text=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--parent", required=True, help="revision to compare against")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace-pairs", type=int, default=3)
    parser.add_argument("--out", type=pathlib.Path, help="default: BENCH_<workload>.json")
    args = parser.parse_args(argv)
    # as SystemExit, a terminated run still kills its child and removes
    # the parent's copy
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent_sha = git("rev-parse", args.parent)
    change = {
        "commit": git("rev-parse", "HEAD"),
        "dirty": bool(git("status", "--porcelain", "--", "src", "perfbench")),
        "src_sha256": src_digest(ROOT),
        "src_lines": src_lines(ROOT),
    }
    pairs, traced = [], []
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        tree = pathlib.Path(tmp)
        archive = subprocess.run(
            ["git", "archive", parent_sha], cwd=ROOT, check=True, capture_output=True
        ).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tree, filter="data")
        parent = {
            "commit": parent_sha,
            "src_sha256": src_digest(tree),
            "src_lines": src_lines(tree),
        }
        for i in range(args.pairs + args.trace_pairs):
            seed, trace = args.seed + i, int(i >= args.pairs)
            order = [("parent", tree), ("change", ROOT)]
            if i % 2:
                order.reverse()
            runs = {side: run_once(where, args.workload, seed, args.seconds, trace)
                    for side, where in order}
            (traced if trace else pairs).append({"seed": seed, "first": order[0][0], **runs})
            key = "trace.op_s" if trace else "throughput_ops_s"
            print(f"{'traced ' * trace}pair {i + 1} seed {seed}: {key} "
                  f"{runs['parent'][key]:.4g} -> {runs['change'][key]:.4g}", flush=True)
    summary = summarize(pairs, bench["end_to_end"])
    layers = summarize(traced, bench["per_layer"]) if traced else {}
    for line in format_summary(summary) + format_summary(layers):
        print(line)
    out = args.out or ROOT / f"BENCH_{args.workload}.json"
    out.write_text(json.dumps({
        "workload": args.workload,
        "seconds": args.seconds,
        "seeds": [p["seed"] for p in pairs],
        "traced_seeds": [p["seed"] for p in traced],
        "parent": parent,
        "change": change,
        "summary": summary,
        "per_layer": layers,
        "pairs": pairs,
        "traced_pairs": traced,
    }, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
