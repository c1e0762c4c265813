"""scripts/bench_pairs.py's summary of paired runs, on made-up records."""

import json
from pathlib import Path

from helpers import script

ROOT = Path(__file__).resolve().parents[1]
bench_pairs = script("bench_pairs")

METRICS = [{"name": "throughput_ops_s", "better": "higher"},
           {"name": "latency_p50_ms", "better": "lower"}]


def pair(parent, change):
    names = [m["name"] for m in METRICS]
    return {"seed": 0, "parent": dict(zip(names, parent)), "change": dict(zip(names, change))}


def test_quartiles_medians_and_pairs_won():
    pairs = [
        pair((100.0, 9.0), (150.0, 6.0)),
        pair((110.0, 8.0), (140.0, 8.0)),  # a tie on latency is not won
        pair((120.0, 7.0), (100.0, 7.5)),  # lost on both
        pair((130.0, 6.0), (160.0, 5.0)),
        pair((140.0, 5.0), (170.0, 4.0)),
    ]
    summary = bench_pairs.summarize(pairs, METRICS)
    up = summary["throughput_ops_s"]
    assert up["parent"] == {"q1": 110.0, "median": 120.0, "q3": 130.0}
    assert up["change"] == {"q1": 140.0, "median": 150.0, "q3": 160.0}
    assert (up["won"], up["lost"], up["pairs"], up["better"]) == (4, 1, 5, "higher")
    down = summary["latency_p50_ms"]
    assert down["parent"]["median"] == 7.0 and down["change"]["median"] == 6.0
    assert (down["won"], down["lost"]) == (3, 1)


def test_one_pair_and_the_printed_lines():
    summary = bench_pairs.summarize([pair((100.0, 8.0), (125.0, 6.0))], METRICS)
    assert summary["throughput_ops_s"]["parent"] == {"q1": 100.0, "median": 100.0, "q3": 100.0}
    assert bench_pairs.format_summary(summary) == [
        "throughput_ops_s: 100 [100-100] -> 125 [125-125], change won 1/1 (higher is better)",
        "latency_p50_ms: 8 [8-8] -> 6 [6-6], change won 1/1 (lower is better)",
    ]


def test_every_declared_metric_is_summarized():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    record = {m["name"]: 1.0 for m in declared}
    summary = bench_pairs.summarize([{"parent": record, "change": record}] * 3, declared)
    assert list(summary) == [m["name"] for m in declared]
    assert all(s["won"] == s["lost"] == 0 for s in summary.values())

