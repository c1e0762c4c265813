"""Self-test of the benchmark harness (not of the library).

    python3 perfbench/selftest.py

Checks that the printed schema matches BENCHMARK.json and names every
metric the benchmark promises, that an operation with a wrong reference
or a raising call counts as failed rather than stopping the run, that the
traced layer self times add up to the operation time, that times are
scaled by the reference kernel as documented, and that the
benchmark refuses to run without the library sources.  Exits 1 on the
first failed check.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import shutil
import subprocess
import sys

import run  # sets the thread pins and paths before numpy is imported

run._require_sources()

import numpy as np  # noqa: E402

import harness  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# The metrics the benchmark is specified to report.  failed_ratio is
# printed and recorded; its complement ok_ratio is the gated form, because
# a gated metric must never read 0.
PROMISED_END_TO_END = {
    "setup_s", "throughput_ops_s", "latency_p50_ms", "latency_tail_ms", "peak_rss_mb",
}
PROMISED_PER_LAYER = {
    "domains.radial_calls", "domains.radial_s", "wu.sample_radial_calls",
    "wu.refine_radial_calls", "wu.refine_s", "wu.refine_added_points",
    "wu.refine_useful_ratio", "busemann.directions_count", "busemann.directions_s",
    "busemann.convexify_s", "busemann.hull_radial_calls", "busemann.hull_radial_s",
    "wu.program_build_s", "wu.solve_calls", "wu.solve_s", "wu.solve_iterations",
    "wu.solve_gap_max", "wu.solve_failures", "wu.certificate_points", "metrics.calls",
    "metrics.busy_s", "experiments.self_s", "cli.emit_s", "cli.emit_bytes",
}


def check(cond: bool, what: str) -> None:
    if not cond:
        print(f"FAIL: {what}")
        sys.exit(1)
    print(f"ok: {what}")


def test_schema() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    check(e2e == dict(harness.END_TO_END), "end-to-end names and units match BENCHMARK.json")
    check(layer == dict(harness.PER_LAYER), "per-layer names and units match BENCHMARK.json")
    check(PROMISED_END_TO_END <= set(e2e), "every promised end-to-end metric is reported")
    check(PROMISED_PER_LAYER <= set(layer), "every promised per-layer metric is reported")
    check({f"{name}.self_s" for name in spans.LAYERS} <= set(layer),
          "every layer reports its self time")
    check([w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
          and set(workloads.WORKLOADS) == set(run.WORKLOAD_NAMES), "workload names agree")


def test_failures_are_counted() -> None:
    rng = np.random.default_rng(0)
    planted, points = workloads.near_tie_program(rng, 3, 1e-1)

    def planted_op(label, reference):
        reference_check = functools.partial(workloads._check_planted, planted=reference,
                                            tol=workloads.VERTEX_TOL)
        return workloads._program_op(label, points, reference_check)

    good = planted_op("good", planted)
    wrong = planted_op("wrong", planted * 1.01)

    def boom():
        raise RuntimeError("deliberate")

    raising = workloads.Op("raising", boom, lambda result: None)
    samples = [harness.run_op(op) for op in (good, wrong, raising)]
    check([s.failure for s in samples] == [None, "wrong", "raised"],
          "a wrong reference and a raising call are failures, the good op is not")
    e2e = harness.end_to_end([dataclasses.replace(s, scaled=s.seconds) for s in samples])
    check(abs(e2e["failed_ratio"] - 2.0 / 3.0) < 1e-15, "failures count toward failed_ratio")
    check(e2e["throughput_ops_s"] > 0.0, "throughput counts only the good operation")


def test_scaled_times() -> None:
    nominal = harness.KERNELS["base"].nominal_s
    scaled = harness.scaled_seconds(0.2, [nominal, 2.0 * nominal, 2.0 * nominal])
    check(abs(scaled - 0.1) < 1e-15, "on a host twice as slow as nominal a time scales to half")
    samples, _, _ = harness.measure([workloads._gn_origin_op(4)], np.random.default_rng(0), 0.0, 3)
    check(len(samples) == 3 and all(0.0 < s.scaled < math.inf for s in samples),
          "every measured sample gets a scaled time")
    samples, _, refs = harness.measure([workloads._gn_origin_op(4)], np.random.default_rng(0),
                                       0.0, 2, harness.KERNELS["large"])
    check(len(refs) == 3 and all(0.0 < s.scaled < math.inf for s in samples),
          "the large kernel runs around every operation of a workload that names it")


def test_trace_accounts_for_op_time() -> None:
    ops = [workloads._gn_origin_op(4), workloads._convex_g2_op()]
    tracer = spans.Tracer()
    instr = spans.Instrumentation(tracer)
    instr.install()
    try:
        samples = [harness.run_op(op, tracer) for op in ops]
    finally:
        instr.uninstall()
    check(all(s.failure is None for s in samples), "traced operations still pass their checks")
    totals = spans.layer_totals(tracer.spans)
    self_sum = sum(totals[f"{name}.self_s"] for name in spans.LAYERS + (spans.HARNESS,))
    check(abs(self_sum - totals["op_s"]) <= 1e-9 * max(1.0, totals["op_s"]),
          "layer self times sum to the traced operation time")
    radial = totals["domains.radial_calls"] + totals["busemann.hull_radial_calls"]
    check(radial > 0 and radial >= totals["wu.sample_radial_calls"] + totals["wu.refine_radial_calls"],
          "radial calls split into sampling and refinement")
    check(totals["wu.solve_calls"] == 2 and totals["busemann.hull_radial_calls"] > 0,
          "solve and hull-radial spans are recorded")
    check(not hasattr(workloads.wu.wu_metric, "_perfbench_traced"), "uninstall restores the library")


def test_refuses_without_sources() -> None:
    bare = run.OUT_DIR / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(run.BENCH_DIR, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "registry", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120,
    )
    shutil.rmtree(bare, ignore_errors=True)
    check(done.returncode != 0 and "{" not in done.stdout,
          "without the library sources the benchmark exits nonzero and prints no result")


if __name__ == "__main__":
    test_schema()
    test_failures_are_counted()
    test_scaled_times()
    test_trace_accounts_for_op_time()
    test_refuses_without_sources()
    print("selftest passed")
