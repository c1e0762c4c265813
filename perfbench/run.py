"""wumetric benchmark: seeded workloads, reference checks, per-layer trace.

Run from the repository root:

    python3 perfbench/run.py                      # all workloads, summary
    python3 perfbench/run.py --workload near_tie --seed 3 --seconds 20 --trace 0

With ``--workload NAME`` the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Each run also writes a JSON record with its run context to
``perfbench/out/``.  Without ``--workload`` every workload runs in its own
process, one after another, and a summary table is printed; ``--out FILE``
also writes the summary (used for ``perfbench/baseline.json``).

Exit codes: 0 done (failed operations are counted, not fatal), 2 the
library sources are missing or a harness error occurred.
"""

from __future__ import annotations

import os

# BLAS/OpenMP pools are pinned to one thread before numpy can start them;
# child processes inherit the setting.
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gzip  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
WORKLOAD_NAMES = ("registry", "radial_sweep", "cloud_solve", "near_tie")
SETUP_REPEATS = 3  # fresh interpreters
SETUP_KERNEL_RUNS = 5  # base-kernel runs just before and just after each
CHILD_TIMEOUT_S = 170


class HarnessError(RuntimeError):
    """The benchmark itself cannot run; no result is printed."""


def _require_sources() -> None:
    if not (SRC / "wumetric" / "__init__.py").is_file():
        raise HarnessError(f"library sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def set_up(workload: str, seed: int):
    """Import the library and generate the inputs; returns (workload,
    ops, rng, seconds taken)."""
    start = time.perf_counter()
    _require_sources()
    import numpy as np

    import workloads

    import wumetric

    if Path(wumetric.__file__).resolve().parent != SRC / "wumetric":
        raise HarnessError(f"imported wumetric from {wumetric.__file__}, not {SRC}")
    spec = workloads.WORKLOADS[workload]
    rng = np.random.default_rng(seed)
    ops = spec.build(rng)
    return spec, ops, rng, time.perf_counter() - start


def _child_setup_seconds(workload: str, seed: int) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    if done.returncode != 0:
        raise HarnessError(f"set-up probe failed: {done.stderr.strip()[-500:]}")
    return float(done.stdout.strip().splitlines()[-1])


def measure_setups(workload: str, seed: int) -> list[tuple[float, float]]:
    """(wall, scaled) times of SETUP_REPEATS set-ups, each in a fresh
    interpreter and scaled by base-kernel runs made in this process just
    before and just after it."""
    import harness

    harness.reference_seconds()  # the first run is slower
    setups = []
    for _ in range(SETUP_REPEATS):
        refs = [harness.reference_seconds() for _ in range(SETUP_KERNEL_RUNS)]
        wall = _child_setup_seconds(workload, seed)
        refs += [harness.reference_seconds() for _ in range(SETUP_KERNEL_RUNS)]
        setups.append((wall, harness.scaled_seconds(wall, refs)))
    return setups


# ---------------------------------------------------------------------------
# run context


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_context(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "seed": seed,
        "src_lines": {
            p.name: sum(1 for _ in p.open()) for p in sorted((SRC / "wumetric").glob("*.py"))
        },
    }


# ---------------------------------------------------------------------------
# one workload


def _print_metric(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"  {name:<28} {value:>14.6g} {unit:<12} {note}".rstrip())


def run_workload(args) -> dict:
    spec, ops, rng, own_setup = set_up(args.workload, args.seed)
    import harness

    result: dict = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace}
    if args.trace:
        plain, traced, totals, last_spans, pairs = harness.measure_traced(ops, rng, args.seconds)
        samples, checked = traced, plain + traced
        metrics = harness.per_layer(plain, totals)
        units = dict(harness.PER_LAYER)
        result["pairs"] = pairs
        result["spans_per_pass"] = len(last_spans)
        layer_self = sum(metrics[f"{layer}.self_s"] for layer in harness.tr.LAYERS)
        print(f"workload {args.workload} seed {args.seed}: {pairs} untraced+traced pass pairs, "
              f"{len(traced)} traced operations, {len(last_spans)} spans in the last pass")
        for name, unit in harness.PER_LAYER:
            _print_metric(name, metrics[name], unit)
        print(f"  six layers' self time = {100.0 * layer_self / metrics['trace.op_s']:.2f} % of "
              f"traced operation time; the rest is harness glue and unlisted modules "
              f"(bench.self_s); tracing overhead {metrics['trace.overhead_pct']:.2f} %")
        spans_path = OUT_DIR / f"{args.workload}-seed{args.seed}-spans.json.gz"
        OUT_DIR.mkdir(exist_ok=True)
        with gzip.open(spans_path, "wt") as f:
            json.dump({"fields": ["name", "layer", "start", "end", "parent", "op", "info"],
                       "spans": last_spans}, f, separators=(",", ":"))
    else:
        setups = measure_setups(args.workload, args.seed)
        kernel = harness.KERNELS[spec.kernel]
        samples, passes, _ = harness.measure(ops, rng, args.seconds, spec.min_passes, kernel)
        checked = samples
        metrics = harness.end_to_end(samples)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["setup_s"] = statistics.median(scaled for _, scaled in setups)
        metrics["raw_setup_s"] = statistics.median(wall for wall, _ in setups)
        units = dict(harness.END_TO_END)
        result["passes"] = passes
        result["kernel"] = spec.kernel
        result["own_setup_s"] = own_setup
        result["setup_samples_s"] = [wall for wall, _ in setups]
        result["setup_scaled_samples_s"] = [scaled for _, scaled in setups]
        failed = sum(1 for s in samples if s.failure is not None)
        print(f"workload {args.workload} seed {args.seed}: {passes} passes, "
              f"{len(samples)} operations, {failed} failed; times scaled to a host where the "
              f"{spec.kernel} reference kernel takes {1e3 * kernel.nominal_s:g} ms, "
              f"wall times as raw_*")
        for raw in ("", "raw_"):
            _print_metric(f"{raw}throughput_ops_s", metrics[f"{raw}throughput_ops_s"], "1/s",
                          "certified, reference-correct operations per second, "
                          "each operation at its label's median time")
            _print_metric(f"{raw}latency_p50_ms", metrics[f"{raw}latency_p50_ms"], "ms",
                          f"median of {len(samples)} samples")
            tail_note = (
                f"p{metrics[f'{raw}latency_tail_percentile']:.2f} of {len(samples)} samples "
                f"({harness.TAIL_BEYOND} beyond it)"
                if len(samples) > harness.TAIL_BEYOND
                else f"maximum of {len(samples)} samples (too few for {harness.TAIL_BEYOND} beyond)"
            )
            _print_metric(f"{raw}latency_tail_ms", metrics[f"{raw}latency_tail_ms"], "ms",
                          tail_note)
        _print_metric("failed_ratio", metrics["failed_ratio"], "ratio",
                      f"{failed} of {len(samples)} raised, uncertified or wrong")
        _print_metric("ok_ratio", metrics["ok_ratio"], "ratio", "1 - failed_ratio")
        _print_metric("peak_rss_mb", metrics["peak_rss_mb"], "MB", "peak resident set")
        for raw in ("", "raw_"):
            _print_metric(f"{raw}setup_s", metrics[f"{raw}setup_s"], "s",
                          f"median of {len(setups)} set-ups (import + input generation) "
                          f"in fresh interpreters")
    summary = harness.failure_summary(samples)
    for label, entry in summary.items():
        if entry["failed"]:
            print(f"  FAILED {entry['failed']}/{entry['count']} {label}: {entry['reason']}")
    line = {
        "correct": not any(s.failure in ("wrong", "uncertified") for s in checked),
        "attempted": len(samples),
        "failed": sum(1 for s in samples if s.failure is not None),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    result.update(line, operations=summary, context=run_context(args.seed))
    if not args.trace:
        result.update({name: value for name, value in metrics.items() if name not in units})
    OUT_DIR.mkdir(exist_ok=True)
    record = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(result, indent=1) + "\n")
    return line


# ---------------------------------------------------------------------------
# every workload, one process each


def run_all(args) -> int:
    _require_sources()
    script = str(Path(__file__).resolve())
    results = {}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1) if args.trace else (0,):
            cmd = [sys.executable, script, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                                  cwd=ROOT)
            sys.stdout.write("\n".join(done.stdout.splitlines()[:-1]) + "\n")
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                raise HarnessError(f"workload {name} (trace {trace}) exited {done.returncode}")
            record = json.loads((OUT_DIR / f"{name}-seed{args.seed}-trace{trace}.json").read_text())
            for entry in record["operations"].values():
                entry.pop("seconds")  # per-sample latencies stay in the run record only
                entry.pop("scaled", None)
            results.setdefault(name, {})["per_layer" if trace else "end_to_end"] = record
    import harness

    print(f"\nsummary (seed {args.seed}, {args.seconds} s per workload)")
    print(f"  {'metric':<18} {'unit':<6} " + " ".join(f"{w:>13}" for w in WORKLOAD_NAMES))
    for metric, unit in harness.END_TO_END:
        cells = [results[w]["end_to_end"]["metrics"][metric]["value"] for w in WORKLOAD_NAMES]
        print(f"  {metric:<18} {unit:<6} " + " ".join(f"{c:>13.6g}" for c in cells))
    cells = [results[w]["end_to_end"]["failed_ratio"] for w in WORKLOAD_NAMES]
    print(f"  {'failed_ratio':<18} {'ratio':<6} " + " ".join(f"{c:>13.6g}" for c in cells))
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"context": run_context(args.seed), "seconds": args.seconds, "workloads": results},
            indent=1) + "\n")
        print(f"wrote {args.out}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="one workload (default: all, each in its own process)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="summary JSON path (all-workload mode)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_probe:
            print(repr(set_up(args.workload, args.seed)[3]))
            return 0
        if args.workload is None:
            return run_all(args)
        line = run_workload(args)
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
