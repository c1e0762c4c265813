"""Closed-loop measurement: one client, one operation at a time.

An operation's latency is the wall time of its library call; the reference
check runs outside it.  An operation fails when the call raises, when its
result is not certified (gap above tolerance), or when it misses its
reference.  Failures are counted, never fatal: only errors of the harness
itself stop a run.

The untraced run also times a fixed reference kernel before every
operation.  The speed of a shared host drifts by up to a factor of two
over seconds to minutes, and the kernel slows with it, so each operation's
wall time is also given *scaled* to a host on which the kernel takes its
nominal time: wall time x nominal / (kernel time around it).  The gated
time metrics are computed from scaled times; the raw ones are printed and
recorded beside them.
"""

from __future__ import annotations

import functools
import math
import statistics
import time
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
from scipy.optimize import linprog

import spans as tr
from workloads import Op

# name, unit; the order is the print order.
END_TO_END = (
    ("throughput_ops_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("ok_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

# Per-layer metrics from the traced run, per traced operation unless the
# unit says otherwise.
PER_LAYER = (
    ("metrics.calls", "count/op"),
    ("metrics.busy_s", "s/op"),
    ("metrics.self_s", "s/op"),
    ("domains.radial_calls", "count/op"),
    ("domains.radial_s", "s/op"),
    ("domains.self_s", "s/op"),
    ("busemann.directions_count", "count/op"),
    ("busemann.directions_s", "s/op"),
    ("busemann.convexify_s", "s/op"),
    ("busemann.hull_radial_calls", "count/op"),
    ("busemann.hull_radial_s", "s/op"),
    ("busemann.self_s", "s/op"),
    ("wu.sample_radial_calls", "count/op"),
    ("wu.refine_radial_calls", "count/op"),
    ("wu.refine_s", "s/op"),
    ("wu.refine_added_points", "count/op"),
    ("wu.refine_useful_ratio", "points/round"),
    ("wu.program_build_s", "s/op"),
    ("wu.solve_calls", "count/op"),
    ("wu.solve_s", "s/op"),
    ("wu.solve_iterations", "count/op"),
    ("wu.solve_gap_max", "nats"),
    ("wu.solve_failures", "count/op"),
    ("wu.certificate_points", "count/op"),
    ("wu.self_s", "s/op"),
    ("experiments.self_s", "s/op"),
    ("cli.emit_s", "s/op"),
    ("cli.emit_bytes", "B/op"),
    ("cli.self_s", "s/op"),
    ("bench.self_s", "s/op"),
    ("trace.op_s", "s/op"),
    ("trace.untraced_op_s", "s/op"),
    ("trace.overhead_pct", "%"),
)

# Beyond this many samples the tail is the 11th largest one.
TAIL_BEYOND = 10

# Reference kernels: fixed work that uses neither the library nor the seed.
# The base kernel mixes the kinds of work most operations do: interpreted
# Python, many numpy calls on tiny arrays, and numpy passes over a few
# megabytes.
_REF_RNG = np.random.default_rng(0)
_REF_BIG = _REF_RNG.random((40_000, 8))
_REF_VEC = _REF_RNG.random(8)
_REF_SMALL = _REF_RNG.random(16)
_REF_FLOATS = [float(i) for i in range(3000)]


def _base_kernel() -> None:
    total, table = 0.0, {}
    for x in _REF_FLOATS:
        total += math.sqrt(x + 1.0) * 0.5
        table[int(x) % 61] = total
    total += float(np.max(_REF_BIG @ _REF_VEC)) + float(np.log(_REF_BIG[:, 0] + 1.0).sum())
    v = _REF_SMALL
    for _ in range(300):
        v = np.maximum(v * 0.999, 1e-3) + _REF_SMALL.sum() * 1e-9


@functools.cache
def _hull_lp() -> dict:
    points = np.random.default_rng(2).random((128, 2))
    m = points.shape[0]
    c = np.zeros(1 + m)
    c[0] = -1.0
    a_ub = np.zeros((2, 1 + m))
    a_ub[:, 0] = (0.6, 0.8)
    a_ub[:, 1:] = -points.T
    a_eq = np.zeros((1, 1 + m))
    a_eq[0, 1:] = 1.0
    return {"c": c, "A_ub": a_ub, "b_ub": np.zeros(2), "A_eq": a_eq, "b_eq": np.ones(1),
            "bounds": [(0, None)] * (1 + m), "method": "highs"}


def _radial_kernel() -> None:
    """The base kernel plus one small HiGHS linear program, the kind a
    hull radial solves."""
    _base_kernel()
    linprog(**_hull_lp())


@functools.cache
def _ascent_points() -> np.ndarray:
    return np.random.default_rng(3).random((300, 3))


def _ascent_kernel() -> None:
    """What a small program costs: tuples of Python floats built from 300
    array rows, then multiplicative-ascent steps on them, each a handful of
    numpy calls on arrays of a few hundred elements."""
    rows = tuple(tuple(float(c) for c in row) for row in _ascent_points())
    u = np.array(rows)
    k = u.shape[1]
    w = np.full(len(u), 1.0 / len(u))
    for _ in range(120):
        s = u @ (1.0 / (u.T @ w))
        math.log(float(s.max()) / k)
        w = w * (s / k)
        w = w / w.sum()


@functools.cache
def _large_arrays() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    rng = np.random.default_rng(1)
    return rng.random((200_000, 8)), rng.random(200_000), rng.random((700, 8))


def _large_kernel() -> None:
    """The base kernel plus what a large program costs besides: tuples of
    Python floats built from array rows, and matrix-vector passes over an
    array of 12.8 MB, more than the caches hold."""
    _base_kernel()
    huge, weights, rows = _large_arrays()
    points = tuple(tuple(float(c) for c in row) for row in rows)
    mass = huge.T @ weights
    float(np.max(huge @ (1.0 / mass))) + len(points)


@dataclass(frozen=True)
class Kernel:
    run: Callable[[], None]
    # The kernel's median time on the 2-core x86-64 VM the benchmark was
    # written on, so that scaled times read close to wall times there.
    nominal_s: float


KERNELS = {
    "base": Kernel(_base_kernel, 3.5e-3),
    "radial": Kernel(_radial_kernel, 6e-3),
    "ascent": Kernel(_ascent_kernel, 2.7e-3),
    "large": Kernel(_large_kernel, 8e-3),
}


def reference_seconds(kernel: Kernel = KERNELS["base"]) -> float:
    """Wall time of one run of a reference kernel."""
    start = time.perf_counter()
    kernel.run()
    return time.perf_counter() - start


def scaled_seconds(seconds: float, refs: list[float], kernel: Kernel = KERNELS["base"]) -> float:
    """``seconds`` at the nominal host speed, given times of ``kernel``
    taken around it."""
    return seconds * kernel.nominal_s / statistics.median(refs)


@dataclass(frozen=True)
class Sample:
    label: str
    seconds: float
    failure: str | None  # None, "raised", "uncertified" or "wrong"
    reason: str | None
    scaled: float = math.nan  # seconds at the nominal host speed


def run_op(op: Op, tracer: tr.Tracer | None = None) -> Sample:
    if tracer is not None:
        tracer.op += 1
        idx = tracer.open("op", tr.HARNESS)
    failure = None
    start = time.perf_counter()
    try:
        result = op.call()
    except Exception as exc:  # the operation failed; the run goes on
        failure = ("raised", f"{type(exc).__name__}: {exc}")
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.close(idx)
    if failure is None:
        failure = op.check(result)
    kind, reason = failure if failure is not None else (None, None)
    return Sample(op.label, elapsed, kind, reason)


def measure(
    ops: list[Op], rng: np.random.Generator, seconds: float, min_passes: int,
    kernel: Kernel = KERNELS["base"],
) -> tuple[list[Sample], int, list[float]]:
    """Whole passes, each in a fresh seeded order, until ``seconds`` of
    wall time and ``min_passes`` passes are both reached.  The reference
    kernel runs before every operation and once after the last; the
    samples come back with their scaled times, followed by the pass count
    and the kernel times."""
    samples: list[Sample] = []
    refs: list[float] = []
    passes = 0
    start = time.perf_counter()
    while passes < min_passes or time.perf_counter() - start < seconds:
        for i in rng.permutation(len(ops)):
            refs.append(reference_seconds(kernel))
            samples.append(run_op(ops[i]))
        passes += 1
    refs.append(reference_seconds(kernel))
    # refs[j] ran just before sample j and refs[j + 1] just after it; a
    # sample is scaled by the three kernel runs before it and the two after.
    return [
        replace(s, scaled=scaled_seconds(s.seconds, refs[max(0, j - 2):j + 3], kernel))
        for j, s in enumerate(samples)
    ], passes, refs


def measure_traced(
    ops: list[Op], rng: np.random.Generator, seconds: float
) -> tuple[list[Sample], list[Sample], dict[str, float], list[list], int]:
    """Pairs of passes in one order, untraced then traced, until
    ``seconds`` are used; the pair difference is the tracing overhead.

    Returns the untraced and traced samples, the span totals of all traced
    passes, and the spans of the last one (earlier passes are folded into
    the totals as they end, to bound memory)."""
    tracer = tr.Tracer()
    instr = tr.Instrumentation(tracer)
    plain: list[Sample] = []
    traced: list[Sample] = []
    totals: dict[str, float] = {}
    pairs = 0
    start = time.perf_counter()
    while pairs < 1 or time.perf_counter() - start < seconds:
        order = rng.permutation(len(ops))
        plain.extend(run_op(ops[i]) for i in order)
        tracer.spans = []
        instr.install()
        try:
            traced.extend(run_op(ops[i], tracer) for i in order)
        finally:
            instr.uninstall()
        for key, value in tr.layer_totals(tracer.spans).items():
            before = totals.get(key, 0.0)
            totals[key] = max(before, value) if key == "wu.solve_gap_max" else before + value
        pairs += 1
    return plain, traced, totals, tracer.spans, pairs


def latency_tail(seconds: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest percentile with at least
    TAIL_BEYOND samples above it, i.e. the 11th largest sample.  With too
    few samples it is the maximum, reported as percentile 100."""
    ordered = sorted(seconds)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


def median_time(labels: list[str], times: list[float]) -> float:
    """Operation time of the run with each operation taken at the median
    of its label's samples, so that a few stalls of the host do not
    weigh on it."""
    by_label: dict[str, list[float]] = {}
    for label, t in zip(labels, times):
        by_label.setdefault(label, []).append(t)
    return sum(len(t) * statistics.median(t) for t in by_label.values())


def time_metrics(labels: list[str], times: list[float], ok: int) -> dict[str, float]:
    tail, pct = latency_tail(times)
    return {
        "throughput_ops_s": ok / median_time(labels, times),
        "latency_p50_ms": 1e3 * statistics.median(times),
        "latency_tail_ms": 1e3 * tail,
        "latency_tail_percentile": pct,
    }


def end_to_end(samples: list[Sample]) -> dict[str, float]:
    """Metrics of an untraced run, apart from memory and set-up: the time
    metrics from scaled times, and the same from wall times with a
    ``raw_`` prefix."""
    labels = [s.label for s in samples]
    ok = sum(1 for s in samples if s.failure is None)
    raw = time_metrics(labels, [s.seconds for s in samples], ok)
    return {
        **time_metrics(labels, [s.scaled for s in samples], ok),
        **{f"raw_{name}": value for name, value in raw.items()},
        "ok_ratio": ok / len(samples),
        "failed_ratio": 1.0 - ok / len(samples),
    }


def per_layer(plain: list[Sample], totals: dict[str, float]) -> dict[str, float]:
    ops = totals["ops"]
    out = {}
    for name, unit in PER_LAYER:
        if name in totals and unit.endswith("/op"):
            out[name] = totals[name] / ops
    out["wu.solve_gap_max"] = totals["wu.solve_gap_max"]
    rounds = totals["wu.refine_rounds"]
    out["wu.refine_useful_ratio"] = totals["wu.refine_added_points"] / rounds if rounds else 0.0
    untraced_s = sum(s.seconds for s in plain)
    out["trace.op_s"] = totals["op_s"] / ops
    out["trace.untraced_op_s"] = untraced_s / len(plain)
    out["trace.overhead_pct"] = 100.0 * (totals["op_s"] / untraced_s - 1.0)
    return out


def failure_summary(samples: list[Sample]) -> dict[str, dict]:
    """Per operation label: count, latencies and scaled latencies (in run
    order) and their medians, failures and the first failure's reason."""
    out: dict[str, dict] = {}
    for s in samples:
        entry = out.setdefault(s.label, {"count": 0, "failed": 0, "seconds": [], "scaled": [],
                                         "reason": None})
        entry["count"] += 1
        entry["seconds"].append(s.seconds)
        entry["scaled"].append(s.scaled)
        if s.failure is not None:
            entry["failed"] += 1
            entry["reason"] = entry["reason"] or f"{s.failure}: {s.reason}"
    for entry in out.values():
        entry["median_s"] = statistics.median(entry["seconds"])
        if math.isnan(entry["scaled"][0]):  # traced runs are not scaled
            del entry["scaled"]
        else:
            entry["median_scaled_s"] = statistics.median(entry["scaled"])
    return out
