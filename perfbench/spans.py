"""Spans around wumetric's public calls, recorded from outside the library.

``Instrumentation.install`` swaps every public function of the six layers,
in every ``wumetric`` module that binds it, for a wrapper that records a
span; ``uninstall`` puts the originals back, so traced and untraced passes
run in one process.  Radial evaluators are wrapped when their
``Indicatrix`` is built, so only indicatrices built while tracing is on
are traced.

A span is ``[name, layer, start, end, parent, op, info]``: ``parent`` is
the index of the enclosing span (-1 for none), ``op`` the operation id set
by the harness, ``info`` a per-span counter dict or None.  Nested calls
inside one layer record no extra span, so counts are layer-boundary
crossings; the named sub-steps (radial calls, directions, convexify,
program build, solve, emit) are always recorded.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("metrics", "domains", "busemann", "wu", "experiments", "cli")
HARNESS = "bench"

# Public calls with a span name of their own (module, attribute) -> name.
# Every other public function of a layer module gets "<layer>.call".
NAMED = {
    ("busemann", "absolute_directions"): "busemann.directions",
    ("busemann", "convexify"): "busemann.convexify",
    ("wu", "simplex_program"): "wu.program_build",
    ("wu", "min_vol_simplex_info"): "wu.solve",
    ("wu", "min_vol_simplex"): "wu.solve",
    ("wu", "wu_metric"): "wu.wu_metric",
    ("cli", "write_rows"): "cli.emit",
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1

    def open(self, name: str, layer: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, layer, time.perf_counter(), 0.0, parent, self.op, None])
        self.stack.append(idx)
        return idx

    def close(self, idx: int, info: dict | None = None) -> None:
        span = self.spans[idx]
        span[3] = time.perf_counter()
        span[6] = info
        self.stack.pop()

    def nested_in(self, name: str, layer: str | None) -> bool:
        """True when the innermost span has this name, or this layer."""
        if not self.stack:
            return False
        top = self.spans[self.stack[-1]]
        return top[0] == name or top[1] == layer


def _solve_info(args, kwargs, result, exc):
    prog = args[0] if args else kwargs.get("prog")
    info = {"points": len(prog.points) if prog is not None else 0}
    if exc is not None:
        info["failed"] = type(exc).__name__
        info["gap"] = getattr(exc, "gap", None)
    elif hasattr(result, "iterations"):
        info["iterations"] = result.iterations
        info["gap"] = result.gap
    return info


def _directions_info(args, kwargs, result, exc):
    return {"count": 0 if exc is not None else len(result)}


def _emit_bytes(args, kwargs):
    stream = args[2] if len(args) > 2 else kwargs.get("stream")
    try:
        return stream, stream.tell()
    except (AttributeError, OSError, ValueError):
        return None, 0


class Instrumentation:
    """Installs and removes the wrappers for one tracer."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, fn, name: str, layer: str, boundary_only: bool):
        tracer = self.tracer
        info_fn = {"wu.solve": _solve_info, "busemann.directions": _directions_info}.get(name)
        emit = name == "cli.emit"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.nested_in(name, layer if boundary_only else None):
                return fn(*args, **kwargs)
            if emit:
                stream, before = _emit_bytes(args, kwargs)
            idx = tracer.open(name, layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.close(idx, info_fn(args, kwargs, None, exc) if info_fn else {"failed": type(exc).__name__})
                raise
            if info_fn is not None:
                info = info_fn(args, kwargs, result, None)
            elif emit:
                info = {"bytes": stream.tell() - before if stream is not None else 0}
            else:
                info = None
            tracer.close(idx, info)
            return result

        wrapper._perfbench_traced = True
        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    # -- install / uninstall ------------------------------------------------

    def install(self) -> None:
        from wumetric import busemann, wu

        modules = [m for n, m in sys.modules.items() if n == "wumetric" or n.startswith("wumetric.")]
        targets = {}
        for layer in LAYERS:
            mod = sys.modules[f"wumetric.{layer}"]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                name = NAMED.get((layer, attr), f"{layer}.call")
                targets[id(obj)] = (obj, self._wrap(obj, name, layer, name == f"{layer}.call"))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = targets.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, hit[1])

        # SimplexProgram(...) validation is the program build, however it
        # is reached (simplex_program or a direct constructor call).
        post = wu.SimplexProgram.__post_init__
        self._patch(wu.SimplexProgram, "__post_init__", self._wrap(post, "wu.program_build", "wu", False))

        # Radial evaluators: hull radials (convexify) belong to busemann,
        # every other evaluator to domains.
        ind_post = busemann.Indicatrix.__post_init__
        instr = self

        def indicatrix_post_init(ind):
            ind_post(ind)
            fn = ind.radial
            if fn is None or getattr(fn, "_perfbench_traced", False):
                return
            if ind.hull_points is not None:
                wrapped = instr._wrap(fn, "busemann.hull_radial", "busemann", False)
            else:
                wrapped = instr._wrap(fn, "domains.radial", "domains", False)
            object.__setattr__(ind, "radial", wrapped)

        self._patch(busemann.Indicatrix, "__post_init__", indicatrix_post_init)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


# ---------------------------------------------------------------------------
# per-layer metrics from the spans


def layer_totals(spans: list[list]) -> dict[str, float]:
    """Raw per-layer totals over all spans (not yet divided per op)."""
    n = len(spans)
    child_time = [0.0] * n
    children: dict[int, list[int]] = {}
    for i, (name, layer, start, end, parent, op, info) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += end - start
            if spans[parent][0] == "wu.wu_metric":
                children.setdefault(parent, []).append(i)

    out = {f"{layer}.self_s": 0.0 for layer in LAYERS + (HARNESS,)}
    keys = (
        "domains.radial_calls", "domains.radial_s",
        "busemann.directions_count", "busemann.directions_s",
        "busemann.convexify_s", "busemann.hull_radial_calls", "busemann.hull_radial_s",
        "wu.program_build_s", "wu.solve_calls", "wu.solve_s", "wu.solve_iterations",
        "wu.solve_gap_max", "wu.solve_failures", "wu.certificate_points",
        "wu.sample_radial_calls", "wu.refine_radial_calls", "wu.refine_s",
        "wu.refine_added_points", "wu.refine_rounds",
        "metrics.calls", "metrics.busy_s", "cli.emit_s", "cli.emit_bytes", "op_s", "ops",
    )
    out.update({k: 0.0 for k in keys})
    for i, (name, layer, start, end, parent, op, info) in enumerate(spans):
        dur = end - start
        out[f"{layer}.self_s"] += dur - child_time[i]
        if name == "op":
            out["op_s"] += dur
            out["ops"] += 1
        elif name == "domains.radial":
            out["domains.radial_calls"] += 1
            out["domains.radial_s"] += dur
        elif name == "busemann.hull_radial":
            out["busemann.hull_radial_calls"] += 1
            out["busemann.hull_radial_s"] += dur
        elif name == "busemann.directions":
            out["busemann.directions_count"] += info["count"]
            out["busemann.directions_s"] += dur
        elif name == "busemann.convexify":
            out["busemann.convexify_s"] += dur
        elif name == "wu.program_build":
            out["wu.program_build_s"] += dur
        elif name == "wu.solve":
            out["wu.solve_calls"] += 1
            out["wu.solve_s"] += dur
            out["wu.certificate_points"] += info["points"]
            out["wu.solve_iterations"] += info.get("iterations", 0)
            if info.get("gap") is not None:
                out["wu.solve_gap_max"] = max(out["wu.solve_gap_max"], info["gap"])
            if "failed" in info:
                out["wu.solve_failures"] += 1
        elif name == "cli.emit":
            out["cli.emit_s"] += dur
            out["cli.emit_bytes"] += info["bytes"]
        elif layer == "metrics":
            out["metrics.calls"] += 1
            out["metrics.busy_s"] += dur

    # Split each wu_metric span at its first solve: radial calls before it
    # are sampling, everything after it returns is refinement.  Each
    # refinement round asks busemann for a fresh set of seed directions.
    for parent, kids in children.items():
        solves = [k for k in kids if spans[k][0] == "wu.solve"]
        if not solves:
            continue
        first_start, first_end = spans[solves[0]][2], spans[solves[0]][3]
        for k in kids:
            kname, kstart = spans[k][0], spans[k][2]
            if kname in ("domains.radial", "busemann.hull_radial"):
                key = "wu.sample_radial_calls" if kstart < first_start else "wu.refine_radial_calls"
                out[key] += 1
            elif kname == "busemann.directions" and kstart >= first_end:
                out["wu.refine_rounds"] += 1
        out["wu.refine_s"] += spans[parent][3] - first_end
        out["wu.refine_added_points"] += len(solves) - 1
    return out
