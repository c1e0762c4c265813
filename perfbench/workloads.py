"""Seeded workloads of the wumetric benchmark.

Each workload builds one *pass*: a list of operations, each a timed call
into the library's public API plus an independent reference check of its
output.  The benchmark repeats the pass (reshuffled) until the run time is
used up.  Inputs depend only on the seed; the library sees only the
generated inputs.

The library is always reached through module attributes (``wu.wu_metric``,
never a bound alias) so that the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from wumetric import busemann, cli, domains, experiments, wu

SOLVER_TOL = wu.DEFAULT_SOLVER_TOL
# Rounding allowance for comparisons made in double precision: a handful
# of ulps on quantities of order one.
FP_SLACK = 1e-12
# How far a certified answer may sit from the optimum.  When the optimal
# simplex touches the points at its vertices a_j e_j, a gap g bounds the
# relative intercept error by about g.  When it touches a smooth part
# (a single point, a cube corner), sum_j log b_j is only quadratic in the
# error there, so the bound is sqrt(2 g).
VERTEX_TOL = SOLVER_TOL
CONTACT_TOL = math.sqrt(2.0 * SOLVER_TOL)


@dataclass(frozen=True)
class Op:
    """One operation: ``call`` is timed, ``check`` is not.

    ``check`` returns None when the output matches the reference, or a
    pair (kind, reason) with kind "uncertified" or "wrong".
    """

    label: str
    call: Callable[[], object]
    check: Callable[[object], tuple[str, str] | None]


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[np.random.Generator], list[Op]]
    # passes that run even when --seconds is already used up
    min_passes: int
    # the reference kernel that times are scaled by (harness.KERNELS)
    kernel: str = "base"


# ---------------------------------------------------------------------------
# reference helpers


def _rel(x: float, y: float) -> float:
    return abs(x / y - 1.0)


def _check_wu(res, expected_axes, expected_m, tol):
    """Compare a WuResult with reference intercepts (inf = degenerate axis)."""
    if not res.gap <= SOLVER_TOL:
        return ("uncertified", f"gap {res.gap!r} above {SOLVER_TOL!r}")
    if res.m != expected_m:
        return ("wrong", f"m = {res.m}, expected {expected_m}")
    for j, (got, want) in enumerate(zip(res.w_tilde.axes, expected_axes)):
        if math.isinf(want) != math.isinf(got):
            return ("wrong", f"axis {j}: {got!r}, expected {want!r}")
        if math.isfinite(want) and not _rel(got, want) <= tol + FP_SLACK:
            return ("wrong", f"axis {j}: {got!r}, expected {want!r}")
    return None


def _check_planted(info, planted: np.ndarray, tol: float):
    """Intercepts equal the planted optimum within ``tol``."""
    if not info.gap <= SOLVER_TOL:
        return ("uncertified", f"gap {info.gap!r} above {SOLVER_TOL!r}")
    got = np.array(info.params.intercepts)
    err = np.abs(got / planted - 1.0)
    if not float(err.max()) <= tol + FP_SLACK:
        return ("wrong", f"intercepts {got.tolist()} vs planted {planted.tolist()}")
    return None


def _check_certificate(info, points: np.ndarray):
    """Recompute the certificate in numpy from the returned intercepts a
    and dual weights w: containment max_i sum_j u_ij / a_j <= 1, and the
    duality gap -sum_j log(k (U^T w)_j / a_j) <= tolerance."""
    a = np.array(info.params.intercepts, dtype=float)
    w = np.array(info.weights, dtype=float)
    k = points.shape[1]
    if a.shape != (k,) or w.shape != (points.shape[0],):
        return ("wrong", "intercepts or weights have the wrong shape")
    if not (np.all(np.isfinite(a)) and np.all(a > 0)):
        return ("wrong", f"intercepts {a.tolist()} not positive and finite")
    if not (np.all(w >= 0.0) and abs(w.sum() - 1.0) <= FP_SLACK * len(w)):
        return ("wrong", "dual weights are not a probability vector")
    top = float(np.max(points @ (1.0 / a)))
    if not top <= 1.0 + FP_SLACK:
        return ("wrong", f"a point lies outside the simplex (max U.b = {top!r})")
    gap = float(-np.sum(np.log(k * (points.T @ w) / a)))
    if not gap <= SOLVER_TOL + FP_SLACK:
        return ("uncertified", f"recomputed gap {gap!r} above {SOLVER_TOL!r}")
    return None


# ---------------------------------------------------------------------------
# registry: every experiment at its defaults, as `wumetric run NAME`


def _registry_op(name: str) -> Op:
    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["run", name])
        return code, out.getvalue()

    def check(result):
        code, text = result
        rows = list(csv.DictReader(io.StringIO(text)))
        if not rows:
            return ("wrong", f"exit {code}, no CSV rows")
        bad = [i for i, row in enumerate(rows) if row.get("ok") != "true"]
        if bad or code != 0:
            return ("wrong", f"exit {code}, rows {bad} not ok")
        return None

    return Op(f"registry:{name}", call, check)


def build_registry(rng: np.random.Generator) -> list[Op]:
    # Every experiment once, and gn_usc, the slowest, a second time: with
    # an odd count the median latency is the middle of one experiment's
    # samples instead of the gap between two experiments.
    names = list(experiments.EXPERIMENTS) + ["gn_usc"]
    return [_registry_op(name) for name in names]


# ---------------------------------------------------------------------------
# radial_sweep: wu_metric on radial indicatrices

# Golden-table cases at base points with a zero coordinate (the ball is
# Reinhardt there) and n - 1 nonzero coordinates, so the Wu value in
# direction X equals the closed-form metric value; the hull has the same
# minimal ellipsoid.  Values are the published closed forms.
CONVEX_ELEM_CASES = (
    ("kappa", (1.0, 2.0), None, (0.5, 0.0), (3.0, 7.0), None, 4.949747468305833),
    ("gamma_k", (1.0, 2.0), None, (0.5, 0.0), (3.0, 7.0), 2, 4.949747468305833),
    ("azukawa", (2.0, math.sqrt(2.0)), "irrational", (0.7, 0.0), (2.0, 5.0), None,
     3.01929502696634),
)
CONVEX_RESOLUTION = 128


def _gn_origin_op(n: int) -> Op:
    def call():
        return wu.wu_metric(domains.indicatrix_at(domains.gn(n), (0.0,) * n).inner)

    def check(res):
        # inner ball Delta x C x Delta^(n-2): Psi-image is the unit cube on
        # the n-1 bounded axes, whose minimal simplex has intercepts n-1,
        # so w~(e1) = 1/sqrt(n-1); axis 2 is degenerate.
        axes = (n - 1.0, math.inf) + (n - 1.0,) * (n - 2)
        return _check_wu(res, axes, n - 1, CONTACT_TOL)

    return Op(f"gn_origin:{n}", call, check)


def _ellipsoid_op(n: int, m: float) -> Op:
    # truncated_gn's outer ball is the diagonal ellipsoid sum c_j |z_j|^2 < 1
    # with c_j = 1 / t_j, t = (n/2, m n/2, n, ..., n); its Psi-image is the
    # simplex itself, so the intercepts are 1/c_j = t_j.
    t = (n / 2.0, m * n / 2.0) + (float(n),) * (n - 2)

    def call():
        spec = domains.truncated_gn(n, m)
        return wu.wu_metric(domains.indicatrix_at(spec, (0.0,) * n).outer)

    return Op(f"ellipsoid:{n}", call, lambda res: _check_wu(res, t, n, VERTEX_TOL))


def _convex_g2_op() -> Op:
    def call():
        inner = domains.indicatrix_at(domains.g2(), (0.0, 0.0)).inner
        return wu.wu_metric(busemann.convexify(inner, resolution=CONVEX_RESOLUTION))

    # hull of {|z1|(1+|z2|) < 1} is Delta x C: intercepts (1, inf)
    return Op("convex:g2", call, lambda res: _check_wu(res, (1.0, math.inf), 1, VERTEX_TOL))


def _convex_elem_op(case) -> Op:
    kind, alpha, declared, a, x_vec, k, expected = case

    def call():
        spec = domains.elem_reinhardt(alpha, 0.0, declared)
        ind, _ = domains.metric_indicatrix(kind, spec, a, k)
        return wu.wu_metric(busemann.convexify(ind, resolution=CONVEX_RESOLUTION))

    def check(res):
        if not res.gap <= SOLVER_TOL:
            return ("uncertified", f"gap {res.gap!r} above {SOLVER_TOL!r}")
        value = math.sqrt(
            sum(abs(x) ** 2 / ax for x, ax in zip(x_vec, res.w_tilde.axes) if math.isfinite(ax))
        )
        if not _rel(value, expected) <= CONTACT_TOL + FP_SLACK:
            return ("wrong", f"w~(X) = {value!r}, expected {expected!r}")
        return None

    return Op(f"convex:{kind}", call, check)


# Copies of each convexified item per pass.  Only gn(7) and gn(8) are
# slower than them, so with 3 to 4 passes the latency tail (11th largest
# sample) lies among the top few of 48 to 64 convexified samples, where
# the hull LPs set it, instead of on one of a dozen gn(8) samples.
CONVEX_COPIES = 4


def build_radial_sweep(rng: np.random.Generator) -> list[Op]:
    ops = [_gn_origin_op(n) for n in range(4, 9)]
    for n in (3, 4, 5):
        m = float(np.exp(rng.uniform(0.0, math.log(64.0))))
        ops.append(_ellipsoid_op(n, m))
    convex = [_convex_g2_op()] + [_convex_elem_op(case) for case in CONVEX_ELEM_CASES]
    return ops + convex * CONVEX_COPIES


# ---------------------------------------------------------------------------
# cloud_solve: large Psi-clouds, few iterations over many points

# m * k is held near 6e5 so every item costs about the same.
CLOUD_SHAPES = ((100_000, 6), (85_714, 7), (75_000, 8), (66_667, 9), (60_000, 10))
CLOUD_MARGIN = 0.5


def _uniform_on_face(rng: np.random.Generator, count: int, k: int) -> np.ndarray:
    """Uniform points on the standard simplex's face (Dirichlet(1, ..., 1))."""
    x = rng.standard_exponential((count, k))
    return x / x.sum(axis=1, keepdims=True)


def random_cloud(rng: np.random.Generator, m: int, k: int) -> np.ndarray:
    """Seeded Psi-cloud with a well-separated optimum.

    k contact points on the face sum_j u_j / a_j = 1 whose hull holds the
    face centroid (so T_a is optimal), and m - k squared-moduli points
    drawn inside (1 - CLOUD_MARGIN) T_a.
    """
    a = np.exp(rng.uniform(math.log(0.5), math.log(2.0), k))
    contact = 0.5 * a / k + 0.5 * np.diag(a)
    depth = rng.uniform(0.0, 1.0 - CLOUD_MARGIN, (m - k, 1)) ** (1.0 / k)
    bulk = a * _uniform_on_face(rng, m - k, k) * depth
    points = np.vstack([contact, bulk])
    rng.shuffle(points)
    return points


def _program_op(label: str, points, check) -> Op:
    """Build the program from the points and solve it, both timed."""

    def call():
        return wu.min_vol_simplex_info(wu.simplex_program(points))

    return Op(label, call, check)


def build_cloud_solve(rng: np.random.Generator) -> list[Op]:
    ops = []
    for m, k in CLOUD_SHAPES:
        points = random_cloud(rng, m, k)
        ops.append(_program_op(f"cloud:{m}x{k}", points,
                               functools.partial(_check_certificate, points=points)))
    return ops


# ---------------------------------------------------------------------------
# near_tie: small programs, many iterations over few points

NEAR_TIE_DEPTHS = (1e-1, 1e-2, 1e-3)
NEAR_TIE_FACE, NEAR_TIE_INTERIOR = 100, 200
# Programs per (k, depth) and pass: enough 1e-2 programs that the median
# latency is the middle of a group of 24 samples or more.
NEAR_TIE_COPIES = 3
# Stall reproducers (1, 1) / (1 + eps, 1): the second point dominates, so
# the optimum is a = 2 (1 + eps, 1).  Kept at full size on purpose.
STALL_EPSILONS = (1e-5, 2e-7)


def near_tie_program(rng: np.random.Generator, k: int, depth: float):
    """Planted vertices a_j e_j, points on the face sum u_j / a_j = 1, and
    interior points at distance ``depth`` below it."""
    a = np.exp(rng.uniform(math.log(0.5), math.log(2.0), k))
    face = a * _uniform_on_face(rng, NEAR_TIE_FACE, k)
    inner = a * _uniform_on_face(rng, NEAR_TIE_INTERIOR, k) * (1.0 - depth)
    points = np.vstack([np.diag(a), face, inner])
    rng.shuffle(points)
    return a, points


def build_near_tie(rng: np.random.Generator) -> list[Op]:
    ops = []
    for k in (2, 3, 4, 5):
        for depth in NEAR_TIE_DEPTHS * NEAR_TIE_COPIES:
            a, points = near_tie_program(rng, k, depth)
            # the vertices a_j e_j are points, so a is optimal by AM-GM
            check = functools.partial(_check_planted, planted=a, tol=VERTEX_TOL)
            ops.append(_program_op(f"near_tie:k{k}:{depth:g}", points, check))
    for eps in STALL_EPSILONS:
        points = ((1.0, 1.0), (1.0 + eps, 1.0))
        planted = 2.0 * np.array([1.0 + eps, 1.0])
        check = functools.partial(_check_planted, planted=planted, tol=CONTACT_TOL)
        ops.append(_program_op(f"stall:{eps:g}", points, check))
    return ops


# Minimum passes keep the latency tail on one group of like operations;
# see README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("registry", build_registry, min_passes=1),
        Workload("radial_sweep", build_radial_sweep, min_passes=3, kernel="radial"),
        Workload("cloud_solve", build_cloud_solve, min_passes=1, kernel="large"),
        Workload("near_tie", build_near_tie, min_passes=1, kernel="ascent"),
    )
}
