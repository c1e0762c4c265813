"""Shared deterministic test fixtures and reference code.

The small cloud generator is seedless by design: it walks a
generalized-golden-ratio Kronecker sequence, so every run sees the same
"random" cases.  The hard clouds draw from a numpy generator with a fixed
seed.  The references that only tests call live here, not in the
library: the grid-search solver ``min_vol_simplex_bruteforce``, the
sandwich self-check ``sandwich_ok``, the LP hull radius, the Psi-point
containment test ``psi_contains``, the gn certificate's optimum
``gn_optimum`` typed from x and t, and ``volume_ratio``.  ``script`` loads
a script of ``scripts/`` as a module.
"""

from __future__ import annotations

import importlib.util
import math
from pathlib import Path

import numpy as np

from wumetric.busemann import absolute_directions
from wumetric.geometry import SimplexParams
from wumetric.wu import DegenerateAxisError, SimplexProgram, _assemble, _reduce


def script(name: str):
    """The module of ``scripts/<name>.py``."""
    path = Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def generalized_golden(d: int) -> float:
    x = 2.0
    for _ in range(64):
        x = (1.0 + x) ** (1.0 / (d + 1))
    return x


def kronecker_sequence(dim: int, count: int, skip: int = 0) -> list[tuple[float, ...]]:
    """Low-discrepancy points in [0, 1)^dim."""
    g = generalized_golden(dim)
    alphas = [g ** -(j + 1) for j in range(dim)]
    return [
        tuple((0.5 + (i + 1 + skip) * a) % 1.0 for a in alphas)
        for i in range(count)
    ]


def absolute_directions_loop(k: int, count: int) -> np.ndarray:
    """Loop reference for ``busemann.absolute_directions``: the coordinate
    axes, then every subset diagonal of two or more axes in ascending
    bit-mask order, then the Kronecker sweep of the open orthant up to
    ``count`` rows."""
    if k == 1:
        return np.array([[1.0]])
    rows = [[1.0 if i == j else 0.0 for i in range(k)] for j in range(k)]
    for mask in range(1, 1 << k):
        members = [j for j in range(k) if mask >> j & 1]
        if len(members) >= 2:
            entry = 1.0 / math.sqrt(len(members))
            rows.append([entry if j in members else 0.0 for j in range(k)])
    fill = count - len(rows)
    if fill > 0:
        g = generalized_golden(k - 1)
        steps = np.array([(1.0 / g) ** (j + 1) for j in range(k - 1)])
        angles = np.mod(0.5 + np.arange(1, fill + 1)[:, None] * steps, 1.0) * (math.pi / 2.0)
        sweep = np.ones((fill, k))
        for j in range(k - 1):
            sweep[:, j] *= np.cos(angles[:, j])
            sweep[:, j + 1 :] *= np.sin(angles[:, j : j + 1])
        rows.extend(sweep.tolist())
    return np.array(rows)


def _unit_discs_radius(m: np.ndarray) -> np.ndarray:
    """Radii of the unit polydisc in coordinates 3..n (infinite for n = 2)."""
    return np.minimum.reduce(1.0 / m[..., 2:], axis=-1, initial=math.inf)


def gn_ball_radius(kind: str, x: float = 0.0):
    """Unfactored closed-form radius of a gn ball on moduli of shape
    (..., n): the origin's inner ball G2 x Delta^(n-2) ("inner"), its
    outer cylinder Delta x C x Delta^(n-2) ("outer"), or the outer ball
    {|z_1| + x |z_2| < 1 - x^2} x Delta^(n-2) at (x, 0, ..., 0) ("axis")."""

    def radius(m: np.ndarray) -> np.ndarray:
        p, q = m[..., 0], m[..., 1]
        with np.errstate(divide="ignore"):
            head = {
                "inner": lambda: 2.0 / (p + np.sqrt(p * p + 4.0 * p * q)),
                "outer": lambda: 1.0 / p,
                "axis": lambda: (1.0 - x * x) / (p + x * q),
            }[kind]()
            return np.minimum(head, _unit_discs_radius(m))

    return radius


def polydisc_radius(radii: tuple[float, ...]):
    """Unfactored closed-form radius of the polydisc of these radii."""

    def radius(m: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return np.minimum.reduce(np.array(radii) / m, axis=-1)

    return radius


def cloud_cases(count: int) -> list[tuple[int, list[tuple[float, ...]]]]:
    """Deterministic Psi-point clouds: n in {2, 3}, 1..12 points, coords in [0, 2].

    Each axis keeps at least one coordinate bounded away from zero so the
    enclosing-simplex program never degenerates.
    """
    sizes = kronecker_sequence(1, count, skip=17)
    streams = {2: iter(kronecker_sequence(2, 13 * count)),
               3: iter(kronecker_sequence(3, 13 * count))}
    cases = []
    for i in range(count):
        n = 2 if i % 5 < 3 else 3
        size = 1 + int(sizes[i][0] * 12.0)
        pts = [tuple(2.0 * c for c in next(streams[n])) for _ in range(size)]
        for j in range(n):
            if max(p[j] for p in pts) < 0.05:
                pts[0] = tuple(0.8 if jj == j else c for jj, c in enumerate(pts[0]))
        cases.append((n, pts))
    return cases


def hard_cloud_cases() -> list[tuple[int, np.ndarray]]:
    """Seeded clouds with k = 2..9 in three families: near-duplicate pairs
    (relative perturbations up to 1e-7), zero-heavy rows (70 % zeros plus a
    point on every axis) and squared unit spheres |z_j|^2."""
    rng = np.random.default_rng(20260)
    cases = []
    for k in range(2, 10):
        base = rng.random((int(rng.integers(2, 16)), k)) + 0.1
        twin = base * (1.0 + rng.uniform(-1e-7, 1e-7, base.shape))
        cases.append((k, np.vstack([base, twin])))
        sparse = rng.random((int(rng.integers(k, 120)), k))
        sparse *= rng.random(sparse.shape) < 0.3
        sparse[:k] += 0.5 * np.eye(k)
        cases.append((k, sparse))
        z = rng.normal(size=(int(rng.integers(k, 300)), k))
        cases.append((k, (z / np.linalg.norm(z, axis=1, keepdims=True)) ** 2))
    return cases


def covering_kappa_punctured(z: complex, X: complex) -> float:
    """Kobayashi metric of the punctured disc, computed from scratch.

    p(lam) = exp((lam + 1)/(lam - 1)) is a universal covering of the
    punctured disc, so kappa at p(lam0) is the disc metric pushed forward:
    kappa(p(lam0); p'(lam0) v) = |v| / (1 - |lam0|^2).  Rotation invariance
    reduces everything to |z|.
    """
    import mpmath as mp

    with mp.workdps(50):
        w = mp.log(abs(mp.mpc(z)))  # real and negative on the punctured disc
        lam = (w + 1) / (w - 1)
        dp = mp.exp(w) * (-2) / (lam - 1) ** 2
        return float(abs(mp.mpc(X)) / abs(dp) / (1 - abs(lam) ** 2))


def sphere_directions(n: int, count: int, skip: int = 0) -> list[tuple[complex, ...]]:
    """Deterministic complex unit vectors (moduli + phases from the sequence)."""
    dirs = []
    for row in kronecker_sequence(2 * n, count, skip=skip):
        vec = [
            (0.05 + 0.95 * row[2 * j]) * complex(math.cos(2 * math.pi * row[2 * j + 1]),
                                                 math.sin(2 * math.pi * row[2 * j + 1]))
            for j in range(n)
        ]
        norm = math.sqrt(sum(abs(v) ** 2 for v in vec))
        dirs.append(tuple(v / norm for v in vec))
    return dirs


def hull_radius_lp(
    points: np.ndarray, unbounded: list[int], direction: np.ndarray
) -> float:
    """Reference for convexified radii: sup{t : t * direction in the
    downward-closed conv(points) plus the recession axes ``unbounded``},
    as one linear program over convex weights (scipy's HiGHS)."""
    from scipy.optimize import linprog

    k = points.shape[1]
    if all(j in unbounded for j in range(k) if direction[j] > 0.0):
        return math.inf
    m = points.shape[0]
    nu = len(unbounded)
    # variables: [t, lambda_1..m, mu_1..nu]; maximize t
    c = np.zeros(1 + m + nu)
    c[0] = -1.0
    a_ub = np.zeros((k, 1 + m + nu))
    a_ub[:, 0] = direction
    a_ub[:, 1 : 1 + m] = -points.T
    for col, j in enumerate(unbounded):
        a_ub[j, 1 + m + col] = -1.0
    a_eq = np.zeros((1, 1 + m + nu))
    a_eq[0, 1 : 1 + m] = 1.0
    res = linprog(
        c,
        A_ub=a_ub,
        b_ub=np.zeros(k),
        A_eq=a_eq,
        b_eq=np.ones(1),
        bounds=[(0, None)] * (1 + m + nu),
        method="highs",
    )
    if not res.success:
        raise RuntimeError(f"hull LP failed: {res.message}")
    return float(res.x[0])


def min_vol_simplex_bruteforce(prog: SimplexProgram, grid: int = 601) -> SimplexParams:
    """Grid-search reference solver (dimension <= 3).

    Scans the optimality box a_j in [max_i u_ij, k * max_i u_ij] over all
    axes but the last, whose intercept has the closed form
    max_i u_i,last / (1 - sum_{j<last} u_ij / a_j); three shrinking local
    refinement passes of 41 cells per axis follow the coarse scan.  Each
    scan takes the grid of leading intercepts as an open mesh (``np.ix_``)
    and builds the slack 1 - sum_j u_ij / a_j from one broadcast term per
    leading axis over a trailing point axis, so no meshgrid or stacked
    copy of the grid is made.  One axis returns a = max_i u_i.
    """
    reduced, _, lo, _, shift = _reduce(prog)
    k = reduced.shape[1]
    if k > 3:
        raise ValueError("bruteforce reference handles at most 3 axes")
    if k == 1:
        return _assemble(prog, lo, shift)

    def volumes(axes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(k-1, cells) leading intercepts -> volumes and last intercepts
        over their open mesh, each of shape (cells,) * (k-1)."""
        mesh = np.ix_(*axes)
        # sum_j<last u_ij / a_j as one broadcast term per leading axis over
        # a trailing point axis
        slack = 1.0 - sum((1.0 / g)[..., None] * uj for g, uj in zip(mesh, reduced.T))
        # zero slack needs u_last / 0 = inf, or nothing where u_last = 0 too
        # (0 / 0 = nan, which fmax skips); negative slack is infeasible
        with np.errstate(divide="ignore", invalid="ignore"):
            alast = np.fmax.reduce(reduced[:, -1] / slack, axis=-1, initial=0.0)
        alast[slack.min(axis=-1) < 0.0] = np.inf
        return math.prod(mesh) * alast, alast

    def grid_scan(center: np.ndarray, radius: np.ndarray, cells: int) -> np.ndarray:
        # np.linspace(start, stop, cells) on every leading axis at once
        start = np.maximum(lo[:-1], center - radius)
        stop = center + radius
        axes = np.arange(cells) * ((stop - start) / (cells - 1))[:, None] + start[:, None]
        axes[:, -1] = stop
        vol, _ = volumes(axes)
        flat = int(np.argmin(vol))
        if not math.isfinite(vol.reshape(-1)[flat]):
            raise DegenerateAxisError("no feasible grid point")
        return axes[np.arange(k - 1), np.unravel_index(flat, vol.shape)]

    center = 0.5 * (1 + k) * lo[:-1]
    radius = 0.5 * (k - 1) * lo[:-1] + 1e-9
    cells = grid if k == 2 else max(101, grid // 3)
    pt = grid_scan(center, radius, cells)
    span = 2.0 * radius / (cells - 1)
    for _ in range(3):
        pt = grid_scan(pt, np.maximum(4.0 * span, 1e-12), 41)
        span = span / 5.0
    a = np.empty(k)
    a[:-1] = pt
    a[-1] = volumes(pt[:, None])[1].item()
    return _assemble(prog, a, shift)


def sandwich_ok(sandwich, tol: float = 1e-12, samples: int = 64) -> bool:
    """Closed containment inner subset-of outer of a
    ``domains.SandwichIndicatrix``, on the inner certificates or on the
    inner ``boundary_points`` along ``samples`` directions."""
    inner, outer = sandwich.inner, sandwich.outer
    if inner.cloud is not None:
        pts = np.sqrt(inner.cloud)
    else:
        pts = inner.boundary_points(absolute_directions(inner.dim, samples))
    norm = np.linalg.norm(pts, axis=1)
    pts, norm = pts[norm > 0.0], norm[norm > 0.0]
    rho_out = outer.radii(pts / norm[:, None])
    return not np.any(norm > rho_out * (1.0 + tol) + tol)


def psi_contains(intercepts, p, tol: float) -> bool:
    """Whether the Psi-point p lies in the closed simplex T_a up to tol:
    sum over finite intercepts of p_j / a_j <= 1 + tol."""
    return sum(u / a for u, a in zip(p, intercepts) if math.isfinite(a)) <= 1.0 + tol


def volume_ratio(a, b) -> float:
    """vol T_a / vol T_b as the product of the intercept ratios a_j / b_j."""
    return math.prod(x / y for x, y in zip(a, b))


def gn_optimum(n: int, x: float, t: float) -> tuple[float, ...]:
    """Intercepts of the gn certificate's optimum with its first intercept
    pinned to t, typed from x and t alone (0 < x < 1, t > n/2):
    (t, t / (x (1 + x))^2, (n - 2) t / (t - (1 - x^2)^2), ...) while both
    certificate points bind, t <= (n - 1)(1 - x^2)^2, and
    (t, (n - 1)(1 - x)^2 / x^2, n - 1, ...) beyond."""
    if t <= (n - 1) * (1.0 - x * x) ** 2:
        trailing = (n - 2) * t / (t - (1.0 - x * x) ** 2)
        return (t, t / (x * (1.0 + x)) ** 2) + (trailing,) * (n - 2)
    return (t, (n - 1) * (1.0 - x) ** 2 / (x * x)) + (float(n - 1),) * (n - 2)
