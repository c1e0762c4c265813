"""Minimal-volume enclosing simplexes and the induced Wu pseudometrics.

A diagonal Hermitian ellipsoid {sum |X_j|^2 / a_j < 1} corresponds under
Psi(z) = (|z_1|^2, ..., |z_n|^2) to the simplex T_a with axis intercepts
a.  Minimizing vol T_a = prod a_j / n! over simplexes containing a finite
point set u_1..u_m is, in the reciprocal variables b_j = 1/a_j, the concave
program

    maximize sum_j log b_j   subject to  <u_i, b> <= 1,  b > 0,

whose Lagrange dual is a diagonal D-optimal design problem over weights w
on the points: maximize sum_j log (U^T w)_j on the probability simplex.
The solver is a primal-dual interior-point Newton method on the n_f
primal variables, run on a working set of points that grows until the
normalized multipliers w certify optimality over every point through the
duality gap n_f * log(max_i score_i / n_f), score_i = sum_j u_ij / (U^T w)_j.

Axes may be fixed (intercept pinned, e.g. by an a-priori inclusion) or
dropped (degenerate directions removed before solving).  Fixing reduces to
a free-axes program of the same shape via u~_i = u_i,free / rho_i with
rho_i = 1 - <u_i,fixed part>.

``wu_metric`` chains degeneracy analysis, certificate-point extraction and
the simplex program into the minimal ellipsoid seminorm of an indicatrix,
and ``certify_contradiction_*`` package the volume-comparison arguments
that rule out distance decrease under particular holomorphic maps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .busemann import (
    Indicatrix,
    UnsupportedIndicatrixError,
    absolute_directions,
    degeneracy,
)
from .geometry import (
    DiagonalHermitianForm,
    SimplexParams,
    simplex_volume,
)
from .metrics import mu, nu

DEFAULT_SOLVER_TOL = 1e-10
# Interior-point constants: centring parameter, fraction-to-boundary step,
# working-set points per free axis, and the Newton step budget.
CENTERING = 0.1
TO_BOUNDARY = 0.99
WORK_PER_AXIS = 20
MAX_NEWTON_STEPS = 200


class InfeasibleProgramError(ValueError):
    """Fixed intercepts exclude one of the points."""


class DegenerateAxisError(ValueError):
    """Axis admits no enclosing simplex of finite positive volume."""


class SolverError(RuntimeError):
    def __init__(self, message: str, gap: float):
        super().__init__(message)
        self.gap = gap


@dataclass(frozen=True, eq=False)
class SimplexProgram:
    """Minimal-volume enclosing simplex instance.

    points: Psi-points to enclose, kept as a read-only (m, n) float array
    copied from the input; fixed: axis -> pinned intercept;
    dropped: axes removed from the program (reported back as infinite
    intercepts); tolerance: duality-gap certificate threshold.
    """

    points: np.ndarray
    fixed: tuple[tuple[int, float], ...] = ()
    dropped: frozenset[int] = frozenset()
    tolerance: float = DEFAULT_SOLVER_TOL

    def __post_init__(self) -> None:
        if len(self.points) == 0:
            raise ValueError("at least one point required")
        try:
            u = np.array(self.points, dtype=float)
        except ValueError as exc:  # ragged rows or non-numeric entries
            raise ValueError(f"points must be real and share a dimension ({exc})") from None
        if u.ndim != 2:
            raise ValueError("points must share a dimension")
        n = u.shape[1]
        if np.isnan(u).any() or (u < 0.0).any():
            raise ValueError("coordinates must be nonnegative")
        for j in np.nonzero(np.isinf(u).any(axis=0))[0]:
            if j not in self.dropped:
                raise DegenerateAxisError(
                    f"infinite coordinate on axis {j}: degenerate, drop the axis first"
                )
        if not (math.isfinite(self.tolerance) and self.tolerance > 0.0):
            raise ValueError(f"tolerance must be finite and positive, got {self.tolerance!r}")
        u.flags.writeable = False
        object.__setattr__(self, "points", u)
        fixed = tuple(sorted((int(j), float(v)) for j, v in dict(self.fixed).items()))
        for j, v in fixed:
            if not 0 <= j < n:
                raise ValueError(f"fixed axis {j} out of range")
            if j in self.dropped:
                raise ValueError(f"axis {j} both fixed and dropped")
            if not (v > 0 and math.isfinite(v)):
                raise ValueError("fixed intercepts must be positive and finite")
        object.__setattr__(self, "fixed", fixed)
        object.__setattr__(self, "dropped", frozenset(int(j) for j in self.dropped))
        if any(not 0 <= j < n for j in self.dropped):
            raise ValueError("dropped axis out of range")

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def simplex_program(
    points: Sequence[Sequence[float]],
    fixed: Mapping[int, float] | None = None,
    dropped: Sequence[int] = (),
    tolerance: float = DEFAULT_SOLVER_TOL,
) -> SimplexProgram:
    return SimplexProgram(
        points=points,
        fixed=tuple((fixed or {}).items()),
        dropped=frozenset(dropped),
        tolerance=tolerance,
    )


@dataclass(frozen=True)
class SolveInfo:
    """Certified optimum: the duality gap, the Newton steps taken and the
    dual weights on the points kept by the reduction."""

    params: SimplexParams
    gap: float
    iterations: int
    weights: tuple[float, ...]

    @property
    def volume(self) -> float:
        finite = [a for a in self.params.intercepts if math.isfinite(a)]
        return math.prod(finite) / math.factorial(len(finite))


def _reduce(prog: SimplexProgram) -> tuple[np.ndarray, list[int], dict[int, float]]:
    """Scale out fixed axes; returns (reduced matrix, free axes, fixed map)."""
    n = prog.dim
    fixed = dict(prog.fixed)
    free = [j for j in range(n) if j not in fixed and j not in prog.dropped]
    u = prog.points
    rho = np.ones(len(u))
    for j, aj in fixed.items():
        rho -= u[:, j] / aj
    # rho >= 0 with no free mass: point already enclosed, constraint void
    keep = u[:, free].sum(axis=1) > 0.0
    violated = rho < -1e-12
    bad = np.nonzero(violated | (keep & (rho <= 0.0)))[0]
    if bad.size:
        i = int(bad[0])
        if violated[i]:
            raise InfeasibleProgramError(
                f"point {i} violates the fixed intercepts (slack {rho[i]:.3e})"
            )
        raise InfeasibleProgramError(
            f"point {i} saturates the fixed intercepts with free mass left"
        )
    reduced = u[np.ix_(keep, free)] / rho[keep, None]
    if free:
        if reduced.shape[0] == 0:
            raise DegenerateAxisError(
                f"no point mass on free axes {free}: volume infimum 0 is not attained"
            )
        dead = [free[j] for j in range(len(free)) if reduced[:, j].max() <= 0.0]
        if dead:
            raise DegenerateAxisError(
                f"no point mass on axes {dead}: volume infimum 0 is not attained"
            )
    return reduced, free, fixed


def _assemble(
    prog: SimplexProgram, free: list[int], fixed: dict[int, float], b: np.ndarray
) -> SimplexParams:
    a = [math.inf] * prog.dim
    for j, v in fixed.items():
        a[j] = v
    for col, j in enumerate(free):
        a[j] = 1.0 / b[col]
    return SimplexParams(intercepts=tuple(a))


def _solve_reduced(u: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray, float, int]:
    """Primal-dual interior-point Newton method (Boyd and Vandenberghe,
    Convex Optimization, 11.7) on maximize sum_j log b_j, U b + s = 1, s >= 0.

    It runs on a working set: the WORK_PER_AXIS * k points of largest
    column-normalized mass and each column's maximum.  Once that set is
    solved but the gap k log(max_i score_i / k) over all points is not
    certified, where score_i = sum_j u_ij / (U^T w)_j and w = lam / sum(lam),
    the points with score_i > k join it.  Steps continue past ``tol`` while
    the gap halves.  Returns (b, w, gap, Newton steps).
    """
    m, k = u.shape
    # unit column maxima make the pivoting of the solve scale-free, so
    # power-of-two column scalings of u give bitwise-scaled results
    scale = u.max(axis=0)
    v = u / scale
    heavy = np.argpartition(-v.sum(axis=1), min(WORK_PER_AXIS * k, m) - 1)
    work = np.union1d(heavy[: WORK_PER_AXIS * k], v.argmax(axis=0))
    steps, best = 0, math.inf
    while True:
        x = v[work]
        b = np.full(k, 0.5 / k)
        s = 1.0 - x @ b
        lam = np.ones(len(work))
        stuck = False
        while True:
            w = lam / lam.sum()
            mass = x.T @ w
            score = v @ (1.0 / mass)
            gap = k * math.log(max(float(score.max()), k) / k)
            halved = gap < 0.5 * best
            if gap < best:
                best, best_w = gap, np.zeros(m)
                best_w[work] = w
            if best <= tol and (best == 0.0 or not halved):
                return 1.0 / (k * (u.T @ best_w)), best_w, best, steps
            if k * math.log(max(float(score[work].max()), k) / k) <= tol < best:
                work = np.union1d(work, np.nonzero(score > k)[0])
                break
            if stuck or steps >= MAX_NEWTON_STEPS:
                raise SolverError(
                    f"no certificate for the {m} x {k} program after {steps} "
                    f"Newton steps (best gap {best:.3e})",
                    best,
                )
            steps += 1
            d = lam / s
            tau = CENTERING * float(s @ lam) / len(s)
            hess = (x.T * d) @ x + np.diag(1.0 / b**2)
            try:
                db = np.linalg.solve(hess, 1.0 / b - tau * (x.T @ (1.0 / s)))
            except np.linalg.LinAlgError:  # the multipliers swamp the 1 / b^2 term
                stuck = True
                continue
            ds = -(x @ db)
            dlam = tau / s - lam - d * ds
            alpha = 1.0
            for z, dz in ((b, db), (s, ds), (lam, dlam)):
                neg = dz < 0.0
                if neg.any():
                    alpha = min(alpha, TO_BOUNDARY * float(np.min(z[neg] / -dz[neg])))
            b, s, lam = b + alpha * db, s + alpha * ds, lam + alpha * dlam


def min_vol_simplex_info(prog: SimplexProgram) -> SolveInfo:
    """Solve the program with a duality-gap certificate."""
    reduced, free, fixed = _reduce(prog)
    if not free:
        params = _assemble(prog, free, fixed, np.zeros(0))
        return SolveInfo(params=params, gap=0.0, iterations=0, weights=())
    b, w, gap, iters = _solve_reduced(reduced, prog.tolerance)
    # conservative rescale: containment of every reduced point, exactly
    top = float(np.max(reduced @ b))
    if top > 1.0:
        b = b / top
    params = _assemble(prog, free, fixed, b)
    return SolveInfo(
        params=params,
        gap=gap,
        iterations=iters,
        weights=tuple(w.tolist()),
    )


def min_vol_simplex(prog: SimplexProgram) -> SimplexParams:
    return min_vol_simplex_info(prog).params


def min_vol_simplex_bruteforce(prog: SimplexProgram, grid: int = 601) -> SimplexParams:
    """Grid-search reference solver (free dimension <= 3).

    Scans the optimality box a_j in [max_i u_ij, n_f * max_i u_ij] over all
    free axes but the last, whose intercept has the closed form
    max_i u_i,last / (1 - sum_{j<last} u_ij / a_j); three shrinking local
    refinement passes follow the coarse scan.
    """
    reduced, free, fixed = _reduce(prog)
    k = len(free)
    if k == 0:
        return _assemble(prog, free, fixed, np.zeros(0))
    if k > 3:
        raise ValueError("bruteforce reference handles at most 3 free axes")
    lo = reduced.max(axis=0)
    if k == 1:
        return _assemble(prog, free, fixed, np.array([1.0 / lo[0]]))

    def volumes(partials: np.ndarray) -> np.ndarray:
        """partials: (..., k-1) grids of leading intercepts -> volumes."""
        slack = 1.0 - np.tensordot(1.0 / partials, reduced[:, :-1], axes=([-1], [1]))
        ulast = reduced[:, -1]
        # slack <= 0 with mass on the last axis (or negative slack at all)
        # means no feasible last intercept
        with np.errstate(divide="ignore", invalid="ignore"):
            req = np.where(slack > 0.0, ulast / slack, np.where(ulast > 0.0, np.inf, 0.0))
        req = np.where(slack < 0.0, np.inf, req)
        alast = req.max(axis=-1)
        return np.prod(partials, axis=-1) * alast, alast

    def grid_scan(center: np.ndarray, radius: np.ndarray, cells: int) -> np.ndarray:
        axes = [
            np.linspace(max(lo[j], center[j] - radius[j]), center[j] + radius[j], cells)
            for j in range(k - 1)
        ]
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        vol, _ = volumes(mesh)
        flat = int(np.argmin(vol))
        if not math.isfinite(vol.reshape(-1)[flat]):
            raise DegenerateAxisError("no feasible grid point")
        idx = np.unravel_index(flat, vol.shape)
        return mesh[idx]

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
    _, alast = volumes(pt)
    a[-1] = alast
    return _assemble(prog, free, fixed, 1.0 / a)


# ---------------------------------------------------------------------------
# Wu pseudometric of an indicatrix


@dataclass(frozen=True)
class WuResult:
    """Minimal-ellipsoid seminorms of an indicatrix.

    w_tilde is the minimal enclosing diagonal Hermitian ellipsoid seminorm
    (vanishing on the degenerate axes); w is its sqrt(m)-normalized variant
    whose restriction to non-degenerate polydiscs matches the Euclidean
    cross-section.  m counts non-degenerate axes.
    """

    w_tilde: DiagonalHermitianForm
    w: DiagonalHermitianForm
    m: int
    v_axes: frozenset[int]
    gap: float
    certificate_points: int

    def simplex(self) -> SimplexParams:
        return SimplexParams(intercepts=self.w_tilde.axes)


def _certificates_from_radial(
    ind: Indicatrix, u_axes: list[int], resolution: int
) -> list[tuple[float, ...]]:
    pts: list[tuple[float, ...]] = []
    for d in absolute_directions(len(u_axes), resolution):
        full = [0.0] * ind.dim
        for col, j in enumerate(u_axes):
            full[j] = float(d[col])
        rho = ind.radial(tuple(complex(c) for c in full))
        if not math.isfinite(rho):
            raise UnsupportedIndicatrixError(
                "radial evaluator unbounded along a declared-bounded axis set"
            )
        if rho > 0.0:
            pts.append(tuple((rho * d[col]) ** 2 for col in range(len(u_axes))))
    return pts


def wu_metric(
    ind: Indicatrix,
    *,
    resolution: int | None = None,
    tolerance: float = DEFAULT_SOLVER_TOL,
) -> WuResult:
    """Wu seminorms of a balanced Reinhardt indicatrix.

    Degenerate axes (unbounded directions of the hull) are split off; on
    the complement the minimal-volume enclosing diagonal ellipsoid is
    computed by one certified solve over the certificate points: the
    cloud itself, or a boundary sample of the radial evaluator along
    ``resolution`` directions (default 256 per non-degenerate axis).
    """
    if not (ind.balanced and ind.reinhardt):
        raise UnsupportedIndicatrixError("wu_metric needs a balanced Reinhardt indicatrix")
    report = degeneracy(ind)
    n = ind.dim
    if report.m == 0:
        zero = DiagonalHermitianForm(axes=(math.inf,) * n)
        return WuResult(
            w_tilde=zero, w=zero, m=0, v_axes=report.v_axes, gap=0.0, certificate_points=0
        )
    u_axes = [j for j in range(n) if j not in report.v_axes]
    if ind.cloud is not None:
        pts = [tuple(p[j] for j in u_axes) for p in ind.cloud]
    else:
        pts = _certificates_from_radial(ind, u_axes, resolution or 256 * len(u_axes))
    info = min_vol_simplex_info(SimplexProgram(points=pts, tolerance=tolerance))
    axes_tilde = [math.inf] * n
    for col, j in enumerate(u_axes):
        axes_tilde[j] = info.params.intercepts[col]
    w_tilde = DiagonalHermitianForm(axes=tuple(axes_tilde))
    axes_w = tuple(a / report.m for a in axes_tilde)
    return WuResult(
        w_tilde=w_tilde,
        w=DiagonalHermitianForm(axes=axes_w),
        m=report.m,
        v_axes=report.v_axes,
        gap=info.gap,
        certificate_points=len(pts),
    )


def wu_product(left: WuResult, right: WuResult) -> WuResult:
    """Wu seminorms of a product: W^2 adds blockwise, m adds.

    Follows from the product rule for minimal enclosing ellipsoids of
    products of balanced sets restricted to diagonal forms.
    """
    m = left.m + right.m
    axes_w = left.w.axes + right.w.axes
    if m == 0:
        axes_tilde = (math.inf,) * len(axes_w)
    else:
        axes_tilde = tuple(a * m if math.isfinite(a) else math.inf for a in axes_w)
    n_left = len(left.w.axes)
    v_axes = frozenset(left.v_axes) | frozenset(n_left + j for j in right.v_axes)
    return WuResult(
        w_tilde=DiagonalHermitianForm(axes=axes_tilde),
        w=DiagonalHermitianForm(axes=axes_w),
        m=m,
        v_axes=v_axes,
        gap=max(left.gap, right.gap),
        certificate_points=left.certificate_points + right.certificate_points,
    )


# ---------------------------------------------------------------------------
# volume-comparison certificates against distance decrease


@dataclass(frozen=True)
class ContradictionReport:
    """Outcome of a volume-comparison certificate.

    ratio > 1 certifies that no simplex with the pinned first intercept
    can both contain the constructed certificate points and have volume
    at most the comparison simplex's, contradicting the assumed metric
    inequality.  ratio_bound is the algebraic prediction of the ratio;
    the two-variable certificate realizes it exactly.
    """

    x: float
    t: float
    constrained: SimplexParams
    constrained_volume: float
    reference: SimplexParams
    reference_volume: float
    ratio: float
    ratio_bound: float
    certified: bool


def certify_contradiction_g2(x: float, t: float) -> ContradictionReport:
    """Two-variable Hartogs-triangle-type certificate at base point (x, 0).

    Certificate points (mu, 0) and (0, nu) with mu = (1-x^2)^2 and
    nu = (1/x - 1)^2 must lie in any enclosing simplex; pinning the first
    intercept to t^2 forces volume ratio >= t^2 (1-x)^2 against the
    reference simplex with intercepts (1, 1/x^2).
    """
    if not 0.0 < x < 1.0:
        raise ValueError("x in (0, 1) required")
    if t <= 1.0:
        raise ValueError("t > 1 required")
    prog = SimplexProgram(points=((mu(x), 0.0), (0.0, nu(x))), fixed=((0, t * t),))
    params = min_vol_simplex(prog)
    vol_c = simplex_volume(params)
    reference = SimplexParams(intercepts=(1.0, 1.0 / (x * x)))
    vol_r = simplex_volume(reference)
    ratio = vol_c / vol_r
    bound = (t * (1.0 - x)) ** 2
    return ContradictionReport(
        x=x,
        t=t,
        constrained=params,
        constrained_volume=vol_c,
        reference=reference,
        reference_volume=vol_r,
        ratio=ratio,
        ratio_bound=bound,
        certified=ratio > 1.0,
    )


@dataclass(frozen=True)
class ContradictionReportN(ContradictionReport):
    n: int
    ratio_limit: float


def gn_ratio_limit(n: int, t: float) -> float:
    """x -> 0 limit of the n-variable certificate volume ratio."""
    return 4.0 * (n - 2) ** (n - 2) * t**n / (n**n * (t - 1.0) ** (n - 2))


def gn_constrained_optimum(n: int, x: float, t: float) -> tuple[float, ...]:
    """Exact optimum of the pinned two-point program behind the certificate.

    With the first intercept pinned to t, minimizing the volume over
    simplexes containing (mu, 0, 1, ..., 1) and (0, nu, 1, ..., 1) reduces,
    after symmetrizing the trailing intercepts and saturating the second
    constraint, to one variable S = sum_{j>=3} 1/b_j.  The objective
    nu (n-2)^(n-2) / ((1-S) S^(n-2)) is unimodal with interior minimum at
    S = (n-2)/(n-1); the first point's constraint caps S at 1 - mu/t.  The
    fully active stationary point (t, nu t / mu, (n-2) t / (t-mu), ...) is
    therefore optimal exactly when t <= (n-1) mu, and for larger pins the
    first constraint goes slack.
    """
    s_opt = min((n - 2) / (n - 1), 1.0 - mu(x) / t)
    return (t, nu(x) / (1.0 - s_opt)) + ((n - 2) / s_opt,) * (n - 2)


def certify_contradiction_gn(n: int, x: float, t: float) -> ContradictionReportN:
    """n-variable analogue with certificate points embedded in a cylinder.

    Points (mu, 0, 1, ..., 1) and (0, nu, 1, ..., 1); first intercept
    pinned to t (required > n/2 so the constrained volume is increasing in
    the pin); reference simplex (n/2, n/(2 x^2), n, ..., n).

    ratio is the solver's volume ratio against the reference; ratio_bound
    evaluates the fully active stationary point, so the two agree only
    while t <= (n-1) mu and ratio_bound overestimates the ratio beyond
    that threshold.  Certification uses the solver value.
    """
    if not (isinstance(n, int) and n >= 3):
        raise ValueError("integer n >= 3 required")
    if not 0.0 < x < 1.0:
        raise ValueError("x in (0, 1) required")
    if t <= n / 2.0:
        raise ValueError("t > n/2 required for the monotone volume bound")
    mu_x, nu_x = mu(x), nu(x)
    p = (mu_x, 0.0) + (1.0,) * (n - 2)
    q = (0.0, nu_x) + (1.0,) * (n - 2)
    prog = SimplexProgram(points=(p, q), fixed=((0, t),))
    params = min_vol_simplex(prog)
    vol_c = simplex_volume(params)
    expected = gn_constrained_optimum(n, x, t)
    vol_expected = math.prod(expected) / math.factorial(n)
    if abs(vol_c - vol_expected) > 1e-9 * vol_expected:
        raise SolverError(
            f"constrained volume {vol_c!r} disagrees with closed form {vol_expected!r}",
            gap=abs(vol_c / vol_expected - 1.0),
        )
    active = (t, nu_x * t / mu_x) + ((n - 2) * t / (t - mu_x),) * (n - 2)
    vol_active = math.prod(active) / math.factorial(n)
    if vol_c > vol_active * (1.0 + 1e-9):
        raise SolverError(
            "constrained volume exceeds a feasible stationary point",
            gap=vol_c / vol_active - 1.0,
        )
    reference = SimplexParams(
        intercepts=(n / 2.0, n / (2.0 * x * x)) + (float(n),) * (n - 2)
    )
    vol_r = simplex_volume(reference)
    ratio = vol_c / vol_r
    return ContradictionReportN(
        x=x,
        t=t,
        constrained=params,
        constrained_volume=vol_c,
        reference=reference,
        reference_volume=vol_r,
        ratio=ratio,
        ratio_bound=vol_active / vol_r,
        certified=ratio > 1.0,
        n=n,
        ratio_limit=gn_ratio_limit(n, t),
    )
