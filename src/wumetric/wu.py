"""Minimal-volume enclosing simplexes and the induced Wu pseudometrics.

A diagonal Hermitian ellipsoid {sum |X_j|^2 / a_j < 1} corresponds under
Psi(z) = (|z_1|^2, ..., |z_n|^2) to the simplex T_a with axis intercepts
a.  Minimizing vol T_a = prod a_j / n! over simplexes containing a finite
point set u_1..u_m is, in the reciprocal variables b_j = 1/a_j, the concave
program

    maximize sum_j log b_j   subject to  <u_i, b> <= 1,  b > 0,

whose Lagrange dual is a diagonal D-optimal design problem over weights w
on the points: maximize sum_j log (U^T w)_j on the probability simplex.
The solver is a primal-dual interior-point Newton method on the n primal
variables, run on a working set of points that grows until the normalized
multipliers w certify optimality over every point through the duality gap
n * log(max_i score_i / n), score_i = sum_j u_ij / (U^T w)_j.
Each working set starts centred near the column-maxima simplex, with a
share UNIFORM_SHARE of the primal point of uniform weights in its
intercepts, and multipliers lam proportional to 1 / s.  Each step aims at
the centring target sigma * s.lam / m_w, with sigma = CENTERING**2 when
the undamped step stays feasible and CENTERING otherwise, so the gap
closes by about two decades a step, not one.
Newton steps score only the working set.  All m points are priced when the
working-set gap certifies, and once more when that gap stops halving, so a
solve passes over the whole cloud at most twice per working set, not once
per step.  Points are kept column-major, which makes every per-axis
reduction and the pricing one contiguous sweep.

Some programs are solved without it.  One axis and one point have closed
forms, and two points, such as the program behind the gn certificate, are
solved on their dual, which is concave in one weight w: an endpoint, or
the root of its derivative found by scalar Newton steps safeguarded by
bisection.  On more points, the simplex T_top through the column maxima
top is tried first: every enclosing T_a has a_j >= top_j, and T_top
scaled by reach, the largest column-normalized mass, contains every
point, so its gap k log(reach) certifies it whenever every point lies
under the face through the axis points, as for ellipsoids (the weak
duality half of Kiefer and Wolfowitz, 1960).

Each fact about a large cloud is read once and handed down: the column
maxima and their rows come from the program's validation pass
(``SimplexProgram.column_max``, ``column_argmax``), the column-normalized
masses, which say which points have mass and which are heaviest, from one
pass in the reduction, and the maximum of <u_i, b> that rescales the
returned b to contain every point from the pricing that returned it.

``wu_metric`` splits off the degenerate axes of an indicatrix, samples its
certificate points on the rest (a product ball factor by factor) and
solves the simplex program once for the minimal ellipsoid seminorm, and
``certify_contradiction_gn`` packages the volume-comparison argument that
rules out distance decrease under particular holomorphic maps.  Its
solved volume ratio is checked against ``gn_ratio``, a closed form typed
from x and the pin t alone, so a wrong mu or nu in the solved points is
refused.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .busemann import DIRECTIONS_PER_AXIS, Indicatrix, absolute_directions
from .geometry import DiagonalHermitianForm, SimplexParams
from .metrics import mu, nu

DEFAULT_SOLVER_TOL = 1e-10
# Interior-point constants: centring parameter, share of the uniform-weights
# point in the start, fraction-to-boundary step, working-set points per
# axis, and the Newton step budget.
CENTERING = 0.1
UNIFORM_SHARE = 0.1
TO_BOUNDARY = 0.99
WORK_PER_AXIS = 20
MAX_NEWTON_STEPS = 200
# Rows per block of the column-major copy of the points: a block of source
# and copy stays in cache, where one C-to-F copy strides through memory.
COPY_BLOCK_ROWS = 4096


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
    copied from the input in column-major (Fortran) order, so ``points.T``
    is a contiguous (n, m) view; tolerance: duality-gap certificate
    threshold.
    column_max, column_argmax: the read-only (n,) column maxima of the
    points and the first row of each, kept from the validation pass so
    neither the reduction nor the solve reads the points for them again.
    """

    points: np.ndarray
    tolerance: float = DEFAULT_SOLVER_TOL
    column_max: np.ndarray = field(init=False, repr=False)
    column_argmax: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if len(self.points) == 0:
            raise ValueError("at least one point required")
        try:
            src = np.asarray(self.points, dtype=float)
        except ValueError as exc:  # ragged rows or non-numeric entries
            raise ValueError(f"points must be real and share a dimension ({exc})") from None
        if src.ndim != 2:
            raise ValueError("points must share a dimension")
        m, n = src.shape
        if n == 0:
            raise ValueError(f"points need at least one coordinate, got shape {src.shape}")
        u = np.empty((m, n), order="F")
        for start in range(0, m, COPY_BLOCK_ROWS):
            u[start : start + COPY_BLOCK_ROWS] = src[start : start + COPY_BLOCK_ROWS]
        # NaN fails every comparison, so one minimum rejects NaN and negatives
        if not u.min(initial=0.0) >= 0.0:
            raise ValueError("coordinates must be nonnegative")
        # each maximum read off its row: column j starts at j m in u's buffer
        arg = u.argmax(axis=0)
        top = u.T.ravel()[arg + np.arange(0, m * n, m)]
        for j, t in enumerate(top.tolist()):
            if t == math.inf:
                raise DegenerateAxisError(f"infinite coordinate on axis {j}: degenerate")
        if not (math.isfinite(self.tolerance) and self.tolerance > 0.0):
            raise ValueError(f"tolerance must be finite and positive, got {self.tolerance!r}")
        for a in (u, top, arg):
            a.flags.writeable = False
        object.__setattr__(self, "points", u)
        object.__setattr__(self, "column_max", top)
        object.__setattr__(self, "column_argmax", arg)

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def simplex_program(
    points: Sequence[Sequence[float]], tolerance: float = DEFAULT_SOLVER_TOL
) -> SimplexProgram:
    return SimplexProgram(points=points, tolerance=tolerance)


@dataclass(frozen=True, eq=False)
class SolveInfo:
    """Certified optimum: the duality gap, the interior-point Newton steps
    taken (0 for the closed forms and the two-point dual) and the dual
    weights, a read-only float array with one entry per input point.
    Points with no mass (every coordinate 0) weigh 0; the weights sum to
    1."""

    params: SimplexParams
    gap: float
    iterations: int
    weights: np.ndarray


def _column_shifts(tops: list[float]) -> list[int] | None:
    """Exponent shifts that bring each column maximum t that is subnormal,
    or has k t > 2**1022 for k columns, into [1/2, 1); None if none has to
    move.  The common case costs one min and one max over the k maxima."""
    k = len(tops)
    if min(tops) >= sys.float_info.min and k * max(tops) <= 2.0**1022:
        return None
    shift = [
        -math.frexp(t)[1] if 0.0 < t < sys.float_info.min or k * t > 2.0**1022 else 0
        for t in tops
    ]
    return shift if any(shift) else None


def _reduce(
    prog: SimplexProgram,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, list[int] | None]:
    """Returns (reduced matrix, mask of the points kept as its rows, column
    maxima, the reduced row of each, column-normalized masses of its rows,
    exponent shifts of the columns or None).

    Points with no mass are dropped; with mass on every point the reduced
    matrix is the points as they are, column-major.  Dead axes, the column
    maxima and their rows (kept, as they have mass, and renumbered only
    when points were dropped) come from the program's validation pass; one
    pass over the rows gives the masses sum_j u_ij / max_i u_ij, which say
    which points have mass and which are heaviest.

    A column whose maximum t is subnormal, or so large that k t passes
    2**1022 (k axes), would overflow 1 / t in the masses or the solver's
    b = 1 / (k U^T w).  Such a column is scaled by the exact power of two
    2**shift that brings t into [1/2, 1) before the mass pass;
    ``_assemble`` scales its intercept back.  When every maximum is in
    range, shift is None and no pass is added.
    """
    reduced, top, arg = prog.points, prog.column_max, prog.column_argmax
    tops = top.tolist()
    dead = [j for j, t in enumerate(tops) if not t > 0.0]
    if dead:
        raise DegenerateAxisError(f"no point mass on axes {dead}: volume infimum 0 is not attained")
    shift = _column_shifts(tops)
    if shift is not None:
        # exact for the maxima, which stay on their rows; only an entry
        # scaled down into the subnormal range can round
        reduced, top = np.ldexp(reduced, shift), np.ldexp(top, shift)
    mass = reduced @ (1.0 / top)
    keep = mass > 0.0
    if not keep.all():
        reduced, mass, arg = reduced[keep], mass[keep], np.cumsum(keep)[arg] - 1
    return reduced, keep, top, arg, mass, shift


def _assemble(
    prog: SimplexProgram,
    a: np.ndarray,
    shift: list[int] | None = None,
    gap: float = math.nan,
) -> SimplexParams:
    """Intercepts of the program from those of the reduced matrix, which
    ``_reduce`` may have scaled by 2**shift: each is scaled back, rounded
    outward so containment holds.  One beyond the float range raises
    ``SolverError`` (reporting ``gap``) rather than read as degenerate."""
    out = a.tolist()
    for j, s in enumerate(shift or ()):
        if s:
            try:
                back = math.ldexp(out[j], -s)
            except OverflowError:
                raise SolverError(
                    f"intercept on axis {j} is beyond the float range "
                    f"(column maximum {float(prog.column_max[j]):.3e})",
                    gap,
                ) from None
            # scaling a subnormal result up again is exact
            out[j] = back if math.ldexp(back, s) >= out[j] else math.nextafter(back, math.inf)
    return SimplexParams(intercepts=tuple(out))


def _priced_gap(k: int, reach: float) -> float:
    """Duality gap k log(max(k reach, k) / k) of weights w whose primal
    point b = 1 / (k U^T w) has max_i <u_i, b> = reach."""
    return k * math.log(max(k * reach, k) / k)


def _solve_two_points(
    u: np.ndarray, tol: float, top: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float, float]:
    """The program on two rows p, q of u (k >= 2 columns) solved on its
    dual, a D-optimal design on two points (Kiefer and Wolfowitz, 1960):
    maximize F(w) = sum_j log(w p_j + (1 - w) q_j) over w in [0, 1].

    F'(w) = sum_j r_j with r_j = (p_j - q_j) / (w p_j + (1 - w) q_j), and
    F'' = -sum_j r_j^2, so F' is decreasing.  w = 1 is optimal when every
    p_j > 0 and F'(1) = sum_j (p_j - q_j) / p_j >= 0, and w = 0 when every
    q_j > 0 and F'(0) = sum_j (p_j - q_j) / q_j <= 0: the ends read F' with
    the same sums as the search.  Otherwise F' changes sign inside (0, 1),
    and safeguarded Newton steps on F' from w = 1/2 find its root: a step
    that leaves the bracket of the root is replaced by bisection, until F'
    is 0, a Newton step no longer moves w, or a step moves w by at most
    2**-53, half the float spacing at 1, the scale of w.  So a root within
    rounding of an end costs at most about 53 halvings, not a walk through
    the subnormals.  Scores do not change when a column is scaled, so F'
    is evaluated on unit column maxima (``top``), where no
    w p_j + (1 - w) q_j is 0 inside (0, 1).

    Returns (b, w, gap, reach) as ``_solve_reduced`` does: b = 1 / (k (w p
    + (1 - w) q)) on u as it is, the weights (w, 1 - w), the gap of its
    pricing and reach = max(<p, b>, <q, b>).  A gap above ``tol`` raises
    ``SolverError``.
    """
    k = u.shape[1]
    p, q = (u / top).tolist()
    d = [pj - qj for pj, qj in zip(p, q)]
    if all(pj > 0.0 for pj in p) and sum(dj / pj for dj, pj in zip(d, p)) >= 0.0:
        w = 1.0
    elif all(qj > 0.0 for qj in q) and sum(dj / qj for dj, qj in zip(d, q)) <= 0.0:
        w = 0.0
    else:
        lo, hi, w = 0.0, 1.0, 0.5
        while True:
            r = [dj / (qj + w * dj) for dj, qj in zip(d, q)]
            slope = sum(r)
            if slope > 0.0:
                lo = w
            elif slope < 0.0:
                hi = w
            else:
                break
            step = w + slope / sum(rj * rj for rj in r)
            if step == w:
                break
            if not lo < step < hi:
                step = 0.5 * (lo + hi)
            w, moved = step, abs(step - w)
            if moved <= 2.0**-53:
                break
    weights = np.array([w, 1.0 - w])
    b = 1.0 / (k * (weights @ u))
    reach = float((u @ b).max())
    gap = _priced_gap(k, reach)
    if gap > tol:
        raise SolverError(
            f"no certificate for the 2 x {k} program on its dual (gap {gap:.3e})", gap
        )
    return b, weights, gap, reach


def _solve_reduced(
    u: np.ndarray, tol: float, top: np.ndarray, arg: np.ndarray, mass: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float, int, float]:
    """Primal-dual interior-point Newton method (Boyd and Vandenberghe,
    Convex Optimization, 11.7) on maximize sum_j log b_j, U b + s = 1, s >= 0.

    Each working set starts near the column-maxima simplex b = 1 on the
    scaled points x (unit column maxima), at 1 / b = UNIFORM_SHARE k
    x.mean(axis=0) + 1 - UNIFORM_SHARE, the first term the primal point of
    uniform weights, scaled so that max_i <x_i, b> = TO_BOUNDARY, with
    s = 1 - x b and lam = mu / s, where b.X^T lam = k = b.(1 / b) fixes
    mu.  Each step targets s_i lam_i = sigma * s.lam / m_w, with sigma =
    CENTERING**2 after an undamped step that stays feasible, even if the
    fraction-to-boundary rule cuts it, and CENTERING on the first step and
    otherwise (Wright, Primal-Dual Interior-Point Methods, 1997, on
    adaptive centring).  The step length is the largest alpha <= 1 with
    y + alpha dy >= (1 - TO_BOUNDARY) y for y = (b, s, lam).

    ``top`` (u's column maxima), ``arg`` (their rows) and ``mass`` (its
    row masses sum_j u_ij / top_j) come from ``_reduce``, which takes the
    maxima and their rows from the program's validation pass and the
    masses from its one pass over the rows, so the solve scans no column.
    The method runs on a working set: the WORK_PER_AXIS * k points of
    largest mass and the rows of the column maxima.  Only the working set
    is scaled to unit column maxima: scores do not change when a column is
    scaled, so pricing reads u as it is.  Each Newton step scores only the
    working set, score_i = sum_j u_ij / (U^T w)_j with w = lam / sum(lam).
    Once the working-set gap k log(max_i score_i / k) is within ``tol``,
    all m points are priced: one pass u @ b (contiguous for column-major
    u) for the primal point b = 1 / (k U^T w) the iterate would return,
    whose full gap is k log(max(k max_i <u_i, b>, k) / k).  If that gap
    is not certified, the points with <u_i, b> > 1 join the set and the
    method restarts.  Once it is, steps continue while the working-set
    gap halves.  When it stops halving, the iterate with the smallest
    working-set gap since certification is priced once more, and of the
    two priced iterates the one with the smaller full gap is returned.
    A solve out of steps before that prices the iterate of smallest
    working-set gap, and returns it if the full gap is within ``tol``.
    Returns (b, w, gap, Newton steps, reach): w is scattered over all m
    points, and reach = max_i <u_i, b> is read off the pricing of the
    returned b, so the caller's containment rescale needs no pass.
    """
    m, k = u.shape
    if m <= WORK_PER_AXIS * k:
        work = np.arange(m)
    else:
        cut = m - WORK_PER_AXIS * k
        work = np.union1d(np.argpartition(mass, cut)[cut:], arg)

    def price(work: np.ndarray, w: np.ndarray) -> tuple[float, np.ndarray, float, np.ndarray]:
        """The weights w on ``work`` priced over all m points: their full
        gap, their primal point b, max_i <u_i, b> and u @ b."""
        b = 1.0 / (k * (w @ u[work]))
        ub = u @ b
        reach = float(ub.max())
        return _priced_gap(k, reach), b, reach, ub

    steps, best, near, certified = 0, math.inf, math.inf, None
    while True:
        # unit column maxima make the pivoting of the solve scale-free, so
        # power-of-two column scalings of u give bitwise-scaled results
        x = u[work] / top
        mw = len(work)
        # (b, s, lam) and (db, ds, dlam) are views of y and dy, so one
        # fraction-to-boundary scan and one update serve all three
        y, dy = np.ones(k + 2 * mw), np.empty(k + 2 * mw)
        b, s, lam = y[:k], y[k : k + mw], y[k + mw :]
        db, ds, dlam = dy[:k], dy[k : k + mw], dy[k + mw :]
        # near the column-maxima simplex, scaled to reach TO_BOUNDARY, and
        # lam = mu / s with mu such that b.X^T lam = k = b.(1 / b)
        b[:] = 1.0 / (UNIFORM_SHARE * k * x.mean(axis=0) + (1.0 - UNIFORM_SHARE))
        xb = x @ b
        b *= TO_BOUNDARY / xb.max()
        xb *= TO_BOUNDARY / xb.max()
        s -= xb
        lam[:] = k / float(xb @ (1.0 / s)) / s
        sigma, stuck = CENTERING, False
        while True:
            w = lam / lam.sum()
            gap = k * math.log(max(float((x @ (1.0 / (x.T @ w))).max()), k) / k)
            if gap <= near:
                near, near_at = gap, (work, w)
            if certified is None and gap <= tol:
                full, b_full, reach, ub = price(work, w)
                if full > tol:
                    best = min(best, full)
                    work = np.union1d(work, np.nonzero(ub > 1.0)[0])
                    break
                certified, lowest, lowest_w = (full, b_full, reach, w), gap, None
                done = full == 0.0
            elif certified is not None:
                # a halving run only ever lowers the smallest gap so far
                done = gap == 0.0 or not gap < 0.5 * lowest
                if gap < lowest:
                    lowest, lowest_w = gap, w
            if certified is None and (stuck or steps >= MAX_NEWTON_STEPS):
                # the full gap can certify where the working-set gap stalls
                full, b_full, reach, _ = price(*near_at)
                if full > tol:
                    best = min(best, full)
                    raise SolverError(
                        f"no certificate for the {m} x {k} program after {steps} "
                        f"Newton steps (best gap {best:.3e})",
                        best,
                    )
                work, w = near_at
                certified, lowest_w, done = (full, b_full, reach, w), None, True
            if certified is not None and (done or stuck or steps >= MAX_NEWTON_STEPS):
                best, best_b, reach, best_w = certified
                if lowest_w is not None:
                    again, b_again, reach_again, _ = price(work, lowest_w)
                    if again < best:
                        best, best_b, reach, best_w = again, b_again, reach_again, lowest_w
                full_w = np.zeros(m)
                full_w[work] = best_w
                return best_b, full_w, best, steps, reach
            steps += 1
            inv_s = 1.0 / s
            d = lam * inv_s
            tau = sigma * float(s @ lam) / mw
            hess = (x.T * d) @ x  # a fresh C-contiguous product: ravel() is a view
            hess.ravel()[:: k + 1] += 1.0 / b**2
            try:
                db[:] = np.linalg.solve(hess, 1.0 / b - tau * (x.T @ inv_s))
            except np.linalg.LinAlgError:  # the multipliers swamp the 1 / b^2 term
                stuck = True
                continue
            np.negative(x @ db, out=ds)
            dlam[:] = tau * inv_s - lam - d * ds
            # y > 0, so the largest step to the boundary is -1 / min(dy / y)
            q = float((dy / y).min())
            alpha = 1.0 if q >= -TO_BOUNDARY else -TO_BOUNDARY / q
            y += alpha * dy
            # a feasible undamped step means the iterate is well centred: aim lower
            sigma = CENTERING**2 if q >= -1.0 else CENTERING


def min_vol_simplex_info(prog: SimplexProgram) -> SolveInfo:
    """Solve the program with a duality-gap certificate.  One axis has the
    closed form a = max_i u_i, one point u on k axes the closed form
    a = k u; both have gap 0 and all weight on one point.  Two points on
    k >= 2 axes are solved on their one-weight dual (``_solve_two_points``).

    More points take the column-maxima simplex a = reach top when its gap
    k log(reach) is within the tolerance, with reach = max_i sum_j
    u_ij / top_j the largest mass from ``_reduce``: each enclosing a has
    a_j >= top_j, since the point that attains top_j must fit, so the
    volume is within reach^k of the optimum and each intercept within
    reach^k - 1 relative, tighter than the sqrt(2 gap) of a general
    optimum.  Its weights are 1/k on the row of each column maximum (from
    the validation pass), whose (U^T w)_j >= top_j / k certify the same
    gap.  Otherwise the program goes to the interior-point method
    (``_solve_reduced``).

    Columns with subnormal or huge maxima are solved scaled by a power of
    two (``_reduce``).  An intercept beyond the float range raises
    ``SolverError`` naming its axis: an infinite intercept would read as a
    degenerate axis."""
    reduced, keep, top, arg, mass, shift = _reduce(prog)
    k = reduced.shape[1]
    if k == 1 or len(reduced) == 1:
        # closed forms certified by all weight on one point, so the gap is
        # 0: one axis gives a = max u (every score u_i / max u is at most
        # 1), one point u gives a = k u (its score is k)
        i = int(arg[0])
        w = np.zeros(len(reduced))
        w[i] = 1.0
        a, gap, iters = k * reduced[i], 0.0, 0
    else:
        iters = 0
        if len(reduced) == 2:
            b, w, gap, reach = _solve_two_points(reduced, prog.tolerance, top)
        else:
            # the column-maxima simplex: the masses are the pricing of 1 / top
            reach = float(mass.max())
            gap = _priced_gap(k, reach)
            if gap <= prog.tolerance:
                b = 1.0 / top
                w = np.bincount(arg, minlength=len(reduced)) / k
            else:
                b, w, gap, iters, reach = _solve_reduced(reduced, prog.tolerance, top, arg, mass)
        # conservative rescale: containment of every reduced point, exactly;
        # reach is max(reduced @ b) from the pricing that returned b
        if reach > 1.0:
            b = b / reach
        a = 1.0 / b
    params = _assemble(prog, a, shift, gap)
    if not keep.all():
        w, kept = np.zeros(len(keep)), w
        w[keep] = kept
    w.flags.writeable = False
    return SolveInfo(params=params, gap=gap, iterations=iters, weights=w)


def min_vol_simplex(prog: SimplexProgram) -> SimplexParams:
    return min_vol_simplex_info(prog).params


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


def _psi_sample(ind: Indicatrix, axes: list[int]) -> np.ndarray:
    """Psi-points of the indicatrix on its bounded ``axes``: its cloud, or
    its boundary along ``DIRECTIONS_PER_AXIS`` directions per axis."""
    if ind.cloud is not None:
        return ind.cloud[:, axes]
    sub = absolute_directions(len(axes), DIRECTIONS_PER_AXIS * len(axes))
    dirs = np.zeros((len(sub), ind.dim))
    dirs[:, axes] = sub
    # a radius above about 1e154 squares to inf, which SimplexProgram refuses
    with np.errstate(over="ignore"):
        return ind.boundary_points(dirs)[:, axes] ** 2


def _product_sample(factors: tuple[Indicatrix, ...]) -> np.ndarray:
    """Every choice of one ``_psi_sample`` point per factor, joined in
    factor order, in row-major order of the choices.  A factor with no
    bounded axis adds no coordinate, a repeated factor, such as the unit
    disc of Delta^k, is sampled once, and one factor is its own sample."""
    sample: dict[int, np.ndarray] = {}
    for f in factors:
        if id(f) not in sample:
            axes = [j for j, b in enumerate(f.boundedness()) if b]
            sample[id(f)] = _psi_sample(f, axes) if axes else np.empty((1, 0))
    parts = [sample[id(f)] for f in factors]
    if len(parts) == 1:
        return parts[0]
    sizes = [len(p) for p in parts]
    out = np.empty((math.prod(sizes), sum(p.shape[1] for p in parts)))
    if not len(out):
        return out
    before, col = 1, 0
    for p, size in zip(parts, sizes):
        # out as (before, size, after, width): each block of rows is one p row
        block = out.reshape(before, size, len(out) // (before * size), out.shape[1])
        block[..., col : col + p.shape[1]] = p[:, None, :]
        before, col = before * size, col + p.shape[1]
    return out


def wu_metric(
    ind: Indicatrix,
    *,
    tolerance: float = DEFAULT_SOLVER_TOL,
) -> WuResult:
    """Wu seminorms of a balanced Reinhardt indicatrix.

    Degenerate axes (unbounded directions of the hull) are split off; on
    the complement the minimal-volume enclosing diagonal ellipsoid is
    computed by one certified solve over the certificate points: the
    cloud itself, or a boundary sample of the radial evaluator along
    ``DIRECTIONS_PER_AXIS`` directions per non-degenerate axis.  A ball
    bounded on every axis is sampled at another size as the cloud of its
    squared boundary points,
    ``cloud_indicatrix(ind.boundary_points(absolute_directions(k, count))
    ** 2)``.

    A product (``Indicatrix.factors``) is sampled factor by factor, each
    on its own bounded axes, and its certificate points are the Cartesian
    product of those samples; any other ball is its own single factor.
    Psi maps a product of balls to the product of their images, and a
    simplex contains a product of point sets exactly when it contains
    their hulls' product, so the one solve over the product points is the
    program of the whole ball, without subset diagonals that span several
    factors.
    """
    # a balanced Reinhardt ball's hull is unbounded exactly along its
    # unbounded axes, so the degenerate axes are read off the metadata
    bounded = ind.boundedness()
    u_axes = [j for j, b in enumerate(bounded) if b]
    v_axes = frozenset(j for j, b in enumerate(bounded) if not b)
    m, n = len(u_axes), ind.dim
    if m == 0:
        zero = DiagonalHermitianForm(axes=(math.inf,) * n)
        return WuResult(w_tilde=zero, w=zero, m=0, v_axes=v_axes, gap=0.0, certificate_points=0)
    pts = _product_sample(ind.factors or (ind,))
    info = min_vol_simplex_info(SimplexProgram(points=pts, tolerance=tolerance))
    axes_tilde = [math.inf] * n
    for col, j in enumerate(u_axes):
        axes_tilde[j] = info.params.intercepts[col]
    w_tilde = DiagonalHermitianForm(axes=tuple(axes_tilde))
    axes_w = tuple(a / m for a in axes_tilde)
    return WuResult(
        w_tilde=w_tilde,
        w=DiagonalHermitianForm(axes=axes_w),
        m=m,
        v_axes=v_axes,
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
    """Outcome of the volume-comparison certificate on gn, n >= 2.

    ratio > 1 certifies that no simplex with the pinned first intercept
    can both contain the constructed certificate points and have volume
    at most the comparison simplex's, contradicting the assumed metric
    inequality.  ratio is the solver's volume ratio and ratio_bound the
    closed form ``gn_ratio(n, x, t)``; regime is "active" when both
    certificate constraints bind at the pin and "slack" when the first
    does not.
    """

    n: int
    x: float
    t: float
    constrained: SimplexParams
    reference: SimplexParams
    ratio: float
    ratio_bound: float
    regime: str
    certified: bool


def _regime(n: int, x: float, t: float) -> str:
    """Regime of the pin t: "active" while t <= (n-1)(1 - x^2)^2 lets the
    first certificate point bind, "slack" beyond."""
    return "active" if t <= (n - 1) * (1.0 - x * x) ** 2 else "slack"


def _reference(n: int, x: float) -> tuple[float, ...]:
    return (n / 2.0, n / (2.0 * x * x)) + (float(n),) * (n - 2)


def _volume_ratio(a: Sequence[float], b: Sequence[float]) -> float:
    """vol T_a / vol T_b as the product of the intercept ratios a_j / b_j,
    in which n! cancels."""
    return math.prod(x / y for x, y in zip(a, b))


def gn_ratio(n: int, x: float, t: float) -> float:
    """Volume ratio of the certificate's pinned optimum on gn against the
    reference simplex, for n >= 2, 0 <= x < 1 and a pin t >= n/2; x = 0
    gives the x -> 0 limit, and t = n/2 the limit of the pin.  It is typed
    from x and t alone; other inputs raise ``ValueError``.

    With the first intercept pinned to t, minimizing the volume over
    simplexes containing (mu, 0, 1, ..., 1) and (0, nu, 1, ..., 1) reduces,
    after symmetrizing the trailing intercepts and saturating the second
    constraint, to one variable S = sum_{j>=3} 1/a_j.  The objective
    nu (n-2)^(n-2) / ((1-S) S^(n-2)) is unimodal with minimum at
    S = (n-2)/(n-1), and the first point caps S at 1 - mu/t, so the optimum
    is (t, nu/(1-S), (n-2)/S, ...) with S the smaller of the two: both
    constraints bind (active regime) exactly when t <= (n-1) mu.  With
    mu = (1 - x^2)^2 and x^2 nu = (1 - x)^2 its ratio against
    (n/2, n/(2 x^2), n, ..., n) is
    (2t/(n(1+x)))^2 ((n-2) t/(n (t - mu)))^(n-2) in the active regime and
    (2t/n) (2 (n-1) (1-x)^2/n) ((n-1)/n)^(n-2) in the slack one, which is
    t (1-x)^2 at n = 2.  A product of per-axis factors, so it meets
    neither n! nor n^n.  At n = 2 there is no trailing factor, and both
    regimes give 1 at the pin t = 1 with x = 0.
    """
    if not (isinstance(n, int) and n >= 2):
        raise ValueError("integer n >= 2 required")
    if not 0.0 <= x < 1.0:
        raise ValueError("x in [0, 1) required")
    if not t >= n / 2.0:
        raise ValueError("t >= n/2 required for the monotone volume bound")
    if _regime(n, x, t) == "active":
        ratio = (2.0 * t / (n * (1.0 + x))) ** 2
        if n > 2:
            ratio *= ((n - 2) * t / (n * (t - (1.0 - x * x) ** 2))) ** (n - 2)
        return ratio
    return (2.0 * t / n) * (2.0 * (n - 1) * (1.0 - x) ** 2 / n) * ((n - 1) / n) ** (n - 2)


def certify_contradiction_gn(n: int, x: float, t: float) -> ContradictionReport:
    """Volume-comparison certificate on gn = G2 x Delta^(n-2), n >= 2, at
    the base point (x, 0, ..., 0).

    Points (mu, 0, 1, ..., 1) and (0, nu, 1, ..., 1) with mu = (1-x^2)^2
    and nu = (1/x - 1)^2; first intercept pinned to t (required > n/2 so
    the constrained volume is increasing in the pin); reference simplex
    (n/2, n/(2 x^2), n, ..., n).  At n = 2 this is the two-variable
    certificate on G2 = {|z1|(1 + |z2|) < 1}: a pin s^2 with s > 1 gives
    the ratio s^2 (1-x)^2.

    The pin leaves the first point the slack rho = 1 - mu/t on the other
    n - 1 axes, so the pinned program is the plain program on the points
    (0, 1/rho, ..., 1/rho) and (nu, 1, ..., 1) there; its intercepts
    follow t.  ratio is the solver's volume ratio against the reference
    and decides ``certified``; it must match ``gn_ratio``, which reads
    neither mu nor nu, to 1e-11 relative, or ``SolverError`` is raised
    (measured at most 4.9e-13 for n up to 200).
    """
    if not (isinstance(n, int) and n >= 2):
        raise ValueError("integer n >= 2 required")
    if not 0.0 < x < 1.0:
        raise ValueError("x in (0, 1) required")
    if t <= n / 2.0:
        raise ValueError("t > n/2 required for the monotone volume bound")
    rho = 1.0 - mu(x) / t
    p = (0.0,) + (1.0 / rho,) * (n - 2)
    q = (nu(x),) + (1.0,) * (n - 2)
    free = min_vol_simplex(SimplexProgram(points=(p, q)))
    params = SimplexParams(intercepts=(t,) + free.intercepts)
    reference = SimplexParams(intercepts=_reference(n, x))
    ratio = _volume_ratio(params.intercepts, reference.intercepts)
    bound = gn_ratio(n, x, t)
    off = ratio / bound - 1.0
    if abs(off) > 1e-11:
        raise SolverError(
            f"constrained volume is {off:+.3e} relative off its closed form", gap=abs(off)
        )
    return ContradictionReport(
        n=n,
        x=x,
        t=t,
        constrained=params,
        reference=reference,
        ratio=ratio,
        ratio_bound=bound,
        regime=_regime(n, x, t),
        certified=ratio > 1.0,
    )
