"""Minimal-volume enclosing simplex solver and the Wu construction.

Solver results are checked four ways: against closed forms (box corners,
the gn certificate's two-point program, its pin scaled out, in both
active and slack regimes), against the exhaustive grid reference,
against the convex-programming invariants (containment, permutation
equivariance, exact scaling), and against
planted optima of adversarial programs (near-duplicate and dominated
points, axis scales from 1e-12 to 1e12, single-axis mass).
"""

import inspect
import itertools
import math
import sys
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    cloud_cases,
    gn_ball_radius,
    gn_optimum,
    hard_cloud_cases,
    min_vol_simplex_bruteforce,
    psi_contains,
    volume_ratio,
)
from wumetric.busemann import (
    batch_radial,
    cloud_indicatrix,
    convexify,
    product_indicatrix,
    radial_indicatrix,
)
from wumetric.domains import g2, gn, indicatrix_at, polydisc, synthetic_rem_one
from wumetric.experiments import polydisc_cases
from wumetric.geometry import SimplexParams
from wumetric import wu as wu_module
from wumetric.wu import (
    DegenerateAxisError,
    SimplexProgram,
    SolverError,
    certify_contradiction_gn,
    gn_ratio,
    min_vol_simplex,
    min_vol_simplex_info,
    simplex_program,
    wu_metric,
    wu_product,
)

TOL = 1e-10


def solve(points, **kw):
    return min_vol_simplex(simplex_program(points, **kw)).intercepts


def two_point_program(n, x):
    """The certificate's two points, with nu = ((1 - x) / x)^2 written out
    as ``metrics.nu`` computes it: (1/x - 1)^2 would cancel near x = 1
    (2.2e-14 relative at x = 0.99), which the typed closed forms of
    ``helpers.gn_optimum`` do not."""
    mu = (1.0 - x * x) ** 2
    nu = ((1.0 - x) / x) ** 2
    p1 = (mu, 0.0) + (1.0,) * (n - 2)
    p2 = (0.0, nu) + (1.0,) * (n - 2)
    return simplex_program([p1, p2]), mu, nu


def pinned_two_point_program(n, x, t):
    """The certificate's program with its first intercept pinned to t,
    scaled to the plain program on the other n - 1 axes: a simplex
    through (t, a_2, ..., a_n) contains (mu, 0, 1, ..., 1) iff T_(a_2..a_n)
    contains (0, 1, ..., 1) / (1 - mu/t).  nu as in ``two_point_program``."""
    mu = (1.0 - x * x) ** 2
    nu = ((1.0 - x) / x) ** 2
    rho = 1.0 - mu / t
    p1 = (0.0,) + (1.0 / rho,) * (n - 2)
    p2 = (nu,) + (1.0,) * (n - 2)
    return simplex_program([p1, p2]), mu, nu


# ---------------------------------------------------------------------------
# closed forms


def test_box_corner_gives_n_r_squared():
    for n in (1, 2, 3, 4, 6):
        r2 = tuple(0.2 + 0.37 * j for j in range(n))
        a = solve([r2])
        for got, want in zip(a, r2):
            assert got == pytest.approx(n * want, rel=1e-12)


def test_one_free_axis_is_the_largest_coordinate_exactly():
    # a = max u in closed form, certified by all weight on the argmax, and
    # no point outside in exact arithmetic (1 / b can round inside max u)
    u = np.random.default_rng(511).random((511, 1))
    info = min_vol_simplex_info(simplex_program(u))
    top = int(np.argmax(u))
    assert info.params.intercepts == (u[top, 0],)
    assert (info.iterations, info.gap) == (0, 0.0)
    assert info.weights[top] == 1.0 and np.count_nonzero(info.weights) == 1
    a = Fraction(info.params.intercepts[0])
    assert all(Fraction(x) / a <= 1 for x in u[:, 0].tolist())


def test_one_free_axis_beside_a_fixed_one():
    # the n = 2 certificate: with a_1 pinned, (mu, 0) has no mass left on
    # the free axis and weighs 0, and the closed form gives a_2 = nu
    for x, t in [(0.3, 1.21), (0.01, 4.0)]:
        prog, _, nu = pinned_two_point_program(2, x, t)
        info = min_vol_simplex_info(prog)
        assert info.params.intercepts == (nu,)
        assert info.weights.tolist() == [0.0, 1.0]
        assert (info.iterations, info.gap) == (0, 0.0)
        assert certify_contradiction_gn(2, x, t).constrained.intercepts == (t, nu)
    # zero rows among others weigh 0 too
    info = min_vol_simplex_info(simplex_program([(0.0,), (0.5,), (0.0,), (0.25,)]))
    assert info.params.intercepts == (0.5,)
    assert info.weights.tolist() == [0.0, 1.0, 0.0, 0.0]


def test_one_point_is_k_times_the_point_exactly():
    # a = k u in closed form, certified by all weight on the point (its score
    # is k); the point with no mass beside it weighs 0
    u = (0.2, 0.57, 0.94)
    info = min_vol_simplex_info(simplex_program([u]))
    assert info.params.intercepts == tuple(3 * c for c in u)
    assert (info.iterations, info.gap) == (0, 0.0)
    assert info.weights.tolist() == [1.0]
    info = min_vol_simplex_info(simplex_program([(0.0, 0.0), (0.5, 0.25)]))
    assert info.params.intercepts == (1.0, 0.5)
    assert info.weights.tolist() == [0.0, 1.0]
    assert (info.iterations, info.gap) == (0, 0.0)


def test_gn_origin_intercepts_are_n_minus_one_for_n_up_to_200():
    # the gn(n) origin is the one point (1, ..., 1) on the n - 1 bounded
    # axes: its closed form is exact, where Newton steps and the containment
    # rescale can land an ulp off n - 1
    for n in range(3, 201):
        res = wu_metric(indicatrix_at(gn(n), (0.0,) * n).inner)
        assert res.w_tilde.axes == (float(n - 1), math.inf) + (float(n - 1),) * (n - 2), n
        assert res.gap == 0.0
        assert res.w((1.0,) + (0.0,) * (n - 1)) == 1.0


def test_independent_axis_points():
    assert solve([(1.0, 0.0), (0.0, 1.0)]) == pytest.approx((1.0, 1.0), rel=1e-12)


def test_single_diagonal_point():
    assert solve([(1.0, 1.0)]) == pytest.approx((2.0, 2.0), rel=1e-12)


def test_redundant_interior_points_do_not_move_optimum():
    base = solve([(1.0, 1.0)])
    padded = solve([(1.0, 1.0), (0.2, 0.1), (0.0, 0.5), (1.0, 0.0)])
    assert padded == pytest.approx(base, rel=1e-12)


def test_pinned_two_point_active_regime():
    # pin below (n-1) mu: both certificate constraints stay active and the
    # optimum is (t, nu t / mu, (n-2) t / (t - mu), ...)
    n, x, t = 3, 0.1, 1.5
    prog, mu, nu = pinned_two_point_program(n, x, t)
    assert t <= (n - 1) * mu
    want = (t, nu * t / mu, (n - 2) * t / (t - mu))
    a = (t,) + min_vol_simplex(prog).intercepts
    assert a == pytest.approx(want, rel=1e-9)
    assert a == pytest.approx(gn_optimum(n, x, t), rel=1e-9)


def test_pinned_two_point_slack_regime():
    # pin above (n-1) mu: the first constraint goes slack and the trailing
    # intercepts settle at n-1
    n, x, t = 3, 0.1, 2.0
    prog, mu, nu = pinned_two_point_program(n, x, t)
    assert t > (n - 1) * mu
    a = (t,) + min_vol_simplex(prog).intercepts
    assert a == pytest.approx((t, (n - 1) * nu, float(n - 1)), rel=1e-9)
    assert certify_contradiction_gn(n, x, t).constrained.intercepts == a
    assert a == pytest.approx(gn_optimum(n, x, t), rel=1e-9)


def test_pinned_two_point_matches_reduced_optimum_across_regimes():
    for n, x, t in [(3, 0.3, 1.6), (3, 0.05, 2.0), (4, 0.2, 2.1), (5, 0.1, 2.6)]:
        a = certify_contradiction_gn(n, x, t).constrained.intercepts
        assert a == pytest.approx(gn_optimum(n, x, t), rel=1e-8)


def test_unpinned_two_point_optimum():
    # free program: S = (n-2)/n, giving (n mu / 2, n nu / 2, n, ..., n)
    for n, x in [(3, 0.1), (4, 0.05), (2, 0.3)]:
        prog, mu, nu = two_point_program(n, x)
        a = min_vol_simplex(prog).intercepts
        if n == 2:
            want = (mu, nu)
        else:
            want = (n * mu / 2.0, n * nu / 2.0) + (float(n),) * (n - 2)
        assert a == pytest.approx(want, rel=1e-9)


# ---------------------------------------------------------------------------
# two points: the one-weight dual


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, 40, 200])
def test_two_point_dual_matches_the_closed_form_in_both_regimes(n):
    # pins from just above n/2 to 3n: the active regime t <= (n-1) mu and
    # the slack one beyond.  Measured worst cases: intercepts 1.7e-14 and
    # volume 4.8e-13 relative, both at n = 200 (2.0e-15 volume up to n = 8)
    regimes = set()
    for x in np.linspace(0.01, 0.99, 9).tolist():
        m = (1.0 - x * x) ** 2
        for t in np.linspace(n / 2.0 + 1e-3, 3.0 * n, 12).tolist() + [(n - 1) * m]:
            if t <= n / 2.0:
                continue
            regimes.add(t <= (n - 1) * m)
            prog, _, _ = pinned_two_point_program(n, x, t)
            info = min_vol_simplex_info(prog)
            want = gn_optimum(n, x, t)
            got = (t,) + info.params.intercepts
            assert info.gap <= TOL and info.iterations == 0
            assert got == pytest.approx(want, rel=5e-14)
            vol = volume_ratio(got, want)
            assert abs(vol - 1.0) <= (1e-12 if n > 8 else 5e-15)
    assert regimes == ({False} if n == 2 else {False, True})


def _interior_point_optimum(prog):
    """Intercepts, gap and Newton steps of ``_solve_reduced`` on the
    reduced rows of a program with no scaled axis, rescaled to contain
    them: the interior-point method on a program that the public path
    answers on the two-point dual or by the column-maxima simplex."""
    reduced, _, top, arg, mass, shift = wu_module._reduce(prog)
    assert shift is None
    b, _, gap, steps, reach = wu_module._solve_reduced(reduced, prog.tolerance, top, arg, mass)
    return 1.0 / (b / max(reach, 1.0)), gap, steps


@pytest.mark.parametrize(
    "pts, want, weights",
    [
        ([(1.0, 2.0), (1.0, 2.0)], (2.0, 4.0), [1.0, 0.0]),  # exact duplicate
        ([(1.0, 1.0), (0.5, 0.9)], (2.0, 2.0), [1.0, 0.0]),  # dominated second
        ([(0.5, 0.9), (1.0, 1.0)], (2.0, 2.0), [0.0, 1.0]),  # dominated first
        ([(1.0, 0.0), (0.0, 1.0)], (1.0, 1.0), [0.5, 0.5]),
        ([(2.0, 0.0, 1.0), (1.0, 1.0, 1.0)], None, None),  # a zero coordinate
        ([(1.0, 1.0, 0.0), (1.0, 0.5, 1.0)], None, None),
    ],
)
def test_two_point_dual_edge_cases(pts, want, weights):
    info = min_vol_simplex_info(simplex_program(pts))
    assert info.gap <= TOL and info.iterations == 0
    assert info.weights.sum() == pytest.approx(1.0, abs=1e-15)
    for p in pts:
        assert psi_contains(info.params.intercepts, p, tol=1e-15)
    if want is not None:
        assert info.params.intercepts == want and info.weights.tolist() == weights
    else:
        a, _, _ = _interior_point_optimum(simplex_program(pts))
        assert abs(np.log(info.params.intercepts).sum() - np.log(a).sum()) <= TOL


def test_two_point_dual_with_fixed_axes():
    # pinning a_1 = 1 for (0.5, 1, 0) and (0.25, 0, 1) leaves the rows
    # (2, 0) and (0, 4/3): weights 1/2 each
    info = min_vol_simplex_info(simplex_program([(2.0, 0.0), (0.0, 4.0 / 3.0)]))
    assert info.gap <= TOL
    assert info.params.intercepts == pytest.approx((2.0, 4.0 / 3.0), rel=1e-15)
    assert info.weights.tolist() == [0.5, 0.5]
    # the certificate's rows: a = k (w p + (1 - w) q) on k = n - 1 axes
    # gives w = 1 - t / ((n-1) mu) while t <= (n-1) mu, and w = 0 beyond
    for n, x, t in [(3, 0.1, 1.5), (5, 0.3, 2.6), (8, 0.05, 6.0), (5, 0.1, 4.5)]:
        prog, mu, _ = pinned_two_point_program(n, x, t)
        w = min_vol_simplex_info(prog).weights.tolist()
        want = max(1.0 - t / ((n - 1) * mu), 0.0)
        assert w == pytest.approx([want, 1.0 - want], rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("scale", [1e-310, 1e308])
def test_two_point_dual_on_a_scaled_column(scale):
    # the column is solved scaled by a power of two and scaled back; warnings
    # are errors here, so the solve must also warn of nothing
    pts = np.array([(0.3, 1.1, 0.2), (1.7, 0.1, 0.4)])
    base = min_vol_simplex_info(simplex_program(pts))
    pts[:, 2] *= scale
    info = min_vol_simplex_info(simplex_program(pts))
    assert info.gap <= TOL
    a = base.params.intercepts
    assert info.params.intercepts == pytest.approx((a[0], a[1], a[2] * scale), rel=1e-12)
    for p in pts:
        assert psi_contains(info.params.intercepts, p, tol=1e-15)


def test_two_point_dual_gap_above_the_tolerance_raises():
    pts = [(1.79, 0.53, 0.34), (0.65, 1.21, 1.15)]
    gap = min_vol_simplex_info(simplex_program(pts)).gap
    assert 0.0 < gap <= TOL
    with pytest.raises(SolverError, match=r"2 x 3 program on its dual \(gap") as err:
        min_vol_simplex_info(simplex_program(pts, tolerance=gap / 2.0))
    assert err.value.gap == gap


def _two_point_evaluations(n, x, t):
    """(evaluations of F' in _solve_two_points, report) for the gn
    certificate at (n, x, t)."""
    lines, first = inspect.getsourcelines(wu_module._solve_two_points)
    target = first + next(i for i, line in enumerate(lines) if line.strip().startswith("slope = "))
    code = wu_module._solve_two_points.__code__
    evaluations = 0

    def local(frame, event, arg):
        nonlocal evaluations
        if event == "line" and frame.f_lineno == target:
            evaluations += 1
        return local

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code is code else None)
    try:
        rep = certify_contradiction_gn(n, x, t)
    finally:
        sys.settrace(previous)
    return evaluations, rep


def test_two_point_dual_at_the_regime_boundary_takes_few_evaluations():
    n, x = 50, 0.1
    boundary = (n - 1) * (1.0 - x * x) ** 2
    # at the pin t = (n-1) mu the root of F' lies within rounding of w = 0:
    # the end test reads F'(0) with the search's own sums, so it takes w = 0
    # without a search
    evaluations, rep = _two_point_evaluations(n, x, boundary)
    assert evaluations == 0
    assert rep.constrained.intercepts == pytest.approx(gn_optimum(n, x, boundary), rel=1e-13)
    # just below it the root is inside (0, 1) and every Newton step leaves
    # the bracket: bisection must stop once a step moves w by at most
    # 2**-53 (8 evaluations of F' here), not halve on through the
    # subnormals (over 1 000)
    t = boundary * (1.0 - 1e-13)
    evaluations, rep = _two_point_evaluations(n, x, t)
    assert 0 < evaluations <= 32
    assert rep.constrained.intercepts == pytest.approx(gn_optimum(n, x, t), rel=1e-13)


def _two_point_case(rng, kind):
    """Two seeded points of one of TWO_POINT_KINDS on k = 2..8 axes,
    coordinates e^-5 .. e^5, in random order."""
    k = int(rng.integers(2, 9))
    p = np.exp(rng.uniform(-5.0, 5.0, k))
    q = np.exp(rng.uniform(-5.0, 5.0, k))
    if kind == "near-duplicate":
        q = p * (1.0 + 10.0 ** rng.uniform(-12.0, -3.0) * rng.standard_normal(k))
    elif kind == "dominated":
        q = p * rng.uniform(0.0, 1.0, k)
    elif kind == "zero-coordinates":
        # a zero coordinate on q, and on p at another axis half the time
        j = rng.permutation(k)
        q[j[0]] = 0.0
        if rng.random() < 0.5:
            p[j[1]] = 0.0
    elif kind == "duplicate":
        q = p.copy()
    elif kind == "near-tie":
        q = p * np.exp(rng.uniform(-0.1, 0.1, k))
    elif kind == "wide-range":
        # coordinates e^-30 .. e^30: a term of F' is near 0 at an end of [0, 1]
        p, q = np.exp(rng.uniform(-30.0, 30.0, (2, k)))
    return rng.permutation(np.vstack([p, q]))


TWO_POINT_KINDS = ("generic", "near-duplicate", "dominated", "zero-coordinates", "duplicate",
                   "near-tie", "wide-range")


@pytest.mark.parametrize("kind", TWO_POINT_KINDS)
def test_two_point_dual_agrees_with_the_interior_point_method(kind):
    rng = np.random.default_rng(TWO_POINT_KINDS.index(kind))
    for _ in range(60):
        prog = simplex_program(_two_point_case(rng, kind))
        info = min_vol_simplex_info(prog)
        a, gap, _ = _interior_point_optimum(prog)
        assert info.gap <= TOL and gap <= TOL
        # both are feasible, so each log-volume is within its own gap of the optimum
        assert abs(np.log(info.params.intercepts).sum() - np.log(a).sum()) <= TOL
        assert float(np.max(prog.points @ (1.0 / np.array(info.params.intercepts)))) <= 1.0 + 1e-15


# ---------------------------------------------------------------------------
# solver mechanics and invariants


def test_fixed_intercepts_are_honored():
    # the certificate pins a_1 = t and its scaled program keeps both points
    # inside: (mu, 0, 1, ...) saturates the simplex in the active regime
    for n, x, t in [(3, 0.1, 1.6), (3, 0.1, 2.0), (6, 0.3, 3.5), (40, 0.05, 30.0)]:
        a = certify_contradiction_gn(n, x, t).constrained.intercepts
        assert a[0] == t
        _, mu, nu = two_point_program(n, x)
        for p in ((mu, 0.0) + (1.0,) * (n - 2), (0.0, nu) + (1.0,) * (n - 2)):
            assert psi_contains(a, p, tol=1e-14)


def test_degenerate_errors():
    with pytest.raises(DegenerateAxisError):
        solve([(1.0, 0.0)])  # no mass on axis 2: infimum 0 not attained
    with pytest.raises(DegenerateAxisError):
        SimplexProgram(points=((1.0, math.inf),))
    with pytest.raises(ValueError):
        simplex_program([])


def test_containment_certificate():
    for n, pts in cloud_cases(12):
        params = min_vol_simplex(simplex_program(pts, tolerance=TOL))
        for p in pts:
            assert psi_contains(params.intercepts, p, tol=10.0 * TOL)


def test_duality_gap_is_reported():
    info = min_vol_simplex_info(simplex_program([(1.0, 1.0), (0.3, 0.2)]))
    assert info.gap <= 1e-10
    assert math.prod(info.params.intercepts) / 2 == pytest.approx(2.0)
    assert all(w >= 0 for w in info.weights)


def test_point_order_invariance():
    pts = [(0.3, 1.1, 0.2), (1.7, 0.1, 0.4), (0.2, 0.8, 1.3), (0.9, 0.9, 0.9)]
    a = solve(pts)
    for perm in itertools.permutations(range(len(pts))):
        b = solve([pts[i] for i in perm])
        assert b == pytest.approx(a, rel=1e-10)


def test_axis_permutation_equivariance():
    pts = [(0.3, 1.1, 0.2), (1.7, 0.1, 0.4), (0.2, 0.8, 1.3)]
    a = solve(pts)
    for perm in itertools.permutations(range(3)):
        b = solve([tuple(p[j] for j in perm) for p in pts])
        for j in range(3):
            assert b[j] == pytest.approx(a[perm[j]], rel=1e-10)


def test_scaling_equivariance_power_of_two_is_exact():
    pts = [(0.3, 1.1, 0.2), (1.7, 0.1, 0.4), (0.2, 0.8, 1.3)]
    lam = (2.0, 0.25, 8.0)
    a = solve(pts)
    b = solve([tuple(l * c for l, c in zip(lam, p)) for p in pts])
    assert b == tuple(l * c for l, c in zip(lam, a))  # bitwise


def test_scaling_equivariance_generic():
    pts = [(0.3, 1.1), (1.7, 0.1), (0.2, 0.8)]
    lam = (1.7, 0.23)
    a = solve(pts)
    b = solve([tuple(l * c for l, c in zip(lam, p)) for p in pts])
    assert b == pytest.approx(tuple(l * c for l, c in zip(lam, a)), rel=1e-10)


def test_program_validation_messages():
    with pytest.raises(ValueError, match="share a dimension"):
        simplex_program([(1.0, 1.0), (1.0,)])
    # rejected when built, not inside the solve
    for points in ([()], np.zeros((3, 0))):
        with pytest.raises(ValueError, match=r"points need at least one coordinate"):
            simplex_program(points)
    for bad in (-1.0, math.nan):
        with pytest.raises(ValueError, match="nonnegative"):
            simplex_program([(1.0, 1.0), (0.5, bad)])
    with pytest.raises(DegenerateAxisError) as err:
        simplex_program([(1.0, 0.0), (0.5, math.inf)])
    assert str(err.value) == "infinite coordinate on axis 1: degenerate"


def test_program_keeps_a_read_only_copy_of_its_points():
    points = np.array([[1.0, 0.5], [0.25, 2.0]])
    prog = simplex_program(points)
    before = solve(points)
    points[0, 0] = 100.0
    assert prog.points.tolist() == [[1.0, 0.5], [0.25, 2.0]]
    with pytest.raises(ValueError, match="read-only"):
        prog.points[0, 0] = 100.0
    assert min_vol_simplex_info(prog).params.intercepts == before


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
def test_tolerance_must_be_finite_and_positive(tol):
    with pytest.raises(ValueError, match="tolerance"):
        simplex_program([(1.0, 1.0)], tolerance=tol)


def test_step_budget_exhaustion_fails_fast(monkeypatch):
    # the interior point (0.5, 0.5) keeps the program off the two-point dual
    monkeypatch.setattr(wu_module, "MAX_NEWTON_STEPS", 3)
    prog = simplex_program([(1.0, 1.0), (1.0 + 2e-7, 1.0), (0.5, 0.5)])
    start = time.perf_counter()
    with pytest.raises(SolverError, match=r"3 x 2 program after 3 Newton steps \(best gap") as err:
        min_vol_simplex_info(prog)
    assert time.perf_counter() - start < 1.0
    assert TOL < err.value.gap < math.inf
    # two points are solved on their dual, which takes no Newton step
    info = min_vol_simplex_info(simplex_program([(1.0, 1.0), (1.0 + 2e-7, 1.0)]))
    assert info.iterations == 0 and info.gap <= TOL


def test_singular_newton_system_fails_with_solver_error(monkeypatch):
    def singular(*args):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(wu_module.np.linalg, "solve", singular)
    with pytest.raises(SolverError, match="3 x 2 program after 1 Newton steps"):
        min_vol_simplex_info(simplex_program([(1.0, 1.0), (0.5, 0.9), (0.25, 0.25)]))
    # the two-point dual solves no linear system
    info = min_vol_simplex_info(simplex_program([(1.0, 1.0), (0.5, 0.9)]))
    assert info.params.intercepts == (2.0, 2.0) and info.gap == 0.0


# ---------------------------------------------------------------------------
# large clouds: column-major points and a growing working set


def _cloud_with_light_contacts(rng, m, k):
    """Psi-cloud whose optimum T_a touches k points that are all lighter, in
    column-normalized mass, than the working set the solver starts from.

    The contacts a / (2k) + a_j e_j / 2 average to a / k, so T_a is optimal.
    Axis points set every column maximum: 0.999 a_1 on the first axis and
    just above the contacts' (1 + 1/k) a_j / 2 on the others.  The m - 2k
    interior points sit at depth 0.96 .. 0.99 on the face spanned by axes
    2 .. k, each share at most 0.6, which makes them heavier than every
    contact.  The contacts come last.
    """
    a = np.exp(rng.uniform(math.log(0.5), math.log(2.0), k))
    contacts = 0.5 * a / k + 0.5 * np.diag(a)
    top = np.full(k, 1.001 * 0.5 * (1.0 + 1.0 / k))
    top[0] = 0.999
    shares = _unit_face(rng, 6 * m, k - 1)
    shares = shares[shares.max(axis=1) <= 0.6][: m - 2 * k]
    assert len(shares) == m - 2 * k
    bulk = np.zeros((m - 2 * k, k))
    bulk[:, 1:] = a[1:] * shares * rng.uniform(0.96, 0.99, (m - 2 * k, 1))
    return a, np.vstack([np.diag(top * a), bulk, contacts])


def _initial_working_set(points):
    """The solver's starting set, recomputed: the WORK_PER_AXIS * k points of
    largest column-normalized mass and each column's maximum."""
    k = points.shape[1]
    mass = (points / points.max(axis=0)).sum(axis=1)
    heavy = np.argsort(-mass)[: wu_module.WORK_PER_AXIS * k]
    return np.union1d(heavy, points.argmax(axis=0))


def test_point_layouts_give_identical_solves():
    # 3 000 points fit in one block of the column-major copy; the second
    # cloud spans three full blocks and ends in a ragged one
    for m in (3_000, 3 * wu_module.COPY_BLOCK_ROWS + 123):
        _, pts = _cloud_with_light_contacts(np.random.default_rng(3), m, 3)
        wide = np.zeros((len(pts), 2 * pts.shape[1]))
        wide[:, ::2] = pts
        layouts = (pts.tolist(), np.ascontiguousarray(pts), np.asfortranarray(pts), wide[:, ::2])
        progs = [simplex_program(p) for p in layouts]
        for prog in progs:
            assert prog.points.flags.f_contiguous
            assert np.array_equal(prog.points, pts)
        infos = [min_vol_simplex_info(prog) for prog in progs]
        for info in infos[1:]:
            assert info.params == infos[0].params
            assert info.gap == infos[0].gap
            assert info.iterations == infos[0].iterations
            assert np.array_equal(info.weights, infos[0].weights)


def test_validation_reaches_the_last_copy_block():
    # two full copy blocks and a ragged one; the entry under test sits in
    # the last row
    base = np.random.default_rng(13).uniform(0.1, 1.0, (2 * wu_module.COPY_BLOCK_ROWS + 37, 3))

    def last_row(axis, value):
        pts = base.copy()
        pts[-1, axis] = value
        return pts

    for bad in (math.nan, -1.0, -math.inf):
        with pytest.raises(ValueError, match="nonnegative"):
            simplex_program(last_row(1, bad))
    with pytest.raises(DegenerateAxisError, match="axis 2"):
        simplex_program(last_row(2, math.inf))
    info = min_vol_simplex_info(simplex_program(last_row(2, math.inf)[:, :2]))
    assert info.gap <= TOL
    prog = simplex_program(last_row(1, -0.0))
    assert math.copysign(1.0, prog.points[-1, 1]) == -1.0
    assert min_vol_simplex_info(prog).gap <= TOL


def test_large_cloud_certifies_with_contacts_outside_the_working_set():
    k = 4
    a, pts = _cloud_with_light_contacts(np.random.default_rng(11), 50_000, k)
    contacts = np.arange(len(pts) - k, len(pts))
    assert not np.isin(contacts, _initial_working_set(pts)).any()
    info = min_vol_simplex_info(simplex_program(pts))
    assert info.gap <= TOL
    got = np.array(info.params.intercepts)
    assert got == pytest.approx(a, rel=math.sqrt(2.0 * TOL))
    # the certificate, recomputed in numpy from a and w alone
    w = info.weights
    assert w.shape == (len(pts),)
    assert float(np.max(pts @ (1.0 / got))) <= 1.0 + 1e-12
    assert float(-np.sum(np.log(k * (pts.T @ w) / got))) <= TOL + 1e-12
    assert w[contacts].sum() == pytest.approx(1.0, abs=1e-6)


def test_weights_are_a_read_only_probability_vector():
    src = np.asfortranarray(_cloud_with_light_contacts(np.random.default_rng(5), 2_000, 3)[1])
    prog = simplex_program(src)
    assert not np.shares_memory(prog.points, src)
    assert prog.points.flags.f_contiguous
    info = min_vol_simplex_info(prog)
    w = info.weights
    assert isinstance(w, np.ndarray) and w.dtype == float
    assert (w >= 0.0).all()
    assert w.sum() == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError, match="read-only"):
        w[0] = 1.0
    src[0, 0] = 100.0
    assert prog.points[0, 0] != 100.0


def test_weights_cover_every_input_point():
    # the zero point has no mass: the reduction drops it, and it weighs 0
    pts = np.array([(0.0, 0.0), (1.0, 0.5), (0.5, 1.0)])
    info = min_vol_simplex_info(simplex_program(pts.tolist()))
    w = info.weights
    assert w.shape == (3,) and w[0] == 0.0
    assert w.sum() == pytest.approx(1.0, abs=1e-12)
    # the certificate, recomputed against the caller's own points
    a = np.array(info.params.intercepts)
    assert float(-np.sum(np.log(2 * (pts.T @ w) / a))) <= TOL
    # on one axis the zero point weighs 0 beside the closed form's argmax
    info = min_vol_simplex_info(simplex_program([(0.2,), (0.0,), (0.5,)]))
    assert info.weights.tolist() == [0.0, 0.0, 1.0]


def test_reported_gap_is_the_gap_of_the_returned_weights():
    # a certified solve prices two iterates, here with full gaps near 1e-11
    # and 1e-15; the gap recomputed from the returned weights over all
    # points must be the reported one
    k = 5
    _, pts = _cloud_with_light_contacts(np.random.default_rng(17), 50_000, k)
    info = min_vol_simplex_info(simplex_program(pts))
    score = pts @ (1.0 / (pts.T @ info.weights))
    assert info.gap <= TOL
    assert abs(info.gap - k * math.log(max(float(score.max()), k) / k)) <= 1e-14


def _seeded_cloud(seed, m, k):
    """Seeded Psi-cloud: squared moduli of points in the unit ball of C^k
    with unequal axis scales."""
    rng = np.random.default_rng(seed)
    scale = np.exp(rng.uniform(-1.0, 1.0, k))
    return scale * _unit_face(rng, m, k) * rng.uniform(0.0, 1.0, (m, 1))


def test_program_keeps_its_column_maxima_read_only():
    # with the row of each, the first of a tie
    pts = _seeded_cloud(29, 5_000, 4)
    pts[17, 2] = pts[4_000, 2] = 2.0
    prog = simplex_program(pts)
    assert np.array_equal(prog.column_max, pts.max(axis=0))
    arg = prog.column_argmax
    assert arg.tolist() == pts.argmax(axis=0).tolist() and arg[2] == 17
    assert np.array_equal(pts[arg, range(4)], prog.column_max)
    for name, kept in (("column_max", prog.column_max), ("column_argmax", arg)):
        with pytest.raises(ValueError, match="read-only"):
            kept[0] = 1
        assert name not in repr(prog)
        with pytest.raises(TypeError):
            SimplexProgram(points=pts, **{name: kept})


@pytest.mark.parametrize("scale", [None, 1e-310])
def test_reduction_hands_the_solver_maxima_and_masses_of_its_rows(scale):
    # a column with a subnormal maximum is scaled by a power of two, so the
    # program's column maxima no longer hold for it and the reduction hands
    # on the scaled ones
    pts = _seeded_cloud(31, 3_000, 4)
    pts[::7] = 0.0
    if scale is not None:
        pts[:, 1] *= scale
    prog = simplex_program(pts)
    reduced, keep, top, arg, mass, shift = wu_module._reduce(prog)
    assert keep.tolist() == (np.arange(len(pts)) % 7 != 0).tolist()
    assert (shift is None) == (scale is None)
    assert np.array_equal(reduced, np.ldexp(pts, shift or 0)[keep])
    assert np.array_equal(top, reduced.max(axis=0))
    # the rows of the maxima, mapped past the dropped rows
    assert np.array_equal(reduced[arg, range(4)], top)
    # one pass over all rows, or over the kept ones: the layouts differ
    np.testing.assert_allclose(mass, reduced @ (1.0 / top), rtol=1e-15, atol=0.0)


def test_scattered_zero_rows_weigh_nothing_in_a_large_cloud():
    # m > WORK_PER_AXIS * k, so the working set is ranked by the masses of
    # the kept rows only; a ranking over all rows would pick shifted rows
    k = 5
    zero = np.random.default_rng(41).random(33_000) < 0.1
    zero[:3] = True
    pts = np.zeros((len(zero), k))
    pts[~zero] = _seeded_cloud(37, np.count_nonzero(~zero), k)
    assert len(pts) > wu_module.WORK_PER_AXIS * k
    info = min_vol_simplex_info(simplex_program(pts))
    plain = min_vol_simplex_info(simplex_program(pts[~zero]))
    w = info.weights
    assert w.shape == (len(pts),) and (w[zero] == 0.0).all()
    # the same working set, so the same steps to the same optimum
    assert info.iterations == plain.iterations
    np.testing.assert_allclose(w[~zero], plain.weights, rtol=1e-12, atol=1e-15)
    assert info.params.intercepts == pytest.approx(plain.params.intercepts, rel=1e-12)
    # the certificate, recomputed against every input point
    a = np.array(info.params.intercepts)
    assert info.gap <= TOL
    assert float(np.max(pts @ (1.0 / a))) <= 1.0 + 1e-15
    score = pts @ (1.0 / (pts.T @ w))
    assert abs(info.gap - k * math.log(max(float(score.max()), k) / k)) <= 1e-14


@pytest.mark.parametrize("m", [60, 3_000])
def test_dead_columns_keep_their_errors(m):
    pts = _seeded_cloud(43, m, 3)
    pts[:, 1] = 0.0
    with pytest.raises(DegenerateAxisError) as err:
        min_vol_simplex_info(simplex_program(pts))
    assert str(err.value) == "no point mass on axes [1]: volume infimum 0 is not attained"
    # a dead column is reported before a scaled one is solved
    pts[:, 2] *= 1e-310
    with pytest.raises(DegenerateAxisError) as err:
        min_vol_simplex_info(simplex_program(pts))
    assert str(err.value) == "no point mass on axes [1]: volume infimum 0 is not attained"
    with pytest.raises(DegenerateAxisError) as err:
        min_vol_simplex_info(simplex_program(np.zeros((m, 3))))
    assert str(err.value) == "no point mass on axes [0, 1, 2]: volume infimum 0 is not attained"
    with pytest.raises(DegenerateAxisError) as err:
        min_vol_simplex_bruteforce(simplex_program(np.zeros((m, 2))))
    assert str(err.value) == "no point mass on axes [0, 1]: volume infimum 0 is not attained"


@pytest.mark.parametrize(
    "cloud",
    [
        lambda: _seeded_cloud(47, 90, 5),
        lambda: _seeded_cloud(53, 40_000, 6),
        lambda: _cloud_with_light_contacts(np.random.default_rng(17), 50_000, 5)[1],
    ],
    ids=["working-set-is-the-cloud", "large", "light-contacts"],
)
def test_containment_rescale_uses_the_pricing_of_the_returned_point(cloud):
    # the light-contacts cloud restarts once and returns its second priced
    # iterate, so a maximum kept from the first pricing would not match
    pts = cloud()
    prog = simplex_program(pts)
    reduced, _, top, arg, mass, _ = wu_module._reduce(prog)
    b, w, gap, _, reach = wu_module._solve_reduced(reduced, TOL, top, arg, mass)
    assert reach == float(np.max(reduced @ b))
    k = pts.shape[1]
    assert gap == k * math.log(max(k * reach, k) / k)
    info = min_vol_simplex_info(prog)
    want = 1.0 / (b / reach) if reach > 1.0 else 1.0 / b
    assert info.params.intercepts == tuple(want.tolist())
    assert np.array_equal(info.weights, w) and info.gap == gap


def _cloud_with_scaled_last_column(scale):
    u = np.random.default_rng(0).random((50, 3))
    u[:, 2] *= scale
    return u


@pytest.mark.parametrize("scale", [1e-310, 1e-320, 2.0**-1074])
def test_subnormal_column_maxima_certify(scale):
    # 1 / max u_3 overflowed the masses and b = 1 / (k U^T w) the pricing,
    # so the solver ran out of Newton steps with best gap inf; warnings are
    # errors here, so the solve must also warn of nothing
    pts = _cloud_with_scaled_last_column(scale)
    info = min_vol_simplex_info(simplex_program(pts, tolerance=TOL))
    assert info.gap <= TOL
    for p in pts:
        assert psi_contains(info.params.intercepts, p, tol=10.0 * TOL)
    # the gap of the returned weights, recomputed exactly from the input
    exact = [[Fraction(c) for c in p] for p in pts.tolist()]
    w = [Fraction(x) for x in info.weights.tolist()]
    mix = [sum(wi * p[j] for wi, p in zip(w, exact)) for j in range(3)]
    score = max(sum(c / m for c, m in zip(p, mix) if m) for p in exact)
    assert abs(info.gap - 3 * math.log(max(float(score), 3) / 3)) <= 1e-14
    # the two normal axes come out as for a normal third column
    normal = min_vol_simplex(simplex_program(_cloud_with_scaled_last_column(2.0**-10)))
    assert info.params.intercepts[:2] == pytest.approx(normal.intercepts[:2], rel=1e-12)
    if scale > 1e-315:  # enough subnormal bits for 1e-12
        want = normal.intercepts[2] * 2.0**10 * scale
        assert info.params.intercepts[2] == pytest.approx(want, rel=1e-12)


def test_huge_column_maxima_are_scaled_exactly():
    # k max u_3 passes 2**1022: the column is solved scaled by 2**-1020,
    # which is exact, so the intercepts are the unscaled ones times 2**1020
    base = min_vol_simplex_info(simplex_program(_cloud_with_scaled_last_column(1.0)))
    info = min_vol_simplex_info(simplex_program(_cloud_with_scaled_last_column(2.0**1020)))
    a = base.params.intercepts
    assert info.params.intercepts == (a[0], a[1], a[2] * 2.0**1020)
    assert info.gap == base.gap and np.array_equal(info.weights, base.weights)


def test_intercept_beyond_the_float_range_names_its_axis():
    # a3 ~ 2.9e308 is no float: returning inf would read as a degenerate
    # axis, and the solve used to warn of overflow and divide by zero
    pts = _cloud_with_scaled_last_column(1e308)
    with pytest.raises(SolverError, match="intercept on axis 2 is beyond the float range"):
        min_vol_simplex_info(simplex_program(pts))
    # the axis is named by its index in the program
    with pytest.raises(SolverError, match="axis 1"):
        min_vol_simplex_info(simplex_program(pts[:, 1:]))


def test_budget_error_reports_the_gap_over_all_points(monkeypatch):
    # no Newton step: the only iterate is the centred start on the starting
    # set, whose weights are lam / sum(lam) with lam proportional to 1 / s at
    # b = 1 / (theta k mean(x) + 1 - theta) on unit column maxima x, near the
    # column-maxima simplex.  That start weighs each lone column maximum
    # 0.5 e_j on axes 4 .. 8 about a fourteenth of a median point of the
    # heavy bulk near the corner of axes 1 .. 3, so the light point spread
    # over axes 4 .. 8 scores highest, outside the set
    monkeypatch.setattr(wu_module, "MAX_NEWTON_STEPS", 0)
    rng = np.random.default_rng(7)
    corner = rng.uniform(0.95, 1.0, (2_000, 3)) * rng.uniform(0.9, 0.99, (2_000, 1))
    bulk = np.hstack([corner, np.zeros((2_000, 5))])
    thin = 0.5 * np.eye(8)[3:]
    pts = np.vstack([bulk, thin, [(0.0,) * 3 + (0.25,) * 5]])
    k = pts.shape[1]
    work = _initial_working_set(pts)
    x, theta = pts[work] / pts.max(axis=0), wu_module.UNIFORM_SHARE
    reach = x @ (1.0 / (theta * k * x.mean(axis=0) + 1.0 - theta))
    lam = 1.0 / (1.0 - wu_module.TO_BOUNDARY * reach / reach.max())
    inv = 1.0 / (pts[work].T @ (lam / lam.sum()))
    full = k * math.log(max(float(np.max(pts @ inv)), k) / k)
    partial = k * math.log(max(float(np.max(pts[work] @ inv)), k) / k)
    assert full > partial + 0.5
    with pytest.raises(SolverError, match="after 0 Newton steps") as err:
        min_vol_simplex_info(simplex_program(pts))
    assert err.value.gap == pytest.approx(full, rel=1e-12)


def test_a_solve_out_of_steps_returns_a_certified_pricing():
    # at tolerance 1e-16 the working-set gap stalls at rounding level, while
    # the full pricing of the nearest iterate can read 0: such a solve
    # returns that pricing; raising instead, with a best gap within tol,
    # would fail 12 of these 200 random programs
    certified = 0
    for seed in range(200):
        rng = np.random.default_rng(seed)
        k, m = int(rng.integers(2, 6)), int(rng.integers(3, 61))
        pts = rng.random((m, k))
        try:
            info = min_vol_simplex_info(simplex_program(pts, tolerance=1e-16))
        except SolverError as err:
            assert err.gap > 1e-16
            continue
        certified += 1
        assert info.gap <= 1e-16
        assert info.weights.shape == (m,) and info.weights.sum() == pytest.approx(1.0)
        assert float((pts @ (1.0 / np.array(info.params.intercepts))).max()) <= 1.0 + 1e-15
    assert certified >= 133


# ---------------------------------------------------------------------------
# adversarial programs with planted optima


@pytest.mark.parametrize("eps", [1e-5, 2e-7])
def test_near_duplicate_stall_reproducers_certify(eps):
    # (1 + eps, 1) dominates (1, 1), so a = 2 (1 + eps, 1); one point
    # touches the optimum, where a gap g bounds the error by sqrt(2 g).
    # Two points are solved on their dual, with no Newton step; the
    # interior point (0.5, 0.5) sends the program through the Newton method,
    # which takes 10 steps from the start near the column-maxima simplex,
    # as from the uniform-weights start (13 from the first start).
    for interior, steps in (((), 0), (((0.5, 0.5),), 10)):
        info = min_vol_simplex_info(simplex_program([(1.0, 1.0), (1.0 + eps, 1.0), *interior]))
        assert info.gap <= TOL
        assert info.iterations <= steps
        want = (2.0 * (1.0 + eps), 2.0)
        assert info.params.intercepts == pytest.approx(want, rel=math.sqrt(2.0 * TOL))


def _unit_face(rng, count, k):
    x = rng.standard_exponential((count, k))
    return x / x.sum(axis=1, keepdims=True)


def _planted_near_tie(seed, k, depth):
    # the vertices a_j e_j, 60 points on the facet sum u_j / a_j = 1 and
    # 120 points ``depth`` below it: T_a is optimal and nearly tied
    rng = np.random.default_rng(seed)
    a = np.exp(rng.uniform(-math.log(2.0), math.log(2.0), k))
    face, inner = a * _unit_face(rng, 60, k), a * _unit_face(rng, 120, k) * (1.0 - depth)
    pts = np.vstack([np.diag(a), face, inner])
    rng.shuffle(pts)
    return a, pts


def _planted_near_ties():
    # 288 seeded programs, k = 2..5, interior points 1e-1 .. 1e-3 below the
    # planted facet
    for seed in range(24):
        for k in (2, 3, 4, 5):
            for e, depth in enumerate((1e-1, 1e-2, 1e-3), start=1):
                yield _planted_near_tie(1000 * seed + 10 * k + e, k, depth)


def test_planted_near_tie_programs_certify_within_the_step_pin():
    # The public path answers every program by the column-maxima simplex;
    # the pin holds the interior-point method on the same rows.  The start
    # near the column-maxima simplex with centring 0.01 after every step
    # whose undamped length stays feasible takes 2 709 Newton steps in all;
    # the uniform-weights start took 3 008, the first start with 0.01 only
    # after a full step 4 466, and a fixed centring of 0.1 5 458.
    total = 0
    for a, pts in _planted_near_ties():
        prog = simplex_program(pts)
        assert min_vol_simplex_info(prog).iterations == 0
        got, gap, steps = _interior_point_optimum(prog)
        assert gap <= TOL
        assert np.allclose(got, a, rtol=1e-12, atol=0.0)
        total += steps
    assert total <= 2709


def _planted_vertices(rng, k, depth, exponents):
    # the vertices a_j e_j force a' >= a and every other point lies in T_a,
    # so T_a is optimal; near-duplicates sit ``depth`` inside the vertices
    # and the face, and the axis scales are 10**exponents
    a = np.exp(rng.uniform(-0.7, 0.7, k)) * 10.0 ** np.asarray(exponents, dtype=float)
    face = a * _unit_face(rng, 30, k)
    vertices = np.diag(a)
    pts = np.vstack(
        [vertices, vertices * (1.0 - depth), face, face * (1.0 - depth), face[:3] * 1e-12]
    )
    rng.shuffle(pts)
    return a, pts


def test_seeded_sweep_across_scales_certifies_within_the_step_pin():
    # 250 random clouds, k = 2..5 and m = 3..60, with column scales
    # 10**-3 .. 10**3, and 250 planted-vertex programs with near-duplicates
    # 1e-1 .. 1e-12 deep and axis scales 10**-12 .. 10**12.  Every program
    # certifies.  The planted intercepts are off by at most 1.6e-15
    # relative, except for two programs 1e-11 deep that stop at a gap of
    # 2e-11 and are off by 3.1e-12.  The sweep takes 5 427 Newton steps in
    # all from the start near the column-maxima simplex, where the
    # uniform-weights start took 5 753 and the first start and centring
    # rule 7 971.  The public
    # path answers the planted programs by the column-maxima simplex, so
    # their steps are counted on ``_solve_reduced`` over the same rows.
    total = 0
    for seed in range(250):
        rng = np.random.default_rng(seed)
        k, m = int(rng.integers(2, 6)), int(rng.integers(3, 61))
        pts = rng.random((m, k)) * 10.0 ** rng.uniform(-3.0, 3.0, k)
        info = min_vol_simplex_info(simplex_program(pts))
        assert info.gap <= TOL
        assert float((pts @ (1.0 / np.array(info.params.intercepts))).max()) <= 1.0 + 1e-15
        total += info.iterations
    for seed in range(250):
        rng = np.random.default_rng(10_000 + seed)
        k = 2 + seed % 4
        depth = 10.0 ** -(1 + seed % 12)
        a, pts = _planted_vertices(rng, k, depth, rng.integers(-12, 13, k))
        prog = simplex_program(pts)
        assert min_vol_simplex_info(prog).iterations == 0
        got, gap, steps = _interior_point_optimum(prog)
        assert gap <= TOL
        assert np.allclose(got, a, rtol=1e-11, atol=0.0)
        total += steps
    assert total <= 5427


def _planted_cloud(seed, m, k):
    # shaped like the benchmark's cloud_solve clouds: k contact points on
    # the face sum u_j / a_j = 1 whose hull holds its centroid, so T_a is
    # optimal, and m - k points inside T_a / 2
    rng = np.random.default_rng(seed)
    a = np.exp(rng.uniform(math.log(0.5), math.log(2.0), k))
    contact = 0.5 * a / k + 0.5 * np.diag(a)
    depth = rng.uniform(0.0, 0.5, (m - k, 1)) ** (1.0 / k)
    pts = np.vstack([contact, a * _unit_face(rng, m - k, k) * depth])
    rng.shuffle(pts)
    return a, pts


def test_planted_clouds_certify_within_the_step_pin():
    # 200 seeded clouds, m = 2 000 and k = 6..10, so the interior-point
    # method runs on working sets of WORK_PER_AXIS * k points.  The start
    # near the column-maxima simplex takes 2 667 Newton steps in all; the
    # uniform-weights start took 3 497.  Intercepts are measured within
    # 1.2e-15 relative of the planted optimum.
    total = 0
    for seed in range(200):
        k = 6 + seed % 5
        a, pts = _planted_cloud(seed, 2_000, k)
        info = min_vol_simplex_info(simplex_program(pts))
        got, w = np.array(info.params.intercepts), info.weights
        # the certificate, recomputed in numpy from a and w alone
        assert float((pts @ (1.0 / got)).max()) <= 1.0 + 1e-15
        assert (w >= 0.0).all() and abs(w.sum() - 1.0) <= 1e-15
        assert info.gap <= TOL
        assert float(np.log(got / (k * (pts.T @ w))).sum()) <= TOL
        assert np.allclose(got, a, rtol=1e-12, atol=0.0)
        total += info.iterations
    assert total <= 2667


@settings(max_examples=40, deadline=None)
@given(
    k=st.integers(min_value=2, max_value=5),
    depth=st.sampled_from([1e-1, 1e-3, 2e-7, 1e-9, 1e-12]),
    exponents=st.lists(st.integers(min_value=-12, max_value=12), min_size=5, max_size=5),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_planted_vertices_with_near_duplicates(k, depth, exponents, seed):
    a, pts = _planted_vertices(np.random.default_rng(seed), k, depth, exponents[:k])
    prog = simplex_program(pts)
    info = min_vol_simplex_info(prog)
    assert info.gap <= TOL and info.iterations == 0
    assert info.params.intercepts == pytest.approx(tuple(a), rel=1e-15)
    # the interior-point method on the same rows
    got, gap, _ = _interior_point_optimum(prog)
    assert gap <= TOL
    assert tuple(got) == pytest.approx(tuple(a), rel=1e-9)


def _assert_certified(info, pts):
    """The certificate recomputed from the returned intercepts a and
    weights w: containment max_i <u_i, 1/a> <= 1 + 1e-15, and the gap
    sum_j log(a_j / (k (U^T w)_j)) within the tolerance."""
    a, w, k = np.array(info.params.intercepts), info.weights, pts.shape[1]
    assert float((pts @ (1.0 / a)).max()) <= 1.0 + 1e-15
    assert (w >= 0.0).all() and abs(w.sum() - 1.0) <= 1e-15
    assert info.gap <= TOL
    assert float(np.log(a / (k * (pts.T @ w))).sum()) <= TOL


def test_planted_programs_take_the_column_maxima_simplex():
    # the axis points a_j e_j are the column maxima and every other point
    # lies in T_a, so the optimum is known before any solve: no Newton
    # step, and the intercepts to rounding (at most 6.7e-16 relative
    # here), where the interior-point method is pinned to 1e-12
    planted = list(_planted_near_ties())
    rng = np.random.default_rng(71)
    for seed in range(60):
        k = 2 + seed % 4
        planted.append(_planted_vertices(rng, k, 10.0 ** -(1 + seed % 12), rng.integers(-12, 13, k)))
    for a, pts in planted:
        info = min_vol_simplex_info(simplex_program(pts))
        assert info.iterations == 0
        assert np.allclose(info.params.intercepts, a, rtol=1e-15, atol=0.0)
        _assert_certified(info, pts)


def test_column_maxima_weights_skip_rows_with_no_mass():
    a, pts = _planted_near_tie(5, 3, 1e-2)
    pts = np.vstack([np.zeros((2, 3)), pts])
    info = min_vol_simplex_info(simplex_program(pts))
    assert info.iterations == 0 and (info.weights[:2] == 0.0).all()
    # 1/k on the axis point of each column
    axis = [int(np.argmax(pts[:, j])) for j in range(3)]
    assert info.weights[axis].tolist() == [1.0 / 3.0] * 3
    assert np.count_nonzero(info.weights) == 3
    _assert_certified(info, pts)


def _pushed_face_point(k, push):
    """A planted near-tie program with one point of the face pushed out
    by the relative amount ``push``, and its column maxima."""
    a, pts = _planted_near_tie(31 + k, k, 1e-2)
    face = (np.abs(pts @ (1.0 / a) - 1.0) < 1e-12) & (pts.min(axis=1) > 0.0)
    pts[np.flatnonzero(face)[0]] *= 1.0 + push
    top = pts.max(axis=0)
    assert np.array_equal(top, a)
    return pts, top


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_a_face_point_pushed_out_goes_to_the_interior_point_method(k):
    # pushed out by 1e-6, the point leaves the column-maxima simplex a gap
    # of about k 1e-6; the Newton method (14 to 20 steps) finds a smaller
    # simplex and certifies it
    pts, top = _pushed_face_point(k, 1e-6)
    info = min_vol_simplex_info(simplex_program(pts))
    assert info.iterations > 0
    _assert_certified(info, pts)
    reach = float((pts @ (1.0 / top)).max())
    assert np.log(info.params.intercepts).sum() < np.log(top * reach).sum() - 1e-7


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_a_face_point_pushed_out_within_the_tolerance_keeps_the_closed_form(k):
    # pushed out by 1e-13, the column-maxima simplex certifies with its
    # own gap k log(reach), about k 1e-13, and is scaled by reach to
    # contain the point
    pts, top = _pushed_face_point(k, 1e-13)
    info = min_vol_simplex_info(simplex_program(pts))
    reach = float((pts @ (1.0 / top)).max())
    assert info.iterations == 0
    assert info.gap == k * math.log(reach) == pytest.approx(k * 1e-13, rel=1e-2)
    assert info.params.intercepts == tuple((1.0 / ((1.0 / top) / reach)).tolist())
    _assert_certified(info, pts)


@pytest.mark.parametrize("exponents", [(-3, 5, 11), (-900, 0, 1022), (40, -40, 0)])
def test_column_maxima_simplex_scales_exactly(exponents):
    # power-of-two column scalings give bitwise-scaled intercepts; 2**1022
    # takes k t past 2**1022, so that column is solved scaled back
    a, pts = _planted_near_tie(19, 3, 1e-3)
    plain = min_vol_simplex_info(simplex_program(pts))
    scaled = min_vol_simplex_info(simplex_program(np.ldexp(pts, exponents)))
    assert plain.iterations == scaled.iterations == 0
    assert scaled.params.intercepts == tuple(np.ldexp(plain.params.intercepts, exponents).tolist())
    assert scaled.gap == plain.gap and np.array_equal(scaled.weights, plain.weights)


@settings(max_examples=40, deadline=None)
@given(
    k=st.integers(min_value=2, max_value=5),
    eps=st.sampled_from([1e-3, 1e-5, 2e-7, 1e-9, 1e-12]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_dominated_points_leave_the_corner_optimum(k, eps, seed):
    # every point is <= p coordinatewise, so a = k p; half of them are
    # within a relative eps of p
    rng = np.random.default_rng(seed)
    p = np.exp(rng.uniform(-2.0, 2.0, k))
    near = p * (1.0 - eps * rng.uniform(0.0, 1.0, (60, k)))
    far = p * rng.uniform(0.0, 1.0, (60, k))
    pts = np.vstack([p, near, far])
    rng.shuffle(pts)
    info = min_vol_simplex_info(simplex_program(pts))
    assert info.gap <= TOL
    assert info.params.intercepts == pytest.approx(tuple(k * p), rel=math.sqrt(2.0 * TOL))


@pytest.mark.parametrize("c", [1e-12, 1.0, 1e12])
def test_lone_point_on_an_axis_outside_the_heavy_points(c):
    # 100 points near (1, 1, 0), dominated by it, outrank (0, 0, c) by mass;
    # that single point alone bounds the third axis, so a = (2, 2, c)
    pts = [(1.0 - 1e-3 * (i % 7), 1.0 - 1e-3 * (i % 5), 0.0) for i in range(100)]
    info = min_vol_simplex_info(simplex_program(pts + [(0.0, 0.0, c)]))
    assert info.gap <= TOL
    assert info.params.intercepts == pytest.approx((2.0, 2.0, c), rel=math.sqrt(2.0 * TOL))


def test_mass_on_a_single_axis_matches_bruteforce():
    # most points lie on the first axis; the grid reference agrees
    pts = [(0.01 * i, 0.0) for i in range(1, 101)] + [(0.3, 0.8), (0.0, 0.5)]
    prog = simplex_program(pts)
    info = min_vol_simplex_info(prog)
    assert info.gap <= TOL
    ref = min_vol_simplex_bruteforce(prog, grid=601)
    vol = volume_ratio(info.params.intercepts, ref.intercepts)
    assert vol == pytest.approx(1.0, rel=1e-3)
    assert vol <= 1.0 + 1e-9


# ---------------------------------------------------------------------------
# grid reference


def test_bruteforce_box_corner():
    a = min_vol_simplex_bruteforce(simplex_program([(1.0, 1.0)]), grid=601)
    assert a.intercepts == pytest.approx((2.0, 2.0), rel=2e-3)


def test_bruteforce_matches_solver_on_pinned_program():
    prog, _, _ = pinned_two_point_program(3, 0.1, 2.0)
    exact = min_vol_simplex(prog)
    ref = min_vol_simplex_bruteforce(prog, grid=601)
    assert volume_ratio(ref.intercepts, exact.intercepts) == pytest.approx(1.0, rel=1e-3)


def test_bruteforce_lands_on_the_am_gm_optimum_of_the_polydisc_programs():
    # one point u: by AM-GM the minimal simplex has intercepts k * u_j; the
    # 14 programs with k <= 3 are the polydisc_formula oracle's
    programs = [tuple(r * r for r in case) for case in polydisc_cases() if len(case) <= 3]
    assert len(programs) == 14
    for u in programs:
        got = min_vol_simplex_bruteforce(simplex_program([u]), grid=301).intercepts
        want = tuple(len(u) * uj for uj in u)
        assert got == pytest.approx(want, rel=2e-8, abs=0.0), u


def test_bruteforce_refuses_high_dimensions():
    with pytest.raises(ValueError):
        min_vol_simplex_bruteforce(simplex_program([(1.0,) * 4]))


def test_bruteforce_oracle_equivalence():
    for n, pts in cloud_cases(14):
        prog = simplex_program(pts)
        ref = min_vol_simplex_bruteforce(prog, grid=301)
        vol = volume_ratio(min_vol_simplex(prog).intercepts, ref.intercepts)
        assert vol == pytest.approx(1.0, rel=1e-3), (n, len(pts))
        assert vol <= 1.0 + 1e-9  # never worse than the scan


# ---------------------------------------------------------------------------
# Wu pipeline


def test_wu_on_polydisc_radial():
    res = wu_metric(indicatrix_at(polydisc(1.0, 2.0), (0.0, 0.0)).inner)
    assert res.w_tilde.axes == pytest.approx((2.0, 8.0), rel=1e-8)
    assert res.m == 2
    assert res.w((1.0, 0.0)) == pytest.approx(1.0, rel=1e-8)
    assert res.w((0.0, 1.0)) == pytest.approx(0.5, rel=1e-8)


def test_wu_normalization_on_scaled_balls():
    for r in (1.0, 0.5, 3.0):
        ball = radial_indicatrix(lambda d, r=r: r, 3, (True,) * 3)
        res = wu_metric(ball)
        assert res.m == 3
        got = res.w_tilde((1.0, 2.0, -2.0))
        assert got == pytest.approx(3.0 / r, rel=1e-8)
        assert res.w((1.0, 2.0, -2.0)) == pytest.approx(math.sqrt(3.0) * 3.0 / r, rel=1e-8)


@pytest.mark.parametrize("n", range(3, 13))
def test_factored_gn_origin_equals_the_unfactored_direct_solve(n):
    inner = indicatrix_at(gn(n), (0.0,) * n).inner
    bounded = (True, False) + (True,) * (n - 2)
    whole = radial_indicatrix(batch_radial(gn_ball_radius("inner")), n, bounded)
    factored, direct = wu_metric(inner), wu_metric(whole)
    assert factored.certificate_points == 1 < direct.certificate_points
    assert factored.m == direct.m == n - 1
    assert factored.v_axes == direct.v_axes == frozenset({1})
    pairs = ((factored.w_tilde.axes, direct.w_tilde.axes), (factored.w.axes, direct.w.axes))
    for got, want in pairs:
        assert got[1] == want[1] == math.inf
        rel = max(abs(a - b) / b for a, b in zip(got, want) if b < math.inf)
        assert rel <= 1e-15, (n, got, want)


def test_gn64_origin_is_one_point_and_one_solve(monkeypatch):
    calls = []
    solve = wu_module.min_vol_simplex_info
    monkeypatch.setattr(
        wu_module, "min_vol_simplex_info", lambda prog: calls.append(prog) or solve(prog)
    )
    res = wu_metric(indicatrix_at(gn(64), (0.0,) * 64).inner)
    assert len(calls) == 1 and len(calls[0].points) == 1
    assert res.certificate_points == 1
    assert res.w_tilde.axes == (63.0, math.inf) + (63.0,) * 62
    assert res.w((1.0,) + (0.0,) * 63) == 1.0


def test_product_sample_is_the_product_of_the_factor_samples():
    # the gn(4) axis-point outer ball: a 2-D ball sampled on 512 directions
    # times two unit discs; one solve over their product agrees with the
    # product rule applied to solves of the factors
    outer = indicatrix_at(gn(4), (0.3, 0.0, 0.0, 0.0)).outer
    head, disc, _ = outer.factors
    res = wu_metric(outer)
    assert res.certificate_points == wu_metric(head).certificate_points
    combined = wu_product(wu_metric(head), wu_metric(product_indicatrix(disc, disc)))
    assert res.m == combined.m == 4
    assert res.w_tilde.axes == pytest.approx(combined.w_tilde.axes, rel=1e-9)
    assert res.gap <= TOL


def test_product_sample_rows_are_every_choice_in_row_major_order():
    a, b, c = [(1.0,), (2.0,)], [(3.0, 4.0)], [(5.0,), (6.0,), (7.0,)]
    plane = cloud_indicatrix([(9.0,)], bounded_axes=(False,))
    factors = (cloud_indicatrix(a), plane, cloud_indicatrix(b), cloud_indicatrix(c))
    got = wu_module._product_sample(factors)
    # the unbounded factor adds no coordinate
    want = [sum(rows, ()) for rows in itertools.product(a, b, c)]
    assert got.tolist() == [list(row) for row in want]


def test_wu_on_degenerate_two_variable_model():
    res = wu_metric(indicatrix_at(g2(), (0.0, 0.0)).inner)
    assert res.m == 1
    assert res.v_axes == frozenset({1})
    assert res.w_tilde((1.0, 57.0)) == pytest.approx(1.0, rel=1e-10)
    assert res.w((1.0, 57.0)) == pytest.approx(1.0, rel=1e-10)


def test_wu_of_cloud_equals_wu_of_hull_marker():
    pts = [(0.8, 0.1), (0.2, 0.9), (0.5, 0.5)]
    raw = wu_metric(cloud_indicatrix(pts))
    hulled = wu_metric(convexify(cloud_indicatrix(pts)))
    assert raw.w_tilde.axes == pytest.approx(hulled.w_tilde.axes, rel=1e-12)


def test_wu_on_convexified_gn_origin_certifies():
    # the hull of Delta x C x Delta is the cube on the bounded axes, and its
    # boundary sample must certify at the solver's gap tolerance
    hull = convexify(indicatrix_at(gn(3), (0.0, 0.0, 0.0)).inner)
    res = wu_metric(hull)
    assert res.m == 2
    assert res.v_axes == frozenset({1})
    assert res.gap <= 1e-10
    assert res.w_tilde.axes[1] == math.inf
    assert (res.w_tilde.axes[0], res.w_tilde.axes[2]) == pytest.approx((2.0, 2.0), rel=1e-15)


def test_monotonicity_failure_is_real():
    # smaller ball, larger Wu value: the construction is not monotone
    small, large = synthetic_rem_one()
    # the Euclidean ball sits inside the (1, 2)-polydisc
    large_box = SimplexParams(tuple(max(p[j] for p in large.cloud) for j in range(2)))
    for p in small.cloud:
        assert all(c <= b for c, b in zip(p, large_box.intercepts))
    w_small = wu_metric(small).w((1.0, 0.0))
    w_large = wu_metric(large).w((1.0, 0.0))
    assert w_small == pytest.approx(math.sqrt(2.0), rel=1e-12)
    assert w_large == pytest.approx(1.0, rel=1e-12)
    assert w_small > w_large


def test_wu_product_consistency():
    left = wu_metric(cloud_indicatrix([(1.0,)]))
    right = wu_metric(cloud_indicatrix([(4.0,)]))
    direct = wu_metric(cloud_indicatrix([(1.0, 4.0)]))
    combined = wu_product(left, right)
    assert combined.m == direct.m == 2
    for X in [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (0.3, -2.0j)]:
        assert combined.w(X) == pytest.approx(direct.w(X), rel=1e-12)


def test_wu_product_with_degenerate_factor():
    degenerate = wu_metric(
        cloud_indicatrix([(1.0,)], bounded_axes=(False,))
    )
    assert degenerate.m == 0
    right = wu_metric(cloud_indicatrix([(1.0, 4.0)]))
    combined = wu_product(degenerate, right)
    assert combined.m == right.m
    for X in [(0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (5.0, 1.0, 1.0)]:
        assert combined.w(X) == pytest.approx(right.w(X[1:]), rel=1e-12)
        assert combined.w_tilde((1.0, 0.0, 0.0)) == 0.0


# ---------------------------------------------------------------------------
# contradiction certificates


def test_g2_certificate_at_reference_parameters():
    # the two-variable certificate is gn's at n = 2 with the pin t^2
    t = 1.1
    rep = certify_contradiction_gn(2, 0.01, t * t)
    assert rep.certified
    assert rep.ratio > 1.0
    # the two certificate points decouple, so the pinned optimum is
    # (t^2, nu) and the ratio x^2 a b lands exactly on t^2 (1-x)^2
    assert rep.ratio >= rep.ratio_bound * (1.0 - 1e-10)
    assert rep.ratio_bound == pytest.approx((1.1 * 0.99) ** 2, rel=1e-15)
    nu = (1.0 / 0.01 - 1.0) ** 2
    assert rep.constrained.intercepts == pytest.approx((1.1**2, nu), rel=1e-12)
    assert rep.ratio == pytest.approx(0.01**2 * 1.1**2 * nu, rel=1e-12)
    assert gn_optimum(2, 0.01, t * t) == pytest.approx((t * t, nu), rel=1e-12)
    assert rep.regime == "slack"
    assert gn_ratio(2, 0.0, t * t) == t * t


def test_g2_certificate_inconclusive_region():
    rep = certify_contradiction_gn(2, 0.5, 1.1 * 1.1)
    assert not rep.certified
    assert rep.ratio < 1.0
    assert rep.ratio >= rep.ratio_bound


@pytest.mark.parametrize("x, t", itertools.product((0.5, 0.1, 0.05, 0.01), (1.1, 1.6, 3.0)))
def test_g2_certificate_is_the_closed_form_ratio(x, t):
    # at n = 2 both constraints decouple: the ratio is t^2 (1-x)^2, and the
    # solver, the closed-form optimum and the limit agree with it
    rep = certify_contradiction_gn(2, x, t * t)
    want = (t * (1.0 - x)) ** 2
    assert rep.ratio == pytest.approx(want, rel=1e-15)
    assert rep.ratio_bound == pytest.approx(want, rel=1e-15)
    assert rep.constrained.intercepts[0] == t * t
    assert gn_ratio(2, 0.0, t * t) == t * t


def test_g2_certificate_validation():
    with pytest.raises(ValueError):
        certify_contradiction_gn(2, 0.0, 1.21)
    with pytest.raises(ValueError):
        certify_contradiction_gn(2, 0.5, 1.0)


def test_gn_certificate_slack_regime():
    n, x, t = 3, 0.01, 2.0
    rep = certify_contradiction_gn(n, x, t)
    nu = (1.0 / x - 1.0) ** 2
    want = 4.0 * x * x * t * nu * (n - 1) ** (n - 1) / n**n
    assert rep.certified and rep.regime == "slack"
    assert rep.ratio == pytest.approx(want, rel=1e-10)
    assert rep.ratio == pytest.approx(rep.ratio_bound, rel=1e-10)


def test_gn_certificate_active_regime():
    n, x, t = 3, 1e-4, 1.6
    rep = certify_contradiction_gn(n, x, t)
    mu, nu = (1.0 - x * x) ** 2, (1.0 / x - 1.0) ** 2
    want = 4.0 * x * x * nu * (n - 2) ** (n - 2) * t**n / (mu * n**n * (t - mu) ** (n - 2))
    assert rep.certified and rep.regime == "active"
    assert rep.ratio == pytest.approx(want, rel=1e-8)
    assert rep.ratio == pytest.approx(rep.ratio_bound, rel=1e-8)
    assert rep.ratio_bound == gn_ratio(n, x, t)


def test_gn_certificate_not_always_conclusive():
    rep = certify_contradiction_gn(3, 0.01, 1.6)
    assert not rep.certified
    assert rep.ratio < 1.0


def test_gn_ratio_limit_reference_values():
    assert gn_ratio(3, 0.0, 1.6) == pytest.approx(4.0 * 1.6**3 / (27.0 * 0.6), rel=1e-15)
    assert gn_ratio(3, 0.0, 1.5) == pytest.approx(1.0, rel=1e-12)


def test_gn_ratio_at_the_smallest_pin():
    # at n = 2 the trailing factor has exponent 0, and both regimes give
    # 1 at x = 0, t = n/2 = 1
    assert gn_ratio(2, 0.0, 1.0) == 1.0
    assert gn_ratio(2, 0.0, 1.0 + 2.0**-40) == pytest.approx(1.0, abs=1e-11)
    assert gn_ratio(2, 0.5, 1.0) == 0.25


@pytest.mark.parametrize(
    "n, x, t, message",
    [
        (1, 0.1, 1.0, "integer n >= 2"),
        (3.0, 0.1, 2.0, "integer n >= 2"),
        (3, 1.5, 2.0, r"x in \[0, 1\)"),
        (3, 1.0, 2.0, r"x in \[0, 1\)"),
        (3, -0.1, 2.0, r"x in \[0, 1\)"),
        (3, math.nan, 2.0, r"x in \[0, 1\)"),
        (3, 0.1, 1.0, "t >= n/2"),
        (2, 0.0, 0.5, "t >= n/2"),
        (3, 0.1, math.nan, "t >= n/2"),
    ],
)
def test_gn_ratio_refuses_inputs_outside_its_range(n, x, t, message):
    with pytest.raises(ValueError, match=message):
        gn_ratio(n, x, t)


def test_gn_ratio_limit_in_the_slack_regime():
    # past t = n - 1 the first constraint goes slack: the limit is
    # 4 t (n-1)^(n-1) / n^n, and the finite-x ratio tends to it
    assert gn_ratio(3, 0.0, 2.5) == pytest.approx(40 / 27, abs=1e-15)
    assert gn_ratio(4, 0.0, 3.5) == pytest.approx(4 * 3.5 * 27 / 256, rel=1e-15)
    assert certify_contradiction_gn(3, 1e-4, 2.5).ratio == pytest.approx(40 / 27, rel=1e-3)
    # t = n - 1 lies in both regimes
    assert gn_ratio(3, 0.0, 2.0) == pytest.approx(32 / 27, rel=1e-15)


@pytest.mark.parametrize("n, t", [(64, 33.0), (171, 86.0), (200, 101.0)])
def test_gn_certificate_in_many_variables(n, t):
    # n^n has no float value past n = 143 and n! none past 170; the limit
    # and the volume ratios are products of per-axis factors
    exact = 4 * Fraction(n - 2) ** (n - 2) * Fraction(t) ** n / (
        n**n * (Fraction(t) - 1) ** (n - 2)
    )
    assert gn_ratio(n, 0.0, t) == pytest.approx(float(exact), rel=1e-13)
    for x in (0.1, 0.01):
        rep = certify_contradiction_gn(n, x, t)
        ratio = math.prod(Fraction(a) / Fraction(b) for a, b in zip(
            rep.constrained.intercepts, rep.reference.intercepts
        ))
        assert rep.ratio == pytest.approx(float(ratio), rel=1e-13)
        assert rep.ratio == pytest.approx(rep.ratio_bound, rel=1e-10)


def test_gn_certificate_bound_dominates_ratio():
    # ratio_bound is the closed-form optimum's ratio, in both regimes
    for n in (2, 3, 4):
        for x in (0.3, 0.1, 0.01):
            for t in (0.51 * n + 0.1, 2.0 * n):
                rep = certify_contradiction_gn(n, x, t)
                assert rep.ratio == pytest.approx(rep.ratio_bound, rel=1e-10), (n, x, t)


GN_SWEEP_XS = (0.99, 0.9, 0.5, 0.3, 0.1, 0.05, 0.01, 1e-3, 1e-4)


def _gn_sweep_pins(n, x):
    """Pins on both sides of t = (n-1) mu and of n - 1, and at the ends."""
    m = (n - 1) * (1.0 - x * x) ** 2
    pins = {m - 0.2, m + 0.2, 0.999 * m, 0.9 * m, m, 1.1 * m,
            0.999 * (n - 1), 0.9 * (n - 1), float(n - 1), 1.1 * (n - 1), n / 2.0 + 1e-3, 3.0 * n}
    return sorted(t for t in pins if t > n / 2.0)


def test_gn_certificate_self_check_holds_with_a_tenfold_margin():
    # the certificate refuses a ratio more than 1e-11 relative off
    # gn_ratio; over this sweep the worst is 4.9e-13 against gn_ratio and
    # 4.7e-13 against the typed intercepts (both at n = 200)
    worst = 0.0
    for n in list(range(2, 60)) + [100, 150, 200]:
        for x in GN_SWEEP_XS:
            for t in _gn_sweep_pins(n, x):
                rep = certify_contradiction_gn(n, x, t)
                off = volume_ratio(rep.constrained.intercepts, gn_optimum(n, x, t)) - 1.0
                worst = max(worst, abs(off), abs(rep.ratio / gn_ratio(n, x, t) - 1.0))
    assert worst <= 1e-12


@pytest.mark.parametrize("off, raises", [(5e-12, False), (2e-11, True)])
def test_gn_certificate_refuses_a_volume_off_its_closed_form(monkeypatch, off, raises):
    solve = wu_module.min_vol_simplex

    def skewed(prog):
        a = solve(prog).intercepts
        return SimplexParams((a[0] * (1.0 + off),) + a[1:])

    monkeypatch.setattr(wu_module, "min_vol_simplex", skewed)
    if raises:
        with pytest.raises(SolverError, match="relative off its closed form"):
            certify_contradiction_gn(5, 0.01, 4.0)
    else:
        assert certify_contradiction_gn(5, 0.01, 4.0).certified


def test_gn_certificate_validation():
    with pytest.raises(ValueError):
        certify_contradiction_gn(1, 0.1, 1.6)
    with pytest.raises(ValueError):
        certify_contradiction_gn(2, 0.1, 1.0)
    with pytest.raises(ValueError):
        certify_contradiction_gn(3, 0.1, 1.5)
    with pytest.raises(ValueError):
        certify_contradiction_gn(3, 1.1, 1.6)


# ---------------------------------------------------------------------------
# randomized-but-deterministic property sweep


HARD_CLOUDS = hard_cloud_cases()
GENERATED_CLOUDS = cloud_cases(48) + HARD_CLOUDS


def _check_certificate(pts):
    info = min_vol_simplex_info(simplex_program(pts, tolerance=TOL))
    # the solver returns only iterates whose full gap is certified
    assert info.gap <= TOL
    for p in pts:
        assert psi_contains(info.params.intercepts, p, tol=10.0 * TOL)
    # at the optimum the enclosing facet is supported by at least one point
    assert any(
        abs(sum(c / a for c, a in zip(p, info.params.intercepts)) - 1.0) <= 1e-7
        for p in pts
    )


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_solver_certificates_on_generated_clouds(seed):
    # hypothesis picks the case index; the cases themselves are fixed
    _check_certificate(GENERATED_CLOUDS[seed % len(GENERATED_CLOUDS)][1])


@pytest.mark.parametrize("case", range(len(HARD_CLOUDS)))
def test_solver_certificates_on_hard_clouds(case):
    # every near-duplicate, zero-heavy and squared-sphere cloud, k = 2..9
    _check_certificate(HARD_CLOUDS[case][1])
