"""Minimal-volume enclosing simplex solver and the Wu construction.

Solver results are checked four ways: against closed forms (box corners,
pinned two-point programs in both active and slack regimes), against the
exhaustive grid reference, against the convex-programming invariants
(containment, permutation equivariance, exact scaling), and against
planted optima of adversarial programs (near-duplicate and dominated
points, axis scales from 1e-12 to 1e12, single-axis mass).
"""

import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import cloud_cases
from wumetric.busemann import cloud_indicatrix, convexify, radial_indicatrix
from wumetric.domains import g2, gn, indicatrix_at, polydisc, synthetic_rem_one
from wumetric.geometry import SimplexParams, simplex_contains, simplex_volume
from wumetric import wu as wu_module
from wumetric.wu import (
    DegenerateAxisError,
    InfeasibleProgramError,
    SimplexProgram,
    SolverError,
    certify_contradiction_g2,
    certify_contradiction_gn,
    gn_constrained_optimum,
    gn_ratio_limit,
    min_vol_simplex,
    min_vol_simplex_bruteforce,
    min_vol_simplex_info,
    simplex_program,
    wu_metric,
    wu_product,
)

TOL = 1e-10


def solve(points, **kw):
    return min_vol_simplex(simplex_program(points, **kw)).intercepts


# ---------------------------------------------------------------------------
# closed forms


def test_box_corner_gives_n_r_squared():
    for n in (1, 2, 3, 4, 6):
        r2 = tuple(0.2 + 0.37 * j for j in range(n))
        a = solve([r2])
        for got, want in zip(a, r2):
            assert got == pytest.approx(n * want, rel=1e-12)


def test_independent_axis_points():
    assert solve([(1.0, 0.0), (0.0, 1.0)]) == pytest.approx((1.0, 1.0), rel=1e-12)


def test_single_diagonal_point():
    assert solve([(1.0, 1.0)]) == pytest.approx((2.0, 2.0), rel=1e-12)


def test_redundant_interior_points_do_not_move_optimum():
    base = solve([(1.0, 1.0)])
    padded = solve([(1.0, 1.0), (0.2, 0.1), (0.0, 0.5), (1.0, 0.0)])
    assert padded == pytest.approx(base, rel=1e-12)


def two_point_program(n, x, t=None):
    mu = (1.0 - x * x) ** 2
    nu = (1.0 / x - 1.0) ** 2
    p1 = (mu, 0.0) + (1.0,) * (n - 2)
    p2 = (0.0, nu) + (1.0,) * (n - 2)
    fixed = None if t is None else {0: t}
    return simplex_program([p1, p2], fixed=fixed), mu, nu


def test_pinned_two_point_active_regime():
    # pin below (n-1) mu: both certificate constraints stay active and the
    # optimum is (t, nu t / mu, (n-2) t / (t - mu), ...)
    n, x, t = 3, 0.1, 1.5
    prog, mu, nu = two_point_program(n, x, t)
    assert t <= (n - 1) * mu
    a = min_vol_simplex(prog).intercepts
    want = (t, nu * t / mu, (n - 2) * t / (t - mu))
    assert a == pytest.approx(want, rel=1e-9)
    assert a == pytest.approx(gn_constrained_optimum(n, x, t), rel=1e-9)


def test_pinned_two_point_slack_regime():
    # pin above (n-1) mu: the first constraint goes slack and the trailing
    # intercepts settle at n-1
    n, x, t = 3, 0.1, 2.0
    prog, mu, nu = two_point_program(n, x, t)
    assert t > (n - 1) * mu
    a = min_vol_simplex(prog).intercepts
    assert a == pytest.approx((t, (n - 1) * nu, float(n - 1)), rel=1e-9)
    assert a == pytest.approx(gn_constrained_optimum(n, x, t), rel=1e-9)


def test_pinned_two_point_matches_reduced_optimum_across_regimes():
    for n, x, t in [(3, 0.3, 1.6), (3, 0.05, 2.0), (4, 0.2, 2.1), (5, 0.1, 2.6)]:
        prog, _, _ = two_point_program(n, x, t)
        a = min_vol_simplex(prog).intercepts
        assert a == pytest.approx(gn_constrained_optimum(n, x, t), rel=1e-8)


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
# solver mechanics and invariants


def test_fixed_intercepts_are_honored():
    a = solve([(1.0, 1.0)], fixed={0: 4.0})
    assert a[0] == 4.0
    # with a1 = 4 the point needs u2/a2 <= 3/4, so a2 = 4/3
    assert a[1] == pytest.approx(4.0 / 3.0, rel=1e-12)


def test_dropped_axes_return_infinite_intercepts():
    a = solve([(1.0, math.inf, 1.0)], dropped=[1])
    assert a[1] == math.inf
    assert a[0] == pytest.approx(2.0, rel=1e-12)
    assert a[2] == pytest.approx(2.0, rel=1e-12)


def test_infeasible_and_degenerate_errors():
    with pytest.raises(InfeasibleProgramError):
        solve([(1.0, 0.0)], fixed={0: 0.5})
    with pytest.raises(InfeasibleProgramError):
        # saturates the pin exactly but still has mass on the free axis
        solve([(1.0, 1.0)], fixed={0: 1.0})
    with pytest.raises(DegenerateAxisError):
        solve([(1.0, 0.0)])  # no mass on axis 2: infimum 0 not attained
    with pytest.raises(DegenerateAxisError):
        SimplexProgram(points=((1.0, math.inf),))
    with pytest.raises(ValueError):
        simplex_program([])
    with pytest.raises(ValueError):
        solve([(1.0, 1.0)], fixed={0: 2.0}, dropped=[0])


def test_containment_certificate():
    for n, pts in cloud_cases(12):
        params = min_vol_simplex(simplex_program(pts, tolerance=TOL))
        for p in pts:
            assert simplex_contains(params, p, tol=10.0 * TOL)


def test_duality_gap_is_reported():
    info = min_vol_simplex_info(simplex_program([(1.0, 1.0), (0.3, 0.2)]))
    assert info.gap <= 1e-10
    assert info.volume == pytest.approx(2.0)
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
    for bad in (-1.0, math.nan):
        with pytest.raises(ValueError, match="nonnegative"):
            simplex_program([(1.0, 1.0), (0.5, bad)])
    with pytest.raises(DegenerateAxisError, match="axis 1"):
        simplex_program([(1.0, 0.0), (0.5, math.inf)], dropped=[0])
    # the first offending point names the error, violation before saturation
    with pytest.raises(InfeasibleProgramError, match="point 0 saturates"):
        solve([(0.5, 1.0), (1.0, 0.0)], fixed={0: 0.5})
    with pytest.raises(InfeasibleProgramError, match="point 1 violates"):
        solve([(0.25, 1.0), (1.0, 1.0), (0.5, 1.0)], fixed={0: 0.5})


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
    monkeypatch.setattr(wu_module, "MAX_NEWTON_STEPS", 3)
    prog = simplex_program([(1.0, 1.0), (1.0 + 2e-7, 1.0)])
    start = time.perf_counter()
    with pytest.raises(SolverError, match=r"2 x 2 program after 3 Newton steps \(best gap") as err:
        min_vol_simplex_info(prog)
    assert time.perf_counter() - start < 1.0
    assert TOL < err.value.gap < math.inf


def test_singular_newton_system_fails_with_solver_error(monkeypatch):
    def singular(*args):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(wu_module.np.linalg, "solve", singular)
    with pytest.raises(SolverError, match="after 1 Newton steps"):
        min_vol_simplex_info(simplex_program([(1.0, 1.0), (0.5, 0.9)]))


# ---------------------------------------------------------------------------
# adversarial programs with planted optima


@pytest.mark.parametrize("eps", [1e-5, 2e-7])
def test_near_duplicate_stall_reproducers_certify(eps):
    # (1 + eps, 1) dominates (1, 1), so a = 2 (1 + eps, 1); one point
    # touches the optimum, where a gap g bounds the error by sqrt(2 g)
    info = min_vol_simplex_info(simplex_program([(1.0, 1.0), (1.0 + eps, 1.0)]))
    assert info.gap <= TOL
    assert info.iterations <= 50
    want = (2.0 * (1.0 + eps), 2.0)
    assert info.params.intercepts == pytest.approx(want, rel=math.sqrt(2.0 * TOL))


def _unit_face(rng, count, k):
    x = rng.standard_exponential((count, k))
    return x / x.sum(axis=1, keepdims=True)


@settings(max_examples=40, deadline=None)
@given(
    k=st.integers(min_value=2, max_value=5),
    depth=st.sampled_from([1e-1, 1e-3, 2e-7, 1e-9, 1e-12]),
    exponents=st.lists(st.integers(min_value=-12, max_value=12), min_size=5, max_size=5),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_planted_vertices_with_near_duplicates(k, depth, exponents, seed):
    # the vertices a_j e_j force a' >= a and every other point lies in T_a,
    # so T_a is optimal; near-duplicates sit ``depth`` inside the vertices
    # and the face, and axis scales range over 1e-12 .. 1e12
    rng = np.random.default_rng(seed)
    a = np.exp(rng.uniform(-0.7, 0.7, k)) * 10.0 ** np.array(exponents[:k], dtype=float)
    face = a * _unit_face(rng, 30, k)
    vertices = np.diag(a)
    pts = np.vstack(
        [vertices, vertices * (1.0 - depth), face, face * (1.0 - depth), face[:3] * 1e-12]
    )
    rng.shuffle(pts)
    info = min_vol_simplex_info(simplex_program(pts))
    assert info.gap <= TOL
    assert info.params.intercepts == pytest.approx(tuple(a), rel=1e-9)


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
    ref = simplex_volume(min_vol_simplex_bruteforce(prog, grid=601))
    assert info.volume == pytest.approx(ref, rel=1e-3)
    assert info.volume <= ref * (1.0 + 1e-9)


# ---------------------------------------------------------------------------
# grid reference


def test_bruteforce_box_corner():
    a = min_vol_simplex_bruteforce(simplex_program([(1.0, 1.0)]), grid=601)
    assert a.intercepts == pytest.approx((2.0, 2.0), rel=2e-3)


def test_bruteforce_matches_solver_on_pinned_program():
    prog, _, _ = two_point_program(3, 0.1, 2.0)
    exact = min_vol_simplex(prog)
    ref = min_vol_simplex_bruteforce(prog, grid=601)
    assert simplex_volume(ref) == pytest.approx(simplex_volume(exact), rel=1e-3)


def test_bruteforce_refuses_high_dimensions():
    with pytest.raises(ValueError):
        min_vol_simplex_bruteforce(simplex_program([(1.0,) * 4]))


def test_bruteforce_oracle_equivalence():
    for n, pts in cloud_cases(14):
        prog = simplex_program(pts)
        vol = simplex_volume(min_vol_simplex(prog))
        ref = simplex_volume(min_vol_simplex_bruteforce(prog, grid=301))
        assert vol == pytest.approx(ref, rel=1e-3), (n, len(pts))
        assert vol <= ref * (1.0 + 1e-9)  # never worse than the scan


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
    # hull radials carry about 1e-7 of LP noise, and the boundary sample
    # must still certify at the solver's gap tolerance
    hull = convexify(indicatrix_at(gn(3), (0.0, 0.0, 0.0)).inner)
    res = wu_metric(hull, resolution=200)
    assert res.m == 2
    assert res.v_axes == frozenset({1})
    assert res.gap <= 1e-10
    assert res.w_tilde.axes[1] == math.inf
    assert (res.w_tilde.axes[0], res.w_tilde.axes[2]) == pytest.approx((2.0, 2.0), rel=1e-12)


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
    rep = certify_contradiction_g2(0.01, 1.1)
    assert rep.certified
    assert rep.ratio > 1.0
    # the two certificate points decouple, so the pinned optimum is
    # (t^2, nu) and the ratio x^2 a b lands exactly on t^2 (1-x)^2
    assert rep.ratio >= rep.ratio_bound * (1.0 - 1e-10)
    assert rep.ratio_bound == pytest.approx((1.1 * 0.99) ** 2, rel=1e-15)
    nu = (1.0 / 0.01 - 1.0) ** 2
    assert rep.constrained.intercepts == pytest.approx((1.1**2, nu), rel=1e-12)
    assert rep.ratio == pytest.approx(0.01**2 * 1.1**2 * nu, rel=1e-12)


def test_g2_certificate_inconclusive_region():
    rep = certify_contradiction_g2(0.5, 1.1)
    assert not rep.certified
    assert rep.ratio < 1.0
    assert rep.ratio >= rep.ratio_bound


def test_g2_certificate_validation():
    with pytest.raises(ValueError):
        certify_contradiction_g2(0.0, 1.1)
    with pytest.raises(ValueError):
        certify_contradiction_g2(0.5, 1.0)


def test_gn_certificate_slack_regime():
    n, x, t = 3, 0.01, 2.0
    rep = certify_contradiction_gn(n, x, t)
    nu = (1.0 / x - 1.0) ** 2
    want = 4.0 * x * x * t * nu * (n - 1) ** (n - 1) / n**n
    assert rep.certified
    assert rep.ratio == pytest.approx(want, rel=1e-10)
    assert rep.ratio <= rep.ratio_bound * (1.0 + 1e-9)


def test_gn_certificate_active_regime():
    n, x, t = 3, 1e-4, 1.6
    rep = certify_contradiction_gn(n, x, t)
    mu, nu = (1.0 - x * x) ** 2, (1.0 / x - 1.0) ** 2
    want = 4.0 * x * x * nu * (n - 2) ** (n - 2) * t**n / (mu * n**n * (t - mu) ** (n - 2))
    assert rep.certified
    assert rep.ratio == pytest.approx(want, rel=1e-8)
    assert rep.ratio == pytest.approx(rep.ratio_bound, rel=1e-8)
    assert rep.ratio_limit == pytest.approx(gn_ratio_limit(n, t), rel=1e-15)


def test_gn_certificate_not_always_conclusive():
    rep = certify_contradiction_gn(3, 0.01, 1.6)
    assert not rep.certified
    assert rep.ratio < 1.0


def test_gn_ratio_limit_reference_values():
    assert gn_ratio_limit(3, 1.6) == pytest.approx(4.0 * 1.6**3 / (27.0 * 0.6), rel=1e-15)
    assert gn_ratio_limit(3, 1.5) == pytest.approx(1.0, rel=1e-12)


def test_gn_certificate_bound_dominates_ratio():
    for n in (3, 4):
        for x in (0.3, 0.1, 0.01):
            for t in (0.51 * n + 0.1, 2.0 * n):
                rep = certify_contradiction_gn(n, x, t)
                assert rep.ratio <= rep.ratio_bound * (1.0 + 1e-9), (n, x, t)


def test_gn_certificate_validation():
    with pytest.raises(ValueError):
        certify_contradiction_gn(2, 0.1, 1.6)
    with pytest.raises(ValueError):
        certify_contradiction_gn(3, 0.1, 1.5)
    with pytest.raises(ValueError):
        certify_contradiction_gn(3, 1.1, 1.6)


# ---------------------------------------------------------------------------
# randomized-but-deterministic property sweep


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_solver_certificates_on_generated_clouds(seed):
    # hypothesis picks the case index; the cases themselves are fixed
    n, pts = cloud_cases(48)[seed % 48]
    info = min_vol_simplex_info(simplex_program(pts, tolerance=TOL))
    assert info.gap <= 100.0 * TOL
    for p in pts:
        assert simplex_contains(info.params, p, tol=10.0 * TOL)
    # at the optimum the enclosing facet is supported by at least one point
    assert any(
        abs(sum(c / a for c, a in zip(p, info.params.intercepts)) - 1.0) <= 1e-7
        for p in pts
    )
