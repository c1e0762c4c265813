"""Minimal-volume enclosing simplex solver and the Wu construction.

Solver results are checked three ways: against closed forms (box corners,
pinned two-point programs in both active and slack regimes), against the
exhaustive grid reference, and against the convex-programming invariants
(containment, permutation equivariance, exact scaling).
"""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import cloud_cases
from wumetric.busemann import cloud_indicatrix, convexify, radial_indicatrix
from wumetric.domains import g2, gn, indicatrix_at, polydisc, synthetic_rem_one
from wumetric.geometry import SimplexParams, simplex_contains, simplex_volume
from wumetric.wu import (
    DegenerateAxisError,
    InfeasibleProgramError,
    SimplexProgram,
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
        ball = radial_indicatrix(
            lambda d, r=r: r, 3, (True,) * 3, complete_reinhardt=True
        )
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
