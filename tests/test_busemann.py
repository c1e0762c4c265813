"""Convexification, degeneracy detection and support functions."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from wumetric.busemann import (
    Indicatrix,
    UnknownBoundednessError,
    UnsupportedIndicatrixError,
    absolute_directions,
    cloud_indicatrix,
    convexify,
    degeneracy,
    radial_indicatrix,
    support,
)
from wumetric.domains import g2, indicatrix_at, polydisc

DIRS_2D = [
    (1.0, 0.0),
    (0.0, 1.0),
    (1.0, 1.0),
    (0.8, 0.6),
    (0.28, 0.96),
    (0.6, -0.8),  # phases are immaterial for Reinhardt balls
]


def unit_ball(n):
    return radial_indicatrix(lambda d: 1.0, n, (True,) * n)


def test_indicatrix_construction_guards():
    with pytest.raises(ValueError):
        Indicatrix(dim=2)  # neither representation
    with pytest.raises(ValueError):
        cloud_indicatrix([(1.0, -0.5)])
    with pytest.raises(ValueError):
        cloud_indicatrix([])
    with pytest.raises(ValueError):
        cloud_indicatrix([(1.0, 0.0)], bounded_axes=(True,))


def test_boundedness_metadata():
    assert cloud_indicatrix([(1.0, 2.0)]).boundedness() == (True, True)
    ind = radial_indicatrix(lambda d: 1.0, 2, (True, None))
    with pytest.raises(UnknownBoundednessError):
        ind.boundedness()
    with pytest.raises(UnknownBoundednessError):
        radial_indicatrix(lambda d: 1.0, 2, (None, None)).boundedness()


def test_eta_of_radial_ball():
    ball = unit_ball(3)
    assert ball.eta((1.0, 0.0, 0.0)) == pytest.approx(1.0)
    assert ball.eta((3.0, 4.0j, 0.0)) == pytest.approx(5.0)
    assert ball.eta((0.0, 0.0, 0.0)) == 0.0
    with pytest.raises(UnsupportedIndicatrixError):
        cloud_indicatrix([(1.0,)]).eta((1.0,))


def test_absolute_directions_are_deterministic():
    d1 = absolute_directions(3, 64)
    d2 = absolute_directions(3, 64)
    assert np.array_equal(d1, d2)
    assert d1.shape == (64, 3)
    assert np.all(d1 >= 0.0)
    assert np.allclose(np.linalg.norm(d1, axis=1), 1.0, atol=1e-12)
    # coordinate axes lead the sequence so extreme points are always sampled
    assert np.allclose(d1[:3], np.eye(3))


def test_convexify_fixpoint_on_ball():
    hull = convexify(unit_ball(2), resolution=128)
    assert hull.hulled
    # exact on the sampled axes, within the sampling gap elsewhere
    assert hull.radial((1.0, 0.0)) == pytest.approx(1.0, rel=1e-12)
    assert hull.radial((0.0, 1.0)) == pytest.approx(1.0, rel=1e-12)
    for d in DIRS_2D:
        norm = math.sqrt(abs(d[0]) ** 2 + abs(d[1]) ** 2)
        unit = (d[0] / norm, d[1] / norm)
        assert hull.radial(unit) == pytest.approx(1.0, rel=2e-4)
        assert hull.radial(unit) <= 1.0 + 1e-12


def test_convexified_radius_dominates():
    inner = indicatrix_at(g2(), (0.0, 0.0)).inner  # unbounded along axis 2
    hull = convexify(inner, resolution=96)
    for d in DIRS_2D:
        norm = math.sqrt(abs(d[0]) ** 2 + abs(d[1]) ** 2)
        unit = (d[0] / norm, d[1] / norm)
        rho = inner.radial(unit)
        rho_hat = hull.radial(unit)
        assert rho_hat >= rho * (1.0 - 1e-9)
    # hull of the two-variable model domain is a disc-cylinder: radius 1 on axis 1
    assert hull.radial((1.0, 0.0)) == pytest.approx(1.0, rel=1e-9)
    assert hull.radial((0.0, 1.0)) == math.inf


def test_convexify_idempotence():
    inner = indicatrix_at(g2(), (0.0, 0.0)).inner
    once = convexify(inner, resolution=96)
    twice = convexify(once)
    assert twice is once  # marker short-circuit
    # and rebuilding from scratch is deterministic
    again = convexify(indicatrix_at(g2(), (0.0, 0.0)).inner, resolution=96)
    for d in DIRS_2D:
        norm = math.sqrt(abs(d[0]) ** 2 + abs(d[1]) ** 2)
        unit = (d[0] / norm, d[1] / norm)
        a, b = once.radial(unit), again.radial(unit)
        if math.isinf(a) or math.isinf(b):
            assert a == b
        else:
            assert a == pytest.approx(b, rel=1e-10)


def test_convexify_cloud_is_marker_only():
    cloud = cloud_indicatrix([(1.0, 0.0), (0.0, 1.0)])
    hull = convexify(cloud)
    assert hull.hulled and hull.cloud == cloud.cloud


def test_convexify_rejects_unusable_inputs():
    with pytest.raises(UnsupportedIndicatrixError):
        convexify(cloud_indicatrix([(1.0,)], balanced=False))
    with pytest.raises(UnsupportedIndicatrixError):
        convexify(radial_indicatrix(lambda d: 1.0, 2, (True, True), reinhardt=False))
    # declared bounded but the evaluator escapes: must refuse, not guess
    with pytest.raises(UnknownBoundednessError):
        convexify(radial_indicatrix(lambda d: math.inf, 2, (True, True)))


def test_two_discs_hull_is_l1_ball():
    """conv({|X1|<1} u {|X2|<1}) = {|X1|+|X2|<1}, support max(|y1|,|y2|)."""
    union = cloud_indicatrix([(1.0, 0.0), (0.0, 1.0)])
    hull = convexify(union)
    for y, want in [
        ((1.0, 0.0), 1.0),
        ((0.0, 1.0), 1.0),
        ((1.0, 1.0), 1.0),
        ((2.0, 1.0), 2.0),
        ((0.3, -0.7j), 0.7),
    ]:
        assert support(hull, y) == pytest.approx(want, rel=1e-12)


def test_support_examples():
    ball = unit_ball(2)
    for y in [(1.0, 0.0), (0.6, 0.8), (1j / math.sqrt(2), 0.7071067811865476)]:
        assert support(ball, y, resolution=96) == pytest.approx(1.0, rel=1e-6)
    halfplane = indicatrix_at(g2(), (0.0, 0.0)).inner
    assert support(halfplane, (0.0, 1.0)) == math.inf
    disc_cyl = convexify(halfplane, resolution=96)
    assert support(disc_cyl, (1.0, 0.0)) == pytest.approx(1.0, rel=1e-9)
    # polydisc with radii (1, 2)
    poly = indicatrix_at(polydisc(1.0, 2.0), (0.0, 0.0)).inner
    assert support(poly, (1.0, 0.0), resolution=96) == pytest.approx(1.0, rel=1e-6)
    assert support(poly, (0.0, 1.0), resolution=96) == pytest.approx(2.0, rel=1e-6)


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=2.0),
            st.floats(min_value=0.0, max_value=2.0),
        ),
        min_size=1,
        max_size=6,
    ),
    st.tuples(
        st.floats(min_value=-3.0, max_value=3.0),
        st.floats(min_value=-3.0, max_value=3.0),
    ),
    st.tuples(
        st.floats(min_value=-3.0, max_value=3.0),
        st.floats(min_value=-3.0, max_value=3.0),
    ),
    st.floats(min_value=0.0, max_value=10.0),
)
def test_support_sublinear_and_homogeneous(pts, y1, y2, lam):
    ind = cloud_indicatrix(pts)
    s1, s2 = support(ind, y1), support(ind, y2)
    both = support(ind, (y1[0] + y2[0], y1[1] + y2[1]))
    assert both <= s1 + s2 + 1e-12 + 1e-12 * (s1 + s2)
    assert support(ind, (lam * y1[0], lam * y1[1])) == pytest.approx(
        lam * s1, rel=1e-12, abs=1e-12
    )


def test_degeneracy_reports():
    r = degeneracy(indicatrix_at(g2(), (0.0, 0.0)).inner)
    assert r.v_axes == frozenset({1}) and r.m == 1
    r = degeneracy(indicatrix_at(g2(), (0.3, 0.0)).outer)
    assert r.v_axes == frozenset() and r.m == 2
    # disc x plane x disc
    ind = cloud_indicatrix([(1.0, 1.0, 1.0)], bounded_axes=(True, False, True))
    r = degeneracy(ind)
    assert r.v_axes == frozenset({1}) and r.m == 2


def test_degeneracy_requires_metadata_and_symmetry():
    with pytest.raises(UnknownBoundednessError):
        degeneracy(radial_indicatrix(lambda d: 1.0, 2, (True, None)))
    with pytest.raises(UnsupportedIndicatrixError):
        degeneracy(radial_indicatrix(lambda d: 1.0, 2, (True, True), reinhardt=False))


def test_bounded_inclusions_share_full_rank():
    # both polydiscs are bounded, so inclusion cannot change m
    small = indicatrix_at(polydisc(1.0, 2.0), (0.0, 0.0)).inner
    large = indicatrix_at(polydisc(2.0, 3.0), (0.0, 0.0)).inner
    assert degeneracy(small).m == degeneracy(large).m == 2
