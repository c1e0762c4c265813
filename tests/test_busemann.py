"""Convexification, degeneracy detection and support functions."""

import importlib.util
import inspect
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import wumetric
from helpers import absolute_directions_loop, hull_radius_lp, sandwich_ok, sphere_directions
from wumetric import busemann
from wumetric.busemann import (
    MAX_HULL_AXES,
    Indicatrix,
    UnknownBoundednessError,
    UnsupportedIndicatrixError,
    absolute_directions,
    batch_radial,
    cloud_indicatrix,
    convexify,
    product_indicatrix,
    radial_indicatrix,
    support,
)
from wumetric.domains import (
    SandwichIndicatrix,
    elem_reinhardt,
    g2,
    gn,
    indicatrix_at,
    metric_indicatrix,
    polydisc,
    truncated_gn,
    truncation_intercepts,
)
from wumetric.wu import wu_metric

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


@pytest.mark.parametrize("k", range(1, 9))
def test_absolute_directions_match_the_loop_reference(k):
    # 256 k is the default shape of wu_metric, convexify and support
    for count in (1, 2**k + 40, 256 * k):
        got = absolute_directions(k, count)
        want = absolute_directions_loop(k, count)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_absolute_directions_stays_a_plain_function():
    # the benchmark's tracer wraps only plain functions
    assert inspect.isfunction(absolute_directions)


@pytest.mark.parametrize("k, count", [(1, 4), (3, 64)])
def test_direction_tables_are_shared_and_read_only(k, count):
    d1 = absolute_directions(k, count)
    assert absolute_directions(k, count) is d1
    assert not d1.flags.writeable
    with pytest.raises(ValueError):
        d1[0, 0] = 0.5
    with pytest.raises(ValueError):
        d1 *= 2.0
    assert d1.tobytes() == absolute_directions_loop(k, count).tobytes()


def test_direction_tables_beyond_the_cache_size_are_evicted():
    table = busemann._direction_table
    first = absolute_directions(2, 1000)
    for count in range(1001, 1001 + busemann.DIRECTION_TABLES):
        absolute_directions(2, count)
    info = table.cache_info()
    assert info.maxsize == busemann.DIRECTION_TABLES
    assert info.currsize == busemann.DIRECTION_TABLES
    again = absolute_directions(2, 1000)
    assert table.cache_info().misses == info.misses + 1
    assert again is not first and again.tobytes() == first.tobytes()


def test_direction_tables_above_the_byte_budget_are_not_kept():
    # the truncated_gn(16, 4) outer ellipsoid samples the (65 535, 16)
    # table, 8.4 MB: built for its solve and not kept
    n = 16
    assert ((1 << n) - 1) * n * 8 > busemann.DIRECTION_TABLE_BYTES
    before = busemann._direction_table.cache_info()
    res = wu_metric(indicatrix_at(truncated_gn(n, 4.0), (0.0,) * n).outer)
    assert busemann._direction_table.cache_info() == before
    assert res.certificate_points == (1 << n) - 1
    assert res.w_tilde.axes == pytest.approx(truncation_intercepts(n, 4.0), rel=1e-12)


def test_direction_table_beyond_the_corner_limit_raises_before_building():
    with pytest.raises(UnsupportedIndicatrixError, match=r"40 axes have 1099511627775 "):
        absolute_directions(40, 1)


def test_product_indicatrix_concatenates_its_factors():
    disc = radial_indicatrix(batch_radial(lambda m: 2.0 / m[..., 0]), 1, (True,))
    plane = radial_indicatrix(batch_radial(lambda m: np.full(m.shape[:-1], np.inf)), 1, (False,))
    assert product_indicatrix(disc) is disc
    ball = product_indicatrix(disc, plane, disc)
    assert ball.dim == 3 and ball.factors == (disc, plane, disc)
    assert ball.boundedness() == (True, False, True)
    assert ball.radii(np.array([[0.6, 0.0, 0.8], [0.0, 1.0, 0.0]])).tolist() == [2.5, math.inf]
    with pytest.raises(UnsupportedIndicatrixError):
        product_indicatrix(disc, cloud_indicatrix([(1.0,)]))
    with pytest.raises(ValueError, match="dimensions"):
        Indicatrix(dim=3, radial=ball.radial, bounded_axes=(True,) * 3, factors=(disc, disc))


def test_traced_wu_metric_records_its_direction_lookups():
    # the benchmark's busemann.directions counter comes from a span around
    # absolute_directions, so a cache must leave the public function plain
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    instrumentation = spans.Instrumentation(tracer)
    instrumentation.install()
    try:
        busemann.absolute_directions(3, 48)  # a cached table is traced too
        wumetric.wu_metric(unit_ball(3))
    finally:
        instrumentation.uninstall()
    counts = [s[6]["count"] for s in tracer.spans if s[0] == "busemann.directions"]
    assert counts == [48, 768]
    assert inspect.isfunction(busemann.absolute_directions)
    assert not hasattr(busemann.absolute_directions, "_perfbench_traced")


def test_import_leaves_scipy_optimize_unloaded():
    # hull radii come from facets, so neither the import nor a Wu metric
    # on a convexified indicatrix (a cube cylinder, and a ball that needs
    # qhull) solves a linear program
    src = str(Path(wumetric.__file__).resolve().parents[1])
    code = (
        "import sys, wumetric; "
        "print('scipy.optimize' in sys.modules); "
        "from wumetric.busemann import convexify, radial_indicatrix; "
        "from wumetric.domains import gn, indicatrix_at; "
        "from wumetric.wu import wu_metric; "
        "wu_metric(convexify(indicatrix_at(gn(3), (0.0, 0.0, 0.0)).inner)); "
        "wu_metric(convexify(radial_indicatrix(lambda d: 1.0, 3, (True,) * 3))); "
        "print('scipy.optimize' in sys.modules)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "False"]


# moduli of four pairwise incomparable polydiscs: the hull of the maximal
# boundary samples of their union and the origin has facets whose normals
# have negative entries, which the downward-closed hull does not have
FOUR_POLYDISCS = np.array(
    [(1.0, 0.1, 0.05), (0.1, 0.9, 0.1), (0.05, 0.1, 1.0), (0.5, 0.5, 0.2)]
)


def _polydisc_union_radius(m):
    return (FOUR_POLYDISCS / m[..., None, :]).min(axis=-1).max(axis=-1)


def _elem_hull(kind, alpha, declared, a, k):
    ind, _ = metric_indicatrix(kind, elem_reinhardt(alpha, 0.0, declared), a, k)
    return convexify(ind, resolution=128)


LP_ORACLE_HULLS = {
    "g2": lambda: convexify(indicatrix_at(g2(), (0.0, 0.0)).inner),
    "gn(3)": lambda: convexify(indicatrix_at(gn(3), (0.0,) * 3).inner),
    "gn(4)": lambda: convexify(indicatrix_at(gn(4), (0.0,) * 4).inner),
    "3-D ball": lambda: convexify(unit_ball(3)),
    "kappa": lambda: _elem_hull("kappa", (1.0, 2.0), None, (0.5, 0.0), None),
    "gamma_k": lambda: _elem_hull("gamma_k", (1.0, 2.0), None, (0.5, 0.0), 2),
    "azukawa": lambda: _elem_hull(
        "azukawa", (2.0, math.sqrt(2.0)), "irrational", (0.7, 0.0), None
    ),
    "union of four polydiscs": lambda: convexify(
        radial_indicatrix(batch_radial(_polydisc_union_radius), 3, (True,) * 3),
        resolution=128,
    ),
    # no bounded axis: the hull is the whole space, every radius infinite
    "kappa at the origin": lambda: _elem_hull("kappa", (1.0, 2.0), None, (0.0, 0.0), None),
}


@pytest.mark.parametrize("name", sorted(LP_ORACLE_HULLS))
def test_hull_gauge_matches_the_lp_oracle(name):
    hull = LP_ORACLE_HULLS[name]()
    points = np.array(hull.hull_points)
    unbounded = [j for j, b in enumerate(hull.boundedness()) if not b]
    dirs = np.abs(np.array([*np.eye(hull.dim), *sphere_directions(hull.dim, 24)]))
    got = hull.radii(dirs)
    want = np.array([hull_radius_lp(points, unbounded, d) for d in dirs])
    assert np.array_equal(np.isinf(got), np.isinf(want))
    finite = np.isfinite(want)
    assert np.all(np.abs(got[finite] - want[finite]) <= 1e-12 * want[finite])


def test_hull_gauge_blocks_leave_radii_unchanged(monkeypatch):
    hull = convexify(unit_ball(3), resolution=96)
    dirs = np.abs(np.array(sphere_directions(3, 50)))
    whole = hull.radii(dirs)
    monkeypatch.setattr(busemann, "_GAUGE_BLOCK_ENTRIES", 1)
    assert hull.radii(dirs).tobytes() == whole.tobytes()


def test_gn_origin_hull_is_the_cube_cylinder_in_ten_variables():
    # one maximal boundary point (the sampled corner), so no hull is built
    # on more than one axis, however many axes are bounded
    n = 10
    inner = indicatrix_at(gn(n), (0.0,) * n).inner
    hull = convexify(inner)
    dirs = np.abs(np.array([*np.eye(n), *sphere_directions(n, 24)]))
    with np.errstate(divide="ignore"):
        cube = 1.0 / dirs[:, [0, *range(2, n)]].max(axis=1)
    assert np.array_equal(hull.radii(dirs), cube)
    assert np.all(hull.radii(dirs) >= inner.radii(dirs))


def test_convexify_fixpoint_on_ball():
    hull = convexify(unit_ball(2), resolution=128)
    assert convexify(hull) is hull
    # exact on the sampled axes, within the sampling gap elsewhere
    assert hull.radial((1.0, 0.0)) == 1.0
    assert hull.radial((0.0, 1.0)) == 1.0
    for d in DIRS_2D:
        norm = math.sqrt(abs(d[0]) ** 2 + abs(d[1]) ** 2)
        unit = (d[0] / norm, d[1] / norm)
        assert hull.radial(unit) == pytest.approx(1.0, rel=2e-4)
        assert hull.radial(unit) <= 1.0


def test_convexified_radius_dominates():
    inner = indicatrix_at(g2(), (0.0, 0.0)).inner  # unbounded along axis 2
    hull = convexify(inner, resolution=96)
    for d in DIRS_2D:
        norm = math.sqrt(abs(d[0]) ** 2 + abs(d[1]) ** 2)
        unit = (d[0] / norm, d[1] / norm)
        assert hull.radial(unit) >= inner.radial(unit)
    # hull of the two-variable model domain is a disc-cylinder: radius 1 on axis 1
    assert hull.radial((1.0, 0.0)) == 1.0
    assert hull.radial((0.0, 1.0)) == math.inf


def test_convexify_idempotence():
    inner = indicatrix_at(g2(), (0.0, 0.0)).inner
    once = convexify(inner, resolution=96)
    twice = convexify(once)
    assert twice is once  # a hull is returned as it is
    # and rebuilding from scratch is deterministic
    again = convexify(indicatrix_at(g2(), (0.0, 0.0)).inner, resolution=96)
    for d in DIRS_2D:
        norm = math.sqrt(abs(d[0]) ** 2 + abs(d[1]) ** 2)
        unit = (d[0] / norm, d[1] / norm)
        assert once.radial(unit) == again.radial(unit)


def test_cloud_is_a_read_only_float_array():
    points = np.array([[1.0, 0.0], [0.0, 4.0], [0.5, 0.5]])
    ind = cloud_indicatrix(points)
    assert isinstance(ind.cloud, np.ndarray) and ind.cloud.dtype == float
    assert ind.cloud.shape == (3, 2) and ind.dim == 2
    with pytest.raises(ValueError, match="read-only"):
        ind.cloud[0, 0] = 9.0
    points[0, 0] = 9.0  # the cloud is a copy, not a view of its input
    assert ind.cloud.tolist() == [[1.0, 0.0], [0.0, 4.0], [0.5, 0.5]]
    # integer and tuple inputs become float arrays too
    assert Indicatrix(dim=1, cloud=((1,), (2,))).cloud.dtype == float
    # compared and hashed by identity
    again = cloud_indicatrix(points)
    assert ind == ind and ind != again and len({ind, again}) == 2
    # rejected when built, not by an IndexError inside wu_metric
    with pytest.raises(ValueError, match="nonempty"):
        Indicatrix(dim=2, cloud=())
    for bad in ([()], np.zeros((0, 2)), [(1.0, 0.0), (1.0,)], [1.0, 2.0], [(1.0j, 0.0)]):
        with pytest.raises(ValueError):
            Indicatrix(dim=2, cloud=bad)
    for bad in (math.nan, -1.0, -0.5e-300, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite nonnegative"):
            cloud_indicatrix([(1.0, 0.0), (0.5, bad)])
    with pytest.raises(ValueError, match="nonempty"):
        cloud_indicatrix([])
    with pytest.raises(ValueError, match=r"shape \(1, 0\)"):
        cloud_indicatrix([()])
    with pytest.raises(ValueError, match=r"\(m, 3\)"):
        Indicatrix(dim=3, cloud=[(1.0, 1.0)])


def test_convexify_returns_a_cloud_as_is():
    cloud = cloud_indicatrix([(1.0, 0.0), (0.0, 1.0)])
    assert convexify(cloud) is cloud


def test_hull_points_are_the_read_only_sample():
    hull = convexify(unit_ball(2), resolution=64)
    pts = hull.hull_points
    assert isinstance(pts, np.ndarray) and pts.dtype == float
    assert pts.shape == (64, 2) and not pts.flags.writeable
    # the unit ball's sample lies on the unit sphere
    assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, rtol=1e-15, atol=0.0)
    # compared by the other fields only, so a hull stays hashable
    assert "hull_points" not in repr(hull)
    hash(hull)


def test_convexify_rejects_unusable_inputs():
    # declared bounded but the evaluator escapes: must refuse, not guess
    with pytest.raises(UnknownBoundednessError):
        convexify(radial_indicatrix(lambda d: math.inf, 2, (True, True)))
    # a curved hull on 8 axes would have millions of facets
    with pytest.raises(UnsupportedIndicatrixError, match="span 8 axes"):
        convexify(unit_ball(MAX_HULL_AXES + 1))


@pytest.mark.parametrize("resolution", [0, -5])
def test_convexify_and_support_reject_resolution_below_one(resolution):
    # 0 and negative counts are errors, not the default 256 * dim
    # directions or the axes and subset diagonals alone; support takes no
    # resolution at all
    ball = radial_indicatrix(lambda d: 1.0, 2, (True,) * 2)
    with pytest.raises(ValueError, match="resolution"):
        convexify(ball, resolution=resolution)
    assert "resolution" not in inspect.signature(support).parameters


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
    ball = convexify(unit_ball(2), resolution=96)
    for y in [(1.0, 0.0), (0.6, 0.8), (1j / math.sqrt(2), 0.7071067811865476)]:
        assert support(ball, y) == pytest.approx(1.0, rel=1e-6)
    halfplane = indicatrix_at(g2(), (0.0, 0.0)).inner
    assert support(halfplane, (0.0, 1.0)) == math.inf
    disc_cyl = convexify(halfplane, resolution=96)
    assert support(disc_cyl, (1.0, 0.0)) == pytest.approx(1.0, rel=1e-9)
    # polydisc with radii (1, 2)
    poly = convexify(indicatrix_at(polydisc(1.0, 2.0), (0.0, 0.0)).inner, resolution=96)
    assert support(poly, (1.0, 0.0)) == pytest.approx(1.0, rel=1e-6)
    assert support(poly, (0.0, 1.0)) == pytest.approx(2.0, rel=1e-6)


def test_support_refuses_a_raw_radial_ball():
    # no finite boundary sample gives a raw ball's support; the recession
    # answer needs only the metadata and stays
    with pytest.raises(UnsupportedIndicatrixError, match="convexify"):
        support(unit_ball(2), (1.0, 0.0))
    halfplane = indicatrix_at(g2(), (0.0, 0.0)).inner
    with pytest.raises(UnsupportedIndicatrixError, match="convexify"):
        support(halfplane, (1.0, 0.0))
    assert support(halfplane, (0.0, 1.0)) == math.inf


# The gn(4) outer ball at (x, 0, 0, 0) has the polytope
# {p0 + x p1 <= 1 - x^2, p2 <= 1, p3 <= 1} as its moduli diagram, so its
# support is (1 - x^2) max(y0, y1 / x) + y2 + y3, attained at a vertex
# where three faces meet.
SUPPORT_XS = (0.1, 0.3, 0.5, 0.8, 0.95)
SUPPORT_YS = (
    (1.0, 0.5, 0.2, 0.1),
    (0.2, 1.0, 0.5, 0.5),
    (1.0, 1.0, 1.0, 1.0),
    (0.3, 0.05, 0.0, 1.0),
    (0.0, 1.0, 0.0, 0.0),
    (1.0, 0.0, 0.7, 0.0),
)


def test_support_of_the_convexified_gn_outer_polytope_is_a_lower_bound():
    # the hull of a boundary sample lies inside the ball, so its support
    # exceeds the exact vertex value by rounding only (measured: 1.4e-16
    # relative, held to one ulp, 2.2e-16); it falls short by up to 22 %
    over = []
    for x in SUPPORT_XS:
        ball = convexify(indicatrix_at(gn(4), (x, 0.0, 0.0, 0.0)).outer)
        for y in SUPPORT_YS:
            want = (1.0 - x * x) * max(y[0], y[1] / x) + y[2] + y[3]
            got = support(ball, y)
            if not got <= want * (1.0 + 2.2e-16):
                over.append((x, y, got, want))
    assert not over


def test_boundary_points_recession_rule():
    dirs = np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]])
    # g2's ball at the origin recedes along the unbounded axis 1 only:
    # that direction is dropped, the others give rho(d) d in order
    halfplane = indicatrix_at(g2(), (0.0, 0.0)).inner
    kept = dirs[[0, 2]]
    want = halfplane.radii(kept)[:, None] * kept
    assert np.array_equal(halfplane.boundary_points(dirs), want)
    # zero radii are dropped
    point = radial_indicatrix(lambda d: 0.0, 2, (True, True))
    assert point.boundary_points(dirs).shape == (0, 2)
    # a radius beyond the cap on a bounded axis is an error, not a sample
    escaping = radial_indicatrix(batch_radial(lambda m: 1.0 / m[..., 0]), 2, (True, True))
    with pytest.raises(UnknownBoundednessError):
        escaping.boundary_points(dirs)


@pytest.mark.parametrize(
    "entry, error",
    [
        pytest.param(convexify, UnknownBoundednessError, id="convexify"),
        pytest.param(wu_metric, UnknownBoundednessError, id="wu_metric"),
        # support samples no radial ball: it refuses every raw one
        pytest.param(
            lambda ind: support(ind, (1.0, 0.0)), UnsupportedIndicatrixError, id="support"
        ),
        pytest.param(
            lambda ind: sandwich_ok(SandwichIndicatrix(inner=ind, outer=ind)),
            UnknownBoundednessError,
            id="sandwich_ok",
        ),
    ],
)
def test_escaping_evaluator_on_a_bounded_ball_is_refused(entry, error):
    # declared bounded on both axes, but every radius is infinite
    ball = radial_indicatrix(lambda d: math.inf, 2, (True, True))
    with pytest.raises(error):
        entry(ball)


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
    r = wu_metric(indicatrix_at(g2(), (0.0, 0.0)).inner)
    assert r.v_axes == frozenset({1}) and r.m == 1
    r = wu_metric(indicatrix_at(g2(), (0.3, 0.0)).outer)
    assert r.v_axes == frozenset() and r.m == 2
    # disc x plane x disc
    ind = cloud_indicatrix([(1.0, 1.0, 1.0)], bounded_axes=(True, False, True))
    r = wu_metric(ind)
    assert r.v_axes == frozenset({1}) and r.m == 2


def test_degeneracy_requires_metadata_and_symmetry():
    with pytest.raises(UnknownBoundednessError):
        wu_metric(radial_indicatrix(lambda d: 1.0, 2, (True, None)))


def test_bounded_inclusions_share_full_rank():
    # both polydiscs are bounded, so inclusion cannot change m
    small = indicatrix_at(polydisc(1.0, 2.0), (0.0, 0.0)).inner
    large = indicatrix_at(polydisc(2.0, 3.0), (0.0, 0.0)).inner
    assert sum(small.boundedness()) == sum(large.boundedness()) == 2
