"""Domain specs, membership, indicatrix constructors, serialization."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    gn_ball_radius,
    kronecker_sequence,
    polydisc_radius,
    sandwich_ok,
    sphere_directions,
)
from wumetric import domains
from wumetric.busemann import (
    absolute_directions,
    batch_radial,
    convexify,
    radial_indicatrix,
)
from wumetric.domains import (
    DomainSpec,
    UnsupportedBasePointError,
    elem_reinhardt,
    g2,
    gn,
    indicatrix_at,
    membership,
    metric_indicatrix,
    DOMAIN_SETTINGS,
    polydisc,
    spec_from_settings,
    synthetic_rem_one,
    synthetic_rem_two,
    truncated_gn,
    truncation_intercepts,
)
from wumetric.experiments import GOLDEN_CASES
from wumetric.metrics import MultiIndex, elem_reinhardt_metric_info
from wumetric import wu as wu_module
from wumetric.wu import wu_metric


def test_spec_validation():
    with pytest.raises(ValueError):
        polydisc(1.0, -2.0)
    with pytest.raises(ValueError):
        gn(2)
    with pytest.raises(ValueError):
        truncated_gn(3, 0.0)
    with pytest.raises(ValueError):
        elem_reinhardt((1.0, 0.0))
    with pytest.raises(ValueError, match="unknown domain 'nope'"):
        DomainSpec(variant="nope")


def test_membership_examples():
    assert membership(g2(), (0.5, 0.9))
    assert not membership(g2(), (0.5, 1.1))
    assert membership(truncated_gn(3, 2.0), (0.0, 0.0, 0.0))
    assert membership(polydisc(1.0, 2.0), (0.5, 1.5))
    assert not membership(polydisc(1.0, 2.0), (1.0, 0.0))
    assert membership(gn(3), (0.5, 0.9, 0.3))
    assert not membership(gn(3), (0.5, 0.9, 1.0))
    assert membership(elem_reinhardt((1.0, 1.0)), (0.5, 0.5))


def test_truncation_is_strict_on_the_simplex_boundary():
    # T_m for n=3 has intercepts (1.5, 1.5 m, 3)
    m = 2.0
    assert truncation_intercepts(3, m) == (1.5, 3.0, 3.0)
    # the simplex cut genuinely removes points of the cylinder
    z_cut = (0.2, 1.8, 0.9)  # Psi sum = 0.04/1.5 + 3.24/3 + 0.81/3 > 1
    assert membership(gn(3), z_cut)
    assert not membership(truncated_gn(3, m), z_cut)
    # membership uses the open simplex: the boundary itself is out
    u2 = 3.0 * (1.0 - 0.04 / 1.5)
    z_bd = (0.2, math.sqrt(u2), 0.0)
    assert membership(gn(3), z_bd)
    assert not membership(truncated_gn(3, m), z_bd)
    z_just_in = (0.2, math.sqrt(u2) * (1.0 - 1e-9), 0.0)
    assert membership(truncated_gn(3, m), z_just_in)
    # interior points of both constraints pass
    assert membership(truncated_gn(3, m), (0.5, 0.3, 0.2))


@given(
    st.floats(min_value=0.0, max_value=2.0 * math.pi),
    st.floats(min_value=0.0, max_value=2.0 * math.pi),
    st.sampled_from([(0.5, 0.9), (0.5, 1.1), (0.1, 3.0), (0.9, 0.05), (0.0, 7.0)]),
)
def test_g2_membership_is_rotation_invariant(t1, t2, z):
    rotated = (z[0] * cmath.exp(1j * t1), z[1] * cmath.exp(1j * t2))
    assert membership(g2(), rotated) == membership(g2(), z)


def test_analytic_discs_land_in_the_domain():
    """The two extremal discs behind the kappa certificate points."""
    lams = [r * cmath.exp(2j * math.pi * s) for r, s in kronecker_sequence(2, 40)]
    for x in (0.1, 0.5, 0.9):
        for lam in lams:
            # disc 1: lambda -> (x, (1-x)/x lambda), tangent (0, (1-x)/x)
            assert membership(g2(), (x, (1.0 - x) / x * lam))
            # disc 2: Moebius factor, tangent (1-x^2, 0)
            assert membership(g2(), ((lam + x) / (1.0 + x * lam), 0.0))


def test_truncation_exhausts_the_cylinder():
    # points of G_n with |z| < sqrt(m/2) already satisfy the simplex cut
    for m in (1.0, 4.0):
        radius = math.sqrt(m / 2.0)
        for row in kronecker_sequence(6, 60):
            z = tuple(
                radius * row[2 * j] * cmath.exp(2j * math.pi * row[2 * j + 1]) / math.sqrt(3.0)
                for j in range(3)
            )
            if membership(gn(3), z):
                assert membership(truncated_gn(3, m), z), (m, z)


def test_indicatrix_at_g2_positive_base_point():
    sandwich = indicatrix_at(g2(), (0.1, 0.0))
    out = sandwich.outer
    # outer ball is {(|X1| + 0.1 |X2|) / 0.99 < 1}
    assert out.radial((1.0, 0.0)) == pytest.approx(0.99, rel=1e-12)
    assert out.radial((0.0, 1.0)) == pytest.approx(9.9, rel=1e-12)
    # kappa-side certificate points sit inside the closed outer ball
    assert sandwich_ok(sandwich, tol=1e-12)
    assert sum(out.boundedness()) == 2


def test_indicatrix_at_origin_is_degenerate():
    sandwich = indicatrix_at(g2(), (0.0, 0.0))
    assert sum(sandwich.inner.boundedness()) == 1
    assert sandwich.inner.radial((1.0, 0.0)) == pytest.approx(1.0, rel=1e-12)
    assert sandwich.inner.radial((0.0, 1.0)) == math.inf
    assert sandwich_ok(sandwich)


def test_indicatrix_supported_points_only():
    with pytest.raises(UnsupportedBasePointError, match="supported base points"):
        indicatrix_at(g2(), (0.1, 0.2))
    with pytest.raises(UnsupportedBasePointError):
        indicatrix_at(gn(3), (1.5, 0.0, 0.0))


def test_sandwich_everywhere_it_is_built():
    cases = [
        (polydisc(1.0, 2.0), (0.0, 0.0)),
        (g2(), (0.3, 0.0)),
        (gn(3), (0.0, 0.0, 0.0)),
        (gn(3), (0.2, 0.0, 0.0)),
        (truncated_gn(3, 4.0), (0.0, 0.0, 0.0)),
    ]
    for spec, at in cases:
        assert sandwich_ok(indicatrix_at(spec, at), tol=1e-12), spec.variant


def test_gn_indicatrix_wu_values():
    res = wu_metric(indicatrix_at(gn(3), (0.0, 0.0, 0.0)).inner)
    assert res.m == 2
    assert res.w_tilde((1.0, 0.0, 0.0)) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-10)
    assert res.w((1.0, 0.0, 0.0)) == pytest.approx(1.0, rel=1e-10)
    # the axis-point outer ball divides by zero off the first two axes
    outer = wu_metric(indicatrix_at(gn(3), (0.3, 0.0, 0.0)).outer)
    assert outer.m == 3 and outer.gap <= 1e-10


def _product_balls():
    """Each product ball of a sandwich with its unfactored closed form."""
    balls = []
    for n in range(3, 9):
        origin = indicatrix_at(gn(n), (0.0,) * n)
        balls.append((origin.inner, gn_ball_radius("inner")))
        balls.append((origin.outer, gn_ball_radius("outer")))
        axis = indicatrix_at(gn(n), (0.3,) + (0.0,) * (n - 1))
        balls.append((axis.outer, gn_ball_radius("axis", 0.3)))
    for r in ((1.0, 2.0), (1.5, 0.7, 0.9), (0.3, 1.0, 2.0, 0.5, 4.0)):
        balls.append((indicatrix_at(polydisc(*r), (0.0,) * len(r)).outer, polydisc_radius(r)))
    return balls


def test_product_radii_are_the_unfactored_closed_forms_bitwise():
    # over the tables wu_metric, convexify and support sample, subset
    # diagonals and zero coordinates included
    for ball, radius in _product_balls():
        assert ball.factors is not None
        dirs = absolute_directions(ball.dim, 256 * ball.dim)
        assert ball.radii(dirs).tobytes() == radius(dirs).tobytes(), ball.dim
        whole = radial_indicatrix(batch_radial(radius), ball.dim, ball.bounded_axes)
        for row in dirs[::97]:
            assert ball.eta(row) == whole.eta(row)


def test_gn_products_are_a_two_axis_ball_times_discs():
    for at in ((0.0,) * 6, (0.3,) + (0.0,) * 5):
        sandwich = indicatrix_at(gn(6), at)
        for ball in (sandwich.inner, sandwich.outer):
            if ball.factors is None:
                continue
            assert [f.dim for f in ball.factors] == [2, 1, 1, 1, 1]
            assert ball.boundedness() == sum((f.boundedness() for f in ball.factors), ())
    # g2 has one factor, which is the ball itself
    assert indicatrix_at(g2(), (0.0, 0.0)).inner.factors is None
    assert indicatrix_at(polydisc(2.0), (0.0,)).outer.factors is None


def test_truncated_indicatrix_certificate_points():
    # boundary certificates (1,0,1) and (0,m,1) of the alpha-ball at 0
    sandwich = indicatrix_at(truncated_gn(3, 4.0), (0.0, 0.0, 0.0))
    cloud = sandwich.inner.cloud
    # exact row matches: ``row in array`` would accept any single equal entry
    assert sorted(cloud.tolist()) == [[0.0, 4.0, 1.0], [1.0, 0.0, 1.0]]


def test_synthetic_pairs():
    small, large = synthetic_rem_one()
    assert sum(small.boundedness()) == sum(large.boundedness()) == 2
    degenerate, bounded = synthetic_rem_two(3)
    assert sum(degenerate.boundedness()) == 2
    assert sum(bounded.boundedness()) == 3
    w_deg = wu_metric(degenerate).w_tilde((0.0, 0.0, 1.0))
    w_bnd = wu_metric(bounded).w_tilde((0.0, 0.0, 1.0))
    assert w_deg == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)
    assert w_bnd == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-12)
    assert w_deg > w_bnd


def test_metric_indicatrix_alignment_is_unitary():
    spec = elem_reinhardt((1.0, 2.0))
    ind, u = metric_indicatrix("gamma", spec, (0.5, 1.0 / 3.0))
    assert u is not None
    assert np.allclose(u @ u.conj().T, np.eye(2), atol=1e-12)
    # rank-one seminorm: degenerate except along the aligned first axis
    assert ind.bounded_axes == (True, False)


def test_metric_indicatrix_moduli_branch_has_no_alignment():
    spec = elem_reinhardt((1.0, 2.0))
    ind, u = metric_indicatrix("kappa", spec, (0.5, 0.0))
    assert u is None
    # kappa = (|a1| |X2|^2)^(1/2) vanishes whenever X2 = 0: axis 1 is free
    assert ind.bounded_axes == (False, True)
    assert ind.radial((1.0, 0.0)) == math.inf
    want = 1.0 / math.sqrt(0.5)  # rho(e2) = 1 / kappa(a; e2)
    assert ind.radial((0.0, 1.0)) == pytest.approx(want, rel=1e-12)
    assert sum(ind.boundedness()) == 1


def test_metric_indicatrix_vanishing_metric_gives_full_space():
    # irrational positive type: gamma vanishes identically
    spec = elem_reinhardt((1.0, math.sqrt(2.0)), declared_type="irrational")
    ind, u = metric_indicatrix("gamma", spec, (0.5, 0.25))
    assert u is None
    assert ind.bounded_axes == (False, False)
    assert sum(ind.boundedness()) == 0


def test_config_round_trip():
    specs = [
        polydisc(1.0, 2.0, 0.5),
        g2(),
        gn(4),
        truncated_gn(3, 16.0),
        elem_reinhardt((1.0, math.sqrt(2.0)), big_c=0.5, declared_type="irrational"),
        elem_reinhardt((-1.0, -2.0)),
    ]
    for spec in specs:
        # each field as its setting parses it; the other fields' settings too,
        # which the family must not read
        fields = {"alpha": spec.alpha, "big_c": spec.big_c, "type": spec.declared_type,
                  "r": spec.radii, "n": spec.n, "m": spec.m}
        values = {key: v for key, v in fields.items() if v is not None}
        assert spec_from_settings(spec.variant, values) == spec, spec.variant
        own = {key: values[key] for key in DOMAIN_SETTINGS[spec.variant] if key in values}
        assert spec_from_settings(spec.variant, own) == spec, spec.variant
    assert {spec.variant for spec in specs} == set(domains._FAMILIES) == set(DOMAIN_SETTINGS)


def test_config_rejects_garbage():
    with pytest.raises(ValueError, match="unknown domain 'dodecahedron'"):
        spec_from_settings("dodecahedron", {})
    with pytest.raises(KeyError, match="'r'"):
        spec_from_settings("polydisc", {"n": 3})  # radii missing


def test_metric_indicatrix_honours_declared_type():
    # (1, 2) is detected rational; declared irrational, gamma^(k) vanishes
    # at (0.5, 0), while the detected type gives 1 / rho(0.6, 0.8) = 0.5657
    a = (0.5, 0.0)
    declared = elem_reinhardt((1.0, 2.0), 0.0, "irrational")
    mi = MultiIndex(declared.alpha, declared.declared_type)
    for kind, k in (("gamma", None), ("gamma_k", 2), ("azukawa", None), ("kappa", None)):
        ind, _ = metric_indicatrix(kind, declared, a, k)
        for X in [(0.6, 0.8), (1.0, 0.0), (0.0, 1.0), (0.28, -0.96j)]:
            want = elem_reinhardt_metric_info(kind, mi, 0.0, a, X, k)[0]
            assert ind.eta(X) == pytest.approx(want, rel=1e-12, abs=1e-15), (kind, X)
    detected, _ = metric_indicatrix("gamma_k", elem_reinhardt((1.0, 2.0)), a, 2)
    assert detected.eta((0.6, 0.8)) == pytest.approx(0.5657, rel=1e-4)
    ind, _ = metric_indicatrix("gamma_k", declared, a, 2)
    assert ind.eta((0.6, 0.8)) == 0.0


# zero-coordinate base points: (alpha, declared type, base point), with
# negative exponents on nonzero coordinates and one or two zero coordinates
ZERO_COORDINATE_CASES = [
    ((1.0, 2.0), None, (0.5, 0.0)),
    ((1.0, 2.0, -1.0), None, (0.0, 0.5, 0.7)),
    ((2.0, 1.0, -1.0), None, (0.0, 0.0, 0.6)),
    ((1.0, -2.0, 3.0), None, (0.0, 0.4j, 0.0)),
    ((1.0, 1.0, 2.0), None, (0.3, 0.0, 0.0)),
    ((1.0, math.sqrt(2.0), -0.5), "irrational", (0.0, 0.4, 0.8)),
    ((math.sqrt(2.0), 1.0, 1.0), "irrational", (0.0, 0.0, -0.3)),
    ((1.0, 2.0), "irrational", (0.0, 0.6)),
]
METRIC_KINDS = [
    ("gamma", None),
    ("gamma_k", 1),
    ("gamma_k", 2),
    ("gamma_k", 3),
    ("azukawa", None),
    ("kappa", None),
]


def _zero_coordinate_inputs():
    for alpha, declared, a in ZERO_COORDINATE_CASES:
        for big_c in (0.0, 0.7):
            spec = elem_reinhardt(alpha, big_c, declared)
            mi = MultiIndex(spec.alpha, declared)
            for kind, k in METRIC_KINDS:
                if kind == "gamma_k" and k > 1 and mi.l > 0:
                    continue  # no closed form with negative exponents
                yield spec, mi, a, kind, k


def test_zero_coordinate_radii_are_the_product_closed_form():
    """rho(X) = 1 / eta(X) on unit X, eta evaluated directly per direction."""
    vanishing = positive = 0
    for spec, mi, a, kind, k in _zero_coordinate_inputs():
        n = spec.dim
        ind, u = metric_indicatrix(kind, spec, a, k)
        assert u is None

        def metric(X):
            return elem_reinhardt_metric_info(kind, mi, spec.big_c, a, X, k)[0]

        axes = [tuple(1.0 if i == j else 0.0 for i in range(n)) for j in range(n)]
        assert ind.bounded_axes == tuple(metric(e) > 0.0 for e in axes), (spec, kind, k)
        dirs = axes + sphere_directions(n, 40)
        got = ind.radii(np.array(dirs))
        want = np.array([metric(X) for X in dirs])
        indicator = tuple(0.0 if c else 1.0 for c in a)
        if metric(indicator) == 0.0:
            vanishing += 1
            assert np.all(want == 0.0) and np.all(got == math.inf), (spec, kind, k)
            continue
        positive += 1
        assert np.array_equal(got == math.inf, want == 0.0), (spec, kind, k)
        nz = want > 0.0
        err = np.abs(got[nz] * want[nz] - 1.0)
        assert err.max() <= 1e-13, (spec, kind, k, err.max())
    # both sides of K = 0 are exercised
    assert vanishing >= 10 and positive >= 20


def test_zero_coordinate_indicatrix_makes_constant_metric_calls(monkeypatch):
    """One closed form per indicatrix: the metric is not called per direction."""
    calls = 0
    evaluate = domains.elem_reinhardt_metric_info

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(domains, "elem_reinhardt_metric_info", counted)
    spec = elem_reinhardt((1.0, 2.0, -1.0), 0.7)
    counts = []
    for count in (16, 512):
        calls = 0
        ind, _ = metric_indicatrix("kappa", spec, (0.0, 0.5, 0.7))
        dirs = absolute_directions(3, count)
        assert len(dirs) == count
        assert np.isfinite(ind.radii(dirs)).any()
        counts.append(calls)
    assert counts[0] == counts[1] <= 2, counts


def _evaluator_families():
    """One radial indicatrix per evaluator family, by name."""
    g2_origin = indicatrix_at(g2(), (0.0, 0.0))
    gn_origin = indicatrix_at(gn(4), (0.0,) * 4)
    aligned, u = metric_indicatrix("kappa", elem_reinhardt((1.0, 2.0)), (0.5, 1.0 / 3.0))
    assert u is not None
    moduli, u = metric_indicatrix("kappa", elem_reinhardt((1.0, 2.0, 1.0)), (0.5, 0.0, 0.3))
    assert u is None
    full, _ = metric_indicatrix(
        "gamma", elem_reinhardt((1.0, math.sqrt(2.0)), declared_type="irrational"), (0.5, 0.25)
    )
    ellipsoid = radial_indicatrix(
        batch_radial(lambda m: 1.0 / np.sqrt((m**2 * (1.0, 3.0, 0.5)).sum(axis=-1))),
        3,
        (True, True, True),
    )
    return {
        "polydisc cylinder": indicatrix_at(polydisc(1.0, 2.0, 0.5), (0.0,) * 3).outer,
        "g2": g2_origin.inner,
        "disc x plane": g2_origin.outer,
        "gn": gn_origin.inner,
        "gn cylinder": gn_origin.outer,
        "g2 axis point": indicatrix_at(g2(), (0.3, 0.0)).outer,
        "gn axis point": indicatrix_at(gn(4), (0.3, 0.0, 0.0, 0.0)).outer,
        "truncated ellipsoid": indicatrix_at(truncated_gn(3, 4.0), (0.0,) * 3).outer,
        "aligned rank one": aligned,
        "zero-coordinate product": moduli,
        "full space": full,
        "hull": convexify(g2_origin.inner, resolution=32),
        "hull of an ellipsoid": convexify(ellipsoid, resolution=64),
    }


def _batch(n):
    """Complex, negative and zero-modulus rows, the all-zero row included."""
    rows = [tuple(1.0 if i == j else 0.0 for i in range(n)) for j in range(n)]
    rows += [(0.0,) * n, (-0.6, 0.8j) + (0.0,) * (n - 2), (0.0, -1.0) + (0.5j,) * (n - 2)]
    rows += sphere_directions(n, 6)
    return np.array(rows, dtype=complex)


@pytest.mark.parametrize("name", sorted(_evaluator_families()))
def test_batch_and_row_radii_agree(name):
    ind = _evaluator_families()[name]
    batch = _batch(ind.dim)
    radii = ind.radial(batch)
    assert radii.shape == (len(batch),)
    for i, row in enumerate(batch):
        assert radii[i] == ind.radial(row), (name, row)
        assert radii[i] == ind.radial(tuple(row)), (name, row)
    # only the moduli matter, and leading batch axes are kept
    assert np.array_equal(ind.radial(np.abs(batch)), radii)
    assert np.array_equal(ind.radial(batch.reshape(1, len(batch), ind.dim)), radii[None])
    assert ind.radial(np.zeros(ind.dim)) == math.inf


def _cli_balls():
    """(label, ball) for every ball that ``run`` and ``eval --kind wu``
    solve: each family's inner ball at its supported base points, and the
    metric ball of each golden case with the inner ball at its base point."""
    balls = []
    for spec, points in (
        (polydisc(1.0), [(0.0,)]),
        (polydisc(1.5, 0.7, 0.9), [(0.0,) * 3]),
        (g2(), [(0.0, 0.0), (0.3, 0.0), (-0.9j, 0.0)]),
        *((gn(n), [(0.0,) * n, (0.5j,) + (0.0,) * (n - 1)]) for n in (3, 4, 8)),
        (truncated_gn(3, 4.0), [(0.0,) * 3]),
        (truncated_gn(5, 64.0), [(0.0,) * 5]),
        (elem_reinhardt((1.0, 2.0, 3.0)), [(0.3, 0.2, 0.1), (0.3, 0.0, 0.1), (0.0, 0.0, 0.5)]),
    ):
        balls += [(f"{spec.variant} at {at}", indicatrix_at(spec, at).inner) for at in points]
    for case in GOLDEN_CASES:
        spec = elem_reinhardt(case.alpha, case.big_c, case.declared)
        balls.append((case.case, metric_indicatrix(case.kind, spec, case.a, case.k)[0]))
        balls.append((f"{case.case} inner", indicatrix_at(spec, case.a).inner))
    return balls


def test_cli_balls_sample_the_same_at_every_resolution(monkeypatch):
    # a radial factor with one bounded axis is sampled along that axis
    # alone whatever the direction count, and a cloud is its own sample:
    # so no ball the CLI solves depends on the count, and neither
    # subcommand nor wu_metric has a setting for it
    balls = _cli_balls()
    assert len(balls) == 16 + 2 * len(GOLDEN_CASES)
    first = {}
    for label, ball in balls:
        for factor in ball.factors or (ball,):
            assert factor.cloud is not None or sum(factor.boundedness()) <= 1, label
        first[label] = wu_metric(ball)
    for resolution in (1, 8, 70_000):
        monkeypatch.setattr(
            wu_module, "absolute_directions", lambda k, count: absolute_directions(k, resolution)
        )
        for label, ball in balls:
            res = wu_metric(ball)
            assert res.w_tilde.axes == first[label].w_tilde.axes, (label, resolution)
            assert res.certificate_points == first[label].certificate_points, (label, resolution)
