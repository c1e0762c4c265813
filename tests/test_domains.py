"""Domain specs, membership, indicatrix constructors, serialization."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import kronecker_sequence
from wumetric import domains
from wumetric.busemann import degeneracy
from wumetric.domains import (
    DomainSpec,
    UnsupportedBasePointError,
    elem_reinhardt,
    g2,
    gn,
    indicatrix_at,
    membership,
    metric_indicatrix,
    polydisc,
    spec_from_config,
    spec_to_config,
    synthetic_rem_one,
    synthetic_rem_two,
    truncated_gn,
    truncation_intercepts,
)
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
    assert sandwich.sandwich_ok(tol=1e-12)
    assert degeneracy(out).m == 2


def test_indicatrix_at_origin_is_degenerate():
    sandwich = indicatrix_at(g2(), (0.0, 0.0))
    assert degeneracy(sandwich.inner).m == 1
    assert sandwich.inner.radial((1.0, 0.0)) == pytest.approx(1.0, rel=1e-12)
    assert sandwich.inner.radial((0.0, 1.0)) == math.inf
    assert sandwich.sandwich_ok()


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
        assert indicatrix_at(spec, at).sandwich_ok(tol=1e-12), spec.variant


def test_gn_indicatrix_wu_values():
    res = wu_metric(indicatrix_at(gn(3), (0.0, 0.0, 0.0)).inner)
    assert res.m == 2
    assert res.w_tilde((1.0, 0.0, 0.0)) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-10)
    assert res.w((1.0, 0.0, 0.0)) == pytest.approx(1.0, rel=1e-10)


def test_truncated_indicatrix_certificate_points():
    # boundary certificates (1,0,1) and (0,m,1) of the alpha-ball at 0
    sandwich = indicatrix_at(truncated_gn(3, 4.0), (0.0, 0.0, 0.0))
    cloud = sandwich.inner.cloud
    assert (1.0, 0.0, 1.0) in cloud
    assert (0.0, 4.0, 1.0) in cloud


def test_synthetic_pairs():
    small, large = synthetic_rem_one()
    assert degeneracy(small).m == degeneracy(large).m == 2
    degenerate, bounded = synthetic_rem_two(3)
    assert degeneracy(degenerate).m == 2
    assert degeneracy(bounded).m == 3
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
    assert degeneracy(ind).m == 1


def test_metric_indicatrix_vanishing_metric_gives_full_space():
    # irrational positive type: gamma vanishes identically
    spec = elem_reinhardt((1.0, math.sqrt(2.0)), declared_type="irrational")
    ind, u = metric_indicatrix("gamma", spec, (0.5, 0.25))
    assert u is None
    assert ind.bounded_axes == (False, False)
    assert degeneracy(ind).m == 0


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
        cfg = spec_to_config(spec)
        assert all(isinstance(k, str) and isinstance(v, str) for k, v in cfg.items())
        back = spec_from_config(cfg)
        assert back == spec, spec.variant
    assert {spec.variant for spec in specs} == set(domains._FAMILIES)


def test_config_rejects_garbage():
    with pytest.raises((ValueError, KeyError)):
        spec_from_config({"domain": "dodecahedron"})
    with pytest.raises((ValueError, KeyError)):
        spec_from_config({"domain": "polydisc"})  # radii missing
