"""Closed-form metric evaluators against independently derived oracles.

The punctured-disc Kobayashi metric is cross-checked through an explicit
universal covering map (helpers.covering_kappa_punctured), the Taylor-term
functional against sympy series expansion, and each elementary-Reinhardt
branch against hand arithmetic written straight from the displayed formulas.
"""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from helpers import covering_kappa_punctured, kronecker_sequence
from wumetric import metrics
from wumetric.domains import UnsupportedBasePointError, g2, indicatrix_at
from wumetric.metrics import (
    MultiIndex,
    OutsideDomainError,
    UnsupportedCaseError,
    elem_reinhardt_metric_info,
    gamma_disc,
    kappa_punctured_disc,
    membership_elem_reinhardt,
    phi_r,
)

SQ2 = math.sqrt(2.0)


def ev(kind, alpha, C, a, X, k=None, declared=None):
    mi = MultiIndex(tuple(alpha), declared_type=declared)
    return elem_reinhardt_metric_info(kind, mi, C, a, X, k)[0]


# ---------------------------------------------------------------------------
# disc and punctured disc


def test_gamma_disc_values():
    assert gamma_disc(0.0, 1.0) == 1.0
    assert gamma_disc(0.5, 1.0) == pytest.approx(4.0 / 3.0, rel=1e-15)
    assert gamma_disc(0.3j, 0.0) == 0.0
    with pytest.raises(OutsideDomainError):
        gamma_disc(1.0, 1.0)


def test_kappa_punctured_explicit_point():
    # p(0) = 1/e, |p'(0)| = 2/e for the covering p(lam) = exp((lam+1)/(lam-1))
    assert kappa_punctured_disc(math.exp(-1.0), 1.0) == pytest.approx(
        math.e / 2.0, rel=1e-15
    )


def test_kappa_punctured_covering_oracle():
    for z in [0.05, 0.1, math.exp(-1.0), 0.5, 0.9, 0.99, 0.3 * cmath.exp(2.1j)]:
        for X in [1.0, 2.5, 0.7 - 0.4j]:
            got = kappa_punctured_disc(z, X)
            want = covering_kappa_punctured(z, X)
            assert got == pytest.approx(want, rel=1e-12), (z, X)


def test_kappa_punctured_edges():
    assert kappa_punctured_disc(0.5, 0.0) == 0.0
    with pytest.raises(OutsideDomainError):
        kappa_punctured_disc(0.0, 1.0)
    with pytest.raises(OutsideDomainError):
        kappa_punctured_disc(1.0, 1.0)
    # blows up toward the outer boundary
    vals = [kappa_punctured_disc(r, 1.0) for r in (0.9, 0.99, 0.999)]
    assert vals[0] < vals[1] < vals[2]


def test_metric_values_are_plain_floats():
    mi = MultiIndex((1.0, 2.0))
    values = [
        gamma_disc(0.5, 1.0),
        kappa_punctured_disc(0.5, 1.0),
        elem_reinhardt_metric_info("kappa", mi, 0.0, (0.5, 0.5), (1.0, 0.0))[0],
        elem_reinhardt_metric_info("gamma", mi, 0.0, (0.0, 0.5), (1.0, 1.0))[0],
    ]
    assert [type(v) for v in values] == [float] * len(values)


# ---------------------------------------------------------------------------
# Taylor-term functional


def _sympy_phi(alpha, a, X, r):
    lam = sympy.Symbol("lam")
    expr = sympy.prod(
        [(aj + lam * xj) ** int(kj) for kj, aj, xj in zip(alpha, a, X)]
    )
    ser = sympy.series(expr, lam, 0, r + 1).removeO()
    return complex(sympy.expand(ser).coeff(lam, r))


def test_phi_r_spec_examples():
    # gradient of z1 z2 at (1/2, 0) pairs to X2 / 2
    assert phi_r((1, 1), (0.5, 0.0), (3.0, 7.0), 1) == pytest.approx(3.5)
    # pure monomial at the origin
    assert phi_r((2,), (0.0,), (5.0,), 2) == pytest.approx(25.0)
    assert phi_r((1, 1), (0.5, 1 / 3), (1.0, 1.0), 1) == pytest.approx(5.0 / 6.0)


def test_phi_r_against_sympy_series():
    S = sympy.S
    I = sympy.I
    cases = [
        ((1, 1), (S(1) / 2, S(0)), (S(3), S(7)), 1),
        ((2,), (S(0),), (S(5),), 2),
        ((2, 3), (S(3) / 5, S(1) / 2), (S(1) + I, S(2) - I), 2),
        ((1, 2, 1), (S(1) / 2, S(1) / 3, S(1) / 4), (S(1), -S(2), S(1) / 2), 3),
        ((-1, 2), (S(2), S(1) / 2), (S(1), I), 2),
        ((-2, -1), (S(3) / 2, -S(2)), (S(1) / 3, S(1)), 3),
    ]
    for alpha, a, X, r in cases:
        want = _sympy_phi(alpha, a, X, r)
        got = phi_r(alpha, [complex(v) for v in a], [complex(v) for v in X], r)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (alpha, r)


def test_phi_r_errors():
    with pytest.raises(UnsupportedCaseError):
        phi_r((1.5, 1.0), (0.5, 0.5), (1.0, 1.0), 1)
    with pytest.raises(OutsideDomainError):
        phi_r((-1, 1), (0.0, 0.5), (1.0, 1.0), 1)


# ---------------------------------------------------------------------------
# elementary Reinhardt branches, hand arithmetic oracles
#
# Notation in the expected values: u = |a^alpha| e^{-C} (the normalized
# monomial modulus), sigma = sum_j alpha_j X_j / a_j, t_l = least positive
# exponent after primitive normalization.


def test_rational_full_support_gamma():
    # alpha (1,2), a (1/2, 1/3): u = 1/18, sigma = 2/0.5 - 2*3 = -2
    assert ev("gamma", (1, 2), 0.0, (0.5, 1 / 3), (2.0, -1.0)) == pytest.approx(
        36.0 / 323.0, rel=1e-13
    )


def test_rational_full_support_kappa_root():
    # alpha (2,3) has t_l = 2: the disc metric is applied at u^(1/2)
    u = 0.6**2 * 0.5**3
    sigma = 2.0 / 0.6 + 3.0 / 0.5
    want = math.sqrt(u) * (sigma / 2.0) / (1.0 - u)
    assert ev("kappa", (2, 3), 0.0, (0.6, 0.5), (1.0, 1.0)) == pytest.approx(
        want, rel=1e-13
    )


def test_kappa_equals_gamma_when_t_l_is_one():
    a, X = (0.5, 0.6), (1.0, 1.0 + 0.5j)
    assert ev("kappa", (1, 2), 0.0, a, X) == pytest.approx(
        ev("gamma", (1, 2), 0.0, a, X), rel=1e-13
    )


def test_azukawa_with_log_radius():
    # D = {|z1 z2| < 2}: normalization divides the monomial data by e^C
    got = ev("azukawa", (1, 1), math.log(2.0), (1.0, 0.5), (1.0, 2.0))
    assert got == pytest.approx(4.0 / 3.0, rel=1e-13)


def test_disc_of_radius_two_scaling():
    # one variable, C = log 2: kappa_{2 disc}(1; 1) = 2 / (4 - 1)
    assert ev("kappa", (1,), math.log(2.0), (1.0,), (1.0,)) == pytest.approx(
        2.0 / 3.0, rel=1e-14
    )
    assert ev("gamma", (1,), math.log(2.0), (1.0,), (1.0,)) == pytest.approx(
        2.0 / 3.0, rel=1e-14
    )


def test_moduli_branch_kappa():
    # s = 1 < n, r = alpha_2 = 2: (|a1| |X2|^2)^(1/2)
    assert ev("kappa", (1, 2), 0.0, (0.5, 0.0), (3.0, 7.0)) == pytest.approx(
        math.sqrt(0.5 * 49.0), rel=1e-14
    )


def test_moduli_branch_azukawa_n3():
    # r = alpha_2 + alpha_3 = 2
    got = ev("azukawa", (1, 1, 1), 0.0, (0.5, 0.0, 0.0), (1.0, 2.0, 3.0))
    assert got == pytest.approx(math.sqrt(0.5 * 2.0 * 3.0), rel=1e-14)


def test_gamma_k_divisibility():
    args = ((1, 2), 0.0, (0.5, 0.0), (3.0, 7.0))
    want = math.sqrt(24.5)
    assert ev("gamma_k", *args, k=1) == 0.0
    assert ev("gamma_k", *args, k=2) == pytest.approx(want, rel=1e-14)
    assert ev("gamma_k", *args, k=3) == 0.0
    assert ev("gamma_k", *args, k=4) == pytest.approx(want, rel=1e-14)


def test_irrational_positive_type_gamma_vanishes():
    a, X = (0.5, 0.25), (1.0, -1.0)
    assert ev("gamma", (1.0, SQ2), 0.0, a, X) == 0.0
    assert ev("gamma_k", (1.0, SQ2), 0.0, a, X, k=3) == 0.0
    # kappa does not vanish there
    assert ev("kappa", (1.0, SQ2), 0.0, a, X) > 0.0


def test_declared_type_overrides_detection():
    a, X = (0.5, 0.5), (1.0, 1.0)
    assert ev("gamma", (1, 2), 0.0, a, X) > 0.0
    assert ev("gamma", (1, 2), 0.0, a, X, declared="irrational") == 0.0


def test_irrational_full_support_kappa():
    u = 0.5 * 0.25**SQ2
    sigma = 1.0 / 0.5 - SQ2 / 0.25
    want = u * abs(sigma) / (1.0 - u * u)
    assert ev("kappa", (1.0, SQ2), 0.0, (0.5, 0.25), (1.0, -1.0)) == pytest.approx(
        want, rel=1e-13
    )


def test_irrational_moduli_branch_azukawa():
    # alpha (2, sqrt2), a (0.7, 0): r = sqrt2
    want = (0.7**2 * 5.0**SQ2) ** (1.0 / SQ2)
    assert ev("azukawa", (2.0, SQ2), 0.0, (0.7, 0.0), (2.0, 5.0)) == pytest.approx(
        want, rel=1e-13
    )


def test_all_negative_rational_gamma():
    # alpha (-1,-2), a (2, 3/2): u = 2/9, sigma = -1/2 - 4/3
    got = ev("gamma", (-1, -2), 0.0, (2.0, 1.5), (1.0, 1.0))
    assert got == pytest.approx(3.0 / 7.0, rel=1e-13)


def test_all_negative_rational_kappa_is_punctured_disc():
    got = ev("kappa", (-1, -2), 0.0, (2.0, 1.5), (1.0, 1.0))
    assert got == pytest.approx(11.0 / (12.0 * math.log(4.5)), rel=1e-13)


def test_all_negative_irrational_kappa():
    got = ev("kappa", (-1.0, -SQ2), 0.0, (2.0, 2.0), (1.0, 1.0))
    assert got == pytest.approx(1.0 / (4.0 * math.log(2.0)), rel=1e-13)


def test_all_negative_complex_point_with_log_radius():
    # sigma = sqrt2/4 + 7/11; u = 1.2^(-sqrt2) 1.1^(-1) e^(-1/2)
    sigma = SQ2 * 0.25 + 0.7 / 1.1
    log_inv_u = SQ2 * math.log(1.2) + math.log(1.1) + 0.5
    want = sigma / (2.0 * log_inv_u)
    got = ev(
        "kappa", (-SQ2, -1.0), 0.5, (-1.2, 1.1j), (0.3, -0.7j), declared="irrational"
    )
    assert got == pytest.approx(want, rel=1e-13)


def test_primitive_normalization_is_scale_invariant():
    a, X = (0.5, 0.6), (1.0, 2.0)
    assert ev("kappa", (2, 4), 0.0, a, X) == pytest.approx(
        ev("kappa", (1, 2), 0.0, a, X), rel=1e-14
    )
    assert ev("gamma", (3, 3), 0.0, a, X) == pytest.approx(
        ev("gamma", (1, 1), 0.0, a, X), rel=1e-14
    )


@pytest.mark.parametrize(
    "alpha, rational, primitive",
    [
        ((2.0, 4.0), True, (1, 2)),
        ((-1.5, 3.0), True, (-1, 2)),
        ((1.0, SQ2), False, None),
    ],
)
def test_equal_alphas_share_one_rational_analysis(alpha, rational, primitive):
    analysis = metrics._primitive_vector
    first, second = MultiIndex(alpha), MultiIndex(tuple(alpha))
    assert first is not second
    assert first.is_rational is second.is_rational is rational
    before = analysis.cache_info()
    assert MultiIndex(alpha).is_rational is rational
    after = analysis.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)
    if primitive is None:
        for mi in (first, second):
            with pytest.raises(UnsupportedCaseError):
                mi.primitive()
    else:
        assert first.primitive() == primitive
        assert first.primitive() is second.primitive()
    # a declared type overrides is_rational, not the primitive vector
    declared = MultiIndex(alpha, declared_type="irrational")
    assert not declared.is_rational
    if primitive is not None:
        assert declared.primitive() == primitive


def test_worked_examples():
    assert ev("gamma", (1, 1), 0.0, (0.5, 0.5), (1.0, 0.0)) == pytest.approx(
        8.0 / 15.0, rel=1e-15
    )
    assert ev("kappa", (1, 1), 0.0, (0.5, 0.0), (0.0, 1.0)) == pytest.approx(0.5)
    assert ev("azukawa", (1, 1), 0.0, (0.5, 0.0), (0.0, 1.0)) == pytest.approx(0.5)


def test_outside_domain_and_bad_points():
    with pytest.raises(OutsideDomainError):
        ev("gamma", (1, 1), 0.0, (2.0, 2.0), (1.0, 0.0))
    with pytest.raises(OutsideDomainError):
        ev("kappa", (-1, 1), 0.0, (0.0, 0.5), (1.0, 0.0))


def test_unsupported_combinations():
    with pytest.raises(UnsupportedCaseError):
        ev("gamma_k", (-1, 2), 0.0, (0.5, 0.5), (1.0, 1.0), k=2)
    with pytest.raises(ValueError):
        ev("gamma_k", (1, 1), 0.0, (0.5, 0.5), (1.0, 1.0))  # k missing
    with pytest.raises(ValueError):
        ev("hermitian", (1, 1), 0.0, (0.5, 0.5), (1.0, 1.0))


def test_membership_rules():
    assert membership_elem_reinhardt((1, 1), 0.0, (0.5, 0.5))
    assert not membership_elem_reinhardt((1, 1), 0.0, (1.0, 1.0))  # boundary
    assert membership_elem_reinhardt((1, 1), math.log(2.0), (1.0, 1.0))
    assert not membership_elem_reinhardt((-1, 1), 0.0, (0.0, 0.5))
    assert membership_elem_reinhardt((1, 1), 0.0, (0.0, 123.0))


def test_branch_diagnostics():
    _, info = elem_reinhardt_metric_info(
        "kappa", (2, 4), 0.0, (0.5, 0.0), (0.0, 1.0)
    )
    assert info.s == 1
    assert info.alpha_normalized == (1.0, 2.0)
    assert info.r == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# sandwich and homogeneity properties


def test_sandwich_on_full_support_points():
    alpha = (1, 2)
    for c1, c2 in kronecker_sequence(2, 24):
        a = (0.1 + 0.7 * c1, 0.1 + 0.7 * c2)
        for X in [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (0.5 - 1.0j, 2.0j)]:
            g = ev("gamma", alpha, 0.0, a, X)
            az = ev("azukawa", alpha, 0.0, a, X)
            kp = ev("kappa", alpha, 0.0, a, X)
            assert g <= az * (1.0 + 1e-12) + 1e-15
            assert az <= kp * (1.0 + 1e-12) + 1e-15


HOMOGENEITY_ROWS = [
    ("gamma", (1, 2), 0.0, (0.5, 1 / 3), (2.0, -1.0), None),
    ("kappa", (2, 3), 0.0, (0.6, 0.5), (1.0, 1.0), None),
    ("azukawa", (1, 1, 1), 0.0, (0.5, 0.0, 0.0), (1.0, 2.0, 3.0), None),
    ("kappa", (-1, -2), 0.0, (2.0, 1.5), (1.0, 1.0), None),
    ("gamma_k", (1, 2), 0.0, (0.5, 0.0), (3.0, 7.0), 2),
]


@given(
    st.sampled_from(HOMOGENEITY_ROWS),
    st.floats(min_value=0.05, max_value=20.0),
    st.floats(min_value=0.0, max_value=2.0 * math.pi),
)
def test_absolute_homogeneity(row, mod, arg):
    kind, alpha, C, a, X, k = row
    lam = mod * cmath.exp(1j * arg)
    base = ev(kind, alpha, C, a, X, k=k)
    scaled = ev(kind, alpha, C, a, tuple(lam * x for x in X), k=k)
    assert scaled == pytest.approx(abs(lam) * base, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# bounds of the two-variable Hartogs-type example, as domains builds them:
# the gamma lower bound is the outer ball of g2 at (x, 0), the kappa upper
# bound the inner cloud of its two analytic-disc tangents


def test_g2_gamma_lower_values():
    def bound(x, X):
        return indicatrix_at(g2(), (x, 0.0)).outer.eta(X)

    # (|X_1| + x |X_2|) / (1 - x^2)
    assert bound(0.5, (1.0, 0.0)) == pytest.approx(4.0 / 3.0, rel=1e-15)
    assert bound(0.1, (1.0, 1.0)) == pytest.approx(10.0 / 9.0, rel=1e-15)
    assert bound(1e-9, (0.0, 1.0)) == pytest.approx(1e-9, rel=1e-15)
    with pytest.raises(UnsupportedBasePointError):
        indicatrix_at(g2(), (1.0, 0.0))


def test_g2_gamma_lower_pushforward_consistency():
    # F(z) = z1 (1 + z2) maps the domain to the disc; along nonnegative X the
    # bound coincides with gamma_disc(F(x,0); dF(x,0) X)
    for x in (0.1, 0.5, 0.9):
        outer = indicatrix_at(g2(), (x, 0.0)).outer
        for X in [(1.0, 0.0), (0.0, 1.0), (2.0, 3.0)]:
            push = gamma_disc(x, X[0] + x * X[1])
            assert outer.eta(X) == pytest.approx(push, rel=1e-14)
    # complex directions only lose mass: |X1 + x X2| <= |X1| + x |X2|
    outer = indicatrix_at(g2(), (0.3, 0.0)).outer
    assert gamma_disc(0.3, 1.0 - 0.3j) <= outer.eta((1.0, -1.0j))


def test_g2_kappa_upper_points_values():
    # tangents (1 - x^2, 0) of lambda -> ((lambda+x)/(1+x lambda), 0) and
    # (0, (1-x)/x) of lambda -> (x, (1-x)/x * lambda), squared componentwise
    for x in (1e-3, 0.1, 0.5, 0.999):
        cloud = indicatrix_at(g2(), (x, 0.0)).inner.cloud
        want = np.array([(1.0 - x * x, 0.0), (0.0, (1.0 - x) / x)]) ** 2
        assert cloud.shape == (2, 2)
        np.testing.assert_allclose(cloud, want, rtol=1e-12, atol=0.0)


def test_nu_holds_its_rational_value_near_one():
    # nu = ((1 - x)/x)^2: 1 - x is exact for x >= 1/2, so nu is within two
    # ulps of its exact value; (1/x - 1)^2 cancels there (2.2e-14 off at
    # x = 0.99)
    xs = [0.5, 0.75, 0.9, 0.99, 0.999, 1.0 - 2.0**-20, 1.0 - 2.0**-52]
    xs += np.random.default_rng(97).uniform(0.5, 1.0, 200).tolist()
    for x in xs:
        exact = ((1 - Fraction(x)) / Fraction(x)) ** 2
        assert abs(Fraction(metrics.nu(x)) / exact - 1) <= Fraction(2.0**-51)
