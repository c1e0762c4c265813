"""Forms, simplexes, the Psi map and their exact correspondence."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wumetric.geometry import (
    DiagonalHermitianForm,
    SimplexParams,
    UnboundedSimplexError,
    form_contains,
    form_to_simplex,
    psi,
    simplex_contains,
    simplex_to_form,
    simplex_volume,
)

axes_st = st.lists(
    st.floats(min_value=1e-3, max_value=1e3), min_size=1, max_size=5
).map(tuple)


def test_form_evaluation():
    q = DiagonalHermitianForm(axes=(2.0, 8.0))
    assert q((1.0, 0.0)) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-15)
    assert q((0.0, 2.0)) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-15)
    assert q((0.0, 0.0)) == 0.0


def test_form_skips_infinite_axes():
    q = DiagonalHermitianForm(axes=(1.0, math.inf))
    assert q((0.0, 123.0)) == 0.0
    assert q((3.0, 123.0)) == 3.0


def test_form_rejects_bad_axes():
    for bad in [(0.0,), (-1.0, 2.0), (float("nan"),), ()]:
        with pytest.raises(ValueError):
            DiagonalHermitianForm(axes=bad)


def test_psi_squares_moduli():
    assert psi((3.0, 4.0j)) == (9.0, 16.0)
    assert psi((1.0 + 1.0j,)) == pytest.approx((2.0,), rel=1e-15)


def test_simplex_volume():
    assert simplex_volume(SimplexParams((2.0, 8.0))) == pytest.approx(8.0)
    assert simplex_volume(SimplexParams((1.0, 1.0, 1.0))) == pytest.approx(1.0 / 6.0)
    with pytest.raises(UnboundedSimplexError):
        simplex_volume(SimplexParams((1.0, math.inf)))


def test_simplex_volume_past_the_float_range_of_n_factorial():
    # 200! has no float value, but prod(a_j) / 200! is exactly 1 here
    assert simplex_volume(SimplexParams(tuple(range(1, 201)))) == 1.0


def test_containment_boundary_tolerance():
    t = SimplexParams((1.0, 1.0))
    assert simplex_contains(t, (0.5, 0.5))
    assert simplex_contains(t, (1.0, 0.0))  # closed simplex
    assert not simplex_contains(t, (0.6, 0.6))
    # cylinder axis is free
    cyl = SimplexParams((1.0, math.inf))
    assert simplex_contains(cyl, (0.5, 1e9))
    with pytest.raises(ValueError):
        simplex_contains(t, (-0.1, 0.0))


@given(axes_st)
def test_round_trip_is_exact(axes):
    q = DiagonalHermitianForm(axes)
    assert simplex_to_form(form_to_simplex(q)) == q
    t = SimplexParams(axes)
    assert form_to_simplex(simplex_to_form(t)) == t


@given(axes_st, st.floats(min_value=0.0, max_value=2.0))
def test_form_and_simplex_containment_agree(axes, scale):
    """Psi carries ellipsoid membership to simplex membership exactly."""
    q = DiagonalHermitianForm(axes)
    z = tuple(scale * math.sqrt(a) / math.sqrt(len(axes)) for a in axes)
    p = psi(z)
    assert form_contains(q, p) == simplex_contains(SimplexParams(axes), p)
    # the analytic predicate: sum p_j / a_j <= 1 iff q(z) <= 1
    inside = q(z) <= 1.0 + 1e-12
    assert form_contains(q, p) == inside


@given(axes_st)
def test_boundary_points_are_contained(axes):
    t = SimplexParams(axes)
    for j, a in enumerate(axes):
        vertex = tuple(a if i == j else 0.0 for i in range(len(axes)))
        assert simplex_contains(t, vertex)
        assert not simplex_contains(t, tuple(1.01 * c for c in vertex))
