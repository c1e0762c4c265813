"""Forms, simplexes and their correspondence under the Psi map."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wumetric.geometry import DiagonalHermitianForm, SimplexParams

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


def test_containment_boundary_tolerance():
    # the closed unit ball of q is the Psi-preimage of the closed simplex
    q = DiagonalHermitianForm((1.0, 1.0))
    assert q((math.sqrt(0.5), math.sqrt(0.5))) <= 1.0 + 1e-15
    assert q((1.0, 0.0)) == 1.0  # closed simplex
    assert q((math.sqrt(0.6), math.sqrt(0.6))) > 1.0
    # cylinder axis is free
    cyl = DiagonalHermitianForm((1.0, math.inf))
    assert cyl((math.sqrt(0.5), math.sqrt(1e9))) <= 1.0


@given(axes_st, st.floats(min_value=0.0, max_value=2.0))
def test_form_and_simplex_containment_agree(axes, scale):
    """Psi carries ellipsoid membership to simplex membership: q(z) <= 1
    iff sum |z_j|^2 / a_j <= 1."""
    q = DiagonalHermitianForm(axes)
    z = tuple(scale * math.sqrt(a) / math.sqrt(len(axes)) for a in axes)
    simplex_sum = sum(abs(c) ** 2 / a for c, a in zip(z, axes))
    assert q(z) ** 2 == pytest.approx(simplex_sum, rel=1e-12)
    if abs(simplex_sum - 1.0) > 1e-12:  # off the boundary, where rounding decides
        assert (q(z) <= 1.0) == (simplex_sum <= 1.0)


@given(axes_st)
def test_boundary_points_are_contained(axes):
    # the vertex a_j e_j of T_a is Psi of the axis point sqrt(a_j) e_j
    q = DiagonalHermitianForm(axes)
    for j, a in enumerate(axes):
        vertex = tuple(math.sqrt(a) if i == j else 0.0 for i in range(len(axes)))
        assert q(vertex) == pytest.approx(1.0, rel=1e-15)
        assert q(tuple(math.sqrt(1.01) * c for c in vertex)) > 1.0
