"""Concrete domain families and their metric indicatrices.

Ties the closed-form metrics to the enclosing-simplex machinery: every
supported (domain, base point) pair yields a pair of indicatrices
sandwiching the extremal-disc metric ball between a certified inside
(Kobayashi-side: explicit analytic discs or the domain itself at centers
of complete Reinhardt pseudoconvex domains) and a functional-theoretic
outside (Caratheodory-side bound).

Supported families, one ``_FAMILIES`` entry each (defining inequality,
sandwich builder, the settings it reads and its builder from them):

  * polydisc(r_1, ..., r_n);
  * g2 = {|z_1| (1 + |z_2|) < 1} and gn = g2 x Delta^(n-2), the unbounded
    pseudoconvex Reinhardt domains behind the semicontinuity failures;
    g2 is gn at n = 2 and shares its entry's functions; their radial
    balls are products of a two-axis ball and unit discs, and the
    polydisc's outer cylinder a product of discs
    (``busemann.product_indicatrix``);
  * truncated_gn(n, m): gn cut with the inverse image under Psi of the
    open simplex with intercepts (n/2, m n/2, n, ..., n);
  * elem_reinhardt(alpha, C) = {|z^alpha| < e^C}: indicatrices are built
    directly from the closed forms; at base points without zero
    coordinates the metrics are rank-one seminorms |<c, X>|, handled by a
    unitary change of frame aligning the functional with the first axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .busemann import (
    Indicatrix,
    batch_radial,
    cloud_indicatrix,
    product_indicatrix,
    radial_indicatrix,
)
from .metrics import (
    MultiIndex,
    OutsideDomainError,
    elem_reinhardt_metric_info,
    membership_elem_reinhardt,
    mu,
    nu,
)

CVector = tuple[complex, ...]


class UnsupportedBasePointError(ValueError):
    """indicatrix_at called at a base point with no implemented model."""


@dataclass(frozen=True)
class DomainSpec:
    """One of the supported domain families; see module docstring.

    Exactly the fields relevant to ``variant`` are set; constructors below
    validate ranges.
    """

    variant: str
    alpha: tuple[float, ...] | None = None
    big_c: float = 0.0
    declared_type: str | None = None
    radii: tuple[float, ...] | None = None
    n: int | None = None
    m: float | None = None

    def __post_init__(self) -> None:
        _family(self.variant)

    @property
    def dim(self) -> int:
        if self.alpha is not None:
            return len(self.alpha)
        if self.radii is not None:
            return len(self.radii)
        return self.n


def elem_reinhardt(
    alpha: Sequence[float], big_c: float = 0.0, declared_type: str | None = None
) -> DomainSpec:
    mi = MultiIndex(tuple(float(x) for x in alpha), declared_type)
    return DomainSpec(
        variant="elem_reinhardt",
        alpha=mi.alpha,
        big_c=float(big_c),
        declared_type=declared_type,
    )


def polydisc(*radii: float) -> DomainSpec:
    r = tuple(float(x) for x in radii)
    if not r or any(not 0 < x < math.inf for x in r):
        raise ValueError("polydisc radii must be positive and finite")
    return DomainSpec(variant="polydisc", radii=r)


def g2() -> DomainSpec:
    return DomainSpec(variant="g2", n=2)


def gn(n: int) -> DomainSpec:
    if not (isinstance(n, int) and n >= 3):
        raise ValueError("gn needs an integer n >= 3 (use g2 for n = 2)")
    return DomainSpec(variant="gn", n=n)


def truncated_gn(n: int, m: float) -> DomainSpec:
    if not (isinstance(n, int) and n >= 3):
        raise ValueError("truncated_gn needs an integer n >= 3")
    if not m >= 1:
        raise ValueError("truncation parameter m >= 1 required")
    return DomainSpec(variant="truncated_gn", n=n, m=float(m))


def truncation_intercepts(n: int, m: float) -> tuple[float, ...]:
    """Simplex intercepts (n/2, m n/2, n, ..., n) of the truncation."""
    return (n / 2.0, m * n / 2.0) + (float(n),) * (n - 2)


def membership(spec: DomainSpec, z: Sequence[complex]) -> bool:
    """Exact defining inequality of the domain (strict)."""
    zt = tuple(complex(c) for c in z)
    if len(zt) != spec.dim:
        raise ValueError("dimension mismatch")
    return _FAMILIES[spec.variant].inside(spec, zt)


def _in_gn(spec: DomainSpec, z: CVector) -> bool:
    return abs(z[0]) * (1.0 + abs(z[1])) < 1.0 and all(abs(c) < 1.0 for c in z[2:])


def _in_truncated_gn(spec: DomainSpec, z: CVector) -> bool:
    t = truncation_intercepts(spec.n, spec.m)
    return _in_gn(spec, z) and sum(abs(c) ** 2 / tj for c, tj in zip(z, t)) < 1.0


@dataclass(frozen=True)
class SandwichIndicatrix:
    """Pair of indicatrices enclosing the extremal-disc metric ball.

    inner: certified subset of the ball (analytic-disc tangents or the
    exact ball); outer: certified superset.  When the metrics at the base
    point are rank-one seminorms, both indicatrices live in a rotated
    frame: ``alignment`` is the unitary U with ball_original = U^* ball,
    i.e. metrics evaluate at U @ X (``frame_coordinates``).
    """

    inner: Indicatrix
    outer: Indicatrix
    alignment: tuple[tuple[complex, ...], ...] | None = None


def frame_coordinates(
    u: np.ndarray | Sequence[Sequence[complex]] | None, X: Sequence[complex]
) -> tuple[complex, ...]:
    """U @ X for the frame change U of a rank-one ball, as an array
    (``metric_indicatrix``) or nested tuples (``SandwichIndicatrix``); X
    itself when U is None."""
    xv = tuple(complex(c) for c in X)
    return xv if u is None else tuple(np.asarray(u) @ np.array(xv))


def _unitary_from_functional(c: np.ndarray) -> np.ndarray:
    """Unitary whose first row is c/|c| (so (Ux)_1 = <c,x>/|c|)."""
    n = c.shape[0]
    rows = [c / np.linalg.norm(c)]
    for j in range(n):
        v = np.zeros(n, dtype=complex)
        v[j] = 1.0
        for u in rows:
            v = v - (v @ np.conj(u)) * u
        norm = np.linalg.norm(v)
        if norm > 1e-9:
            rows.append(v / norm)
        if len(rows) == n:
            break
    return np.array(rows)


def _full_space_indicatrix(n: int) -> Indicatrix:
    return radial_indicatrix(
        batch_radial(lambda m: np.full(m.shape[:-1], math.inf)), n, (False,) * n
    )


def metric_indicatrix(
    kind: str,
    spec: DomainSpec,
    a: Sequence[complex],
    k: int | None = None,
) -> tuple[Indicatrix, np.ndarray | None]:
    """Indicatrix of gamma^(k)/A/kappa of an elementary Reinhardt domain.

    At base points with all coordinates nonzero the metric is a rank-one
    seminorm |<c, X>|; the returned indicatrix is stated in the unitary
    frame aligning c with the first axis (second return value).  With zero
    coordinates Z present, r = sum of alpha_j over Z, every formula reduces
    to the product form eta(X) = K prod_{j in Z} |X_j|^(alpha_j / r), K the
    metric at the indicator vector of Z (K = 0 where the metric vanishes).
    The ball is then Reinhardt as-is, no alignment is needed, and the
    closed form takes one metric evaluation, for K.
    """
    n = spec.dim
    at = tuple(complex(c) for c in a)
    mi = MultiIndex(spec.alpha, spec.declared_type)

    def metric_info(X: Sequence[float]):
        return elem_reinhardt_metric_info(kind, mi, spec.big_c, at, X, k)

    zero = [j for j, c in enumerate(at) if c == 0]
    if not zero:
        val0, info = metric_info((1.0,) + (0.0,) * (n - 1))
        if val0 == 0.0:
            return _full_space_indicatrix(n), None
        alpha_n = np.array(info.alpha_normalized)
        big_k = val0 * abs(at[0]) / abs(alpha_n[0])
        c = big_k * alpha_n / np.array(at)
        # frame and radius from c scaled by the power of two 2**-e that puts
        # its largest modulus in [1/2, 1), so that |c| cannot underflow
        top = float(np.abs(c).max())
        if not 0.0 < top < math.inf:
            raise ValueError(
                f"{kind}: the covector K alpha / a at {at} underflows to 0 or is "
                f"not finite (largest modulus {top!r}, metric at e1 {val0!r})"
            )
        e = math.frexp(top)[1]
        c = np.ldexp(c.real, -e) + 1j * np.ldexp(c.imag, -e)
        u = _unitary_from_functional(c)
        radius = float(np.ldexp(1.0 / np.linalg.norm(c), -e))

        bounded = (True,) + (False,) * (n - 1)
        return radial_indicatrix(batch_radial(lambda m: radius / m[..., 0]), n, bounded), u

    big_k, info = metric_info(tuple(0.0 if c else 1.0 for c in at))
    expo = np.array(info.alpha_normalized)[zero] / info.r
    # only the single zero axis of a positive K is bounded
    bounded = tuple(big_k > 0.0 and zero == [j] for j in range(n))
    product = batch_radial(
        lambda m: 1.0 / (big_k * np.prod(m[..., zero] ** expo, axis=-1))
    )
    return radial_indicatrix(product, n, bounded), None


# Closed-form radii below map moduli of shape (..., n) to radii of shape
# (...), with division by zero allowed (see busemann.batch_radial).

Radius = Callable[[np.ndarray], np.ndarray]


def _cylinder_radius(radii: tuple[float | None, ...]) -> Radius:
    """Radii of a polydisc-cylinder; None marks a full-plane (unbounded)
    factor, whose infinite radius drops out of the minimum."""
    r = [math.inf if x is None else x for x in radii]
    return lambda m: np.minimum.reduce(r / m, axis=-1)


def _g2_radius(m: np.ndarray) -> np.ndarray:
    """sup{t : |t d1| (1 + |t d2|) < 1}."""
    p, q = m[..., 0], m[..., 1]
    # the positive root of p q t^2 + p t - 1 = 0 in the form without
    # cancellation; it is 1/p at q = 0 and infinite at p = 0
    return 2.0 / (p + np.sqrt(p * p + 4.0 * p * q))


def _disc(r: float = 1.0) -> Indicatrix:
    """The disc of radius r, as a one-axis product factor."""
    return radial_indicatrix(batch_radial(lambda m: r / m[..., 0]), 1, (True,))


def _require_origin(at: CVector, variant: str) -> None:
    if any(c != 0 for c in at):
        raise UnsupportedBasePointError(f"{variant}: supported base point is the origin")


def _require_axis_point(at: CVector, variant: str) -> float:
    x = abs(at[0])
    if any(c != 0 for c in at[1:]) or not 0.0 < x < 1.0:
        raise UnsupportedBasePointError(
            f"{variant}: supported base points are the origin and "
            "(x, 0, ..., 0) with 0 < |x| < 1"
        )
    return x


def indicatrix_at(spec: DomainSpec, a: Sequence[complex]) -> SandwichIndicatrix:
    """Metric indicatrices of the domain at a supported base point."""
    at = tuple(complex(c) for c in a)
    if len(at) != spec.dim:
        raise ValueError("dimension mismatch")
    return _FAMILIES[spec.variant].sandwich(spec, at)


def _polydisc_sandwich(spec: DomainSpec, at: CVector) -> SandwichIndicatrix:
    _require_origin(at, spec.variant)
    r = spec.radii
    inner = cloud_indicatrix([tuple(x * x for x in r)])
    outer = product_indicatrix(*map(_disc, r))
    return SandwichIndicatrix(inner=inner, outer=outer)


def _gn_sandwich(spec: DomainSpec, at: CVector) -> SandwichIndicatrix:
    """At the origin the domain's own ball; at (x, 0, ..., 0) the tangents
    of the two extremal discs, times the unit discs of Delta^(n-2).

    The radial balls are products of a ball in (z_1, z_2) and n - 2 unit
    discs."""
    n = spec.n
    discs = (_disc(),) * (n - 2) if n > 2 else ()
    if all(c == 0 for c in at):
        half = (True, False)
        inner = radial_indicatrix(batch_radial(_g2_radius), 2, half)
        outer = radial_indicatrix(batch_radial(_cylinder_radius((1.0, None))), 2, half)
        return SandwichIndicatrix(
            inner=product_indicatrix(inner, *discs), outer=product_indicatrix(outer, *discs)
        )
    x = _require_axis_point(at, spec.variant)
    ones = (1.0,) * (n - 2)
    inner = cloud_indicatrix([(mu(x), 0.0) + ones, (0.0, nu(x)) + ones])
    axis_ball = batch_radial(lambda m: (1.0 - x * x) / (m[..., 0] + x * m[..., 1]))
    outer = product_indicatrix(radial_indicatrix(axis_ball, 2, (True, True)), *discs)
    return SandwichIndicatrix(inner=inner, outer=outer)


def _truncated_gn_sandwich(spec: DomainSpec, at: CVector) -> SandwichIndicatrix:
    _require_origin(at, spec.variant)
    n = spec.n
    t = truncation_intercepts(n, spec.m)
    inner = cloud_indicatrix(
        [(1.0, 0.0) + (1.0,) * (n - 2), (0.0, float(spec.m)) + (1.0,) * (n - 2)]
    )
    # summed column by column in a fixed order; np.sum would pair the terms
    ellipsoid = batch_radial(
        lambda m: 1.0 / np.sqrt(sum(m[..., j] ** 2 / tj for j, tj in enumerate(t)))
    )
    outer = radial_indicatrix(ellipsoid, n, (True,) * n)
    return SandwichIndicatrix(inner=inner, outer=outer)


def _elem_sandwich(spec: DomainSpec, at: CVector) -> SandwichIndicatrix:
    if not membership(spec, at):
        raise OutsideDomainError("base point outside the domain")
    inner, u = metric_indicatrix("kappa", spec, at)
    outer, _ = metric_indicatrix("gamma", spec, at)
    # gamma and kappa functionals are positive multiples of the same
    # covector, so the kappa frame aligns both
    align = None if u is None else tuple(tuple(row) for row in u)
    return SandwichIndicatrix(inner=inner, outer=outer, alignment=align)


def synthetic_rem_one() -> tuple[Indicatrix, Indicatrix]:
    """Two-ball family with an upper-semicontinuity violation.

    Returns (generic, special): the unit Euclidean ball (base points z
    away from a marked z0) and the strictly larger polydisc Delta x 2Delta
    (at z0).  Certificate clouds are exact: the minimal simplex of the
    Euclidean ball is T_(1,1), of the polydisc T_(2,8).
    """
    return cloud_indicatrix([(1.0, 0.0), (0.0, 1.0)]), cloud_indicatrix([(1.0, 4.0)])


def synthetic_rem_two(n: int = 3) -> tuple[Indicatrix, Indicatrix]:
    """Degenerate-slice pair reproducing the m-drop mechanism.

    Returns (degenerate, bounded): Delta x C x Delta^(n-2) with an
    unbounded middle axis versus the unit polydisc Delta^n.
    """
    if n < 3:
        raise ValueError("n >= 3 required")
    degenerate = cloud_indicatrix(
        [(1.0, 0.0) + (1.0,) * (n - 2)],
        bounded_axes=(True, False) + (True,) * (n - 2),
    )
    return degenerate, cloud_indicatrix([(1.0,) * n])


# ---------------------------------------------------------------------------
# the family table: a new domain family is one entry plus its constructor


@dataclass(frozen=True)
class _Family:
    """Defining inequality (on a point of the domain's dimension), sandwich
    builder at a base point, the settings the family reads besides
    ``domain``, and its builder from their parsed values, which indexes
    the values by setting name."""

    inside: Callable[[DomainSpec, CVector], bool]
    sandwich: Callable[[DomainSpec, CVector], SandwichIndicatrix]
    settings: tuple[str, ...]
    build: Callable[[Mapping[str, object]], DomainSpec]


_FAMILIES: dict[str, _Family] = {
    "elem_reinhardt": _Family(
        lambda spec, z: membership_elem_reinhardt(spec.alpha, spec.big_c, z),
        _elem_sandwich,
        ("alpha", "big_c", "type"),
        lambda v: elem_reinhardt(v["alpha"], v.get("big_c", 0.0), v.get("type")),
    ),
    "polydisc": _Family(
        lambda spec, z: all(abs(c) < r for c, r in zip(z, spec.radii)),
        _polydisc_sandwich,
        ("r",),
        lambda v: polydisc(*v["r"]),
    ),
    "g2": _Family(_in_gn, _gn_sandwich, (), lambda v: g2()),
    "gn": _Family(_in_gn, _gn_sandwich, ("n",), lambda v: gn(v["n"])),
    "truncated_gn": _Family(
        _in_truncated_gn,
        _truncated_gn_sandwich,
        ("n", "m"),
        lambda v: truncated_gn(v["n"], v["m"]),
    ),
}
# the settings each family reads besides ``domain``
DOMAIN_SETTINGS: dict[str, tuple[str, ...]] = {
    name: family.settings for name, family in _FAMILIES.items()
}


def _family(variant: str) -> _Family:
    if variant not in _FAMILIES:
        raise ValueError(
            f"unknown domain {variant!r}; expected one of {', '.join(_FAMILIES)}"
        )
    return _FAMILIES[variant]


def spec_from_settings(variant: str, values: Mapping[str, object]) -> DomainSpec:
    """The spec of domain ``variant`` from parsed setting values: alpha and
    r tuples of floats, big_c and m floats, n an int, type a string.  Only
    the family's own settings (``DOMAIN_SETTINGS``) are read; a missing one
    that it needs raises ``KeyError`` with the setting's name."""
    return _family(variant).build(values)
