"""Concrete domain families and their metric indicatrices.

Ties the closed-form metrics to the enclosing-simplex machinery: every
supported (domain, base point) pair yields a pair of indicatrices
sandwiching the extremal-disc metric ball between a certified inside
(Kobayashi-side: explicit analytic discs or the domain itself at centers
of complete Reinhardt pseudoconvex domains) and a functional-theoretic
outside (Caratheodory-side bound).

Supported families:

  * polydisc(r_1, ..., r_n);
  * g2 = {|z_1| (1 + |z_2|) < 1} and gn = g2 x Delta^(n-2), the unbounded
    pseudoconvex Reinhardt domains behind the semicontinuity failures;
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
from typing import Mapping, Sequence

import numpy as np

from .busemann import Indicatrix, cloud_indicatrix, radial_indicatrix
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

    @property
    def dim(self) -> int:
        if self.variant == "elem_reinhardt":
            return len(self.alpha)
        if self.variant == "polydisc":
            return len(self.radii)
        if self.variant == "g2":
            return 2
        if self.variant in ("gn", "truncated_gn"):
            return self.n
        raise ValueError(f"dimension undefined for variant {self.variant!r}")


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
    return DomainSpec(variant="g2")


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


def _in_g2(z1: complex, z2: complex) -> bool:
    return abs(z1) * (1.0 + abs(z2)) < 1.0


def membership(spec: DomainSpec, z: Sequence[complex]) -> bool:
    """Exact defining inequality of the domain (strict)."""
    zt = tuple(complex(c) for c in z)
    if len(zt) != spec.dim:
        raise ValueError("dimension mismatch")
    if spec.variant == "elem_reinhardt":
        return membership_elem_reinhardt(spec.alpha, spec.big_c, zt)
    if spec.variant == "polydisc":
        return all(abs(c) < r for c, r in zip(zt, spec.radii))
    if spec.variant == "g2":
        return _in_g2(zt[0], zt[1])
    if spec.variant == "gn":
        return _in_g2(zt[0], zt[1]) and all(abs(c) < 1.0 for c in zt[2:])
    if spec.variant == "truncated_gn":
        if not (_in_g2(zt[0], zt[1]) and all(abs(c) < 1.0 for c in zt[2:])):
            return False
        t = truncation_intercepts(spec.n, spec.m)
        return sum(abs(c) ** 2 / tj for c, tj in zip(zt, t)) < 1.0
    raise ValueError(f"membership undefined for variant {spec.variant!r}")


@dataclass(frozen=True)
class SandwichIndicatrix:
    """Pair of indicatrices enclosing the extremal-disc metric ball.

    inner: certified subset of the ball (analytic-disc tangents or the
    exact ball); outer: certified superset.  When the metrics at the base
    point are rank-one seminorms, both indicatrices live in a rotated
    frame: ``alignment`` is the unitary U with ball_original = U^* ball,
    i.e. metrics evaluate at U @ X.
    """

    inner: Indicatrix
    outer: Indicatrix
    alignment: tuple[tuple[complex, ...], ...] | None = None

    def align(self, X: Sequence[complex]) -> tuple[complex, ...]:
        """Coordinates of X in the frame the indicatrices are stated in."""
        if self.alignment is None:
            return tuple(complex(c) for c in X)
        u = np.array(self.alignment)
        return tuple(u @ np.array([complex(c) for c in X]))

    def sandwich_ok(self, tol: float = 1e-12, samples: int = 64) -> bool:
        """Closed containment inner subset-of outer on certificates/samples."""
        if self.inner.cloud is not None:
            pts = [np.sqrt(np.array(p)) for p in self.inner.cloud]
        else:
            from .busemann import absolute_directions

            pts = []
            for d in absolute_directions(self.inner.dim, samples):
                rho = self.inner.radial(tuple(complex(c) for c in d))
                if math.isfinite(rho):
                    pts.append(rho * d)
        for p in pts:
            norm = float(np.linalg.norm(p))
            if norm == 0.0:
                continue
            rho_out = self.outer.radial(tuple(complex(c) for c in p / norm))
            if norm > rho_out * (1.0 + tol) + tol:
                return False
        return True


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
    return radial_indicatrix(lambda d: math.inf, n, (False,) * n)


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
    coordinates present the metric depends only on the moduli of X, so the
    ball is Reinhardt as-is and no alignment is needed.
    """
    n = spec.dim
    at = tuple(complex(c) for c in a)

    def metric(X: Sequence[complex]) -> float:
        value, _ = elem_reinhardt_metric_info(kind, spec.alpha, spec.big_c, at, X, k)
        return value.value

    s = sum(1 for c in at if c != 0)
    if s == n:
        _, info = elem_reinhardt_metric_info(
            kind, spec.alpha, spec.big_c, at, (1.0,) + (0.0,) * (n - 1), k
        )
        val0 = metric((1.0,) + (0.0,) * (n - 1))
        if val0 == 0.0:
            return _full_space_indicatrix(n), None
        alpha_n = np.array(info.alpha_normalized)
        big_k = val0 * abs(at[0]) / abs(alpha_n[0])
        c = big_k * alpha_n / np.array(at)
        u = _unitary_from_functional(c)
        radius = 1.0 / float(np.linalg.norm(c))

        def aligned_radial(d: tuple[complex, ...]) -> float:
            m0 = abs(d[0])
            return math.inf if m0 == 0.0 else radius / m0

        ind = radial_indicatrix(
            aligned_radial, n, (True,) + (False,) * (n - 1), complete_reinhardt=True
        )
        return ind, u

    bounded = tuple(
        metric(tuple(1.0 if i == j else 0.0 for i in range(n))) > 0.0 for j in range(n)
    )

    def moduli_radial(d: tuple[complex, ...]) -> float:
        v = metric(d)
        return math.inf if v == 0.0 else 1.0 / v

    return radial_indicatrix(moduli_radial, n, bounded, complete_reinhardt=True), None


def _cylinder_radial(radii: tuple[float | None, ...]):
    """Radial evaluator of a polydisc-cylinder; None marks a full-plane
    (unbounded) factor."""

    def rho(d: tuple[complex, ...]) -> float:
        vals = [r / abs(c) for r, c in zip(radii, d) if r is not None and abs(c) > 0.0]
        return min(vals) if vals else math.inf

    return rho


def _g2_radial(d1: complex, d2: complex) -> float:
    """sup{t : |t d1| (1 + |t d2|) < 1}."""
    p, q = abs(d1), abs(d2)
    if p == 0.0:
        return math.inf
    if q == 0.0:
        return 1.0 / p
    # p q t^2 + p t - 1 = 0
    return (-p + math.sqrt(p * p + 4.0 * p * q)) / (2.0 * p * q)


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
    origin = all(c == 0 for c in at)

    if spec.variant == "polydisc":
        if not origin:
            raise UnsupportedBasePointError(
                "polydisc: supported base point is the origin"
            )
        r = spec.radii
        inner = cloud_indicatrix([tuple(x * x for x in r)], complete_reinhardt=True)
        outer = radial_indicatrix(
            _cylinder_radial(r),
            len(r),
            (True,) * len(r),
            complete_reinhardt=True,
            hulled=True,
        )
        return SandwichIndicatrix(inner=inner, outer=outer)

    if spec.variant == "g2":
        if origin:
            inner = radial_indicatrix(
                lambda d: _g2_radial(d[0], d[1]),
                2,
                (True, False),
                complete_reinhardt=True,
            )
            outer = radial_indicatrix(
                _cylinder_radial((1.0, None)),
                2,
                (True, False),
                complete_reinhardt=True,
                hulled=True,
            )
            return SandwichIndicatrix(inner=inner, outer=outer)
        x = _require_axis_point(at, "g2")
        inner = cloud_indicatrix([(mu(x), 0.0), (0.0, nu(x))])
        outer = radial_indicatrix(
            lambda d: (1.0 - x * x) / (abs(d[0]) + x * abs(d[1])),
            2,
            (True, True),
            complete_reinhardt=True,
            hulled=True,
        )
        return SandwichIndicatrix(inner=inner, outer=outer)

    if spec.variant == "gn":
        n = spec.n
        if origin:
            inner = radial_indicatrix(
                lambda d: min(
                    [_g2_radial(d[0], d[1])]
                    + [1.0 / abs(c) for c in d[2:] if abs(c) > 0.0]
                ),
                n,
                (True, False) + (True,) * (n - 2),
                complete_reinhardt=True,
            )
            outer = radial_indicatrix(
                _cylinder_radial((1.0, None) + (1.0,) * (n - 2)),
                n,
                (True, False) + (True,) * (n - 2),
                complete_reinhardt=True,
                hulled=True,
            )
            return SandwichIndicatrix(inner=inner, outer=outer)
        x = _require_axis_point(at, "gn")
        inner = cloud_indicatrix(
            [(mu(x), 0.0) + (1.0,) * (n - 2), (0.0, nu(x)) + (1.0,) * (n - 2)]
        )
        outer = radial_indicatrix(
            lambda d: min(
                [(1.0 - x * x) / (abs(d[0]) + x * abs(d[1]))]
                + [1.0 / abs(c) for c in d[2:] if abs(c) > 0.0]
            ),
            n,
            (True,) * n,
            complete_reinhardt=True,
            hulled=True,
        )
        return SandwichIndicatrix(inner=inner, outer=outer)

    if spec.variant == "truncated_gn":
        if not origin:
            raise UnsupportedBasePointError(
                "truncated_gn: supported base point is the origin"
            )
        n = spec.n
        t = truncation_intercepts(n, spec.m)
        inner = cloud_indicatrix(
            [(1.0, 0.0) + (1.0,) * (n - 2), (0.0, float(spec.m)) + (1.0,) * (n - 2)]
        )
        outer = radial_indicatrix(
            lambda d: 1.0 / math.sqrt(sum(abs(c) ** 2 / tj for c, tj in zip(d, t))),
            n,
            (True,) * n,
            complete_reinhardt=True,
            hulled=True,
        )
        return SandwichIndicatrix(inner=inner, outer=outer)

    if spec.variant == "elem_reinhardt":
        if not membership(spec, at):
            raise OutsideDomainError("base point outside the domain")
        inner, u = metric_indicatrix("kappa", spec, at)
        outer, _ = metric_indicatrix("gamma", spec, at)
        # gamma and kappa functionals are positive multiples of the same
        # covector, so the kappa frame aligns both
        align = None if u is None else tuple(tuple(row) for row in u)
        return SandwichIndicatrix(inner=inner, outer=outer, alignment=align)

    raise UnsupportedBasePointError(
        f"{spec.variant}: no indicatrix model; supported variants are "
        "polydisc, g2, gn, truncated_gn, elem_reinhardt"
    )


def synthetic_rem_one() -> tuple[Indicatrix, Indicatrix]:
    """Two-ball family with an upper-semicontinuity violation.

    Returns (generic, special): the unit Euclidean ball (base points z
    away from a marked z0) and the strictly larger polydisc Delta x 2Delta
    (at z0).  Certificate clouds are exact: the minimal simplex of the
    Euclidean ball is T_(1,1), of the polydisc T_(2,8).
    """
    generic = cloud_indicatrix([(1.0, 0.0), (0.0, 1.0)], complete_reinhardt=True)
    special = cloud_indicatrix([(1.0, 4.0)], complete_reinhardt=True)
    return generic, special


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
        complete_reinhardt=True,
    )
    bounded = cloud_indicatrix([(1.0,) * n], complete_reinhardt=True)
    return degenerate, bounded


# ---------------------------------------------------------------------------
# config-format serialization (see cli module for the file format)

def spec_to_config(spec: DomainSpec) -> dict[str, str]:
    out = {"domain": spec.variant}
    if spec.variant == "elem_reinhardt":
        out["alpha"] = ",".join(repr(x) for x in spec.alpha)
        out["big_c"] = repr(spec.big_c)
        if spec.declared_type:
            out["type"] = spec.declared_type
    elif spec.variant == "polydisc":
        out["r"] = ",".join(repr(x) for x in spec.radii)
    elif spec.variant in ("gn", "truncated_gn"):
        out["n"] = str(spec.n)
        if spec.variant == "truncated_gn":
            out["m"] = repr(spec.m)
    return out


def spec_from_config(cfg: Mapping[str, str]) -> DomainSpec:
    variant = cfg.get("domain", "").strip()
    if variant == "elem_reinhardt":
        alpha = [float(x) for x in cfg["alpha"].split(",")]
        return elem_reinhardt(
            alpha, float(cfg.get("big_c", "0")), cfg.get("type") or None
        )
    if variant == "polydisc":
        return polydisc(*(float(x) for x in cfg["r"].split(",")))
    if variant == "g2":
        return g2()
    if variant == "gn":
        return gn(int(cfg["n"]))
    if variant == "truncated_gn":
        return truncated_gn(int(cfg["n"]), float(cfg["m"]))
    raise ValueError(
        f"unknown domain {variant!r}; expected one of "
        "elem_reinhardt, polydisc, g2, gn, truncated_gn"
    )
