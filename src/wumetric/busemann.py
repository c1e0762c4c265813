"""Indicatrices of pseudometrics and their convex (Busemann) hulls.

An indicatrix here is the unit ball B = {X : eta(X) < 1} of an absolutely
homogeneous ("balanced") pseudometric at a fixed base point.  Two
representations are supported:

  * radial: an evaluator rho(d) = sup{t : t d in B} on unit directions,
    together with per-axis boundedness metadata, for balls known in
    functional form.  Evaluators work on batches: directions of shape
    (..., n) give radii of shape (...), so one direction gives one radius.
    Only the moduli |d_j| matter, since the balls are Reinhardt, and
    ``batch_radial`` builds every evaluator from a closed form on the
    moduli array;
  * cloud: a finite set of certificate points in Psi-coordinates
    (squared moduli) lying on the closure of B, for balls pinned down by
    explicitly constructed analytic discs.

A product of radial balls (``product_indicatrix``) is radial, its radius
the minimum of its factors' radii, and keeps its factors, so that
``wu.wu_metric`` samples each on its own axes rather than the product on
all of them.

Every radial sample becomes a boundary point rho(d) d in one place,
``Indicatrix.boundary_points``, which also holds the one recession rule:
zero radii are dropped, and so is a radius beyond ``RADIUS_CAP`` along a
direction with mass only on unbounded axes; such a radius on a direction
with mass on a declared-bounded axis raises ``UnknownBoundednessError``.
``convexify`` and ``wu.wu_metric`` both sample through it.  ``support``
samples nothing: it reads a cloud's or a hull's stored points, and refuses
a raw radial ball.

The largest seminorm below eta has the convex hull conv(B) as its ball.
Downstream minimization (minimal enclosing ellipsoid respectively simplex)
does not distinguish a set from its hull, so cloud indicatrices are never
materialized as hulls; ``convexify`` returns them as they are.  For radial
Reinhardt indicatrices the hull is realized numerically on the moduli
diagram: the hull of a balanced Reinhardt set is complete Reinhardt and its
moduli diagram is the downward-closed convex hull of the sampled diagram.
Its facets on the bounded axes are computed once, one axis subset at a time
from the maximal samples (Quickhull, through ``scipy.spatial.ConvexHull``),
and a hull radius is the reciprocal of the facet gauge max_f <n_f, d> / b_f,
one array expression per batch.

Every indicatrix is balanced and Reinhardt, so degeneracy (directions
where the hull metric vanishes) is decided per coordinate axis only, from
the boundedness metadata.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

RADIUS_CAP = 1e12  # radial samples beyond this are treated as recession
# direction tables kept by absolute_directions, one per (k, count) shape;
# a table above the byte budget is built for its call and not kept
DIRECTION_TABLES = 16
DIRECTION_TABLE_BYTES = 1 << 20
# most axis and subset-diagonal rows absolute_directions builds: 2^k - 1
# on k axes, so k = 20 is the largest table
MAX_CORNER_ROWS = 1 << 20
# hull facets are computed on at most this many axes: a curved boundary
# sampled on 7 axes already gives about 450 000 facets
MAX_HULL_AXES = 7
_GAUGE_BLOCK_ENTRIES = 1 << 20  # directions x facets per hull-gauge block


class UnsupportedIndicatrixError(ValueError):
    """Indicatrix lacks the representation or the size the operation needs."""


class UnknownBoundednessError(ValueError):
    """Operation needs per-axis boundedness that was not declared."""


# Directions of shape (..., n), complex or real, to radii of shape (...);
# only the moduli of the entries matter (see batch_radial).
RadialEvaluator = Callable[[np.ndarray | Sequence[complex]], np.ndarray | float]


def _moduli(d) -> np.ndarray:
    return np.abs(np.asarray(d)).astype(float, copy=False)


def batch_radial(radius: Callable[[np.ndarray], np.ndarray]) -> RadialEvaluator:
    """Radial evaluator from a closed form mapping a float array of moduli
    |d_j| of shape (..., n) to radii of shape (...).  The closed form may
    divide by zero: a zero modulus gives an infinite radius."""

    def radial(d):
        m = _moduli(d)
        with np.errstate(divide="ignore"):
            return np.asarray(radius(m))[()]

    return radial


@dataclass(frozen=True, eq=False)
class Indicatrix:
    """Indicatrix in one of the two representations (module docstring).

    ``cloud`` is kept as a read-only (m, dim) float array copied from the
    input; ``hull_points`` are the read-only (N, dim) moduli-space points
    backing a convexified radial indicatrix; ``factors`` are the balls of
    a product, in coordinate order (``product_indicatrix``).  Indicatrices
    compare and hash by identity.
    """

    dim: int
    radial: RadialEvaluator | None = None
    cloud: np.ndarray | None = None
    bounded_axes: tuple[bool | None, ...] | None = None
    hull_points: np.ndarray | None = field(default=None, repr=False)
    factors: tuple[Indicatrix, ...] | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if (self.radial is None) == (self.cloud is None):
            raise ValueError("exactly one of radial/cloud must be given")
        if self.cloud is not None:
            try:
                pts = np.array(self.cloud, dtype=float)
            except (TypeError, ValueError) as exc:  # ragged, complex or non-numeric
                raise ValueError(
                    f"cloud points must be real and share a dimension ({exc})"
                ) from None
            if pts.ndim != 2 or 0 in pts.shape or pts.shape[1] != self.dim:
                raise ValueError(
                    f"cloud must be a nonempty (m, {self.dim}) array of points with "
                    f"at least one coordinate, got shape {pts.shape}"
                )
            # NaN fails every comparison, so one minimum rejects NaN and negatives
            if not (pts.min() >= 0.0 and pts.max() < math.inf):
                raise ValueError("cloud points are finite nonnegative Psi-points")
            pts.flags.writeable = False
            object.__setattr__(self, "cloud", pts)
        if self.bounded_axes is not None and len(self.bounded_axes) != self.dim:
            raise ValueError("bounded_axes length mismatch")
        if self.factors is not None and sum(f.dim for f in self.factors) != self.dim:
            raise ValueError("factor dimensions must add up to dim")

    def boundedness(self) -> tuple[bool, ...]:
        """Per-axis boundedness; clouds default to bounded, radial
        evaluators must declare."""
        if self.bounded_axes is None:
            if self.cloud is not None:
                return (True,) * self.dim
            raise UnknownBoundednessError(
                "radial indicatrix with unknown boundedness; declare bounded_axes"
            )
        if any(b is None for b in self.bounded_axes):
            raise UnknownBoundednessError(
                "boundedness unknown on axes "
                f"{[j for j, b in enumerate(self.bounded_axes) if b is None]}"
            )
        return tuple(bool(b) for b in self.bounded_axes)

    def radii(self, directions: np.ndarray) -> np.ndarray:
        """Radii along directions of shape (..., dim), as floats of shape
        (...); an evaluator returning one number for all is broadcast."""
        if self.radial is None:
            raise UnsupportedIndicatrixError("radii need the radial representation")
        d = np.asarray(directions)
        rho = np.asarray(self.radial(d), dtype=float)
        return rho if rho.shape == d.shape[:-1] else np.broadcast_to(rho, d.shape[:-1])

    def boundary_points(self, directions: np.ndarray) -> np.ndarray:
        """Boundary points rho(d) d along unit directions of shape (N, dim)
        with nonnegative entries, from one radial call, one row per kept
        direction in order.  Zero radii are dropped, and so are radii
        beyond ``RADIUS_CAP`` on directions with mass only on unbounded
        axes; beyond it on a declared-bounded axis they raise
        ``UnknownBoundednessError``."""
        d = np.asarray(directions)
        rho = self.radii(d)
        far = rho > RADIUS_CAP
        if far.any() and (d[far][:, np.array(self.boundedness())] != 0.0).any():
            raise UnknownBoundednessError(
                "radial evaluator unbounded on a declared-bounded direction"
            )
        keep = ~far & (rho > 0.0)
        return rho[keep, None] * d[keep]

    def eta(self, X: Sequence[complex]) -> float:
        """Metric value eta(X) = |X| / rho(X/|X|) (radial representation)."""
        if self.radial is None:
            raise UnsupportedIndicatrixError("eta needs the radial representation")
        norm = math.sqrt(sum(abs(x) ** 2 for x in X))
        if norm == 0.0:
            return 0.0
        rho = float(self.radial(tuple(complex(x) / norm for x in X)))
        if rho == math.inf:
            return 0.0
        if rho <= 0.0:
            return math.inf
        return norm / rho


def radial_indicatrix(
    fn: RadialEvaluator,
    dim: int,
    bounded_axes: Sequence[bool | None],
) -> Indicatrix:
    return Indicatrix(dim=dim, radial=fn, bounded_axes=tuple(bounded_axes))


def product_indicatrix(*factors: Indicatrix) -> Indicatrix:
    """Indicatrix of the product ball B_1 x ... x B_r, the coordinates of
    each factor following those of the one before.

    A radius is the minimum of the factors' radii on their own coordinates,
    so it is exactly the closed form of the product ball; the bounded axes
    concatenate the factors' (undeclared ones stay undeclared).  The
    factors are kept, and ``wu.wu_metric`` samples each on its own bounded
    axes.  Factors must be radial; a single factor is returned as it is.
    """
    if len(factors) == 1:
        return factors[0]
    if not factors or any(f.radial is None for f in factors):
        raise UnsupportedIndicatrixError("a product needs at least one factor, each radial")
    blocks, dim, bounded = [], 0, ()
    for f in factors:
        blocks.append((f, dim, dim + f.dim))
        dim += f.dim
        bounded += f.bounded_axes or (None,) * f.dim

    def radius(m: np.ndarray) -> np.ndarray:
        return np.minimum.reduce([f.radii(m[..., lo:hi]) for f, lo, hi in blocks])

    return Indicatrix(dim=dim, radial=batch_radial(radius), bounded_axes=bounded, factors=factors)


def cloud_indicatrix(
    points: Sequence[Sequence[float]] | np.ndarray,
    *,
    bounded_axes: Sequence[bool | None] | None = None,
) -> Indicatrix:
    """Cloud indicatrix of the dimension of the first point."""
    if len(points) == 0:
        raise ValueError("cloud must be nonempty")
    return Indicatrix(
        dim=len(points[0]),
        cloud=points,
        bounded_axes=None if bounded_axes is None else tuple(bounded_axes),
    )


# ---------------------------------------------------------------------------
# deterministic direction sets on the nonnegative part of the unit sphere

_PHI_CACHE: dict[int, float] = {}


def generalized_golden(d: int) -> float:
    """Positive root of x^(d+1) = x + 1 (plastic-type constants)."""
    if d not in _PHI_CACHE:
        x = 1.5
        for _ in range(80):
            x = (1.0 + x) ** (1.0 / (d + 1))
        _PHI_CACHE[d] = x
    return _PHI_CACHE[d]


def kronecker_points(d: int, count: int) -> np.ndarray:
    """count low-discrepancy points in [0,1)^d (fixed constants, no RNG):
    point i = 1..count has coordinates frac(0.5 + i phi^-(j+1)), phi the
    generalized golden ratio of d."""
    phi = generalized_golden(d)
    alpha = np.array([(1.0 / phi) ** (j + 1) for j in range(d)])
    idx = np.arange(1, count + 1).reshape(-1, 1)
    return np.mod(0.5 + idx * alpha, 1.0)


def _subset_masks(k: int) -> np.ndarray:
    """The 2^k rows of 0/1 flags over k axes, in ascending bit-mask order."""
    return (np.arange(1 << k)[:, None] >> np.arange(k)) & 1


def absolute_directions(k: int, count: int) -> np.ndarray:
    """Unit directions in the closed positive orthant of R^k.

    Always contains the coordinate axes and every normalized subset
    diagonal (so polydisc-type corners are hit exactly), topped up with a
    Kronecker low-discrepancy sweep of the open orthant to ``count``
    directions in total.

    The table depends only on (k, count), so it is built once per shape
    and shared: the returned array is read-only, and the last
    ``DIRECTION_TABLES`` shapes of at most ``DIRECTION_TABLE_BYTES`` are
    kept.  More than ``MAX_CORNER_ROWS`` axes and subset diagonals
    (k > 20) raise ``UnsupportedIndicatrixError`` before anything is built.
    """
    if k < 1:
        raise ValueError("k >= 1 required")
    corners = (1 << k) - 1
    if corners > MAX_CORNER_ROWS:
        raise UnsupportedIndicatrixError(
            f"{k} axes have {corners} axis and subset-diagonal directions; "
            f"direction tables hold at most {MAX_CORNER_ROWS}"
        )
    rows = max(count, corners) if k > 1 else 1
    if rows * k * 8 > DIRECTION_TABLE_BYTES:
        return _build_directions(k, count)
    return _direction_table(k, count)


def _build_directions(k: int, count: int) -> np.ndarray:
    if k == 1:
        table = np.array([[1.0]])
    else:
        # subset diagonals in ascending bit-mask order, singletons left out
        bits = _subset_masks(k)[1:]
        sizes = bits.sum(axis=1)
        multi = sizes >= 2
        dirs = [np.eye(k), bits[multi] / np.sqrt(sizes[multi])[:, None]]
        fill = max(0, count - k - int(multi.sum()))
        if fill:
            angles = kronecker_points(k - 1, fill) * (math.pi / 2.0)
            v = np.ones((fill, k))
            for j in range(k - 1):
                v[:, j] *= np.cos(angles[:, j])
                v[:, j + 1 :] *= np.sin(angles[:, j : j + 1])
            dirs.append(v)
        table = np.concatenate(dirs)
    table.flags.writeable = False
    return table


_direction_table = functools.lru_cache(maxsize=DIRECTION_TABLES)(_build_directions)


def _maximal_rows(p: np.ndarray) -> np.ndarray:
    """The rows of ``p`` that no other row dominates componentwise."""
    keep = np.empty(len(p), dtype=bool)
    step = max(1, _GAUGE_BLOCK_ENTRIES // len(p))
    for lo in range(0, len(p), step):
        rows = p[lo : lo + step]
        # [i, j]: row j of p is >= block row i everywhere, > somewhere
        ge = np.ones((len(rows), len(p)), dtype=bool)
        gt = np.zeros((len(rows), len(p)), dtype=bool)
        for a, b in zip(rows.T, p.T):
            ge &= b >= a[:, None]
            gt |= b > a[:, None]
        keep[lo : lo + step] = ~(ge & gt).any(axis=1)
    return p[keep]


def _hull_gauge(points: np.ndarray, bounded: np.ndarray) -> np.ndarray:
    """Facet normals n_f / b_f of the downward-closed hull D of ``points``
    projected onto the bounded axes, one row per facet <n_f, x> <= b_f
    with b_f > 0.  The unbounded axes are recession directions: they drop
    out of every such facet, whose normal is nonnegative.

    A facet of D whose normal is positive exactly on the axes S has its
    vertices among the maximal points projected onto S, so it is a facet
    of the hull of those projections and the origin with a positive
    normal, and each such facet is one of D.  D's facets are therefore
    gathered axis subset by axis subset, from hulls of at most m + 1
    points, never from the 2^k corners of every box [0, p].  A subset
    whose projections span less than its axes has no such facet, so no
    hull is built on more axes than the maximal points span."""
    p = points[:, bounded]
    k = p.shape[1]
    if k == 0:
        # every axis recedes: the hull is the whole space, and one facet
        # with a zero normal gives every direction an infinite radius
        return np.zeros((1, 0))
    # one facet x_j <= max p_j per axis
    gauge = [np.diag(1.0 / p.max(axis=0))]
    if k == 1:
        return gauge[0]
    top = _maximal_rows(p)
    span = int(np.linalg.matrix_rank(top))
    if span > MAX_HULL_AXES:
        raise UnsupportedIndicatrixError(
            f"the hull's maximal boundary points span {span} axes; hull "
            f"facets are computed on at most {MAX_HULL_AXES}"
        )
    for axes in (np.flatnonzero(mask) for mask in _subset_masks(k)[1:]):
        q = top[:, axes]
        if len(axes) == 1 or np.linalg.matrix_rank(q) < len(axes):
            continue
        # imported here: qhull is only needed for hulls
        from scipy.spatial import ConvexHull

        eq = ConvexHull(np.vstack([np.zeros(len(axes)), q])).equations
        keep = (eq[:, :-1] > 0.0).all(axis=1) & (eq[:, -1] < 0.0)
        rows = np.zeros((keep.sum(), k))
        rows[:, axes] = eq[keep, :-1] / -eq[keep, -1:]
        gauge.append(rows)
    return np.concatenate(gauge)


def convexify(ind: Indicatrix, resolution: int | None = None) -> Indicatrix:
    """Indicatrix of the largest seminorm below eta (ball = conv B).

    A cloud, and an indicatrix that is already a hull (it has
    ``hull_points``), is returned as the same object: enclosing-body
    minimization treats a point set and its hull alike.  Other radial
    Reinhardt indicatrices get a hull radial evaluator backed by the
    ``boundary_points`` along ``resolution`` directions (default
    256 * dim; a count below 1 raises ``ValueError``): the facets of their
    downward-closed hull are computed once, and a radius is the reciprocal
    of the gauge max_f <n_f, d> / b_f.
    A hull whose maximal boundary samples span more than ``MAX_HULL_AXES``
    axes raises ``UnsupportedIndicatrixError``: its facets run into the
    millions.
    """
    if resolution is not None and resolution < 1:
        raise ValueError(f"resolution must be at least 1, got {resolution!r}")
    if ind.cloud is not None or ind.hull_points is not None:
        return ind
    bounded = np.flatnonzero(ind.boundedness())
    count = 256 * ind.dim if resolution is None else resolution
    pts = ind.boundary_points(absolute_directions(ind.dim, count))
    if len(pts) == 0:
        raise ValueError("no boundary samples with a positive finite radius")
    pts.setflags(write=False)
    gauge = _hull_gauge(pts, bounded)

    def radius(m: np.ndarray) -> np.ndarray:
        # in blocks of rows, so a (rows, facets) temporary stays small, and
        # summed axis by axis in one fixed order, so a batch and its rows
        # agree exactly
        flat = m.reshape(-1, m.shape[-1])
        out = np.empty(len(flat))
        step = max(1, _GAUGE_BLOCK_ENTRIES // len(gauge))
        for lo in range(0, len(flat), step):
            rows = flat[lo : lo + step]
            dots = np.zeros((len(rows), len(gauge)))
            for j, g in zip(bounded, gauge.T):
                dots += rows[:, j, None] * g
            out[lo : lo + step] = 1.0 / np.maximum(dots.max(axis=1), 0.0)
        return out.reshape(m.shape[:-1])

    return Indicatrix(
        dim=ind.dim,
        radial=batch_radial(radius),
        bounded_axes=ind.bounded_axes,
        hull_points=pts,
    )


def support(ind: Indicatrix, y: Sequence[complex]) -> float:
    """Support function sup{Re <X, y> : X in ball}; inf on recession.

    For Reinhardt balls the phases align, so this is the moduli-space
    support sup over the diagram of sum_j x_j |y_j|.  It is inf when y has
    mass on an unbounded axis, read from the boundedness metadata alone,
    and otherwise the maximum over a cloud's or a convexified ball's
    stored points.  A raw radial ball raises ``UnsupportedIndicatrixError``:
    no finite sample of its boundary gives its support.  The support of
    ``convexify(ball)``, the hull of such a sample, is a lower bound.
    """
    ay = np.array([abs(c) for c in y])
    if len(ay) != ind.dim:
        raise ValueError("dimension mismatch")
    bounded = ind.boundedness()
    if any(ay[j] > 0.0 and not bounded[j] for j in range(ind.dim)):
        return math.inf
    if ind.cloud is not None:
        return float(np.max(np.sqrt(ind.cloud) @ ay))
    if ind.hull_points is not None:
        return float(np.max(ind.hull_points @ ay))
    raise UnsupportedIndicatrixError(
        "support needs a cloud or a hull; convexify a radial ball first"
    )
