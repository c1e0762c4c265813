"""Indicatrices of pseudometrics and their convex (Busemann) hulls.

An indicatrix here is the unit ball B = {X : eta(X) < 1} of an absolutely
homogeneous ("balanced") pseudometric at a fixed base point.  Two
representations are supported:

  * radial: an evaluator rho(d) = sup{t : t d in B} on unit directions,
    together with per-axis boundedness metadata, for balls known in
    functional form;
  * cloud: a finite set of certificate points in Psi-coordinates
    (squared moduli) lying on the closure of B, for balls pinned down by
    explicitly constructed analytic discs.

The largest seminorm below eta has the convex hull conv(B) as its ball.
Downstream minimization (minimal enclosing ellipsoid respectively simplex)
does not distinguish a set from its hull, so cloud indicatrices are never
materialized as hulls; ``convexify`` only marks them.  For radial Reinhardt
indicatrices the hull is realized numerically on the moduli diagram: the
hull of a balanced Reinhardt set is complete Reinhardt and its moduli
diagram is the downward-closed convex hull of the sampled diagram, so hull
radii reduce to small linear programs over sampled boundary points.

Degeneracy (directions where the hull metric vanishes) is decided per
coordinate axis only, from the boundedness metadata; non-Reinhardt inputs
are rejected rather than mishandled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np
from scipy.optimize import linprog

from .geometry import PsiPoint

RADIUS_CAP = 1e12  # radial samples beyond this are treated as recession


class UnsupportedIndicatrixError(ValueError):
    """Indicatrix lacks the symmetry required by the operation."""


class UnknownBoundednessError(ValueError):
    """Operation needs per-axis boundedness that was not declared."""


RadialEvaluator = Callable[[tuple[complex, ...]], float]


@dataclass(frozen=True)
class Indicatrix:
    dim: int
    balanced: bool = True
    reinhardt: bool = True
    radial: RadialEvaluator | None = None
    cloud: tuple[PsiPoint, ...] | None = None
    bounded_axes: tuple[bool | None, ...] | None = None
    hulled: bool = False
    # moduli-space points backing a convexified radial indicatrix
    hull_points: tuple[tuple[float, ...], ...] | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if (self.radial is None) == (self.cloud is None):
            raise ValueError("exactly one of radial/cloud must be given")
        if self.cloud is not None:
            pts = tuple(tuple(float(c) for c in p) for p in self.cloud)
            for p in pts:
                if len(p) != self.dim:
                    raise ValueError("cloud point dimension mismatch")
                if any(c < 0 or not math.isfinite(c) for c in p):
                    raise ValueError("cloud points are finite nonnegative Psi-points")
            object.__setattr__(self, "cloud", pts)
        if self.bounded_axes is not None and len(self.bounded_axes) != self.dim:
            raise ValueError("bounded_axes length mismatch")

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

    def eta(self, X: Sequence[complex]) -> float:
        """Metric value eta(X) = |X| / rho(X/|X|) (radial representation)."""
        if self.radial is None:
            raise UnsupportedIndicatrixError("eta needs the radial representation")
        norm = math.sqrt(sum(abs(x) ** 2 for x in X))
        if norm == 0.0:
            return 0.0
        rho = self.radial(tuple(complex(x) / norm for x in X))
        if rho == math.inf:
            return 0.0
        if rho <= 0.0:
            return math.inf
        return norm / rho


@dataclass(frozen=True)
class DegeneracyReport:
    v_axes: frozenset[int]
    m: int


def radial_indicatrix(
    fn: RadialEvaluator,
    dim: int,
    bounded_axes: Sequence[bool | None],
    *,
    balanced: bool = True,
    reinhardt: bool = True,
    hulled: bool = False,
) -> Indicatrix:
    return Indicatrix(
        dim=dim,
        balanced=balanced,
        reinhardt=reinhardt,
        radial=fn,
        bounded_axes=tuple(bounded_axes),
        hulled=hulled,
    )


def cloud_indicatrix(
    points: Sequence[Sequence[float]],
    *,
    bounded_axes: Sequence[bool | None] | None = None,
    balanced: bool = True,
    reinhardt: bool = True,
) -> Indicatrix:
    pts = tuple(tuple(float(c) for c in p) for p in points)
    if not pts:
        raise ValueError("cloud must be nonempty")
    return Indicatrix(
        dim=len(pts[0]),
        balanced=balanced,
        reinhardt=reinhardt,
        cloud=pts,
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


def absolute_directions(k: int, count: int) -> np.ndarray:
    """Unit directions in the closed positive orthant of R^k.

    Always contains the coordinate axes and every normalized subset
    diagonal (so polydisc-type corners are hit exactly), topped up with a
    Kronecker low-discrepancy sweep of the open orthant to ``count``
    directions in total.
    """
    if k < 1:
        raise ValueError("k >= 1 required")
    if k == 1:
        return np.array([[1.0]])
    dirs: list[np.ndarray] = []
    for j in range(k):
        e = np.zeros(k)
        e[j] = 1.0
        dirs.append(e)
    for mask in range(1, 1 << k):
        size = mask.bit_count()
        if size < 2:
            continue
        v = np.array([1.0 if mask & (1 << j) else 0.0 for j in range(k)])
        dirs.append(v / math.sqrt(size))
    fill = max(0, count - len(dirs))
    if fill:
        angles = kronecker_points(k - 1, fill) * (math.pi / 2.0)
        v = np.ones((fill, k))
        for j in range(k - 1):
            v[:, j] *= np.cos(angles[:, j])
            v[:, j + 1 :] *= np.sin(angles[:, j : j + 1])
        dirs.extend(v)
    return np.array(dirs)


def _sample_moduli_boundary(
    ind: Indicatrix, resolution: int
) -> tuple[np.ndarray, list[int]]:
    """Sampled moduli-space boundary points and the unbounded axes."""
    bounded = ind.boundedness()
    unbounded = [j for j, b in enumerate(bounded) if not b]
    dirs = absolute_directions(ind.dim, resolution)
    pts = []
    for d in dirs:
        rho = ind.radial(tuple(complex(c) for c in d))
        if rho == math.inf or rho > RADIUS_CAP:
            if all(d[j] == 0.0 or j in unbounded for j in range(ind.dim)):
                continue  # recession direction, carried by metadata
            raise UnknownBoundednessError(
                "radial evaluator unbounded on a declared-bounded direction"
            )
        if rho > 0.0:
            pts.append(rho * d)
    if not pts:
        raise ValueError("no finite boundary samples")
    return np.array(pts), unbounded


def _hull_radius(
    points: np.ndarray, unbounded: Sequence[int], direction: np.ndarray
) -> float:
    """sup{t : t * direction in downward-closed conv(points) + recession}."""
    k = points.shape[1]
    support_axes = [j for j in range(k) if direction[j] > 0.0]
    if all(j in unbounded for j in support_axes):
        return math.inf
    m = points.shape[0]
    nu = len(unbounded)
    # variables: [t, lambda_1..m, mu_1..nu]; maximize t
    c = np.zeros(1 + m + nu)
    c[0] = -1.0
    a_ub = np.zeros((k, 1 + m + nu))
    a_ub[:, 0] = direction
    a_ub[:, 1 : 1 + m] = -points.T
    for col, j in enumerate(unbounded):
        a_ub[j, 1 + m + col] = -1.0
    a_eq = np.zeros((1, 1 + m + nu))
    a_eq[0, 1 : 1 + m] = 1.0
    res = linprog(
        c,
        A_ub=a_ub,
        b_ub=np.zeros(k),
        A_eq=a_eq,
        b_eq=np.ones(1),
        bounds=[(0, None)] * (1 + m + nu),
        method="highs",
    )
    if not res.success:
        raise RuntimeError(f"hull LP failed: {res.message}")
    return float(res.x[0])


def convexify(ind: Indicatrix, resolution: int | None = None) -> Indicatrix:
    """Indicatrix of the largest seminorm below eta (ball = conv B).

    Cloud indicatrices are returned unchanged apart from the hull marker:
    enclosing-body minimization treats a point set and its hull alike.
    Radial Reinhardt indicatrices get a hull radial evaluator backed by
    sampled boundary points (resolution defaults to 256 * dim).
    """
    if not ind.balanced:
        raise UnsupportedIndicatrixError("hulls are computed for balanced indicatrices")
    if ind.hulled:
        return ind
    if ind.cloud is not None:
        return replace(ind, hulled=True)
    if not ind.reinhardt:
        raise UnsupportedIndicatrixError(
            "radial convexification is implemented for Reinhardt indicatrices"
        )
    pts, unbounded = _sample_moduli_boundary(ind, resolution or 256 * ind.dim)
    unbounded_t = tuple(unbounded)

    def hull_radial(d: tuple[complex, ...]) -> float:
        moduli = np.array([abs(c) for c in d])
        return _hull_radius(pts, unbounded_t, moduli)

    return Indicatrix(
        dim=ind.dim,
        balanced=True,
        reinhardt=ind.reinhardt,
        radial=hull_radial,
        bounded_axes=ind.bounded_axes,
        hulled=True,
        hull_points=tuple(tuple(float(c) for c in p) for p in pts),
    )


def degeneracy(ind: Indicatrix) -> DegeneracyReport:
    """Axes spanning V = {X : hull metric vanishes}, and m = dim - |V|.

    For a balanced Reinhardt indicatrix the hull is unbounded exactly along
    the axes where the set is unbounded, so V is read off the metadata.
    """
    if not (ind.balanced and ind.reinhardt):
        raise UnsupportedIndicatrixError(
            "degeneracy is decided per axis and needs a balanced Reinhardt indicatrix"
        )
    bounded = ind.boundedness()
    v = frozenset(j for j, b in enumerate(bounded) if not b)
    return DegeneracyReport(v_axes=v, m=ind.dim - len(v))


def _polish_direction(
    objective: Callable[[np.ndarray], float], start: np.ndarray, rounds: int = 64
) -> tuple[np.ndarray, float]:
    """Deterministic coordinate hill-climb on the positive unit sphere."""
    d = start / np.linalg.norm(start)
    best = objective(d)
    h = 0.25
    k = d.shape[0]
    for _ in range(rounds):
        improved = False
        for j in range(k):
            for sign in (1.0, -1.0):
                cand = d.copy()
                cand[j] = max(0.0, cand[j] + sign * h)
                norm = np.linalg.norm(cand)
                if norm == 0.0:
                    continue
                cand /= norm
                val = objective(cand)
                if val > best + 1e-18:
                    d, best, improved = cand, val, True
        if not improved:
            h *= 0.5
            if h < 1e-13:
                break
    return d, best


def support(ind: Indicatrix, y: Sequence[complex], resolution: int | None = None) -> float:
    """Support function sup{Re <X, y> : X in ball}; inf on recession.

    For Reinhardt balls the phases align, so this is the moduli-space
    support sup over the diagram of sum_j x_j |y_j|.  Cloud and convexified
    indicatrices evaluate exactly over their stored points; raw radial
    indicatrices sample and polish.
    """
    if not (ind.balanced and ind.reinhardt):
        raise UnsupportedIndicatrixError("support assumes a balanced Reinhardt ball")
    ay = np.array([abs(c) for c in y])
    if len(ay) != ind.dim:
        raise ValueError("dimension mismatch")
    bounded = ind.boundedness()
    if any(ay[j] > 0.0 and not bounded[j] for j in range(ind.dim)):
        return math.inf
    if ind.cloud is not None:
        return float(max(np.sqrt(np.array(p)) @ ay for p in ind.cloud))
    if ind.hull_points is not None:
        pts = np.array(ind.hull_points)
        return float(np.max(pts @ ay))
    dirs = absolute_directions(ind.dim, resolution or 256 * ind.dim)

    def obj(d: np.ndarray) -> float:
        rho = ind.radial(tuple(complex(c) for c in d))
        if rho == math.inf or rho > RADIUS_CAP:
            return 0.0  # recession handled above; support mass is elsewhere
        return float(rho * (d @ ay))

    vals = [obj(d) for d in dirs]
    best_idx = int(np.argmax(vals))
    _, best = _polish_direction(obj, dirs[best_idx])
    return float(best)
