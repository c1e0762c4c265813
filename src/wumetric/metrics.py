"""Closed-form invariant pseudometrics on model domains.

Covers the unit disc, the punctured disc, and domains of the form
D = {z : |z^alpha| < e^C, z_j != 0 where alpha_j < 0} for an exponent
vector alpha with nonzero real entries ("elementary Reinhardt" domains).
On D the Caratheodory metrics gamma^(k), the Azukawa metric A and the
Kobayashi metric kappa all reduce to one-variable disc metrics composed
with the monomial z^alpha; the dispatch depends on

  * the type of alpha: rational (all ratios alpha_i/alpha_j rational)
    versus irrational,
  * l = number of negative exponents (l = n or l < n),
  * s = number of nonzero coordinates of the base point (s = n or s < n).

Base points may have zero coordinates only where alpha_j > 0; r denotes
the sum of the exponents over the zero coordinates (r = 1 when there are
none).  Evaluation first normalizes: rational alpha is scaled to a
primitive integer vector, irrational alpha with l < n is scaled so the
smallest positive entry t_l equals 1, and C is removed by the coordinate
dilation z_j -> exp(-C alpha_j / |alpha|^2) z_j, which maps the domain
onto its C = 0 model.  The reported value is invariant under any other
positive rescaling of (alpha, C) describing the same domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

RATIONAL_DENOMINATOR_BOUND = 10**6
_RATIO_TOL = 1e-13
ALPHA_ANALYSES = 256  # rational analyses kept, one per alpha tuple

Kind = str  # 'gamma' | 'gamma_k' | 'azukawa' | 'kappa'


class OutsideDomainError(ValueError):
    """Base point or argument outside the domain of the formula."""


class UnsupportedCaseError(ValueError):
    """Input combination with no displayed closed form."""


@dataclass(frozen=True)
class MultiIndex:
    """Exponent vector of a monomial z^alpha with nonzero real entries.

    ``declared_type`` ('rational' | 'irrational') overrides numeric type
    detection, which accepts a ratio as rational when a fraction with
    denominator <= 10^6 matches it to within 1e-13 relative error.
    That analysis depends only on alpha: it is computed once per alpha
    tuple and shared by every MultiIndex with equal alpha, and the last
    ``ALPHA_ANALYSES`` tuples are kept.
    """

    alpha: tuple[float, ...]
    declared_type: str | None = None

    def __post_init__(self) -> None:
        a = tuple(float(x) for x in self.alpha)
        if not a:
            raise ValueError("alpha must be nonempty")
        if any(x == 0.0 or not math.isfinite(x) for x in a):
            raise ValueError("alpha entries must be nonzero finite reals")
        if self.declared_type not in (None, "rational", "irrational"):
            raise ValueError(f"unknown declared_type {self.declared_type!r}")
        object.__setattr__(self, "alpha", a)

    @property
    def dim(self) -> int:
        return len(self.alpha)

    @property
    def l(self) -> int:
        """Number of negative entries."""
        return sum(1 for x in self.alpha if x < 0)

    @property
    def is_rational(self) -> bool:
        if self.declared_type is not None:
            return self.declared_type == "rational"
        return _primitive_vector(self.alpha) is not None

    def primitive(self) -> tuple[int, ...]:
        """The unique primitive integer vector that is a positive multiple
        of alpha.  Only defined for rational type."""
        ints = _primitive_vector(self.alpha)
        if ints is None:
            raise UnsupportedCaseError("alpha is not of rational type")
        return ints


@lru_cache(maxsize=ALPHA_ANALYSES)
def _primitive_vector(alpha: tuple[float, ...]) -> tuple[int, ...] | None:
    """Primitive integer vector that is a positive multiple of alpha, or
    None if some ratio alpha_j / alpha_1 has no small-denominator rational
    representation."""
    fr = []
    for x in alpha:
        ratio = x / alpha[0]
        f = Fraction(ratio).limit_denominator(RATIONAL_DENOMINATOR_BOUND)
        if abs(float(f) - ratio) > _RATIO_TOL * max(1.0, abs(ratio)):
            return None
        fr.append(f)
    lcm = math.lcm(*(f.denominator for f in fr))
    ints = [int(f * lcm) for f in fr]
    g = math.gcd(*(abs(k) for k in ints))
    ints = [k // g for k in ints]
    if ints[0] * alpha[0] < 0:
        ints = [-k for k in ints]
    return tuple(ints)


@dataclass(frozen=True)
class BranchInfo:
    """Diagnostics describing which displayed formula was used."""

    case: str  # e.g. 'rational l<n'
    l: int
    s: int
    r: float
    alpha_normalized: tuple[float, ...]
    scale: float  # alpha_normalized = scale * alpha(input)


def gamma_disc(z: complex, X: complex) -> float:
    """Poincare-type metric of the unit disc, |X| / (1 - |z|^2)."""
    if abs(z) >= 1:
        raise OutsideDomainError(f"|z| = {abs(z)} >= 1")
    return abs(X) / (1.0 - abs(z) ** 2)


def kappa_punctured_disc(z: complex, X: complex) -> float:
    """Kobayashi metric of the punctured disc, |X| / (2 |z| log(1/|z|)).

    Obtained by pushing gamma_disc forward through the universal covering
    lambda -> exp((lambda+1)/(lambda-1)); the tests re-derive it that way.
    """
    r = abs(z)
    if r <= 0 or r >= 1:
        raise OutsideDomainError(f"|z| = {r} outside (0, 1)")
    return abs(X) / (2.0 * r * math.log(1.0 / r))


def _falling(x: float, k: int) -> float:
    out = 1.0
    for i in range(k):
        out *= x - i
    return out


def _compositions(total: int, parts: int):
    """All beta in Z^parts_{>=0} with |beta| = total."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


def phi_r(
    alpha: Sequence[int], a: Sequence[complex], X: Sequence[complex], r: int
) -> complex:
    """Degree-r term of the Taylor expansion of z -> z^alpha at a, i.e.
    sum over |beta| = r of D^beta(z^alpha)(a) X^beta / beta!.

    alpha must be integer (negative entries allowed where a_j != 0); this
    equals the coefficient of t^r in the expansion of (a + tX)^alpha.
    """
    al = [int(x) for x in alpha]
    if any(k != float(x) for k, x in zip(al, alpha)):
        raise UnsupportedCaseError("phi_r needs an integer exponent vector")
    n = len(al)
    if len(a) != n or len(X) != n:
        raise ValueError("dimension mismatch")
    if r < 0:
        raise ValueError("r must be nonnegative")
    for aj, kj in zip(a, al):
        if kj < 0 and aj == 0:
            raise OutsideDomainError("zero coordinate with negative exponent")
    total = 0.0 + 0.0j
    for beta in _compositions(r, n):
        coeff = 1.0
        for kj, bj in zip(al, beta):
            coeff *= _falling(kj, bj) / math.factorial(bj)
        if coeff == 0.0:
            continue
        term = complex(coeff)
        for aj, kj, bj, xj in zip(a, al, beta, X):
            e = kj - bj
            if aj == 0:
                if e > 0:
                    term = 0.0
                    break
                # e == 0 contributes the factor 1; e < 0 is excluded above
                # because coeff vanishes for bj > kj >= 0.
            else:
                term *= complex(aj) ** e
            if bj:
                term *= complex(xj) ** bj
        total += term
    return total


def _classify_point(alpha: Sequence[float], a: Sequence[complex]) -> tuple[int, float]:
    """(s, r): the number s of nonzero coordinates of a, and the sum r of
    the exponents over its zero coordinates (1 when there are none)."""
    zero = [j for j, aj in enumerate(a) if aj == 0]
    for j in zero:
        if alpha[j] < 0:
            raise OutsideDomainError("zero coordinate where alpha_j < 0")
    s = len(a) - len(zero)
    r = sum(alpha[j] for j in zero) if zero else 1.0
    return s, float(r)


def _log_abs_monomial(alpha: Sequence[float], a: Sequence[complex]) -> float:
    """log |a^alpha| over the nonzero coordinates (-inf when some zero
    coordinate carries positive exponent)."""
    if any(aj == 0 for aj in a):
        return -math.inf
    return sum(x * math.log(abs(aj)) for x, aj in zip(alpha, a))


def _complex_monomial(alpha: Sequence[int], a: Sequence[complex]) -> complex:
    out = 1.0 + 0.0j
    for k, aj in zip(alpha, a):
        if aj == 0:
            if k > 0:
                return 0.0j
            raise OutsideDomainError("zero coordinate with negative exponent")
        out *= complex(aj) ** int(k)
    return out


def elem_reinhardt_metric_info(
    kind: Kind,
    alpha: Sequence[float] | MultiIndex,
    C: float,
    a: Sequence[complex],
    X: Sequence[complex],
    k: int | None = None,
) -> tuple[float, BranchInfo]:
    """Evaluate gamma^(k), the Azukawa metric or the Kobayashi metric of
    D = {|z^alpha| < e^C} at a in direction X, with branch diagnostics.

    kind is one of 'gamma' (= gamma^(1)), 'gamma_k' (requires k >= 1),
    'azukawa', 'kappa'.
    """
    mi = alpha if isinstance(alpha, MultiIndex) else MultiIndex(tuple(alpha))
    n = mi.dim
    if len(a) != n or len(X) != n:
        raise ValueError("dimension mismatch")
    if kind == "gamma":
        k = 1
    elif kind == "gamma_k":
        if k is None or k < 1 or k != int(k):
            raise ValueError("kind 'gamma_k' needs an integer k >= 1")
        k = int(k)
    elif kind not in ("azukawa", "kappa"):
        raise ValueError(f"unknown kind {kind!r}")

    rational = mi.is_rational
    l = mi.l

    # Normalize alpha by a positive scalar; the domain is unchanged but the
    # displayed formulas assume this gauge.
    if rational:
        alpha_n: tuple[float, ...] = tuple(float(v) for v in mi.primitive())
        scale = alpha_n[0] / mi.alpha[0]
    else:
        positives = [x for x in mi.alpha if x > 0]
        if positives:  # l < n: gauge t_l = 1
            scale = 1.0 / min(positives)
        else:  # l = n: kappa below is scale-invariant
            scale = 1.0
        alpha_n = tuple(scale * x for x in mi.alpha)
    c_n = scale * C

    # Remove C by the dilation z_j -> exp(-c_n alpha_j / |alpha|^2) z_j.
    if c_n != 0.0:
        denom = sum(x * x for x in alpha_n)
        dil = tuple(math.exp(-c_n * x / denom) for x in alpha_n)
        a = tuple(d * complex(aj) for d, aj in zip(dil, a))
        X = tuple(d * complex(xj) for d, xj in zip(dil, X))
    else:
        a = tuple(complex(aj) for aj in a)
        X = tuple(complex(xj) for xj in X)

    s, r = _classify_point(alpha_n, a)
    log_u = _log_abs_monomial(alpha_n, a)
    if not log_u < 0:
        raise OutsideDomainError("base point not inside the domain")
    u = math.exp(log_u) if log_u > -math.inf else 0.0

    positives_n = [x for x in alpha_n if x > 0]
    t_l = min(positives_n) if positives_n else None
    case = ("rational" if rational else "irrational") + (" l=n" if l == n else " l<n")
    info = BranchInfo(case, l, s, r, alpha_n, scale)

    def disc_pair() -> tuple[float, float]:
        """(u |Sigma|, |Sigma|) with Sigma = sum alpha_j X_j / a_j (s = n only)."""
        sigma = sum(x * xj / aj for x, aj, xj in zip(alpha_n, a, X))
        return u * abs(sigma), abs(sigma)

    def product_branch() -> float:
        """(prod |a_j|^alpha_j over S * prod |X_j|^alpha_j over Z)^(1/r)."""
        acc = 0.0
        for x, aj, xj in zip(alpha_n, a, X):
            if aj == 0:
                if xj == 0:
                    return 0.0
                acc += x * math.log(abs(xj))
            else:
                acc += x * math.log(abs(aj))
        return math.exp(acc / r)

    if rational and l < n:
        alpha_i = tuple(int(x) for x in alpha_n)
        if kind in ("gamma", "gamma_k"):
            if l > 0 and k > 1:
                raise UnsupportedCaseError(
                    "gamma^(k) with k >= 2 has no closed form when negative "
                    "exponents are present"
                )
            if l == 0:
                r_int = int(r)
                if k % r_int != 0:
                    return 0.0, info
                phi = phi_r(alpha_i, a, X, r_int)
                base = abs(phi) / (1.0 - u * u)
                return base ** (1.0 / r_int), info
            phi = phi_r(alpha_i, a, X, 1)
            return abs(phi) / (1.0 - u * u), info
        if kind == "azukawa":
            r_int = int(r)
            phi = phi_r(alpha_i, a, X, r_int)
            base = abs(phi) / (1.0 - u * u)
            return base ** (1.0 / r_int), info
        # kappa
        if s == n:
            ur = u ** (1.0 / t_l)
            _, sig = disc_pair()
            return ur * (sig / t_l) / (1.0 - ur * ur), info
        return product_branch(), info

    if not rational and l < n:
        if kind in ("gamma", "gamma_k"):
            return 0.0, info
        if kind == "azukawa":
            if s == n:
                return 0.0, info
            return product_branch(), info
        if s == n:
            us, _ = disc_pair()
            return us / (1.0 - u * u), info
        return product_branch(), info

    if rational:  # l = n
        alpha_i = tuple(int(x) for x in alpha_n)
        za = _complex_monomial(alpha_i, a)
        sigma = sum(x * xj / aj for x, aj, xj in zip(alpha_n, a, X))
        if kind in ("gamma", "gamma_k", "azukawa"):
            return gamma_disc(za, za * sigma), info
        return kappa_punctured_disc(za, za * sigma), info

    # irrational, l = n
    if kind in ("gamma", "gamma_k", "azukawa"):
        return 0.0, info
    us, _ = disc_pair()
    return us / (2.0 * u * math.log(1.0 / u)), info


def membership_elem_reinhardt(
    alpha: Sequence[float], C: float, z: Sequence[complex]
) -> bool:
    """z in {|z^alpha| < e^C, z_j != 0 where alpha_j < 0} (strict)."""
    for x, zj in zip(alpha, z):
        if x < 0 and zj == 0:
            return False
    return _log_abs_monomial(alpha, z) < C


def mu(x: float) -> float:
    """First g2 certificate coordinate (1 - x^2)^2 at the base point (x, 0)."""
    return (1.0 - x * x) ** 2


def nu(x: float) -> float:
    """Second g2 certificate coordinate (1/x - 1)^2 at the base point (x, 0),
    computed as ((1 - x)/x)^2: 1 - x is exact for x in [1/2, 1], where
    1/x - 1 cancels."""
    return ((1.0 - x) / x) ** 2
