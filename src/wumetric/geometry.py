"""Diagonal Hermitian forms and simplexes in the positive orthant.

The squared-modulus map Psi(z) = (|z_1|^2, ..., |z_n|^2) identifies bounded
complete Reinhardt ellipsoids {sum |X_j|^2 / a_j < 1} with simplexes
T_a = {u in R^n_+ : sum u_j / a_j < 1}, and vol T_a = prod(a_j) / n!.
Everything downstream (the minimal-ellipsoid computation in particular)
happens on the simplex side, so the two figures share one intercept tuple:
the form of a simplex is ``DiagonalHermitianForm(t.intercepts)``.

Infinite intercepts/axes are first-class: an infinite entry means the
figure is unbounded along that coordinate and the corresponding term is
simply absent from the defining sum. No sentinel values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence


def _check_axes(axes: Sequence[float]) -> tuple[float, ...]:
    t = tuple(float(a) for a in axes)
    if not t:
        raise ValueError("need at least one axis")
    for a in t:
        if not (a > 0.0):  # rejects 0, negatives and NaN
            raise ValueError(f"axes must lie in (0, inf], got {a!r}")
    return t


@dataclass(frozen=True)
class DiagonalHermitianForm:
    """Seminorm q(X) = sqrt(sum over finite axes of |X_j|^2 / a_j).

    ``axes`` are the squared semi-axes of the unit ball; an infinite entry
    removes the coordinate from the sum (the ball is a cylinder there).
    """

    axes: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "axes", _check_axes(self.axes))

    @property
    def dim(self) -> int:
        return len(self.axes)

    def __call__(self, X: Sequence[complex]) -> float:
        if len(X) != self.dim:
            raise ValueError("dimension mismatch")
        return math.sqrt(
            sum(abs(x) ** 2 / a for x, a in zip(X, self.axes) if math.isfinite(a))
        )


@dataclass(frozen=True)
class SimplexParams:
    """Simplex T_a = {u in R^n_+ : sum over finite intercepts of u_j/a_j < 1}."""

    intercepts: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "intercepts", _check_axes(self.intercepts))

