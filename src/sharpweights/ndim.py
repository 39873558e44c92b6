"""Upper bounds for dyadic cubes in n dimensions.

Splitting a cube into 2**n children degrades the one-dimensional
reverse-Holder control: a class-norm delta below the dimensional
threshold (2**n/(2**n - 1))**(1/p') still forces the children's
averages into a bounded ratio y, which in turn yields an enlarged
effective norm epsilon >= delta and, through the one-dimensional
machinery, a finite moment-class bound.  These bounds are upper bounds
only; unlike the one-dimensional constants they are not sharp, so
nothing here feeds the sharpness oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import embedding, roots
from .domain import require_finite, validate_delta
from .errors import DomainError


@dataclass(frozen=True)
class NDimBound:
    """Bundle of the cube-splitting bound: the average-ratio bound y,
    the enlarged class norm epsilon, and the resulting constant."""

    n: int
    y: float
    epsilon: float
    constant: float


def _validate_pn(p: float, n: int) -> None:
    require_finite(p, "the cube bounds")
    if not isinstance(n, int) or isinstance(n, bool) or n < 2:
        raise DomainError(f"dimension n must be an integer >= 2, got {n!r}")


def delta_threshold(p: float, n: int) -> float:
    """Largest class norm for which the cube bounds exist:
    (2**n/(2**n - 1))**(1/p')."""
    _validate_pn(p, n)
    cells = 2.0**n
    p_conj = p / (p - 1.0)
    return (cells / (cells - 1.0)) ** (1.0 / p_conj)


def _log1p_pow(y: float, p: float) -> float:
    """log(1 + y**p) without overflow for large y."""
    if y > 1.0:
        return p * math.log(y) + math.log1p(y ** (-p))
    return math.log1p(y**p)


def ratio_bound_y(p: float, n: int, delta: float) -> float:
    """The root y >= 1 of (1+y)**p/(1+y**p) = L**(p-1), where
    L = 2 + 2**n*(delta**(-p') - 1).

    The left side is invariant under y -> 1/y and strictly decreasing
    on [1, inf), so the root above 1 is unique.  delta = 1 returns
    exactly 1.
    """
    _validate_pn(p, n)
    validate_delta(delta)
    threshold = delta_threshold(p, n)
    if delta >= threshold:
        raise DomainError(
            f"delta >= threshold {threshold}: no finite ratio bound in dimension {n}"
        )
    if delta == 1.0:
        return 1.0
    p_conj = p / (p - 1.0)
    big_l = 2.0 + 2.0**n * math.expm1(-p_conj * math.log(delta))
    target = (p - 1.0) * math.log(big_l)

    def h(y: float) -> tuple[float, float]:
        value = p * math.log1p(y) - _log1p_pow(y, p) - target
        return value, p / (1.0 + y) - p / (1.0 + y ** (-p)) / y

    h_one = (p - 1.0) * (math.log(2.0) - math.log(big_l))
    # h(y) < p/y - target, so the root lies below p/target.
    hi, h_hi = roots.grow_bracket(h, max(2.0, p / target), h_one)
    return roots.bisect_root(h, 1.0, hi, f_lo=h_one, f_hi=h_hi)


def _epsilon_from_y(p: float, delta: float, y: float) -> float:
    if abs(y - 1.0) < 1e-8:
        f = p
    else:
        f = (y * y - y ** (2.0 - 2.0 * p)) / (y * y - 1.0)
    return (
        delta
        * (f / p)
        * math.exp((1.0 - p) / p * (math.log(f - 1.0) - math.log(p - 1.0)))
    )


def epsilon_bound(p: float, n: int, delta: float) -> float:
    """Enlarged effective class norm implied by the ratio bound; always
    at least delta, and exactly delta at delta = 1."""
    return _epsilon_from_y(p, delta, ratio_bound_y(p, n, delta))


def ndim_aq_bound(p: float, q: float, n: int, delta: float) -> NDimBound:
    """Moment-class bound for dyadic cubes: the one-dimensional sharp
    constant evaluated at the enlarged norm epsilon.  Not sharp."""
    if math.isnan(q) or not q > 1.0:
        raise DomainError(f"q must exceed 1, got {q}")
    y = ratio_bound_y(p, n, delta)
    eps = _epsilon_from_y(p, delta, y)
    result = embedding.aq_constant(p, q, eps)
    return NDimBound(n=n, y=y, epsilon=eps, constant=result.constant)
