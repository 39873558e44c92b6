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


_LOG2 = math.log(2.0)


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
    # Solved for z = log(y).  With a = z/2 and b = (p-1)*z/2 the equation
    # reads (p-1)*log cosh(a) - log(cosh(a+b)/cosh(a)) = (p-1)*log(L/2).
    # Each term is O((p-1)*z) or smaller, so none cancels down from size 1
    # near y = 1 or p = 1.  Past 20 the cosh forms drop e**-40 terms.
    log_half_l = math.log1p(2.0 ** (n - 1) * math.expm1(-p_conj * math.log(delta)))
    target = (p - 1.0) * log_half_l

    def h(z: float) -> tuple[float, float]:
        a, b = 0.5 * z, 0.5 * (p - 1.0) * z
        ta = math.tanh(a)
        log_cosh = math.log1p(2.0 * math.sinh(0.5 * a) ** 2) if a < 20.0 else a - _LOG2
        # log(cosh(a+b)/cosh(a)) = log(cosh(b) + tanh(a)*sinh(b))
        if b < 20.0:
            ratio = math.log1p(2.0 * math.sinh(0.5 * b) ** 2 + ta * math.sinh(b))
        else:
            ratio = b - _LOG2 + math.log1p(ta)
        value = (p - 1.0) * log_cosh - ratio - target
        return value, 0.5 * p * (ta - math.tanh(a + b))

    # h(0) = -target > 0.  In y, h < p/y - (p-1)*log(L), so h < 0 at hi.
    hi = math.log(max(2.0, p / ((p - 1.0) * (log_half_l + _LOG2))))
    # where -p*(p-1)*z**2/8, the leading term of the left side, meets the right
    near = math.sqrt(-8.0 * log_half_l / p)
    z = roots.bisect_root(h, 0.0, hi, f_lo=-target, f_hi=-1.0, start=min(near, hi))
    return math.exp(z)


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
