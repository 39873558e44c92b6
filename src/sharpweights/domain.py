"""The Bellman domain Omega_delta and shared numeric conventions.

A weight class is parametrized by an integrability exponent p (a float
greater than 1, with ``math.inf`` standing for the essential-supremum
case) and a class constant delta >= 1.  A domain point is a plain pair
``(x1, x2)`` of averages: for finite p the admissible region is

    x1 > 0,   x1**p <= x2 <= (delta * x1)**p,

and for p = inf it is x1 <= x2 <= delta * x1.  The lower curve (x2 equal
to the left bound) is where the point averages come from a constant
weight; the upper curve is where the class inequality is saturated.

Extended reals are IEEE floats: +infinity is ``math.inf`` itself, a
first-class value, never a large finite sentinel.
"""

from __future__ import annotations

import math

from .errors import DomainError

INF = math.inf

# A point is "on" a boundary curve when its defining equality holds to
# this relative tolerance; boundary formulas then apply exactly.
BOUNDARY_RTOL = 1e-12

DomainPoint = tuple[float, float]


def exp_or_inf(log_value: float) -> float:
    """exp of a log-space result, +inf where it passes the float range."""
    try:
        return math.exp(log_value)
    except OverflowError:
        return INF


def validate_exponent(p: float) -> None:
    """Require p > 1, finite or infinite."""
    if math.isnan(p) or p <= 1.0:
        raise DomainError(f"exponent p must satisfy p > 1 (or inf), got {p}")


def require_finite(p: float, what: str) -> None:
    """Require a finite p > 1 for ``what``, which has no p = inf form."""
    if not 1.0 < p < INF:
        raise DomainError(f"{what} needs a finite exponent p > 1, got p = {p}")


def validate_delta(delta: float) -> None:
    """Require a finite class constant delta >= 1."""
    if not 1.0 <= delta < INF:
        raise DomainError(f"class constant delta must satisfy 1 <= delta < inf, got {delta}")


def _power_or_inf(base: float, p: float) -> float:
    """base**p, +inf where it passes the float range."""
    try:
        return base**p
    except OverflowError:
        return INF


def boundary_values(p: float, delta: float, x1: float) -> tuple[float, float]:
    """Lower and upper admissible x2 at abscissa x1; +inf past the float
    range.  Refuses a bad p or delta, for which there is no domain."""
    validate_exponent(p)
    validate_delta(delta)
    if math.isinf(p):
        return x1, delta * x1
    return _power_or_inf(x1, p), _power_or_inf(delta * x1, p)


def classify_point(p: float, delta: float, x: DomainPoint) -> str:
    """Locate x within the domain: 'lower', 'interior', or 'upper'.

    Raises DomainError naming a bad coordinate, p or delta, or the
    inequality that a point outside the region violates.  Membership is
    checked with a relative slack of BOUNDARY_RTOL so that points
    constructed to sit on a boundary are classified onto it rather than
    rejected by rounding.  At delta = 1 the two curves coincide, and
    every admissible point is 'lower'.
    """
    x1, x2 = x
    if not 0.0 < x1 < INF:
        raise DomainError(f"finite x1 > 0 violated: x1 = {x1}")
    if not 0.0 < x2 < INF:
        raise DomainError(f"finite x2 > 0 violated: x2 = {x2}")
    lower, upper = boundary_values(p, delta, x1)
    if x2 < lower * (1.0 - BOUNDARY_RTOL):
        bound = "x1" if math.isinf(p) else "x1^p"
        raise DomainError(f"x2 >= {bound} violated: x2 = {x2} < {lower}")
    if x2 > upper * (1.0 + BOUNDARY_RTOL):
        bound = "delta*x1" if math.isinf(p) else "(delta*x1)^p"
        raise DomainError(f"x2 <= {bound} violated: x2 = {x2} > {upper}")
    if delta == 1.0 or abs(x2 - lower) <= BOUNDARY_RTOL * lower:
        return "lower"
    # an upper bound past the float range lies above every finite x2
    if upper < INF and abs(x2 - upper) <= BOUNDARY_RTOL * upper:
        return "upper"
    return "interior"
