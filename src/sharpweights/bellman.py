"""Closed forms for the boundary value problem on the two-curve domain.

``bellman_value`` evaluates the supremum of the normalized q-th moment
over the weight class, as a function of the pair x = (<w>, <w**p>).
The value is x1**(1 - q') on the lower curve, finite off it only when q
lies outside the closed critical band [q_sub, q_star], and is built
from the branch parameters r (point) and s (class) otherwise:

    q > q_star uses the right branch,
    q < q_sub (only reachable for finite p) uses the left branch.

Two algebraically equal product representations are provided; agreement
between them is a strong end-to-end check because they consume the
point through different factors.  ``bellman_infinity_value`` is the
q -> inf limit object lim B**(1/(q-1)) normalized to the exponential
functional, ``hessian_form`` is the second-order concavity form along a
direction at an interior point, and ``tangent_segment`` produces the
chord on which the value function is linear.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import cached_property
from typing import NamedTuple

from . import roots
from .domain import (INF, DomainPoint, above_q_star, below_q_sub, boundary_values,
                     classify_point, exp_or_inf, require_finite, validate_delta,
                     validate_exponent)
from .errors import DomainError


class Parameters(namedtuple("Parameters", "p q delta")):
    """Validated (p, q, delta) triple with the derived exponents cached.

    No ``__slots__``: the instance dict holds the cached properties.
    """

    def __new__(cls, p: float, q: float, delta: float) -> Parameters:
        validate_exponent(p)
        validate_delta(delta)
        if math.isnan(q) or math.isinf(q):
            raise DomainError(f"q must be a finite real, got q = {q}")
        if q == 1.0:
            raise DomainError("q = 1 is excluded (the moment exponent degenerates)")
        if math.isinf(p):
            if q < 1.0:
                raise DomainError(f"p = inf requires q > 1, got q = {q}")
        elif q < 1.0 and q <= (p - 1.0) / p:
            raise DomainError(f"q must exceed (p-1)/p = {(p - 1.0) / p}, got q = {q}")
        return super().__new__(cls, p, q, delta)

    @cached_property
    def q_conj(self) -> float:
        """Dual exponent q/(q-1); negative for q < 1."""
        return self.q / (self.q - 1.0)

    @cached_property
    def gamma(self) -> float | None:
        """Combined exponent p + q' - 1; None when p is infinite."""
        if math.isinf(self.p):
            return None
        return self.p + self.q_conj - 1.0

    @cached_property
    def q_star(self) -> float:
        return roots.q_star(self.p, self.delta)

    @cached_property
    def q_sub(self) -> float | None:
        if math.isinf(self.p):
            return None
        return roots.q_sub(self.p, self.delta)

    @cached_property
    def regime(self) -> str:
        """'upper' above q_star, 'lower' below q_sub, 'band' in between."""
        if above_q_star(self.q, self.q_star):
            return "upper"
        if self.q < 1.0 and below_q_sub(self.q, self.q_sub):
            return "lower"
        return "band"


def _branch_pair(params: Parameters, x: DomainPoint) -> tuple[float, float]:
    """(s, r) on the branch selected by the regime."""
    branch = "plus" if params.regime == "upper" else "minus"
    return roots.branch_pair(params.p, params.delta, x, branch)


def _log_value_form(params: Parameters, x: DomainPoint, s: float, r: float) -> float:
    p = params.p
    qc = params.q_conj
    g = params.gamma
    x1 = x[0]
    return (
        (1.0 - qc) * math.log(x1)
        + qc * (math.log1p(-p * s) - math.log1p(-p * r))
        + (qc - 1.0) * (math.log1p(-(p - 1.0) * r) - math.log1p(-(p - 1.0) * s))
        + math.log1p(-g * r)
        - math.log1p(-g * s)
    )


def _log_gamma_form(params: Parameters, x: DomainPoint, s: float, r: float) -> float:
    p = params.p
    g = params.gamma
    x1, x2 = x
    return (
        -g * math.log(x1)
        + math.log(x2)
        + g * (math.log1p(-p * s) - math.log1p(-p * r))
        + g * (math.log1p(-(p - 1.0) * r) - math.log1p(-(p - 1.0) * s))
        + math.log1p(-g * r)
        - math.log1p(-g * s)
    )


def _log_bellman(params: Parameters, x: DomainPoint, log_form=_log_value_form) -> float:
    """log of the value at x; ``log_form`` is the finite-p expression."""
    side = classify_point(params.p, params.delta, x)
    x1, x2 = x
    if side == "lower":
        return (1.0 - params.q_conj) * math.log(x1)
    if params.regime == "band":
        return INF
    if math.isinf(params.p):
        qc = params.q_conj
        return (
            (1.0 - qc) * math.log(x2)
            + math.log(params.q - (x1 / x2) * params.delta)
            - math.log(params.q - params.delta)
        )
    return log_form(params, x, *_branch_pair(params, x))


def bellman_value(params: Parameters, x: DomainPoint) -> float:
    """Value at x; +inf exactly when q lies in the closed critical band
    and x is off the lower curve."""
    return exp_or_inf(_log_bellman(params, x))


def bellman_value_gamma_form(params: Parameters, x: DomainPoint) -> float:
    """Same value through the representation with the common exponent
    gamma = p + q' - 1 and an explicit x2 factor.  Finite p only."""
    require_finite(params.p, "the gamma form")
    return exp_or_inf(_log_bellman(params, x, _log_gamma_form))


def bellman_limit_check(params: Parameters, x: DomainPoint) -> float:
    """value**(q-1), the object whose q -> inf limit is the exponential
    functional; requires q above the finiteness threshold."""
    if params.regime != "upper":
        raise DomainError("the limit check needs q above the finiteness threshold")
    return exp_or_inf((params.q - 1.0) * _log_bellman(params, x))


def bellman_infinity_value(p: float, delta: float, x: DomainPoint) -> float:
    """The limiting exponential-functional value at x.

    For finite p this is the right-branch closed form; at p = inf the
    pair is (<w>, ess sup w) and the expression is elementary.
    """
    side = classify_point(p, delta, x)
    x1, x2 = x
    if math.isinf(p):
        return exp_or_inf(delta * (1.0 - x1 / x2) - math.log(x2))
    if side == "lower":
        return 1.0 / x1
    s, r = roots.branch_pair(p, delta, x, "plus")
    return exp_or_inf(
        -math.log(x1)
        + math.log1p(-(p - 1.0) * r)
        + math.log1p(-p * s)
        - math.log1p(-p * r)
        - math.log1p(-(p - 1.0) * s)
        + (s - r) / ((1.0 - p * s) * (1.0 - p * r))
    )


def hessian_form(params: Parameters, x: DomainPoint, d1: float, d2: float) -> float:
    """Second-order form of the value at an interior x along (d1, d2).

    Nonpositive in both finite regimes (the value is locally concave),
    and zero exactly along the direction d1/d2 = x1/((1-(p-1)r)*p*x2),
    which is the tangent direction of the level structure.  -inf where
    the value passes the float range, except along that direction.
    """
    p = params.p
    require_finite(p, "the quadratic form")
    if not (math.isfinite(d1) and math.isfinite(d2)):
        raise DomainError(f"the direction needs finite d1 and d2, got d1 = {d1}, d2 = {d2}")
    if params.regime == "band":
        raise DomainError("q lies in the critical band: the value is infinite")
    side = classify_point(p, params.delta, x)
    if side != "interior":
        raise DomainError("the quadratic form needs a strictly interior point")
    x1, x2 = x
    s, r = _branch_pair(params, x)
    value = exp_or_inf(_log_value_form(params, x, s, r))
    g = params.gamma
    qc = params.q_conj
    mr = 1.0 - (p - 1.0) * r
    # (p - 1)**2 would raise OverflowError past p = 1.34e154; a float
    # product never raises, and (p - 1)*r < 1 on the plus branch
    prefactor = -(mr * mr) * g * qc * (qc - 1.0) * value / (
        (1.0 - g * r) * ((p - 1.0) * r) * (p - 1.0) * x1 * x1
    )
    kernel_slope = x1 / (mr * p * x2)
    line = d1 - kernel_slope * d2
    if line == 0.0:  # an infinite prefactor would give 0 * inf = nan
        return 0.0
    return prefactor * line * line


class TangentSegment(NamedTuple):
    """Chord between the two boundary curves along which the value is
    linear: from (b, (delta*b)**p) on the upper curve (gamma_delta) to
    the point on the lower curve (gamma_one) with the same branch
    parameter.  Second coordinates past the float range are +inf."""

    b: float
    endpoint_gamma_delta: DomainPoint
    endpoint_gamma_one: DomainPoint
    branch: str = "plus"


def tangent_segment(
    p: float, delta: float, b: float, branch: str = "plus"
) -> TangentSegment:
    """Linearity segment anchored at the upper-curve point with x1 = b.

    Its straight-line extension meets the lower curve at the point whose
    first coordinate is b*(1-(p-1)*s)/(1-p*s); both endpoints satisfy
    delta**p * p * x1 - b**(1-p) * x2 = delta**p * b * (p-1).
    """
    require_finite(p, "a tangent segment")
    if delta == 1.0:
        raise DomainError("delta = 1 degenerates the segment to a point")
    if not b > 0.0 or math.isinf(b) or math.isnan(b):
        raise DomainError("the anchor b must be a positive real")
    s = roots.class_parameter(p, delta, branch)
    if math.isinf(s):
        raise DomainError(
            f"the minus branch at p = {p}, delta = {delta} passes the float range"
        )
    x1_lower = b * (1.0 - (p - 1.0) * s) / (1.0 - p * s)
    # (delta*b)**p/(1 - p*s), formed as the upper-curve value over
    # b/(1 - p*s)**(1/p): +inf exactly past the float range, and a few
    # times more accurate at large p than exp of the summed logarithms.
    x2_lower = boundary_values(p, delta, b * (1.0 - p * s) ** (-1.0 / p))[1]
    return TangentSegment(
        b=b,
        endpoint_gamma_delta=(b, boundary_values(p, delta, b)[1]),
        endpoint_gamma_one=(x1_lower, x2_lower),
        branch=branch,
    )
