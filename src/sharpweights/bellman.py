"""Closed forms for the boundary value problem on the two-curve domain.

``bellman_value`` evaluates the supremum of the normalized q-th moment
over the weight class, as a function of the pair x = (<w>, <w**p>).
The value is x1**(1 - q') on the lower curve, finite off it only when q
lies outside the closed critical band [q_sub, q_star], and otherwise is
a class factor times a point factor built from the branch parameter r:

    q > q_star uses the right branch,
    q < q_sub (only reachable for finite p) uses the left branch.

Above q_star the class factor is C_q**(1/(q-1)), from q_star alone, and
the two product representations share it (times F(s) = delta**-p in the
gamma form), so their agreement checks the solve of r; below q_sub both
are formed from the left class parameter s, and check its solve too.
Where p*r passes 15/16 on the right branch the point's factors come from
the gap 1 - p*r, solved on its own; the gamma form, which consumes x2
and delta**-p apart, still loses about p ulp there.
``bellman_infinity_value`` is the q -> inf limit object lim
B**(1/(q-1)) normalized to the exponential functional, ``hessian_form``
is the second-order concavity form along a direction at an interior
point, and ``tangent_segment`` produces the chord on which the value
function is linear.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import NamedTuple

from . import roots
from .domain import (INF, DomainPoint, boundary_values, classify_point, exp_or_inf,
                     require_finite, validate_delta, validate_exponent)
from .errors import DomainError


class Parameters(namedtuple("Parameters", "p q delta")):
    """Validated (p, q, delta) triple.  The derived exponents are plain
    properties; the roots come from the memos in ``roots``."""

    __slots__ = ()

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

    @property
    def q_conj(self) -> float:
        """Dual exponent q/(q-1); negative for q < 1."""
        return self.q / (self.q - 1.0)

    @property
    def gamma(self) -> float | None:
        """Combined exponent p + q' - 1; None when p is infinite."""
        if math.isinf(self.p):
            return None
        return self.p + self.q_conj - 1.0

    @property
    def q_star(self) -> float:
        return roots.q_star(self.p, self.delta)

    @property
    def q_sub(self) -> float | None:
        if math.isinf(self.p):
            return None
        return roots.q_sub(self.p, self.delta)

    @property
    def regime(self) -> str:
        """'upper' above q_star, 'lower' below q_sub, 'band' in between;
        below 1, gamma*s_minus < 1 is q < q_sub in exact arithmetic, and
        the float product whose log1p the lower value takes."""
        if self.q > 1.0:
            return "upper" if self.q > self.q_star else "band"
        s_minus = roots.class_parameter(self.p, self.delta, "minus")
        return "lower" if self.gamma * s_minus < 1.0 else "band"


def _log_product(
    params: Parameters, x: DomainPoint, gamma_form: bool = False
) -> tuple[float, float, float, float]:
    """(log of the finite-p value at x off the lower curve, r, 1 - (p-1)*r,
    1 - gamma*r), through the value form or the gamma form, which share
    the point's terms.  The log is +inf where 1 - gamma*r <= 0: q then
    lies in the band for this point (a few ulp above a float q_star)."""
    p, qc, g = params.p, params.q_conj, params.gamma
    upper = params.regime == "upper"
    r, eps, mr, a, b, shift = roots.point_factors(p, params.delta, x, "plus" if upper else "minus")
    if shift:  # 1 - gamma*r = (1 - p*r) - r/(q - 1), and c is shifted too
        cg = eps - r / (params.q - 1.0)
        c = math.log(p * cg) if cg > 0.0 else INF
    else:
        cg = 1.0 - g * r
        c = math.log1p(-g * r) if cg > 0.0 else INF
    if c == INF:
        return INF, r, mr, cg
    log_x1, log_x2 = math.log(x[0]), math.log(x[1])
    if upper:
        # log C_q/(q-1), the expression that aq_constant exponentiates: with
        # D = 1 + p*(q_star - 1) the right class parameter s has 1 - p*s = 1/D,
        # 1 - (p-1)*s = q_star/D and 1 - gamma*s = (q - q_star)/((q-1)*D)
        qs = params.q_star
        log_class = math.log1p((qs - 1.0) / (params.q - qs)) - (qc - 1.0) * math.log(qs)
        if gamma_form:  # its class factor is the value form's times F(s) = delta**-p
            log_f = -p * math.log(params.delta)
            log_value = g * (b - a - log_x1) + log_x2 + log_f + (c - shift + log_class)
        else:
            log_value = (1.0 - qc) * log_x1 - qc * a + (qc - 1.0) * b + (c + log_class)
    else:
        s = roots.class_parameter(p, params.delta, "minus")
        a_s, b_s, c_s = math.log1p(-p * s), math.log1p(-(p - 1.0) * s), math.log1p(-g * s)
        if gamma_form:
            log_value = -g * log_x1 + log_x2 + g * (a_s - a) + g * (b - b_s) + c - c_s
        else:
            log_value = (1.0 - qc) * log_x1 + qc * (a_s - a) + (qc - 1.0) * (b - b_s) + c - c_s
    return log_value, r, mr, cg


def _log_bellman(params: Parameters, x: DomainPoint, gamma_form: bool = False) -> float:
    """log of the value at x, through the gamma form if ``gamma_form``."""
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
    return _log_product(params, x, gamma_form)[0]


def bellman_value(params: Parameters, x: DomainPoint) -> float:
    """Value at x; +inf exactly when q lies in the closed critical band
    and x is off the lower curve."""
    return exp_or_inf(_log_bellman(params, x))


def bellman_value_gamma_form(params: Parameters, x: DomainPoint) -> float:
    """Same value through the representation with the common exponent
    gamma = p + q' - 1 and an explicit x2 factor.  Finite p only."""
    require_finite(params.p, "the gamma form")
    return exp_or_inf(_log_bellman(params, x, gamma_form=True))


def bellman_limit_check(params: Parameters, x: DomainPoint) -> float:
    """value**(q-1), the object whose q -> inf limit is the exponential
    functional; requires q above the finiteness threshold."""
    if params.regime != "upper":
        raise DomainError(
            "the limit check needs q above the finiteness threshold, "
            f"got q = {params.q}, q_star = {params.q_star}"
        )
    return exp_or_inf((params.q - 1.0) * _log_bellman(params, x))


def bellman_infinity_value(p: float, delta: float, x: DomainPoint) -> float:
    """The limiting exponential-functional value at x.

    For finite p this is the right-branch closed form, whose class factor
    is C_inf = exp(q_star - 1)/q_star; at p = inf the pair is
    (<w>, ess sup w) and the expression is elementary.
    """
    side = classify_point(p, delta, x)
    x1, x2 = x
    if math.isinf(p):
        return exp_or_inf(delta * (1.0 - x1 / x2) - math.log(x2))
    if side == "lower":
        return 1.0 / x1
    qs = roots.q_star(p, delta)
    if math.isinf(qs):
        return INF
    r, eps, _, a, b, _ = roots.point_factors(p, delta, x, "plus")
    # (s - r)/((1 - p*s)*(1 - p*r)) = (q_star - 1) - r/(1 - p*r)
    ratio = r / eps if eps else INF
    return exp_or_inf(-math.log(x1) + b - a - ratio + (qs - 1.0 - math.log(qs)))


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
        raise DomainError(
            f"q lies in the critical band [{params.q_sub}, {params.q_star}]: the value "
            f"is infinite, got q = {params.q}"
        )
    side = classify_point(p, params.delta, x)
    if side != "interior":
        raise DomainError(f"the quadratic form needs a strictly interior point, got x = {x}")
    x1, x2 = x
    log_value, r, mr, cg = _log_product(params, x)
    if cg <= 0.0:
        raise DomainError(
            f"q lies in the critical band at this point (1 - gamma*r = {cg}), got "
            f"q = {params.q} against the float q_star = {params.q_star}"
        )
    value = exp_or_inf(log_value)
    g = params.gamma
    qc = params.q_conj
    # (p - 1)**2 would raise OverflowError past p = 1.34e154; a float
    # product never raises, and (p - 1)*r < 1 on the plus branch
    prefactor = -(mr * mr) * g * qc * (qc - 1.0) * value / (
        cg * ((p - 1.0) * r) * (p - 1.0) * x1 * x1
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


def tangent_segment(p: float, delta: float, b: float, branch: str = "plus") -> TangentSegment:
    """Linearity segment anchored at the upper-curve point with x1 = b, which meets the lower
    curve at x1 = b*(1 + nu), nu the ramp exponent of the branch: b*q_star on the plus branch
    and b*q_sub on the minus one.  Both endpoints satisfy
    delta**p * p * x1 - b**(1-p) * x2 = delta**p * b * (p-1)."""
    require_finite(p, "a tangent segment")
    if delta == 1.0:
        raise DomainError("delta = 1 degenerates the segment to a point")
    if not b > 0.0 or math.isinf(b) or math.isnan(b):
        raise DomainError(f"the anchor b must be a positive real, got b = {b}")
    x1_lower = b * roots.ramp_exponents(p, delta, branch)[1]
    upper, lower = boundary_values(p, delta, b)[1], boundary_values(p, delta, x1_lower)[0]
    return TangentSegment(b, (b, upper), (x1_lower, lower), branch)
