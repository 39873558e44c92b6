"""Bracketed scalar root solvers for the critical exponents.

Everything here revolves around the rational map

    F(u) = (1 - p*u)**(p-1) / (1 - (p-1)*u)**p,

which sends 0 to 1, is strictly decreasing from 1 to 0 on [0, 1/p], and
strictly increasing from 0 to 1 on (-inf, 0].  Its two inverse branches
(``u_plus`` on the right bracket, ``u_minus`` on the left) drive all of
the derived quantities: the class parameters s = u(delta**-p), the
point parameters r = u(x2/(delta*x1)**p), and the critical exponents
q_star (finiteness threshold above 1), q_sub (its mirror below 1), and
t_star (the self-improvement threshold, equal to 1/(1 - q_sub)).

The Gehring side has one source: with the left class parameter s_minus
and the gap w = -1/s_minus >= 0, t_star = p + w and q_sub =
(p - 1 + w)/(p + w) in closed form.  The left branch returns -inf where
p times its root passes the float range; w is then 0 to double
precision.

Every root comes from ``bisect_root``, Newton steps inside a bracket
with a proven sign change, run to full double precision from a start on
the side where Newton converges monotonically.  Every bracket and both
of its endpoint signs are analytic, so nothing is searched; q_star is
solved for log(q_star/delta), whose bracket ends are finite even where
q_star passes the float range.  F is evaluated through its logarithm,
since (1 - p*u)**(p-1) overflows double precision quickly for large p
or large |u|.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

from .domain import (INF, DomainPoint, classify_point, exp_or_inf, require_finite,
                     validate_delta, validate_exponent)
from .errors import DomainError, IterationError

# Solves from the start points below take at most about 25 steps; the
# budget turns a broken equation into an error instead of a hang.
_MAX_STEPS = 100

# After a Newton step this small relative to x the next correction is at
# rounding level, so a residual that fails to shrink is evaluation noise.
_SMALL_STEP = 2.0**-26

# An equation hands back its value and its slope at x.
Equation = Callable[[float], tuple[float, float]]


class SPair(NamedTuple):
    s_minus: float
    s_plus: float


def bisect_root(
    f: Equation, lo: float, hi: float, *, f_lo: float, f_hi: float, start: float
) -> float:
    """Root of f, which returns (value, slope), on [lo, hi] to full
    double precision.

    Each step evaluates f at x, moves the end of the bracket whose sign
    f(x) shares onto x, and takes the Newton step from x when it lands
    strictly inside the bracket, else bisects.  The solve stops when the
    Newton correction is at most 2 ulp of x (tested first: at the root a
    correction of an ulp may point just outside the bracket), when no
    float is left inside the bracket, or when a small Newton step fails
    to shrink |f|, which is then rounding noise: the better point wins.

    ``f_lo``/``f_hi`` carry the endpoint signs, known analytically, so
    no sign rests on an endpoint evaluation that cancellation can swamp.
    ``start`` in [lo, hi] is the first point.  A missing sign change is
    an error, never a guess.
    """
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if (f_lo > 0.0) == (f_hi > 0.0):
        raise IterationError(f"no sign change on bracket [{lo}, {hi}]")
    positive_at_lo = f_lo > 0.0
    x = start
    last = None  # (x, |f(x)|) before a small Newton step
    for _ in range(_MAX_STEPS):
        fx, slope = f(x)
        if fx == 0.0:
            return x
        if last is not None and abs(fx) >= last[1]:
            return last[0]
        if (fx > 0.0) == positive_at_lo:
            lo = x
        else:
            hi = x
        step = fx / slope if slope else INF
        if abs(step) <= 2.0 * math.ulp(x):
            return x
        nxt = x - step
        if lo < nxt < hi:
            last = (x, abs(fx)) if abs(step) <= _SMALL_STEP * abs(x) else None
        else:
            last = None
            nxt = 0.5 * (lo + hi)
            if not lo < nxt < hi:
                return x
        x = nxt
    raise IterationError(f"no convergence within {_MAX_STEPS} steps on [{lo}, {hi}]")


def _log_forward(u: float, p: float) -> float:
    """log F(u); -inf at the right endpoint u = 1/p where F vanishes.

    Written as (p-1)*log((1-p*u)/(1-(p-1)*u)) - log(1-(p-1)*u), whose two
    terms cancel far less than the plain two logarithms do, both near
    u = 0 and for large |u|.
    """
    b = (p - 1.0) * u
    v = -u / (1.0 - b)
    # v = -1 exactly where 1 - p*u = 0; testing v itself keeps a u a
    # rounding step below 1/p from reaching log1p(-1).
    if v <= -1.0:
        return -INF
    return (p - 1.0) * math.log1p(v) - math.log1p(-b)


def _log_forward_deriv(u: float, p: float) -> float:
    a = 1.0 - p * u
    if a <= 0.0:
        return -INF
    # divided in two steps so that large |u| does not overflow a product
    return -p * (p - 1.0) * (u / a) / (1.0 - (p - 1.0) * u)


def _branch_equation(p: float, log_t: float) -> Equation:
    return lambda u: (_log_forward(u, p) - log_t, _log_forward_deriv(u, p))


def u_plus_from_log(p: float, log_t: float) -> float:
    """Right inverse branch with t passed as log(t).

    Taking log(t) directly keeps callers exact when t = delta**-p would
    underflow or lose digits for large p*log(delta).
    """
    if log_t == 0.0:
        return 0.0
    if log_t == -INF:
        return 1.0 / p
    # log F is concave and decreasing on [0, 1/p], so Newton converges
    # monotonically from the right of the root.  Both seeds lie there:
    # log F(u) <= -p*(p-1)*u**2/2, and F(u) <= p**p * (1-p*u)**(p-1).
    near = math.sqrt(-2.0 * log_t / (p * (p - 1.0)))
    far = -math.expm1((log_t - p * math.log(p)) / (p - 1.0)) / p
    start = min(near, far, math.nextafter(1.0 / p, 0.0))
    # f(0) = -log_t > 0 and f(1/p) = -inf: analytic endpoint signs.
    return bisect_root(
        _branch_equation(p, log_t), 0.0, 1.0 / p, f_lo=-log_t, f_hi=-INF, start=start
    )


def u_minus_from_log(p: float, log_t: float) -> float:
    """Left inverse branch with t passed as log(t); -inf where p times the
    root passes the float range, so that 1 - p*u is finite whenever u is."""
    if log_t == 0.0:
        return 0.0
    # |u|*F(u) increases to C = p**(p-1)/(p-1)**p as u -> -inf, so
    # F(-2C/t) < t/2: the left end has f < -log 2 < 0.  This bracket end
    # may be off by 1e-13 at large p, which moves the bracket and where
    # Newton starts, not the root.
    lo = -2.0 * exp_or_inf((p - 1.0) * math.log(p) - p * math.log(p - 1.0) - log_t)
    if math.isinf(p * lo):
        # F is evaluable while p*u is finite.  Past that the root is C/t
        # to relative 2/((p-1)*|u|), far below an ulp.  Here C is needed
        # to an ulp, so it takes the log1p form, and C and exp(-log_t)
        # are formed apart (the latter as a square) so that rounding
        # log(C/t) does not cost 1e-13.
        c = math.exp((p - 1.0) * math.log1p(1.0 / (p - 1.0)) - math.log(p - 1.0))
        half = exp_or_inf(-0.5 * log_t)
        root = -(half * c * half)
        return root if math.isfinite(p * root) else -INF
    # log F is convex left of its inflection -1/sqrt(p*(p-1)), concave
    # right of it.  A root left of it starts from -C/t, barely left of the
    # root once far out; one right of it from where -p*(p-1)*u**2/2, a
    # lower bound of log F, equals log t: right of the root, and close.
    if log_t < _log_forward(-1.0 / math.sqrt(p * (p - 1.0)), p):
        start = 0.5 * lo
    else:
        start = -math.sqrt(-2.0 * log_t / (p * (p - 1.0)))
    # f(0) = -log_t > 0 analytically.
    return bisect_root(
        _branch_equation(p, log_t), lo, 0.0, f_lo=-1.0, f_hi=-log_t, start=start
    )


def u_plus(p: float, t: float) -> float:
    """Solve F(u) = t on [0, 1/p]; strictly decreasing branch."""
    require_finite(p, "u_plus")
    if math.isnan(t) or not 0.0 <= t <= 1.0:
        raise DomainError(f"u_plus requires t in [0, 1], got {t}")
    if t == 0.0:
        return 1.0 / p
    return u_plus_from_log(p, math.log(t))


def u_minus(p: float, t: float) -> float:
    """Solve F(u) = t on (-inf, 0]; strictly increasing branch.

    t = 0 is refused: the branch value there is -inf, and callers that
    need the limit must handle it explicitly.
    """
    require_finite(p, "u_minus")
    if math.isnan(t) or not 0.0 < t <= 1.0:
        raise DomainError(f"u_minus requires t in (0, 1], got {t}")
    return u_minus_from_log(p, math.log(t))


def s_pair(p: float, delta: float) -> SPair:
    """Both branch values at t = delta**-p; exactly (0, 0) at delta = 1."""
    require_finite(p, "the class parameters")
    validate_delta(delta)
    if delta == 1.0:
        return SPair(0.0, 0.0)
    return SPair(class_parameter(p, delta, "minus"), class_parameter(p, delta, "plus"))


def point_log_ratio(p: float, delta: float, x: DomainPoint) -> float:
    """log of x2/(delta*x1)**p, validated and clamped into [-p*log(delta), 0]."""
    classify_point(p, delta, x)
    x1, x2 = x
    log_lo = -p * math.log(delta)
    log_t = math.log(x2) - p * (math.log(x1) + math.log(delta))
    return min(0.0, max(log_t, log_lo))


def r_pair(p: float, delta: float, x: DomainPoint) -> tuple[float, float]:
    """Both branch values at t = x2/(delta*x1)**p for x in the domain.

    Returns (r_minus, r_plus); the chain
    s_minus <= r_minus <= 0 <= r_plus <= s_plus holds.
    """
    require_finite(p, "the point parameters")
    validate_delta(delta)
    log_t = point_log_ratio(p, delta, x)
    return (u_minus_from_log(p, log_t), u_plus_from_log(p, log_t))


def branch_solver(branch: str) -> Callable[[float, float], float]:
    """The log-t solver of one branch: "plus" (the right branch, q above
    q_star) or "minus" (the left branch); any other name is refused."""
    if branch not in ("plus", "minus"):
        raise DomainError(f"branch must be 'plus' or 'minus', got {branch!r}")
    return u_plus_from_log if branch == "plus" else u_minus_from_log


def class_parameter(p: float, delta: float, branch: str) -> float:
    """s at t = delta**-p on one branch."""
    solve = branch_solver(branch)
    require_finite(p, "the class parameter")
    validate_delta(delta)
    return solve(p, -p * math.log(delta))


def branch_pair(p: float, delta: float, x: DomainPoint, branch: str) -> tuple[float, float]:
    """(s, r) on one branch: the class parameter and the point parameter
    at t = x2/(delta*x1)**p."""
    s = class_parameter(p, delta, branch)
    return s, branch_solver(branch)(p, point_log_ratio(p, delta, x))


def _critical_equation(p: float, log_delta: float) -> Equation:
    """phi(z) = (p-1)*z - log(delta) - log1p((p-1)*e) with e = 1 - 1/q:
    the threshold equation (q/delta)**p = 1 + p*(q - 1) in z = log(q/delta).

    phi is increasing and convex for q > 1.  Its slope
    p*(p-1)*e/(1 + (p-1)*e) is formed so that large p does not overflow.
    """

    def phi(z: float) -> tuple[float, float]:
        b = (p - 1.0) * -math.expm1(-(z + log_delta))
        return (p - 1.0) * z - log_delta - math.log1p(b), p * (b / (1.0 + b))

    return phi


def _near_one(p: float, log_delta: float) -> float:
    """log(q_star) to leading order in log(delta), its delta -> 1 limit,
    which lies below the root; two square roots keep it from underflowing
    to 0 at p near the float range."""
    return math.sqrt(2.0 * log_delta) / math.sqrt(p - 1.0)


def q_star(p: float, delta: float) -> float:
    """Finiteness threshold above 1; equals delta in the p = inf limit,
    and +inf when the root passes the float range (p near 1)."""
    validate_exponent(p)
    validate_delta(delta)
    if delta == 1.0:
        return 1.0
    if math.isinf(p):
        return delta
    log_delta = math.log(delta)
    # Solved for z = log(q/delta), which keeps every digit of q near delta
    # and stays finite where q passes the float range.  At q = 1, phi =
    # -p*log(delta) < 0.  (q/delta)**p = 1 + p*(q - 1) < p*q at the root,
    # so z lies below hi, where phi = log(p) - log(p - (p-1)/q) > 0.
    lo = -log_delta
    hi = (math.log(p) + log_delta) / (p - 1.0)
    phi = _critical_equation(p, log_delta)
    # phi is convex, so the zero of a tangent where phi increases lies
    # right of the root, where Newton converges monotonically.  The tangent
    # is taken at z0 = s - log(delta), the delta -> 1 limit, and its zero
    # is formed from s so that no terms cancel while z0 < 0: z0 + log(delta)
    # is off by an ulp of log(delta), which can exceed the root (large p).
    s = _near_one(p, log_delta)
    z0 = s - log_delta
    b = (p - 1.0) * -math.expm1(-s)
    tangent_zero = (
        log_delta + math.log1p(b) - z0 * (math.exp(-s) * ((p - 1.0) / (1.0 + b)))
    ) / (p * (b / (1.0 + b)))
    start = min(tangent_zero, hi)
    z = bisect_root(phi, lo, hi, f_lo=-p * log_delta, f_hi=1.0, start=start)
    return delta * exp_or_inf(z)


def gehring_gap(p: float, delta: float) -> float:
    """w = t_star - p = -1/s_minus: +inf at delta = 1, and 0 where s_minus
    is -inf (w is then below p/1.8e308, far below an ulp of p)."""
    require_finite(p, "the Gehring side")
    validate_delta(delta)
    if delta == 1.0:
        return INF
    return -1.0 / class_parameter(p, delta, "minus")


def q_sub(p: float, delta: float) -> float:
    """Mirror root of the threshold equation in [(p-1)/p, 1): equal to
    1 - 1/t_star, formed as (p - 1 + w)/(p + w) to avoid cancellation."""
    w = gehring_gap(p, delta)
    return 1.0 if math.isinf(w) else (p - 1.0 + w) / (p + w)


def t_star(p: float, delta: float) -> float:
    """Self-improvement threshold p + w, the root above p of
    (delta*x/(x-1))**p * (x-p)/x = 1, or +inf at delta = 1."""
    return p + gehring_gap(p, delta)
