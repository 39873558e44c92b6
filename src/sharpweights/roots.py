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
the side where Newton converges monotonically; searched brackets grow
from a log-space asymptote in ``grow_bracket``.  F is evaluated through
its logarithm, since (1 - p*u)**(p-1) overflows double precision
quickly for large p or large |u|.  Where an endpoint sign is known
analytically, the known sign is supplied instead of an evaluated one.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

from .domain import (_LOG_MAX, INF, DomainPoint, classify_point, exp_or_inf, require_finite,
                     validate_delta, validate_exponent)
from .errors import DomainError, IterationError

# Growth budget for bracket searches: doubling more than this many times
# means the root magnitude is out of any reasonable range.
_MAX_DOUBLINGS = 60

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
    f: Equation,
    lo: float,
    hi: float,
    f_lo: float | None = None,
    f_hi: float | None = None,
    start: float | None = None,
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

    ``f_lo``/``f_hi`` may supply endpoint values whose signs are known
    analytically, so the solver never trusts a cancellation-dominated
    endpoint evaluation.  ``start`` is the first point (the midpoint by
    default).  A missing sign change is an error, never a guess.
    """
    if f_lo is None:
        f_lo = f(lo)[0]
    if f_hi is None:
        f_hi = f(hi)[0]
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if (f_lo > 0.0) == (f_hi > 0.0):
        raise IterationError(f"no sign change on bracket [{lo}, {hi}]")
    positive_at_lo = f_lo > 0.0
    x = 0.5 * (lo + hi) if start is None else start
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


def grow_bracket(f: Equation, x: float, f_fixed: float) -> tuple[float, float]:
    """Double x > 0 until f(x) has the sign opposite to ``f_fixed``, the
    sign at the fixed end of the bracket; returns (x, f(x))."""
    for _ in range(_MAX_DOUBLINGS):
        fx = f(x)[0]
        if fx == 0.0 or (fx > 0.0) != (f_fixed > 0.0):
            return x, fx
        x *= 2.0
    raise IterationError(f"no sign change within {_MAX_DOUBLINGS} doublings up to {x}")


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


def _critical_gap(p: float, log_delta: float) -> Equation:
    """g(x) = (x/delta)**p - 1 - p*(x - 1), whose two roots straddle 1.

    Written with expm1 so the x near 1 regime (delta near 1) keeps full
    precision.  g is convex with g(1) = delta**-p - 1 < 0, one root in
    ((p-1)/p, 1) and one in (1, inf).  Past the float range g counts as
    +inf.
    """

    def g(x: float) -> tuple[float, float]:
        a = p * (math.log(x) - log_delta)
        if a > _LOG_MAX:
            return INF, INF
        return math.expm1(a) - p * (x - 1.0), p * (math.exp(a) / x - 1.0)

    return g


def _near_one(p: float, log_delta: float) -> float:
    """Distance of both roots of g from 1 to leading order in log(delta)."""
    return math.sqrt(2.0 * log_delta / (p - 1.0))


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
    # (x/delta)**p = 1 + p*(x - 1) < p*x at the root, so the root lies
    # below exp(log_hi), and barely so once it is large: past the float
    # range (where g counts as +inf) the root is +inf too.  The relative
    # margin covers the rounding of log_hi.
    log_hi = (math.log(p) + p * log_delta) / (p - 1.0)
    g = _critical_gap(p, log_delta)
    g_one = math.expm1(-p * log_delta)  # g(1) < 0 for delta > 1
    hi, g_hi = grow_bracket(g, exp_or_inf(log_hi * (1.0 + 1e-14)), g_one)
    if math.isinf(hi):
        return INF
    # g is convex: Newton converges monotonically from the right.  The
    # delta -> 1 limit of the root is the start when it lies right of the
    # minimum of g at delta**(p/(p-1)), so that Newton heads upward.
    start = 1.0 + _near_one(p, log_delta)
    if not math.log(start) > p * log_delta / (p - 1.0):
        start = hi
    return bisect_root(g, 1.0, hi, f_lo=g_one, f_hi=g_hi, start=start)


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
