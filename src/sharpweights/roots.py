"""Bracketed scalar root solvers for the critical exponents.

The inverse branches of F(u) = (1 - p*u)**(p-1) / (1 - (p-1)*u)**p, which
falls from 1 to 0 on [0, 1/p] (``u_plus``) and rises from 0 to 1 on (-inf, 0]
(``u_minus``), give the class parameters s = u(delta**-p), the point
parameters r = u(x2/(delta*x1)**p), q_star, q_sub and t_star = 1/(1 - q_sub).

Every root is solved in one coordinate, y = -log(1 - p*u) = log(1 + p*nu),
nu = expm1(y)/p the exponent of the ramp t**nu whose class norm the root
fixes: F(u) = t reads log F(y) = y - p*log1p(nu) = log t, concave with slope
-w, w = k*(1 - e**-y)/(1 + k*e**-y), k = p - 1.  So 1 - p*u = e**-y, q_star =
1 + nu on the right, t_star = -1/nu and q_sub = 1 + nu on the left.
``critical_root`` keeps the last solves (``functools.lru_cache``, typed keys).
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from collections.abc import Callable

from .domain import (INF, DomainPoint, classify_point, exp_or_inf, expm1mx, log1pmx,
                     require_finite, validate_delta, validate_exponent)
from .errors import DomainError

# Newton steps before a solve only bisects; solves below take at most 20.
_NEWTON_STEPS = 32

# A Newton step this small relative to x lands within rounding of a simple
# root, as its error is of the order of its square.
_SMALL_STEP = 2.0**-26

# Solves the memo keeps: a row of constants at one (p, delta, x) needs five
# keys, while a draw of the constants_table benchmark recurs only after 180.
_RECENT_SOLVES = 8

# An equation hands back its value and its slope at x.
Equation = Callable[[float], tuple[float, float]]


class SPair(namedtuple("SPair", "s_minus s_plus")):
    __slots__ = ()


def bisect_root(
    f: Equation, lo: float, hi: float, *, f_lo: float, f_hi: float, start: float
) -> float:
    """Root of f, which returns (value, slope), on [lo, hi] to full double
    precision from ``start``; the endpoint signs ``f_lo``/``f_hi`` are known
    analytically, and a missing sign change raises ValueError.  Each step moves
    the end of the bracket whose sign f(x) shares onto x and takes the Newton
    step if it lands strictly inside and fewer than 32 were taken, else bisects.
    It stops at a correction of at most 2 ulp of x (tested first), after one
    below 2**-26 of x, or when no float is left inside: within 32 Newton steps
    and about 2,100 bisections."""
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if (f_lo > 0.0) == (f_hi > 0.0):
        raise ValueError(f"no sign change on bracket [{lo}, {hi}]")
    positive_at_lo = f_lo > 0.0
    x = start
    newton = 0
    while True:
        fx, slope = f(x)
        if fx == 0.0:
            return x
        if (fx > 0.0) == positive_at_lo:
            lo = x
        else:
            hi = x
        step = fx / slope if slope else INF
        if abs(step) <= 2.0 * math.ulp(x):
            return x
        nxt = x - step
        if newton < _NEWTON_STEPS and lo < nxt < hi:
            if abs(step) <= _SMALL_STEP * abs(x):
                return nxt
            newton += 1
        else:
            # halved apart: 0.5*(lo + hi) overflows past about 9e307
            nxt = 0.5 * lo + 0.5 * hi
            if not lo < nxt < hi:
                return x
        x = nxt


def _log_f(p: float, log_t: float, c: float) -> Equation:
    """log F - log t and its slope -w at y = c + z, in z, a = e**-y.  Where k*a
    <= 1, log F = -k*y + p*log(p) - p*log1p(k*a), less log t c - k*z -
    p*log1p(k*a) from the right origin c = log(p) - log(t)/p; where e**y <= k,
    y + log C - p*log1p(e**y/k), less log t z - p*log1p(e**y/k) from the left
    origin c = log t - log C; for |y| < 1 the series -M(y) - p*L(nu), M(y) =
    expm1(y) - y and L(x) = log1p(x) - x, or below p = 2, where every
    coefficient carries k, k*(k*a*M(y) - M(-y))/(1 + k*a) + p*L(w)."""
    k = p - 1.0
    if c > 0.0:
        h = log_t / p

        def right(z: float) -> tuple[float, float]:
            ka = k * math.exp(h - z) / p
            return c - k * z - p * math.log1p(ka), -(k - ka) / (1.0 + ka)

        return right
    if c < 0.0:

        def left(z: float) -> tuple[float, float]:
            e = math.exp(c + z)
            return z - p * math.log1p(e / k), k * (1.0 - e) / (e + k)

        return left

    def f(y: float) -> tuple[float, float]:
        if -1.0 < y < 1.0:
            em = math.expm1(y)
            w = k * em / (p + em)  # k*a = k/(1 + em)
            # a few ulp of its terms off, the plain form serves Newton away from
            # the root, where its steps stay above 2**-26 of y; the series near it
            log_f = y - p * math.log1p(em / p) - log_t
            if abs(log_f) > 2.0**-24 * (abs(y) - log_t):
                return log_f, -w
            if p < 2.0:
                log_f = k * (k * expm1mx(y) - (1.0 + em) * expm1mx(-y)) / (p + em) + p * log1pmx(w)
            else:
                log_f = -expm1mx(y) - p * log1pmx(em / p)
            return log_f - log_t, -w
        if y > math.log(k):
            ka = k * math.exp(-y)
            return p * math.log(p) - log_t - k * y - p * math.log1p(ka), -(k - ka) / (1.0 + ka)
        e = math.exp(y)
        log_c = p * math.log1p(1.0 / k)
        return y + log_c - log_t - p * math.log1p(e / k), k * (1.0 - e) / (e + k)

    return f


@functools.lru_cache(maxsize=_RECENT_SOLVES, typed=True)
def critical_root(p: float, log_t: float, branch: str) -> tuple[float, float, float, float]:
    """(c, z, u, e**-y) of the root y = c + z on one branch, u = (1 - e**-y)/p, -inf
    past the float range.  z is y up to the pivot, y = max(1, log k) or min(-1,
    log k), and past it y less the branch's origin c, whose exponential t**(1/p)/p
    or C/t (1/t as a square) is formed apart, so that z keeps the digits of the
    gap e**-y.  The bounds m*y**2/2 and M*y**2/2 of -log F up to the pivot, m and
    M the least and most of w' = k*p*a/(1 + k*a)**2 (p/4 at y = log k), or else f
    at the pivot decide the side.  Newton starts on the monotone side of the
    concave f, or near 0 from the inverse series of -log F = A*y**2*(1 + b*y +
    d*y**2 + e*y**3 + ...), A = k/(2p)."""
    plus = branch == "plus"
    if plus and log_t == -INF:
        return 0.0, INF, 1.0 / p, 0.0
    k = p - 1.0
    log_k = math.log(k)
    if plus:
        pivot, ka = (log_k, 1.0) if log_k > 1.0 else (1.0, k / math.e)
    else:
        pivot, ka = (log_k, 1.0) if log_k < -1.0 else (-1.0, k * math.e)
    bound = -2.0 * log_t / (pivot * pivot)
    if bound <= k / p and bound <= ka / (1.0 + ka) * (p / (1.0 + ka)):
        f_pivot = -1.0
    else:
        f_pivot = float(bound >= (0.25 * p if (p >= 2.0) == plus else k / p))
    c, clip = 0.0, pivot
    if f_pivot >= 0.0:
        # f = -p*log1p(k*a) < 0 at z = c/k and -p*log1p(e**c/k) < 0 at z = 0, on
        # the monotone side, as is the zero of the tangent at the pivot
        c = math.log(p) - log_t / p if plus else log_t - p * math.log1p(1.0 / k)
        far = _log_f(p, log_t, c)
        start = c / k if plus else 0.0
        if not f_pivot:
            f_pivot, slope = far(pivot - c)
            clip = pivot - f_pivot / slope
            start = min(clip - c, start) if plus else max(clip - c, start)
        if f_pivot >= 0.0:
            lo, hi, f_lo, f_hi = ((pivot - c, c / k + 1.0, f_pivot, -1.0) if plus
                                  else (0.0, pivot - c, -1.0, f_pivot))
            z = bisect_root(far, lo, hi, f_lo=f_lo, f_hi=f_hi, start=start)
        else:
            c = 0.0
    if not c:
        # b = (1 - 2r)/3, d = (1 - 6r + 6r**2)/12, e = (1 - 2r)*(1 - 12r + 12r**2)/60, r = 1/p
        n, r = math.sqrt(-2.0 * log_t * (p / k)) * (1.0 if plus else -1.0), 1.0 / p
        b, d = (1.0 - 2.0 * r) / 3.0, (1.0 - 6.0 * r * (1.0 - r)) / 12.0
        e = (1.0 - 2.0 * r) * (1.0 - 12.0 * r * (1.0 - r)) / 60.0
        start = n * (1.0 + n * (-0.5 * b + n * (0.625 * b * b - 0.5 * d
                                                + n * (b * (1.5 * d - b * b) - 0.5 * e))))
        if abs(n) > 1.0:  # past it -log F ~ M(y) at large p, and k*M(-y) near p = 1
            target = -log_t if plus else -log_t / k
            start = math.copysign(math.log1p(target + math.log1p(target)), n)
        lo, hi, f_lo, f_hi = (0.0, pivot, -log_t, f_pivot) if plus else (pivot, 0.0, f_pivot, -log_t)
        start = min(max(start, min(0.0, clip)), max(0.0, clip))
        z = bisect_root(_log_f(p, log_t, 0.0), lo, hi, f_lo=f_lo, f_hi=f_hi, start=start)
    if c < 0.0:
        half = exp_or_inf(-0.5 * log_t)
        eps = half * (math.exp(p * math.log1p(1.0 / k) - z) * half)
    else:
        eps = math.exp(log_t / p - z) / p if c else math.exp(-z)
    u = (1.0 - eps) / p if c else -math.expm1(-z) / p
    if not plus:
        return c, z, (u if abs(p * u) < INF else -INF), eps
    # p*u can round to 1 (y past 37 at p = 1e20); the float below keeps 1 - p*u > 0
    return c, z, (u if p * u < 1.0 else math.nextafter(u, 0.0)), eps


def u_plus_from_log(p: float, log_t: float) -> float:
    """Right inverse branch with t passed as log(t), exact where t would underflow."""
    return critical_root(p, log_t, "plus")[2]


def u_minus_from_log(p: float, log_t: float) -> float:
    """Left inverse branch with t passed as log(t); -inf where p*u passes the float range."""
    return critical_root(p, log_t, "minus")[2]


def u_plus(p: float, t: float) -> float:
    """Solve F(u) = t on [0, 1/p]; strictly decreasing branch."""
    require_finite(p, "u_plus")
    if math.isnan(t) or not 0.0 <= t <= 1.0:
        raise DomainError(f"u_plus requires t in [0, 1], got {t}")
    return u_plus_from_log(p, math.log(t) if t > 0.0 else -INF)


def u_minus(p: float, t: float) -> float:
    """Solve F(u) = t on (-inf, 0]; strictly increasing branch; t = 0 is refused."""
    require_finite(p, "u_minus")
    if math.isnan(t) or not 0.0 < t <= 1.0:
        raise DomainError(f"u_minus requires t in (0, 1], got {t}")
    return u_minus_from_log(p, math.log(t))


def s_pair(p: float, delta: float) -> SPair:
    """Both branch values at t = delta**-p; exactly (0, 0) at delta = 1."""
    return SPair(class_parameter(p, delta, "minus"), class_parameter(p, delta, "plus"))


def point_log_ratio(p: float, delta: float, x: DomainPoint) -> float:
    """log of x2/(delta*x1)**p for a classified x, clamped into [-p*log(delta), 0]."""
    log_t = math.log(x[1]) - p * (math.log(x[0]) + math.log(delta))
    return min(0.0, max(log_t, -p * math.log(delta)))


def r_pair(p: float, delta: float, x: DomainPoint) -> tuple[float, float]:
    """(r_minus, r_plus) at t = x2/(delta*x1)**p: s_minus <= r_minus <= 0 <= r_plus <= s_plus."""
    require_finite(p, "the point parameters")
    classify_point(p, delta, x)
    log_t = point_log_ratio(p, delta, x)
    return (u_minus_from_log(p, log_t), u_plus_from_log(p, log_t))


def point_factors(p: float, delta: float, x: DomainPoint, branch: str) -> tuple[float, ...]:
    """(r, 1 - p*r, 1 - (p-1)*r, shift + the logs of the last two, shift) at x on one branch,
    from 1 - p*r = e**-y; from the right origin shift = log(p), formed from z without it."""
    log_t = point_log_ratio(p, delta, x)
    if log_t == -INF:
        raise DomainError(f"p*log(delta) passes the float range, got p = {p}, delta = {delta}")
    c, z, r, eps = critical_root(p, log_t, branch)
    k = p - 1.0
    if c > 0.0:
        return r, eps, (1.0 + k * eps) / p, log_t / p - z, math.log1p(k * eps), math.log(p)
    # 1 - (p-1)*r cancels little while p*r <= 1/2, the left branch included
    mr = 1.0 - k * r if eps >= 0.5 else (1.0 + k * eps) / p
    return r, eps, mr, -(c + z), math.log(mr), 0.0


def branch_solver(branch: str) -> Callable[[float, float], float]:
    """The log-t solver of one branch, "plus" (q above q_star) or "minus"."""
    if branch not in ("plus", "minus"):
        raise DomainError(f"branch must be 'plus' or 'minus', got {branch!r}")
    return u_plus_from_log if branch == "plus" else u_minus_from_log


def class_parameter(p: float, delta: float, branch: str) -> float:
    """s at t = delta**-p on one branch."""
    solve = branch_solver(branch)
    require_finite(p, "the class parameter")
    validate_delta(delta)
    return solve(p, -p * math.log(delta))


def q_star(p: float, delta: float) -> float:
    """Finiteness threshold above 1, 1 + nu = (e**y + p - 1)/p of the right class
    root; delta in the p = inf limit, and +inf past the float range (p near 1)."""
    if 1.0 < p < INF and 1.0 < delta < INF:
        log_t = -p * math.log(delta)
        if log_t > -INF:  # else q_star/delta - 1 is below 6e-303
            c, z, _, _ = critical_root(p, log_t, "plus")  # e**y = p*delta*e**z if c
            return delta * exp_or_inf(z) + (p - 1.0) / p if c else 1.0 + math.expm1(z) / p
    validate_exponent(p)
    validate_delta(delta)
    return delta


def _left_exponents(p: float, delta: float) -> tuple[float, float]:
    """(e**y, -expm1(y)) of the left class root; e**y = 0 past the float range."""
    require_finite(p, "the Gehring side")
    validate_delta(delta)
    c, z, _, eps = critical_root(p, -p * math.log(delta), "minus")
    return (1.0 / eps, 1.0 - 1.0 / eps) if c else (math.exp(z), -math.expm1(z))


def gehring_gap(p: float, delta: float) -> float:
    """w = t_star - p = p*e**y/(-expm1(y)): +inf at delta = 1, 0 past the float range."""
    e, gap = _left_exponents(p, delta)
    return p * e / gap if gap else INF


def ramp_exponents(p: float, delta: float, branch: str) -> tuple[float, float, float]:
    """(nu, 1 + nu, 1 + p*nu) of the extremal ramp t**nu, nu = expm1(y)/p of the class root
    of the branch, so that 1 - p*s = 1/(1 + p*nu) of the class parameter s is never formed.
    A DomainError where q_star is +inf or 1 + p*nu underflows on the minus branch."""
    branch_solver(branch)
    if branch == "plus":
        qs, log_t = q_star(p, delta), -p * math.log(delta)
        if qs < INF and (delta == 1.0 or log_t == -INF):
            return qs - 1.0, qs, 1.0 + p * (qs - 1.0)
        if qs < INF:
            c, z, _, _ = critical_root(p, log_t, "plus")
            if c:  # e**y = p*delta*e**z
                return delta * math.exp(z) - 1.0 / p, qs, p * delta * math.exp(z)
            return math.expm1(z) / p, qs, math.exp(z)
    else:
        e, gap = _left_exponents(p, delta)
        if e > 0.0:
            return -gap / p, (p - 1.0 + e) / p, e
    raise DomainError(f"the {branch} branch at p = {p}, delta = {delta} passes the float range")


def q_sub(p: float, delta: float) -> float:
    """Mirror root (p - 1 + e**y)/p in [(p-1)/p, 1), as 1 + nu from p = 2 on."""
    e, gap = _left_exponents(p, delta)
    return (p - 1.0 + e) / p if p < 2.0 else max(1.0 - gap / p, (p - 1.0) / p)


def t_star(p: float, delta: float) -> float:
    """Self-improvement threshold -1/nu = p/(-expm1(y)) of the left class root, the root
    above p of (delta*x/(x-1))**p * (x-p)/x = 1; +inf at delta = 1."""
    gap = _left_exponents(p, delta)[1]
    return p / gap if gap else INF
