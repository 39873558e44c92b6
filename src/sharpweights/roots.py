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
q_star passes the float range.  The branches are solved in v = p*u,
whose right bracket is [0, 1] at every p.  F is evaluated through its
logarithm, since (1 - v)**(p-1) overflows double precision quickly for
large p or large |v|.  Past v = 15/16 the right branch is solved for
the gap 1 - v instead, whose digits the rounding of v loses;
``u_plus_gap_from_log`` decides the side before it solves, and every
right-branch root comes from it.

``q_star``, ``u_plus_gap_from_log`` and ``u_minus_from_log`` are the
three entry points that every root passes through, and each keeps its
last few solves (``functools.lru_cache``, typed keys), so a repeated
call returns the same float or tuple without solving again; an error is
not kept and is raised again on every call.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, NamedTuple

from .domain import (INF, DomainPoint, classify_point, exp_or_inf, require_finite,
                     validate_delta, validate_exponent)
from .errors import DomainError

# Newton steps before a solve only bisects; solves below take at most 20.
_NEWTON_STEPS = 32

# After a Newton step this small relative to x the next correction is at
# rounding level, so a residual that fails to shrink is evaluation noise.
_SMALL_STEP = 2.0**-26

# Past v = p*u = 15/16 the right branch forms u from the gap 1 - p*u.
_GAP_FROM_V = 0.9375

# Solves each root entry point keeps.  The calls at one (p, delta, x) need
# two keys each (the class and the point, or two class norms), while a
# draw of the constants_table benchmark recurs only after 180 or more
# keys, so no benchmark operation is served another's solves.
_RECENT_SOLVES = 4

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
    f(x) shares onto x, and takes the Newton step from x if it lands
    strictly inside the bracket and fewer than 32 were taken, else
    bisects.  The solve stops when the Newton correction is at most 2 ulp
    of x (tested first: at the root a correction of an ulp may point just
    outside the bracket), when no float is left inside the bracket, or
    when a small Newton step fails to shrink |f|, which is then rounding
    noise: the better point wins.  Each bisection halves the bracket,
    which starts under 2**1025 wide and holds a float only while at least
    2**-1073 wide, so a solve ends within 32 Newton steps and about 2,100
    bisections.

    ``f_lo``/``f_hi`` carry the endpoint signs, known analytically, so
    no sign rests on an endpoint evaluation that cancellation can swamp.
    ``start`` in [lo, hi] is the first point.  A missing sign change is
    a caller's bug and raises ValueError, never a guess.
    """
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if (f_lo > 0.0) == (f_hi > 0.0):
        raise ValueError(f"no sign change on bracket [{lo}, {hi}]")
    positive_at_lo = f_lo > 0.0
    x = start
    last = None  # (x, |f(x)|) before a small Newton step
    newton = 0
    while True:
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
        if newton < _NEWTON_STEPS and lo < nxt < hi:
            newton += 1
            last = (x, abs(fx)) if abs(step) <= _SMALL_STEP * abs(x) else None
        else:
            last = None
            # halved apart: 0.5*(lo + hi) overflows past about 9e307
            nxt = 0.5 * lo + 0.5 * hi
            if not lo < nxt < hi:
                return x
        x = nxt


def _branch_equation(p: float, log_t: float) -> Equation:
    """log F - log t and its slope in v = p*u, where F is
    (1 - v)**(p-1) / (1 - r*v)**p with r = (p-1)/p.

    log F is written as (p-1)*log((1-v)/(1-r*v)) - log(1-r*v), whose two
    terms cancel far less than the plain two logarithms do, both near
    v = 0 and for large |v|.  Its slope is -r*v/((1-v)*(1-r*v)).
    """

    def f(v: float) -> tuple[float, float]:
        w = v / p
        # r*v, formed from w so that w and b round as if v moved, not p
        b = (p - 1.0) * w
        # p*(v/p) can round up to 1 (v = 1 - 2**-53 at p = 1e20)
        b = v if b >= 1.0 else b
        a = w / (1.0 - b)  # 1 - (1-v)/(1-r*v)
        # a can round to 1 a rounding step below v = 1, where F vanishes
        log_f = (p - 1.0) * math.log1p(-a) - math.log1p(-b) if a < 1.0 else -INF
        # divided in two steps so that large |v| does not overflow a product
        return log_f - log_t, -(b / (1.0 - v)) / (1.0 - b)

    return f


def u_plus_from_log(p: float, log_t: float) -> float:
    """Right inverse branch with t passed as log(t): the u of
    ``u_plus_gap_from_log``.

    Taking log(t) directly keeps callers exact when t = delta**-p would
    underflow or lose digits for large p*log(delta).
    """
    return u_plus_gap_from_log(p, log_t)[0]


def _gap_equation(p: float, c: float, c_far: float) -> Equation:
    """log F - log t and its slope in z = log(m), m = p*(1 - p*u), with
    c = log(p) - log(t) and c_far = c - p*log1p(-1/p).

    With y = (p-1)*m/p, log F = (p-1)*z - p*log1p(y) + log(p); for y >= 1
    the last two terms are rewritten through log1p(1/y), so that nothing
    of size p*log(p) cancels.  The slope is (p-1-y)/(1+y).
    """
    k = p - 1.0

    def f(z: float) -> tuple[float, float]:
        y = k / p * math.exp(z)
        if y < 1.0:
            return k * z - p * math.log1p(y) + c, (k - y) / (1.0 + y)
        return c_far - z - p * math.log1p(1.0 / y), (k - y) / (1.0 + y)

    return f


@functools.lru_cache(maxsize=_RECENT_SOLVES, typed=True)
def u_plus_gap_from_log(p: float, log_t: float) -> tuple[float, float | None]:
    """(u, log(p*(1 - p*u))) on the right branch, or (u, None) where
    v = p*u <= 15/16 and 1 - p*u keeps its digits.

    Below v = 15/16 the branch is solved for v.  Past it the gap 1 - v
    has lost 4 bits to the rounding of v, and all of them once it falls
    below an ulp of 1 (large p*log(delta), or p near 1), so there the gap
    is solved from its own equation and u is formed from it.  The side is
    decided before either solve, and only one runs.  The gap is returned
    times p, which is of size 1 at large p, so that callers cancel log(p)
    instead of carrying its rounding.
    """
    if log_t == -INF:
        return 1.0 / p, None
    # log F is concave and decreasing in v on [0, 1], so Newton converges
    # monotonically from the right of the root.  Both seeds lie there:
    # log F <= -v**2/(2*k*(1 - v/k)) with k = p/(p-1), a bound equal to
    # log t at near, and F <= p**p * (1-v)**(p-1).  At log_t = 0 the root
    # is the endpoint 0 itself, where the solve stops before it starts.
    log_p = math.log(p)
    k = p / (p - 1.0)
    near = 2.0 * k / (1.0 + math.sqrt(1.0 - 2.0 * k / log_t)) if log_t else 0.0
    far = -math.expm1((log_t - p * log_p) / (p - 1.0))
    start = min(near, far, math.nextafter(1.0, 0.0))
    z = None
    # a start at or below 15/16 puts the root there too
    if start > _GAP_FROM_V:
        c, log_r = log_p - log_t, math.log1p(-1.0 / p)  # r = (p-1)/p
        c_far = c - p * log_r
        f = _gap_equation(p, c, c_far)
        # f <= (p-1)*z + c, which vanishes at lo, and v = 15/16 at hi
        lo, hi = -c / (p - 1.0), math.log(p * (1.0 - _GAP_FROM_V))
        f_hi = f(hi)[0] if lo < hi else 0.0
        if f_hi > 0.0:
            # f is concave and increasing, so Newton converges monotonically
            # from the left of the root, where lo and the gap at near lie.
            # At a root z >= 0, log1p(x) >= x/(1 + x) gives y >= p/c_far - 1,
            # and p > 2*c_far makes f(0) < 0, so the root z > 0.
            z0 = max(lo, math.log(p * (1.0 - near))) if near < 1.0 else lo
            if p > 2.0 * c_far:
                z0 = max(z0, math.log(p / c_far - 1.0) - log_r)
            z = bisect_root(f, lo, hi, f_lo=-1.0, f_hi=f_hi, start=z0)
    if z is None:
        # f(0) = -log_t >= 0 and f(1) = -inf: analytic endpoint signs.
        v = bisect_root(
            _branch_equation(p, log_t), 0.0, 1.0, f_lo=-log_t, f_hi=-INF, start=start
        )
        u = v / p
    else:
        u = -math.expm1(z - log_p) / p
    # p*u can round to 1 (v = 1 - 2**-53 at p = 1e20); the float below
    # keeps 1 - p*u positive for the callers
    return (u if p * u < 1.0 else math.nextafter(u, 0.0)), z


@functools.lru_cache(maxsize=_RECENT_SOLVES, typed=True)
def u_minus_from_log(p: float, log_t: float) -> float:
    """Left inverse branch with t passed as log(t); -inf where v = p*u
    passes the float range, so that 1 - p*u is finite whenever u is."""
    # |v|*F increases to C = (p/(p-1))**p as v -> -inf, so F(-2C/t) < t/2:
    # the left end has f < -log 2 < 0.  C and exp(-log_t) are formed apart
    # (the latter as a square) so that rounding log(C/t) does not cost 1e-13.
    k = p / (p - 1.0)
    c = math.exp(p * math.log1p(1.0 / (p - 1.0)))
    half = exp_or_inf(-0.5 * log_t)
    asymptote = -(half * c * half)
    if math.isinf(2.0 * asymptote):
        # F is evaluable while v is finite.  Past that the root is -C/t to
        # relative 2*k/|v|, far below an ulp.
        return asymptote / p
    f = _branch_equation(p, log_t)
    # log F is convex left of its inflection -sqrt(k), concave right of
    # it.  A root left of it starts from -C/t, barely left of the root once
    # far out; one right of it from where -v**2/(2*k), a lower bound of
    # log F, equals log t: right of the root, and close.
    if f(-math.sqrt(k))[0] > 0.0:
        start = asymptote
    else:
        start = -math.sqrt(-2.0 * k * log_t)
    # f(0) = -log_t >= 0 analytically, and 0 is the root at log_t = 0.
    return bisect_root(f, 2.0 * asymptote, 0.0, f_lo=-1.0, f_hi=-log_t, start=start) / p


def u_plus(p: float, t: float) -> float:
    """Solve F(u) = t on [0, 1/p]; strictly decreasing branch."""
    require_finite(p, "u_plus")
    if math.isnan(t) or not 0.0 <= t <= 1.0:
        raise DomainError(f"u_plus requires t in [0, 1], got {t}")
    return u_plus_from_log(p, math.log(t) if t > 0.0 else -INF)


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
    return SPair(class_parameter(p, delta, "minus"), class_parameter(p, delta, "plus"))


def point_log_ratio(p: float, delta: float, x: DomainPoint) -> float:
    """log of x2/(delta*x1)**p for a classified x, clamped into
    [-p*log(delta), 0]."""
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
    classify_point(p, delta, x)
    log_t = point_log_ratio(p, delta, x)
    return (u_minus_from_log(p, log_t), u_plus_from_log(p, log_t))


def point_factors(p: float, delta: float, x: DomainPoint, branch: str) -> tuple[float, ...]:
    """(r, 1 - p*r, 1 - (p-1)*r, shift + the logs of the last two, shift) at x on one branch.
    Past v = p*r = 15/16 the factors come from the gap 1 - p*r, solved on its own, and the
    logs are of p times them (shift = log(p)), of size 1 at large p."""
    log_t = point_log_ratio(p, delta, x)
    if log_t == -INF:
        raise DomainError(f"p*log(delta) passes the float range, got p = {p}, delta = {delta}")
    r, log_m = (u_plus_gap_from_log(p, log_t) if branch == "plus"
                else (u_minus_from_log(p, log_t), None))
    if log_m is None:
        a, b = math.log1p(-p * r), math.log1p(-(p - 1.0) * r)
        return r, 1.0 - p * r, 1.0 - (p - 1.0) * r, a, b, 0.0
    m, v = math.exp(log_m), p * r  # m = p*(1 - p*r)
    return r, m / p, (m + v) / p, log_m, math.log(m + v), math.log(p)


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


@functools.lru_cache(maxsize=_RECENT_SOLVES, typed=True)
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
    if delta == 1.0:
        return INF
    return -1.0 / class_parameter(p, delta, "minus")


def ramp_exponents(p: float, delta: float, branch: str) -> tuple[float, float, float]:
    """(nu, 1 + nu, 1 + p*nu) of the extremal ramp t**nu: q_star - 1 on the plus branch,
    -1/t_star = -1/(p + w) on the minus one, so that 1 - p*s = 1/(1 + p*nu) of the class
    parameter s is never formed.  A DomainError where q_star is +inf or w is 0."""
    branch_solver(branch)
    if branch == "plus":
        qs = q_star(p, delta)
        if qs < INF:
            return qs - 1.0, qs, 1.0 + p * (qs - 1.0)
    else:
        w = gehring_gap(p, delta)
        t = p + w
        if w > 0.0:
            return (-1.0 / t, (p - 1.0 + w) / t, w / t) if w < INF else (0.0, 1.0, 1.0)
    raise DomainError(f"the {branch} branch at p = {p}, delta = {delta} passes the float range")


def q_sub(p: float, delta: float) -> float:
    """Mirror root of the threshold equation in [(p-1)/p, 1): equal to
    1 - 1/t_star, formed as (p - 1 + w)/(p + w) to avoid cancellation."""
    w = gehring_gap(p, delta)
    return 1.0 if math.isinf(w) else (p - 1.0 + w) / (p + w)


def t_star(p: float, delta: float) -> float:
    """Self-improvement threshold p + w, the root above p of
    (delta*x/(x-1))**p * (x-p)/x = 1, or +inf at delta = 1."""
    return p + gehring_gap(p, delta)
