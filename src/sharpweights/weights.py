"""The ramp-plateau power weight family and its exact functionals.

A weight here is w(t) = c*(t/a)**nu on [0, a) and w(t) = c on [a, 1].
Every moment, subinterval average, and class norm it needs has a closed
form, which makes two things possible: exact extremal-weight
construction from a domain point (the weight whose averages hit the
point and whose class norm is exactly delta), and an exact supremum
oracle over all dyadic subintervals, O(1) per pair via prefix
integrals, that skips the blocks of pairs a bound rules out.

The supremum oracle is the numeric court of appeal for every sharpness
claim: the closed-form constants must be attained by these weights, and
``sup_ratio_search`` checks exactly that.

Only the oracle needs arrays, so NumPy and the pair scan are imported
inside the functions that use them: the scalar API and the CLI commands
other than ``verify`` never load NumPy.
"""

from __future__ import annotations

import functools
import math
import operator
from collections import namedtuple
from typing import TYPE_CHECKING

from . import roots
from .domain import INF, DomainPoint, classify_point, exp_or_inf, power_or_inf, require_finite
from .errors import DomainError

if TYPE_CHECKING:
    import numpy as np


class PowerWeight(namedtuple("PowerWeight", "c a nu")):
    """Ramp exponent nu on [0, a), constant plateau c on [a, 1]."""

    __slots__ = ()

    def __new__(cls, c: float, a: float, nu: float) -> PowerWeight:
        if not c > 0.0 or math.isinf(c) or math.isnan(c):
            raise DomainError(f"plateau value c must be a positive real, got {c}")
        if math.isnan(a) or not 0.0 < a <= 1.0:
            raise DomainError(f"breakpoint a must lie in (0, 1], got {a}")
        if math.isnan(nu) or math.isinf(nu):
            raise DomainError(f"ramp exponent nu must be a finite real, got nu = {nu}")
        return super().__new__(cls, c, a, nu)

    def __call__(self, t: float) -> float:
        """Pointwise value; the origin maps per the sign of nu."""
        if t >= self.a:
            return self.c
        if t == 0.0:
            if self.nu > 0.0:
                return 0.0
            if self.nu == 0.0:
                return self.c
            return INF
        return self.c * (t / self.a) ** self.nu


class FunctionalKind(namedtuple("FunctionalKind", "name exponent")):
    """Which subinterval functional to evaluate.

    Construct through the classmethods; `exponent` carries q for the
    moment functional and p for the power-ratio functional, and is None
    for the two limiting kinds.
    """

    __slots__ = ()

    def __new__(cls, name: str, exponent: float | None = None) -> FunctionalKind:
        if name not in ("aq", "ainf", "rhp", "rhinf"):
            raise DomainError(f"unknown functional kind {name!r}")
        if name in ("aq", "rhp"):
            if exponent is None or not 1.0 < exponent < INF:
                raise DomainError(f"{name} needs a finite exponent > 1, got exponent = {exponent}")
        elif exponent is not None:
            raise DomainError(f"{name} takes no exponent, got exponent = {exponent}")
        return super().__new__(cls, name, exponent)

    @classmethod
    def aq(cls, q: float) -> "FunctionalKind":
        return cls("aq", q)

    @classmethod
    def a_inf(cls) -> "FunctionalKind":
        return cls("ainf")

    @classmethod
    def rh_p(cls, p: float) -> "FunctionalKind":
        return cls("rhp", p)

    @classmethod
    def rh_inf(cls) -> "FunctionalKind":
        return cls("rhinf")


def _validate_interval(alpha: float, beta: float) -> None:
    if math.isnan(alpha) or math.isnan(beta) or not 0.0 <= alpha < beta <= 1.0:
        raise DomainError(f"need 0 <= alpha < beta <= 1, got [{alpha}, {beta}]")


def _validate_theta(theta: float) -> None:
    if not math.isfinite(theta):
        raise DomainError(f"the power theta must be a finite real, got theta = {theta}")


def moment(w: PowerWeight, theta: float) -> float:
    """Average of w**theta over [0, 1]; +inf when theta*nu <= -1 or where
    the average passes the float range.  Past 1 + theta*nu = inf it is
    c**theta*(1 - a), or c**theta/(theta*nu) at a = 1."""
    _validate_theta(theta)
    tn = theta * w.nu
    if tn <= -1.0:
        return INF
    num, den = 1.0 + (1.0 - w.a) * tn, 1.0 + tn
    if den == INF:
        if w.a == 1.0:
            return exp_or_inf(theta * math.log(w.c) - math.log(abs(theta)) - math.log(abs(w.nu)))
        num, den = 1.0 - w.a, 1.0
    value = power_or_inf(w.c, theta) * num / den  # in logs where c**theta or c**theta * num overflows
    return value if value < INF else exp_or_inf(theta * math.log(w.c) + math.log(num / den))


def interval_moment(w: PowerWeight, theta: float, alpha: float, beta: float) -> float:
    """Average of w**theta over [alpha, beta], in closed form.

    +inf exactly when the interval touches 0 and theta*nu <= -1.  The
    ramp term (ramp_hi**e - alpha**e)/(e*a**(theta*nu)), with e =
    theta*nu + 1, is formed as a*(larger/a)**e times
    -expm1(-|e|*log(ramp_hi/alpha))/|e|, with larger the endpoint of the
    larger power: this cancels neither for small |e| nor on short
    intervals, and underflows only where the value does.  e = 0 is its
    log limit.
    """
    _validate_interval(alpha, beta)
    _validate_theta(theta)
    tn = theta * w.nu
    a = w.a
    total = 0.0
    if alpha < a:
        if alpha == 0.0 and tn <= -1.0:
            return INF
        e = tn + 1.0
        ramp_hi = min(beta, a)
        log_ratio = math.log1p((ramp_hi - alpha) / alpha) if alpha > 0.0 else INF
        if e == 0.0:
            total += a * log_ratio
        else:
            larger = ramp_hi if e > 0.0 else alpha
            total += a * (larger / a) ** e * -math.expm1(-abs(e) * log_ratio) / abs(e)
    if beta > a:
        total += beta - max(alpha, a)
    return w.c**theta * total / (beta - alpha)


def log_moment(w: PowerWeight, alpha: float, beta: float) -> float:
    """Average of log w over [alpha, beta]; always finite.

    The average of log(t/a) over the ramp part [alpha, ramp_hi] is
    log(ramp_hi/a) - 1 + log1p(r)/r with r = (ramp_hi - alpha)/alpha,
    which subtracts no two nearly equal antiderivatives on short
    intervals.  The last term is 0 at alpha = 0, and below 1e-305 where
    r passes the float range.
    """
    _validate_interval(alpha, beta)
    total = math.log(w.c)
    ramp_hi = min(beta, w.a)
    if alpha < ramp_hi:
        r = (ramp_hi - alpha) / alpha if alpha > 0.0 else INF
        ramp = math.log(ramp_hi / w.a) - 1.0 + (math.log1p(r) / r if r < INF else 0.0)
        total += w.nu * ramp * ((ramp_hi - alpha) / (beta - alpha))
    return total


def ess_sup(w: PowerWeight, alpha: float, beta: float) -> float:
    """Essential supremum over [alpha, beta] for nondecreasing weights."""
    _validate_interval(alpha, beta)
    if w.nu < 0.0:
        raise DomainError(f"ess_sup supports nonnegative ramp exponents only, got nu = {w.nu}")
    if beta >= w.a:
        return w.c
    return w.c * (beta / w.a) ** w.nu


def rhp_norm_closed(w: PowerWeight, p: float) -> float:
    """Class norm sup over J of <w**p>_J**(1/p) / <w>_J, in closed form.

    Depends only on nu: (1 + nu)/(1 + p*nu)**(1/p).
    """
    require_finite(p, "the RH_p norm (rhinf_norm_closed covers p = inf)")
    if not w.nu > -1.0 / p:
        raise DomainError(f"nu must exceed -1/p = {-1.0 / p}, got {w.nu}")
    return (1.0 + w.nu) / (1.0 + p * w.nu) ** (1.0 / p)


def rhinf_norm_closed(w: PowerWeight) -> float:
    """Class norm sup over J of ess sup_J w / <w>_J; equals nu + 1."""
    if w.nu < 0.0:
        raise DomainError(f"the sup-over-average norm needs nu >= 0, got nu = {w.nu}")
    return w.nu + 1.0


def extremal_weight(p: float, delta: float, x: DomainPoint, branch: str) -> PowerWeight:
    """The weight whose averages realize x with class norm exactly delta.

    Finite p: nu = s/(1 - p*s) with s the branch value of the class
    parameter, breakpoint from the point parameter r of the same
    branch; on the lower curve (or at delta = 1) the weight degenerates
    to the constant x1.  p = inf: nu = delta - 1 with x = (<w>, sup w).
    On the upper curve, as classify_point decides it, r = 0 and a = 1:
    the weight is the pure power, however (delta*x1)**p rounds.
    `branch` is "plus" (moment regimes above the band) or "minus" (the
    self-improvement regime).
    """
    solve = roots.branch_solver(branch)  # refuses an unknown name before any shortcut
    side = classify_point(p, delta, x)
    x1, x2 = x
    if side == "lower":
        return PowerWeight(c=x1, a=1.0, nu=0.0)
    if math.isinf(p):
        a = 1.0 if side == "upper" else (1.0 - x1 / x2) / (1.0 - 1.0 / delta)
        return PowerWeight(c=x2, a=min(a, 1.0), nu=delta - 1.0)
    s = roots.class_parameter(p, delta, branch)
    r = 0.0 if side == "upper" else solve(p, roots.point_log_ratio(p, delta, x))
    nu = s / (1.0 - p * s)
    a = (s - r) / (s * (1.0 - p * r))
    # s <= 0 pins nu into (-1/p, 0] in exact arithmetic, but for large
    # p*log(delta) the rounded nu can reach -1/p, where w**p stops being
    # integrable, and past the float range s is -inf and nu is nan.  On
    # the plus branch near p = 1, s and r can round to one float next to
    # 1/p, which collapses the ramp to a = 0.
    if not (nu > -1.0 / p and a > 0.0):
        raise DomainError(
            f"the {branch} branch at p = {p}, delta = {delta} gives s = {s}, r = {r}: "
            f"ramp exponent {nu} and breakpoint {a}, outside nu > -1/p, a > 0"
        )
    c = (
        x1
        * (1.0 - p * r)
        * (1.0 - (p - 1.0) * s)
        / ((1.0 - (p - 1.0) * r) * (1.0 - p * s))
    )
    return PowerWeight(c=c, a=min(a, 1.0), nu=nu)


def functional_ratio(
    w: PowerWeight, kind: FunctionalKind, alpha: float, beta: float
) -> float:
    """The chosen functional on [alpha, beta] via the closed forms, on the
    weight with c = 1, as each functional is invariant under scaling it."""
    w = w._replace(c=1.0)
    avg = interval_moment(w, 1.0, alpha, beta)
    if kind.name == "aq":
        q = kind.exponent
        dual = interval_moment(w, -1.0 / (q - 1.0), alpha, beta)
        if math.isinf(avg) or math.isinf(dual):
            return INF
        return avg * dual ** (q - 1.0)
    if kind.name == "ainf":
        if math.isinf(avg):
            return INF
        return avg * math.exp(-log_moment(w, alpha, beta))
    if kind.name == "rhp":
        t = kind.exponent
        if math.isinf(avg):
            raise DomainError(f"the plain average is infinite on [{alpha}, {beta}]")
        power = interval_moment(w, t, alpha, beta)
        if math.isinf(power):
            return INF
        return power ** (1.0 / t) / avg
    return ess_sup(w, alpha, beta) / avg


def _grid_parts(grid: np.ndarray, a: float) -> tuple:
    """The weight-independent arrays of a search on ``grid``, strictly
    increasing with a point at or above a: (grid, ramp, ratio, tail, log).
    The grid holds a, inserted where it is not a point of it, at index ramp;
    ratio is m/a and log m (log(m/a) - 1), the log prefix's integrand (0
    where m <= 0), with m = min(g, a); tail is g - a past the ramp."""
    import numpy as np

    ramp = int(grid.searchsorted(a))
    if grid[ramp] != a:
        grid = np.insert(grid, ramp, a)
    m = np.minimum(grid, a)
    log = np.zeros_like(grid)
    mask = m > 0.0
    log[mask] = m[mask] * (np.log(m[mask] / a) - 1.0)
    return grid, ramp, m / a, grid[ramp + 1 :] - a, log


# The searches of a certificate, and of a `verify`, share one (depth, a), so two
# entries suffice: three arrays of n floats each (3 MB at depth 17), and the
# tail past a.
_GRIDS = 2


@functools.lru_cache(maxsize=_GRIDS)
def _dyadic_parts(depth: int, a: float) -> tuple:
    """_grid_parts of the dyadic grid of 2**depth + 1 points, its arrays read-only."""
    import numpy as np

    n = (1 << depth) + 1
    parts = _grid_parts(np.arange(n, dtype=np.float64) / float(n - 1), a)
    for x in parts:
        if isinstance(x, np.ndarray):
            x.flags.writeable = False
    return parts


def _prefix_power(parts: tuple, a: float, nu: float, theta: float) -> np.ndarray:
    """Integral of (w/c)**theta from 0 to each point of the grid of ``parts``
    (those of a); needs theta*nu + 1 > 0."""
    _, ramp, ratio, tail, _ = parts
    e = theta * nu + 1.0
    out = ratio**e
    out *= a / e
    out[ramp + 1 :] += tail
    return out


def max_pair_ratio(grid, p1, p2, e1, e2, cap, mode, ramp):
    """The pair scan of ``_pairscan``, imported on the first call.

    A plain module attribute, so that callers which wrap or replace
    ``weights.max_pair_ratio`` see every scan ``sup_ratio_search`` makes.
    """
    from ._pairscan import max_pair_ratio as scan

    return scan(grid, p1, p2, e1, e2, cap, mode, ramp)


# On the extremal weights the scan's memory grows with the points, not with the
# block pairs: a process making one depth-17 aq(10) search of the p = 2 weight
# peaks at 36 MB RSS, interpreter, NumPy and the cached grid arrays included, and
# at depth 18 at 41 MB.  The cap stays at 17, as no check of the constants needs
# a finer grid.
_MAX_DEPTH = 17


def sup_ratio_search(
    w: PowerWeight,
    kind: FunctionalKind,
    depth: int,
) -> tuple[float, tuple[float, float]]:
    """Maximum of functional_ratio over intervals with endpoints on the
    dyadic grid of size 2**depth, depth in [1, _MAX_DEPTH], plus the
    breakpoint a.

    Returns (sup, (alpha, beta)).  The search is exact over all pairs:
    prefix integrals make each pair O(1), and blocks of pairs are
    skipped only when a bound proves none of them reaches the maximum.
    All four functionals are invariant under scaling the weight, so the
    scan normalizes c to 1.  The weight is monotone, so a block of pairs
    is bounded by its two extreme corners, and on [0, a], where it is a
    power, also by its corner value (see ``_pairscan``); a is always a
    grid point, and its index the ramp the scan takes.
    The arrays that do not depend on nu (the grid with a, the ramp, min(g, a)/a,
    g - a past a and the log prefix's integrand) are built once per (depth, a)
    and kept read-only (``_dyadic_parts``), so a search takes one pow of the
    kept ratio per power prefix, a multiply for the log prefix and a pow for
    the cap.
    Intervals touching 0 with a divergent moment make the result +inf
    with the canonical witness (0, min(a, 1)).  A constant weight (nu = 0)
    scores exactly 1 on every interval, so it returns 1 with the first
    interval, (0, first grid point), without a scan.
    """
    try:
        depth = operator.index(depth)
    except TypeError:
        raise DomainError(f"depth must be an integer, got depth = {depth}") from None
    if not 1 <= depth <= _MAX_DEPTH:
        raise DomainError(f"depth must lie in [1, {_MAX_DEPTH}], got depth = {depth}")
    nu = w.nu
    a = w.a
    # Power-prefix exponents (the plain average first), the mode's
    # exponents, and the mode.  ainf adds the log prefix; rhinf
    # reads only the first prefix and the cap.
    if kind.name == "aq":
        q = kind.exponent
        thetas, e1, e2, mode = (1.0, -1.0 / (q - 1.0)), 1.0, q - 1.0, 0
    elif kind.name == "rhp":
        thetas, e1, e2, mode = (1.0, kind.exponent), -1.0, 1.0 / kind.exponent, 0
    elif kind.name == "ainf":
        thetas, e1, e2, mode = (1.0,), 0.0, 0.0, 1
    else:
        if nu < 0.0:
            raise DomainError(f"the sup-over-average search needs nu >= 0, got nu = {nu}")
        thetas, e1, e2, mode = (1.0,), 0.0, 0.0, 2
    if any(theta * nu <= -1.0 for theta in thetas):
        return INF, (0.0, a)
    if nu == 0.0:
        return 1.0, (0.0, min(a, 2.0**-depth))
    parts = _dyadic_parts(depth, a)
    grid, ramp, ratio, _, log = parts
    prefixes = [_prefix_power(parts, a, nu, theta) for theta in thetas]
    if mode == 1:
        prefixes.append(nu * log)
    p1, p2 = prefixes[0], prefixes[-1]
    cap = ratio**nu if mode == 2 else p1
    best, i, j = max_pair_ratio(grid, p1, p2, e1, e2, cap, mode, ramp)
    return float(best), (float(grid[i]), float(grid[j]))
