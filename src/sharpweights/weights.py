"""The ramp-plateau power weight family and its exact functionals.

A weight here is w(t) = c*(t/a)**nu on [0, a) and w(t) = c on [a, 1].
Every moment, subinterval average and class norm it needs has a closed
form, which gives exact extremal weights (the weight whose averages hit a
domain point with class norm exactly delta) and a supremum oracle over all
dyadic subintervals, ``sup_ratio_search``: the numeric court of appeal for
every sharpness claim, as the closed-form constants must be attained by
these weights.  By the corner lemma below the oracle scores one pair in
closed form, so no part of the package needs arrays or NumPy.

The corner lemma.  Let F(alpha, beta) be A_q, A_inf, RH_t or RH_inf of w
on [alpha, beta].  Then F is nonincreasing in alpha for each beta, and
F(0, beta) is constant for beta <= a and nonincreasing for beta >= a.  So
the supremum over every subinterval of [0, 1], and over the pairs of every
grid that holds 0 and a, is F(0, a) = Phi(0), the functional of t**nu on
[0, 1], which depends only on nu and the kind.  Proof: take U = alpha +
(beta - alpha) V, V uniform on [0, 1], Y = nu log(min(U, a)/a) and the log
power mean M_s = log(E exp(s Y))/s (M_0 = E Y, M_inf = max Y).  log F is
M_1 - M_s for A_q (s = -1/(q - 1)) and A_inf (s = 0), and M_s - M_1 for
RH_t (s = t > 1) and RH_inf (s = inf).  dY/dalpha = h(Y) = nu (beta - U)/
(U (beta - alpha)) on the ramp and 0 on the plateau, and h is nonincreasing
in Y for either sign of nu: on the ramp (beta - U)/U falls as U grows, and
the plateau, where h = 0, is where Y is at its top for nu > 0 (h > 0 on the
ramp) and at its bottom for nu < 0 (h < 0).  dM_s/dalpha is the mean of
h(Y) under the law tilted by exp(s Y), whose s-derivative is the tilted
covariance of Y and h(Y), <= 0 by Chebyshev's integral inequality (Hardy,
Littlewood and Polya, Inequalities, 1934), so it falls as s grows and
d log F/dalpha <= 0.  At alpha = 0, dY/dbeta is nu/beta on the ramp and 0
on the plateau, also nonincreasing in Y, so the same step gives d log
F/dbeta <= 0, with equality for beta <= a, where h is constant.  The lemma
needs the ramp-plateau form: on the monotone weight 1 on [0, 1/2] and 4
past it, A_inf is 1.25 on [0.4, 0.6] and 1.19 on [0, 0.6].
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple

from . import roots
from .domain import INF, DomainPoint, classify_point, exp_or_inf, power_or_inf, require_finite
from .errors import DomainError

# The relative move of x, from the rounding of a and nu, past which extremal_weight refuses.
_WEIGHT_RTOL = 1e-10


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
        """Pointwise value on [0, 1]; the origin maps per the sign of nu."""
        if not 0.0 <= t <= 1.0:
            raise DomainError(f"the point t must lie in [0, 1], got t = {t}")
        if t >= self.a:
            return self.c
        if t == 0.0:
            return 0.0 if self.nu > 0.0 else self.c if self.nu == 0.0 else INF
        return self.c * (t / self.a) ** self.nu


class FunctionalKind(namedtuple("FunctionalKind", "name exponent")):
    """Which subinterval functional to evaluate, built through the classmethods:
    `exponent` is q for A_q, p for RH_p, and None for the two limiting kinds."""

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


def moment(w: PowerWeight, theta: float) -> float:
    """Average of w**theta over [0, 1]: interval_moment on [0, 1]."""
    return interval_moment(w, theta, 0.0, 1.0)


def interval_moment(w: PowerWeight, theta: float, alpha: float, beta: float) -> float:
    """Average of w**theta over [alpha, beta], +inf exactly where the interval touches 0
    and theta*nu <= -1 or where the average passes the float range.  The ramp term, with
    e = theta*nu + 1, is a*(larger/a)**e * -expm1(-|e|*log(ramp_hi/alpha))/|e|, larger the
    endpoint of the larger power, which cancels neither for small |e| nor on short
    intervals (e = 0 is its log limit); m**theta <(w/m)**theta> in logs where the sum is
    not finite and nonzero."""
    _validate_interval(alpha, beta)
    if not math.isfinite(theta):
        raise DomainError(f"the power theta must be a finite real, got theta = {theta}")
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
            total += a * power_or_inf(larger / a, e) * -math.expm1(-abs(e) * log_ratio) / abs(e)
    if beta > a:
        total += beta - max(alpha, a)
    value = power_or_inf(w.c, theta) * total / (beta - alpha)
    if 0.0 < value < INF:
        return value
    return exp_or_inf(theta * (_log_top(w, beta) + _log_mean(w, theta, alpha, beta)))


def _log_top(w: PowerWeight, beta: float) -> float:
    """log m, m = w(min(beta, a)): the top of the ramp of an interval that ends at beta."""
    return math.log(w.c) + (w.nu * math.log(beta / w.a) if beta < w.a else 0.0)


def _log_mean(w: PowerWeight, lam: float, alpha: float, beta: float) -> float:
    """G = log <(w/m)**lam>/lam over [alpha, beta], the log lam power mean of w/m with m =
    w(min(beta, a)), and <log(w/m)> at lam = 0; +-inf where <(w/m)**lam> diverges at 0.

    w/m is 1 on the plateau and (t/h)**k on the ramp [alpha, h], h = min(beta, a), k = lam
    nu.  With share = (h - alpha)/(beta - alpha), r = (h - alpha)/alpha, L = log1p(r) and
    T = -expm1(-k L)/(k r) (0 at alpha = 0), G = log1p(lam B)/lam, lam B = <(w/m)**lam - 1>
    = share (T - 1)/(1 + 1/k), keeps its digits however small k is where k > -1/2 and lam B
    lies in [-1/2, 1].  Elsewhere G = log(share M + 1 - share)/lam, log M = log1p(1/r) +
    log(-expm1(-|e| L)/|e|) + max(-e L, 0), e = k + 1 (log L for the middle term at e = 0),
    the last term over lam, big = -(nu + 1/lam) L, added apart: two means whose bigs round
    alike differ by the rest.  Only here may k pass the float range: |e| is then |lam nu| in
    logs.  At |k| <= 1e-20 G is the log mean nu share (L/r - 1) to the last bit.  G has the
    sign of -nu, so log m + G is never inf - inf."""
    nu, h = w.nu, min(beta, w.a)
    if alpha >= h:
        return 0.0  # on the plateau, where w = m
    share, r = (h - alpha) / (beta - alpha), (h - alpha) / alpha if alpha > 0.0 else INF
    ell, k = math.log1p(r), lam * nu
    if abs(k) <= 1e-20:
        return nu * share * ((ell / r if r < INF else 0.0) - 1.0)
    if alpha == 0.0 and k <= -1.0:
        return INF / lam
    if k > -0.5:
        t = -math.expm1(-k * ell) / (k * r) if r < INF else 0.0
        lam_b = share * (t - 1.0) / (1.0 + 1.0 / k)
        if -0.5 <= lam_b <= 1.0:
            return math.log1p(lam_b) / lam
    e = k + 1.0
    y = abs(e) * ell
    log_e = math.log(abs(lam)) + math.log(abs(nu)) if math.isinf(e) else math.log(abs(e) or 1.0)
    log_m = (math.log(-math.expm1(-y)) if e else math.log(ell)) - log_e
    log_m += math.log1p(1.0 / r) + math.log(share)  # log(share M) less lam big
    big, y = (-(nu + 1.0 / lam) * ell, y) if e < 0.0 else (0.0, 0.0)
    log_p = math.log((beta - w.a) / (beta - alpha)) if beta > w.a else -INF  # the plateau's share
    x = log_p - log_m - y
    if x <= 0.0:
        return big + (log_m + math.log1p(math.exp(x))) / lam
    return (log_p + math.log1p(math.exp(-x))) / lam


def log_moment(w: PowerWeight, alpha: float, beta: float) -> float:
    """Average of log w over [alpha, beta]; always finite: log m + <log(w/m)>."""
    _validate_interval(alpha, beta)
    return _log_top(w, beta) + _log_mean(w, 0.0, alpha, beta)


def ess_sup(w: PowerWeight, alpha: float, beta: float) -> float:
    """Essential supremum over [alpha, beta] for nondecreasing weights."""
    _validate_interval(alpha, beta)
    if w.nu < 0.0:
        raise DomainError(f"ess_sup supports nonnegative ramp exponents only, got nu = {w.nu}")
    if beta >= w.a:
        return w.c
    return w.c * (beta / w.a) ** w.nu


def rhp_norm_closed(w: PowerWeight, p: float) -> float:
    """Class norm sup over J of <w**p>_J**(1/p) / <w>_J, in closed form:
    it depends only on nu, (1 + nu)/(1 + p*nu)**(1/p)."""
    require_finite(p, "the RH_p norm (rhinf_norm_closed covers p = inf)")
    if not w.nu > -1.0 / p:
        raise DomainError(f"nu must exceed -1/p = {-1.0 / p}, got {w.nu}")
    if p * w.nu == INF:  # 1 + p nu = p nu to the last bit, taken apart
        return (1.0 + w.nu) / (p ** (1.0 / p) * w.nu ** (1.0 / p))
    return (1.0 + w.nu) / (1.0 + p * w.nu) ** (1.0 / p)


def rhinf_norm_closed(w: PowerWeight) -> float:
    """Class norm sup over J of ess sup_J w / <w>_J; equals nu + 1."""
    if w.nu < 0.0:
        raise DomainError(f"the sup-over-average norm needs nu >= 0, got nu = {w.nu}")
    return w.nu + 1.0


def extremal_weight(p: float, delta: float, x: DomainPoint, branch: str) -> PowerWeight:
    """The weight whose averages realize x with class norm exactly delta.

    Finite p: nu is the ramp exponent of the branch, q_star - 1 (plus) or -1/t_star (minus),
    and with the point parameter r of that branch a = 1 - r/(nu*(1 - p*r)) and c = x1*(1 +
    nu)*(1 - p*r)/(1 - (p-1)*r).  On the upper curve, as classify_point decides it, r = 0, so
    a = 1; on the lower curve (or at delta = 1) the constant x1.  p = inf: nu = delta - 1 with
    x = (<w>, sup w).  `branch` is "plus" (moment regimes above the band) or "minus" (the
    self-improvement regime).  A DomainError naming p, delta and x where the rounding of the
    float a or nu would move x by more than _WEIGHT_RTOL.
    """
    roots.branch_solver(branch)  # refuses an unknown name before any shortcut
    side = classify_point(p, delta, x)
    x1, x2 = x
    if side == "lower":
        return PowerWeight(c=x1, a=1.0, nu=0.0)
    if math.isinf(p):
        a = 1.0 if side == "upper" else (1.0 - x1 / x2) / (1.0 - 1.0 / delta)
        return PowerWeight(c=x2, a=min(a, 1.0), nu=delta - 1.0)
    nu, one_nu, one_pnu = roots.ramp_exponents(p, delta, branch)
    r, eps, mr = ((0.0, 1.0, 1.0) if side == "upper"
                  else roots.point_factors(p, delta, x, branch)[:3])
    # near a = 0, 1 - r/(nu*(1 - p*r)) loses about 1/a ulp and (1 - r*(1 + p*nu)/nu)/(1 - p*r)
    # 1/(a*(1 - p*r)): the first on the plus branch, where 1 - p*r <= 1, the second on the minus
    a = 1.0 - r / (nu * eps) if branch == "plus" else (1.0 - r * one_pnu / nu) / eps
    # a is off by min(u, 1 - a) and nu by u relative, which move x2 by p*nu*(1 - p*r) and
    # p*nu/(1 + p*nu) times that (x1 and the norm by less): too short a plateau (p near 1)
    # or nu too near -1/p (large p*log(delta)) is refused
    u = 2.0**-53
    moved = p * (min(abs(nu) * eps * u, abs(r)) + (abs(nu) * u / one_pnu if one_pnu > 0.0 else INF))
    if not (a > 0.0 and moved <= _WEIGHT_RTOL):
        raise DomainError(f"the {branch} branch at p = {p}, delta = {delta}, x = {x} gives "
                          f"nu = {nu} and a = {a}, which move x by more than {_WEIGHT_RTOL}")
    return PowerWeight(c=x1 * (one_nu * eps / mr), a=a, nu=nu)


def _box_cox_exponent(kind: FunctionalKind) -> float:
    """lam of A_q, A_inf and RH_t: -1/(q - 1), 0 and t (0 for RH_inf)."""
    return -1.0 / (kind.exponent - 1.0) if kind.name == "aq" else kind.exponent or 0.0


def functional_ratio(w: PowerWeight, kind: FunctionalKind, alpha: float, beta: float) -> float:
    """The chosen functional on [alpha, beta] via the closed forms: exp(+-(G_1 - G)), G_1
    and G the log power means of w/m (_log_mean) at lam = 1 and at lam = -1/(q - 1), 0 and
    t, and G = 0 for RH_inf (ess sup w = m); m cancels, and so any c gives the same value."""
    _validate_interval(alpha, beta)
    g1 = _log_mean(w, 1.0, alpha, beta)
    if kind.name == "rhinf":
        ess_sup(w, alpha, beta)  # refuses nu < 0
        return exp_or_inf(-g1)
    lam = _box_cox_exponent(kind)
    if lam > 0.0 and g1 == INF:
        raise DomainError(f"the plain average is infinite on [{alpha}, {beta}]")
    g = _log_mean(w, lam, alpha, beta)
    return exp_or_inf(g1 - g if lam <= 0.0 else g - g1)


def max_pair_ratio(grid, avg, box_cox, center, lam, cap, mode, ramp):
    """The functional on the one pair of ``grid``, (0, g): (value, 0, 1).  avg, box_cox and
    cap are the averages over [0, g] of v = w/w(g), of v**lam - center (of log v at lam =
    0) and ess sup v; v stands for w, as each functional is invariant under scaling.  Mode
    2 scores cap / A, modes 0 and 1 A exp(-G), or exp(G) / A where lam > 0: +-G =
    log(center + B) / |lam|, B = box_cox, and -G = -B at lam = 0; where exp(-G) alone
    passes the float range, A exp(-G) is formed from two halves of it.  It reads neither
    the grid nor the ramp, which it takes so that callers which wrap it see each search's
    pair as a module attribute."""
    if mode == 2:
        return cap / avg, 0, 1
    g = (math.log1p(box_cox) if center else math.log(box_cox)) / abs(lam) if lam else -box_cox
    e = exp_or_inf(g)
    if lam > 0.0:
        return e / avg, 0, 1
    if e == INF:
        e = exp_or_inf(0.5 * g)
        return e * avg * e, 0, 1
    return e * avg, 0, 1


# No check of the constants needs a grid finer than this depth.
_MAX_DEPTH = 17


def sup_ratio_search(w: PowerWeight, kind: FunctionalKind, depth: int) -> tuple[float, tuple[float, float]]:
    """Maximum of functional_ratio over intervals with endpoints on the
    dyadic grid of size 2**depth, depth in [1, _MAX_DEPTH], plus the
    breakpoint a: (sup, (alpha, beta)).

    By the corner lemma (see the module docstring) every pair (0, g) with
    g <= a attains the maximum over all pairs, Phi(0), the functional of
    t**nu on [0, 1], so the value does not depend on the depth, and the
    witness is the first pair of that tie, (0, min(a, 2**-depth)).
    ``max_pair_ratio`` scores it from the averages over [0, g] of v =
    w/w(g) = (t/g)**nu, which are closed: with k = lam nu, <v> = 1/(1 +
    nu), the cap 1, <log v> = -nu, and B = <v**lam - 1> = -k/(1 + k) where
    k <= 1, so that 1 + B >= 1/2 and log1p(B)/lam keeps its digits however
    small lam is, else <v**lam> = 1/(1 + k).  A_q, A_inf and RH_t are <v>
    exp(-G) or its reciprocal, G the Box-Cox mean at lam = -1/(q - 1), 0
    and t.  A divergent moment at 0 makes the result +inf with the witness
    (0, a); a constant weight (nu = 0) scores exactly 1 on every interval.
    """
    try:
        depth = operator.index(depth)
    except TypeError:
        raise DomainError(f"depth must be an integer, got depth = {depth}") from None
    if not 1 <= depth <= _MAX_DEPTH:
        raise DomainError(f"depth must lie in [1, {_MAX_DEPTH}], got depth = {depth}")
    nu, a = w.nu, w.a
    if kind.name == "rhinf" and nu < 0.0:
        raise DomainError(f"the sup-over-average search needs nu >= 0, got nu = {nu}")
    lam, mode = _box_cox_exponent(kind), {"aq": 0, "rhp": 0, "ainf": 1, "rhinf": 2}[kind.name]
    k = lam * nu
    if nu <= -1.0 or k <= -1.0:
        return INF, (0.0, a)
    witness = (0.0, min(a, 2.0**-depth))
    if k == INF:  # <v**t> has no float; the closed class norm takes 1 + t nu apart
        return rhp_norm_closed(w, lam), witness
    center = k <= 1.0
    box_cox = -nu if not lam else -k / (1.0 + k) if center else 1.0 / (1.0 + k)
    best = max_pair_ratio(witness, 1.0 / (1.0 + nu), box_cox, float(center), lam, 1.0, mode, 1)[0]
    return best, witness
