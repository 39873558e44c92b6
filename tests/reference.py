"""High-precision references for the tests, each quantity written once.

The functionals of a ramp-plateau weight on an interval, from the integrals of
(w/c)**theta and of log(w/c) or by quadrature, Phi(r), that of t**nu on [r, 1], and
the functional on every pair of a grid; the boundary curves, the A_q constant from a
given q_star and ndim's enlarged norm; the critical exponents q_star and q_sub of
(q/delta)**p = 1 + p*(q - 1), and t_star = 1/(1 - q_sub); the branch roots of log F(u)
= log t, F(u) = (1 - p*u)**(p-1)/(1 - (p-1)*u)**p; the n = 2 ratio root of ndim;
expm1(y) - y and log1p(x) - x; and the error measures.

Each function evaluates in its own mp.workdps, at DPS digits or more where noted, and
returns a float, an error measured at that precision, or an mpf that carries those
digits.  Comparing mpf numbers is exact, so a test that only compares these values and
measures them with rel_err and abs_err gets the same result at any global precision.
"""

import math
from collections import namedtuple

import mpmath as mp

from sharpweights import PowerWeight

DPS = 50
GAP_DPS = 90


# -- error measures -------------------------------------------------------------


@mp.workdps(DPS)
def rel_err(value, reference):
    """|value - reference|/|reference| as a float: 0 where both are infinite, inf
    where one is, NaN where value is."""
    value, reference = mp.mpf(value), mp.mpf(reference)
    if mp.isinf(value) or mp.isinf(reference):
        return 0.0 if mp.isinf(value) and mp.isinf(reference) else math.inf
    return float(abs(value - reference) / abs(reference))


@mp.workdps(DPS)
def abs_err(value, reference):
    """|value - reference| as a float."""
    return float(abs(mp.mpf(value) - mp.mpf(reference)))


# -- integrals and functionals of a weight c*(min(t, a)/a)**nu -------------------


@mp.workdps(DPS)
def integral(w, theta, alpha, beta):
    """The integral of (w/c)**theta over [alpha, beta], of log(w/c) at theta = None."""
    a, nu, lo, b = mp.mpf(w.a), mp.mpf(w.nu), mp.mpf(alpha), mp.mpf(beta)
    hi = min(b, a)
    if theta is None:
        f = lambda t: nu * t * (mp.log(t / a) - 1) if t else 0
        return f(hi) - f(lo) if lo < hi else mp.mpf(0)
    tn = mp.mpf(theta) * nu
    e = tn + 1
    ramp = (mp.log(hi / lo) if e == 0 else (hi**e - lo**e) / e) / a**tn if lo < hi else 0
    return ramp + max(b - max(lo, a), 0)


@mp.workdps(DPS)
def average(w, theta, alpha, beta):
    """<w**theta> over [alpha, beta]; <log w> at theta = None."""
    length = mp.mpf(beta) - mp.mpf(alpha)
    if theta is None:
        return mp.log(w.c) + integral(w, None, alpha, beta) / length
    return mp.mpf(w.c) ** theta * integral(w, theta, alpha, beta) / length


@mp.workdps(DPS)
def functional(w, kind, alpha, beta):
    """A_q, A_inf, RH_t or RH_inf of w on [alpha, beta], by kind; RH_inf needs nu >= 0."""
    avg = average(w, 1, alpha, beta)
    if kind.name == "ainf":
        return avg / mp.exp(average(w, None, alpha, beta))
    if kind.name == "rhinf":  # ess sup w is w(min(beta, a))
        return w.c * (min(mp.mpf(beta), mp.mpf(w.a)) / w.a) ** mp.mpf(w.nu) / avg
    e = mp.mpf(kind.exponent)
    if kind.name == "aq":
        return avg * average(w, -1 / (e - 1), alpha, beta) ** (e - 1)
    return average(w, e, alpha, beta) ** (1 / e) / avg


@mp.workdps(DPS)
def quad_average(w, theta, alpha, beta):
    """<w**theta> over [alpha, beta], <log w> at theta = None, by mp.quad of w's mpf
    values, apart from the closed forms above: split at a, and on a piece from 0 in
    t = s**16, which takes the t**(theta*nu) singularity out of the integrand."""
    c, a, nu = mp.mpf(w.c), mp.mpf(w.a), mp.mpf(w.nu)
    g = lambda v: mp.log(v) if theta is None else v**theta
    f = lambda t: g(c * (t / a) ** nu if t < a else c)
    lo, hi = mp.mpf(alpha), mp.mpf(beta)
    total = 0
    for x, y in ((lo, min(hi, a)), (max(lo, a), hi)):
        if x == 0 < y:
            total += mp.quad(lambda s: f(s**16) * 16 * s**15, [0, mp.root(y, 16)])
        elif x < y:
            total += mp.quad(f, [x, y])
    return total / (hi - lo)


def phi(kind, nu, r=0):
    """Phi(r), the functional of t**nu on [r, 1]: Phi(0) is the supremum over every
    subinterval of a weight of exponent nu (the corner lemma in sharpweights.weights)."""
    return functional(PowerWeight(1.0, 1.0, nu), kind, r, 1)


@mp.workdps(DPS)
def grid_functionals(kind, grid, integral_to, top=None):
    """{(i, j): F} for every pair i < j of ``grid``, mpf points: the kind's functional on
    [grid[i], grid[j]] from integral_to(theta, t), the integral of w**theta from 0 to t (of
    log w at theta = None), and for rh_inf top(t), ess sup w up to t, w nondecreasing."""
    e = kind.exponent and mp.mpf(kind.exponent)
    second, value = {
        "aq": (e and -1 / (e - 1), lambda a1, b, t: a1 * b ** (e - 1)),
        "rhp": (e, lambda a1, b, t: b ** (1 / e) / a1),
        "ainf": (None, lambda a1, b, t: a1 * mp.exp(-b)),
        "rhinf": (1, lambda a1, b, t: top(t) / a1),
    }[kind.name]
    p1, p2 = ([integral_to(theta, t) for t in grid] for theta in (1, second))
    values = {}
    for j in range(1, len(grid)):
        for i in range(j):
            length = grid[j] - grid[i]
            values[i, j] = value((p1[j] - p1[i]) / length, (p2[j] - p2[i]) / length, grid[j])
    return values


@mp.workdps(DPS)
def lemma_violations(values, bound):
    """(the pairs whose F passes ``bound``, the pairs (i, j) where F rises from alpha =
    grid[i] to grid[i + 1]), beyond 1e-30 relative, of grid_functionals' values."""
    tol = mp.mpf(10) ** -30
    above = [ij for ij, v in values.items() if v > bound * (1 + tol)]
    rises = [(i, j) for (i, j), v in values.items() if i + 1 < j and values[i + 1, j] > v * (1 + tol)]
    return above, rises


@mp.workdps(DPS)
def moment_errors(call, cases):
    """|call(w, theta, alpha, beta)/<w**theta> - 1| in units of 2**-53 over the cases
    (c, a, nu, theta, alpha, beta) whose average <w**theta> on [alpha, beta] is a
    normal float, w = PowerWeight(c, a, nu)."""
    errs = []
    for c, a, nu, theta, alpha, beta in cases:
        if alpha == 0 and theta * mp.mpf(nu) <= -1:
            continue
        w = PowerWeight(c, a, nu)
        exact = average(w, theta, alpha, beta)
        if 2.2250738585072014e-308 <= exact <= 1.7976931348623157e308:
            errs.append(rel_err(call(w, theta, alpha, beta), exact) * 2.0**53)
    return errs


# -- closed forms at given inputs ----------------------------------------------------


@mp.workdps(DPS)
def decimals(texts):
    """The numbers written in texts, each rounded once to DPS digits."""
    return [mp.mpf(text) for text in texts]


@mp.workdps(DPS)
def boundary(p, delta, x1):
    """(x1**p, (delta*x1)**p), the x2 of the lower and of the upper curve at x1."""
    return mp.power(x1, p), mp.power(mp.mpf(delta) * x1, p)


@mp.workdps(DPS + 10)
def aq_constant(q, q_star):
    """C_q = ((q - 1)/(q - q_star))**(q - 1)/q_star from the given q_star, with 10 more
    digits, as the cancellation in q - q_star grows with q."""
    q, qs = mp.mpf(q), mp.mpf(q_star)
    return mp.exp((q - 1) * mp.log((q - 1) / (q - qs)) - mp.log(qs))


@mp.workdps(DPS)
def ndim_epsilon(p, delta, y):
    """The enlarged class norm of ndim at the ratio bound y: delta*(f/p)*((f - 1)/(p -
    1))**((1 - p)/p) with f = (y**2 - y**(2 - 2*p))/(y**2 - 1)."""
    p, y = mp.mpf(p), mp.mpf(y)
    f = (y**2 - y ** (2 - 2 * p)) / (y**2 - 1)
    return mp.mpf(delta) * (f / p) * ((f - 1) / (p - 1)) ** ((1 - p) / p)


# -- series ------------------------------------------------------------------------


def _digits(x):
    """DPS digits and the -log10|x| more that expm1(x) - x and log1p(x) - x, of
    size x**2, cancel at small x."""
    return DPS + max(0, int(-mp.log10(abs(mp.mpf(x))))) if x else DPS


def expm1mx(y):
    """expm1(y) - y of the float y, to DPS digits."""
    with mp.workdps(_digits(y)):
        value = mp.expm1(mp.mpf(y)) - y
    with mp.workdps(DPS):
        return +value


def log1pmx(x):
    """log1p(x) - x of the float x > -1, to DPS digits."""
    with mp.workdps(_digits(x)):
        value = mp.log1p(mp.mpf(x)) - x
    with mp.workdps(DPS):
        return +value


# -- roots -------------------------------------------------------------------------


def _bisect(f, lo, hi):
    """The root of f in [lo, hi], where f(lo) and f(hi) differ in sign, to the last
    digit of the working precision."""
    sign = mp.sign(f(lo))
    assert sign * mp.sign(f(hi)) < 0, "no sign change on the bracket"
    while True:
        mid = (lo + hi) / 2
        if mid in (lo, hi):
            return mid
        lo, hi = (mid, hi) if mp.sign(f(mid)) == sign else (lo, mid)


def _near(f, x, lo, hi):
    """The root of f within 1e-9 relative of the float x, inside (lo, hi)."""
    x = mp.mpf(x)
    w = abs(x) * mp.mpf("1e-9")
    return _bisect(f, max(x - w, lo + mp.mpf("1e-45")), min(x + w, hi - mp.mpf("1e-45")))


Critical = namedtuple("Critical", "q_star q_sub t_star nu_minus nu_plus")


@mp.workdps(DPS + 15)
def critical(p, delta):
    """The critical exponents of (p, delta), delta > 1: q_star and q_sub, t_star = 1/(1 -
    q_sub), and the ramp exponents nu_minus = q_sub - 1 = -1/t_star and nu_plus = q_star - 1.  The
    equation is solved in y = log(1 + p*(q - 1)), q = 1 + expm1(y)/p, which keeps q near 1
    or (p - 1)/p, and q past the float range, in range; it loses up to log10(y/(p - 1))
    digits near p = 1 and about -log10(delta - 1) near delta = 1, hence the 15 more."""
    p, log_delta = mp.mpf(p), mp.log(delta)
    g = lambda y: p * (mp.log1p(mp.expm1(y) / p) - log_delta) - y
    # g(0) < 0; g > 0 at y_hi, as q >= exp(y)/p, and at y_lo, as q > (p-1)/p
    y_plus = _bisect(g, 0, p * (mp.log(p) + log_delta) / (p - 1) + 1)
    y_minus = _bisect(g, p * (mp.log((p - 1) / p) - log_delta) - 1, 0)
    nu_plus, nu_minus = mp.expm1(y_plus) / p, mp.expm1(y_minus) / p
    return Critical(1 + nu_plus, 1 + nu_minus, -1 / nu_minus, nu_minus, nu_plus)


@mp.workdps(DPS)
def q_star_at_p_two(delta):
    """q_star at p = 2 in closed form, the larger root of q**2 = delta**2*(2*q - 1)."""
    d = mp.mpf(delta)
    return d**2 + d * mp.sqrt(d**2 - 1)


@mp.workdps(DPS)
def q_star_miss(got, p, delta):
    """None where the float got is within 4 ulp of max(1, log(q_star/delta)) of q_star(p,
    delta), relative, or is inf exactly where q_star passes the float range; else why not."""
    want = critical(p, delta).q_star
    if want > 1.7976931348623157e308:
        return None if got == math.inf else f"{got!r}, want inf"
    err, bound = abs(got - want) / want, 4 * 2.0**-52 * max(1, mp.log(want / delta))
    return None if err <= bound else f"{got!r} off by {float(err):.1e} > {float(bound):.1e}"


@mp.workdps(DPS)
def branch_root(p, log_t, u):
    """The root of log F(u) = log t within 1e-9 relative of the float u, on u's branch:
    solved in v = p*u as (p-1)*log1p(-(v/p)/(1 - b)) - log1p(-b) with b = v - v/p, in
    which no term cancels at large p."""
    p, log_t = mp.mpf(p), mp.mpf(log_t)

    def f(v):
        b = v - v / p
        return (p - 1) * mp.log1p(-(v / p) / (1 - b)) - mp.log1p(-b) - log_t

    return _near(f, p * mp.mpf(u), *((0, 1) if u > 0 else (-mp.inf, 0))) / p


@mp.workdps(GAP_DPS)
def right_gap(p, gap):
    """(log t, u, z, log(p*(1 - p*u))): log t the float log F at the right branch's gap
    1 - p*u = gap, and u and z = log(1 - p*u) its root of log F(u) = log t, solved for z
    from log(gap) at GAP_DPS digits, as log F sums terms of size p."""
    p = mp.mpf(p)

    def log_f(z):  # log F at 1 - p*u = exp(z)
        y = (p - 1) * mp.exp(z)
        return (p - 1) * mp.log(p * mp.exp(z) / (1 + y)) - mp.log((1 + y) / p)

    log_t = float(log_f(mp.log(gap)))
    z = mp.findroot(lambda z: log_f(z) - log_t, mp.log(gap))
    return log_t, -mp.expm1(z) / p, z, z + mp.log(p)


@mp.workdps(DPS)
def ndim_y(p, delta, y):
    """The root y > 1 of p*log(1 + y) - log(1 + y**p) = (p-1)*log(L), L = 2 + 4*(delta**(-p/(p-1))
    - 1), the ratio bound of ndim at n = 2, within 1e-9 relative of the float y."""
    p = mp.mpf(p)
    log_l = mp.log(2 + 4 * (mp.exp(-p / (p - 1) * mp.log(delta)) - 1))
    return _near(lambda y: p * mp.log(1 + y) - mp.log(1 + y**p) - (p - 1) * log_l, y, 1, mp.inf)
