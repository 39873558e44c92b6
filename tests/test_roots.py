"""Root-solver tests: closed quadratic oracles at p = 2, branch inverse
properties, ordering chains, and the degenerate/asymptotic limits."""

import math
import random
import sys

import mpmath as mp
import pytest

from sharpweights import (
    DomainError,
    ainf_constant,
    aq_constant,
    q_star,
    q_sub,
    r_pair,
    rht_constant,
    s_pair,
    t_star,
    u_minus,
    u_plus,
)
from sharpweights import ndim, roots

SQRT3 = math.sqrt(3.0)
SQRT2 = math.sqrt(2.0)


def forward_map(u, p):
    return (1.0 - p * u) ** (p - 1.0) / (1.0 - (p - 1.0) * u) ** p


def test_u_plus_endpoints_exact():
    assert u_plus(2.0, 1.0) == 0.0
    assert u_plus(2.0, 0.0) == 0.5
    assert u_plus(3.0, 0.0) == pytest.approx(1.0 / 3.0, abs=0)


def test_u_plus_quadratic_oracle():
    # p = 2 reduces the implicit equation to a quadratic in u
    assert u_plus(2.0, 0.25) == pytest.approx(2.0 * SQRT3 - 3.0, abs=1e-12)


def test_u_minus_quadratic_oracle():
    assert u_minus(2.0, 1.0) == 0.0
    assert u_minus(2.0, 0.25) == pytest.approx(-3.0 - 2.0 * SQRT3, abs=1e-11)


def test_u_minus_substitution_check():
    u = u_minus(3.0, 0.5)
    assert u == pytest.approx(-(1.0 + SQRT3) / 2.0, abs=1e-12)
    assert forward_map(u, 3.0) == pytest.approx(0.5, rel=1e-10)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 5.0])
def test_branch_inverse_positive(p):
    for k in range(1, 10):
        u = (k / 10.0) * (1.0 / p) * 0.999
        t = forward_map(u, p)
        assert u_plus(p, t) == pytest.approx(u, abs=1e-10)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 5.0])
def test_branch_inverse_negative(p):
    for u in [-0.01, -0.5, -2.0, -17.0]:
        t = forward_map(u, p)
        assert u_minus(p, t) == pytest.approx(u, rel=1e-10)


def test_u_domain_errors():
    with pytest.raises(DomainError):
        u_plus(2.0, -0.1)
    with pytest.raises(DomainError):
        u_plus(2.0, 1.5)
    with pytest.raises(DomainError):
        u_minus(2.0, 0.0)
    with pytest.raises(DomainError):
        u_minus(2.0, 1.0001)
    with pytest.raises(DomainError):
        u_plus(1.0, 0.5)
    with pytest.raises(DomainError):
        u_plus(math.inf, 0.5)
    with pytest.raises(DomainError):
        u_plus(2.0, math.nan)


def test_s_pair_degenerate_and_oracle():
    assert s_pair(2.0, 1.0) == (0.0, 0.0)
    sm, sp = s_pair(2.0, 2.0)
    assert sm == pytest.approx(-3.0 - 2.0 * SQRT3, abs=1e-11)
    assert sp == pytest.approx(2.0 * SQRT3 - 3.0, abs=1e-12)
    assert s_pair(10.0, 1.1).s_plus < 0.1


def test_s_pair_rejects_bad_delta():
    with pytest.raises(DomainError):
        s_pair(2.0, 0.9)
    with pytest.raises(DomainError):
        s_pair(2.0, math.nan)


def test_r_pair_boundary_cases():
    rm, rp = r_pair(2.0, 2.0, (1.0, 4.0))
    assert rm == 0.0 and rp == 0.0
    rm, rp = r_pair(2.0, 2.0, (1.0, 1.0))
    sm, sp = s_pair(2.0, 2.0)
    assert rm == pytest.approx(sm, rel=1e-11)
    assert rp == pytest.approx(sp, rel=1e-11)


def test_r_pair_closed_form():
    # p = 2 closed form (t - 1 +- sqrt(1 - t))/t at t = 1/2
    rm, rp = r_pair(2.0, 2.0, (1.0, 2.0))
    assert rm == pytest.approx(-1.0 - SQRT2, abs=1e-10)
    assert rp == pytest.approx(SQRT2 - 1.0, abs=1e-10)


def test_r_pair_ordering_chain():
    rng = random.Random(42)
    for _ in range(50):
        p = rng.uniform(1.2, 20.0)
        d = rng.uniform(1.01, 10.0)
        x1 = rng.uniform(0.1, 5.0)
        lo = x1**p
        hi = (d * x1) ** p
        x2 = lo + (0.05 + 0.9 * rng.random()) * (hi - lo)
        sm, sp = s_pair(p, d)
        rm, rp = r_pair(p, d, (x1, x2))
        assert sm <= rm <= 0.0 <= rp <= sp < 1.0 / p


def test_r_pair_rejects_outside_domain():
    with pytest.raises(DomainError, match="x2 >= x1"):
        r_pair(2.0, 2.0, (1.0, 0.5))
    with pytest.raises(DomainError, match="x2 <="):
        r_pair(2.0, 2.0, (1.0, 5.0))
    with pytest.raises(DomainError, match="x1"):
        r_pair(2.0, 2.0, (-1.0, 1.0))


def test_q_star_quadratic_oracle():
    assert q_star(2.0, 2.0) == pytest.approx(4.0 + 2.0 * SQRT3, abs=1e-10)


def test_q_star_degenerate_and_limit():
    assert q_star(2.0, 1.0) == 1.0
    assert q_star(math.inf, 2.5) == 2.5
    assert q_star(math.inf, 1.0) == 1.0


def test_q_star_identity_with_s_plus():
    rng = random.Random(3)
    for _ in range(25):
        p = rng.uniform(1.2, 20.0)
        d = rng.uniform(1.01, 10.0)
        sp = s_pair(p, d).s_plus
        ident = (1.0 - (p - 1.0) * sp) / (1.0 - p * sp)
        assert q_star(p, d) == pytest.approx(ident, rel=1e-9)


def test_q_sub_quadratic_oracle_and_bounds():
    assert q_sub(2.0, 2.0) == pytest.approx(4.0 - 2.0 * SQRT3, abs=1e-10)
    assert q_sub(2.0, 1.0) == 1.0
    assert 2.0 / 3.0 < q_sub(3.0, 2.0) < 1.0


def test_q_sub_identity_with_s_minus():
    rng = random.Random(4)
    for _ in range(25):
        p = rng.uniform(1.2, 20.0)
        d = rng.uniform(1.01, 10.0)
        sm = s_pair(p, d).s_minus
        ident = (1.0 - (p - 1.0) * sm) / (1.0 - p * sm)
        assert q_sub(p, d) == pytest.approx(ident, rel=1e-9)


def test_q_sub_tight_corner():
    # Large p and delta push the root to within 1e-20 of (p-1)/p; the
    # solver must not lose the bracket to rounding noise there.
    v = q_sub(20.0, 10.0)
    assert v == pytest.approx(0.95, abs=1e-9)
    assert t_star(20.0, 10.0) * (1.0 - v) == pytest.approx(1.0, rel=1e-9)


def test_t_star_oracle_and_identity():
    assert t_star(2.0, 2.0) == pytest.approx(1.0 + 2.0 / SQRT3, abs=1e-10)
    assert t_star(2.0, 1.0) == math.inf
    assert t_star(2.0, 2.0) == pytest.approx(1.0 / (1.0 - q_sub(2.0, 2.0)), rel=1e-11)


def test_t_star_self_consistency_random():
    rng = random.Random(5)
    for _ in range(50):
        p = rng.uniform(1.2, 20.0)
        d = rng.uniform(1.01, 10.0)
        assert t_star(p, d) == pytest.approx(1.0 / (1.0 - q_sub(p, d)), rel=1e-9)


def test_q_star_dominates_delta_grid():
    for i in range(10):
        p = 1.3 + i * 2.0
        for j in range(10):
            d = 1.01 + j * (9.0 / 9.0)
            assert q_star(p, d) > d


def test_large_p_asymptotics():
    for p in (1e2, 1e3):
        sp = s_pair(p, 2.0).s_plus
        assert sp * p == pytest.approx(1.0, rel=0.05)
    # the second-order expression converges more slowly
    p = 1e3
    sp = s_pair(p, 2.0).s_plus
    assert p * p * (1.0 / p - sp) == pytest.approx(1.0, rel=0.05)
    p = 1e2
    sp = s_pair(p, 2.0).s_plus
    assert p * p * (1.0 / p - sp) == pytest.approx(1.0, rel=0.15)


def test_iteration_error_on_bad_bracket():
    from sharpweights.roots import bisect_root

    with pytest.raises(ValueError, match="sign change"):
        bisect_root(lambda x: (1.0 + x * x, 2.0 * x), 0.0, 1.0, f_lo=1.0, f_hi=2.0, start=0.5)


# -- termination on equations that defeat Newton ------------------------------

# the start, the Newton steps, and the bisections that take a bracket under
# 2**1025 wide down to adjacent floats, 2**-1074 apart
SOLVE_BOUND = 1 + roots._NEWTON_STEPS + 2100


def _noise(x, k):
    """A fixed pseudo-random number in [-1, 1] for each float x."""
    return (hash(x) // 2001**k % 2001) / 1000.0 - 1.0


def _cube_root(r):
    def f(x):
        d = x - r
        return math.copysign(abs(d) ** (1.0 / 3.0), d), abs(d) ** (-2.0 / 3.0) / 3.0 if d else math.inf

    return f


# name -> (equation with its root at r, whether its sign changes only at r)
ADVERSARIAL = {
    "zero-slope step": (lambda r: lambda x: ((x > r) - (x < r), 0.0), True),
    "cube root": (_cube_root, True),
    "noise-level values and slopes": (
        lambda r: lambda x: (x - r + 1e-3 * (abs(r) + 1e-300) * _noise(x, 0), _noise(x, 1)),
        False,
    ),
    "wrong-sign slope": (lambda r: lambda x: (x - r, -1.0), True),
    "NaN below the root": (lambda r: lambda x: (math.nan, 1.0) if x < r else (x - r, 1.0), True),
    "NaN above the root": (lambda r: lambda x: (math.nan, 1.0) if x > r else (x - r, 1.0), False),
}


@pytest.mark.parametrize("name", ADVERSARIAL)
def test_bisect_root_ends_within_its_bound_on_adversarial_equations(name):
    make, sign_changes_at_root = ADVERSARIAL[name]
    for lo, hi in [(-1e308, 1e308), (1e308, 1.7e308)]:
        for r in (0.3, 1e-300, -5e-324, 0.0, 7e307, -1e308, 1.5e308):
            if not lo <= r <= hi:
                continue
            f = make(r)
            for start in (lo, 0.5 * lo + 0.5 * hi, hi):
                seen = []

                def recorded(x):
                    value, slope = f(x)
                    seen.append((x, value))
                    return value, slope

                x = roots.bisect_root(recorded, lo, hi, f_lo=-1.0 if r > lo else 0.0,
                                      f_hi=1.0 if r < hi else 0.0, start=start)
                assert len(seen) <= SOLVE_BOUND, (lo, hi, r, start, len(seen))
                # the last bracket: every evaluated point moves one of its ends
                last_lo = max([lo] + [v for v, fv in seen if not fv > 0.0])
                last_hi = min([hi] + [v for v, fv in seen if fv > 0.0])
                assert last_lo <= x <= last_hi, (lo, hi, r, start, x)
                if sign_changes_at_root:
                    assert last_lo <= r <= last_hi, (lo, hi, r, start, x)


# -- agreement with 50-digit roots of the log-form equations -----------------


def _eq_critical(x, p, delta):
    return p * (mp.log(x) - mp.log(delta)) - mp.log(1 + p * (x - 1))


def _eq_gehring(x, p, delta):
    return p * (mp.log(delta) + mp.log(x) - mp.log(x - 1)) + mp.log(x - p) - mp.log(x)


def _eq_branch(u, p, log_t):
    return (p - 1) * mp.log(1 - p * u) - p * mp.log(1 - (p - 1) * u) - log_t


def _eq_ratio(y, p, log_l):
    return p * mp.log(1 + y) - mp.log(1 + y**p) - (p - 1) * log_l


def _ndim_log_l(p, delta):
    return mp.log(2 + 4 * (mp.exp(-p / (p - 1) * mp.log(delta)) - 1))


# name -> (float solve, equation, its parameter c, open domain (lo, hi)); the
# parameters are formed at 50 digits whatever the global mpmath precision
def _case(name, p, delta):
    log_t = -p * math.log(delta)
    with mp.workdps(50):
        p_m, d_m = mp.mpf(p), mp.mpf(delta)
        return {
            "q_star": (lambda: q_star(p, delta), _eq_critical, d_m, (1, mp.inf)),
            "q_sub": (lambda: q_sub(p, delta), _eq_critical, d_m, ((p_m - 1) / p_m, 1)),
            "t_star": (lambda: t_star(p, delta), _eq_gehring, d_m, (p_m, mp.inf)),
            "u_plus": (lambda: roots.u_plus_from_log(p, log_t), _eq_branch, mp.mpf(log_t), (0, 1 / p_m)),
            "u_minus": (lambda: roots.u_minus_from_log(p, log_t), _eq_branch, mp.mpf(log_t), (-mp.inf, 0)),
            "y": (lambda: ndim.ratio_bound_y(p, 2, delta), _eq_ratio, _ndim_log_l(p_m, d_m), (1, mp.inf)),
        }[name]


def _reference(eq, p, c, x, domain):
    """50-digit root by bisection on x*(1 -+ 1e-9), clipped to the domain."""
    with mp.workdps(50):
        x = mp.mpf(x)
        w = abs(x) * mp.mpf("1e-9")
        lo = max(x - w, domain[0] + mp.mpf("1e-45"))
        hi = min(x + w, domain[1] - mp.mpf("1e-45"))
        f = lambda v: eq(v, mp.mpf(p), c)
        f_lo = f(lo)
        assert mp.sign(f_lo) != mp.sign(f(hi)), "float root is off by more than 1e-9"
        for _ in range(130):
            mid = (lo + hi) / 2
            if mp.sign(f(mid)) == mp.sign(f_lo):
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2


GRID_P = (1.5, 2.0, 6.0, 50.0)
GRID_DELTA_M1 = (1e-3, 0.3, 1.0)
ROOT_NAMES = ("q_star", "q_sub", "t_star", "u_plus", "u_minus", "y")

# Cases where the float evaluation of the equation, not the solver, limits
# agreement: its sign is rounding noise over a band of a few 1e-15 around
# the root, and the solver returns a point inside that band.
EVALUATION_LIMITED = {
    # log F ~ -p*(p-1)*u**2/2 is what is left of terms of size (p-1)*u
    ("u_plus", 1.5, 1e-3): 1e-14,
    # log F ~ log t ~ -13 and -35 is the difference of logarithms of that size
    ("u_minus", 50.0, 0.3): 1e-14,
    ("u_minus", 50.0, 1.0): 1e-14,
    # L - 1 = 0.06 next to the threshold: the rounding of delta**-p' moves
    # log(L), and with it y, by a few 1e-15
    ("y", 50.0, 0.3): 1e-14,
}


def _grid(name):
    for p in GRID_P:
        for dm in GRID_DELTA_M1:
            delta = 1.0 + dm
            if name == "y" and delta >= ndim.delta_threshold(p, 2):
                continue
            yield p, dm, delta


@pytest.mark.parametrize("name", ROOT_NAMES)
def test_roots_match_50_digit_references(name):
    failures = []
    for p, dm, delta in _grid(name):
        solve, eq, c, domain = _case(name, p, delta)
        got = solve()
        want = _reference(eq, p, c, got, domain)
        err = float(abs((mp.mpf(got) - want) / want))
        bound = EVALUATION_LIMITED.get((name, p, dm), 1e-15)
        if err > bound:
            failures.append(f"p={p} delta-1={dm}: {got!r} off by {err:.1e}")
    assert not failures, failures


def test_q_star_hits_closed_form_at_p_two():
    # the parent bisection stopped 4e-13 short of 4 + 2*sqrt(3)
    want = 4 + 2 * mp.sqrt(3)
    assert float(abs((mp.mpf(q_star(2.0, 2.0)) - want) / want)) <= 1e-15


LARGE_P_CORNERS = [
    (p, dm, 1.0 + dm) for p in (1e15, 1e17, 1e30, 1e100, 1e305) for dm in (1e-12, 1e-3, 0.3, 1.0)
]


def test_no_solve_takes_more_than_16_evaluations(monkeypatch):
    counts = []

    def counting(fn):
        def wrapped(f, *args, **kwargs):
            def counted(x):
                counts[-1] += 1
                return f(x)

            return fn(counted, *args, **kwargs)

        return wrapped

    monkeypatch.setattr(roots, "bisect_root", counting(roots.bisect_root))
    worst = {}
    for name in ROOT_NAMES:
        # plus a large p*log(delta) corner whose left root is still finite,
        # the large-p corners, where a bracket end past the root once took
        # up to 100, and a q_star near the float range that once took 35
        corner = [] if name == "y" else [(300.0, 9.0, 10.0), *LARGE_P_CORNERS]
        if name == "q_star":
            corner.append((1.0000015511551374, None, 1.0009595280371821))
        for p, dm, delta in [*_grid(name), *corner]:
            counts.append(0)
            _case(name, p, delta)[0]()
            worst[name] = max(worst.get(name, 0), counts[-1])
    assert max(worst.values()) <= 16, worst


# -- the branches at large p and on the whole p range -------------------------


def _eq_branch_in_v(v, p, log_t):
    """log F - log t in v = p*u, as (p-1)*log1p(-a) - log1p(-b) with b = v - v/p
    and a = (v/p)/(1 - b): no term cancels at large p, where the power
    form would need hundreds of digits."""
    b = v - v / p
    return (p - 1) * mp.log1p(-(v / p) / (1 - b)) - mp.log1p(-b) - log_t


@pytest.mark.parametrize("p", [1e15, 1e17, 1e30, 1e100, 1e305])
@pytest.mark.parametrize("t", [0.5, 1e-3])
def test_branches_at_large_p_within_4_ulp(p, t):
    # the left bracket end once lay right of the root near p = 1e15 (and
    # p/e times too far out from 1e16 on), and the right seed past 1/p
    log_t = math.log(t)
    for solve, domain in ((roots.u_plus_from_log, (0, 1)), (roots.u_minus_from_log, (-mp.inf, 0))):
        got = solve(p, log_t)
        with mp.workdps(50):
            want = _reference(_eq_branch_in_v, p, mp.mpf(log_t), p * got, domain) / p
            err = abs(mp.mpf(got) - want)
        assert err <= 4 * math.ulp(got), (solve.__name__, got, want)


WHOLE_P = (1.0001, 1.5, 2.0, 50.0, 300.0, 1e6, 1e15, 1e17, 1e30, 1e100, 1e305, 1.7e308)
WHOLE_LOG_T = (-1e-10, -1e-5, -0.01, -0.7, -7.0, -70.0, -700.0, -7e5, -1e300)


def test_branches_return_a_float_on_the_whole_p_range():
    for p in WHOLE_P:
        # v = p*u of the left root lies below C/t in size, C = (p/(p-1))**p
        log_c = p * math.log1p(1.0 / (p - 1.0))
        for log_t in WHOLE_LOG_T:
            plus = roots.u_plus_from_log(p, log_t)
            assert 0.0 < plus and p * plus < 1.0, (p, log_t, plus)
            minus = roots.u_minus_from_log(p, log_t)
            if minus == -math.inf:
                assert log_c - log_t > math.log(sys.float_info.max), (p, log_t)
            else:
                assert minus < 0.0 and math.isfinite(p * minus), (p, log_t, minus)


# -- q_star near p = 1 and at the corners ------------------------------------


def _q_star_miss(p, delta):
    """None when q_star(p, delta) is within 4 ulp of max(1, log(q_star/delta))
    of a 50-digit root of the log-form equation, solved for z = log(q/delta)
    by bisection on [0, (log p + log delta)/(p - 1)], or is inf exactly
    where that root passes the float range; else a description."""
    got = q_star(p, delta)
    with mp.workdps(50):
        p_m, d_m = mp.mpf(p), mp.mpf(delta)
        f = lambda z: _eq_critical(d_m * mp.exp(z), p_m, d_m)
        lo, hi = mp.mpf(0), (mp.log(p_m) + mp.log(d_m)) / (p_m - 1)
        # f(0) < 0 < f(hi), unless the root equals hi to 50 digits
        if f(hi) > 0:
            for _ in range(200):
                mid = (lo + hi) / 2
                lo, hi = (mid, hi) if f(mid) < 0 else (lo, mid)
        z = hi
        want = d_m * mp.exp(z)
        if want > sys.float_info.max:
            return None if got == math.inf else f"{got!r}, want inf"
        err = abs((got - want) / want)
        bound = 4 * 2.0**-52 * max(1, z)
        return None if err <= bound else f"{got!r} off by {float(err):.1e} > {float(bound):.1e}"


@pytest.mark.parametrize("p", [1.01, 1.001])
def test_q_star_near_p_one_is_representable(p):
    # about 1.6495e18 and 5.03e176: far past any doubling budget from 2
    assert _q_star_miss(p, 1.5) is None


def test_q_star_corners_within_a_few_ulp_of_log_q_over_delta():
    failures = []
    for pm in (1e-6, 1e-4, 1e-2, 1.0, 299.0):
        for dm in (1e-12, 1e-6, 1e-3, 0.5, 999.0):
            miss = _q_star_miss(1.0 + pm, 1.0 + dm)
            if miss:
                failures.append(f"p-1={pm} delta-1={dm}: {miss}")
    assert not failures, failures


def test_q_star_at_named_corners():
    # 9.0332214256068129e268, where a search from the x-form took 35
    # evaluations and stopped 4.5e-8 short
    got = q_star(1.0000015511551374, 1.0009595280371821)
    assert got == pytest.approx(9.0332214256068129e268, rel=2e-13)
    # p*log(delta) passes the float range while q_star = delta(1 + 3e-303)
    assert q_star(5.050934025769548e305, 7.303497231054411e264) == 7.303497231054411e264


def test_q_star_past_the_float_range_is_inf():
    assert q_star(1.0001, 1.5) == math.inf
    assert ainf_constant(1.0001, 1.5).constant == math.inf
    assert aq_constant(1.0001, 1e20, 1.5).constant == math.inf


# -- the left branch past the float range -----------------------------------


def test_left_branch_past_the_float_range_is_minus_inf():
    sm, sp = s_pair(300.0, 1000.0)
    assert sm == -math.inf
    assert sp == roots.u_plus_from_log(300.0, -300.0 * math.log(1000.0))
    assert t_star(300.0, 1000.0) == 300.0
    assert q_sub(300.0, 1000.0) == 299.0 / 300.0
    # -inf as soon as p times the root passes the float range, so that
    # callers forming 1 - p*u never see an infinite product
    assert roots.u_minus_from_log(2.0, -709.0) == -math.inf
    assert roots.u_minus_from_log(300.0, -709.0) == -math.inf


@pytest.mark.parametrize("p, log_t", [(2.0, -708.0), (1.5, -708.0), (300.0, -708.5)])
def test_left_branch_beyond_its_bracket_end_is_representable(p, log_t):
    # p*(-2C/t) overflows while p times the root, about -C/t, does not
    got = roots.u_minus_from_log(p, log_t)
    assert math.isfinite(p * got)
    want = _reference(_eq_branch, p, mp.mpf(log_t), got, (-mp.inf, 0))
    assert float(abs((mp.mpf(got) - want) / want)) <= 1e-15


def test_gehring_side_on_the_4000_draw_sweep():
    # p*log(delta) reaches 6,900: the left root passes the float range in
    # most draws, and nothing may raise there
    rng = random.Random(1)
    for _ in range(4000):
        p = 1001.0 - 1000.0 * rng.random()
        delta = 1.0 + 1000.0 * rng.random()
        s_pair(p, delta)
        ts, qs = t_star(p, delta), q_sub(p, delta)
        assert ts >= p, (p, delta)
        assert (p - 1.0) / p <= qs <= 1.0, (p, delta)
        assert rht_constant(p, p, delta).constant == delta, (p, delta)
        rht_constant(p, 1.5 * p, delta)


# -- the right branch next to its endpoint 1/p --------------------------------


def test_class_parameter_where_log_t_overflows():
    # -p*log(delta) passes the float range, so log t = -inf and the right
    # branch returns its endpoint 1/p
    assert roots.class_parameter(1e307, 1e300, "plus") == 1.0 / 1e307


@pytest.mark.parametrize(
    "p, delta",
    [
        (1.1068881383566298, 50.0),
        (1.1068881383566298, 79.2479422471094),
        (1.1068881383566298, 1000.0),
        (1.0687558844372493, 18.81672041581738),
    ],
)
def test_right_branch_within_rounding_of_its_endpoint(p, delta):
    # 1 - p*s is below 1e-17 here, far under an ulp, so the root rounds
    # next to 1/p, where the log1p argument of log F can round to -1
    for s in (roots.class_parameter(p, delta, "plus"), u_plus(p, delta**-p)):
        assert 0.0 < s <= 1.0 / p
        assert 1.0 / p - s <= 4.0 * math.ulp(1.0 / p)


@pytest.mark.parametrize("p", [1.0 + 1e-7, 2.0, 3e305])
def test_u_plus_at_zero_is_the_right_endpoint(p):
    assert u_plus(p, 0.0) == 1.0 / p


@pytest.mark.parametrize("p", [1.0 + 1e-7, 2.0, 3e305])
def test_degenerate_class_gives_zero_roots(p):
    # at delta = 1 both branch roots are exactly +0.0 and the Gehring
    # side is unbounded, down to p near 1 and up to the float range
    pair = s_pair(p, 1.0)
    assert pair == (0.0, 0.0)
    assert all(math.copysign(1.0, s) == 1.0 for s in pair)
    for root in (u_plus(p, 1.0), u_minus(p, 1.0), *r_pair(p, 1.0, (1.0, 1.0))):
        assert root == 0.0 and math.copysign(1.0, root) == 1.0
    assert q_sub(p, 1.0) == 1.0
    assert t_star(p, 1.0) == math.inf


def _log_f_of_gap(p, log_gap):
    """log F at 1 - p*u = exp(log_gap), at the working precision."""
    k = p - 1
    y = k * mp.exp(log_gap)
    return k * mp.log(p * mp.exp(log_gap) / (1 + y)) - mp.log((1 + y) / p)


@pytest.mark.parametrize("p", [1.000001, 1.001, 1.5, 3.0, 10.0, 1e6, 1e15, 1e30])
@pytest.mark.parametrize("gap", [1 / 64, 1e-3, 1e-6, 1e-12, 1e-100])
def test_right_gap_within_a_few_ulp_of_its_reference(p, gap):
    # past v = 15/16 the gap 1 - p*u comes from its own solve: against
    # 50-digit roots it is within 8 ulp of log(gap), and u within 4 ulp;
    # log F sums terms of size p, hence the digits beyond 50
    with mp.workdps(90):
        log_t = float(_log_f_of_gap(mp.mpf(p), mp.log(gap)))
        u, log_m = roots.u_plus_gap_from_log(p, log_t)
        assert log_m is not None
        ref = mp.findroot(lambda z: _log_f_of_gap(mp.mpf(p), z) - log_t, mp.log(gap))
        assert abs(mp.mpf(log_m) - mp.log(p) - ref) <= 8 * 2.0**-53 * max(1.0, abs(ref))
        u_ref = -mp.expm1(ref) / p
        assert abs(mp.mpf(u) - u_ref) <= 4 * 2.0**-53 * u_ref
