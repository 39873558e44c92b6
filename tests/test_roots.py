"""Root-solver tests: closed quadratic oracles at p = 2, branch inverse
properties, ordering chains, and the degenerate/asymptotic limits."""

import math
import random
import sys

import numpy as np
import pytest

from sharpweights import (
    DomainError,
    Parameters,
    ainf_constant,
    aq_constant,
    bellman_infinity_value,
    bellman_value,
    bellman_value_gamma_form,
    extremal_weight,
    q_star,
    q_sub,
    r_pair,
    rht_constant,
    s_pair,
    t_star,
    u_minus,
    u_plus,
)
from sharpweights import cli, ndim, roots

import reference

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


def _case(name, p, delta):
    """(the float solve, its 50-digit reference given the float root)."""
    log_t = -p * math.log(delta)
    return {
        "q_star": (lambda: q_star(p, delta), lambda x: reference.critical(p, delta).q_star),
        "q_sub": (lambda: q_sub(p, delta), lambda x: reference.critical(p, delta).q_sub),
        "t_star": (lambda: t_star(p, delta), lambda x: reference.critical(p, delta).t_star),
        "u_plus": (lambda: roots.u_plus_from_log(p, log_t), lambda x: reference.branch_root(p, log_t, x)),
        "u_minus": (lambda: roots.u_minus_from_log(p, log_t), lambda x: reference.branch_root(p, log_t, x)),
        "y": (lambda: ndim.ratio_bound_y(p, 2, delta), lambda x: reference.ndim_y(p, delta, x)),
    }[name]


GRID_P = (1.5, 2.0, 6.0, 50.0)
GRID_DELTA_M1 = (1e-3, 0.3, 1.0)
ROOT_NAMES = ("q_star", "q_sub", "t_star", "u_plus", "u_minus", "y")

# Cases where the float evaluation of the equation, not the solver, limits
# agreement: its sign is rounding noise over a band of a few 1e-15 around
# the root, and the solver returns a point inside that band.
EVALUATION_LIMITED = {
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
        solve, want = _case(name, p, delta)
        got = solve()
        err = reference.rel_err(got, want(got))
        bound = EVALUATION_LIMITED.get((name, p, dm), 1e-15)
        if err > bound:
            failures.append(f"p={p} delta-1={dm}: {got!r} off by {err:.1e}")
    assert not failures, failures


# p - 1 from 1e-2 to 1e4 and delta - 1 from 1e-12 to 100, ten of each, log-spaced
CRITICAL_GRID = [(1.0 + 10.0 ** (-2.0 + 6.0 * i / 9.0), 1.0 + 10.0 ** (-12.0 + 14.0 * j / 9.0))
                 for i in range(10) for j in range(10)]


def test_ramp_exponents_and_t_star_on_the_critical_grid():
    # in ulp of the 50-digit values: nu_plus measured p90 2.9, worst 256 at p - 1 = 0.01
    # and delta = 101, where q_star's condition number in p is 46,613; t_star measured
    # p90 1.65, worst 4.05 at p = 2 and delta - 1 = 2.2e-3.  The v and z solvers gave
    # p90 5.3e5 and 3.8e4
    nu, ts = [], []
    for p, delta in CRITICAL_GRID:
        want = reference.critical(p, delta)
        nu.append(reference.rel_err(roots.ramp_exponents(p, delta, "plus")[0], want.nu_plus))
        ts.append(reference.rel_err(t_star(p, delta), want.t_star))
    for errs, p90, worst in ((nu, 32, 260), (ts, 4, 4.5)):
        errs = sorted(e * 2.0**53 for e in errs)
        assert errs[90] <= p90 and errs[-1] <= worst, errs[88:]


def test_q_star_hits_closed_form_at_p_two():
    # the parent bisection stopped 4e-13 short of 4 + 2*sqrt(3)
    assert reference.rel_err(q_star(2.0, 2.0), reference.q_star_at_p_two(2.0)) <= 1e-15


LARGE_P_CORNERS = [
    (p, dm, 1.0 + dm) for p in (1e15, 1e17, 1e30, 1e100, 1e305) for dm in (1e-12, 1e-3, 0.3, 1.0)
]


def _cold():
    """Empty the root memo, so that the next call solves its roots."""
    roots.critical_root.cache_clear()


def _left_root_past_the_float_range(p, delta):
    return math.isinf(2.0 * p * roots.u_minus_from_log(p, -p * math.log(delta)))


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
            _cold()
            counts.append(0)
            _case(name, p, delta)[0]()
            worst[name] = max(worst.get(name, 0), counts[-1])
            # a memo hit would pass as a solve of no evaluations; only the
            # left branch returns a root past the float range without one
            left = name in ("q_sub", "t_star", "u_minus")
            assert counts[-1] >= 1 or left and _left_root_past_the_float_range(p, delta), (
                name, p, delta)
    # the right branch's root as the Bellman functions take it, (c, z, u,
    # e**-y) from one solve, on the keys the u_plus loop solved
    for p, dm, delta in [*_grid("u_plus"), (300.0, 9.0, 10.0), *LARGE_P_CORNERS]:
        _cold()
        counts.append(0)
        roots.critical_root(p, -p * math.log(delta), "plus")
        worst["critical_root"] = max(worst.get("critical_root", 0), counts[-1])
        assert counts[-1] >= 1, (p, delta)
    assert max(worst.values()) <= 16, worst
    # a root within rounding of v = 1 near p = 1 once bisected 54 times
    _cold()
    counts.append(0)
    roots.class_parameter(1.1068881383566298, 50.0, "plus")
    assert 1 <= counts[-1] <= 10


# -- the memo of recent solves --------------------------------------------------


def _bits(root):
    """The type and exact bits of a root, or of each part of a tuple."""
    if isinstance(root, tuple):
        return tuple(_bits(part) for part in root)
    return type(root), None if root is None else float(root).hex()


def _memo_cases():
    """Arguments of the memo that are equal as numbers: the roots grid's class
    keys as floats and as np.float64, log t = +-0.0, and int arguments."""
    for p in GRID_P:
        for dm in GRID_DELTA_M1:
            log_t = -p * math.log(1.0 + dm)
            for branch in ("plus", "minus"):
                yield [(np.float64(p), np.float64(log_t), branch), (p, log_t, branch)]
                yield [(p, 0.0, branch), (p, -0.0, branch)]
    for branch in ("plus", "minus"):
        yield [(2, -1, branch), (2.0, -1.0, branch)]


def test_the_memo_returns_what_a_cold_solve_returns():
    memo = roots.critical_root
    for group in _memo_cases():
        cold = []
        for args in group:
            _cold()
            cold.append(_bits(memo(*args)))
        _cold()
        for args in group:
            memo(*args)
        hits = memo.cache_info().hits
        warm = [_bits(memo(*args)) for args in group]
        assert memo.cache_info().hits == hits + len(group), group
        assert warm == cold, group
    # and the roots formed from it: q_star of an np.float64 class is an np.float64,
    # with the bits of the float solve
    _cold()
    assert _bits(q_star(np.float64(3.0), np.float64(1.5))) == (np.float64, q_star(3.0, 1.5).hex())


@pytest.mark.parametrize(
    "entry, args, name",
    [
        (q_star, (2.0, 0.5), "delta"),
        (q_star, (1.0, 2.0), "p"),
        (q_star, (2.0, math.nan), "delta"),
        (s_pair, (math.inf, 2.0), "p"),
        (roots.class_parameter, (2.0, 0.5, "plus"), "delta"),
    ],
)
def test_the_memo_keeps_no_error(entry, args, name):
    for _ in range(2):
        with pytest.raises(DomainError, match=rf"\b{name}\b"):
            entry(*args)


@pytest.fixture
def solves(monkeypatch):
    """The bisect_root calls made after the fixture starts, from cold memos."""
    calls = []
    solve = roots.bisect_root

    def counted(f, lo, hi, **kwargs):
        calls.append((lo, hi))
        return solve(f, lo, hi, **kwargs)

    monkeypatch.setattr(roots, "bisect_root", counted)
    _cold()
    return calls


def test_a_table_row_solves_each_root_once(solves):
    # every scalar entry point at one draw: q_star at delta and at the
    # n-dimensional epsilon, the left branch at the class, each branch at the
    # point, and the n-dimensional ratio; the right class parameter is not
    # solved, as the extremal weights take nu from q_star and t_star; 22
    # solves without the memo
    p, delta, x, q, q_low, t = 3.0, 1.5, (1.2, 3.0), 6.0, 0.68, 3.2
    upper, lower = Parameters(p, q, delta), Parameters(p, q_low, delta)
    extremal_weight(p, delta, x, "plus")
    extremal_weight(p, delta, x, "minus")
    ndim.ndim_aq_bound(p, 6.0, 2, 1.05)
    q_star(p, delta), q_sub(p, delta), t_star(p, delta)
    aq_constant(p, q, delta), ainf_constant(p, delta), rht_constant(p, t, delta)
    bellman_value(upper, x), bellman_value_gamma_form(upper, x)
    bellman_value(lower, x), bellman_value_gamma_form(lower, x)
    bellman_infinity_value(p, delta, x)
    r_pair(p, delta, x)
    assert len(solves) == 6, solves


def test_a_certificate_row_solves_each_root_once(solves):
    # the constants and extremal weights of a certificate: q_star and the
    # minus class parameter (for t_star), as the upper-curve weights take
    # their exponents from q_star and t_star; 5 solves without the memo
    p, delta = 3.0, 1.5
    x = (1.0, delta**p)
    extremal_weight(p, delta, x, "plus")
    extremal_weight(p, delta, x, "minus")
    extremal_weight(math.inf, delta, (1.0, delta), "plus")
    aq_constant(p, 6.0, delta), ainf_constant(p, delta), rht_constant(p, 3.2, delta)
    assert len(solves) == 2, solves


def test_the_constants_command_solves_q_star_once(solves, capsys):
    # aq_constant and ainf_constant both take q_star; 2 solves without the memo
    assert cli.main(["constants", "--p", "3", "--q", "6", "--delta", "1.5"]) == 0
    assert "q_star" in capsys.readouterr().out
    assert len(solves) == 1, solves


# -- the branches at large p and on the whole p range -------------------------


@pytest.mark.parametrize("p", [1e15, 1e17, 1e30, 1e100, 1e305])
@pytest.mark.parametrize("t", [0.5, 1e-3])
def test_branches_at_large_p_within_4_ulp(p, t):
    # the left bracket end once lay right of the root near p = 1e15 (and
    # p/e times too far out from 1e16 on), and the right seed past 1/p
    log_t = math.log(t)
    for solve in (roots.u_plus_from_log, roots.u_minus_from_log):
        got = solve(p, log_t)
        want = reference.branch_root(p, log_t, got)
        assert reference.abs_err(got, want) <= 4 * math.ulp(got), (solve.__name__, got, want)


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


@pytest.mark.parametrize("p", [1.01, 1.001])
def test_q_star_near_p_one_is_representable(p):
    # about 1.6495e18 and 5.03e176: far past any doubling budget from 2
    assert reference.q_star_miss(q_star(p, 1.5), p, 1.5) is None


def test_q_star_corners_within_a_few_ulp_of_log_q_over_delta():
    failures = []
    for pm in (1e-6, 1e-4, 1e-2, 1.0, 299.0):
        for dm in (1e-12, 1e-6, 1e-3, 0.5, 999.0):
            miss = reference.q_star_miss(q_star(1.0 + pm, 1.0 + dm), 1.0 + pm, 1.0 + dm)
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
    assert reference.rel_err(got, reference.branch_root(p, log_t, got)) <= 1e-15


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


def test_left_branch_at_log_t_near_700_within_4_ulp():
    # log F there is a difference of logarithms of size |log t|, just
    # short of where the left bracket end overflows
    for log_t in (-707.5, -706.5):
        got = roots.u_minus_from_log(2.0, log_t)
        assert reference.abs_err(got, reference.branch_root(2.0, log_t, got)) <= 4 * math.ulp(got)


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


@pytest.mark.parametrize("p", [1.000001, 1.001, 1.5, 3.0, 10.0, 1e6, 1e15, 1e30])
@pytest.mark.parametrize("gap", [1 / 64, 1e-3, 1e-6, 1e-12, 1e-100])
def test_right_gap_within_a_few_ulp_of_its_reference(p, gap):
    # the gap 1 - p*u = e**-y comes from y, or from zeta past the pivot, where
    # the log of p times it is log(t)/p - zeta: against 90-digit roots that log
    # is within 8 ulp of log(gap), and u within 4 ulp
    log_t, u_ref, z, log_m_ref = reference.right_gap(p, gap)
    c, zeta, u, _ = roots.critical_root(p, log_t, "plus")
    got, want = (log_t / p - zeta, log_m_ref) if c else (-zeta, z)
    assert reference.abs_err(got, want) <= 8 * 2.0**-53 * max(1.0, abs(float(z)))
    assert reference.rel_err(u, u_ref) <= 4 * 2.0**-53
