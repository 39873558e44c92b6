"""Power-weight family: closed-form moments against quadrature, class
norms, extremal construction, and the supremum oracle."""

import math
import random
import statistics

import numpy as np
import pytest

from sharpweights import (
    DomainError,
    FunctionalKind,
    PowerWeight,
    bellman_value,
    Parameters,
    classify_point,
    ess_sup,
    extremal_weight,
    functional_ratio,
    interval_moment,
    log_moment,
    moment,
    q_star,
    rhinf_norm_closed,
    rhp_norm_closed,
    sup_ratio_search,
)
from sharpweights import roots

import reference

SQRT3 = math.sqrt(3.0)

# pinned by 50-digit evaluation of the closed forms
EXT_NU = 6.4641016151377545871
EXT_A_12 = 0.62651986213839145432
EXT_C_12 = 2.1861847476083863913
AQ_CONST = 11967.912848418276852


def test_power_weight_validation():
    PowerWeight(1.0, 1.0, 0.0)
    with pytest.raises(DomainError):
        PowerWeight(0.0, 0.5, 1.0)
    with pytest.raises(DomainError):
        PowerWeight(math.inf, 0.5, 1.0)
    with pytest.raises(DomainError):
        PowerWeight(1.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        PowerWeight(1.0, 1.5, 1.0)
    with pytest.raises(DomainError):
        PowerWeight(1.0, 0.5, math.nan)


def test_power_weight_pointwise():
    w = PowerWeight(2.0, 0.5, 1.0)
    assert w(0.75) == 2.0
    assert w(0.25) == 1.0
    assert w(0.0) == 0.0
    assert PowerWeight(2.0, 0.5, -1.0)(0.0) == math.inf
    assert PowerWeight(2.0, 0.5, 0.0)(0.0) == 2.0


def test_functional_kind_validation():
    FunctionalKind.aq(3.0)
    FunctionalKind.rh_p(2.0)
    FunctionalKind.a_inf()
    FunctionalKind.rh_inf()
    with pytest.raises(DomainError):
        FunctionalKind.aq(1.0)
    with pytest.raises(DomainError):
        FunctionalKind.rh_p(0.5)
    with pytest.raises(DomainError):
        FunctionalKind("ainf", 3.0)
    with pytest.raises(DomainError):
        FunctionalKind("bogus")


def test_moment_examples():
    assert moment(PowerWeight(5.0, 0.3, 2.0), 0.0) == 1.0
    assert moment(PowerWeight(1.0, 1.0, 1.0), 1.0) == pytest.approx(0.5, abs=0)
    assert moment(PowerWeight(1.0, 0.5, 2.0), -1.0) == math.inf


def test_interval_moment_examples():
    w = PowerWeight(1.0, 0.5, 1.0)
    assert interval_moment(w, 1.0, 0.5, 1.0) == pytest.approx(1.0, rel=1e-14)
    assert interval_moment(w, 1.0, 0.25, 0.5) == pytest.approx(0.75, rel=1e-14)
    # moment is interval_moment on [0, 1]
    for theta in (-0.5, 1.0, 2.0, 3.5):
        assert interval_moment(w, theta, 0.0, 1.0) == moment(w, theta)


def _moment_corpus(seed=22, n=3000):
    """(c, a, nu, theta, alpha, beta): theta = +-2**j, so theta*nu is exact, with theta*nu
    within 1e-12 of -1 or up to 1e3 in size, c**theta anywhere from 1e-290 to 1e290, c
    subnormal for some theta <= 1/2, a on and off 1, and [0, 1] in a third of the draws."""
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        theta = rng.choice((-1.0, 1.0)) * 2.0 ** rng.randint(-6, 6)
        span = min(307.0, 290.0 / abs(theta))
        subnormal = abs(theta) <= 0.5 and rng.random() < 0.15
        c = 10.0 ** (rng.uniform(-323.0, -308.0) if subnormal else rng.uniform(-span, span))
        a = 1.0 if rng.random() < 0.4 else rng.uniform(0.01, 1.0)
        if rng.random() < 0.3:
            tn = -1.0 + rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-12.0, -0.3)
        else:
            tn = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-3.0, 3.0)
        if rng.random() < 0.35:
            alpha, beta = 0.0, 1.0
        else:
            alpha = 0.0 if rng.random() < 0.2 else rng.random() ** 3
            beta = alpha + (1.0 - alpha) * rng.random()
        if alpha < beta:
            out.append((c, a, tn / theta, theta, alpha, beta))
    return out


@pytest.mark.parametrize("name, call, on_unit, max_u, median_u", [
    # 708 cases: 2.62u and 0.53085u (38.83u and 0.53172u before moment was
    # interval_moment on [0, 1])
    ("moment", lambda w, theta, alpha, beta: moment(w, theta), True, 3.0, 0.5317),
    # 2,484 cases: 935.6u and 0.71332u (1,385.5u before the one log-mean kernel); the
    # ramp term raises larger/a to the power e and loses about |e| ulp (test_findings)
    ("interval_moment", interval_moment, False, 1000.0, 0.71332),
], ids=["moment", "interval_moment"])
def test_moments_on_a_seeded_corpus_at_50_digits(name, call, on_unit, max_u, median_u):
    cases = [x for x in _moment_corpus() if not on_unit or x[4:] == (0.0, 1.0)]
    errs = reference.moment_errors(call, cases)
    assert len(errs) >= 600
    assert max(errs) <= max_u and statistics.median(errs) <= median_u, (
        max(errs), statistics.median(errs))


def test_interval_moment_divergence_and_errors():
    w = PowerWeight(1.0, 0.5, 2.0)
    assert interval_moment(w, -1.0, 0.0, 0.25) == math.inf
    assert math.isfinite(interval_moment(w, -1.0, 0.1, 0.25))
    with pytest.raises(DomainError):
        interval_moment(w, 1.0, 0.5, 0.5)
    with pytest.raises(DomainError):
        interval_moment(w, 1.0, 0.7, 0.2)
    with pytest.raises(DomainError):
        interval_moment(w, 1.0, -0.1, 0.5)


def test_interval_moment_near_singular_exponent():
    # theta*nu + 1 ~ 0: the ramp antiderivative approaches its log limit
    w = PowerWeight(1.0, 1.0, 2.0)
    val = interval_moment(w, -0.5 + 1e-12, 0.25, 0.75)
    exact = math.log(3.0) / 0.5  # integral of 1/t over [0.25, 0.75] / 0.5
    assert val == pytest.approx(exact, rel=1e-9)


@pytest.mark.parametrize(
    "theta, alpha, beta",
    [
        (-0.5 - 1e-9, 0.5, 0.5001),
        (-0.4999999, 0.5, 0.50001),
        (-0.5 + 1e-12, 0.25, 0.75),
        (-0.5, 0.25, 0.75),
        (-0.75, 0.3, 0.3 + 1e-6),
        (3.0, 1e-3, 0.9),
    ],
)
def test_interval_moment_next_to_the_log_limit(theta, alpha, beta):
    # (beta**e - alpha**e)/e with e = 2*theta + 1 near 0, and on short
    # intervals: a plain difference of powers cancels there (4e-4
    # relative error in the first case)
    w = PowerWeight(1.0, 1.0, 2.0)
    assert reference.rel_err(interval_moment(w, theta, alpha, beta), reference.average(w, theta, alpha, beta)) <= 1e-15


def test_log_moment_examples():
    assert log_moment(PowerWeight(1.0, 1.0, 1.0), 0.0, 1.0) == pytest.approx(-1.0, rel=1e-14)
    assert log_moment(PowerWeight(math.e, 0.5, 0.0), 0.0, 1.0) == pytest.approx(1.0, rel=1e-14)
    assert log_moment(PowerWeight(1.0, 0.5, 2.0), 0.0, 1.0) == pytest.approx(-1.0, rel=1e-14)


SHORT_WEIGHTS = [
    PowerWeight(1.0, 1.0, 2.0),
    PowerWeight(2.0, 0.7, 6.46),
    PowerWeight(0.03, 0.25, -0.8),
    PowerWeight(546.0, 0.475, 9.7),
]


@pytest.mark.parametrize("w", SHORT_WEIGHTS)
def test_log_moment_keeps_its_digits_on_short_intervals(w):
    # the ramp average subtracts no two nearly equal antiderivatives, so
    # the error stays at rounding level down to intervals 1e-14 long
    for k in range(15):
        length = 10.0**-k
        for alpha in (0.0, 1e-3, 0.1, 0.5 * w.a, w.a - 0.5 * length, w.a):
            beta = min(alpha + length, 1.0)
            if not 0.0 <= alpha < beta:
                continue
            ref = reference.average(w, None, alpha, beta)
            got = log_moment(w, alpha, beta)
            assert reference.abs_err(got, ref) <= 1e-14 * max(1.0, float(abs(ref))), (alpha, beta, got, ref)
            # Jensen: the average of w is at least exp of the average of
            # log w.  The ratio may fall below 1 only by the relative
            # error exp(-log_moment) inherits, the error allowed above
            ratio = functional_ratio(w, FunctionalKind.a_inf(), alpha, beta)
            assert ratio >= 1.0 - 1e-14 * max(1.0, abs(got)), (alpha, beta, ratio)


@pytest.mark.parametrize("nu", [1e2, 1e6, 1e10, 1e14, 1e16, -0.9, -0.25])
@pytest.mark.parametrize("kind", [FunctionalKind.rh_p(20.0), FunctionalKind.rh_p(1.5),
                                  FunctionalKind.rh_inf(), FunctionalKind.aq(1e20),
                                  FunctionalKind.a_inf()], ids=["rh20", "rh1.5", "rhinf", "aq", "ainf"])
@pytest.mark.parametrize("alpha, beta", [(1e-10, 1e-9), (0.1, 0.3), (0.2, 0.4)])
def test_functionals_on_ramp_intervals_at_large_nu(nu, kind, alpha, beta):
    # on [alpha, beta] inside [0, a] every functional is that of t**nu on [alpha/beta, 1];
    # RH_t(20) on [1e-10, 1e-9] was 1.2e-9 off at nu = 1e6 and 1.0 at nu = 1e16 (test_findings)
    w = PowerWeight(3.0, 0.5, nu)
    if kind.name == "rhinf" and nu < 0.0:
        return
    got = functional_ratio(w, kind, alpha, beta)
    ref = reference.functional(w, kind, alpha, beta)
    if ref > 1.7976931348623157e308:
        assert got == math.inf
    else:
        assert reference.rel_err(got, ref) <= 1e-13, (got, ref)


def test_a_inf_functional_on_a_short_interval():
    w = PowerWeight(2.0, 0.7, 6.46)
    alpha, beta = 0.1, 0.1 + 2.0**-20
    got = functional_ratio(w, FunctionalKind.a_inf(), alpha, beta)
    assert got > 1.0
    assert reference.rel_err(got, reference.functional(w, FunctionalKind.a_inf(), alpha, beta)) <= 1e-14


def test_interval_moment_where_the_endpoint_power_underflows():
    # a**(-theta*nu) times ramp_hi**(theta*nu + 1) underflowed to 0 here
    w = PowerWeight(1.2016080357978036, 0.2264456716748494, 26.432547035434)
    theta, alpha, beta = 9.963694793968244, 0.02635453440905089, 0.02803930625538631
    got, ref = interval_moment(w, theta, alpha, beta), reference.average(w, theta, alpha, beta)
    assert reference.rel_err(got, ref) <= 1e-13, (got, ref)


def test_interval_moment_where_the_ramp_power_is_large():
    # (1e-10)**-31 passes the float range, though the value, about
    # 6.7e298, does not
    w = PowerWeight(1.0, 1.0, -31.0)
    alpha, beta = 1e-10, 0.5
    got, ref = interval_moment(w, 1.0, alpha, beta), reference.average(w, 1.0, alpha, beta)
    assert reference.rel_err(got, ref) <= 1e-13, (got, ref)


def test_ess_sup_examples():
    assert ess_sup(PowerWeight(3.0, 0.5, 2.0), 0.0, 1.0) == 3.0
    assert ess_sup(PowerWeight(1.0, 0.5, 1.0), 0.0, 0.25) == pytest.approx(0.5, rel=1e-14)
    assert ess_sup(PowerWeight(2.0, 1.0, 3.0), 0.0, 0.5) == pytest.approx(0.25, rel=1e-14)
    with pytest.raises(DomainError):
        ess_sup(PowerWeight(1.0, 0.5, -0.5), 0.0, 1.0)


def test_rhp_norm_examples():
    assert rhp_norm_closed(PowerWeight(3.0, 0.4, 0.0), 2.0) == 1.0
    assert rhp_norm_closed(PowerWeight(1.0, 1.0, 1.0), 2.0) == pytest.approx(
        2.0 / SQRT3, rel=1e-14
    )
    assert rhp_norm_closed(PowerWeight(1.0, 1.0, EXT_NU), 2.0) == pytest.approx(2.0, rel=1e-12)
    with pytest.raises(DomainError):
        rhp_norm_closed(PowerWeight(1.0, 1.0, -0.5), 2.0)
    with pytest.raises(DomainError):
        rhp_norm_closed(PowerWeight(1.0, 1.0, 1.0), math.inf)


def test_rhinf_norm_examples():
    assert rhinf_norm_closed(PowerWeight(1.0, 0.5, 0.0)) == 1.0
    assert rhinf_norm_closed(PowerWeight(1.0, 0.5, 1.0)) == 2.0
    assert rhinf_norm_closed(PowerWeight(1.0, 0.5, 1.25)) == 2.25
    with pytest.raises(DomainError):
        rhinf_norm_closed(PowerWeight(1.0, 0.5, -0.1))


def test_extremal_on_upper_curve():
    w = extremal_weight(2.0, 2.0, (1.0, 4.0), "plus")
    assert w.nu == pytest.approx(EXT_NU, rel=1e-11)
    assert w.a == 1.0
    assert w.c == pytest.approx(4.0 + 2.0 * SQRT3, rel=1e-11)
    assert moment(w, 1.0) == pytest.approx(1.0, abs=1e-10)
    assert moment(w, 2.0) == pytest.approx(4.0, abs=1e-10)
    assert rhp_norm_closed(w, 2.0) == pytest.approx(2.0, abs=1e-10)


@pytest.mark.parametrize("branch", ["plus", "minus"])
@pytest.mark.parametrize("p, delta, x", [(2.0, 2.0, (1.0, 4.0)), (3.0, 1.5, (1.0, 3.375))])
def test_extremal_breakpoint_is_one_on_the_upper_curve(p, delta, x, branch):
    # the point parameter r is 0 on the upper curve, where
    # a = 1 - r/(nu*(1 - p*r)) is exactly 1 for either branch exponent nu
    assert extremal_weight(p, delta, x, branch).a == 1.0


def test_every_upper_curve_weight_is_a_pure_power():
    # x2 = (delta*x1)**p rounds up or down, and x2 = delta*x1 at p = inf too;
    # either way the point is classified upper and the weight is t**nu on
    # all of [0, 1], with no plateau of rounding
    rng = random.Random(25)
    rounded_down = 0
    for _ in range(400):
        p = 1.0 + 10.0 ** rng.uniform(-0.7, 1.0)
        delta = 1.0 + 10.0 ** rng.uniform(-6.0, 0.5)
        x1 = 10.0 ** rng.uniform(-2.0, 2.0)
        x = (x1, (delta * x1) ** p)
        rounded_down += x[1] < reference.boundary(p, delta, x1)[1]
        assert classify_point(p, delta, x) == "upper"
        for branch in ("plus", "minus"):
            assert extremal_weight(p, delta, x, branch).a == 1.0, (p, delta, x, branch)
        top = (x1, delta * x1)
        assert classify_point(math.inf, delta, top) == "upper"
        assert extremal_weight(math.inf, delta, top, "plus").a == 1.0, (delta, top)
    assert rounded_down >= 100


def test_plus_weights_on_the_upper_curve_have_class_norm_delta():
    # 20,000 draws, p - 1 = 10**U(-4, 3) and delta - 1 = 10**U(-6, 3), x = (1,
    # delta**p), 19,354 with a finite x2: nu = q_star - 1 puts every class norm
    # within 3.6e-14 of delta, where nu = s/(1 - p*s) missed by more than 1e-12
    # in 4,980 draws (p = 1.01, delta = 1.5: nu was 8.9e15, not 1.65e18, and the
    # norm 1.424); the 1,755 draws whose q_star is +inf are refused
    rng = np.random.default_rng(7)
    finite = refused = 0
    for _ in range(20_000):
        p, delta = 1.0 + 10.0 ** rng.uniform(-4.0, 3.0), 1.0 + 10.0 ** rng.uniform(-6.0, 3.0)
        try:
            x = (1.0, delta**p)
        except OverflowError:
            continue
        finite += 1
        if math.isinf(q_star(p, delta)):
            with pytest.raises(DomainError, match=rf"p = {p}, delta = {delta}"):
                extremal_weight(p, delta, x, "plus")
            refused += 1
            continue
        w = extremal_weight(p, delta, x, "plus")
        assert abs(rhp_norm_closed(w, p) - delta) <= 1e-12 * delta, (p, delta, w)
    assert (finite, refused) == (19_354, 1_755)


def interior_corpus():
    """(p, delta, x) of 4,000 draws from default_rng(7): p - 1 = 10**U(-1.5, 2),
    delta - 1 = 10**U(-4, 2) and x = (1, delta**(p*U(0, 1))), interior only."""
    rng = np.random.default_rng(7)
    for _ in range(4000):
        p, delta = 1.0 + 10.0 ** rng.uniform(-1.5, 2.0), 1.0 + 10.0 ** rng.uniform(-4.0, 2.0)
        x = (1.0, delta ** (p * rng.uniform(0.0, 1.0)))
        if classify_point(p, delta, x) == "interior":
            yield p, delta, x


def test_extremal_weights_at_interior_points_meet_x_and_delta():
    # nu from q_star and t_star, a and c from nu and the point's gap 1 - p*r.
    # nu = s/(1 - p*s) from the class parameter missed the class norm by more
    # than 1e-12 in 334 plus weights here (0.945 at worst) and x1 by more than
    # 1e-9 in 239, and refused 50 plus and 272 minus weights.  A weight whose
    # float a or nu cannot carry its plateau or 1 + p*nu is refused
    refused = {"plus": 0, "minus": 0}
    for p, delta, x in interior_corpus():
        for branch in refused:
            try:
                w = extremal_weight(p, delta, x, branch)
            except DomainError as err:
                assert f"p = {p}, delta = {delta}" in str(err), str(err)
                refused[branch] += 1
                continue
            if branch == "plus":
                assert abs(rhp_norm_closed(w, p) - delta) <= 1e-12 * delta, (p, delta, x)
            assert abs(moment(w, 1.0) - x[0]) <= 1e-9 * x[0], (p, delta, x, branch)
            assert abs(moment(w, p) - x[1]) <= 1e-9 * x[1], (p, delta, x, branch)
    assert refused == {"plus": 151, "minus": 594}


def test_extremal_interior_point():
    w = extremal_weight(2.0, 2.0, (1.0, 2.0), "plus")
    assert w.nu == pytest.approx(EXT_NU, rel=1e-11)
    assert w.a == pytest.approx(EXT_A_12, rel=1e-10)
    assert w.c == pytest.approx(EXT_C_12, rel=1e-10)
    assert moment(w, 1.0) == pytest.approx(1.0, abs=1e-10)
    assert moment(w, 2.0) == pytest.approx(2.0, abs=1e-10)


def test_extremal_minus_branch():
    w = extremal_weight(2.0, 1.05, (1.0, 1.05), "minus")
    assert w.nu == pytest.approx(-0.23366402246522462993, rel=1e-10)
    assert w.a == pytest.approx(0.23339167554367018267, rel=1e-9)
    assert w.c == pytest.approx(0.93356419776435097587, rel=1e-10)
    assert -0.5 < w.nu <= 0.0
    assert moment(w, 1.0) == pytest.approx(1.0, abs=1e-10)
    assert moment(w, 2.0) == pytest.approx(1.05, abs=1e-10)
    assert rhp_norm_closed(w, 2.0) == pytest.approx(1.05, abs=1e-10)


def test_extremal_reproduces_bellman_value():
    params = Parameters(2.0, 0.7, 1.05)
    w = extremal_weight(2.0, 1.05, (1.0, 1.05), "minus")
    lhs = moment(w, 1.0 - params.q_conj)
    assert lhs == pytest.approx(bellman_value(params, (1.0, 1.05)), rel=1e-10)


def test_extremal_minus_branch_outside_integrable_range():
    # for large p*log(delta), nu = -1/t_star lies within rounding of -1/p: at
    # delta = 55 the exact nu is -1/20 + 2.8e-37, whose nearest float is -1/20,
    # and at delta = 5 it lies about 27 ulp above -1/20, too close for a float
    # nu to carry 1 + p*nu (the weight built from it missed x2 by 2.6% and the
    # class norm by 6.4e-3).  Each weight is refused, never asserted
    for delta, x2 in ((5.0, 5.0**20), (50.0, 1e16), (55.0, 1e16)):
        with pytest.raises(DomainError, match=rf"minus branch at p = 20.0, delta = {delta}"):
            extremal_weight(20.0, delta, (1.0, x2), "minus")
    # the exponent itself is right to a few ulp
    nu = roots.ramp_exponents(20.0, 5.0, "minus")[0]
    assert nu > -1.0 / 20.0
    exact_nu = reference.critical(20.0, 5.0).nu_minus
    assert exact_nu > -0.05 and reference.abs_err(exact_nu, "-0.05") > 20 * math.ulp(1.0 / 20.0)
    assert reference.abs_err(nu, exact_nu) <= 4 * math.ulp(nu)


def test_extremal_minus_branch_past_the_float_range():
    # delta**p = 1.02e308 is finite, but p*s_minus is not: s_minus is -inf
    with pytest.raises(DomainError, match=r"minus branch at p = 1000, delta = 2.0324"):
        extremal_weight(1000, 2.0324, (1.0, 2.0324**1000), "minus")


def test_extremal_p_inf():
    w = extremal_weight(math.inf, 2.0, (1.0, 2.0), "plus")
    assert (w.c, w.a, w.nu) == (2.0, 1.0, 1.0)
    assert moment(w, 1.0) == pytest.approx(1.0, rel=1e-14)
    assert ess_sup(w, 0.0, 1.0) == 2.0
    assert rhinf_norm_closed(w) == 2.0
    w2 = extremal_weight(math.inf, 2.0, (1.0, 1.5), "plus")
    assert w2.a == pytest.approx(2.0 / 3.0, rel=1e-14)
    assert moment(w2, 1.0) == pytest.approx(1.0, rel=1e-14)


def test_extremal_degenerates_to_constant():
    for p, delta, x in ((2.0, 2.0, (3.0, 9.0)), (2.0, 1.0, (3.0, 9.0)), (math.inf, 1.0, (2.0, 2.0))):
        w = extremal_weight(p, delta, x, "plus")
        assert (w.c, w.a, w.nu) == (x[0], 1.0, 0.0)


def test_extremal_rejects_bad_branch():
    with pytest.raises(DomainError):
        extremal_weight(2.0, 2.0, (1.0, 2.0), "positive")


def test_functional_ratio_constant_weight():
    w = PowerWeight(3.7, 1.0, 0.0)
    for kind in (
        FunctionalKind.aq(5.0),
        FunctionalKind.a_inf(),
        FunctionalKind.rh_p(2.5),
        FunctionalKind.rh_inf(),
    ):
        assert functional_ratio(w, kind, 0.1, 0.8) == pytest.approx(1.0, rel=1e-12)


def test_functional_ratio_examples():
    w = extremal_weight(2.0, 2.0, (1.0, 4.0), "plus")
    assert functional_ratio(w, FunctionalKind.rh_p(2.0), 0.0, w.a) == pytest.approx(
        2.0, rel=1e-10
    )
    assert functional_ratio(w, FunctionalKind.aq(10.0), 0.0, 0.5) == pytest.approx(
        AQ_CONST, rel=1e-9
    )


def test_aq_ratio_is_beta_independent_on_the_ramp():
    w = extremal_weight(2.0, 2.0, (1.0, 4.0), "plus")
    kind = FunctionalKind.aq(10.0)
    vals = [functional_ratio(w, kind, 0.0, beta) for beta in (0.125, 0.3, 0.5, 1.0)]
    for v in vals[1:]:
        assert v == pytest.approx(vals[0], rel=1e-10)


def test_functional_ratio_infinity_propagation():
    w = PowerWeight(1.0, 0.5, EXT_NU)
    assert functional_ratio(w, FunctionalKind.aq(1.2), 0.0, 1.0) == math.inf
    steep = PowerWeight(1.0, 0.5, -1.5)
    with pytest.raises(DomainError, match="average is infinite"):
        functional_ratio(steep, FunctionalKind.rh_p(2.0), 0.0, 0.5)
    # on [0, a]: <w> diverges for nu = -1.5, and <w**2> for nu = -0.6
    assert functional_ratio(steep, FunctionalKind.a_inf(), 0.0, 0.5) == math.inf
    assert functional_ratio(PowerWeight(1.0, 0.5, -0.6), FunctionalKind.rh_p(2.0), 0.0, 0.5) == math.inf


def test_quadrature_cross_check():
    rng = random.Random(123)
    checked = 0
    while checked < 100:
        nu = rng.uniform(-0.6, 3.0)
        theta = rng.uniform(-2.0, 3.0)
        if theta * nu <= -0.9:
            continue
        a = rng.uniform(0.05, 1.0)
        c = rng.uniform(0.2, 5.0)
        w = PowerWeight(c, a, nu)
        if rng.random() < 0.2:
            alpha = 0.0
        else:
            alpha = rng.uniform(0.0, 0.9)
        beta = rng.uniform(alpha + 0.05, 1.0) if alpha < 0.95 else 1.0
        if not alpha < beta:
            continue
        closed = interval_moment(w, theta, alpha, beta)
        assert reference.rel_err(closed, reference.quad_average(w, theta, alpha, beta)) <= 1e-12
        checked += 1


def test_log_moment_quadrature_cross_check():
    rng = random.Random(5)
    for _ in range(20):
        w = PowerWeight(rng.uniform(0.2, 5.0), rng.uniform(0.1, 1.0), rng.uniform(-2.0, 3.0))
        alpha = rng.uniform(0.0, 0.5)
        beta = rng.uniform(alpha + 0.1, 1.0)
        closed = log_moment(w, alpha, beta)
        numeric = reference.quad_average(w, None, alpha, beta)
        assert reference.abs_err(closed, numeric) <= max(1e-12 * float(abs(numeric)), 1e-14)


def test_sup_search_constant_weight():
    sup, (alpha, beta) = sup_ratio_search(PowerWeight(2.0, 1.0, 0.0), FunctionalKind.aq(5.0), 3)
    assert sup == 1.0
    assert 0.0 <= alpha < beta <= 1.0


def test_sup_search_rhp_hits_closed_norm():
    w = extremal_weight(2.0, 2.0, (1.0, 4.0), "plus")
    sup, (alpha, beta) = sup_ratio_search(w, FunctionalKind.rh_p(2.0), 10)
    assert sup == pytest.approx(2.0, rel=1e-9)
    # the ratio is flat in beta on the pure ramp, so only the left
    # endpoint of the argmax is forced; the witness must attain the sup
    assert alpha == 0.0
    assert 0.0 < beta <= 1.0
    assert functional_ratio(w, FunctionalKind.rh_p(2.0), alpha, beta) == pytest.approx(sup, rel=1e-12)


def test_sup_search_rhinf_hits_closed_norm():
    w = PowerWeight(1.0, 0.5, 1.0)
    sup, _ = sup_ratio_search(w, FunctionalKind.rh_inf(), 10)
    assert sup == pytest.approx(2.0, rel=1e-9)


def test_sup_search_divergent_moment():
    w = PowerWeight(1.0, 0.5, EXT_NU)
    sup, (alpha, beta) = sup_ratio_search(w, FunctionalKind.aq(1.2), 8)
    assert sup == math.inf
    assert (alpha, beta) == (0.0, 0.5)


def test_sup_search_monotone_in_depth():
    w = extremal_weight(2.0, 2.0, (1.0, 2.0), "plus")
    kind = FunctionalKind.aq(10.0)
    # each grid holds the last one, breakpoint included
    sups = [sup_ratio_search(w, kind, d)[0] for d in (4, 6, 8)]
    assert sups[0] <= sups[1] <= sups[2]


def test_sup_search_validation():
    w = PowerWeight(1.0, 0.5, 1.0)
    with pytest.raises(DomainError):
        sup_ratio_search(w, FunctionalKind.aq(5.0), 0)
    # the cap: no check of the constants needs a grid finer than depth 17
    with pytest.raises(DomainError, match=r"depth must lie in \[1, 17\], got depth = 18"):
        sup_ratio_search(w, FunctionalKind.aq(5.0), 18)
    with pytest.raises(DomainError):
        sup_ratio_search(PowerWeight(1.0, 0.5, -0.2), FunctionalKind.rh_inf(), 4)


@pytest.mark.parametrize("depth", [12.5, 3.0, "12", None])
def test_sup_search_refuses_a_depth_that_is_not_an_integer(depth):
    with pytest.raises(DomainError, match=rf"depth must be an integer, got depth = {depth}"):
        sup_ratio_search(PowerWeight(1.0, 0.5, 1.0), FunctionalKind.aq(5.0), depth)


def test_sup_search_takes_integer_types_as_their_value():
    w, kind = PowerWeight(1.0, 0.5, 1.0), FunctionalKind.aq(5.0)
    assert sup_ratio_search(w, kind, True) == sup_ratio_search(w, kind, 1)
    assert sup_ratio_search(w, kind, np.int64(6)) == sup_ratio_search(w, kind, 6)
