"""Input contract: every entry point refuses a bad p, delta, q, branch
name or point coordinate with a DomainError whose message names that
parameter, and valid inputs give valid values."""

import math
import random
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from sharpweights import (
    DomainError,
    FunctionalKind,
    Parameters,
    PowerWeight,
    ainf_constant,
    aq_constant,
    bellman_infinity_value,
    bellman_limit_check,
    bellman_value,
    bellman_value_gamma_form,
    boundary_values,
    classify_point,
    delta_threshold,
    epsilon_bound,
    ess_sup,
    extremal_weight,
    functional_ratio,
    hessian_form,
    interval_moment,
    moment,
    ndim_aq_bound,
    q_star,
    q_sub,
    r_pair,
    ratio_bound_y,
    rhinf_norm_closed,
    rhp_norm_closed,
    rht_constant,
    s_pair,
    sup_ratio_search,
    t_star,
    tangent_segment,
    u_minus,
    u_plus,
)
from sharpweights import cli, roots

import reference

CONTRACT = settings(derandomize=True, database=None, max_examples=25, deadline=None)

# p <= 1 (or -inf) and nan are refused everywhere, inf where p must be finite
BAD_P = st.floats(max_value=1.0) | st.just(math.nan)
NON_FINITE_OR_BAD_P = BAD_P | st.just(math.inf)
BAD_DELTA = st.floats(max_value=1.0, exclude_max=True) | st.sampled_from([math.nan, math.inf])
BAD_BRANCH = st.text(max_size=8).filter(lambda b: b not in ("plus", "minus"))
BAD_Q = st.floats(max_value=1.0) | st.sampled_from([math.nan, math.inf])
BAD_COORD = st.floats(max_value=0.0) | st.sampled_from([math.nan, math.inf])
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])

X = (1.0, 2.0)  # interior at p = 2, delta = 2; the checks run before any use of x

# entry points that need a finite p, as functions of p
NEED_FINITE_P = {
    "u_plus": lambda p: u_plus(p, 0.5),
    "u_minus": lambda p: u_minus(p, 0.5),
    "s_pair": lambda p: s_pair(p, 2.0),
    "r_pair": lambda p: r_pair(p, 2.0, X),
    "class_parameter": lambda p: roots.class_parameter(p, 2.0, "plus"),
    "q_sub": lambda p: q_sub(p, 2.0),
    "t_star": lambda p: t_star(p, 2.0),
    "rht_constant": lambda p: rht_constant(p, 3.0, 2.0),
    "tangent_segment": lambda p: tangent_segment(p, 2.0, 1.0),
    "rhp_norm_closed": lambda p: rhp_norm_closed(PowerWeight(1.0, 0.5, 1.0), p),
    "delta_threshold": lambda p: delta_threshold(p, 2),
    "ratio_bound_y": lambda p: ratio_bound_y(p, 2, 1.01),
    "epsilon_bound": lambda p: epsilon_bound(p, 2, 1.01),
    "ndim_aq_bound": lambda p: ndim_aq_bound(p, 3.0, 2, 1.01),
}

# entry points defined at p = inf as well
ANY_P = {
    "boundary_values": lambda p: boundary_values(p, 2.0, 1.0),
    "classify_point": lambda p: classify_point(p, 2.0, X),
    "q_star": lambda p: q_star(p, 2.0),
    "aq_constant": lambda p: aq_constant(p, 10.0, 2.0),
    "ainf_constant": lambda p: ainf_constant(p, 2.0),
    "Parameters": lambda p: Parameters(p, 10.0, 2.0),
    "bellman_infinity_value": lambda p: bellman_infinity_value(p, 2.0, X),
    "extremal_weight": lambda p: extremal_weight(p, 2.0, X, "plus"),
}

# the finite-p forms of the Bellman function, at a valid p = inf triple
FINITE_P_FORMS = {
    "bellman_value_gamma_form": lambda params: bellman_value_gamma_form(params, (1.0, 1.5)),
    "hessian_form": lambda params: hessian_form(params, (1.0, 1.5), 1.0, 0.0),
}

WITH_DELTA = {
    "boundary_values": lambda d: boundary_values(2.0, d, 1.0),
    "classify_point": lambda d: classify_point(2.0, d, X),
    "q_star": lambda d: q_star(2.0, d),
    "s_pair": lambda d: s_pair(2.0, d),
    "r_pair": lambda d: r_pair(2.0, d, X),
    "class_parameter": lambda d: roots.class_parameter(2.0, d, "minus"),
    "q_sub": lambda d: q_sub(2.0, d),
    "t_star": lambda d: t_star(2.0, d),
    "aq_constant": lambda d: aq_constant(2.0, 10.0, d),
    "ainf_constant": lambda d: ainf_constant(2.0, d),
    "rht_constant": lambda d: rht_constant(2.0, 3.0, d),
    "Parameters": lambda d: Parameters(2.0, 10.0, d),
    "bellman_infinity_value": lambda d: bellman_infinity_value(2.0, d, X),
    "extremal_weight": lambda d: extremal_weight(2.0, d, X, "plus"),
    "tangent_segment": lambda d: tangent_segment(2.0, d, 1.0),
    "ratio_bound_y": lambda d: ratio_bound_y(2.0, 2, d),
    "epsilon_bound": lambda d: epsilon_bound(2.0, 2, d),
    "ndim_aq_bound": lambda d: ndim_aq_bound(2.0, 3.0, 2, d),
}

WITH_Q = {
    "aq_constant": lambda q: aq_constant(2.0, q, 2.0),
    "ndim_aq_bound": lambda q: ndim_aq_bound(2.0, q, 2, 1.01),
}

# the functionals that take an exponent, which must be finite and above 1
WITH_EXPONENT = {
    "FunctionalKind.aq": FunctionalKind.aq,
    "FunctionalKind.rh_p": FunctionalKind.rh_p,
}

# the averages of a power theta of a weight, which must be finite
WITH_THETA = {
    "moment": lambda theta: moment(PowerWeight(1.0, 0.5, 1.0), theta),
    "interval_moment": lambda theta: interval_moment(PowerWeight(1.0, 0.5, 1.0), theta, 0.1, 0.7),
}

# entry points that take a domain point, as functions of it, at p = 400
# and delta = 2: both bounds overflow at x1 = 10, so x2 = inf passes them
# and only the coordinate check refuses it
WITH_POINT = {
    "classify_point": lambda x: classify_point(400.0, 2.0, x),
    "r_pair": lambda x: r_pair(400.0, 2.0, x),
    "bellman_value": lambda x: bellman_value(Parameters(400.0, 3.0, 2.0), x),
    "extremal_weight": lambda x: extremal_weight(400.0, 2.0, x, "plus"),
}

# on the lower curve, at delta = 1 and at p = inf the branch is never
# solved for, and a bad name must still be refused
WITH_BRANCH = {
    "class_parameter": lambda b: roots.class_parameter(2.0, 2.0, b),
    "extremal_weight": lambda b: extremal_weight(2.0, 2.0, X, b),
    "extremal_weight lower curve": lambda b: extremal_weight(2.0, 2.0, (1.0, 1.0), b),
    "extremal_weight delta = 1": lambda b: extremal_weight(2.0, 1.0, (1.0, 1.0), b),
    "extremal_weight p = inf": lambda b: extremal_weight(math.inf, 2.0, X, b),
    "tangent_segment": lambda b: tangent_segment(2.0, 2.0, 1.0, b),
}


def refused_naming(call, arg, name):
    with pytest.raises(DomainError) as info:
        call(arg)
    assert re.search(rf"\b{name}\b", str(info.value)), str(info.value)


@pytest.mark.parametrize("entry", sorted(NEED_FINITE_P))
@CONTRACT
@given(p=NON_FINITE_OR_BAD_P)
def test_finite_p_entry_points_refuse_bad_p(entry, p):
    refused_naming(NEED_FINITE_P[entry], p, "p")


@pytest.mark.parametrize("entry", sorted(ANY_P))
@CONTRACT
@given(p=BAD_P)
def test_entry_points_refuse_bad_p(entry, p):
    refused_naming(ANY_P[entry], p, "p")


@pytest.mark.parametrize("entry", sorted(FINITE_P_FORMS))
def test_finite_p_forms_refuse_p_inf(entry):
    refused_naming(FINITE_P_FORMS[entry], Parameters(math.inf, 3.0, 2.0), "p")


@pytest.mark.parametrize("entry", sorted(WITH_DELTA))
@CONTRACT
@given(delta=BAD_DELTA)
def test_entry_points_refuse_bad_delta(entry, delta):
    refused_naming(WITH_DELTA[entry], delta, "delta")


@pytest.mark.parametrize("entry", sorted(WITH_Q))
@CONTRACT
@given(q=BAD_Q)
def test_entry_points_refuse_bad_q(entry, q):
    refused_naming(WITH_Q[entry], q, "q")


@pytest.mark.parametrize("entry", sorted(WITH_EXPONENT))
@CONTRACT
@given(exponent=BAD_Q)
def test_functionals_refuse_bad_exponent(entry, exponent):
    refused_naming(WITH_EXPONENT[entry], exponent, "exponent")


@pytest.mark.parametrize("entry", sorted(WITH_THETA))
@CONTRACT
@given(theta=NON_FINITE)
def test_averages_refuse_non_finite_theta(entry, theta):
    refused_naming(WITH_THETA[entry], theta, "theta")


@CONTRACT
@given(d=NON_FINITE)
def test_hessian_form_refuses_non_finite_direction(d):
    params = Parameters(2.0, 10.0, 2.0)
    refused_naming(lambda d1: hessian_form(params, X, d1, 0.3), d, "d1")
    refused_naming(lambda d2: hessian_form(params, X, 0.3, d2), d, "d2")


@pytest.mark.parametrize("entry", sorted(WITH_POINT))
@CONTRACT
@given(coord=BAD_COORD)
def test_entry_points_refuse_bad_coordinates(entry, coord):
    refused_naming(lambda x1: WITH_POINT[entry]((x1, math.inf)), coord, "x1")
    refused_naming(lambda x2: WITH_POINT[entry]((10.0, x2)), coord, "x2")


@pytest.mark.parametrize("entry", sorted(WITH_BRANCH))
@CONTRACT
@given(branch=BAD_BRANCH | st.sampled_from(["Plus", "MINUS", " plus", ""]))
def test_entry_points_refuse_unknown_branch(entry, branch):
    refused_naming(WITH_BRANCH[entry], branch, "branch")


@CONTRACT
@given(
    p=st.floats(min_value=1.0, max_value=1e308, exclude_min=True),
    delta=st.floats(min_value=1.0, max_value=1e308),
)
@example(p=5.050934025769548e305, delta=7.303497231054411e264)
def test_q_star_lies_between_delta_and_its_upper_bound(p, delta):
    value = q_star(p, delta)
    assert not math.isnan(value) and value >= delta, (p, delta, value)
    # (q/delta)**p = 1 + p*(q - 1) < p*q at the root, so q_star is below
    # exp(log_hi), and finite wherever that bound is
    log_hi = math.log(delta) + (math.log(p) + math.log(delta)) / (p - 1.0)
    if log_hi < 709.0:
        assert value <= math.exp(log_hi) * (1.0 + 1e-12), (p, delta, value)


def _floats(value):
    """Every float inside a result: a float, or a tuple or record of them."""
    if isinstance(value, tuple):
        return [f for item in value for f in _floats(item)]
    return [value] if isinstance(value, float) else []


HUGE_X = (1.0, 1.5)
AT_HUGE_P = {
    "bellman_value": lambda p: bellman_value(Parameters(p, 3.0, 2.0), HUGE_X),
    "bellman_value_gamma_form": lambda p: bellman_value_gamma_form(Parameters(p, 3.0, 2.0), HUGE_X),
    "bellman_limit_check": lambda p: bellman_limit_check(Parameters(p, 3.0, 2.0), HUGE_X),
    "bellman_infinity_value": lambda p: bellman_infinity_value(p, 2.0, HUGE_X),
    "hessian_form": lambda p: hessian_form(Parameters(p, 3.0, 2.0), HUGE_X, 1.0, 0.3),
    "extremal_weight_plus": lambda p: extremal_weight(p, 2.0, HUGE_X, "plus"),
    "extremal_weight_minus": lambda p: extremal_weight(p, 2.0, HUGE_X, "minus"),
    "tangent_segment": lambda p: tangent_segment(p, 2.0, 1.0),
    "s_pair": lambda p: s_pair(p, 2.0),
    "r_pair": lambda p: r_pair(p, 2.0, HUGE_X),
    "q_star": lambda p: q_star(p, 2.0),
    "q_sub": lambda p: q_sub(p, 2.0),
    "t_star": lambda p: t_star(p, 2.0),
    "aq_constant": lambda p: aq_constant(p, 3.0, 2.0),
    "rht_constant": lambda p: rht_constant(p, 1.5 * p, 2.0),
}


@pytest.mark.parametrize("p", [1e16, 1e17, 1e20, 1e30, 1.4e154, 1e300, 3e305, 1.7e308])
def test_public_calls_at_huge_p_give_floats_or_refuse(p):
    # each call needs a branch root at a p where v = p*u rounds next to 1
    # (1e16 on) or where p*(p-1) overflows (1.34e154 on); a root with
    # p*u = 1 makes log1p(-p*s) raise
    bad = []
    for name, call in AT_HUGE_P.items():
        try:
            values = _floats(call(p))
        except DomainError:
            continue
        if not values or any(math.isnan(v) for v in values):
            bad.append(f"{name}: {values}")
    assert not bad, bad


# weights of every scale, c = 10**k for k in [-300, 300]
SCALED_WEIGHTS = st.builds(lambda k, a, nu: PowerWeight(10.0**k, a, nu),
                           st.floats(-300.0, 300.0), st.floats(0.01, 1.0), st.floats(-0.99, 20.0))
KINDS = st.one_of(st.floats(1.01, 100.0).map(FunctionalKind.aq), st.just(FunctionalKind.a_inf()),
                  st.floats(1.01, 10.0).map(FunctionalKind.rh_p), st.just(FunctionalKind.rh_inf()))
# an interval of the dyadic grid of depth 20
GRID_INTERVALS = st.lists(st.integers(0, 2**20), min_size=2, max_size=2, unique=True).map(
    lambda ends: tuple(sorted(k / 2**20 for k in ends)))


def value_or_refusal(call, *args):
    try:
        return call(*args)
    except DomainError:
        return DomainError


@CONTRACT
@given(w=SCALED_WEIGHTS, theta=st.floats(-50.0, 50.0))
# theta*nu past the float range: the plateau's share, and the pure power's 2**400/4e308
@example(w=PowerWeight(1.0, 0.5, 1e300), theta=1e10)
@example(w=PowerWeight(2.0, 1.0, 1e306), theta=400.0)
def test_moment_at_every_scale_is_a_float_or_inf(w, theta):
    value = moment(w, theta)
    assert isinstance(value, float) and value >= 0.0, value
    if theta * w.nu <= -1.0:
        assert value == math.inf
        return
    exact = reference.average(w, theta, 0.0, 1.0)
    if exact > 1e-290:  # below, c**theta may be subnormal and carry fewer digits
        assert value == pytest.approx(float(exact), rel=1e-12), (value, exact)


@CONTRACT
@given(w=SCALED_WEIGHTS, theta=st.floats(-50.0, 50.0), interval=GRID_INTERVALS)
# FOUND 33: about 5.3e448, where (0.1/0.5)**-645 overflowed
@example(w=PowerWeight(1.0, 0.5, 6.46), theta=-100.0, interval=(0.1, 0.2))
@example(w=PowerWeight(1e300, 0.5, 1.0), theta=2.0, interval=(0.1, 0.2))
def test_interval_moment_at_every_scale_is_a_float_or_inf(w, theta, interval):
    alpha, beta = interval
    value = interval_moment(w, theta, alpha, beta)
    assert isinstance(value, float) and value >= 0.0, value
    if alpha == 0.0 and theta * w.nu <= -1.0:
        assert value == math.inf
        return
    exact = reference.average(w, theta, alpha, beta)
    if exact > 1.7976931348623157e308:
        assert value == math.inf
    elif exact > 1e-290:  # below, c**theta may be subnormal and carry fewer digits
        assert value == pytest.approx(float(exact), rel=1e-12), (value, exact)


@CONTRACT
@given(w=SCALED_WEIGHTS, kind=KINDS, interval=GRID_INTERVALS)
def test_functional_ratio_at_every_scale_is_its_value_at_scale_one(w, kind, interval):
    # functional_ratio reads only log means of w/m, m = w(min(beta, a)), in which c
    # cancels, and takes them in logs where the moments leave the float range, as at
    # q = 1.01 (test_findings)
    value = value_or_refusal(functional_ratio, w, kind, *interval)
    assert value is DomainError or (isinstance(value, float) and value >= 0.0), value
    assert value == value_or_refusal(functional_ratio, PowerWeight(1.0, w.a, w.nu), kind, *interval)


# theta*nu and lam*nu past the float range either way, and a subnormal nu
@pytest.mark.parametrize("call, value", [
    (lambda: interval_moment(PowerWeight(2.0, 1.0, 1e200), 1e200, 0.2, 0.5), 0.0),
    (lambda: interval_moment(PowerWeight(1.0, 1.0, -1e200), 1e200, 0.2, 0.5), math.inf),
    # the ramp's share of <w> is about 1e-200, so <w> is 2/3 and <w**t>**(1/t) is 1
    (lambda: functional_ratio(PowerWeight(1.0, 0.5, 1e200), FunctionalKind.rh_p(1e200), 0.25, 1.0),
     1.5),
    (lambda: functional_ratio(PowerWeight(1.0, 1.0, 1e-310), FunctionalKind.aq(1e10), 0.5, 0.5000001),
     1.0),
], ids=["interval_moment 0", "interval_moment inf", "rh_t plateau", "aq subnormal nu"])
def test_averages_past_the_float_range(call, value):
    assert call() == value


def test_steep_falling_ramp_at_huge_t_is_a_float():
    # 3.0e200 exactly; both log means are near 6.9e199 (test_findings)
    value = functional_ratio(PowerWeight(1.0, 0.5, -1e200), FunctionalKind.rh_p(1e200), 0.25, 1.0)
    assert isinstance(value, float) and value >= 1.0


def _extreme_draw(rng):
    """A weight, theta, q, t and interval with c, |nu| and |theta| anywhere from 1e-300 to
    1e300, q - 1 and t - 1 from 1e-15, the least that leaves q above 1, to 1e300, alpha 0,
    subnormal, tiny or of order 1, and beta up to an ulp above alpha."""
    def scale():
        return 10.0 ** rng.uniform(-300.0, 300.0)

    a = 1.0 if rng.random() < 0.3 else rng.uniform(1e-3, 1.0)
    w = PowerWeight(scale(), a, rng.choice((-1.0, 1.0)) * scale())
    theta = rng.choice((-1.0, 1.0)) * scale()
    q, t = (1.0 + 10.0 ** rng.uniform(-15.0, 300.0) for _ in range(2))
    pick = rng.random()
    alpha = 0.0 if pick < 0.2 else 10.0 ** rng.uniform(-323.5, 0.0) if pick < 0.6 else rng.random()
    beta = alpha + (1.0 - alpha) * rng.random() ** rng.choice((1.0, 20.0))
    return w, theta, q, t, alpha, beta if alpha < beta else 1.0


def test_averages_and_functionals_at_every_scale_are_floats_or_refusals():
    # 20,000 draws: before the one log-mean kernel, 3,194 calls on 2,759 of them
    # raised ValueError or ZeroDivisionError or returned NaN.  Each functional is at
    # least 1 (Jensen), except on intervals shorter than 1e-12 relative, where the log
    # means lose about |nu| ulp (test_findings)
    rng = random.Random(36)
    bad = []
    for _ in range(20_000):
        w, theta, q, t, alpha, beta = _extreme_draw(rng)
        least = 0.0 if beta - alpha < 1e-12 * alpha else 1.0 - 1e-12
        for name, floor, call in (
            ("interval_moment", 0.0, lambda: interval_moment(w, theta, alpha, beta)),
            ("rh_t", least, lambda: functional_ratio(w, FunctionalKind.rh_p(t), alpha, beta)),
            ("a_q", least, lambda: functional_ratio(w, FunctionalKind.aq(q), alpha, beta)),
            ("a_inf", least, lambda: functional_ratio(w, FunctionalKind.a_inf(), alpha, beta)),
        ):
            try:
                value = call()
            except DomainError:
                continue
            except Exception as exc:  # every other exception breaks the contract
                value = exc
            if not (isinstance(value, float) and value >= floor):
                bad.append((name, w, theta, q, t, alpha, beta, value))
    assert not bad, (len(bad), bad[:5])


def test_verify_refuses_an_infinite_self_improvement_exponent(capsys):
    code = cli.main(["verify", "--p", "2", "--t", "inf", "--delta", "2"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "exponent = inf" in err


def test_verify_self_improvement_mode_refuses_p_inf(capsys):
    code = cli.main(["verify", "--p", "inf", "--t", "3", "--delta", "2"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "p = inf" in err


DOWN_RAMP = (1.0, 0.5, -0.25)  # a weight with nu < 0


def _sweep(*argv):
    argv = ["sweep", "--param", "q", "--p", "2", "--delta", "2", *argv]
    return list(cli.sweep(cli.build_parser().parse_args(argv)))


# (call, the "got ..." text its message must carry)
VALUE_IN_MESSAGE = {
    "PowerWeight nu nan": (lambda: PowerWeight(1.0, 0.5, math.nan), "got nu = nan"),
    "PowerWeight nu inf": (lambda: PowerWeight(1.0, 0.5, -math.inf), "got nu = -inf"),
    "PowerWeight t below 0": (lambda: PowerWeight(1.0, 0.5, 0.5)(-0.25), "got t = -0.25"),
    "PowerWeight t above 1": (lambda: PowerWeight(1.0, 0.5, 0.5)(1.5), "got t = 1.5"),
    "PowerWeight t nan": (lambda: PowerWeight(1.0, 0.5, 0.5)(math.nan), "got t = nan"),
    "Parameters q nan": (lambda: Parameters(2.0, math.nan, 2.0), "got q = nan"),
    "Parameters q inf": (lambda: Parameters(2.0, math.inf, 2.0), "got q = inf"),
    "Parameters p inf": (lambda: Parameters(math.inf, 0.5, 2.0), "got q = 0.5"),
    "Parameters q low": (lambda: Parameters(2.0, 0.25, 2.0), "got q = 0.25"),
    "FunctionalKind ainf": (lambda: FunctionalKind("ainf", 2.0), "got exponent = 2.0"),
    "FunctionalKind rhinf": (lambda: FunctionalKind("rhinf", 3.5), "got exponent = 3.5"),
    "ess_sup": (lambda: ess_sup(PowerWeight(*DOWN_RAMP), 0.0, 1.0), "got nu = -0.25"),
    "rhinf_norm_closed": (lambda: rhinf_norm_closed(PowerWeight(*DOWN_RAMP)), "got nu = -0.25"),
    "sup_ratio_search": (
        lambda: sup_ratio_search(PowerWeight(*DOWN_RAMP), FunctionalKind.rh_inf(), 4),
        "got nu = -0.25",
    ),
    "sweep steps": (lambda: _sweep("--from", "3", "--to", "4", "--steps", "1"), "got steps = 1"),
    "sweep endpoints": (
        lambda: _sweep("--from", "3", "--to", "nan", "--steps", "3"),
        "got from = 3.0, to = nan",
    ),
    "bellman_limit_check": (
        lambda: bellman_limit_check(Parameters(2.0, 3.0, 2.0), (1.0, 2.0)),
        "got q = 3.0, q_star = 7.464101615137755",
    ),
    "hessian_form band": (
        lambda: hessian_form(Parameters(2.0, 3.0, 2.0), (1.0, 2.0), 1.0, 0.0),
        "band [0.5358983848622454, 7.464101615137755]: the value is infinite, got q = 3.0",
    ),
    "hessian_form point": (
        lambda: hessian_form(Parameters(2.0, 10.0, 2.0), (1.0, 4.0), 1.0, 0.0),
        "got x = (1.0, 4.0)",
    ),
    "tangent_segment anchor": (lambda: tangent_segment(2.0, 2.0, -1.0), "got b = -1.0"),
    "functional_ratio plain average": (
        lambda: functional_ratio(PowerWeight(1.0, 0.5, -2.0), FunctionalKind.rh_p(2.0), 0.0, 0.3),
        "infinite on [0.0, 0.3]",
    ),
}


@pytest.mark.parametrize("case", sorted(VALUE_IN_MESSAGE))
def test_domain_errors_carry_the_offending_value(case):
    call, text = VALUE_IN_MESSAGE[case]
    with pytest.raises(DomainError) as info:
        call()
    assert text in str(info.value), str(info.value)
