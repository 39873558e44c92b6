"""Input contract: every entry point refuses a bad p, delta, q, branch
name or point coordinate with a DomainError whose message names that
parameter, and valid inputs give valid values."""

import math
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
    "branch_pair": lambda p: roots.branch_pair(p, 2.0, X, "minus"),
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
    "branch_pair": lambda d: roots.branch_pair(2.0, d, X, "plus"),
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
    "branch_pair": lambda b: roots.branch_pair(2.0, 2.0, X, b),
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
