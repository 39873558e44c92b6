"""Input contract: every entry point refuses a bad p, delta or branch name
with a DomainError whose message names that parameter, and valid inputs
give valid values."""

import math
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from sharpweights import (
    DomainError,
    Parameters,
    PowerWeight,
    ainf_constant,
    aq_constant,
    bellman_infinity_value,
    bellman_value_gamma_form,
    delta_threshold,
    epsilon_bound,
    extremal_weight,
    hessian_form,
    ndim_aq_bound,
    q_star,
    q_sub,
    r_pair,
    ratio_bound_y,
    rhp_norm_closed,
    rht_constant,
    s_pair,
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


def test_verify_self_improvement_mode_refuses_p_inf(capsys):
    code = cli.main(["verify", "--p", "inf", "--t", "3", "--delta", "2"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "p = inf" in err
