"""The ledger of findings: one case per fault that CHANGES.md records.

An open fault is a strict xfail whose reason sums up its FOUND line: the
case asserts the correct behaviour, so the change that mends the fault
turns it into an XPASS, which fails the run until its marker is removed.
A mended fault is a plain test.  References are 50- to 300-digit
evaluations of the same closed forms, quoted to 20 digits or more.
"""

import math

import pytest

from sharpweights import (
    DomainError,
    FunctionalKind,
    Parameters,
    PowerWeight,
    aq_constant,
    bellman_infinity_value,
    bellman_limit_check,
    bellman_value,
    bellman_value_gamma_form,
    functional_ratio,
    hessian_form,
    interval_moment,
    q_star,
    t_star,
)
from sharpweights import cli
from sharpweights.roots import u_plus_from_log


def rel_err(value, reference):
    return abs(value - reference) / abs(reference)


# -- mended -------------------------------------------------------------------

# q/q_star - 1 = 2e-12 at p = 3.49: gamma*s_plus rounded to 1 and
# log1p(-gamma*s) raised, later returned 5.170e11
FOUND_44 = (Parameters(3.494644894969285, 4972.346495465895, 304.3017640139326),
            (117.52044037497593, 8176709140324076.0))
FOUND_44_REF = 4.9855471804563946628e11


def test_value_just_above_q_star_is_within_its_conditioning():
    # one ulp of an input moves this value by up to 2.2e-4 relative
    params, x = FOUND_44
    value = bellman_value(params, x)
    assert rel_err(value, FOUND_44_REF) <= 2.2e-4
    assert rel_err(bellman_value_gamma_form(params, x), value) <= 1e-14


def test_aq_constant_nine_parts_in_1e13_above_q_star_is_finite():
    # the 1e-12 band guard returned inf here; kappa*u is about 8e-4
    q = q_star(2.0, 2.0) * (1.0 + 9e-13)
    assert q == 7.464101615144473
    assert rel_err(aq_constant(2.0, q, 2.0).constant, 3.8734113448734093859e76) <= 8e-4


def test_value_near_p_one_no_longer_needs_the_right_class_parameter():
    # q = 2*q_star of the seed-11 sweep: gamma*s_plus rounded to 1, and
    # log1p(-gamma*s) raised ValueError
    params = Parameters(1.0489736992674998, 8.55624235063233e35, 44.02811869379162)
    value = bellman_value(params, (1.0, 42.055034702214044))
    assert rel_err(value, 2.0000000000000088) <= 1e-12


def test_infinity_value_near_p_one_keeps_the_class_factor():
    # the true logarithms are 4.18e48 and 1.65e13; s_plus and r_plus both
    # rounded next to 1/p, and (s - r)/((1 - p*s)*(1 - p*r)) gave about 1
    assert bellman_infinity_value(1.01, 3.0, (1.0, 2.0)) == math.inf
    assert bellman_infinity_value(1.01, 1.5, (1.0, 1.0000001)) == math.inf


# from p = 1e10 on, 1 - p*r_plus lost its digits to the rounding of v = p*r,
# and the upper value and the quadratic form with them
@pytest.mark.parametrize("p, delta, reference", [
    (1e16, 2.0, 1.000000000000000060819766),
    (1e20, 2.0, 1.000000000000000000006081977),
])
def test_value_at_large_p_keeps_the_gap_of_the_right_root(p, delta, reference):
    assert rel_err(bellman_value(Parameters(p, 3.0, delta), (1.0, 1.5)), reference) <= 1e-14


@pytest.mark.parametrize("delta, reference", [
    (2.0, 1.000000000000004054651081),
    (1.001, 1.000000000000000004054651),
])
def test_infinity_value_at_p_1e14(delta, reference):
    assert rel_err(bellman_infinity_value(1e14, delta, (1.0, 1.5)), reference) <= 1e-14


def test_hessian_form_at_p_1e20():
    value = hessian_form(Parameters(1e20, 3.0, 2.0), (1.0, 1.5), 1.0, 0.3)
    assert rel_err(value, -4.8600000000000000441e-20) <= 1e-13


def test_value_near_p_one_at_twice_q_star(capsys):
    # 1 - p*r_plus is below an ulp of 1/p, and log1p(-gamma*r) raised
    # ValueError (seed-11 sweep); q_star's 1e-13 sets the budget
    argv = ["bellman", "--p", "1.0039497893497014", "--q", "2.1871196685009714e+197",
            "--delta", "5.936012234429502", "--x1", "0.41044276659186607",
            "--x2", "0.5420346673505454"]
    assert cli.main(argv) == 0
    value = float(capsys.readouterr().out.split("value=")[1].split()[0])
    assert rel_err(value, 2.0000000000231558727) <= 1e-12


def test_calls_just_above_the_float_q_star_near_p_one_return_floats():
    # log1p(-gamma*r) raised ValueError here.  q lies 4.4e-14 below the
    # 80-digit q_star, inside the band, but one ulp of p moves q_star by
    # 2.9e-11: a finite value is exact for a p within an ulp of this one
    params = Parameters(1.0051867461066546, 3.300433869081143e294, 32.921190948547775)
    x = (1.0, 25.38189727615363)
    for value in (bellman_value(params, x), bellman_value_gamma_form(params, x),
                  bellman_limit_check(params, x), hessian_form(params, x, 1.0, 0.3)):
        assert isinstance(value, float) and not math.isnan(value)


@pytest.mark.parametrize("call", [
    lambda: bellman_value(Parameters(1e307, 1e100, 1e10), (1.0, 1.5)),
    lambda: hessian_form(Parameters(1e307, 1e100, 1e10), (1.0, 1.5), 1.0, 0.3),
    lambda: bellman_infinity_value(1e306, 1e100, (1.0, 1.5)),
])
def test_point_past_the_float_range_of_p_log_delta_is_refused(call):
    # the point's log ratio was -inf, r = 1/p, and log1p(-p*r) raised ValueError
    with pytest.raises(DomainError, match="got p = 1e"):
        call()


# -- open ---------------------------------------------------------------------


def found(text):
    return pytest.mark.xfail(reason=text)


@found("the plus branch near p = 1: s_plus and r_plus round to one float and "
       "`sharp-weights extremal` refuses the weight (exit 2)")
def test_extremal_near_p_one_builds_the_weight(capsys):
    argv = ["extremal", "--p", "1.1068881383566298", "--delta", "79.2479422471094",
            "--x1", "1", "--x2", "2"]
    assert cli.main(argv) == 0


@found("the A_q scan raises an average to the power q - 1, which multiplies its "
       "rounding by about q: `verify --q 1e10` and `--q 1e14` report a mismatch")
@pytest.mark.parametrize("q", ["1e10", "1e14"])
def test_verify_at_large_q(q, capsys):
    assert cli.main(["verify", "--p", "2", "--q", q, "--delta", "2"]) == 0


@found("the noise band of log F near u = 0: u_plus_from_log(2, -1e-20) is off by 1.1e-7")
def test_right_branch_deep_in_the_noise_band():
    # at p = 2 the branch is (sqrt(1 - t) - (1 - t))/t
    assert rel_err(u_plus_from_log(2.0, -1e-20), 9.999999998999999725841357e-11) <= 1e-15


@found("t_star for delta very near 1 comes from the noise band of the left "
       "branch: t_star(p, 1 + 1e-12) is off by 5e-12 to 1.9e-11")
@pytest.mark.parametrize("p, reference", [
    (1.5, 499978.6096699262802554354),
    (2.0, 707076.3521802927271933105),
    (6.0, 1581070.886023915319139219),
])
def test_t_star_at_delta_near_one(p, reference):
    assert rel_err(t_star(p, 1.0 + 1e-12), reference) <= 1e-14


@found("functional_ratio raises the dual moment, about 5.3e448, to the power "
       "q - 1 = 0.01 and raises OverflowError at q = 1.01")
def test_functional_ratio_at_q_near_one():
    value = functional_ratio(PowerWeight(1.0, 0.5, 6.46), FunctionalKind.aq(1.01), 0.1, 0.2)
    assert rel_err(value, 21.99762029945685627922308) <= 1e-13


@found("roots._branch_equation forms w = v/p, a subnormal float of about 11 "
       "digits for small v at p above about 1e305: u_plus_from_log(1e307, -1e-10) "
       "is 1.6e-8 off")
def test_right_branch_at_subnormal_v_over_p():
    # a 700-digit root of (p-1)*log(1 - v) - p*log(1 - r*v) = log t: its terms
    # of size p*v = 1e302 cancel, so a reference below about 320 digits is noise
    reference = 1.414200229141898725678209e-312
    assert abs(u_plus_from_log(1e307, -1e-10) - reference) <= 2 * math.ulp(reference)


@found("interval_moment raises the rounding of larger/a to the power theta*nu "
       "and loses about |theta*nu| ulp: 3.06e-14 off at theta*nu = 215")
def test_interval_moment_within_a_few_ulp_at_large_theta_nu():
    value = interval_moment(PowerWeight(1.0, 0.43393882823119284, 24.22522235531663),
                            8.869306756698956, 0.00967857630942603, 0.10743877943918628)
    reference = 2.777401484350744432457098e-133
    assert abs(value - reference) <= 4 * math.ulp(reference)
