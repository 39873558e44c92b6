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
    extremal_weight,
    functional_ratio,
    hessian_form,
    interval_moment,
    q_star,
    rhp_norm_closed,
    sup_ratio_search,
    t_star,
)
from sharpweights import cli
from sharpweights.roots import u_plus_from_log

from reference import abs_err, phi, rel_err


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
    q = 7.464101615144473  # q_star*(1 + 9e-13)
    assert q / q_star(2.0, 2.0) - 1.0 == pytest.approx(9e-13, rel=1e-3)
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


# the A_q scan raised an average to the power q - 1, which multiplied its
# rounding by about q (FOUND 43): the Box-Cox leaf A exp(-G) does not
@pytest.mark.parametrize("p, q, delta", [
    pytest.param("2", "1e10", "2", id="1e10"),
    pytest.param("2", "1e14", "2", id="1e14"),
    pytest.param("6", "1e10", "1.001", id="p6-1e10-delta1.001"),
])
def test_verify_at_large_q(p, q, delta, capsys):
    assert cli.main(["verify", "--p", p, "--q", q, "--delta", delta]) == 0


def test_functional_ratio_at_q_near_one():
    # the dual moment, about 5.3e448, was raised to the power q - 1 = 0.01 and
    # raised OverflowError; the Box-Cox mean is taken in logs there
    value = functional_ratio(PowerWeight(1.0, 0.5, 6.46), FunctionalKind.aq(1.01), 0.1, 0.2)
    assert rel_err(value, 21.99762029945685627922308) <= 1e-13


def test_interval_moment_past_the_float_range_is_inf():
    # FOUND 33: about 9.3e598 raised OverflowError; functional_ratio no longer
    # takes its dual moment from interval_moment, so +inf is safe here
    assert interval_moment(PowerWeight(1e300, 0.5, 1.0), 2.0, 0.1, 0.2) == math.inf


def test_interval_moment_where_c_to_the_theta_underflows():
    # c**theta = 1e-340 rounded to 0.0, and the linear sum returned 0.0 for a normal
    # average; a sum of 0.0 now takes the log route as well
    value = interval_moment(PowerWeight(1e-170, 1.0, -100.0), 2.0, 0.1, 0.2)
    assert rel_err(value, 5.025125628140647560104281e-143) <= 1e-13


def test_rh_t_on_a_ramp_interval_at_large_nu():
    # the Box-Cox mean relative to c carried exp(k log(h/a)) and expm1(k log(h/a))/k,
    # which at k = 2e17 rounded the functional to 1.0; relative to m = w(h) they vanish.
    # The reference is t**1e16 on [0.1, 1]
    value = functional_ratio(PowerWeight(1.0, 0.5, 1e16), FunctionalKind.rh_p(20.0), 1e-10, 1e-9)
    assert rel_err(value, 1234465292820473.493894181) <= 1e-14


@pytest.mark.parametrize("nu, p, reference", [
    (1e300, 1e10, 9.999999286198647172513218e299),
    (1e200, 1e200, 9.999999999999999697331222e199),
])
def test_rhp_norm_past_the_float_range_of_p_nu(nu, p, reference):
    # (1 + p*nu)**(1/p) was inf**(1/p) = inf, and the norm 0.0
    assert rel_err(rhp_norm_closed(PowerWeight(1.0, 1.0, nu), p), reference) <= 1e-15


def test_extremal_near_p_one_builds_the_weight(capsys):
    # s_plus and r_plus rounded to one float next to 1/p, which collapsed the
    # ramp to a = 0 and the command exited 2; nu = q_star - 1 = 1.2e20 and a
    # from nu and the gap 1 - p*r build it
    argv = ["extremal", "--p", "1.1068881383566298", "--delta", "79.2479422471094",
            "--x1", "1", "--x2", "2"]
    assert cli.main(argv) == 0
    rec = dict(kv.split("=", 1) for kv in capsys.readouterr().out.split())
    for key, scale in (("resid_x1", 1.0), ("resid_x2", 2.0), ("resid_delta", 79.2479422471094)):
        assert abs(float(rec[key])) <= 1e-14 * scale, (key, rec[key])


def test_minus_weight_aq_at_large_q_is_phi_zero():
    # FOUND 147: Phi(0), which functional_ratio on [0, 1] gives, is the supremum of
    # the pure power t**nu, nu = -0.427 (corner lemma).  lam nu > 0 took the prefix,
    # and then the average, of w**lam, whose log(B)/lam multiplied its rounding by q
    # - 1: 1.197 from the prefixes, 1.150 from the average.  The average of w**lam - 1,
    # taken wherever 1 + B >= 1/2 on row [0], gives 1.1387231136261413
    w = extremal_weight(2.0, 1.5, (1.0, 2.25), "minus")
    sup = sup_ratio_search(w, FunctionalKind.aq(1e14), 12)[0]
    assert rel_err(sup, 1.1387231136261406) <= 1e-13


def test_verify_at_a_subnormal_plain_average(capsys):
    # FOUND 146: on row [0], from pair (0, 302) on, the plain average was subnormal
    # and exp(-G) overflowed where <w> exp(-G) is finite, so the scan printed sup =
    # inf against the constant 1.65e142.  The corner pair's plain average is 1/(1 +
    # nu): sup = 1.6533542920025835e+142, rel_err 1.9e-14
    assert cli.main(["verify", "--p", "3", "--q", "1000", "--delta", "30"]) == 0
    rec = dict(kv.split("=", 1) for kv in capsys.readouterr().out.split())
    assert rel_err(float(rec["sup"]), float(rec["constant"])) <= 1e-13


def test_rh_t_search_where_the_row_average_of_w_to_the_t_is_subnormal():
    # FOUND 178: t nu log(a/g) passed about 708 on row [0], so <w**t> there was
    # subnormal, and the depth-12 search returned 15.687578375168810 at (0, 0.0176).
    # The corner pair's <v**t> is 1/(1 + t nu); the reference is Phi(0) = (1 + nu)/
    # (1 + t nu)**(1/t) at 50 digits
    w = PowerWeight(1.0, 0.5244171172091389, 38.76595077333037)
    sup = sup_ratio_search(w, FunctionalKind.rh_p(5.6156586223125995), 12)[0]
    assert rel_err(sup, 15.23518017145158878115627) <= 1e-15


def test_rh_t_search_where_t_nu_passes_the_float_range():
    # FOUND 183: t*nu is inf, so <v**t> = 1/(1 + t nu) has no float, and the search
    # raised DomainError, though Phi(0) = (1 + nu)/(1 + t nu)**(1/t) is 7.07e153.  The
    # closed class norm takes 1 + t nu apart: 1.05 ulp from the 50-digit Phi(0)
    w, kind = PowerWeight(1.0, 1.0, 1e308), FunctionalKind.rh_p(2.0)
    sup, witness = sup_ratio_search(w, kind, 12)
    assert witness == (0.0, 2.0**-12)
    assert abs_err(sup, phi(kind, w.nu)) <= 2 * math.ulp(sup), sup


# the noise band of log F near u = 0 (the v form cancelled to p*(p-1)*u**2/2):
# u_plus_from_log(2, -1e-20) was off by 1.1e-7; log F is now summed in y by the
# series of expm1(y) - y and log1p(x) - x
def test_right_branch_deep_in_the_noise_band():
    # at p = 2 the branch is (sqrt(1 - t) - (1 - t))/t
    assert rel_err(u_plus_from_log(2.0, -1e-20), 9.999999998999999725841357e-11) <= 1e-15


# t_star for delta very near 1 came from the noise band of the left branch:
# t_star(p, 1 + 1e-12) was off by 5e-12 to 1.9e-11
@pytest.mark.parametrize("p, reference", [
    (1.5, 499978.6096699262802554354),
    (2.0, 707076.3521802927271933105),
    (6.0, 1581070.886023915319139219),
])
def test_t_star_at_delta_near_one(p, reference):
    assert rel_err(t_star(p, 1.0 + 1e-12), reference) <= 1e-14


# the v form took w = v/p, a subnormal float of about 11 digits for small v at p
# above about 1e305: u_plus_from_log(1e307, -1e-10) was 1.6e-8 off
def test_right_branch_at_subnormal_v_over_p():
    # a 700-digit root of (p-1)*log(1 - v) - p*log(1 - r*v) = log t: its terms
    # of size p*v = 1e302 cancel, so a reference below about 320 digits is noise
    reference = 1.414200229141898725678209e-312
    assert abs(u_plus_from_log(1e307, -1e-10) - reference) <= 2 * math.ulp(reference)


# -- open ---------------------------------------------------------------------


def found(text):
    return pytest.mark.xfail(reason=text)


@found("interval_moment raises the rounding of larger/a to the power theta*nu "
       "and loses about |theta*nu| ulp: 3.06e-14 off at theta*nu = 215")
def test_interval_moment_within_a_few_ulp_at_large_theta_nu():
    value = interval_moment(PowerWeight(1.0, 0.43393882823119284, 24.22522235531663),
                            8.869306756698956, 0.00967857630942603, 0.10743877943918628)
    reference = 2.777401484350744432457098e-133
    assert abs(value - reference) <= 4 * math.ulp(reference)


@found("the log means carry an absolute error of about |nu| ulp, from log1p(r)/r - 1 "
       "and T - 1 at small r = (beta - alpha)/alpha, while A_inf - 1 is of order "
       "(nu r)**2: A_inf reads 0.9999999995 on an interval 5.3e-14 long at nu = -1.3e7")
def test_a_inf_on_a_short_interval_at_large_nu():
    w = PowerWeight(1.0, 0.9305481318898121, -12793325.799190374)
    value = functional_ratio(w, FunctionalKind.a_inf(), 0.7563901927638643, 0.7563901927639175)
    assert rel_err(value, 1.000000000000033709738702) <= 1e-15


@found("for nu < -1 both log means of RH_t are near |nu| log(min(beta, a)/alpha), as m = "
       "w(min(beta, a)) is the bottom of w: RH_t of PowerWeight(1, 0.5, -1e200) at t = 1e200 "
       "on [0.25, 1] reads 1.0 where it is 3(nu + 1)")
def test_rh_t_of_a_steep_falling_ramp():
    # log RH = log M_t - log M_1 = 2 log 2 + log(|nu| - 1) + log(3/4) + O(1/t), |nu| the float 1e200
    value = functional_ratio(PowerWeight(1.0, 0.5, -1e200), FunctionalKind.rh_p(1e200), 0.25, 1.0)
    assert rel_err(value, 2.999999999999999909199367e200) <= 1e-14
