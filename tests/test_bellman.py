"""Bellman value: closed forms against independent oracles, the two
equivalent product representations, scaling, regimes, curvature, and
the tangent segments."""

import math
import random

import pytest

from sharpweights import (
    DomainError,
    Parameters,
    PowerWeight,
    bellman_infinity_value,
    bellman_limit_check,
    bellman_value,
    bellman_value_gamma_form,
    extremal_weight,
    hessian_form,
    q_star,
    tangent_segment,
)
from sharpweights.roots import r_pair

import reference

UPPER = Parameters(2.0, 10.0, 2.0)
LOWER = Parameters(2.0, 0.7, 1.05)

# values pinned by 50-digit evaluation of the closed forms
B_14 = 2.838658558458713017
B_12 = 2.3808542614002572727
B_LOW = 1.4489532801736628897
BINF_14 = 85.969840050095824801
BINF_12 = 26.251684347007993701


def interior_grid(p, delta, m):
    """m*m points strictly inside the domain, log-spread in x1."""
    pts = []
    for i in range(m):
        x1 = 0.2 * 10.0 ** (i / (m - 1.0))
        lo, hi = x1**p if p != math.inf else x1, (delta * x1) ** p if p != math.inf else delta * x1
        for j in range(m):
            frac = (j + 0.5) / m
            pts.append((x1, lo + frac * (hi - lo)))
    return pts


def test_parameters_validation():
    with pytest.raises(DomainError):
        Parameters(1.0, 10.0, 2.0)
    with pytest.raises(DomainError):
        Parameters(2.0, 1.0, 2.0)
    with pytest.raises(DomainError):
        Parameters(2.0, math.inf, 2.0)
    with pytest.raises(DomainError):
        Parameters(2.0, 10.0, 0.5)
    with pytest.raises(DomainError, match="p = inf requires q > 1"):
        Parameters(math.inf, 0.7, 2.0)
    with pytest.raises(DomainError, match=r"q must exceed \(p-1\)/p"):
        Parameters(2.0, 0.5, 2.0)
    # q in (\(p-1)/p, 1) is legitimate
    Parameters(2.0, 0.7, 2.0)


def test_derived_exponents():
    assert UPPER.q_conj == pytest.approx(10.0 / 9.0, abs=0)
    assert UPPER.gamma == pytest.approx(2.0 + 10.0 / 9.0 - 1.0)
    assert LOWER.q_conj == pytest.approx(-7.0 / 3.0)
    # conjugation identity
    assert (UPPER.q_conj - 1.0) * (UPPER.q - 1.0) == pytest.approx(1.0)
    assert Parameters(math.inf, 3.0, 2.0).gamma is None


def test_regime_classification():
    assert UPPER.regime == "upper"
    assert Parameters(2.0, 3.0, 2.0).regime == "band"
    assert Parameters(2.0, 0.7, 2.0).regime == "band"
    assert LOWER.regime == "lower"
    assert Parameters(math.inf, 3.0, 2.0).regime == "upper"
    assert Parameters(math.inf, 1.5, 2.0).regime == "band"
    assert Parameters(math.inf, 3.0, 2.0).q_sub is None  # no lower threshold at p = inf


def test_value_oracles():
    assert bellman_value(UPPER, (1.0, 4.0)) == pytest.approx(B_14, rel=1e-10)
    assert bellman_value(UPPER, (1.0, 2.0)) == pytest.approx(B_12, rel=1e-10)
    assert bellman_value(LOWER, (1.0, 1.05)) == pytest.approx(B_LOW, rel=1e-10)


def test_value_on_lower_curve_is_exact():
    # constant weights: value x1**(1-q'), no solver in the path
    assert bellman_value(UPPER, (2.0, 4.0)) == pytest.approx(2.0 ** (1.0 - 10.0 / 9.0), rel=1e-14)
    assert bellman_value(Parameters(3.0, 2.0, 1.0), (2.0, 8.0)) == pytest.approx(0.5, rel=1e-14)
    # delta = 1 pins every admissible point to the lower curve
    assert bellman_value(Parameters(2.0, 5.0, 1.0), (3.0, 9.0)) == pytest.approx(
        3.0 ** (1.0 - 1.25), rel=1e-14
    )


def test_value_infinite_in_band():
    band = Parameters(2.0, 3.0, 2.0)
    assert bellman_value(band, (1.0, 2.0)) == math.inf
    assert bellman_value_gamma_form(band, (1.0, 2.0)) == math.inf
    # the lower curve stays finite even in the band
    assert bellman_value(band, (1.0, 1.0)) == 1.0


def test_value_p_inf():
    params = Parameters(math.inf, 3.0, 2.0)
    x2 = 1.5
    expected = x2 ** (-0.5) * (3.0 - (1.0 / x2) * 2.0) / (3.0 - 2.0)
    assert bellman_value(params, (1.0, x2)) == pytest.approx(expected, rel=1e-12)
    # continuous down to the lower curve where it meets x1**(1-q')
    assert bellman_value(params, (1.0, 1.0)) == pytest.approx(1.0, rel=1e-12)


def test_gamma_form_agrees_on_grid():
    for params in (UPPER, LOWER):
        for x in interior_grid(params.p, params.delta, 20):
            a = bellman_value(params, x)
            b = bellman_value_gamma_form(params, x)
            assert b == pytest.approx(a, rel=1e-10)


def test_gamma_form_rejects_p_inf():
    with pytest.raises(DomainError):
        bellman_value_gamma_form(Parameters(math.inf, 3.0, 2.0), (1.0, 1.5))


def test_scaling_law():
    p, qc = UPPER.p, UPPER.q_conj
    base = bellman_value(UPPER, (1.3, 5.0))
    for lam in (0.5, 2.0, 10.0):
        scaled = bellman_value(UPPER, (lam * 1.3, lam**p * 5.0))
        assert scaled == pytest.approx(lam ** (1.0 - qc) * base, rel=1e-10)


def test_limit_check_definition_and_guard():
    v = bellman_value(UPPER, (1.0, 2.0))
    assert bellman_limit_check(UPPER, (1.0, 2.0)) == pytest.approx(v**9.0, rel=1e-9)
    with pytest.raises(DomainError):
        bellman_limit_check(Parameters(2.0, 3.0, 2.0), (1.0, 2.0))
    with pytest.raises(DomainError):
        bellman_limit_check(LOWER, (1.0, 1.05))


def test_infinity_value_oracles():
    assert bellman_infinity_value(2.0, 2.0, (1.0, 4.0)) == pytest.approx(BINF_14, rel=1e-10)
    assert bellman_infinity_value(2.0, 2.0, (1.0, 2.0)) == pytest.approx(BINF_12, rel=1e-10)
    assert bellman_infinity_value(math.inf, 2.0, (1.0, 1.5)) == pytest.approx(
        (1.0 / 1.5) * math.exp(2.0 * (1.0 - 1.0 / 1.5)), rel=1e-12
    )


def test_infinity_value_overflows_to_inf():
    # the true values, about 4.3e314 and e**992, pass the float range
    assert bellman_infinity_value(1.2224, 2.9048, (1.0, 1.5)) == math.inf
    assert bellman_infinity_value(math.inf, 1000.0, (1.0, 1000.0)) == math.inf
    # q_star itself passes the float range
    assert bellman_infinity_value(1.001, 10.0, (1.0, 2.0)) == math.inf


def test_infinity_value_lower_curve_exact():
    assert bellman_infinity_value(2.0, 2.0, (4.0, 16.0)) == 0.25
    assert bellman_infinity_value(3.0, 1.0, (2.0, 8.0)) == 0.5


def test_limit_approaches_infinity_value():
    x = (1.0, 2.0)
    target = bellman_infinity_value(2.0, 2.0, x)
    errs = []
    for q in (1e2, 1e3, 1e4):
        v = bellman_limit_check(Parameters(2.0, q, 2.0), x)
        errs.append(abs(v - target) / target)
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 1e-2


def test_hessian_closed_form_oracle():
    # pinned by independent evaluation of the prefactor and slope
    assert hessian_form(UPPER, (1.0, 2.0), 1.0, 0.0) == pytest.approx(
        -4.0944863869318145108, rel=1e-9
    )
    assert hessian_form(UPPER, (1.0, 2.0), 0.0, 1.0) == pytest.approx(
        -0.74576298498429412594, rel=1e-9
    )


def test_hessian_nonpositive_both_regimes():
    rng = random.Random(7)
    for params in (UPPER, LOWER):
        for x in interior_grid(params.p, params.delta, 5):
            for _ in range(4):
                d1, d2 = rng.uniform(-1, 1), rng.uniform(-1, 1)
                assert hessian_form(params, x, d1, d2) <= 1e-12


def test_hessian_quadratic_homogeneity():
    h = hessian_form(UPPER, (1.0, 2.0), 0.3, -0.8)
    assert hessian_form(UPPER, (1.0, 2.0), 0.6, -1.6) == pytest.approx(4.0 * h, rel=1e-12)


def test_hessian_kernel_direction():
    _, rp = r_pair(2.0, 2.0, (1.0, 2.0))
    slope = 1.0 / ((1.0 - rp) * 2.0 * 2.0)
    h = hessian_form(UPPER, (1.0, 2.0), slope, 1.0)
    assert abs(h) <= 1e-10 * abs(hessian_form(UPPER, (1.0, 2.0), 1.0, 0.0))


def test_hessian_rank_one():
    # the polarized 2x2 matrix must be singular
    h11 = hessian_form(UPPER, (1.3, 4.0), 1.0, 0.0)
    h22 = hessian_form(UPPER, (1.3, 4.0), 0.0, 1.0)
    h12 = (hessian_form(UPPER, (1.3, 4.0), 1.0, 1.0) - h11 - h22) / 2.0
    assert h11 * h22 - h12 * h12 == pytest.approx(0.0, abs=1e-9 * abs(h11 * h22))


def test_hessian_rejects_bad_inputs():
    with pytest.raises(DomainError):
        hessian_form(Parameters(math.inf, 3.0, 2.0), (1.0, 1.5), 1.0, 0.0)
    with pytest.raises(DomainError, match="critical band"):
        hessian_form(Parameters(2.0, 3.0, 2.0), (1.0, 2.0), 1.0, 0.0)
    with pytest.raises(DomainError, match="interior"):
        hessian_form(UPPER, (1.0, 4.0), 1.0, 0.0)


def test_hessian_past_the_float_range():
    # the value overflows here; the form follows it to -inf, and along the
    # kernel direction the vanishing line term wins over the infinite prefactor
    x = (1e150, 1.05e300)
    assert bellman_value(LOWER, x) == math.inf
    assert hessian_form(LOWER, x, 1.0, 0.0) == -math.inf
    r_minus, _ = r_pair(2.0, 1.05, x)  # q = 0.7 is below q_sub: the minus branch
    slope = x[0] / ((1.0 - r_minus) * 2.0 * x[1])
    assert hessian_form(LOWER, x, slope, 1.0) == 0.0


@pytest.mark.parametrize("p", [1e20, 1.4e154, 1e300])
def test_hessian_form_at_huge_p_only_does_not_crash(p):
    # (p - 1)**2 in the prefactor raised OverflowError from p = 1.34e154,
    # and at p = 1e20 the right root v = p*s = 1 - 2**-53 once rounded to
    # an s with p*s = 1, where log1p(-p*s) raised ValueError.  This pins
    # only the absence of those crashes, not a value: the value is about
    # -4.86/p, but from p = 1e16 on 1 - p*s rounds at 1e-16, and the
    # result (about -8e-17) is that rounding (see ROADMAP.md)
    value = hessian_form(Parameters(p, 3.0, 2.0), (1.0, 1.5), 1.0, 0.3)
    assert isinstance(value, float)


def test_hessian_matches_finite_differences():
    # second differences amplify solver noise by h**-2, so the step
    # stays at 1e-3 with one Richardson pass
    params = Parameters(2.0, 10.0, 2.0)
    x1, x2 = 1.0, 2.0

    def second_diff(d1, d2, h):
        plus = bellman_value(params, (x1 + h * d1, x2 + h * d2))
        minus = bellman_value(params, (x1 - h * d1, x2 - h * d2))
        mid = bellman_value(params, (x1, x2))
        return (plus - 2.0 * mid + minus) / (h * h)

    for d1, d2 in ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (0.7, -0.4)):
        closed = hessian_form(params, (x1, x2), d1, d2)
        scale = math.hypot(d1, d2)
        h = 1e-3 / scale
        g1 = second_diff(d1, d2, h)
        g2 = second_diff(d1, d2, h / 2.0)
        richardson = (4.0 * g2 - g1) / 3.0
        assert richardson == pytest.approx(closed, rel=1e-5)


def test_tangent_segment_endpoints():
    seg = tangent_segment(2.0, 2.0, 1.0)
    assert seg.branch == "plus"
    assert seg.endpoint_gamma_delta == (1.0, 4.0)
    x1l, x2l = seg.endpoint_gamma_one
    assert x1l == pytest.approx(7.4641016151377545871, rel=1e-12)
    assert x2l == pytest.approx(55.712812921102036696, rel=1e-12)
    # gamma_one endpoint actually sits on the lower curve
    assert x2l == pytest.approx(x1l**2, rel=1e-12)


@pytest.mark.parametrize("p, delta", [(1.01, 1.5), (1.2, 10.0), (2.0, 2.0), (3.0, 1.001), (50.0, 3.0)])
def test_tangent_segment_meets_the_lower_curve_at_the_critical_exponents(p, delta):
    # the lower endpoint is b*q_star on the plus branch and b*q_sub on the
    # minus one.  Taken from the class parameter it was 8.9e15 at (1.01, 1.5),
    # where q_star is 1.65e18, and 7.7e-11 off at (1.2, 10).  q_star is good
    # to a few ulp of z = log(q_star/delta), q_sub to a few ulp of itself
    qs, qsub = reference.critical(p, delta)[:2]
    assert tangent_segment(p, delta, 1.0).endpoint_gamma_one[0] == q_star(p, delta)
    plus_tol = 4.0 * math.ulp(max(1.0, math.log(float(qs) / delta)))
    for branch, q, tol in (("plus", qs, plus_tol), ("minus", qsub, 2.0**-51)):
        x1, x2 = tangent_segment(p, delta, 1.0, branch).endpoint_gamma_one
        assert reference.rel_err(x1, q) <= tol, (branch, x1)
        assert reference.rel_err(x2, reference.boundary(p, delta, q)[0]) <= p * tol + 2.0**-51, (branch, x2)


def test_tangent_segment_line_equation():
    for branch in ("plus", "minus"):
        seg = tangent_segment(2.0, 1.5, 2.0, branch)
        b = seg.b
        line = lambda x1, x2: 1.5**2 * 2.0 * x1 - b ** (1.0 - 2.0) * x2
        rhs = 1.5**2 * b * (2.0 - 1.0)
        for x1, x2 in (seg.endpoint_gamma_delta, seg.endpoint_gamma_one):
            assert line(x1, x2) == pytest.approx(rhs, rel=1e-10)


def test_value_affine_along_segments():
    cases = [(UPPER, "plus", (0.5, 1.0, 2.0)), (LOWER, "minus", (0.8, 1.0, 1.3))]
    for params, branch, anchors in cases:
        for b in anchors:
            seg = tangent_segment(params.p, params.delta, b, branch)
            (u1, u2), (l1, l2) = seg.endpoint_gamma_delta, seg.endpoint_gamma_one
            mid = (0.5 * (u1 + l1), 0.5 * (u2 + l2))
            v_mid = bellman_value(params, mid)
            v_avg = 0.5 * (bellman_value(params, (u1, u2)) + bellman_value(params, (l1, l2)))
            assert v_mid == pytest.approx(v_avg, rel=1e-9)


def test_tangent_segment_past_the_float_range():
    # (delta*b)**p = 60**200 overflows
    seg = tangent_segment(200.0, 30.0, 2.0)
    assert seg.endpoint_gamma_delta == (2.0, math.inf)
    assert seg.endpoint_gamma_one[1] == math.inf
    # the minus endpoint sits on the lower curve near 1.99**200, representable
    x1l, x2l = tangent_segment(200.0, 30.0, 2.0, "minus").endpoint_gamma_one
    assert x1l == pytest.approx(1.99, rel=1e-15)
    assert x2l == pytest.approx(1.99**200, rel=1e-13)
    # p*s_minus passes the float range at (1000, 2.0324) while
    # (delta*b)**p = 1.02e308 does not
    with pytest.raises(DomainError):
        tangent_segment(1000.0, 2.0324, 1.0, "minus")


def test_tangent_segment_rejects_bad_inputs():
    with pytest.raises(DomainError):
        tangent_segment(math.inf, 2.0, 1.0)
    with pytest.raises(DomainError):
        tangent_segment(2.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        tangent_segment(2.0, 2.0, -1.0)
    with pytest.raises(DomainError):
        tangent_segment(2.0, 2.0, 1.0, "sideways")


def test_value_rejects_points_outside_domain():
    with pytest.raises(DomainError, match="x2"):
        bellman_value(UPPER, (1.0, 5.0))
    with pytest.raises(DomainError, match="x1"):
        bellman_value(UPPER, (-1.0, 1.0))


# the diagonal, a point 1e-12 above it (just outside the boundary slack),
# and a diagonal point with x1 != 1
DEGENERATE_POINTS = [(1.0, 1.0), (1.0, 1.000000000001), (2.0, 4.0)]


@pytest.mark.parametrize("x", DEGENERATE_POINTS)
def test_degenerate_class_values_are_the_constant_weight(x):
    # at delta = 1 the domain is the lower curve: every admissible point
    # is the average pair of the constant weight x1
    x1 = x[0]
    for q in (3.0, 0.7):
        params = Parameters(2.0, q, 1.0)
        assert bellman_value(params, x) == math.exp((1.0 - params.q_conj) * math.log(x1))
    assert bellman_infinity_value(2.0, 1.0, x) == 1.0 / x1
    for branch in ("plus", "minus"):
        assert extremal_weight(2.0, 1.0, x, branch) == PowerWeight(c=x1, a=1.0, nu=0.0)


def test_hessian_form_refuses_the_degenerate_class():
    # 1e-12 off the diagonal at delta = 1 is still on the (only) curve,
    # where r = 0 would reach the prefactor's denominator
    with pytest.raises(DomainError, match="strictly interior point"):
        hessian_form(Parameters(2.0, 3.0, 1.0), (1.0, 1.000000000001), 1.0, 0.3)
